import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from conftest import coeffs_linear, coeffs_sin, coeffs_sin_statesigma, coeffs_zero
from oracles import discrete_lq_min_action, ou_mode_quasipotential
import wallspde.rate as rate_module
from wallspde.dynamics import Control, solve_deterministic, solve_skeleton
from wallspde.lattice import SpaceTimeField, Walls, build_grid
from wallspde.rate import (
    OptimizerOptions,
    _ActionProblem,
    glue_path,
    infinite_horizon_check,
    level_set_distance,
    quasipotential_J,
    rate_I,
    rate_S,
    recover_control,
    shift_concat,
    stability_bound_check,
)

FAST_OPTS = OptimizerOptions(horizons=(1.0, 2.0, 4.0), dt=0.04, maxiter=300)


def smooth_control(grid, T, dt, amp=1.0, freq=2.0, mode=1):
    return Control.from_function(
        grid,
        T,
        dt,
        lambda x, t: amp * np.sin(freq * t + 0.3) * np.cos(mode * np.pi * x),
    )


# ------------------------------------------------------------ recovery


def test_recover_zero_control_flow():
    grid = build_grid(32)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_sin(2.0, 0.5)
    traj = solve_deterministic(0.4 * np.cos(np.pi * grid.nodes), coeffs, walls, 1.0, 1e-3)
    rec = recover_control(traj.u, coeffs, walls, 1e-3)
    assert rec.action <= 1e-4
    assert rec.eta.total_mass == 0.0
    assert rec.xi.total_mass == 0.0


def test_recover_round_trip_noncontact():
    grid = build_grid(32)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_sin(2.0, 0.5)
    dt = 1e-3
    control = smooth_control(grid, 1.0, dt, amp=0.8)
    traj = solve_skeleton(np.zeros(grid.n + 1), control, coeffs, walls, 1.0, dt)
    assert traj.eta.total_mass == 0.0 and traj.xi.total_mass == 0.0
    rec = recover_control(traj.u, coeffs, walls, dt)
    assert abs(rec.action - control.action) / control.action <= 2e-2
    assert np.max(np.abs(rec.residual)) <= 1e-9


def test_recover_pinned_patch_uses_force_not_control():
    grid = build_grid(16)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_linear(1.0, 2.0)  # outward drift at the upper wall
    dt = 1e-3
    traj = solve_skeleton(walls.k2.copy(), None, coeffs, walls, 0.2, dt)
    assert np.max(np.abs(traj.u.values - 1.0)) <= 1e-12  # pinned throughout
    rec = recover_control(traj.u, coeffs, walls, dt)
    # residual is alpha*K2 - f(K2) = 1 - 2 = -1, absorbed entirely by the force
    assert np.min(rec.xi.density) > 0.9
    assert np.max(np.abs(rec.hdot.values)) <= 1e-9


def test_recover_rejects_escaping_path():
    grid = build_grid(8)
    walls = Walls.constant(grid, -0.2, 0.2)
    times = np.linspace(0.0, 0.1, 11)
    vals = np.linspace(0.0, 0.5, 11)[:, None] * np.ones(grid.n + 1)
    v = SpaceTimeField(grid, times, vals)
    with pytest.raises(ValueError, match="walls"):
        recover_control(v, coeffs_zero(1.0), walls, 0.01)


# ------------------------------------------------------------ rates


def test_rate_I_zero_control_path():
    grid = build_grid(16)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_sin(2.0, 0.5)
    traj = solve_deterministic(0.3 * np.cos(np.pi * grid.nodes), coeffs, walls, 1.0, 1e-3)
    assert rate_I(traj.u, 0.0, 1.0, coeffs, walls) <= 1e-4


def test_rate_I_round_trip_and_additivity():
    grid = build_grid(24)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_sin(2.0, 0.5)
    dt = 1e-3
    control = smooth_control(grid, 1.0, dt, amp=0.7, freq=3.0)
    traj = solve_skeleton(np.zeros(grid.n + 1), control, coeffs, walls, 1.0, dt)
    total = rate_I(traj.u, 0.0, 1.0, coeffs, walls)
    assert abs(total - control.action) / control.action <= 2e-2
    left = rate_I(traj.u, 0.0, 0.5, coeffs, walls)
    right = rate_I(traj.u, 0.5, 1.0, coeffs, walls)
    assert total == pytest.approx(left + right, abs=1e-10)


def test_rate_I_infimum_property():
    grid = build_grid(16)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_sin(2.0, 0.5)
    dt = 2e-3
    for amp, freq, mode in ((0.5, 2.0, 0), (0.8, 3.0, 1), (0.4, 1.5, 2)):
        control = smooth_control(grid, 0.5, dt, amp=amp, freq=freq, mode=mode)
        traj = solve_skeleton(np.zeros(grid.n + 1), control, coeffs, walls, 0.5, dt)
        assert rate_I(traj.u, 0.0, 0.5, coeffs, walls) <= control.action + 1e-9


def test_rate_I_escaping_path_is_infinite():
    grid = build_grid(8)
    walls = Walls.constant(grid, -0.2, 0.2)
    times = np.linspace(0.0, 0.1, 11)
    vals = np.linspace(0.0, 0.5, 11)[:, None] * np.ones(grid.n + 1)
    v = SpaceTimeField(grid, times, vals)
    assert rate_I(v, 0.0, 0.1, coeffs_zero(1.0), walls) == math.inf


def test_rate_S_equals_I_for_small_paths():
    grid = build_grid(16)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_sin(2.0, 0.5)
    dt = 1e-3
    eps0 = min(-walls.k1.max(), walls.k2.min()) / 2.0
    control = smooth_control(grid, 0.5, dt, amp=0.3)
    traj = solve_skeleton(np.zeros(grid.n + 1), control, coeffs, walls, 0.5, dt)
    assert traj.u.sup_norm() < eps0
    s_val = rate_S(traj.u, 0.0, 0.5, coeffs)
    i_val = rate_I(traj.u, 0.0, 0.5, coeffs, walls)
    assert s_val == pytest.approx(i_val, abs=1e-12)


def test_rate_S_dominates_I_on_contact():
    grid = build_grid(16)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_linear(1.0, 2.0)
    dt = 1e-3
    traj = solve_skeleton(walls.k2.copy(), None, coeffs, walls, 0.2, dt)
    s_val = rate_S(traj.u, 0.0, 0.2, coeffs)
    i_val = rate_I(traj.u, 0.0, 0.2, coeffs, walls)
    assert s_val > i_val
    assert i_val <= 1e-12


def test_rate_S_zero_path():
    grid = build_grid(16)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_sin(2.0, 0.5)
    traj = solve_deterministic(np.zeros(grid.n + 1), coeffs, walls, 0.5, 1e-3)
    assert rate_S(traj.u, 0.0, 0.5, coeffs) <= 1e-20


# ------------------------------------------------------------ adjoint


def test_adjoint_gradient_matches_finite_differences():
    grid = build_grid(16)
    walls = Walls.constant(grid, -10.0, 10.0)
    coeffs = coeffs_sin_statesigma(1.0, 0.5, amp=0.3)
    steps = 20
    problem = _ActionProblem(coeffs, walls, 0.02, steps, 0.3 * np.ones(grid.n + 1), 1e-4)
    problem.w_pen = 1e3
    rng = np.random.default_rng(17)
    z = 0.5 * rng.normal(size=steps * (grid.n + 1))
    # Zero multiplier first, then a live one as the multiplier loop leaves it.
    for live in (False, True):
        problem.mu = 5.0 * rng.normal(size=grid.n + 1) if live else np.zeros(grid.n + 1)
        value, grad = problem.value_and_grad(z)
        for _ in range(5):
            d = rng.normal(size=z.size)
            d /= np.linalg.norm(d)
            h = 1e-6
            vp = problem.value_and_grad(z + h * d)[0]
            vm = problem.value_and_grad(z - h * d)[0]
            fd = (vp - vm) / (2.0 * h)
            an = float(grad @ d)
            assert abs(fd - an) / max(abs(fd), 1e-12) <= 1e-4


def test_free_start_gradient_matches_finite_differences():
    # The u0 block of the gradient is the adjoint state lam after the whole sweep.
    grid = build_grid(16)
    walls = Walls.constant(grid, -10.0, 10.0)
    coeffs = coeffs_sin_statesigma(1.0, 0.5, amp=0.3)
    steps = 20
    problem = _ActionProblem(
        coeffs, walls, 0.02, steps, 0.3 * np.ones(grid.n + 1), 1e-4, free_start=True
    )
    problem.w_pen, problem.w_init = 1e3, 10.0
    rng = np.random.default_rng(19)
    z = 0.5 * rng.normal(size=(steps + 1) * (grid.n + 1))
    for live in (False, True):
        problem.mu = 5.0 * rng.normal(size=grid.n + 1) if live else np.zeros(grid.n + 1)
        value, grad = problem.value_and_grad(z)
        for block in (slice(0, grid.n + 1), slice(None)):
            for _ in range(3):
                d = np.zeros(z.size)
                d[block] = rng.normal(size=d[block].size)
                d /= np.linalg.norm(d)
                h = 1e-6
                vp = problem.value_and_grad(z + h * d)[0]
                vm = problem.value_and_grad(z - h * d)[0]
                fd = (vp - vm) / (2.0 * h)
                an = float(grad @ d)
                assert abs(fd - an) / max(abs(fd), 1e-12) <= 1e-4


def per_step_value_and_grad(problem, z):
    """The adjoint written as one loop that calls every coefficient at every
    step, with the penalty restore spelled out on ``prop.solve``."""
    u0, h = problem.split(z)
    coeffs, x, dt, w = problem.coeffs, problem.grid.nodes, problem.dt, problem.weights
    lo, hi, r = problem.walls.k1, problem.walls.k2, problem.dt / problem.delta
    states = np.empty((problem.steps + 1, problem.n1))
    slopes = np.ones((problem.steps, problem.n1))
    states[0] = u0
    for k in range(problem.steps):
        u = states[k]
        y = problem.prop.solve(u + dt * coeffs.f(x, u) + dt * coeffs.sigma(x, u) * h[k])
        below, above = y < lo, y > hi
        restored = np.where(below, (y + r * lo) / (1.0 + r), y)
        states[k + 1] = np.where(above, (y + r * hi) / (1.0 + r), restored)
        slopes[k][below | above] = 1.0 / (1.0 + r)

    miss = states[-1] - problem.target
    value = 0.5 * dt * float(np.sum(w * h**2)) + problem.w_pen * float(np.sum(w * miss**2))
    value += float(np.sum(w * problem.mu * miss))
    if problem.free_start:
        value += problem.w_init * float(np.sum(w * u0**2))
    lam = 2.0 * problem.w_pen * w * miss + w * problem.mu
    grad_h = np.empty_like(h)
    for k in range(problem.steps - 1, -1, -1):
        u = states[k]
        q = problem.prop.solve_transpose(slopes[k] * lam)
        grad_h[k] = dt * w * h[k] + dt * coeffs.sigma(x, u) * q
        lam = q * (1.0 + dt * coeffs.df_du(x, u) + dt * coeffs.dsigma_du(x, u) * h[k])
    grad = grad_h.ravel()
    if problem.free_start:
        grad = np.concatenate([lam + 2.0 * problem.w_init * w * u0, grad])
    return value, grad, slopes


@pytest.mark.parametrize("free_start", [False, True])
@pytest.mark.parametrize(
    "coeffs, k1, k2",
    [(coeffs_zero(1.0), -10.0, 10.0), (coeffs_sin_statesigma(2.0, 0.5, amp=0.3), -0.2, 0.25)],
    ids=["wide_walls_zero_one", "binding_walls_sinusoidal_state_modulated"],
)
def test_adjoint_matches_the_per_step_loop_bit_for_bit(coeffs, k1, k2, free_start):
    grid = build_grid(16)
    walls = Walls.constant(grid, k1, k2)
    steps = 30
    problem = _ActionProblem(
        coeffs, walls, 0.02, steps, 0.2 * np.cos(np.pi * grid.nodes), 1e-4, free_start=free_start
    )
    problem.w_pen, problem.w_init = 1e4, 10.0 if free_start else 0.0
    rng = np.random.default_rng(29)
    push = np.tile(8.0 * np.cos(np.pi * grid.nodes), steps + free_start)
    # A zero multiplier, as the first round sees it, then live ones.
    for live in (False, True, True):
        problem.mu = 50.0 * rng.normal(size=grid.n + 1) if live else np.zeros(grid.n + 1)
        z = push + 3.0 * rng.normal(size=push.size)
        value, grad = problem.value_and_grad(z)
        expected_value, expected_grad, slopes = per_step_value_and_grad(problem, z)
        assert value == expected_value
        assert np.array_equal(grad, expected_grad)
        # The push crosses the binding walls, so penalty slopes enter the sweep.
        assert np.any(slopes < 1.0) == (k2 < 1.0)


# ------------------------------------------------------------ quasipotential


def test_quasipotential_zero_target():
    grid = build_grid(16)
    walls = Walls.constant(grid, -1.0, 1.0)
    res = quasipotential_J(np.zeros(grid.n + 1), coeffs_zero(1.0), walls, FAST_OPTS)
    assert res.value == 0.0
    assert res.converged


def test_quasipotential_constant_mode_benchmark():
    grid = build_grid(16)
    walls = Walls.constant(grid, -10.0, 10.0)
    alpha = 1.0
    coeffs = coeffs_zero(alpha)
    target = np.full(grid.n + 1, 0.3)
    res = quasipotential_J(target, coeffs, walls, FAST_OPTS)
    oracle = ou_mode_quasipotential(grid, alpha, target)
    assert oracle == pytest.approx(alpha * 0.09, rel=1e-12)
    assert res.converged
    assert abs(res.value - oracle) / oracle <= 0.05
    # brute-force control for the constant mode agrees
    lq, _ = discrete_lq_min_action(alpha, FAST_OPTS.dt, round(res.horizon / FAST_OPTS.dt), 0.3)
    assert abs(res.value - lq) / lq <= 0.05


def test_quasipotential_cosine_mode_benchmark():
    grid = build_grid(16)
    walls = Walls.constant(grid, -10.0, 10.0)
    alpha = 1.0
    coeffs = coeffs_zero(alpha)
    target = 0.3 * np.cos(np.pi * grid.nodes)
    # the mode relaxes at rate alpha + pi^2, so the control mesh must be fine
    # enough for the first-order-in-dt action bias to stay under the tolerance
    opts = OptimizerOptions(horizons=(0.5, 1.0), dt=0.004, maxiter=600)
    res = quasipotential_J(target, coeffs, walls, opts)
    oracle = ou_mode_quasipotential(grid, alpha, target)
    # continuum value (alpha + pi^2) * 0.045; the lattice eigenvalue shifts it slightly
    assert oracle == pytest.approx((alpha + np.pi**2) * 0.045, rel=2e-2)
    assert res.converged
    assert abs(res.value - oracle) / oracle <= 0.05


def test_quasipotential_monotone_in_horizon():
    grid = build_grid(16)
    walls = Walls.constant(grid, -10.0, 10.0)
    coeffs = coeffs_zero(2.0)
    target = np.full(grid.n + 1, 0.3)
    values = []
    for hs in ((0.5,), (0.5, 1.0), (0.5, 1.0, 2.0)):
        opts = OptimizerOptions(horizons=hs, dt=0.025, maxiter=300, improvement_tol=0.0)
        values.append(quasipotential_J(target, coeffs, walls, opts).value)
    assert values[0] >= values[1] - 1e-8
    assert values[1] >= values[2] - 1e-8


def score_with_misses(monkeypatch, missed_horizons):
    """Make the stages at ``missed_horizons`` miss the target with a halved
    control, so they report a lower value than they earned; log every stage."""
    real = rate_module._score_on_projected
    stages = []

    def score(hdot_rows, times, *args):
        traj, rec, gap = real(hdot_rows, times, *args)
        if times[-1] in missed_horizons:
            rec = dataclasses.replace(rec, hdot=Control(rec.hdot.grid, rec.hdot.times, 0.5 * rec.hdot.values))
            gap = 10.0 * FAST_OPTS.terminal_tol
        stages.append((times[-1], rec.action, gap))
        return traj, rec, gap

    monkeypatch.setattr(rate_module, "_score_on_projected", score)
    return stages


def test_quasipotential_prefers_converged_stages(monkeypatch):
    grid = build_grid(16)
    walls = Walls.constant(grid, -10.0, 10.0)
    stages = score_with_misses(monkeypatch, {2.0})
    res = quasipotential_J(np.full(grid.n + 1, 0.3), coeffs_zero(1.0), walls, FAST_OPTS)
    values = {horizon: value for horizon, value, _ in stages}
    assert values[2.0] < min(v for h, v in values.items() if h != 2.0)
    assert res.converged
    assert res.horizon != 2.0
    assert res.terminal_gap <= FAST_OPTS.terminal_tol
    assert res.value == min(v for h, v in values.items() if h != 2.0)


def test_quasipotential_without_a_converged_stage_takes_the_lowest(monkeypatch):
    grid = build_grid(16)
    walls = Walls.constant(grid, -10.0, 10.0)
    stages = score_with_misses(monkeypatch, set(FAST_OPTS.horizons))
    res = quasipotential_J(np.full(grid.n + 1, 0.3), coeffs_zero(1.0), walls, FAST_OPTS)
    # No converged stage, so no stop test: every horizon runs.
    assert [horizon for horizon, _, _ in stages] == list(FAST_OPTS.horizons)
    assert not res.converged
    assert res.value == min(value for _, value, _ in stages)


def multiplier_log(monkeypatch):
    """Log, per run of the multiplier loop, its rounds, its adjoint
    evaluations and the terminal gap of the penalized path it returns."""
    real_loop, real_minimize = rate_module._multipliers, rate_module.minimize
    log = []

    def minimize(fun, x0, **kwargs):
        result = real_minimize(fun, x0, **kwargs)
        log[-1]["rounds"] += 1
        log[-1]["nfev"] += result.nfev
        return result

    def loop(problem, z0, opts):
        log.append({"rounds": 0, "nfev": 0})
        z, grad_norm = real_loop(problem, z0, opts)
        miss = problem.forward(*problem.split(z))[0][-1] - problem.target
        log[-1]["gap"] = float(np.max(np.abs(miss)))
        return z, grad_norm

    monkeypatch.setattr(rate_module, "minimize", minimize)
    monkeypatch.setattr(rate_module, "_multipliers", loop)
    return log


@pytest.mark.parametrize("case", ["c08", "binding_walls_sinusoidal_state_modulated"])
def test_multiplier_loop_meets_its_stop_rule(monkeypatch, case):
    grid = build_grid(32)
    if case == "c08":
        walls = Walls.constant(grid, -10.0, 10.0)
        coeffs, target = coeffs_zero(1.0), np.full(grid.n + 1, 0.3)
        opts = OptimizerOptions(horizons=(1.0, 2.0, 4.0, 8.0), dt=0.02, maxiter=500)
    else:
        # The walls pass through the target at both ends, so the path ends in contact.
        walls = Walls.constant(grid, -0.2, 0.2)
        coeffs, target = coeffs_sin_statesigma(2.0, 0.5, amp=0.3), 0.2 * np.cos(np.pi * grid.nodes)
        opts = OptimizerOptions(horizons=(1.0, 2.0), dt=0.02, maxiter=60)
    log = multiplier_log(monkeypatch)
    res = quasipotential_J(target, coeffs, walls, opts)
    stop = rate_module._GAP_FRACTION * opts.terminal_tol
    assert res.converged
    assert res.terminal_gap <= stop
    assert len(log) == len(opts.horizons)
    for stage in log:
        assert 1 <= stage["rounds"] <= rate_module._MAX_ROUNDS
        assert stage["gap"] <= stop
    if case == "c08":
        # The three-weight penalty continuation took 565 evaluations here.
        assert sum(stage["nfev"] for stage in log) <= 565 // 2


def test_multiplier_loop_stops_at_the_round_cap(monkeypatch):
    """An inner solve that never moves leaves the gap where it is: every stage
    runs the round cap and the result says it missed, without raising."""
    calls = []

    def stuck(fun, x0, **kwargs):
        calls.append(fun)
        value, grad = fun(x0)
        return OptimizeResult(x=x0, fun=value, jac=grad, nfev=1, nit=0)

    monkeypatch.setattr(rate_module, "minimize", stuck)
    grid = build_grid(8)
    walls = Walls.constant(grid, -1.0, 1.0)
    target = np.full(grid.n + 1, 0.3)
    opts = OptimizerOptions(horizons=(0.5, 1.0), dt=0.05, maxiter=20)
    res = quasipotential_J(target, coeffs_zero(1.0), walls, opts)
    assert len(calls) == len(opts.horizons) * rate_module._MAX_ROUNDS
    assert not res.converged
    assert res.terminal_gap > opts.terminal_tol
    calls.clear()
    value = infinite_horizon_check(target, coeffs_zero(1.0), walls, opts)
    assert len(calls) == rate_module._MAX_ROUNDS
    assert math.isfinite(value)


def test_infinite_horizon_parametrization_agrees():
    grid = build_grid(16)
    walls = Walls.constant(grid, -10.0, 10.0)
    coeffs = coeffs_zero(1.0)
    target = np.full(grid.n + 1, 0.3)
    forward = quasipotential_J(target, coeffs, walls, FAST_OPTS)
    backward = infinite_horizon_check(target, coeffs, walls, FAST_OPTS)
    assert abs(backward - forward.value) / forward.value <= 0.05


def test_free_start_ends_at_the_full_anchor(monkeypatch):
    """A small target meets the stop gap in the first round, while the
    anchor on u0 is still light; the loop runs on to the full anchor."""
    real = rate_module.minimize
    anchors = []

    def minimize(fun, x0, **kwargs):
        anchors.append(fun.__self__.w_init)
        return real(fun, x0, **kwargs)

    monkeypatch.setattr(rate_module, "minimize", minimize)
    grid = build_grid(16)
    walls = Walls.constant(grid, -10.0, 10.0)
    target = np.full(grid.n + 1, 0.01)
    value = infinite_horizon_check(target, coeffs_zero(1.0), walls, FAST_OPTS)
    assert anchors[-1] == FAST_OPTS.initial_weight
    oracle = ou_mode_quasipotential(grid, 1.0, target)
    assert abs(value - oracle) / oracle <= 0.05


@pytest.mark.parametrize("missing", ["df_du", "dsigma_du"])
def test_optimizer_requires_coefficient_derivatives(missing):
    grid = build_grid(8)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = dataclasses.replace(coeffs_zero(1.0), **{missing: None})
    target = np.full(grid.n + 1, 0.3)
    for solve in (quasipotential_J, infinite_horizon_check):
        with pytest.raises(ValueError, match=missing):
            solve(target, coeffs, walls, FAST_OPTS)


def test_infinite_horizon_zero_target():
    grid = build_grid(16)
    walls = Walls.constant(grid, -1.0, 1.0)
    value = infinite_horizon_check(np.zeros(grid.n + 1), coeffs_zero(1.0), walls, FAST_OPTS)
    assert value <= 1e-6


def test_parametrizations_agree_on_random_targets():
    grid = build_grid(12)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_sin(2.0, 0.5)
    opts = OptimizerOptions(horizons=(1.0, 2.0, 4.0), dt=0.05, maxiter=250)
    rng = np.random.default_rng(23)
    for _ in range(5):
        target = np.clip(
            0.35 * rng.normal() + 0.2 * rng.normal() * np.cos(np.pi * grid.nodes),
            -0.8,
            0.8,
        ) * np.ones(grid.n + 1)
        forward = quasipotential_J(target, coeffs, walls, opts)
        backward = infinite_horizon_check(target, coeffs, walls, opts)
        if forward.value <= opts.terminal_tol:
            assert backward <= 0.05
        else:
            assert abs(backward - forward.value) / forward.value <= 0.10


# ------------------------------------------------------------ path surgery


def test_shift_concat_identity_and_action():
    grid = build_grid(8)
    control = smooth_control(grid, 1.0, 0.01, amp=1.2)
    same = shift_concat(control, 0.0)
    assert np.array_equal(same.values, control.values)
    for T in (0.5, 1.0, 3.0):
        shifted = shift_concat(control, T)
        assert shifted.action == pytest.approx(control.action, rel=1e-14)
        assert np.all(shifted.values[: round(T / 0.01)] == 0.0)
    with pytest.raises(ValueError, match="mesh"):
        shift_concat(control, 0.005)


def test_glue_path_junction():
    grid = build_grid(16)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_linear(2.0, 1.0)
    dt = 1e-2
    flow = solve_deterministic(np.full(grid.n + 1, 0.5), coeffs, walls, 1.0, dt)
    hbar = smooth_control(grid, 0.5, dt, amp=0.5)
    tail = solve_skeleton(flow.u.final, hbar, coeffs, walls, 0.5, dt)
    glued = glue_path(flow, tail)
    k = glued.index_of(1.0)
    assert np.array_equal(glued.values[k], flow.u.final)
    assert glued.times[-1] == pytest.approx(1.5)
    # mismatched start is rejected
    bad_tail = solve_skeleton(np.zeros(grid.n + 1), hbar, coeffs, walls, 0.5, dt)
    with pytest.raises(ValueError, match="junction"):
        glue_path(flow, bad_tail)


def test_stability_bound_zero_start():
    grid = build_grid(16)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_linear(2.0, 1.0)
    hbar = smooth_control(grid, 0.5, 1e-2, amp=0.4)
    f_value, ratio = stability_bound_check(np.zeros(grid.n + 1), 1.0, 0.5, hbar, coeffs, walls)
    assert f_value == 0.0
    assert ratio == 0.0


def test_stability_bound_decay_and_ratio():
    grid = build_grid(16)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_linear(2.0, 1.0)  # alpha1 = 1
    hbar = smooth_control(grid, 0.5, 1e-3, amp=0.3)
    z = np.full(grid.n + 1, 0.5)
    horizons = (1.0, 2.0, 4.0)
    f_vals, ratios = [], []
    for T in horizons:
        f_value, ratio = stability_bound_check(z, T, 0.5, hbar, coeffs, walls)
        f_vals.append(f_value)
        ratios.append(ratio)
    slope = np.polyfit(horizons, np.log(f_vals), 1)[0]
    assert abs(slope + 1.0) <= 0.15
    assert max(ratios) / min(ratios) <= 3.0


def test_level_set_distance():
    grid = build_grid(16)
    walls = Walls.constant(grid, -10.0, 10.0)
    coeffs = coeffs_zero(1.0)
    zero = quasipotential_J(np.zeros(grid.n + 1), coeffs, walls, FAST_OPTS)
    point = quasipotential_J(np.full(grid.n + 1, 0.3), coeffs, walls, FAST_OPTS)
    catalog = [zero, point]
    z = np.full(grid.n + 1, 0.3)
    assert level_set_distance(z, point.value + 0.01, catalog) == 0.0
    assert level_set_distance(z, 0.0, catalog) == pytest.approx(0.3)
    probe = 0.2 * np.cos(np.pi * grid.nodes)
    assert level_set_distance(probe, 0.0, catalog) == pytest.approx(0.2)
    with pytest.raises(ValueError, match="empty"):
        level_set_distance(z, 1.0, [])
