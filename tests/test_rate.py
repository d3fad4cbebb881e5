import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from conftest import (
    REGISTRY_KINDS, coeffs_linear, coeffs_sin, coeffs_sin_statesigma, coeffs_zero, counting, registry_coeffs, undeclared,
)
from oracles import discrete_lq_min_action, ou_mode_quasipotential
import wallspde.rate as rate_module
from wallspde.dynamics import Control, sample_noise, solve_deterministic, solve_skeleton, solve_spde
from wallspde.lattice import BLOCK_VALUES, SpaceTimeField, Walls, build_grid, neumann_operator
from wallspde.obstacle import check_complementarity, solve_obstacle
from wallspde.rate import (
    OptimizerOptions,
    _ActionProblem,
    contact_tolerance,
    infinite_horizon_check,
    quasipotential_J,
    rate_I,
    rate_S,
    recover_control,
    shift_concat,
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


# ------------------------------------------------------------ block-wise functionals


def full_array_recovery(v, coeffs, walls, dt):
    """The whole-path formulas the block-wise recovery must reproduce bit for bit."""
    u, x = v.values, v.grid.nodes
    sig = coeffs.sigma(x, u[:-1])
    op = neumann_operator(v.grid, coeffs.alpha)
    residual = (u[1:] - u[:-1]) / dt - op.apply(u[1:]) - coeffs.f(x, u[:-1])
    if walls is None:
        return residual / sig, None, None
    tol = contact_tolerance(walls)
    eta = np.where(np.abs(u[1:] - walls.k1) <= tol, np.maximum(residual, 0.0), 0.0)
    xi = np.where(np.abs(u[1:] - walls.k2) <= tol, np.maximum(-residual, 0.0), 0.0)
    return (residual - eta + xi) / sig, eta, xi


def full_array_action(v, t1, t2, coeffs, walls=None):
    window = v.restrict(t1, t2)
    if walls is not None and not walls.contains(window.values, tol=1e-9):
        return math.inf
    hdot = full_array_recovery(window, coeffs, walls, window.dt)[0]
    return Control(window.grid, window.times.copy(), hdot).action


def clipped_walk(grid, steps, dt, seed, walls):
    """A rough path that sits on both walls at many nodes, so both forces act."""
    rng = np.random.default_rng(seed)
    noise = rng.normal(scale=0.05, size=(steps + 1, grid.n + 1))
    noise[0] = 0.0
    values = np.clip(np.cumsum(noise, axis=0) + 0.1 * np.cos(np.pi * grid.nodes), walls.k1, walls.k2)
    return SpaceTimeField(grid, dt * np.arange(steps + 1), values)


@pytest.mark.parametrize("n", [32, 2048])
def test_blockwise_functionals_match_full_array_formulas_bit_for_bit(n):
    grid = build_grid(n)
    walls = Walls.constant(grid, -0.2, 0.25)
    # Reaction beats decay at both walls, so pinned nodes need a force.
    coeffs = coeffs_sin_statesigma(0.5, 3.0, amp=0.3)
    dt = 1e-3
    rows = BLOCK_VALUES // (n + 1)
    for steps in (rows - 1, rows, rows + 1, 3 * rows + 2):
        v = clipped_walk(grid, steps, dt, steps, walls)
        rec = recover_control(v, coeffs, walls, dt)
        assert rec.eta.total_mass > 0.0 and rec.xi.total_mass > 0.0
        got = (rec.hdot.values, rec.eta.density, rec.xi.density)
        assert all(np.array_equal(a, b) for a, b in zip(got, full_array_recovery(v, coeffs, walls, dt)))
        T = v.times[-1]
        inner = (v.times[1], v.times[-2])
        for t1, t2 in ((0.0, T), inner):
            assert rate_I(v, t1, t2, coeffs, walls) == full_array_action(v, t1, t2, coeffs, walls)
            assert rate_S(v, t1, t2, coeffs) == full_array_action(v, t1, t2, coeffs)


def test_rate_I_is_infinite_only_for_an_inadmissible_window():
    grid = build_grid(32)
    walls = Walls.constant(grid, -0.2, 0.25)
    coeffs = coeffs_sin(2.0, 0.5)
    steps = 3 * (BLOCK_VALUES // (grid.n + 1)) + 2
    v = clipped_walk(grid, steps, 1e-3, 5, walls)
    late = steps - 3  # an escape in the last block, after admissible ones
    v.values[late, 7] = 0.3
    T = v.times[-1]
    assert rate_I(v, 0.0, T, coeffs, walls) == math.inf
    assert rate_I(v, v.times[late - 1], T, coeffs, walls) == math.inf
    assert math.isfinite(rate_I(v, 0.0, v.times[late - 1], coeffs, walls))
    v.values[late, 7] = np.nan
    assert rate_I(v, 0.0, T, coeffs, walls) == math.inf


def test_path_functionals_raise_on_bad_windows():
    grid = build_grid(16)
    walls = Walls.constant(grid, -0.5, 0.5)
    coeffs = coeffs_sin_statesigma(2.0, 0.5, amp=0.3)
    v = clipped_walk(grid, 40, 1e-2, 3, walls)
    T = v.times[-1]
    # The walk stays in the band, so sigma = 1 + 0.3 sin(u) dips below 0.95 somewhere.
    strict = dataclasses.replace(coeffs, sigma_min=0.95)
    assert np.min(coeffs.sigma(grid.nodes, v.values[:-1])) < 0.95
    with pytest.raises(ValueError, match="dips below"):
        rate_I(v, 0.0, T, strict, walls)
    with pytest.raises(ValueError, match="dips below"):
        recover_control(v, strict, walls, 1e-2)
    with pytest.raises(ValueError, match="lower bound must be positive"):
        rate_I(v, 0.0, T, dataclasses.replace(coeffs, sigma_min=0.0), walls)
    uneven = SpaceTimeField(grid, np.concatenate([v.times[:-1], [T + 5e-3]]), v.values)
    with pytest.raises(ValueError, match="not uniform"):
        rate_I(uneven, 0.0, T + 5e-3, coeffs, walls)
    with pytest.raises(ValueError, match="not uniform"):
        rate_S(uneven, 0.0, T + 5e-3, coeffs)
    for fn in (lambda a, b: rate_I(v, a, b, coeffs, walls), lambda a, b: rate_S(v, a, b, coeffs)):
        with pytest.raises(ValueError, match="empty restriction window"):
            fn(0.1, 0.1)
        with pytest.raises(ValueError, match="not on the mesh"):
            fn(0.0, 0.105)


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_path_functionals_reject_a_non_finite_time(t):
    # A NaN t1 was read as t = 0, so the window [nan, 0.2] was priced as [0, 0.2].
    grid = build_grid(16)
    walls = Walls.constant(grid, -0.5, 0.5)
    coeffs = coeffs_sin_statesigma(2.0, 0.5, amp=0.3)
    v = clipped_walk(grid, 40, 1e-2, 3, walls)
    for fn in (lambda a, b: rate_I(v, a, b, coeffs, walls), lambda a, b: rate_S(v, a, b, coeffs)):
        for window in ((t, 0.2), (0.0, t)):
            with pytest.raises(ValueError, match=f"time must be finite, got {t}"):
                fn(*window)


def test_rate_I_memory_stays_bounded_at_large_n():
    # The full-array formulas held about eight (512, 2049) temporaries, 66 MiB.
    grid = build_grid(2048)
    walls = Walls.constant(grid, -0.2, 0.25)
    coeffs = coeffs_sin_statesigma(2.0, 0.5, amp=0.3)
    v = clipped_walk(grid, 512, 1.0 / 2048, 11, walls)
    tracemalloc.start()
    try:
        value = rate_I(v, 0.0, v.times[-1], coeffs, walls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(value)
    assert peak < 16 * 2**20


def test_recovery_memory_is_its_three_outputs_plus_block_temporaries():
    # hdot, eta and xi are the only path-sized arrays; a block's temporaries
    # take about nine blocks, and a fourth (512, 2049) array would be sixteen.
    grid = build_grid(2048)
    walls = Walls.constant(grid, -0.2, 0.25)
    coeffs = coeffs_sin_statesigma(0.5, 3.0, amp=0.3)
    v = clipped_walk(grid, 512, 1e-3, 1, walls)
    tracemalloc.start()
    try:
        recover_control(v, coeffs, walls, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * v.values[1:].nbytes + 16 * 8 * BLOCK_VALUES


# ------------------------------------------------------------ adjoint


def test_adjoint_gradient_matches_finite_differences():
    grid = build_grid(16)
    walls = Walls.constant(grid, -10.0, 10.0)
    coeffs = coeffs_sin_statesigma(1.0, 0.5, amp=0.3)
    steps = 20
    problem = _ActionProblem(coeffs, walls, 0.02, steps, 0.3 * np.ones(grid.n + 1))
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
        coeffs, walls, 0.02, steps, 0.3 * np.ones(grid.n + 1), free_start=True
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
    step, with the clip spelled out on ``prop.solve`` and each step's 0/1
    slope applied before its transposed solve."""
    u0, h = problem.split(z)
    coeffs, x, dt, w = problem.coeffs, problem.grid.nodes, problem.dt, problem.weights
    lo, hi = problem.walls.k1, problem.walls.k2
    states = np.empty((problem.steps + 1, problem.n1))
    slopes = np.ones((problem.steps, problem.n1))
    states[0] = u0
    for k in range(problem.steps):
        u = states[k]
        y = problem.prop.solve(u + dt * coeffs.f(x, u) + dt * coeffs.sigma(x, u) * h[k])
        states[k + 1] = np.clip(y, lo, hi)
        slopes[k][(y < lo) | (y > hi)] = 0.0

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
        coeffs, walls, 0.02, steps, 0.2 * np.cos(np.pi * grid.nodes), free_start=free_start
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
        # The push crosses the binding walls, so zero slopes enter the sweep.
        assert np.any(slopes == 0.0) == (k2 < 1.0)


@pytest.mark.parametrize("n", [16, 512])
def test_optimizer_forward_map_is_the_projected_integrator(n):
    # n=16 takes the dense solve and n=512 the banded one; the push crosses
    # both binding walls, so both clips act.
    grid = build_grid(n)
    walls = Walls.constant(grid, -0.2, 0.25)
    coeffs = coeffs_sin_statesigma(2.0, 0.5)
    dt, steps = 0.02, 15
    problem = _ActionProblem(coeffs, walls, dt, steps, np.zeros(grid.n + 1))
    rng = np.random.default_rng(41)
    h = 8.0 * np.cos(np.pi * grid.nodes) + 3.0 * rng.normal(size=(steps, grid.n + 1))
    u0 = 0.1 * np.cos(np.pi * grid.nodes)
    states, slopes, _ = problem.forward(u0, h)
    control = Control(grid, np.linspace(0.0, steps * dt, steps + 1), h)
    traj = solve_skeleton(u0, control, coeffs, walls, steps * dt, dt, mode="projected")
    assert np.any(traj.eta.density > 0.0) and np.any(traj.xi.density > 0.0)
    assert np.array_equal(states, traj.u.values)
    # Slope 0 exactly where a wall restored the free value: there the force acts.
    assert np.array_equal(~slopes, (traj.eta.density > 0.0) | (traj.xi.density > 0.0))


@pytest.mark.parametrize("free_start", [False, True])
def test_adjoint_gradient_matches_finite_differences_at_binding_walls(free_start):
    # The push pins part of the path to both walls, where the clip's slope is
    # 0; each direction is checked away from a kink, where the active set is
    # the same at both finite-difference points.
    grid = build_grid(16)
    walls = Walls.constant(grid, -0.2, 0.25)
    steps = 20
    problem = _ActionProblem(
        coeffs_sin_statesigma(2.0, 0.5, amp=0.3), walls, 0.02, steps, 0.2 * np.cos(np.pi * grid.nodes),
        free_start=free_start,
    )
    problem.w_pen, problem.w_init = 1e3, 10.0 if free_start else 0.0
    rng = np.random.default_rng(43)
    push = np.tile(8.0 * np.cos(np.pi * grid.nodes), steps + free_start)
    z = push + 3.0 * rng.normal(size=push.size)
    slopes = problem.forward(*problem.split(z))[1]
    assert 0 < np.count_nonzero(~slopes) < slopes.size
    h = 1e-6
    for live in (False, True):
        problem.mu = 5.0 * rng.normal(size=grid.n + 1) if live else np.zeros(grid.n + 1)
        value, grad = problem.value_and_grad(z)
        for _ in range(5):
            d = rng.normal(size=z.size)
            d /= np.linalg.norm(d)
            for point in (z + h * d, z - h * d):
                assert np.array_equal(problem.forward(*problem.split(point))[1], slopes)
            fd = (problem.value_and_grad(z + h * d)[0] - problem.value_and_grad(z - h * d)[0]) / (2.0 * h)
            an = float(grad @ d)
            assert abs(fd - an) / max(abs(fd), 1e-12) <= 1e-4


@pytest.mark.parametrize("f_kind, sigma_kind", REGISTRY_KINDS)
def test_declared_coefficients_keep_the_undeclared_rates_and_gradients(f_kind, sigma_kind):
    # A noisy path in contact with both walls, recovered and priced, and the
    # optimizer's value and gradient at a control that drives it onto them.
    grid = build_grid(16)
    walls = Walls.constant(grid, -0.12, 0.12)
    declared = registry_coeffs(2.0, f_kind, sigma_kind)
    stripped = undeclared(declared)
    path = solve_spde(np.zeros(grid.n + 1), 1.0, declared, walls, 0.1, 2e-3, seed=11).u
    assert rate_I(path, 0.0, 0.1, declared, walls) == rate_I(path, 0.0, 0.1, stripped, walls) < math.inf
    assert rate_S(path, 0.0, 0.1, declared) == rate_S(path, 0.0, 0.1, stripped)
    got, want = recover_control(path, declared, walls, 2e-3), recover_control(path, stripped, walls, 2e-3)
    for a, b in ((got.hdot.values, want.hdot.values), (got.eta.density, want.eta.density), (got.xi.density, want.xi.density)):
        assert a.tobytes() == b.tobytes()
    assert np.any(path.values == walls.k1) and np.any(path.values == walls.k2)
    steps = 12
    z = np.tile(8.0 * np.cos(np.pi * grid.nodes), steps)
    results = []
    for coeffs in (declared, stripped):
        problem = _ActionProblem(coeffs, walls, 0.02, steps, 0.1 * np.ones(grid.n + 1))
        problem.w_pen, problem.mu = 1e3, np.linspace(-1.0, 1.0, grid.n + 1)
        value, grad = problem.value_and_grad(z)
        results.append((value, grad.tobytes()))
    assert results[0] == results[1]


@pytest.mark.parametrize("f_kind", ["zero", "sinusoidal"])
@pytest.mark.parametrize("sigma_kind", ["one", "cosine_profile"])
def test_declared_gradient_has_the_undeclared_bits_past_a_row_block(f_kind, sigma_kind):
    # 200 steps at n=512 are two row blocks of 127 rows; the declared forward
    # pass builds all its drives in one call and marches them on the banded solve.
    grid = build_grid(512)
    walls = Walls.constant(grid, -0.12, 0.12)
    declared = registry_coeffs(2.0, f_kind, sigma_kind)
    steps = 200
    z = np.tile(8.0 * np.cos(np.pi * grid.nodes), steps) * np.repeat(np.sin(np.linspace(0.0, 6.0, steps)), grid.n + 1)
    results = []
    for coeffs in (declared, undeclared(declared)):
        problem = _ActionProblem(coeffs, walls, 0.02, steps, 0.1 * np.ones(grid.n + 1))
        problem.w_pen, problem.mu = 1e3, np.linspace(-1.0, 1.0, grid.n + 1)
        assert problem.prop.matrix is None
        value, grad = problem.value_and_grad(z)
        slopes = problem.forward(*problem.split(z))[1]
        results.append((value, grad.tobytes()))
    second_block = slopes[BLOCK_VALUES // (grid.n + 1) :]
    assert second_block.any() and not second_block.all()
    assert results[0] == results[1]


def test_optimizer_calls_each_coefficient_once_per_step_or_gradient():
    # perfbench's coeff_calls and adjoint_sweeps count these calls: the
    # forward pass calls f and sigma once per step, and the gradient adds one
    # df_du and one dsigma_du call after it.
    grid = build_grid(16)
    coeffs, calls = counting(coeffs_sin_statesigma(2.0, 0.5))
    steps = 12
    problem = _ActionProblem(coeffs, Walls.constant(grid, -0.2, 0.25), 0.02, steps, np.zeros(grid.n + 1))
    z = np.tile(8.0 * np.cos(np.pi * grid.nodes), steps)
    problem.forward(*problem.split(z))
    assert calls == {"f": steps, "sigma": steps, "df_du": 0, "dsigma_du": 0}
    problem.value_and_grad(z)
    assert calls == {"f": 2 * steps, "sigma": 2 * steps, "df_du": 1, "dsigma_du": 1}


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


@pytest.mark.parametrize("case", ["c08", "binding_walls_sinusoidal_state_modulated"])
def test_multiplier_loop_meets_its_stop_rule(case):
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
    res = quasipotential_J(target, coeffs, walls, opts)
    stop = rate_module._GAP_FRACTION * opts.terminal_tol
    assert res.converged
    assert res.terminal_gap <= stop
    assert [stage.horizon for stage in res.stages] == list(opts.horizons)
    for stage in res.stages:
        assert 1 <= stage.rounds <= rate_module._MAX_ROUNDS
        assert stage.terminal_gap <= stop
    # The carried multiplier already holds the shifted control's end in place.
    assert all(stage.rounds == 1 for stage in res.stages[1:])
    if case == "c08":
        # The three-weight penalty continuation took 565 evaluations here,
        # and a fresh multiplier per stage 240.
        assert sum(stage.nfev for stage in res.stages) <= 565 // 2
        assert sum(stage.nfev for stage in res.stages) <= 180
        # L-BFGS on the control itself took 170 evaluations here, and 26 in
        # the action's own metric.
        assert sum(stage.nfev for stage in res.stages) <= 40
    else:
        # On the control itself the first stage stopped at maxiter.
        assert not any("ITERATIONS REACHED LIMIT" in stage.message for stage in res.stages)
        # Differentiating the penalized scheme took 110 evaluations here, and
        # the clip with 20 curvature pairs and a loose first round 68.
        assert sum(stage.nfev for stage in res.stages) <= 80


@pytest.mark.parametrize("free_start", [False, True])
def test_scaled_objective_is_the_chain_rule_of_value_and_grad(free_start):
    grid = build_grid(16)
    walls = Walls.constant(grid, -0.2, 0.25)
    steps = 30
    problem = _ActionProblem(
        coeffs_sin_statesigma(2.0, 0.5, amp=0.3), walls, 0.02, steps, 0.2 * np.cos(np.pi * grid.nodes),
        free_start=free_start,
    )
    problem.w_pen, problem.w_init = 1e3, 10.0 if free_start else 0.0
    rng = np.random.default_rng(37)
    problem.mu = 5.0 * rng.normal(size=grid.n + 1)
    y = 3.0 * rng.normal(size=(steps + free_start) * (grid.n + 1))
    scale = np.tile(np.sqrt(grid.dx / grid.weights), steps + free_start)
    assert np.array_equal(problem.scale, scale)
    assert set(scale[: grid.n + 1]) == {1.0, math.sqrt(2.0)}
    # In y the action weighs every coordinate alike.
    h = problem.split(y * scale)[1]
    assert 0.5 * problem.dt * np.sum(grid.weights * h**2) == pytest.approx(
        0.5 * problem.dt * grid.dx * np.sum(problem.split(y)[1] ** 2), rel=1e-12
    )
    value, grad = problem.scaled_value_and_grad(y)
    expected_value, expected_grad = problem.value_and_grad(y * scale)
    assert value == expected_value
    assert np.array_equal(grad, expected_grad * scale)


def test_stage_gradient_norm_is_in_control_coordinates(monkeypatch):
    """L-BFGS sees the scaled gradient; the record converts it back.  A target
    spiked at x = 0 puts the largest entry at an end node, where the two
    coordinates differ by sqrt 2."""
    norms = []

    def stuck(fun, x0, **kwargs):
        value, grad = fun(x0)
        assert not np.any(x0)  # the zero control, in either coordinates
        control_grad = fun.__self__.value_and_grad(x0)[1]
        norms.append((float(np.max(np.abs(control_grad))), float(np.max(np.abs(grad)))))
        return OptimizeResult(x=x0, fun=value, jac=grad, nfev=1, nit=0, message="stuck")

    monkeypatch.setattr(rate_module, "minimize", stuck)
    grid = build_grid(8)
    walls = Walls.constant(grid, -1.0, 1.0)
    target = np.where(grid.nodes == 0.0, 0.3, 0.0)
    opts = OptimizerOptions(horizons=(0.5,), dt=0.05, maxiter=20)
    (stage,) = quasipotential_J(target, coeffs_zero(1.0), walls, opts).stages
    control_norm, scaled_norm = norms[-1]
    assert stage.gradient_norm == pytest.approx(control_norm, rel=1e-12)
    assert scaled_norm > 1.2 * control_norm


def test_stage_records_describe_the_result():
    grid = build_grid(16)
    walls = Walls.constant(grid, -10.0, 10.0)
    res = quasipotential_J(np.full(grid.n + 1, 0.3), coeffs_zero(1.0), walls, FAST_OPTS)
    chosen = [stage for stage in res.stages if stage.horizon == res.horizon]
    assert len(chosen) == 1
    assert (chosen[0].value, chosen[0].terminal_gap) == (res.value, res.terminal_gap)
    assert chosen[0].gradient_norm == res.gradient_norm
    for stage in res.stages:
        assert stage.nit <= stage.nfev
        assert stage.message
    assert quasipotential_J(np.zeros(grid.n + 1), coeffs_zero(1.0), walls, FAST_OPTS).stages == ()


def test_each_stage_starts_at_the_previous_stage_multiplier(monkeypatch):
    real = rate_module._multipliers
    seen = []

    def loop(problem, z0, opts):
        start = problem.mu.copy()
        z, record = real(problem, z0, opts)
        seen.append((start, problem.mu.copy()))
        return z, record

    monkeypatch.setattr(rate_module, "_multipliers", loop)
    grid = build_grid(16)
    walls = Walls.constant(grid, -10.0, 10.0)
    quasipotential_J(np.full(grid.n + 1, 0.3), coeffs_zero(1.0), walls, FAST_OPTS)
    assert len(seen) >= 2
    assert not np.any(seen[0][0])
    for (_, end), (start, _) in zip(seen, seen[1:]):
        assert np.array_equal(start, end)


@pytest.mark.parametrize("free_start", [False, True])
def test_terminal_state_reuse_is_bit_identical(free_start):
    grid = build_grid(16)
    walls = Walls.constant(grid, -0.2, 0.25)
    steps = 30
    problem = _ActionProblem(
        coeffs_sin_statesigma(2.0, 0.5, amp=0.3), walls, 0.02, steps, 0.2 * np.cos(np.pi * grid.nodes),
        free_start=free_start,
    )
    rng = np.random.default_rng(31)
    z, other = 3.0 * rng.normal(size=(2, (steps + free_start) * (grid.n + 1)))
    fresh = problem.forward(*problem.split(z))[0][-1]
    problem.value_and_grad(z)
    assert np.array_equal(problem.terminal(z), fresh)
    # A point other than the last evaluated one runs the forward pass.
    assert np.array_equal(problem.terminal(other), problem.forward(*problem.split(other))[0][-1])
    assert np.array_equal(problem.terminal(z.copy()), fresh)


@pytest.mark.parametrize(
    "horizons, dt, key",
    [
        ((2.0, 1.0), 0.02, "horizons[1]"),
        ((1.0, 1.0), 0.02, "horizons[1]"),
        ((1.01,), 0.02, "horizons[0]"),
        ((0.01,), 0.02, "horizons[0]"),
        ((1e308,), 0.02, "horizons[0]"),
        ((), 0.02, "horizons"),
        ((1.0,), 0.0, "dt"),
        ((1.0,), math.nan, "dt"),
        ((1.0,), math.inf, "dt"),
        ((math.nan,), 0.02, "horizons[0]"),
        ((-1.0,), 0.02, "horizons[0]"),
    ],
)
def test_optimizer_options_reject_bad_horizons(horizons, dt, key):
    with pytest.raises(ValueError, match=re.escape(key)):
        OptimizerOptions(horizons=horizons, dt=dt)


@pytest.mark.parametrize(
    "field, value",
    [
        ("maxiter", 0),
        ("maxiter", -3),
        ("maxiter", 2.5),
        ("maxiter", math.nan),
        ("maxiter", math.inf),
        ("terminal_tol", math.nan),
        ("terminal_tol", -1.0),
        ("terminal_tol", 0.0),
        ("terminal_tol", math.inf),
        ("improvement_tol", math.nan),
        ("improvement_tol", -1e-3),
        ("improvement_tol", math.inf),
    ],
)
def test_optimizer_options_reject_bad_numbers(field, value):
    # maxiter=0 used to report a converged stage 12% above the real value.
    with pytest.raises(ValueError, match=f"^{field} "):
        OptimizerOptions(horizons=(1.0, 2.0), dt=0.05, **{field: value})


def test_optimizer_options_accept_horizons_within_round_off_of_the_mesh():
    OptimizerOptions(horizons=(0.1, 0.3, 0.7), dt=0.1)
    OptimizerOptions(horizons=(0.5, 1.0), dt=0.004)


def test_multiplier_loop_stops_at_the_round_cap(monkeypatch):
    """An inner solve that never moves leaves the gap where it is: every stage
    runs the round cap and the result says it missed, without raising."""
    calls = []

    def stuck(fun, x0, **kwargs):
        calls.append(fun)
        value, grad = fun(x0)
        return OptimizeResult(x=x0, fun=value, jac=grad, nfev=1, nit=0, message="stuck")

    monkeypatch.setattr(rate_module, "minimize", stuck)
    grid = build_grid(8)
    walls = Walls.constant(grid, -1.0, 1.0)
    target = np.full(grid.n + 1, 0.3)
    opts = OptimizerOptions(horizons=(0.5, 1.0), dt=0.05, maxiter=20)
    res = quasipotential_J(target, coeffs_zero(1.0), walls, opts)
    assert len(calls) == len(opts.horizons) * rate_module._MAX_ROUNDS
    assert [stage.rounds for stage in res.stages] == [rate_module._MAX_ROUNDS] * len(opts.horizons)
    assert not res.converged
    assert res.terminal_gap > opts.terminal_tol
    calls.clear()
    value = infinite_horizon_check(target, coeffs_zero(1.0), walls, opts)
    assert len(calls) == rate_module._MAX_ROUNDS
    assert math.isfinite(value)


def test_only_the_first_round_at_zero_multiplier_runs_loose(monkeypatch):
    """The round that starts at mu = 0 only feeds the first multiplier update:
    it stops at the loose ftol and never ends the loop, even when its path
    already ends within the stop gap, as it does for a target this close to
    rest.  Every later round, and the free start's, is tight."""
    real = rate_module.minimize
    rounds = []

    def record(fun, x0, **kwargs):
        result = real(fun, x0, **kwargs)
        problem = fun.__self__
        miss = problem.terminal(result.x * problem.scale) - problem.target
        rounds.append((dict(kwargs["options"]), float(np.max(np.abs(miss)))))
        return result

    monkeypatch.setattr(rate_module, "minimize", record)
    grid = build_grid(16)
    walls = Walls.constant(grid, -10.0, 10.0)
    target = np.full(grid.n + 1, 0.05)
    stop = rate_module._GAP_FRACTION * FAST_OPTS.terminal_tol
    for run in (infinite_horizon_check, quasipotential_J):
        rounds.clear()
        result = run(target, coeffs_zero(1.0), walls, FAST_OPTS)
        assert all(options["maxcor"] == rate_module._LBFGS_PAIRS for options, _ in rounds)
        ftols = [options["ftol"] for options, _ in rounds]
        assert ftols == [rate_module._LOOSE_FTOL] + [1e-14] * (len(rounds) - 1)
    # quasipotential_J ran last; its first stage needed a tight round after the loose one.
    assert rounds[0][1] <= stop and result.stages[0].rounds >= 2


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
    assert anchors[-1] == rate_module._ANCHOR_WEIGHT
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


@pytest.mark.parametrize("T", [math.inf, math.nan, -0.5, 0.005])
def test_shift_concat_rejects_a_wait_off_the_mesh(T):
    # shift_concat(c, inf) raised OverflowError.
    control = smooth_control(build_grid(8), 1.0, 0.01)
    with pytest.raises(ValueError, match=f"shift T = {T} is not a whole number"):
        shift_concat(control, T)


def _mesh_case(name, scale):
    """Call ``name`` with a mesh whose step is ``scale`` times the solver's dt = 0.01."""
    grid = build_grid(16)
    walls = Walls.constant(grid, -0.5, 0.5)
    coeffs = coeffs_zero(2.0)
    T, dt = 0.1, 0.01
    times = np.linspace(0.0, T, 11)
    zero = np.zeros(grid.n + 1)
    field = SpaceTimeField(grid, times * scale, np.zeros((11, grid.n + 1)))
    if name == "solve_skeleton":
        solve_skeleton(zero, Control.zero(grid, times * scale), coeffs, walls, T, dt)
    elif name == "solve_spde":
        solve_spde(zero, 0.1, coeffs, walls, T, dt, noise=sample_noise(grid, dt * scale, 10, seed=1))
    elif name == "solve_obstacle":
        solve_obstacle(field, walls, 1.0, dt)
    elif name == "recover_control":
        recover_control(field, coeffs, walls, dt)
    else:
        unscaled = SpaceTimeField(grid, times, field.values)
        check_complementarity(solve_obstacle(unscaled, walls, 1.0, dt), field, walls)


@pytest.mark.parametrize(
    "name", ["solve_skeleton", "solve_spde", "solve_obstacle", "recover_control", "check_complementarity"]
)
@pytest.mark.parametrize("scale, ok", [(1.0 + 4e-16, True), (1.0 - 4e-16, True), (1.0 + 1e-6, False), (1.0 - 1e-6, False)])
def test_mesh_step_comparison(name, scale, ok):
    # A step off by round-off passes; one off by 1e-6 relative raises.
    if ok:
        _mesh_case(name, scale)
    else:
        with pytest.raises(ValueError, match="does not match the .* time mesh"):
            _mesh_case(name, scale)


def _grid_case(name):
    """Call ``name`` with walls on an n=8 grid and its other input on an n=16 grid."""
    coarse, fine = build_grid(8), build_grid(16)
    walls = Walls.constant(coarse, -0.5, 0.5)
    coeffs = coeffs_zero(2.0)
    T, dt = 0.1, 0.01
    times = np.linspace(0.0, T, 11)
    field = SpaceTimeField(fine, times, np.zeros((11, fine.n + 1)))
    zero = np.zeros(coarse.n + 1)
    if name == "solve_skeleton":
        solve_skeleton(zero, Control.zero(fine, times), coeffs, walls, T, dt)
    elif name == "solve_spde":
        solve_spde(zero, 0.1, coeffs, walls, T, dt, noise=sample_noise(fine, dt, 10, seed=1))
    elif name == "recover_control":
        recover_control(field, coeffs, walls, dt)
    elif name == "rate_I":
        rate_I(field, 0.0, T, coeffs, walls)
    else:
        check_complementarity(solve_obstacle(field, Walls.constant(fine, -0.5, 0.5), 1.0, dt), field, walls)


@pytest.mark.parametrize(
    "name", ["solve_skeleton", "solve_spde", "recover_control", "rate_I", "check_complementarity"]
)
def test_inputs_on_another_grid_are_named(name):
    # These raised numpy's "operands could not be broadcast together" error.
    with pytest.raises(ValueError, match=r"grid has n=(8|16), which does not match n=(8|16)"):
        _grid_case(name)


def start_gap(z, T, T0, hbar, coeffs, walls):
    """Sup-norm gap over [0, T0] between the controlled path from rest and the
    same control started from the T-relaxed state of z, and that gap relative
    to the relaxed state's size (0 when the state is 0)."""
    dt = hbar.dt
    relaxed = solve_deterministic(np.asarray(z, dtype=float), coeffs, walls, T, dt).u.final
    psi = solve_skeleton(np.zeros(walls.grid.n + 1), hbar, coeffs, walls, T0, dt)
    psibar = solve_skeleton(relaxed, hbar, coeffs, walls, T0, dt)
    gap = float(np.max(np.abs(psi.u.values - psibar.u.values)))
    size = float(np.max(np.abs(relaxed)))
    return gap, gap / size if size > 0.0 else 0.0


def test_stability_bound_zero_start():
    grid = build_grid(16)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_linear(2.0, 1.0)
    hbar = smooth_control(grid, 0.5, 1e-2, amp=0.4)
    f_value, ratio = start_gap(np.zeros(grid.n + 1), 1.0, 0.5, hbar, coeffs, walls)
    assert f_value == 0.0
    assert ratio == 0.0


def test_stability_bound_decay_and_ratio():
    # The skeleton is Lipschitz in its start on a finite window: the gap decays
    # like the relaxed state, at rate alpha1, so its ratio to that state stays bounded.
    grid = build_grid(16)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_linear(2.0, 1.0)  # alpha1 = 1
    hbar = smooth_control(grid, 0.5, 1e-3, amp=0.3)
    z = np.full(grid.n + 1, 0.5)
    horizons = (1.0, 2.0, 4.0)
    f_vals, ratios = [], []
    for T in horizons:
        f_value, ratio = start_gap(z, T, 0.5, hbar, coeffs, walls)
        f_vals.append(f_value)
        ratios.append(ratio)
    slope = np.polyfit(horizons, np.log(f_vals), 1)[0]
    assert abs(slope + 1.0) <= 0.15
    assert max(ratios) / min(ratios) <= 3.0
