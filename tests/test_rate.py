import dataclasses
import math

import numpy as np
import pytest

from conftest import coeffs_linear, coeffs_sin, coeffs_sin_statesigma, coeffs_zero
from oracles import discrete_lq_min_action, ou_mode_quasipotential
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


def test_infinite_horizon_parametrization_agrees():
    grid = build_grid(16)
    walls = Walls.constant(grid, -10.0, 10.0)
    coeffs = coeffs_zero(1.0)
    target = np.full(grid.n + 1, 0.3)
    forward = quasipotential_J(target, coeffs, walls, FAST_OPTS)
    backward = infinite_horizon_check(target, coeffs, walls, FAST_OPTS)
    assert abs(backward - forward.value) / forward.value <= 0.05


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
