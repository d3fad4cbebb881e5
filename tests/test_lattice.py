import numpy as np
import pytest

from wallspde.lattice import (
    TRIDIAGONAL_MIN_N,
    Propagator,
    SpaceTimeField,
    Walls,
    backward_euler_inverse,
    build_grid,
    cosine_eigensystem,
    heat_kernel,
    holder_norm,
    match_dt,
    mesh_steps,
    neumann_operator,
)
import wallspde.measure
from conftest import coeffs_zero
from wallspde.dynamics import Control, solve_skeleton, solve_spde
from wallspde.measure import SamplingPlan, ldp_scaling_curve
from wallspde.obstacle import solve_obstacle
from wallspde.rate import infinite_horizon_check, quasipotential_J


def test_build_grid_uniform_partition():
    grid = build_grid(4)
    assert np.allclose(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert abs(grid.dx * grid.n - 1.0) <= np.finfo(float).eps


def test_build_grid_n100():
    grid = build_grid(100)
    assert grid.dx == pytest.approx(0.01)
    assert len(grid.nodes) == 101
    assert np.all(np.diff(grid.nodes) > 0)


def test_build_grid_too_coarse():
    with pytest.raises(ValueError, match="too coarse"):
        build_grid(3)


def test_weights_sum_to_one():
    for n in (4, 17, 32, 100):
        grid = build_grid(n)
        assert grid.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_operator_kills_constants():
    grid = build_grid(16)
    for alpha in (0.5, 2.0, 7.3):
        op = neumann_operator(grid, alpha)
        c = np.full(grid.n + 1, 3.7)
        assert np.allclose(op.apply(c), -alpha * c, atol=1e-11)


def test_operator_cosine_eigenvalue():
    grid = build_grid(64)
    op = neumann_operator(grid, 0.0)
    v = np.cos(np.pi * grid.nodes)
    av = op.apply(v)
    lam = ((av * v) @ grid.weights) / ((v * v) @ grid.weights)
    assert np.allclose(av, lam * v, atol=1e-8)
    assert abs(lam + np.pi**2) / np.pi**2 <= 1e-2


def test_operator_zero_field():
    grid = build_grid(8)
    op = neumann_operator(grid, 2.0)
    assert np.all(op.apply(np.zeros(grid.n + 1)) == 0.0)


def test_operator_rejects_negative_alpha():
    with pytest.raises(ValueError, match="alpha"):
        neumann_operator(build_grid(8), -1.0)


@pytest.mark.parametrize("n", [16, TRIDIAGONAL_MIN_N])
@pytest.mark.parametrize(
    "alpha, dt, message",
    [
        (1.0, np.nan, "dt must be finite and positive, got nan"),
        (1.0, np.inf, "dt must be finite and positive, got inf"),
        (1.0, 0.0, "dt must be finite and positive, got 0.0"),
        (np.nan, 1e-3, "alpha must be finite and nonnegative, got nan"),
        (np.inf, 1e-3, "alpha must be finite and nonnegative, got inf"),
        (-1.0, 1e-3, "alpha must be finite and nonnegative, got -1.0"),
        (1.0, 1e306, "dt = 1e[+]306 overflows the implicit system"),
    ],
)
def test_propagator_rejects_bad_inputs(n, alpha, dt, message):
    # A NaN or infinite dt, or a NaN alpha, built an all-NaN dense propagator;
    # a dt whose I - dt*A overflows built one too, or NaN factors.
    with pytest.raises(ValueError, match=message):
        Propagator(build_grid(n), alpha, dt)


def test_operator_symmetric_under_trapezoid_inner_product():
    grid = build_grid(24)
    op = neumann_operator(grid, 1.3)
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = rng.normal(size=grid.n + 1)
        v = rng.normal(size=grid.n + 1)
        assert (op.apply(u) * v) @ grid.weights == pytest.approx((u * op.apply(v)) @ grid.weights, abs=1e-9)


def test_operator_row_sums_and_constant_eigenvector():
    grid = build_grid(12)
    alpha = 0.7
    op = neumann_operator(grid, alpha)
    mat = op.dense()
    assert np.allclose(mat.sum(axis=1), -alpha, atol=1e-9)
    ones = np.ones(grid.n + 1)
    assert np.allclose(mat @ ones, -alpha * ones, atol=1e-9)


def test_discrete_divergence_theorem():
    # integral of A u equals -alpha * integral of u: Neumann flux vanishes
    grid = build_grid(32)
    alpha = 2.0
    op = neumann_operator(grid, alpha)
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = rng.normal(size=grid.n + 1)
        lhs = op.apply(u) @ grid.weights
        rhs = -alpha * (u @ grid.weights)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def test_cosine_eigensystem_is_exact():
    grid = build_grid(20)
    op = neumann_operator(grid, 0.0)
    lam, basis = cosine_eigensystem(grid)
    for k in range(grid.n + 1):
        assert np.allclose(op.apply(basis[:, k]), lam[k] * basis[:, k], atol=1e-8)
    gram = basis.T @ (grid.weights[:, None] * basis)
    assert np.allclose(gram, np.eye(grid.n + 1), atol=1e-10)


def test_heat_kernel_conserves_mass_without_decay():
    grid = build_grid(32)
    for t in (0.01, 0.3, 2.0):
        ker = heat_kernel(grid, 0.0, t)
        rows = ker @ grid.weights
        assert np.allclose(rows, 1.0, atol=1e-8)


def test_heat_kernel_row_mass_with_decay():
    grid = build_grid(32)
    alpha, t = 1.5, 0.4
    ker = heat_kernel(grid, alpha, t)
    rows = ker @ grid.weights
    assert np.allclose(rows, np.exp(-alpha * t), atol=1e-8)


def test_heat_kernel_semigroup_identity():
    grid = build_grid(64)
    t = s = 0.1
    g_t = heat_kernel(grid, 1.0, t)
    g_s = heat_kernel(grid, 1.0, s)
    g_ts = heat_kernel(grid, 1.0, t + s)
    composed = g_t @ (grid.weights[:, None] * g_s)
    assert np.max(np.abs(g_ts - composed)) <= 1e-8


def test_heat_kernel_long_time_averages():
    grid = build_grid(32)
    alpha, t = 1.0, 50.0
    ker = heat_kernel(grid, alpha, t)
    assert np.max(np.abs(ker - np.exp(-alpha * t))) <= 1e-8


def test_heat_kernel_positivity():
    for n in (8, 32, 64):
        grid = build_grid(n)
        for t in (1e-3, 0.05, 1.0):
            ker = heat_kernel(grid, 0.7, t)
            assert ker.min() >= -1e-12


def test_heat_kernel_rejects_bad_time():
    with pytest.raises(ValueError, match="positive"):
        heat_kernel(build_grid(8), 1.0, 0.0)
    with pytest.raises(ValueError, match="positive"):
        heat_kernel(build_grid(8), 1.0, -0.1)


@pytest.mark.parametrize(
    "alpha, t, message",
    [
        (np.nan, 0.1, "alpha must be finite and nonnegative, got nan"),
        (np.inf, 0.1, "alpha must be finite and nonnegative, got inf"),
        (1.0, np.nan, "kernel time must be finite and positive, got nan"),
        (1.0, np.inf, "kernel time must be finite and positive, got inf"),
    ],
)
def test_heat_kernel_rejects_non_finite_inputs(alpha, t, message):
    # A NaN alpha or t returned a kernel that was NaN everywhere.
    with pytest.raises(ValueError, match=message):
        heat_kernel(build_grid(8), alpha, t)


def test_backward_euler_inverse_row_sums():
    grid = build_grid(16)
    alpha, dt = 2.0, 1e-3
    inv = backward_euler_inverse(grid, alpha, dt)
    assert np.allclose(inv.sum(axis=1), 1.0 / (1.0 + alpha * dt), atol=1e-12)
    assert inv.min() >= 0.0


def test_holder_norm_axioms():
    grid = build_grid(24)
    rng = np.random.default_rng(7)
    for gamma in (0.1, 0.3, 0.49):
        for _ in range(10):
            f = rng.normal(size=grid.n + 1)
            g = rng.normal(size=grid.n + 1)
            c = rng.normal()
            nf = holder_norm(grid, f, gamma)
            ng = holder_norm(grid, g, gamma)
            assert holder_norm(grid, f + g, gamma) <= nf + ng + 1e-12
            assert holder_norm(grid, c * f, gamma) == pytest.approx(abs(c) * nf, rel=1e-12)
    assert holder_norm(grid, np.zeros(grid.n + 1), 0.3) == 0.0


@pytest.mark.parametrize(
    "field, message",
    [
        (np.r_[np.zeros(9), 100.0], r"got shape \(10,\)"),
        (np.zeros(5), r"got shape \(5,\)"),
        (np.r_[np.zeros(8), np.nan], "got non-finite values"),
    ],
    ids=["long", "short", "nan"],
)
def test_holder_norm_rejects_a_field_off_its_grid(field, message):
    # At n=8 the long field returned 100.0 from a node the quotient never
    # saw, the short one raised IndexError and the NaN returned nan.
    with pytest.raises(ValueError, match=r"holder_norm field must be a finite field of shape \(9,\), " + message):
        holder_norm(build_grid(8), field, 0.3)


def test_walls_validation():
    grid = build_grid(8)
    walls = Walls.constant(grid, -1.0, 1.0)
    assert np.array_equal(walls.k2 - walls.k1, np.full(grid.n + 1, 2.0))
    with pytest.raises(ValueError, match="negative"):
        Walls.constant(grid, 0.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        Walls.constant(grid, -1.0, -0.5)


@pytest.mark.parametrize("k1, k2", [(-np.inf, 1.0), (-1.0, np.inf)])
def test_walls_reject_an_infinite_profile(k1, k2):
    # An infinite wall made rate.contact_tolerance infinite: every node then
    # counted as in contact, and rate_I priced a controlled path at 0.
    grid = build_grid(8)
    with pytest.raises(ValueError, match="walls must be finite everywhere"):
        Walls.constant(grid, k1, k2)
    lower, upper = np.full(grid.n + 1, -1.0), np.full(grid.n + 1, 1.0)
    lower[3], upper[5] = k1, k2
    with pytest.raises(ValueError, match="walls must be finite everywhere"):
        Walls.from_profiles(grid, lower, upper)


def _forcing_from(field):
    """A two-level forcing path that starts at ``field``, on its own grid."""
    grid = build_grid(len(field) - 1)
    return SpaceTimeField(grid, np.array([0.0, 1e-2]), np.vstack([field, np.zeros(grid.n + 1)]))


# Every caller that takes a field the walls must hold, as (field, coeffs, walls) -> result.
BAND_CALLERS = {
    "solve_skeleton": lambda z, coeffs, walls: solve_skeleton(z, None, coeffs, walls, 0.1, 1e-2),
    "solve_spde": lambda z, coeffs, walls: solve_spde(z, 0.1, coeffs, walls, 0.1, 1e-2, seed=1),
    "solve_obstacle": lambda z, coeffs, walls: solve_obstacle(_forcing_from(z), walls, coeffs.alpha, 1e-2),
    "quasipotential_J": quasipotential_J,
    "infinite_horizon_check": infinite_horizon_check,
    "ldp_scaling_curve": lambda z, coeffs, walls: ldp_scaling_curve(
        [(z, 0.1)], (0.5, 0.25), SamplingPlan.default(coeffs, 10), coeffs, walls, chains=2, dt=1e-2
    ),
}
BAD_FIELDS = {
    "outside": (np.full(9, 0.5), "inadmissible: it must lie between the walls"),
    "nan": (np.where(np.arange(9) == 3, np.nan, 0.1), r"must be a finite field of shape \(9,\), got non-finite"),
    "short": (np.zeros(5), r"must be a finite field of shape \(9,\), got shape \(5,\)"),
    # One value broadcasts against the walls unless the shape is checked.
    "one_value": (np.zeros(1), r"got shape \(1,\)"),
}


@pytest.mark.parametrize(
    "caller, bad",
    # A forcing path lives on a grid of n >= 4, so it cannot start from one value.
    [(c, b) for c in BAND_CALLERS for b in BAD_FIELDS if (c, b) != ("solve_obstacle", "one_value")],
)
def test_every_field_caller_checks_the_wall_band(caller, bad, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the field must be checked before any solve or sampling step")

    monkeypatch.setattr(wallspde.measure, "quasipotential_J", no_work)
    monkeypatch.setattr(wallspde.measure, "_rounds", no_work)
    walls = Walls.constant(build_grid(8), -0.2, 0.2)
    field, message = BAD_FIELDS[bad]
    if (caller, bad) == ("solve_obstacle", "short"):
        # The forcing path lives on the short field's own grid, which the walls' does not match.
        message = "the walls grid has n=8, which does not match n=4"
    with pytest.raises(ValueError, match=message):
        BAND_CALLERS[caller](field, coeffs_zero(2.0), walls)


def test_walls_check_accepts_the_walls_themselves():
    grid = build_grid(8)
    walls = Walls.from_profiles(grid, -0.2 - 0.1 * grid.nodes, np.full(grid.n + 1, 0.3))
    for field in (walls.k1, walls.k2, walls.k2 + 1e-13):
        checked = walls.check(list(field), "field")
        assert checked.dtype == float and np.array_equal(checked, field)
    with pytest.raises(ValueError, match="field is inadmissible"):
        walls.check(walls.k2 + 1e-11, "field")


def test_space_time_field_validation():
    grid = build_grid(4)
    times = np.array([0.0, 0.1, 0.2])
    vals = np.zeros((3, 5))
    field = SpaceTimeField(grid, times, vals)
    assert field.dt == pytest.approx(0.1)
    assert field.steps == 2
    with pytest.raises(ValueError, match="increasing"):
        SpaceTimeField(grid, np.array([0.0, 0.0, 0.1]), vals)
    with pytest.raises(ValueError, match="shape"):
        SpaceTimeField(grid, times, np.zeros((3, 4)))


@pytest.mark.parametrize("times", [[np.nan] * 3, [0.0, np.inf, np.inf], [0.0, 0.1, np.inf], [-np.inf, 0.0, 0.1]])
def test_space_time_field_rejects_non_finite_times(times):
    with pytest.raises(ValueError, match="finite"):
        SpaceTimeField(build_grid(4), np.array(times), np.zeros((3, 5)))


# 163841 steps of 0.1: the last level's round-off exceeded the old fixed
# bound 1e-12 * (1 + dt), so the field's own linspace mesh was "not uniform".
LONG_MESH = np.linspace(0.0, 16384.1, 163842)


def test_long_mesh_has_a_uniform_step():
    grid = build_grid(4)
    field = SpaceTimeField(grid, LONG_MESH, np.zeros((len(LONG_MESH), 5)))
    control = Control(grid, LONG_MESH, np.zeros((len(LONG_MESH) - 1, 5)))
    assert field.dt == control.dt == LONG_MESH[1] - LONG_MESH[0]
    assert field.dt == pytest.approx(0.1, rel=1e-12)


def test_long_mesh_with_one_moved_level_is_not_uniform():
    grid = build_grid(4)
    times = LONG_MESH.copy()
    times[81_920] += 1e-6 * 0.1
    field = SpaceTimeField(grid, times, np.zeros((len(times), 5)))
    control = Control(grid, times, np.zeros((len(times) - 1, 5)))
    with pytest.raises(ValueError, match="not uniform"):
        field.dt
    with pytest.raises(ValueError, match="not uniform"):
        control.dt


@pytest.mark.parametrize("scale, ok", [(1.0 + 4e-16, True), (1.0 - 4e-16, True), (1.0 + 1e-6, False), (1.0 - 1e-6, False)])
def test_match_dt_passes_round_off_and_rejects_a_real_offset(scale, ok):
    times = np.linspace(0.0, 1.0, 101) * scale
    if ok:
        assert match_dt(times, 0.01, "forcing") == times[1] - times[0]
    else:
        with pytest.raises(ValueError, match="dt=0.01 does not match the forcing time mesh"):
            match_dt(times, 0.01, "forcing")


def test_match_dt_names_an_uneven_mesh():
    with pytest.raises(ValueError, match="control time mesh is not uniform"):
        match_dt(np.array([0.0, 0.1, 0.5, 0.6]), 0.1, "control")


# 2.000000001 is 200.0000001 steps of 0.01, within 1e-9 relative of 200, but
# its linspace mesh steps 0.010000000005, which match_dt refuses as 0.01.
@pytest.mark.parametrize(
    "horizon, dt, ok",
    [(2.0, 0.01, True), (0.3, 0.1, True), (16384.1, 0.1, True), (1.0, 1e-3, True), (2.000000001, 0.01, False)],
)
def test_mesh_steps_accepts_exactly_the_horizons_whose_mesh_matches_dt(horizon, dt, ok):
    steps = round(horizon / dt)
    times = np.linspace(0.0, horizon, steps + 1)
    if ok:
        assert mesh_steps(horizon, dt) == steps
        match_dt(times, dt, "path")
    else:
        with pytest.raises(ValueError, match=f"horizon = {horizon} makes a mesh step"):
            mesh_steps(horizon, dt)
        with pytest.raises(ValueError, match="does not match the path time mesh"):
            match_dt(times, dt, "path")


def test_space_time_field_restrict():
    grid = build_grid(4)
    times = np.linspace(0.0, 1.0, 11)
    vals = np.outer(times, np.ones(5))
    field = SpaceTimeField(grid, times, vals)
    sub = field.restrict(0.2, 0.7)
    assert sub.times[0] == pytest.approx(0.2)
    assert sub.times[-1] == pytest.approx(0.7)
    assert sub.sup_norm() == pytest.approx(0.7)
    assert np.shares_memory(sub.values, field.values)
    with pytest.raises(ValueError, match="mesh"):
        field.restrict(0.15, 0.7)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_space_time_field_rejects_a_non_finite_time(t):
    # argmin over an all-NaN distance is 0 and nan > tol is False, so a NaN
    # time was read as the first level.
    grid = build_grid(4)
    times = np.linspace(0.0, 1.0, 11)
    field = SpaceTimeField(grid, times, np.outer(times, np.ones(5)))
    for call in (lambda: field.index_of(t), lambda: field.restrict(t, 0.7), lambda: field.restrict(0.2, t)):
        with pytest.raises(ValueError, match=f"time must be finite, got {t}"):
            call()
