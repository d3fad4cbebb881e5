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
    neumann_operator,
)


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
    lam = grid.inner(av, v) / grid.inner(v, v)
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
    ],
)
def test_propagator_rejects_bad_inputs(n, alpha, dt, message):
    # A NaN or infinite dt, or a NaN alpha, built an all-NaN dense propagator.
    with pytest.raises(ValueError, match=message):
        Propagator(build_grid(n), alpha, dt)


def test_operator_symmetric_under_trapezoid_inner_product():
    grid = build_grid(24)
    op = neumann_operator(grid, 1.3)
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = rng.normal(size=grid.n + 1)
        v = rng.normal(size=grid.n + 1)
        assert grid.inner(op.apply(u), v) == pytest.approx(grid.inner(u, op.apply(v)), abs=1e-9)


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
        lhs = grid.integrate(op.apply(u))
        rhs = -alpha * grid.integrate(u)
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


def test_walls_validation():
    grid = build_grid(8)
    walls = Walls.constant(grid, -1.0, 1.0)
    assert walls.gap == pytest.approx(2.0)
    with pytest.raises(ValueError, match="negative"):
        Walls.constant(grid, 0.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        Walls.constant(grid, -1.0, -0.5)


def test_walls_profile_second_derivative():
    grid = build_grid(32)
    x = grid.nodes
    k1 = -1.0 - 0.2 * np.cos(np.pi * x)
    k2 = 1.0 + 0.1 * x * (1 - x)
    walls = Walls.from_profiles(grid, k1, k2)
    exact = 0.2 * np.pi**2 * np.cos(np.pi * x)
    assert np.allclose(walls.d2k1[1:-1], exact[1:-1], atol=2e-2)


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
