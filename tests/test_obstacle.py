import tracemalloc

import numpy as np
import pytest

from oracles import random_cosine_path, scalar_two_sided_reflection
from wallspde.lattice import BLOCK_VALUES, SpaceTimeField, Walls, build_grid, neumann_operator
from wallspde.obstacle import LocalTime, ObstacleSolution, check_complementarity, solve_obstacle


def make_field(grid, T, dt, fn):
    times = np.linspace(0.0, T, round(T / dt) + 1)
    vals = np.array([fn(grid.nodes, t) for t in times])
    return SpaceTimeField(grid, times, vals)


def comp_tol(sol):
    return 1e-6 * (1.0 + sol.eta.total_mass + sol.xi.total_mass)


def test_zero_forcing_gives_zero_solution():
    grid = build_grid(16)
    walls = Walls.constant(grid, -1.0, 1.0)
    v = make_field(grid, 0.5, 1e-2, lambda x, t: np.zeros_like(x))
    sol = solve_obstacle(v, walls, alpha=1.0, dt=1e-2)
    assert sol.z.sup_norm() == 0.0
    assert sol.eta.total_mass == 0.0
    assert sol.xi.total_mass == 0.0


def skorokhod_oracle_error(n):
    grid = build_grid(n)
    walls = Walls.constant(grid, -1.0, 1.0)
    dt = 1e-3
    times = np.linspace(0.0, 2.0, 2001)
    phi = 0.9 * np.sin(3.0 * times) + 0.8 * np.sin(7.1 * times + 0.4)
    phi[0] = 0.0
    v = SpaceTimeField(grid, times, np.outer(phi, np.ones(grid.n + 1)))
    sol = solve_obstacle(v, walls, alpha=0.0, dt=dt)
    reflected = scalar_two_sided_reflection(phi, -1.0, 1.0)
    u = sol.z.values + v.values
    return np.max(np.abs(u - reflected[:, None]))


def test_matches_scalar_skorokhod_oracle():
    assert skorokhod_oracle_error(32) <= 5e-3


def test_spectral_path_matches_scalar_skorokhod_oracle():
    # n = 1024 is above lattice.TRIDIAGONAL_MIN_N, so every step takes the banded LU solve.
    assert skorokhod_oracle_error(1024) <= 5e-3


def test_contraction_in_forcing():
    grid = build_grid(16)
    walls = Walls.constant(grid, -0.5, 0.5)
    dt = 2e-3
    times = np.linspace(0.0, 0.5, 251)
    rng = np.random.default_rng(42)
    for _ in range(50):
        v_vals = random_cosine_path(grid, times, rng, amp=0.8)
        vh_vals = random_cosine_path(grid, times, rng, amp=0.8)
        v_vals[0] = np.clip(v_vals[0], walls.k1, walls.k2)
        vh_vals[0] = np.clip(vh_vals[0], walls.k1, walls.k2)
        v = SpaceTimeField(grid, times, v_vals)
        vh = SpaceTimeField(grid, times, vh_vals)
        z = solve_obstacle(v, walls, 1.0, dt).z
        zh = solve_obstacle(vh, walls, 1.0, dt).z
        gap_z = np.max(np.abs(z.values - zh.values))
        gap_v = np.max(np.abs(v_vals - vh_vals))
        assert gap_z <= gap_v + 1e-8


def test_complementarity_zero_local_time():
    grid = build_grid(8)
    walls = Walls.constant(grid, -1.0, 1.0)
    v = make_field(grid, 0.2, 1e-2, lambda x, t: 0.3 * np.cos(np.pi * x) * np.sin(t))
    sol = solve_obstacle(v, walls, 1.0, 1e-2)
    lower, upper = check_complementarity(sol, v, walls)
    assert lower == 0.0
    assert upper == 0.0


def test_complementarity_of_projection_solution():
    grid = build_grid(32)
    walls = Walls.constant(grid, -0.3, 0.3)
    # forcing strong enough to drive both walls
    v = make_field(grid, 1.0, 1e-3, lambda x, t: 0.6 * np.sin(4.0 * t) * np.cos(np.pi * x))
    sol = solve_obstacle(v, walls, 1.0, 1e-3)
    assert sol.eta.total_mass > 0.0
    assert sol.xi.total_mass > 0.0
    lower, upper = check_complementarity(sol, v, walls)
    tol = comp_tol(sol)
    assert lower <= tol
    assert upper <= tol


def test_complementarity_detects_corruption():
    grid = build_grid(16)
    walls = Walls.constant(grid, -1.0, 1.0)
    v = make_field(grid, 0.3, 1e-2, lambda x, t: np.zeros_like(x))
    sol = solve_obstacle(v, walls, 1.0, 1e-2)
    corrupted = LocalTime(grid, sol.eta.times, sol.eta.density + 0.5)
    bad = type(sol)(z=sol.z, eta=corrupted, xi=sol.xi)
    lower, _ = check_complementarity(bad, v, walls)
    assert lower > 1e-6 * (1.0 + corrupted.total_mass + sol.xi.total_mass)


def full_array_complementarity(sol, v, walls):
    """The whole-path formula the block-wise integrals must reproduce bit for bit."""
    dts = np.diff(sol.z.times)
    u = sol.z.values + v.values
    weights = sol.z.grid.weights
    lower = float(dts @ (((u[1:] - walls.k1) * sol.eta.density) @ weights))
    upper = float(dts @ (((walls.k2 - u[1:]) * sol.xi.density) @ weights))
    return abs(lower), abs(upper)


def perturbed_solution(n, steps, seed):
    """A forcing, and a solution whose densities are moved off complementarity."""
    grid = build_grid(n)
    walls = Walls.constant(grid, -0.3, 0.3)
    rng = np.random.default_rng(seed)
    times = 1e-3 * np.arange(steps + 1)
    v = SpaceTimeField(grid, times, 0.02 * rng.normal(size=(steps + 1, grid.n + 1)))
    z = SpaceTimeField(grid, times, np.clip(rng.normal(scale=0.2, size=v.values.shape), -0.25, 0.25))
    eta, xi = (LocalTime(grid, times, rng.exponential(size=(steps, grid.n + 1))) for _ in range(2))
    return ObstacleSolution(z=z, eta=eta, xi=xi), v, walls


@pytest.mark.parametrize("n", [32, 2048])
def test_blockwise_complementarity_matches_full_array_formula_bit_for_bit(n):
    rows = BLOCK_VALUES // (n + 1)
    for steps in (rows - 1, rows, rows + 1, 3 * rows + 2):
        sol, v, walls = perturbed_solution(n, steps, steps)
        lower, upper = check_complementarity(sol, v, walls)
        assert lower > 0.0 and upper > 0.0
        assert (lower, upper) == full_array_complementarity(sol, v, walls)


def test_complementarity_memory_stays_bounded_at_large_n():
    # The full-array formula held the sum, both gaps and both products, 42 MiB.
    sol, v, walls = perturbed_solution(2048, 512, 1)
    tracemalloc.start()
    try:
        check_complementarity(sol, v, walls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
def test_local_time_rejects_non_finite_or_negative_density(bad):
    grid = build_grid(8)
    density = np.zeros((3, grid.n + 1))
    density[1, 4] = bad
    with pytest.raises(ValueError, match="local-time density"):
        LocalTime(grid, np.linspace(0.0, 0.3, 4), density)


def test_local_time_validation_reduces_without_a_mask():
    grid = build_grid(8)
    times = np.linspace(0.0, 0.3, 4)
    density = np.zeros((3, grid.n + 1))
    density[2, 0] = -np.inf
    with pytest.raises(ValueError, match="local-time density"):
        LocalTime(grid, times, density)
    density[2, 0], density[0, 3] = -0.0, 1e308
    assert LocalTime(grid, times, density).density is density
    # An isfinite mask of a (512, 2049) density alone is 1 MiB.
    big = np.ones((512, 2049))
    tracemalloc.start()
    try:
        LocalTime(build_grid(2048), np.linspace(0.0, 0.25, 513), big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**18


def test_complementarity_mesh_mismatch():
    grid = build_grid(8)
    walls = Walls.constant(grid, -1.0, 1.0)
    v = make_field(grid, 0.2, 1e-2, lambda x, t: np.zeros_like(x))
    other = make_field(grid, 0.4, 2e-2, lambda x, t: np.zeros_like(x))
    sol = solve_obstacle(v, walls, 1.0, 1e-2)
    with pytest.raises(ValueError, match="mesh"):
        check_complementarity(sol, other, walls)


def test_inadmissible_initial_condition():
    grid = build_grid(8)
    walls = Walls.constant(grid, -0.2, 0.2)
    v = make_field(grid, 0.1, 1e-2, lambda x, t: np.full_like(x, 0.5))
    with pytest.raises(ValueError, match="inadmissible"):
        solve_obstacle(v, walls, 1.0, 1e-2)


def test_dt_mismatch_rejected():
    grid = build_grid(8)
    walls = Walls.constant(grid, -1.0, 1.0)
    v = make_field(grid, 0.1, 1e-2, lambda x, t: np.zeros_like(x))
    with pytest.raises(ValueError, match="time mesh"):
        solve_obstacle(v, walls, 1.0, 5e-3)


def test_refinement_in_dt_first_order():
    grid = build_grid(16)
    walls = Walls.constant(grid, -0.4, 0.4)
    T = 0.5

    def forcing(x, t):
        return 0.6 * np.sin(3.0 * t) * (1.0 + 0.3 * np.cos(np.pi * x))

    sups = []
    prev = None
    for dt in (4e-3, 2e-3, 1e-3, 5e-4):
        v = make_field(grid, T, dt, forcing)
        z = solve_obstacle(v, walls, 1.0, dt).z
        if prev is not None:
            stride = round(len(z.times) - 1) // (len(prev.times) - 1)
            sups.append(np.max(np.abs(prev.values - z.values[::stride])))
        prev = z
    for coarse, fine in zip(sups, sups[1:]):
        assert coarse / fine >= 1.7


def test_uniqueness_across_solver_paths():
    grid = build_grid(16)
    walls = Walls.constant(grid, -0.3, 0.3)
    dt = 2e-3
    v = make_field(grid, 0.2, dt, lambda x, t: 0.5 * np.sin(5.0 * t) * np.cos(np.pi * x))
    z_direct = solve_obstacle(v, walls, 1.0, dt).z
    # Reference: a fresh linear solve per step, then clip onto the moving band.
    system = np.eye(grid.n + 1) - dt * neumann_operator(grid, 1.0).dense()
    z_ref = np.zeros_like(v.values)
    for k in range(v.steps):
        z_star = np.linalg.solve(system, z_ref[k])
        z_ref[k + 1] = np.clip(z_star, walls.k1 - v.values[k + 1], walls.k2 - v.values[k + 1])
    assert np.max(np.abs(z_ref)) > 0.0
    assert np.max(np.abs(z_direct.values - z_ref)) <= 1e-10


def test_walls_never_bind_together():
    grid = build_grid(24)
    walls = Walls.constant(grid, -0.25, 0.25)
    v = make_field(grid, 0.6, 1e-3, lambda x, t: 0.7 * np.sin(6.0 * t) * np.cos(2 * np.pi * x))
    sol = solve_obstacle(v, walls, 1.0, 1e-3)
    assert np.max(sol.eta.density * sol.xi.density) == 0.0
