import numpy as np
import pytest

import wallspde.dynamics as dynamics
import wallspde.lattice as lattice
from conftest import coeffs_linear, coeffs_sin, coeffs_zero
from wallspde.dynamics import (
    Control,
    local_time_energy,
    sample_noise,
    solve_deterministic,
    solve_skeleton,
    solve_spde,
    step_penalized,
)
from wallspde.lattice import Walls, backward_euler_inverse, build_grid, heat_kernel


# ---------------------------------------------------------------- noise


def test_noise_determinism():
    grid = build_grid(16)
    a = sample_noise(grid, 1e-3, 200, seed=99, stream=3)
    b = sample_noise(grid, 1e-3, 200, seed=99, stream=3)
    assert np.array_equal(a.increments, b.increments)


@pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -1e-3])
def test_noise_rejects_a_bad_dt(dt):
    # A NaN or infinite dt gave NaN or infinite increments.
    with pytest.raises(ValueError, match=f"dt must be finite and positive, got {dt}"):
        sample_noise(build_grid(16), dt, 10, seed=1)


def test_noise_mean_clt_bound():
    grid = build_grid(32)
    dt = 1e-3
    noise = sample_noise(grid, dt, 3100, seed=12)
    draws = noise.increments.ravel()
    assert draws.size >= 100_000
    bound = 3.0 * np.sqrt(dt * grid.dx / draws.size)
    assert abs(draws.mean()) <= bound


def test_noise_variance_matches_cell_area():
    grid = build_grid(32)
    dt = 2e-3
    noise = sample_noise(grid, dt, 400, seed=5)
    draws = noise.increments.ravel()
    assert draws.size >= 10_000
    assert abs(draws.var() / (dt * grid.dx) - 1.0) <= 0.05


def test_noise_streams_uncorrelated():
    grid = build_grid(16)
    a = sample_noise(grid, 1e-3, 600, seed=7, stream=0).increments.ravel()[:10_000]
    b = sample_noise(grid, 1e-3, 600, seed=7, stream=1).increments.ravel()[:10_000]
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 0.02


def test_noise_rejects_bad_args():
    grid = build_grid(8)
    with pytest.raises(ValueError, match="step"):
        sample_noise(grid, 1e-3, 0, seed=1)


# ---------------------------------------------------------------- penalized step


def test_penalized_step_inactive_inside_band():
    grid = build_grid(16)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_sin(2.0, 0.5)
    dt = 1e-3
    state = 0.4 * np.cos(np.pi * grid.nodes)
    stepped = step_penalized(state, walls, 1e-3, 1e-3, coeffs, dt)
    prop = backward_euler_inverse(grid, coeffs.alpha, dt)
    free = prop @ (state + dt * coeffs.f(grid.nodes, state))
    assert np.max(np.abs(stepped - free)) <= 1e-14


def test_penalized_steps_build_the_propagator_once(monkeypatch):
    builds = []
    inverse = lattice.backward_euler_inverse

    def counting_inverse(*args):
        builds.append(args)
        return inverse(*args)

    monkeypatch.setattr(lattice, "backward_euler_inverse", counting_inverse)
    dynamics._cached_propagator.cache_clear()
    grid = build_grid(16)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_sin(2.0, 0.5)
    state = 0.4 * np.cos(np.pi * grid.nodes)
    first = step_penalized(state, walls, 1e-3, 1e-3, coeffs, 1e-3)
    second = step_penalized(first, walls, 1e-3, 1e-3, coeffs, 1e-3)
    assert len(builds) == 1
    assert np.array_equal(second, step_penalized(first, walls, 1e-3, 1e-3, coeffs, 1e-3))
    step_penalized(state, walls, 1e-3, 1e-3, coeffs, 2e-3)
    assert len(builds) == 2


def test_penalized_step_pulls_toward_lower_wall():
    grid = build_grid(16)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_zero(0.0)
    delta = dt = 1e-3
    state = np.full(grid.n + 1, -1.1)  # below K1 by 0.1
    new = step_penalized(state, walls, delta, 1e-3, coeffs, dt)
    expected = (state + (dt / delta) * walls.k1) / (1.0 + dt / delta)
    assert np.allclose(new, expected, atol=1e-10)
    assert np.max(np.abs(new - walls.k1)) <= 2.0 * delta * (0.1 / dt)


def test_penalized_step_reduces_to_heat_step():
    grid = build_grid(32)
    walls = Walls.constant(grid, -50.0, 50.0)  # penalty never active
    alpha = 1.0
    coeffs = coeffs_zero(alpha)
    state = 0.3 * np.cos(np.pi * grid.nodes) + 0.1
    errs = []
    for dt in (2e-3, 1e-3):
        stepped = step_penalized(state, walls, 1e6, 1e6, coeffs, dt)
        kernel = heat_kernel(grid, alpha, dt)
        exact = kernel @ (grid.weights * state)
        errs.append(np.max(np.abs(stepped - exact)))
    assert errs[0] <= 1e-4
    assert 3.5 <= errs[0] / errs[1] <= 4.5  # second order in dt per step


def test_penalized_step_rejects_nonfinite():
    grid = build_grid(8)
    walls = Walls.constant(grid, -1.0, 1.0)
    state = np.full(grid.n + 1, np.nan)
    with pytest.raises(ValueError, match="finite"):
        step_penalized(state, walls, 1e-3, 1e-3, coeffs_zero(1.0), 1e-3)


@pytest.mark.parametrize(
    "delta, eps_pen",
    [
        (-1.0, None), (-1e-3, None), (0.0, None), (np.nan, None), (np.inf, None), (1e-3, -1e-3), (1e-3, 0.0),
        (1e-3, np.nan), (1e-3, np.inf),
    ],
)
def test_penalized_skeleton_rejects_bad_penalty(delta, eps_pen):
    # delta=-1 once returned a path reaching 1.89 and delta=-1e-3 one holding
    # inf; step_penalized took a NaN or infinite delta or eps_pen.
    grid = build_grid(16)
    walls = Walls.constant(grid, -0.2, 0.2)
    control = Control.from_function(grid, 0.1, 1e-3, lambda x, t: np.full_like(x, 4.0))
    with pytest.raises(ValueError, match="penalty parameters"):
        solve_skeleton(
            np.zeros(grid.n + 1), control, coeffs_zero(2.0), walls, 0.1, 1e-3,
            mode="penalized", delta=delta, eps_pen=eps_pen,
        )
    with pytest.raises(ValueError, match="penalty parameters"):
        step_penalized(np.zeros(grid.n + 1), walls, delta, delta if eps_pen is None else eps_pen, coeffs_zero(2.0), 1e-3)


@pytest.mark.parametrize(
    "T, dt, message",
    [
        (np.inf, 1e-3, "T = inf is not a whole number"),
        (np.nan, 1e-3, "T = nan is not a whole number"),
        (-0.1, 1e-3, "T = -0.1 is not a whole number"),
        (0.1005, 1e-3, "T = 0.1005 is not a whole number"),
        (1.5e-12, 1e-12, "T = 1.5e-12 is not a whole number"),
        (0.1, 0.0, "dt must be finite and positive, got 0.0"),
        (0.1, -1e-3, "dt must be finite and positive, got -0.001"),
        (0.1, np.nan, "dt must be finite and positive, got nan"),
        (0.1, np.inf, "dt must be finite and positive, got inf"),
    ],
)
def test_solvers_reject_a_bad_time_mesh(T, dt, message):
    # T=inf raised OverflowError and dt=0 ZeroDivisionError in both solvers;
    # T=1.5e-12 at dt=1e-12 ran two steps of 7.5e-13.
    grid = build_grid(16)
    walls = Walls.constant(grid, -0.5, 0.5)
    u0 = np.zeros(grid.n + 1)
    with pytest.raises(ValueError, match=message):
        solve_skeleton(u0, None, coeffs_zero(2.0), walls, T, dt)
    with pytest.raises(ValueError, match=message):
        solve_spde(u0, 0.1, coeffs_zero(2.0), walls, T, dt, seed=1)


@pytest.mark.parametrize("eps", [np.nan, np.inf, -0.1])
def test_spde_rejects_a_bad_noise_level(eps):
    # eps=nan ran with no noise and reported eps_noise=nan; eps=inf failed late.
    grid = build_grid(16)
    walls = Walls.constant(grid, -0.5, 0.5)
    u0 = np.zeros(grid.n + 1)
    with pytest.raises(ValueError, match=f"noise level .* got {eps}"):
        solve_spde(u0, eps, coeffs_zero(2.0), walls, 0.1, 1e-2, seed=1)
    with pytest.raises(ValueError, match=f"noise level .* got {eps}"):
        step_penalized(u0, walls, 1e-3, 1e-3, coeffs_zero(2.0), 1e-2, noise_increment=np.ones(grid.n + 1), eps_noise=eps)


def test_control_rejects_a_horizon_off_its_mesh():
    # T=1.05 at dt=0.1 used to build ten rows and times 0.105 apart.
    grid = build_grid(8)
    with pytest.raises(ValueError, match="T = 1.05 is not a whole number"):
        Control.from_function(grid, 1.05, 0.1, lambda x, t: np.ones_like(x))
    assert Control.from_function(grid, 0.3, 0.1, lambda x, t: np.ones_like(x)).values.shape == (3, grid.n + 1)


@pytest.mark.parametrize(
    "times, message",
    [
        ([0.0, np.nan, 0.2], "finite"),
        ([0.0, 0.2, 0.1], "strictly increasing"),
        ([0.0], "at least two time levels"),
    ],
)
def test_control_and_local_time_reject_bad_times(times, message):
    # All three meshes used to build both a Control and a LocalTime.
    from wallspde.obstacle import LocalTime

    grid = build_grid(8)
    rows = np.zeros((len(times) - 1, grid.n + 1))
    with pytest.raises(ValueError, match=message):
        Control(grid, np.array(times), rows)
    with pytest.raises(ValueError, match=message):
        LocalTime(grid, np.array(times), rows)


def test_skeleton_rejects_a_control_uneven_after_its_first_step():
    # Stepped as a dt=0.1 control while Control.action priced the real times.
    grid = build_grid(8)
    walls = Walls.constant(grid, -0.5, 0.5)
    control = Control(grid, np.array([0.0, 0.1, 0.5, 0.6]), np.ones((3, grid.n + 1)))
    assert control.action == pytest.approx(0.3)
    with pytest.raises(ValueError, match="control time mesh is not uniform"):
        solve_skeleton(np.zeros(grid.n + 1), control, coeffs_zero(2.0), walls, 0.3, 0.1)


# ---------------------------------------------------------------- skeleton


def test_skeleton_zero_control_fixed_point():
    grid = build_grid(16)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_linear(2.0, 1.0)
    traj = solve_skeleton(np.zeros(grid.n + 1), None, coeffs, walls, 0.5, 1e-3)
    assert traj.u.sup_norm() == 0.0
    assert traj.eta.total_mass == 0.0


def push_control(grid, T, dt, amplitude):
    return Control.from_function(grid, T, dt, lambda x, t: np.full_like(x, amplitude))


def test_skeleton_penalized_projected_consistency():
    grid = build_grid(32)
    walls = Walls.constant(grid, -0.5, 0.5)
    coeffs = coeffs_sin(1.0, 0.5)
    T, dt = 0.5, 1e-3
    control = push_control(grid, T, dt, 4.0)
    u0 = np.zeros(grid.n + 1)
    proj = solve_skeleton(u0, control, coeffs, walls, T, dt, mode="projected")
    gaps = {}
    for delta in (1e-2, 1e-3, 1e-4, 5e-5):
        pen = solve_skeleton(u0, control, coeffs, walls, T, dt, mode="penalized", delta=delta)
        gaps[delta] = np.max(np.abs(pen.u.values - proj.u.values))
    assert gaps[1e-2] > gaps[1e-3] > gaps[1e-4]  # Cauchy trend toward the projected path
    assert gaps[1e-4] <= 2.0 * gaps[5e-5] + 5e-3


def test_skeleton_strong_push_pins_at_upper_wall():
    grid = build_grid(16)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_zero(1.0)
    T, dt = 1.0, 1e-3
    control = push_control(grid, T, dt, 20.0)
    traj = solve_skeleton(np.zeros(grid.n + 1), control, coeffs, walls, T, dt)
    # pinned at K2 over the tail of the run
    tail = traj.u.values[-200:]
    assert np.max(np.abs(tail - 1.0)) <= 1e-12
    assert np.min(traj.xi.density[-200:]) > 0.0
    assert np.max(traj.eta.density) == 0.0


def test_skeleton_rejects_inadmissible_start():
    grid = build_grid(8)
    walls = Walls.constant(grid, -0.2, 0.2)
    with pytest.raises(ValueError, match="inadmissible"):
        solve_skeleton(np.full(grid.n + 1, 0.5), None, coeffs_zero(1.0), walls, 0.1, 1e-3)


# ---------------------------------------------------------------- deterministic flow


def test_deterministic_constant_decay():
    grid = build_grid(16)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_zero(2.0)
    dt = 1e-4
    traj = solve_deterministic(np.full(grid.n + 1, 0.5), coeffs, walls, 1.0, dt)
    exact = 0.5 * np.exp(-2.0 * traj.u.times)
    assert np.max(np.abs(traj.u.values - exact[:, None])) <= 1e-4


def test_deterministic_linear_reaction_decay():
    grid = build_grid(16)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_linear(2.0, 1.0)
    dt = 1e-4
    traj = solve_deterministic(np.full(grid.n + 1, 0.5), coeffs, walls, 1.0, dt)
    exact = 0.5 * np.exp(-1.0 * traj.u.times)
    assert np.max(np.abs(traj.u.values - exact[:, None])) <= 2e-4


def test_deterministic_log_slope_bound():
    grid = build_grid(32)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_sin(1.0, 0.5)
    rng = np.random.default_rng(3)
    z = 0.5 * np.cos(np.pi * grid.nodes) + 0.2 * rng.uniform(-1, 1, grid.n + 1)
    z = np.clip(z, walls.k1 + 0.1, walls.k2 - 0.1)
    traj = solve_deterministic(z, coeffs, walls, 5.0, 1e-3)
    sup = np.max(np.abs(traj.u.values), axis=1)
    t = traj.u.times
    window = (t >= 1.0) & (t <= 5.0)
    slope = np.polyfit(t[window], np.log(sup[window]), 1)[0]
    assert slope <= -(coeffs.alpha - coeffs.lipschitz_c) + 0.05


def test_deterministic_requires_hypothesis():
    grid = build_grid(8)
    walls = Walls.constant(grid, -1.0, 1.0)
    bad = coeffs_linear(1.0, 2.0)  # c > alpha
    with pytest.raises(ValueError, match="hypothesis H"):
        solve_deterministic(np.zeros(grid.n + 1), bad, walls, 0.1, 1e-3)


# ---------------------------------------------------------------- stochastic flow


def test_spde_zero_noise_degeneracy():
    grid = build_grid(16)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_sin(2.0, 0.5)
    u0 = 0.4 * np.cos(np.pi * grid.nodes)
    T, dt = 0.5, 1e-3
    spde = solve_spde(u0, 0.0, coeffs, walls, T, dt, seed=1)
    skel = solve_skeleton(u0, None, coeffs, walls, T, dt)
    det = solve_deterministic(u0, coeffs, walls, T, dt)
    assert np.max(np.abs(spde.u.values - skel.u.values)) <= 1e-12
    assert np.max(np.abs(spde.u.values - det.u.values)) <= 1e-12


def test_spde_confinement_and_complementarity():
    grid = build_grid(32)
    walls = Walls.constant(grid, -0.25, 0.3)
    coeffs = coeffs_sin(2.0, 0.5)
    traj = solve_spde(np.zeros(grid.n + 1), 0.35, coeffs, walls, 1.0, 1e-3, seed=21)
    assert traj.u.values.min() >= walls.k1.min() - 1e-9
    assert traj.u.values.max() <= walls.k2.max() + 1e-9
    dts = np.diff(traj.u.times)
    gap_lo = traj.u.values[1:] - walls.k1
    gap_hi = walls.k2 - traj.u.values[1:]
    lower = abs(float(dts @ ((gap_lo * traj.eta.density) @ grid.weights)))
    upper = abs(float(dts @ ((gap_hi * traj.xi.density) @ grid.weights)))
    mass = traj.eta.total_mass + traj.xi.total_mass
    assert mass > 0.0  # this noise level does reach the walls
    assert lower <= 1e-6 * (1.0 + mass)
    assert upper <= 1e-6 * (1.0 + mass)


def test_spde_symmetry_under_negation():
    grid = build_grid(16)
    walls = Walls.constant(grid, -0.5, 0.5)
    coeffs = coeffs_sin(2.0, 0.5)  # f odd, sigma = 1 even
    u0 = 0.3 * np.cos(np.pi * grid.nodes)
    noise = sample_noise(grid, 1e-3, 500, seed=8)
    fwd = solve_spde(u0, 0.4, coeffs, walls, 0.5, 1e-3, noise=noise)
    bwd = solve_spde(-u0, 0.4, coeffs, walls, 0.5, 1e-3, noise=noise.negated())
    assert np.max(np.abs(fwd.u.values + bwd.u.values)) <= 1e-12
    assert np.max(np.abs(fwd.eta.density - bwd.xi.density)) <= 1e-12
    assert np.max(np.abs(fwd.xi.density - bwd.eta.density)) <= 1e-12


def test_spde_rejects_large_dt():
    grid = build_grid(32)
    walls = Walls.constant(grid, -1.0, 1.0)
    with pytest.raises(ValueError, match="dt too large"):
        solve_spde(np.zeros(grid.n + 1), 0.1, coeffs_zero(1.0), walls, 1.0, 0.05, seed=1)


def test_spde_rejects_inadmissible_start():
    grid = build_grid(8)
    walls = Walls.constant(grid, -0.2, 0.2)
    with pytest.raises(ValueError, match="inadmissible"):
        solve_spde(np.full(grid.n + 1, 0.3), 0.1, coeffs_zero(1.0), walls, 0.1, 1e-3, seed=1)


# ---------------------------------------------------------------- weak form


def test_weak_form_residual_first_order_in_dt():
    grid = build_grid(16)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_sin(1.0, 0.5)
    from wallspde.lattice import neumann_operator

    op = neumann_operator(grid, coeffs.alpha)
    u0 = 0.5 * np.cos(np.pi * grid.nodes)
    T = 0.5
    phis = [np.cos(j * np.pi * grid.nodes) for j in range(5)]

    def residual(dt):
        traj = solve_deterministic(u0, coeffs, walls, T, dt)
        u = traj.u.values
        worst = 0.0
        for phi in phis:
            au = op.apply(u) @ (grid.weights * phi)
            fu = coeffs.f(grid.nodes, u) @ (grid.weights * phi)
            forces = (traj.eta.density - traj.xi.density) @ (grid.weights * phi)
            integrand = au + fu
            # trapezoid in time for the drift, rectangle for the forces
            drift = dt * (0.5 * integrand[0] + integrand[1:-1].sum() + 0.5 * integrand[-1])
            res = (u[-1] - u[0]) @ (grid.weights * phi) - drift - dt * forces.sum()
            worst = max(worst, abs(res))
        return worst

    r1 = residual(4e-3)
    r2 = residual(2e-3)
    assert r1 / r2 >= 1.7


# ---------------------------------------------------------------- energy


def test_local_time_energy_zero():
    grid = build_grid(8)
    from wallspde.obstacle import LocalTime

    lt = LocalTime.zero(grid, np.linspace(0.0, 1.0, 11))
    assert local_time_energy(lt, 2.0, 1.0) == 0.0


def test_local_time_energy_affine_in_control_norm():
    # discounted energy grows at most affinely in the squared control norm,
    # with a constant that does not blow up across horizons
    import math

    grid = build_grid(32)
    walls = Walls.constant(grid, -0.1, 0.1)
    coeffs = coeffs_zero(1.0)
    beta, dt = 0.05, 1e-3
    ratios = []
    for norm_sq in (1.0, 4.0, 16.0):
        amp = math.sqrt(2.0 * beta * norm_sq)
        control = Control.from_function(
            grid, 4.0, dt, lambda x, t, a=amp: a * math.exp(-beta * t) * np.ones_like(x)
        )
        traj = solve_skeleton(np.zeros(grid.n + 1), control, coeffs, walls, 4.0, dt)
        for T in (1.0, 2.0, 4.0):
            ratios.append(local_time_energy(traj.xi, coeffs.alpha, T) / (1.0 + norm_sq))
    assert max(ratios) <= 1.0


def test_local_time_energy_weight_monotone_beyond_support():
    # control supported on [0, 1]; for larger T only the decaying weight acts
    grid = build_grid(16)
    walls = Walls.constant(grid, -0.2, 0.2)
    coeffs = coeffs_zero(1.0)
    dt = 1e-3
    control = Control.from_function(
        grid, 4.0, dt, lambda x, t: np.full_like(x, 3.0 if t < 1.0 else 0.0)
    )
    traj = solve_skeleton(np.zeros(grid.n + 1), control, coeffs, walls, 4.0, dt)
    energies = [local_time_energy(traj.xi, coeffs.alpha, T) for T in (1.0, 2.0, 4.0)]
    assert energies[0] > 0.0
    assert energies[0] >= energies[1] >= energies[2]


@pytest.mark.parametrize("T", [np.nan, np.inf, -np.inf])
def test_local_time_energy_rejects_a_non_finite_horizon(T):
    # T=nan returned 0.0 for a unit density whose energy at T=1 is 0.664.
    from wallspde.obstacle import LocalTime

    grid = build_grid(8)
    lt = LocalTime(grid, np.linspace(0.0, 1.0, 11), np.ones((10, grid.n + 1)))
    assert local_time_energy(lt, 1.0, 1.0) == pytest.approx(0.664, abs=1e-3)
    with pytest.raises(ValueError, match=f"T must be finite, got {T}"):
        local_time_energy(lt, 1.0, T)


def test_local_time_energy_keeps_the_level_at_T_on_a_long_mesh():
    # linspace puts the level at T = 7701.5 at 7701.500000000002; an absolute
    # 1e-12 bound dropped it and returned 7701.4.
    from wallspde.obstacle import LocalTime

    grid = build_grid(4)
    times = np.linspace(0.0, 112534 * 0.1, 112535)
    lt = LocalTime(grid, times, np.ones((len(times) - 1, grid.n + 1)))
    assert local_time_energy(lt, 0.0, 7701.5) == pytest.approx(7701.5, abs=1e-6)
