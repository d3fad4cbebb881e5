import dataclasses
import re

import numpy as np
import pytest

import wallspde.dynamics as dynamics
import wallspde.lattice as lattice
from conftest import (
    REGISTRY_KINDS, coeffs_linear, coeffs_sin, coeffs_sin_statesigma, coeffs_zero, counting, registry_coeffs, undeclared,
)
from wallspde.dynamics import (
    Control,
    NoiseRealization,
    local_time_energy,
    sample_noise,
    solve_deterministic,
    solve_skeleton,
    solve_spde,
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


def one_penalized_step(state, coeffs, walls, dt, delta, eps_pen):
    """The state after one step of ``solve_skeleton`` in penalized mode, with no control."""
    return solve_skeleton(state, None, coeffs, walls, dt, dt, mode="penalized", delta=delta, eps_pen=eps_pen).u.values[1]


def test_penalized_step_inactive_inside_band():
    grid = build_grid(16)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_sin(2.0, 0.5)
    dt = 1e-3
    state = 0.4 * np.cos(np.pi * grid.nodes)
    stepped = one_penalized_step(state, coeffs, walls, dt, 1e-3, 1e-3)
    prop = backward_euler_inverse(grid, coeffs.alpha, dt)
    free = prop @ (state + dt * coeffs.f(grid.nodes, state))
    assert np.max(np.abs(stepped - free)) <= 1e-14


def test_penalized_step_reduces_to_heat_step():
    grid = build_grid(32)
    walls = Walls.constant(grid, -50.0, 50.0)  # penalty never active
    alpha = 1.0
    coeffs = coeffs_zero(alpha)
    state = 0.3 * np.cos(np.pi * grid.nodes) + 0.1
    errs = []
    for dt in (2e-3, 1e-3):
        stepped = one_penalized_step(state, coeffs, walls, dt, 1e6, 1e6)
        kernel = heat_kernel(grid, alpha, dt)
        exact = kernel @ (grid.weights * state)
        errs.append(np.max(np.abs(stepped - exact)))
    assert errs[0] <= 1e-4
    assert 3.5 <= errs[0] / errs[1] <= 4.5  # second order in dt per step


@pytest.mark.parametrize("n", [16, 512])
def test_penalized_step_is_one_penalized_skeleton_step(n):
    # One penalized skeleton step is the implicit penalty solve of
    # u0 + dt*f(u0) + dt*sigma*hdot.  n=16 takes the dense solve and n=512 the
    # banded one; the control pushes the state through both walls.
    grid = build_grid(n)
    walls = Walls.constant(grid, -0.2, 0.3)
    coeffs = coeffs_sin(2.0, 0.5)
    dt = 1e-3
    u0 = 0.15 * np.cos(np.pi * grid.nodes)
    control = Control.from_function(grid, dt, dt, lambda x, t: 200.0 * np.cos(np.pi * x))
    path = solve_skeleton(u0, control, coeffs, walls, dt, dt, mode="penalized", delta=1e-4, eps_pen=2e-4).u
    x = grid.nodes
    rhs = u0 + dt * coeffs.f(x, u0) + dt * coeffs.sigma(x, u0) * control.values[0]
    stepped = lattice.Propagator(grid, coeffs.alpha, dt).step(rhs, walls.k1, walls.k2, penalty=(1e-4, 2e-4))
    assert np.any(stepped < walls.k1) and np.any(stepped > walls.k2)
    assert stepped.tobytes() == path.values[1].tobytes()


def test_penalized_step_rejects_nonfinite():
    # The solvers check the initial state that a penalized step starts from.
    grid = build_grid(8)
    walls = Walls.constant(grid, -1.0, 1.0)
    penalized = dict(mode="penalized", delta=1e-3, eps_pen=1e-3)
    with pytest.raises(ValueError, match=r"initial state must be a finite field of shape \(9,\), got non-finite values"):
        solve_skeleton(np.full(grid.n + 1, np.nan), None, coeffs_zero(1.0), walls, 1e-2, 1e-3, **penalized)
    with pytest.raises(ValueError, match=r"initial state must be a finite field of shape \(9,\), got shape \(5,\)"):
        solve_skeleton(np.zeros(5), None, coeffs_zero(1.0), walls, 1e-2, 1e-3, **penalized)
    with pytest.raises(ValueError, match=r"initial state must be a finite field of shape \(9,\), got non-finite values"):
        solve_spde(np.full(grid.n + 1, np.inf), 0.3, coeffs_zero(1.0), walls, 1e-2, 1e-3, seed=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("mode", ["projected", "penalized"])
def test_skeleton_rejects_a_non_finite_control_before_stepping(bad, mode):
    grid = build_grid(8)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs, calls = counting(coeffs_sin(1.0, 0.5))
    control = Control.zero(grid, np.linspace(0.0, 1e-2, 11))
    control.values[7, 3] = bad
    with pytest.raises(ValueError, match="control must be finite: it holds NaN or inf values"):
        solve_skeleton(np.zeros(grid.n + 1), control, coeffs, walls, 1e-2, 1e-3, mode=mode)
    assert calls["f"] == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spde_rejects_a_non_finite_noise_realization_before_stepping(bad):
    grid = build_grid(8)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs, calls = counting(coeffs_sin(1.0, 0.5))
    noise = sample_noise(grid, 1e-3, 10, seed=2)
    noise.increments[9, 0] = bad
    with pytest.raises(ValueError, match="noise realization must be finite: it holds NaN or inf values"):
        solve_spde(np.zeros(grid.n + 1), 0.3, coeffs, walls, 1e-2, 1e-3, noise=noise)
    assert calls["f"] == 0


def test_rows_past_the_horizon_are_not_read():
    # Only the rows a march steps with are checked: a longer control or noise
    # realization may hold anything after them.
    grid = build_grid(8)
    walls = Walls.constant(grid, -1.0, 1.0)
    control = Control.zero(grid, np.linspace(0.0, 2e-2, 21))
    control.values[10:] = np.nan
    noise = sample_noise(grid, 1e-3, 20, seed=2)
    noise.increments[10:] = np.nan
    assert np.isfinite(solve_skeleton(np.zeros(grid.n + 1), control, coeffs_zero(1.0), walls, 1e-2, 1e-3).u.values).all()
    assert np.isfinite(solve_spde(np.zeros(grid.n + 1), 0.3, coeffs_zero(1.0), walls, 1e-2, 1e-3, noise=noise).u.values).all()


@pytest.mark.parametrize(
    "run, steps, sigma_calls",
    [
        (lambda u0, control, c, walls: solve_skeleton(u0, control, c, walls, 0.02, 1e-3), 20, 20),
        (lambda u0, control, c, walls: solve_skeleton(u0, None, c, walls, 0.02, 1e-3, mode="penalized"), 20, 0),
        (lambda u0, control, c, walls: solve_spde(u0, 0.3, c, walls, 0.02, 1e-3, seed=3), 20, 20),
        (lambda u0, control, c, walls: solve_spde(u0, 0.0, c, walls, 0.02, 1e-3), 20, 0),
    ],
    ids=["skeleton_projected", "skeleton_penalized_free", "spde", "spde_noiseless"],
)
def test_each_step_calls_f_once_and_sigma_once_when_driven(run, steps, sigma_calls):
    # perfbench's coeff_calls counts these calls.
    grid = build_grid(16)
    control = Control.from_function(grid, 0.02, 1e-3, lambda x, t: 50.0 * np.cos(np.pi * x))
    coeffs, calls = counting(coeffs_sin_statesigma(2.0, 0.5))
    run(0.1 * np.cos(np.pi * grid.nodes), control, coeffs, Walls.constant(grid, -0.2, 0.3))
    assert calls == {"f": steps, "sigma": sigma_calls, "df_du": 0, "dsigma_du": 0}


@pytest.mark.parametrize("f_kind, sigma_kind", REGISTRY_KINDS)
def test_declared_coefficients_keep_the_undeclared_bits(f_kind, sigma_kind):
    # The declared spec skips f and sigma; the stripped one calls them at every step.
    grid = build_grid(16)
    walls = Walls.constant(grid, -0.2, 0.3)
    u0 = 0.1 * np.cos(np.pi * grid.nodes)
    control = Control.from_function(grid, 0.05, 1e-3, lambda x, t: 50.0 * np.cos(np.pi * x) * (t < 0.03))
    declared = registry_coeffs(4.0, f_kind, sigma_kind)
    runs = [
        lambda c: solve_spde(u0, 0.8, c, walls, 0.05, 1e-3, seed=5),
        lambda c: solve_skeleton(u0, control, c, walls, 0.05, 1e-3),
        lambda c: solve_skeleton(u0, control, c, walls, 0.05, 1e-3, mode="penalized"),
    ]
    for run in runs:
        got, want = run(declared), run(undeclared(declared))
        assert got.eta.total_mass > 0.0 and got.xi.total_mass > 0.0
        assert got.u.values.tobytes() == want.u.values.tobytes()
        assert got.eta.density.tobytes() == want.eta.density.tobytes()
        assert got.xi.density.tobytes() == want.xi.density.tobytes()


def long_declared_runs(grid):
    """The declared marches of a 4000-step path at n=16, which outruns one row
    block of 3855 rows: the noisy path, and the controlled one in both modes."""
    walls = Walls.constant(grid, -0.2, 0.3)
    u0 = 0.1 * np.cos(np.pi * grid.nodes)
    T, dt = 4.0, 1e-3
    control = Control.from_function(grid, T, dt, lambda x, t: 50.0 * np.cos(np.pi * x) * np.sin(5.0 * t))
    return [
        lambda c: solve_spde(u0, 0.8, c, walls, T, dt, seed=6),
        lambda c: solve_skeleton(u0, control, c, walls, T, dt),
        lambda c: solve_skeleton(u0, control, c, walls, T, dt, mode="penalized"),
    ]


@pytest.mark.parametrize("f_kind", ["zero", "sinusoidal"])
@pytest.mark.parametrize("sigma_kind", ["one", "cosine_profile"])
def test_declared_spde_has_the_undeclared_bits_on_a_long_path(sigma_kind, f_kind):
    # A declared march builds all its kicks or drives in one call, into the
    # path's own rows; both walls bind past the first row block.
    grid = build_grid(16)
    declared = registry_coeffs(4.0, f_kind, sigma_kind)
    block = lattice.row_blocks(grid, 4000)[0][1]
    for run in long_declared_runs(grid):
        got, want = run(declared), run(undeclared(declared))
        assert got.eta.density[block:].any() and got.xi.density[block:].any()
        assert got.u.values.tobytes() == want.u.values.tobytes()
        assert got.eta.density.tobytes() == want.eta.density.tobytes()
        assert got.xi.density.tobytes() == want.xi.density.tobytes()


@pytest.mark.parametrize("f_kind", ["zero", "sinusoidal"])
def test_declared_marches_build_their_terms_once_per_march(monkeypatch, f_kind):
    # One call builds every term of a march, whatever the step count; sigma is
    # called only for the declaration's two probes.
    built = {"kicks": 0, "drives": 0}
    for name in built:

        def counted(self, *args, _name=name, _method=getattr(dynamics._Scheme, name), **kwargs):
            built[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(dynamics._Scheme, name, counted)
    coeffs, calls = counting(registry_coeffs(4.0, f_kind, "cosine_profile"))
    spde, *skeletons = long_declared_runs(build_grid(16))
    spde(coeffs)
    assert built == {"kicks": 1, "drives": 0} and calls["sigma"] == 2
    for k, run in enumerate(skeletons, start=1):
        run(coeffs)
        assert built == {"kicks": 1, "drives": k} and calls["sigma"] == 2 + 2 * k


@pytest.mark.parametrize("shape", [(50, 1), (50,), (0, 17), (50, 16), (2, 50, 17)])
def test_noise_realization_rejects_increments_of_the_wrong_shape(shape):
    # Increments shaped (m, 1) or (m,) were broadcast: solve_spde ran to the
    # end with one increment at every node.
    with pytest.raises(ValueError, match=re.escape(f"noise increments shaped {shape}, expected (steps >= 1, 17)")):
        NoiseRealization(build_grid(16), 1e-3, np.zeros(shape))


@pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -1e-3])
def test_noise_realization_rejects_a_bad_dt(dt):
    with pytest.raises(ValueError, match=f"dt must be finite and positive, got {dt}"):
        NoiseRealization(build_grid(16), dt, np.zeros((50, 17)))


@pytest.mark.parametrize("sigma_kind", ["one", "state_modulated"])
def test_spde_leaves_the_given_noise_unchanged(sigma_kind):
    grid = build_grid(16)
    walls = Walls.constant(grid, -0.2, 0.3)
    noise = sample_noise(grid, 1e-3, 50, seed=4)
    before = noise.increments.tobytes()
    solve_spde(np.zeros(grid.n + 1), 0.8, registry_coeffs(4.0, "zero", sigma_kind), walls, 0.05, 1e-3, noise=noise)
    assert noise.increments.tobytes() == before


@pytest.mark.parametrize("n", [16, 512], ids=["dense", "banded"])
def test_kicks_keep_the_sign_of_zero(n):
    # With f = 0 the half-step state + 0.0 maps -0.0 to +0.0.  A kick from
    # _Scheme.kicks carries that add, so a -0.0 state kicked by -0.0 still
    # solves the rhs that calling f and sigma gives; the banded solve shows its sign.
    grid = build_grid(n)
    walls = Walls.constant(grid, -1.0, 1.0)
    dt = 1e-3
    declared = registry_coeffs(2.0, "zero", "one")
    # Two chains: the state a node-major batch, the increments chain-major rows.
    state = np.full((grid.n + 1, 2), -0.0)
    increments = np.full((2, grid.n + 1), -0.0)
    increments[1] = np.linspace(-1.0, 1.0, grid.n + 1)
    eps = np.array([[0.5], [0.3]])
    lo, hi = walls.k1[:, None], walls.k2[:, None]
    scheme = dynamics._Scheme(declared, grid, dt, batch=True)
    got = scheme.step(state, lo, hi, term=scheme.kicks(increments, eps).T)
    x, rows = grid.nodes, state.T
    rhs = rows + dt * declared.f(x, rows) + eps * declared.sigma(x, rows) * increments / grid.dx
    assert not np.signbit(rhs[0]).any() and np.signbit(rows + eps * increments / grid.dx)[0].all()
    assert got.tobytes() == scheme.prop.step(rhs.T, lo, hi).tobytes()


@pytest.mark.parametrize("n", [16, 512], ids=["dense", "banded"])
def test_drives_keep_the_sign_of_zero(n):
    # The declared drive carries the half-step's + 0.0 as the kick does, so a
    # -0.0 path driven by a -0.0 control keeps the bits of calling f and
    # sigma; the banded solve shows its sign.
    grid = build_grid(n)
    walls = Walls.constant(grid, -1.0, 1.0)
    control = Control(grid, np.linspace(0.0, 5e-3, 6), np.full((5, grid.n + 1), -0.0))
    declared = registry_coeffs(2.0, "zero", "one")
    u0 = np.full(grid.n + 1, -0.0)
    got, want = (solve_skeleton(u0, control, c, walls, 5e-3, 1e-3).u.values for c in (declared, undeclared(declared)))
    assert got.tobytes() == want.tobytes()


def test_declared_coefficients_are_not_called_per_step():
    # A declaration is checked once per scheme: the profile against two sigma
    # probes, f_zero against one f probe.
    grid = build_grid(16)
    walls = Walls.constant(grid, -0.2, 0.3)
    u0 = 0.1 * np.cos(np.pi * grid.nodes)
    coeffs, calls = counting(registry_coeffs(2.0, "zero", "cosine_profile"))
    solve_spde(u0, 0.3, coeffs, walls, 0.02, 1e-3, seed=3)
    assert calls == {"f": 1, "sigma": 2, "df_du": 0, "dsigma_du": 0}
    coeffs, calls = counting(registry_coeffs(2.0, "sinusoidal", "one"))
    solve_spde(u0, 0.3, coeffs, walls, 0.02, 1e-3, seed=3)
    assert calls == {"f": 20, "sigma": 2, "df_du": 0, "dsigma_du": 0}


@pytest.mark.parametrize(
    "declaration, message",
    [
        # sigma = 1 + 0.3 sin(u) equals ones at u = 0, so the second probe catches it.
        (dict(sigma_profile=np.ones_like), "sigma_profile is declared, but sigma"),
        (dict(sigma_profile=lambda x: np.ones(len(x) - 1)), r"sigma_profile must be a finite field of shape \(17,\)"),
        (dict(sigma_profile=lambda x: np.full_like(x, np.nan)), "sigma_profile must be a finite field"),
        (dict(f_zero=True), "f_zero is declared, but f"),
        # f = -0.0 would keep a -0.0 state that the declared half-step state + 0.0 maps to +0.0.
        (dict(f=lambda x, u: np.full_like(u, -0.0), f_zero=True), "f_zero is declared, but f"),
    ],
    ids=["profile_of_a_state_sigma", "profile_wrong_shape", "profile_not_finite", "f_zero_of_a_nonzero_f", "f_zero_of_minus_zero"],
)
def test_a_false_declaration_raises(declaration, message):
    grid = build_grid(16)
    walls = Walls.constant(grid, -0.2, 0.3)
    coeffs = dataclasses.replace(coeffs_sin_statesigma(2.0, 0.5), **declaration)
    with pytest.raises(ValueError, match=message):
        solve_spde(np.zeros(grid.n + 1), 0.3, coeffs, walls, 0.02, 1e-3, seed=3)


@pytest.mark.parametrize(
    "delta, eps_pen",
    [
        (-1.0, None), (-1e-3, None), (0.0, None), (np.nan, None), (np.inf, None), (1e-3, -1e-3), (1e-3, 0.0),
        (1e-3, np.nan), (1e-3, np.inf),
    ],
)
def test_penalized_skeleton_rejects_bad_penalty(delta, eps_pen):
    # delta=-1 once returned a path reaching 1.89 and delta=-1e-3 one holding
    # inf.
    grid = build_grid(16)
    walls = Walls.constant(grid, -0.2, 0.2)
    control = Control.from_function(grid, 0.1, 1e-3, lambda x, t: np.full_like(x, 4.0))
    with pytest.raises(ValueError, match="penalty parameters"):
        solve_skeleton(
            np.zeros(grid.n + 1), control, coeffs_zero(2.0), walls, 0.1, 1e-3,
            mode="penalized", delta=delta, eps_pen=eps_pen,
        )


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
    bwd = solve_spde(-u0, 0.4, coeffs, walls, 0.5, 1e-3, noise=NoiseRealization(grid, noise.dt, -noise.increments))
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

    lt = LocalTime(grid, np.linspace(0.0, 1.0, 11), np.zeros((10, grid.n + 1)))
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


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -1.0])
def test_local_time_energy_checks_alpha_as_the_operator_does(alpha):
    # alpha=nan returned NaN.
    from wallspde.obstacle import LocalTime

    grid = build_grid(8)
    lt = LocalTime(grid, np.linspace(0.0, 1.0, 11), np.ones((10, grid.n + 1)))
    with pytest.raises(ValueError, match=f"alpha must be finite and nonnegative, got {alpha}"):
        local_time_energy(lt, alpha, 1.0)


def test_local_time_energy_keeps_the_level_at_T_on_a_long_mesh():
    # linspace puts the level at T = 7701.5 at 7701.500000000002; an absolute
    # 1e-12 bound dropped it and returned 7701.4.
    from wallspde.obstacle import LocalTime

    grid = build_grid(4)
    times = np.linspace(0.0, 112534 * 0.1, 112535)
    lt = LocalTime(grid, times, np.ones((len(times) - 1, grid.n + 1)))
    assert local_time_energy(lt, 0.0, 7701.5) == pytest.approx(7701.5, abs=1e-6)
