import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

import wallspde.measure
from conftest import REGISTRY_KINDS, coeffs_sin, coeffs_sin_statesigma, coeffs_zero, counting, registry_coeffs, undeclared
from oracles import sample_stationary_gaussian, wilson_reference
from wallspde.dynamics import CoefficientSpec, solve_spde
from wallspde.lattice import Propagator, Walls, build_grid, holder_norm
from wallspde.measure import (
    EmpiricalMeasure,
    SamplingPlan,
    ball_probability,
    ldp_scaling_curve,
    sample_invariant,
    spearman_rho,
    tightness_probe,
    wilson_interval,
)


def benchmark(alpha=2.0, count=500, k1=-10.0, k2=10.0, grid_n=32):
    grid = build_grid(grid_n)
    coeffs = coeffs_zero(alpha)
    walls = Walls.constant(grid, k1, k2)
    plan = SamplingPlan.default(coeffs, count)
    return grid, coeffs, walls, plan


# ---------------------------------------------------------------- wilson


def test_wilson_matches_reference_and_frozen_values():
    lo, hi = wilson_interval(5, 50)
    ref_lo, ref_hi = wilson_reference(5, 50)
    assert lo == pytest.approx(ref_lo, abs=1e-12)
    assert hi == pytest.approx(ref_hi, abs=1e-12)
    assert lo == pytest.approx(0.0434, abs=5e-4)
    assert hi == pytest.approx(0.2134, abs=5e-4)


def test_wilson_bounds():
    for successes, total in ((0, 10), (10, 10), (3, 17), (250, 500), (np.int64(2), np.int64(5))):
        lo, hi = wilson_interval(successes, total)
        assert 0.0 <= lo <= hi <= 1.0
        if 0 < successes < total:
            assert lo < successes / total < hi
    # Fractional and bool counts passed, and counts outside [0, total] died
    # with a bare "math domain error".
    for successes, total, message in (
        (2.5, 10, "successes must be an integer, at least 0, got 2.5"),
        (True, 10, "successes must be an integer, at least 0, got True"),
        (-1, 10, "successes must be an integer, at least 0, got -1"),
        (11, 10, "successes 11 exceed the total 10"),
        (3, 10.0, "total must be an integer, at least 1, got 10.0"),
        (0, False, "total must be an integer, at least 1, got False"),
        (0, 0, "total must be an integer, at least 1, got 0"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            wilson_interval(successes, total)


# ---------------------------------------------------------------- sampling


@pytest.mark.parametrize("coeffs", [coeffs_sin(2.0, 0.5), coeffs_sin_statesigma(2.0, 0.5)], ids=["sigma_one", "sigma_state"])
def test_sampler_steps_the_spde_scheme(coeffs):
    """One chain with seed s keeps the rows that solve_spde(seed=s, stream=0)
    passes at the kept times, bit for bit, walls binding."""
    grid = build_grid(16)
    walls = Walls.constant(grid, -0.3, 0.4)
    dt, burn, thin, count, seed = 1e-2, 400, 30, 12, 7
    plan = SamplingPlan(burn_in=burn * dt, thin=thin * dt, count=count)
    measure = sample_invariant(coeffs, walls, 0.8, plan, seeds=[seed], dt=dt)
    steps = burn + count * thin
    path = solve_spde(np.zeros(grid.n + 1), 0.8, coeffs, walls, steps * dt, dt, seed=seed, stream=0)
    kept = path.u.values[burn + thin :: thin]
    assert path.eta.total_mass > 0.0 and path.xi.total_mass > 0.0
    assert np.array_equal(measure.samples, kept)


@pytest.mark.parametrize("eps", [0.5, 0.0])
def test_sampler_calls_f_and_sigma_once_per_step(eps):
    # perfbench's coeff_calls counts these calls.  Both chains share each call,
    # and a zero-noise level is kicked like any other.
    grid = build_grid(16)
    coeffs, calls = counting(coeffs_sin_statesigma(4.0, 1.5))
    plan = SamplingPlan(burn_in=2.0, thin=0.05, count=6)
    sample_invariant(coeffs, Walls.constant(grid, -0.3, 0.4), eps, plan, seeds=[1, 2], dt=1e-2)
    steps = 200 + 3 * 5
    # require_h evaluates f once at zero before the first step.
    assert calls == {"f": steps + 1, "sigma": steps, "df_du": 0, "dsigma_du": 0}


# 215 steps: 200 of burn-in, then 3 rounds of 5.  require_h calls f once;
# the declarations are checked once, sigma at two probes and f_zero's f at one.
@pytest.mark.parametrize("f_kind, f_calls", [("zero", 1 + 1), ("sinusoidal", 1 + 215)])
def test_sampler_calls_no_declared_coefficient_per_step(f_kind, f_calls):
    grid = build_grid(16)
    coeffs, calls = counting(registry_coeffs(4.0, f_kind, "cosine_profile"))
    plan = SamplingPlan(burn_in=2.0, thin=0.05, count=6)
    sample_invariant(coeffs, Walls.constant(grid, -0.3, 0.4), 0.5, plan, seeds=[1, 2], dt=1e-2)
    assert calls == {"f": f_calls, "sigma": 2, "df_du": 0, "dsigma_du": 0}


@pytest.mark.parametrize("f_kind, sigma_kind", REGISTRY_KINDS)
def test_declared_sampler_keeps_the_undeclared_bits(f_kind, sigma_kind):
    grid = build_grid(16)
    walls = Walls.constant(grid, -0.3, 0.4)
    declared = registry_coeffs(4.0, f_kind, sigma_kind)
    plan = SamplingPlan(burn_in=2.1, thin=0.07, count=11)
    got = sample_invariant(declared, walls, 0.8, plan, seeds=[3, 4, 5], dt=1e-2)
    want = sample_invariant(undeclared(declared), walls, 0.8, plan, seeds=[3, 4, 5], dt=1e-2)
    assert np.any(got.samples == walls.k1) and np.any(got.samples == walls.k2)
    assert got.samples.tobytes() == want.samples.tobytes()


def test_zero_noise_collapses_to_attractor():
    grid, coeffs, walls, plan = benchmark(count=20)
    measure = sample_invariant(coeffs, walls, 0.0, plan, seeds=[1, 2], dt=1e-2)
    assert np.max(np.abs(measure.samples)) == 0.0


def test_burn_in_heuristic_rejected():
    grid, coeffs, walls, _ = benchmark()
    plan = SamplingPlan(burn_in=1.0, thin=0.5, count=10)  # below 5/alpha1 = 2.5
    with pytest.raises(ValueError, match="mixing"):
        sample_invariant(coeffs, walls, 0.3, plan, seeds=[1])


def test_sampling_reproducible_from_seeds():
    grid, coeffs, walls, plan = benchmark(count=40)
    a = sample_invariant(coeffs, walls, 0.3, plan, seeds=[5, 6], dt=1e-2)
    b = sample_invariant(coeffs, walls, 0.3, plan, seeds=[5, 6], dt=1e-2)
    assert np.array_equal(a.samples, b.samples)


def test_noise_chunking_keeps_seed_streams(monkeypatch):
    # A budget of 10**9 values draws the whole horizon at once; 7 steps of 3
    # chains at a time splits it into blocks that straddle burn-in and rounds.
    grid, coeffs, walls, plan = benchmark(count=30)
    monkeypatch.setattr(wallspde.measure, "_NOISE_VALUES", 10**9)
    whole = sample_invariant(coeffs, walls, 0.3, plan, seeds=[5, 6, 7], dt=1e-2)
    monkeypatch.setattr(wallspde.measure, "_NOISE_VALUES", 7 * 3 * (grid.n + 1))
    chunked = sample_invariant(coeffs, walls, 0.3, plan, seeds=[5, 6, 7], dt=1e-2)
    assert np.array_equal(whole.samples, chunked.samples)


@pytest.mark.slow
def test_burn_in_noise_memory_is_bounded():
    # 64 chains over 20k burn-in steps would need 338 MB of noise drawn up front.
    grid, coeffs, walls, _ = benchmark(alpha=2.0, grid_n=32)
    plan = SamplingPlan(burn_in=20.0, thin=0.5, count=64)
    tracemalloc.start()
    try:
        sample_invariant(coeffs, walls, 0.3, plan, seeds=range(64), dt=1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_samples_are_stored_in_chain_then_round_order():
    # Chains advance together whatever the count, so a smaller count keeps a
    # subset of the same states: 7 samples from 3 chains are rounds (3, 2, 2).
    grid, coeffs, walls, _ = benchmark(count=7)
    runs = {
        count: sample_invariant(
            coeffs, walls, 0.3, SamplingPlan(2.5, 0.05, count), seeds=[4, 5, 6], dt=1e-2
        )
        for count in (3, 6, 7)
    }
    assert np.array_equal(runs[3].samples, runs[7].samples[[0, 3, 5]])
    assert np.array_equal(runs[6].samples, runs[7].samples[[0, 1, 3, 4, 5, 6]])
    assert len(np.unique(runs[7].samples, axis=0)) == 7


def test_sample_memory_is_the_samples_array():
    # Kept rows used to go through a list, a sort and a stack: 3x the samples.
    grid, coeffs, walls, _ = benchmark(alpha=2.0, grid_n=32)
    plan = SamplingPlan(burn_in=2.5, thin=1e-2, count=40_000)
    tracemalloc.start()
    try:
        measure = sample_invariant(coeffs, walls, 0.3, plan, seeds=range(16), dt=1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert measure.samples.shape == (40_000, grid.n + 1)
    assert peak < 1.5 * measure.samples.nbytes


def test_samples_respect_walls():
    grid = build_grid(16)
    coeffs = coeffs_zero(4.0)
    walls = Walls.constant(grid, -0.1, 0.1)
    plan = SamplingPlan.default(coeffs, 200)
    measure = sample_invariant(coeffs, walls, 0.5, plan, seeds=[3, 4], dt=1e-3)
    assert np.all(measure.samples >= walls.k1 - 1e-12)
    assert np.all(measure.samples <= walls.k2 + 1e-12)


def test_stationary_variance_matches_scalar_oracle():
    # spatial mean of the free field is a scalar linear diffusion with
    # stationary variance eps^2 / (2 alpha)
    grid, coeffs, walls, plan = benchmark(alpha=2.0, count=600)
    eps = 0.3
    measure = sample_invariant(coeffs, walls, eps, plan, seeds=range(8), dt=1e-3)
    means = measure.samples @ grid.weights
    assert abs(np.var(means) / (eps**2 / (2.0 * 2.0)) - 1.0) <= 0.15


def test_disjoint_seed_sets_agree_in_distribution():
    grid, coeffs, walls, plan = benchmark(alpha=2.0, count=500)
    a = sample_invariant(coeffs, walls, 0.3, plan, seeds=range(0, 8), dt=2e-3)
    b = sample_invariant(coeffs, walls, 0.3, plan, seeds=range(100, 108), dt=2e-3)
    stat = ks_2samp(
        np.max(np.abs(a.samples), axis=1), np.max(np.abs(b.samples), axis=1)
    ).statistic
    assert stat <= 0.15


# ---------------------------------------------------------------- ball probability


def test_ball_probability_trivial_cases():
    grid, coeffs, walls, plan = benchmark(alpha=4.0, count=100, k1=-0.2, k2=0.2, grid_n=16)
    measure = sample_invariant(coeffs, walls, 0.3, plan, seeds=[7], dt=1e-3)
    p_all, _ = ball_probability(measure, np.zeros(grid.n + 1), 10.0)
    assert p_all == 1.0
    p_none, _ = ball_probability(measure, np.full(grid.n + 1, 5.0), 0.5)
    assert p_none == 0.0


@pytest.mark.parametrize("delta", [0.0, -0.1, float("nan")])
def test_ball_probability_rejects_a_bad_radius(delta):
    # A NaN radius used to count no hits and report an empty ball.
    grid, coeffs, walls, plan = benchmark(count=10)
    measure = sample_invariant(coeffs, walls, 0.3, plan, seeds=[1], dt=1e-2)
    with pytest.raises(ValueError, match=f"radius must be positive, got {delta}"):
        ball_probability(measure, np.zeros(grid.n + 1), delta)


@pytest.mark.parametrize(
    "centre, delta, message",
    [
        (np.zeros(9), math.inf, "ball radius must be finite, got inf"),
        (np.zeros(1), 0.5, r"ball centre must be a finite field of shape \(9,\), got shape \(1,\)"),
        (np.full(9, np.nan), 0.5, r"ball centre must be a finite field of shape \(9,\), got non-finite values"),
    ],
)
def test_ball_probability_rejects_a_bad_centre_or_radius(centre, delta, message):
    # These returned mass 1.0, 1.0 (the centre broadcast) and 0.0 without an error.
    grid = build_grid(8)
    measure = EmpiricalMeasure(np.zeros((4, grid.n + 1)), 0.3, grid)
    with pytest.raises(ValueError, match=message):
        ball_probability(measure, centre, delta)


def test_ball_probability_monotone_in_delta():
    grid, coeffs, walls, plan = benchmark(alpha=2.0, count=300, grid_n=16)
    measure = sample_invariant(coeffs, walls, 0.4, plan, seeds=[11, 12], dt=2e-3)
    z = np.zeros(grid.n + 1)
    deltas = (0.05, 0.1, 0.2, 0.4, 0.8)
    probs = [ball_probability(measure, z, d)[0] for d in deltas]
    assert all(p1 <= p2 for p1, p2 in zip(probs, probs[1:]))


def test_attractor_ball_mass_grows_as_noise_shrinks():
    grid, coeffs, walls, _ = benchmark(alpha=2.0, grid_n=16)
    z = np.zeros(grid.n + 1)
    probs = []
    for eps in (0.5, 0.35, 0.25):
        plan = SamplingPlan.default(coeffs, 400)
        measure = sample_invariant(coeffs, walls, eps, plan, seeds=range(8), dt=2e-3)
        probs.append(ball_probability(measure, z, 0.25)[0])
    assert probs[0] < probs[1] < probs[2]


# ---------------------------------------------------------------- scaling curve


def test_spearman_rho_signs():
    assert spearman_rho([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
    assert spearman_rho([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)


def test_ldp_scaling_curve_rows_and_trend():
    grid, coeffs, walls, _ = benchmark(alpha=4.0, k1=-0.02, k2=0.42)
    alpha = 4.0
    catalog = {
        0: (alpha * 0.04, alpha * 0.09, alpha * 0.16),
        1: (alpha * 0.04, alpha * 0.09, alpha * 0.16),
    }
    targets = [
        (np.full(grid.n + 1, 0.3), 0.1),
        (np.full(grid.n + 1, 0.41), 0.001),  # sliver ball, certain to miss
    ]
    plans = [SamplingPlan.default(coeffs, c) for c in (3000, 3000)]
    diag = ldp_scaling_curve(
        targets, (0.5, 0.35), plans, coeffs, walls, catalog=catalog, base_seed=77
    )
    assert len(diag.rows) == 4
    main_rows = [r for r in diag.rows if r["target_id"] == 0]
    assert all(r["resolved"] for r in main_rows)
    assert main_rows[0]["eps2_log_p"] < main_rows[1]["eps2_log_p"] < 0.0
    sliver_rows = [r for r in diag.rows if r["target_id"] == 1]
    assert all(not r["resolved"] for r in sliver_rows)
    assert all(r["contained"] is None for r in sliver_rows)
    assert diag.trend_ok
    assert diag.trend_rho < 0.0


def test_ldp_attractor_target_scaling_approaches_zero():
    # around the rest point the rate vanishes, so the scaling estimate rises
    # toward 0 from below as the noise shrinks
    grid, coeffs, walls, _ = benchmark(alpha=2.0, grid_n=16)
    plans = [SamplingPlan.default(coeffs, 400)] * 3
    diag = ldp_scaling_curve(
        [(np.zeros(grid.n + 1), 0.25)],
        (0.5, 0.35, 0.25),
        plans,
        coeffs,
        walls,
        catalog={0: (0.0, 0.0, 0.0)},
        base_seed=55,
        dt=2e-3,
        chains=8,
    )
    vals = [r["eps2_log_p"] for r in diag.rows]
    assert all(v is not None and v <= 0.0 for v in vals)
    assert vals[0] < vals[1] < vals[2]


def test_ball_probability_cross_checks_gaussian_oracle():
    # free-field sampler vs direct draws from the stationary gaussian law
    grid, coeffs, walls, plan = benchmark(alpha=2.0, count=600)
    eps = 0.4
    measure = sample_invariant(coeffs, walls, eps, plan, seeds=range(8), dt=1e-3)
    p_emp, (lo, hi) = ball_probability(measure, np.zeros(grid.n + 1), 0.3)
    rng = np.random.default_rng(81)
    draws = sample_stationary_gaussian(grid, 2.0, 1e-3, eps, 20_000, rng)
    p_oracle = float(np.mean(np.max(np.abs(draws), axis=1) < 0.3))
    assert lo - 0.05 <= p_oracle <= hi + 0.05


def test_ldp_scaling_curve_rejects_bad_schedule():
    grid, coeffs, walls, plan = benchmark(alpha=4.0)
    with pytest.raises(ValueError, match="decreasing"):
        ldp_scaling_curve(
            [(np.zeros(grid.n + 1), 0.1)], (0.25, 0.5), plan, coeffs, walls, catalog={0: (0, 0, 0)}
        )


@pytest.mark.parametrize("levels", [1, 3])
def test_ldp_scaling_curve_rejects_a_plan_list_of_the_wrong_length(levels, monkeypatch):
    grid, coeffs, walls, plan = benchmark(alpha=4.0)

    def no_catalog(*args, **kwargs):
        raise AssertionError("the plan list must be checked before any quasipotential solve")

    monkeypatch.setattr(wallspde.measure, "quasipotential_J", no_catalog)
    with pytest.raises(ValueError, match=f"{levels} sampling plans for 2 noise levels"):
        ldp_scaling_curve([(np.zeros(grid.n + 1), 0.1)], (0.5, 0.25), [plan] * levels, coeffs, walls)


# ---------------------------------------------------------------- tightness


def test_tightness_probe_vanishes_for_large_radius():
    grid, coeffs, walls, plan = benchmark(alpha=2.0, count=300, grid_n=16)
    measure = sample_invariant(coeffs, walls, 0.4, plan, seeds=[9], dt=2e-3)
    rows = tightness_probe(measure, 0.4, (0.5, 1.0, 2.0, 1e6))
    masses = [r["complement_mass"] for r in rows]
    assert all(a >= b for a, b in zip(masses, masses[1:]))
    assert masses[-1] == 0.0
    assert rows[-1]["eps2_log_complement"] is None


def test_tightness_complement_shrinks_with_noise():
    grid, coeffs, walls, _ = benchmark(alpha=2.0, grid_n=16)
    radius = 1.0
    masses = []
    for eps in (0.5, 0.35, 0.25):
        plan = SamplingPlan.default(coeffs, 400)
        measure = sample_invariant(coeffs, walls, eps, plan, seeds=range(6), dt=2e-3)
        masses.append(tightness_probe(measure, 0.4, (radius,))[0]["complement_mass"])
    assert masses[0] > masses[-1]


def test_tightness_median_tracks_gaussian_oracle():
    # the holder norm of the field scales linearly with the noise level, so
    # median(norm)/eps should be flat across the schedule and match direct
    # draws from the stationary gaussian at the same resolution
    grid, coeffs, walls, _ = benchmark(alpha=2.0, grid_n=32)
    rng = np.random.default_rng(31)
    gamma = 0.4
    ratios = []
    for eps in (0.5, 0.35, 0.25):
        plan = SamplingPlan.default(coeffs, 400)
        measure = sample_invariant(coeffs, walls, eps, plan, seeds=range(8), dt=2e-3)
        rows = tightness_probe(measure, gamma, (1.0,))
        ratios.append(rows[0]["norm_median"] / eps)
        oracle_draws = sample_stationary_gaussian(grid, 2.0, 2e-3, eps, 400, rng)
        oracle_median = np.median([holder_norm(grid, d, gamma) for d in oracle_draws])
        assert abs(rows[0]["norm_median"] / oracle_median - 1.0) <= 0.2
    assert max(ratios) / min(ratios) <= 1.2


@pytest.mark.parametrize(
    "count, radii, message",
    [
        (0, (1.0,), "empty measure"),
        (3, (1.0, float("nan")), "tightness radius must be positive, got nan"),
        (3, (-1.0,), "tightness radius must be positive, got -1.0"),
        (3, (float("inf"),), "tightness radius must be finite, got inf"),
    ],
    ids=["empty", "nan", "negative", "inf"],
)
def test_tightness_probe_rejects_a_bad_measure_or_radius_before_any_norm(count, radii, message, monkeypatch):
    # A NaN radius reported mass 0.0, -1 reported 1.0, and an empty measure
    # died in np.quantile with an IndexError.
    grid = build_grid(8)
    measure = EmpiricalMeasure(np.zeros((count, grid.n + 1)), 0.3, grid)

    def no_norm(*args):
        raise AssertionError("inputs must be checked before any norm is taken")

    monkeypatch.setattr(wallspde.measure, "_holder_norms", no_norm)
    with pytest.raises(ValueError, match=message):
        tightness_probe(measure, 0.4, radii)


def test_tightness_probe_rejects_samples_off_the_grid():
    # A row of the sample used to go through holder_norm's field check.
    grid = build_grid(8)
    samples = np.zeros((3, grid.n + 1))
    samples[1, 4] = np.nan
    for bad in (samples, np.zeros((3, grid.n))):
        with pytest.raises(ValueError, match=r"samples must be finite fields of shape \(9,\)"):
            tightness_probe(EmpiricalMeasure(bad, 0.3, grid), 0.4, (1.0,))


# ---------------------------------------------------------------- stacked sampler


def per_level_samples(coeffs, walls, eps, plan, seeds, dt):
    """Reference copy of the sampler that stepped one noise level at a time,
    with its 256-step noise chunks: the stacked sampler must keep its bits."""
    grid = walls.grid
    chains = len(seeds)
    burn_steps = round(plan.burn_in / dt)
    thin_steps = max(1, round(plan.thin / dt))
    per_chain = [plan.count // chains + (1 if j < plan.count % chains else 0) for j in range(chains)]
    rngs = [np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy=s, spawn_key=(0,)))) for s in seeds]
    prop = Propagator(grid, coeffs.alpha, dt)
    x = grid.nodes
    scale = math.sqrt(dt * grid.dx)
    state = np.zeros((chains, grid.n + 1))
    noise = np.empty((chains, min(256, max(burn_steps, thin_steps)), grid.n + 1))

    def advance(steps):
        for start in range(0, steps, noise.shape[1]):
            block = min(noise.shape[1], steps - start)
            if eps > 0.0:
                for rng, buf in zip(rngs, noise):
                    rng.standard_normal(out=buf[:block])
                noise[:, :block] *= scale
            for k in range(block):
                rhs = state + dt * coeffs.f(x, state)
                if eps > 0.0:
                    rhs = rhs + (eps * coeffs.sigma(x, state) / grid.dx) * noise[:, k]
                # Propagator steps node-major batches: one chain per column.
                state[...] = prop.step(rhs.T, walls.k1[:, None], walls.k2[:, None]).T

    advance(burn_steps)
    starts = np.cumsum([0] + per_chain[:-1])
    samples = np.empty((plan.count, grid.n + 1))
    for r in range(max(per_chain)):
        advance(thin_steps)
        for j in range(chains):
            if r < per_chain[j]:
                samples[starts[j] + r] = state[j]
    return samples


def profile_walls(grid):
    x = grid.nodes
    return Walls.from_profiles(grid, -0.1 - 0.05 * np.cos(np.pi * x), 0.2 + 0.1 * x)


# Levels that finish at different steps: burn-in, thin and count all differ,
# no count is a multiple of the chain count, and the last level is noiseless.
STACK_CASES = {
    "state_dependent_profile_walls": dict(
        grid_n=16,
        coeffs=coeffs_sin_statesigma(4.0, 1.5),
        walls=profile_walls,
        eps=(0.6, 0.4, 0.2, 0.0),
        plans=[
            SamplingPlan(2.1, 0.05, 37),
            SamplingPlan(2.5, 0.03, 50),
            SamplingPlan(2.0, 0.11, 23),
            SamplingPlan(2.3, 0.02, 11),
        ],
        chains=5,
        # The last ball is small, but large enough that every noisy level hits it.
        targets=[(0.0, 0.25), (0.1, 0.15), (0.0, 0.1)],
    ),
    "free_field_constant_walls": dict(
        grid_n=32,
        coeffs=coeffs_zero(10.0),
        walls=lambda grid: Walls.constant(grid, -0.02, 0.42),
        eps=(0.5, 0.35, 0.25),
        plans=[SamplingPlan(1.0, 0.1, 45), SamplingPlan(1.2, 0.04, 100), SamplingPlan(0.5, 0.07, 151)],
        chains=7,
        targets=[(0.1, 0.15), (0.05, 0.1), (0.05, 0.2)],
    ),
}


def stack_case(name):
    case = dict(STACK_CASES[name])
    grid = build_grid(case.pop("grid_n"))
    case["walls"] = case["walls"](grid)
    case["targets"] = [(np.full(grid.n + 1, c), delta) for c, delta in case["targets"]]
    return grid, case


def stacked_samples(coeffs, walls, levels, dt):
    """Each level's rows from one ``_rounds`` stack, in (chain, round) order:
    chain j's rounds start at row sum(per_chain[:j])."""
    chains = len(levels[0][2])
    stacked = [np.full((plan.count, walls.grid.n + 1), np.nan) for _, plan, _ in levels]
    per_chain = [[plan.count // chains + (j < plan.count % chains) for j in range(chains)] for _, plan, _ in levels]
    starts = [np.cumsum([0] + rounds[:-1]) for rounds in per_chain]
    for level, r, rows in wallspde.measure._rounds(coeffs, walls, levels, dt):
        stacked[level][starts[level][: len(rows)] + r] = rows
    return stacked


@pytest.mark.parametrize("name", sorted(STACK_CASES))
def test_stacked_rounds_keep_the_per_level_bits(name):
    grid, case = stack_case(name)
    dt, chains = 1e-2, case["chains"]
    levels = [
        (eps, plan, tuple(31 + 1000 * i + j for j in range(chains)))
        for i, (eps, plan) in enumerate(zip(case["eps"], case["plans"]))
    ]
    for (eps, plan, seeds), got in zip(levels, stacked_samples(case["coeffs"], case["walls"], levels, dt)):
        want = per_level_samples(case["coeffs"], case["walls"], eps, plan, seeds, dt)
        assert got.tobytes() == want.tobytes()
        alone = sample_invariant(case["coeffs"], case["walls"], eps, plan, seeds, dt=dt)
        assert alone.samples.tobytes() == want.tobytes()


@pytest.mark.parametrize("f_kind, sigma_kind", [("zero", "one"), ("sinusoidal", "cosine_profile")])
def test_declared_stack_with_a_zero_noise_level_keeps_the_per_level_bits(f_kind, sigma_kind):
    # The case's stack ends in a zero-noise level, which is kicked like the
    # others: its kicks are +0.0 or -0.0 (+0.0 once f = 0 adds the + 0.0),
    # so its chains stay at +0.0, and every level keeps the bits of the
    # sampler that stepped one level at a time.
    grid, case = stack_case("state_dependent_profile_walls")
    assert case["eps"][-1] == 0.0
    coeffs = registry_coeffs(case["coeffs"].alpha, f_kind, sigma_kind)
    dt, chains = 1e-2, case["chains"]
    levels = [
        (eps, plan, tuple(43 + 1000 * i + j for j in range(chains)))
        for i, (eps, plan) in enumerate(zip(case["eps"], case["plans"]))
    ]
    stacked = stacked_samples(coeffs, case["walls"], levels, dt)
    for (eps, plan, seeds), got in zip(levels, stacked):
        want = per_level_samples(coeffs, case["walls"], eps, plan, seeds, dt)
        assert got.tobytes() == want.tobytes()
    assert stacked[-1].tobytes() == np.zeros_like(stacked[-1]).tobytes()


@pytest.mark.parametrize("sigma_kind", ["state_modulated", "cosine_profile"])
def test_stacked_rounds_with_as_many_chains_as_nodes_keep_the_per_level_bits(sigma_kind):
    # The stack is (levels, n+1, chains).  With chains == n + 1 a wall, x or
    # sigma profile broadcast along the chain axis raises no shape error: it
    # gives wrong bits.  Profile walls that bind and an x-dependent sigma,
    # called at every step (no declarations), would show that.
    grid = build_grid(16)
    walls = profile_walls(grid)
    coeffs = undeclared(registry_coeffs(4.0, "sinusoidal", sigma_kind))
    dt, chains = 1e-2, grid.n + 1
    plans = [SamplingPlan(2.1, 0.05, 40), SamplingPlan(2.0, 0.07, 30)]
    levels = [
        (eps, plan, tuple(77 + 1000 * i + j for j in range(chains)))
        for i, (eps, plan) in enumerate(zip((0.6, 0.3), plans))
    ]
    for (eps, plan, seeds), got in zip(levels, stacked_samples(coeffs, walls, levels, dt)):
        want = per_level_samples(coeffs, walls, eps, plan, seeds, dt)
        assert np.any(want == walls.k1) and np.any(want == walls.k2)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("f_kind, sigma_kind", REGISTRY_KINDS)
@pytest.mark.parametrize("name", sorted(STACK_CASES))
def test_declared_stacked_rounds_keep_the_undeclared_bits(name, f_kind, sigma_kind):
    # The case's stack (one case ends in a noiseless level) with registry
    # coefficients, declared and stripped of their declarations.
    _, case = stack_case(name)
    dt, chains = 1e-2, case["chains"]
    levels = [
        (eps, plan, tuple(57 + 1000 * i + j for j in range(chains)))
        for i, (eps, plan) in enumerate(zip(case["eps"], case["plans"]))
    ]
    declared = registry_coeffs(case["coeffs"].alpha, f_kind, sigma_kind)
    runs = [
        [(level, r, rows.tobytes()) for level, r, rows in wallspde.measure._rounds(coeffs, case["walls"], levels, dt)]
        for coeffs in (declared, undeclared(declared))
    ]
    assert len(runs[0]) == sum(-(-plan.count // chains) for plan in case["plans"])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("name", sorted(STACK_CASES))
def test_ldp_scaling_curve_counts_the_per_level_hits(name):
    grid, case = stack_case(name)
    dt, chains, base_seed = 1e-2, case["chains"], 91
    catalog = {t: (0.0, 0.1, 0.2) for t in range(len(case["targets"]))}
    diag = ldp_scaling_curve(
        case["targets"], case["eps"], case["plans"], case["coeffs"], case["walls"],
        catalog=catalog, base_seed=base_seed, dt=dt, chains=chains,
    )
    rows = iter(diag.rows)
    hit_counts = []
    for e_idx, (eps, plan) in enumerate(zip(case["eps"], case["plans"])):
        seeds = tuple(base_seed + 1000 * e_idx + j for j in range(chains))
        samples = per_level_samples(case["coeffs"], case["walls"], eps, plan, seeds, dt)
        measure = EmpiricalMeasure(samples=samples, eps=eps, grid=grid)
        for t_idx, (z_star, delta) in enumerate(case["targets"]):
            p_hat, (lo, hi) = ball_probability(measure, z_star, delta)
            row = next(rows)
            assert (row["target_id"], row["eps"]) == (t_idx, eps)
            assert (row["p_hat"], row["wilson_lo"], row["wilson_hi"]) == (p_hat, lo, hi)
            hit_counts.append((round(p_hat * plan.count), plan.count))
    # Most counts are neither 0 nor the whole count, so the comparison bites.
    assert sum(0 < hits < count for hits, count in hit_counts) > len(hit_counts) // 2, hit_counts


@pytest.mark.parametrize(
    "chains,grid_n,alpha,dt", [(256, 32, 2.0, 1e-2), (16, 2048, 100.0, 1 / 2048)], ids=["256_chains", "n2048"]
)
def test_noise_buffer_stays_within_its_budget(chains, grid_n, alpha, dt):
    # Noise used to be drawn 256 steps per chain at a time: 17.3 MB at 256
    # chains and 65 MB at n=2048.  Now every chain shares _NOISE_VALUES.
    # At n=2048 the step may not exceed dx, and a large alpha keeps the
    # 5/alpha burn-in, and so the run, short.
    grid, coeffs, walls, _ = benchmark(alpha=alpha, grid_n=grid_n)
    plan = SamplingPlan(burn_in=5.0 / alpha, thin=1.0 / alpha, count=chains)
    state_bytes = chains * (grid.n + 1) * 8
    tracemalloc.start()
    try:
        measure = sample_invariant(coeffs, walls, 0.3, plan, seeds=range(chains), dt=dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert wallspde.measure._NOISE_VALUES * 8 <= 2 * 2**20
    assert peak - measure.samples.nbytes <= wallspde.measure._NOISE_VALUES * 8 + 16 * state_bytes


def test_ldp_scaling_curve_memory_does_not_grow_with_the_count():
    # C11-like: 60k kept states from 16 chains.  Only hit counts are kept, so
    # the peak is the noise buffer, far below one (count, n+1) array.
    grid, coeffs, walls, _ = benchmark(alpha=2.0, grid_n=32)
    plans = [SamplingPlan(2.5, 1e-2, 20_000), SamplingPlan(2.5, 1e-2, 40_000)]
    tracemalloc.start()
    try:
        diag = ldp_scaling_curve(
            [(np.zeros(grid.n + 1), 0.3)], (0.5, 0.3), plans, coeffs, walls,
            catalog={0: (0.0, 0.0, 0.0)}, dt=1e-2, chains=16,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(diag.resolved_rows()) == 2
    assert peak < 0.3 * 40_000 * (grid.n + 1) * 8


# ---------------------------------------------------------------- input checks


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -0.1, -float("inf")])
def test_sample_invariant_rejects_a_bad_noise_level(eps):
    grid, coeffs, walls, plan = benchmark(count=10)
    with pytest.raises(ValueError, match=f"noise level .* got {eps}"):
        sample_invariant(coeffs, walls, eps, plan, seeds=[1], dt=1e-2)


@pytest.mark.parametrize("dt", [0.0, float("nan")])
def test_sample_invariant_rejects_a_bad_dt(dt):
    # dt=0 raised ZeroDivisionError and dt=nan a float conversion error.
    grid, coeffs, walls, plan = benchmark(count=10)
    with pytest.raises(ValueError, match=f"dt must be finite and positive, got {dt}"):
        sample_invariant(coeffs, walls, 0.3, plan, seeds=[1], dt=dt)


@pytest.mark.parametrize("dt", [0.5, 1e306])
def test_sample_invariant_rejects_a_step_above_dx(dt, monkeypatch):
    # Both used to run at n=8 (dx=0.125); at 1e306 the burn-in rounded to
    # 0 steps and the samples came out near 1e-154.
    grid, coeffs, walls, plan = benchmark(count=10, grid_n=8)
    monkeypatch.setattr(wallspde.measure, "_rounds", None)
    with pytest.raises(ValueError, match=re.escape(f"dt too large: dt={dt} exceeds the stability heuristic dx=0.125")):
        sample_invariant(coeffs, walls, 0.3, plan, seeds=[1], dt=dt)


@pytest.mark.parametrize("seeds", [[5, 5], [1, 2, 1]])
def test_sample_invariant_rejects_a_repeated_seed(seeds, monkeypatch):
    # seeds=[5, 5] returned two identical chains, so the sample held each draw twice.
    grid, coeffs, walls, plan = benchmark(count=10)
    monkeypatch.setattr(wallspde.measure, "_rounds", None)
    with pytest.raises(ValueError, match=f"seed {seeds[-1]} is drawn twice"):
        sample_invariant(coeffs, walls, 0.3, plan, seeds=seeds, dt=1e-2)


@pytest.mark.parametrize("seed", [1.9, 2.0, True, np.bool_(False), -1, np.float64(3.0), "4"])
def test_sample_invariant_rejects_a_seed_that_is_not_a_nonnegative_integer(seed, monkeypatch):
    # int(s) made seeds 1.9 and 2.2 draw the streams of seeds 1 and 2, and True
    # drew seed 1's.
    grid, coeffs, walls, plan = benchmark(count=10)
    monkeypatch.setattr(wallspde.measure, "_rounds", None)
    with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, at least 0, got {seed!r}")):
        sample_invariant(coeffs, walls, 0.3, plan, seeds=[5, seed], dt=1e-2)


def test_sample_invariant_takes_numpy_integer_seeds():
    grid, coeffs, walls, plan = benchmark(count=10)
    want = sample_invariant(coeffs, walls, 0.3, plan, seeds=[3, 1], dt=1e-2).samples
    got = sample_invariant(coeffs, walls, 0.3, plan, seeds=np.array([3, 1]), dt=1e-2).samples
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("field", ["burn_in", "thin"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_sampling_plan_rejects_non_finite_times(field, value):
    times = {"burn_in": 2.5, "thin": 0.5, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite, got {value}"):
        SamplingPlan(count=10, **times)


def test_sampling_plan_count_is_an_integer_of_at_least_one():
    # A float count passed and then died in numpy with a TypeError.
    grid, coeffs, walls, _ = benchmark(count=10, grid_n=8)
    plan = SamplingPlan(5.0, 0.5, np.int64(4))
    assert sample_invariant(coeffs, walls, 0.3, plan, seeds=[1, 2], dt=1e-2).count == 4
    for count in (4.0, np.float64(4.0), True, np.bool_(True), 0, -1, "4"):
        with pytest.raises(ValueError, match=f"count must be an integer, at least 1, got {re.escape(repr(count))}"):
            SamplingPlan(5.0, 0.5, count)


def curve_inputs(grid, coeffs, **change):
    plan = SamplingPlan.default(coeffs, 50)
    inputs = dict(
        targets=[(np.full(grid.n + 1, 0.1), 0.1)],
        eps_schedule=(0.5, 0.25),
        plans=[plan, plan],
        catalog=None,
        chains=4,
        dt=1e-2,
    )
    inputs.update(change)
    return inputs


def hot_coeffs(alpha):
    """f(x, 0) = 1: hypothesis H fails."""
    return CoefficientSpec(
        f=lambda x, u: np.ones_like(u), sigma=lambda x, u: np.ones_like(u),
        alpha=alpha, lipschitz_c=0.0, sigma_min=1.0,
    )


BAD_CURVES = {
    "eps_nan": (dict(eps_schedule=(float("nan"), 0.25)), "noise level .* got nan"),
    "eps_inf": (dict(eps_schedule=(float("inf"), 0.25)), "noise level .* got inf"),
    "eps_negative": (dict(eps_schedule=(0.5, -0.25)), "noise level .* got -0.25"),
    "eps_empty": (dict(eps_schedule=(), plans=[]), "at least one noise level"),
    "target_short": (dict(targets=[(np.zeros(5), 0.1)]), r"target 0: z_star .* \(33,\), got shape \(5,\)"),
    "target_nan": (
        dict(targets=[(np.full(33, 0.1), 0.1), (np.full(33, np.nan), 0.1)]),
        "target 1: z_star must be a finite",
    ),
    "target_outside": (dict(targets=[(np.full(33, 11.0), 0.1)]), "target 0: z_star is inadmissible"),
    # A catalog used to let the same target through to sampling.
    "target_outside_catalog": (
        dict(targets=[(np.full(33, 0.1), 0.1), (np.full(33, -11.0), 0.1)], catalog={0: (0, 0, 0), 1: (0, 0, 0)}),
        "target 1: z_star is inadmissible",
    ),
    "delta_nan": (dict(targets=[(np.zeros(33), float("nan"))]), "target 0: ball radius .* got nan"),
    "delta_inf": (dict(targets=[(np.zeros(33), float("inf"))]), "target 0: ball radius .* got inf"),
    "delta_zero": (dict(targets=[(np.zeros(33), 0.0)]), "target 0: ball radius .* got 0.0"),
    "catalog_missing": (
        dict(targets=[(np.zeros(33), 0.1), (np.zeros(33), 0.2)], catalog={0: (0.0, 0.0, 0.0)}),
        r"catalog has no entry for targets \[1\]",
    ),
    "hypothesis_h": ("hot", "hypothesis H"),
    "short_burn_in": (
        dict(plans=[SamplingPlan(5.0, 0.5, 50), SamplingPlan(1.0, 0.5, 50)]),
        "mixing heuristic",
    ),
    "no_chains": (dict(chains=0), "chains must be an integer, at least 1, got 0"),
    # Level i seeds base_seed + 1000*i + j, so chain 1000 of level 0 is chain 0 of level 1.
    "chains_over_1000": (dict(chains=1001, base_seed=200), "seed 1200 is drawn twice"),
    # A fractional base seed drew fractional seeds, which were not checked.
    "base_seed_fractional": (dict(base_seed=200.5), r"base_seed must be an integer, at least 0, got 200\.5"),
    "base_seed_bool": (dict(base_seed=True), "base_seed must be an integer, at least 0, got True"),
    "base_seed_negative": (dict(base_seed=-3), "base_seed must be an integer, at least 0, got -3"),
    "dt_nan": (dict(dt=float("nan")), "dt must be finite and positive, got nan"),
    "dt_above_dx": (dict(dt=0.05), "dt too large: dt=0.05 exceeds"),
    "dt_huge": (dict(dt=1e306), "dt too large: dt=1e[+]306 exceeds"),
}


@pytest.mark.parametrize("name", sorted(BAD_CURVES))
def test_ldp_scaling_curve_rejects_bad_inputs_before_any_work(name, monkeypatch):
    change, message = BAD_CURVES[name]
    grid, coeffs, walls, _ = benchmark(alpha=4.0)
    if change == "hot":
        change, coeffs = {}, hot_coeffs(4.0)

    def no_work(*args, **kwargs):
        raise AssertionError("inputs must be checked before any quasipotential solve or sampling step")

    monkeypatch.setattr(wallspde.measure, "quasipotential_J", no_work)
    monkeypatch.setattr(wallspde.measure, "_rounds", no_work)
    inputs = curve_inputs(grid, coeffs, **change)
    with pytest.raises(ValueError, match=message):
        ldp_scaling_curve(
            inputs.pop("targets"), inputs.pop("eps_schedule"), inputs.pop("plans"), coeffs, walls, **inputs
        )
