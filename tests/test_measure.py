import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

import wallspde.measure
from conftest import coeffs_zero
from oracles import sample_stationary_gaussian, wilson_reference
from wallspde.lattice import Walls, build_grid, holder_norm
from wallspde.measure import (
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
    for successes, total in ((0, 10), (10, 10), (3, 17), (250, 500)):
        lo, hi = wilson_interval(successes, total)
        assert 0.0 <= lo <= hi <= 1.0
        if 0 < successes < total:
            assert lo < successes / total < hi


# ---------------------------------------------------------------- sampling


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
    grid, coeffs, walls, plan = benchmark(count=30)
    monkeypatch.setattr(wallspde.measure, "_NOISE_CHUNK", 10**6)
    whole = sample_invariant(coeffs, walls, 0.3, plan, seeds=[5, 6, 7], dt=1e-2)
    monkeypatch.setattr(wallspde.measure, "_NOISE_CHUNK", 7)
    chunked = sample_invariant(coeffs, walls, 0.3, plan, seeds=[5, 6, 7], dt=1e-2)
    assert np.array_equal(whole.samples, chunked.samples)


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
