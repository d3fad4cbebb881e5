"""Monte Carlo approximation of the stationary law and scaling diagnostics.

Sampling runs the reflected stochastic flow from rest, discards a burn-in
measured in multiples of the relaxation time 1/(alpha - c), then records
thinned states.  Chains for distinct seeds are independent and the whole
procedure is reproducible from the seed list.  One private generator,
``_rounds``, does all the stepping with ``dynamics._Scheme``: it advances
every noise level of a scaling curve as one stacked node-major
(levels, n+1, chains) batch, drops a level once its last round is kept, and
draws noise through one buffer of ``_NOISE_VALUES`` values.
``sample_invariant`` collects its rounds for one level;
``ldp_scaling_curve`` only counts ball hits on them, so its memory does not
grow with the sample count.  Both give the same bits
as stepping each level alone.  The scaling diagnostics never assert limits:
at finite noise they check bracket inequalities built from cataloged
minimum-action values, statistical interval widths, and the rate's local
modulus over the ball, plus a monotone trend of eps^2 * log p toward the
bracket as the noise decreases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wallspde.dynamics import CoefficientSpec, _Scheme, check_level, check_noise_step, increment_scale, noise_generator
from wallspde.lattice import Grid, Walls, _holder_norms, check_field, check_integer
from wallspde.rate import OptimizerOptions, quasipotential_J

# Values of noise drawn at a time (2 MiB), shared by every chain and level, so
# memory does not grow with the horizon, the chain count or the grid.
_NOISE_VALUES = 2**18

# The standard normal's 0.975 quantile, for two-sided 95% intervals.
_Z95 = 1.959963984540054

__all__ = [
    "SamplingPlan",
    "EmpiricalMeasure",
    "LdpDiagnostics",
    "wilson_interval",
    "sample_invariant",
    "ball_probability",
    "ldp_scaling_curve",
    "tightness_probe",
]


@dataclass(frozen=True)
class SamplingPlan:
    """Burn-in and thinning in time units plus the number of kept states,
    ``count``: an integer (not a bool), at least 1."""

    burn_in: float
    thin: float
    count: int

    def __post_init__(self) -> None:
        check_integer(self.count, "count", 1)
        for name in ("burn_in", "thin"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.thin <= 0.0 or self.burn_in < 0.0:
            raise ValueError("burn_in must be nonnegative and thin positive")

    @classmethod
    def default(cls, coeffs: CoefficientSpec, count: int) -> "SamplingPlan":
        relax = 1.0 / coeffs.alpha1
        return cls(burn_in=10.0 * relax, thin=relax, count=count)

    def check_burn_in(self, coeffs: CoefficientSpec) -> None:
        """Reject a burn-in shorter than the mixing heuristic 5/alpha1."""
        relax = 1.0 / coeffs.alpha1
        if self.burn_in < 5.0 * relax - 1e-12:
            raise ValueError(
                f"burn-in {self.burn_in} is below the mixing heuristic 5/alpha1 = {5.0 * relax}"
            )


@dataclass(eq=False)
class EmpiricalMeasure:
    """Kept states of a sampler run at noise level ``eps``, one (n+1,) row per sample."""

    samples: np.ndarray  # (count, n+1)
    eps: float
    grid: Grid

    @property
    def count(self) -> int:
        return self.samples.shape[0]


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion: ``total`` an integer of
    at least 1 and ``successes`` an integer in [0, total] (neither a bool)."""
    check_integer(total, "total", 1)
    check_integer(successes, "successes", 0)
    if successes > total:
        raise ValueError(f"successes {successes} exceed the total {total}")
    z = _Z95
    p = successes / total
    denom = 1.0 + z * z / total
    centre = (p + z * z / (2.0 * total)) / denom
    half = z * math.sqrt(p * (1.0 - p) / total + z * z / (4.0 * total * total)) / denom
    return max(centre - half, 0.0), min(centre + half, 1.0)


def _check_schedule(eps_schedule) -> None:
    """Raises unless the schedule has at least one noise level and strictly decreases."""
    if len(eps_schedule) == 0:
        raise ValueError("need at least one noise level")
    if np.any(np.diff(eps_schedule) >= 0.0):
        raise ValueError("eps schedule must be strictly decreasing")


def _plan_per_level(plans, levels: int) -> list:
    """One sampling plan per noise level; a single plan serves every level."""
    plans = [plans] * levels if isinstance(plans, SamplingPlan) else plans
    if len(plans) != levels:
        raise ValueError(f"got {len(plans)} sampling plans for {levels} noise levels")
    return plans


def _check_sampler(coeffs: CoefficientSpec, grid: Grid, levels, plans, streams, dt: float) -> list:
    """The noise levels as floats; raises unless dt (a stochastic step, at most
    dx), hypothesis H, every level, every plan's burn-in, the chain count and
    the seeds are valid.  ``streams`` holds each level's seeds, one per chain."""
    check_noise_step(grid, dt)
    coeffs.require_h(grid)
    levels = [check_level(eps) for eps in levels]
    for plan in plans:
        plan.check_burn_in(coeffs)
    check_integer(len(streams[0]), "chains", 1)
    _check_streams(*streams)
    return levels


def _check_streams(*groups) -> None:
    """Raises unless every seed is an integer (not a bool) of at least 0 and
    every noise stream a run draws is distinct.  A seed names one stream, so a
    seed that appears twice, within a group of seeds or across groups, would
    count the same draws twice, and a fractional seed must not stand in for
    the integer below it."""
    seen = set()
    for group in groups:
        for seed in group:
            check_integer(seed, "seed", 0)
            if seed in seen:
                raise ValueError(f"seed {seed} is drawn twice: every noise stream of a run must be distinct")
            seen.add(seed)


def _level_seeds(base_seed: int, levels: int, chains: int) -> list:
    """The seeds of a scaling curve: level ``i`` runs chains ``base_seed + 1000*i + j``."""
    return [tuple(base_seed + 1000 * i + j for j in range(chains)) for i in range(levels)]


def _rounds(coeffs: CoefficientSpec, walls: Walls, levels, dt: float):
    """Step every noise level as one stacked batch and yield each kept round.

    ``levels`` lists (eps, plan, seeds), every level with the same number of
    chains; the inputs are checked by the callers.  The state is one
    node-major (levels, n+1, chains) stack, ``Propagator``'s batch layout, so
    each step's solve reads it in place.  The walls are expanded once to
    (n+1, chains), so the clip restores the stack on contiguous memory.  The
    levels' eps is a (levels, 1, 1) column.  Each level keeps its own burn-in,
    thin and count schedule and is dropped from the stack after its last
    round.  Yields (level, round, rows): the states of the chains that keep
    that round as (chains, n+1) rows, a transposed view valid until the next
    step.  Chain j keeps ``count // chains + (j < count % chains)`` rounds, so
    the keeping chains are always the first ``len(rows)``.

    Each level's chains draw from their own seeds' streams in blocks that
    share a buffer of ``_NOISE_VALUES`` values (one step's worth when a step
    needs more), and a block never runs past the next level to finish, so no
    stream is drawn beyond its level's last step.  The buffer stays
    chain-major, (levels, chains, steps, n+1), because each stream fills its
    own chain's rows; a step reads its increments through a transposed view,
    so no second buffer is needed.  Every level is stepped alike, with a kick
    from ``_Scheme.kicks``: with a declared sigma profile it turns each block
    into kicks in the same buffer, so no step evaluates sigma or builds a
    kick, and a block takes three passes: the streams' standard normals,
    ``*= scale`` (its own pass, so the increments keep the bits of
    ``sample_noise``'s and the rows those of ``solve_spde``), and one
    multiply by the small (levels, 1, 1, n+1) factor eps*sig/dx, plus the
    + 0.0 when f is zero.  Otherwise each step's kick is built at the
    stack's states.  A level at eps = 0 draws its streams too, and its kicks
    are +0.0 or -0.0, so a state at rest stays at +0.0 where f(x, 0) = 0.
    Chunked draws continue each stream exactly as one draw would, and every
    per-level operation has the same operands as when the level is sampled
    alone, so the rows are bit-identical to per-level sampling.
    """
    grid = walls.grid
    n1 = grid.n + 1
    scheme = _Scheme(coeffs, grid, dt, batch=True)
    advance, declared = scheme.step, scheme.profile is not None
    scale = increment_scale(grid, dt)
    chains = len(levels[0][2])
    lo, hi = (np.repeat(wall[:, None], chains, axis=1) for wall in (walls.k1, walls.k2))
    burn = [round(plan.burn_in / dt) for _, plan, _ in levels]
    thin = [max(1, round(plan.thin / dt)) for _, plan, _ in levels]
    counts = [plan.count for _, plan, _ in levels]
    ends = [b + -(-c // chains) * t for b, t, c in zip(burn, thin, counts)]
    keep_at = [b + t for b, t in zip(burn, thin)]
    rngs = [[noise_generator(s) for s in seeds] for _, _, seeds in levels]
    step_values = len(levels) * chains * n1
    buffer = np.empty(step_values * max(1, min(_NOISE_VALUES // step_values, max(ends))))

    active = list(range(len(levels)))
    state = np.zeros((len(levels), n1, chains))
    step = 0
    while active:
        eps = np.array([levels[lv][0] for lv in active], dtype=float).reshape(-1, 1, 1)
        per_block = buffer.size // (len(active) * chains * n1)
        noise = buffer[: len(active) * chains * per_block * n1].reshape(len(active), chains, per_block, n1)
        finish = min(ends[lv] for lv in active)
        next_keep = min(keep_at[lv] for lv in active)
        while step < finish:
            block = min(per_block, finish - step)
            for lv, level_noise in zip(active, noise):
                for rng, buf in zip(rngs[lv], level_noise):
                    rng.standard_normal(out=buf[:block])
            noise[:, :, :block] *= scale
            if declared:
                scheme.kicks(noise[:, :, :block], eps[..., None], out=noise[:, :, :block])
            # Each step's increments (kicks, with a declared profile) as a
            # node-major (levels, n+1, chains) view of the block.
            for increments in noise[:, :, :block].transpose(2, 0, 3, 1):
                kick = increments if declared else scheme.kicks(increments, eps, state)
                advance(state, lo, hi, kick, out=state)
                step += 1
                if step < next_keep:
                    continue
                for i, lv in enumerate(active):
                    if keep_at[lv] == step:
                        r = (step - burn[lv]) // thin[lv] - 1
                        kept = chains if r < counts[lv] // chains else counts[lv] % chains
                        yield lv, r, state[i, :, :kept].T
                        keep_at[lv] += thin[lv]
                next_keep = min(keep_at[lv] for lv in active)
        stay = [i for i, lv in enumerate(active) if ends[lv] > step]
        active = [active[i] for i in stay]
        state = state[stay]


def sample_invariant(
    coeffs: CoefficientSpec,
    walls: Walls,
    eps: float,
    plan: SamplingPlan,
    seeds: tuple | list,
    dt: float = 1e-3,
) -> EmpiricalMeasure:
    """Thinned states of the stochastic flow started at rest.

    Requires the dissipativity hypothesis, which justifies measuring burn-in
    against the relaxation rate; ``_check_sampler`` rejects plans shorter
    than 5 relaxation times, an empty seed list, a seed that is not an
    integer of at least 0 (a bool included), a repeated seed, a noise
    level that is negative or not finite and a step ``dt`` above dx.  All
    chains advance together as columns of one node-major state, so the cost
    per step is a single implicit solve; this collects the rounds of the
    one-level sampler that ``ldp_scaling_curve`` also steps, and its noise
    buffer holds ``_NOISE_VALUES`` values whatever the horizon or chain
    count.  Chain j's round-r state is row ``sum(per_chain[:j]) + r``:
    (chain, round) order.
    """
    grid = walls.grid
    seeds = tuple(seeds)
    chains = len(seeds)
    (eps,) = _check_sampler(coeffs, grid, [eps], [plan], [seeds], dt)
    per_chain = [plan.count // chains + (1 if j < plan.count % chains else 0) for j in range(chains)]
    starts = np.cumsum([0] + per_chain[:-1])
    samples = np.empty((plan.count, grid.n + 1))
    for _, r, rows in _rounds(coeffs, walls, [(eps, plan, seeds)], dt):
        samples[starts[: len(rows)] + r] = rows
    return EmpiricalMeasure(samples=samples, eps=eps, grid=grid)


def _check_radius(delta: float, name: str = "ball radius") -> None:
    """Raises unless the ball radius ``delta`` is finite and positive."""
    if not delta > 0.0:
        raise ValueError(f"{name} must be positive, got {delta}")
    if delta == math.inf:
        raise ValueError(f"{name} must be finite, got {delta}")


def _ball_hits(rows: np.ndarray, z_star: np.ndarray, delta: float) -> int:
    """Rows inside the open sup-norm ball of radius ``delta`` around ``z_star``."""
    return int(np.count_nonzero(np.max(np.abs(rows - z_star), axis=1) < delta))


def ball_probability(
    measure: EmpiricalMeasure, z_star: np.ndarray, delta: float
) -> tuple[float, tuple[float, float]]:
    """Empirical mass of the open sup-norm ball with a Wilson 95% interval.

    The centre must be a finite (n+1,) field on ``measure.grid`` and the
    radius finite and positive.
    """
    if measure.count == 0:
        raise ValueError("empty measure")
    z_star = check_field(measure.grid, z_star, "ball centre")
    _check_radius(delta)
    hits = _ball_hits(measure.samples, z_star, delta)
    p_hat = hits / measure.count
    return p_hat, wilson_interval(hits, measure.count)


def spearman_rho(x, y) -> float:
    """Spearman rank correlation, written out for tiny samples."""
    xr = np.argsort(np.argsort(x)).astype(float)
    yr = np.argsort(np.argsort(y)).astype(float)
    xr -= xr.mean()
    yr -= yr.mean()
    denom = math.sqrt(float(xr @ xr) * float(yr @ yr))
    if denom == 0.0:
        return 0.0
    return float(xr @ yr) / denom


@dataclass(eq=False)
class LdpDiagnostics:
    """Scaling table for eps^2 * log of ball masses against cataloged rates."""

    rows: list
    trend_rho: float
    trend_ok: bool
    j_values: dict

    def resolved_rows(self):
        return [row for row in self.rows if row["resolved"]]


def ldp_scaling_curve(
    targets,
    eps_schedule,
    plans,
    coeffs: CoefficientSpec,
    walls: Walls,
    catalog: dict | None = None,
    base_seed: int = 200,
    dt: float = 1e-3,
    chains: int = 16,
    options: OptimizerOptions | None = None,
) -> LdpDiagnostics:
    """Bracket-and-trend diagnostics for the small-noise scaling of ball masses.

    ``targets`` is a list of (z_star, delta) pairs and ``catalog`` maps a
    target index to (j_inner, j_star, j_outer), the minimum-action values at
    the near edge, centre, and far edge of the ball (computed on demand when
    absent, with optimizer ``options``).  For each noise level the table
    records the Wilson-adjusted scaling estimate and whether it sits inside
    [-j_outer - slack, -j_inner + slack], with slack the rate's local modulus
    over the ball.  Zero-count targets are flagged unresolved, never
    extrapolated.

    Every input is checked before any quasipotential solve or sampling step:
    a strictly decreasing schedule with one plan per level, a ``base_seed``
    that is an integer of at least 0, a ``chains`` count that is an integer
    of at least 1, the inputs of
    ``_check_sampler``, each ``z_star`` a field between the walls, each
    ``delta`` finite and positive and a catalog entry for every target.
    Level ``i`` runs ``chains`` chains seeded ``base_seed + 1000*i + j``, so
    more than 1000 chains on two or more levels repeat a seed and raise; all
    levels step together as one stacked batch and only the hits per (level,
    target) are kept, so no samples array is built.
    """
    _check_schedule(eps_schedule)
    plans = _plan_per_level(plans, len(eps_schedule))
    check_integer(base_seed, "base_seed", 0)
    check_integer(chains, "chains", 1)
    streams = _level_seeds(base_seed, len(eps_schedule), chains)
    eps_levels = _check_sampler(coeffs, walls.grid, eps_schedule, plans, streams, dt)
    balls = []
    for t_idx, (z_star, delta) in enumerate(targets):
        z_star = walls.check(z_star, f"target {t_idx}: z_star")
        _check_radius(delta, f"target {t_idx}: ball radius")
        balls.append((z_star, delta))
    missing = [t_idx for t_idx in range(len(targets)) if catalog is not None and t_idx not in catalog]
    if missing:
        raise ValueError(f"catalog has no entry for targets {missing}")

    if catalog is None:
        catalog = {}
        for idx, (z_star, delta) in enumerate(balls):
            j_in = quasipotential_J(np.clip(z_star - delta, walls.k1, walls.k2), coeffs, walls, options).value
            j_st = quasipotential_J(z_star, coeffs, walls, options).value
            j_out = quasipotential_J(np.clip(z_star + delta, walls.k1, walls.k2), coeffs, walls, options).value
            catalog[idx] = (min(j_in, j_out, j_st), j_st, max(j_in, j_out, j_st))

    levels = list(zip(eps_levels, plans, streams))
    hits = [[0] * len(targets) for _ in levels]
    for e_idx, _, states in _rounds(coeffs, walls, levels, dt):
        for t_idx, (z_star, delta) in enumerate(balls):
            hits[e_idx][t_idx] += _ball_hits(states, z_star, delta)

    rows = []
    for e_idx, eps in enumerate(eps_schedule):
        count = plans[e_idx].count
        for t_idx in range(len(targets)):
            j_inner, j_star, j_outer = catalog[t_idx]
            p_hat = hits[e_idx][t_idx] / count
            lo, hi = wilson_interval(hits[e_idx][t_idx], count)
            resolved = p_hat > 0.0
            slack = max(j_star - j_inner, j_outer - j_star)
            row = {
                "target_id": t_idx,
                "eps": float(eps),
                "p_hat": p_hat,
                "wilson_lo": lo,
                "wilson_hi": hi,
                "eps2_log_p": eps**2 * math.log(p_hat) if resolved else None,
                "j_inner": j_inner,
                "j_star": j_star,
                "j_outer": j_outer,
                "slack": slack,
                "resolved": resolved,
            }
            if resolved:
                upper_ok = eps**2 * math.log(max(lo, 1e-300)) <= -j_inner + slack
                lower_ok = eps**2 * math.log(hi) >= -j_outer - slack
                row["contained"] = bool(upper_ok and lower_ok)
            else:
                row["contained"] = None
            rows.append(row)

    per_target_trends = []
    for t_idx in range(len(targets)):
        pts = [(r["eps"], r["eps2_log_p"]) for r in rows if r["target_id"] == t_idx and r["resolved"]]
        if len(pts) >= 2:
            e, v = zip(*pts)
            per_target_trends.append(spearman_rho(e, v))
    trend_rho = float(np.mean(per_target_trends)) if per_target_trends else 0.0
    trend_ok = bool(per_target_trends) and all(rho < 0.0 for rho in per_target_trends)
    return LdpDiagnostics(rows=rows, trend_rho=trend_rho, trend_ok=trend_ok, j_values=catalog)


def tightness_probe(measure: EmpiricalMeasure, gamma: float, radius_schedule) -> list:
    """Empirical mass outside Holder-norm balls, per radius.

    Reports eps^2 * log of the complement mass (None once empty) together
    with the quartiles of the norm sample; mass outside must vanish for large
    radii and shrink with the noise level.  The measure must hold a sample
    of finite fields and every radius be finite and positive, as for
    ``ball_probability``.  The norms are taken in blocks of rows by
    ``lattice._holder_norms``, with the bits ``holder_norm`` gives each row.
    """
    if not 0.0 < gamma < 0.5:
        raise ValueError("holder exponent must lie in (0, 1/2)")
    if measure.count == 0:
        raise ValueError("empty measure")
    radii = list(radius_schedule)
    for radius in radii:
        _check_radius(radius, "tightness radius")
    samples, npts = measure.samples, measure.grid.n + 1
    if samples.shape[1:] != (npts,) or not np.isfinite(samples).all():
        raise ValueError(f"the measure's samples must be finite fields of shape ({npts},)")
    norms = _holder_norms(measure.grid, samples, gamma)
    median, q90 = float(np.median(norms)), float(np.quantile(norms, 0.9))
    rows = []
    for radius in radii:
        outside = float(np.mean(norms > radius))
        rows.append(
            {
                "radius": float(radius),
                "complement_mass": outside,
                "eps2_log_complement": measure.eps**2 * math.log(outside) if outside > 0.0 else None,
                "norm_median": median,
                "norm_q90": q90,
            }
        )
    return rows
