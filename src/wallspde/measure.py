"""Monte Carlo approximation of the stationary law and scaling diagnostics.

Sampling runs the reflected stochastic flow from rest, discards a burn-in
measured in multiples of the relaxation time 1/(alpha - c), then records
thinned states.  Chains for distinct seeds are independent and the whole
procedure is reproducible from the seed list.  The scaling diagnostics never
assert limits: at finite noise they check bracket inequalities built from
cataloged minimum-action values, statistical interval widths, and the rate's
local modulus over the ball, plus a monotone trend of eps^2 * log p toward
the bracket as the noise decreases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wallspde.dynamics import CoefficientSpec
from wallspde.lattice import Grid, Propagator, Walls, holder_norm
from wallspde.rate import OptimizerOptions, quasipotential_J

# Steps of noise drawn per chain at a time, so memory does not grow with the horizon.
_NOISE_CHUNK = 256

__all__ = [
    "SamplingPlan",
    "EmpiricalMeasure",
    "LdpDiagnostics",
    "wilson_interval",
    "sample_invariant",
    "ball_probability",
    "ldp_scaling_curve",
    "tightness_probe",
    "spearman_rho",
]


@dataclass(frozen=True)
class SamplingPlan:
    """Burn-in and thinning in time units plus the number of kept states."""

    burn_in: float
    thin: float
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("need at least one sample")
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
    samples: np.ndarray  # (count, n+1)
    eps: float
    plan: SamplingPlan
    seeds: tuple
    grid: Grid

    @property
    def count(self) -> int:
        return self.samples.shape[0]


def wilson_interval(successes: int, total: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if total < 1:
        raise ValueError("empty sample")
    p = successes / total
    denom = 1.0 + z * z / total
    centre = (p + z * z / (2.0 * total)) / denom
    half = z * math.sqrt(p * (1.0 - p) / total + z * z / (4.0 * total * total)) / denom
    return max(centre - half, 0.0), min(centre + half, 1.0)


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
    against the relaxation rate; plans shorter than 5 relaxation times are
    rejected.  All chains advance together as rows of one state matrix, so
    the cost per step is a single implicit solve.
    """
    grid = walls.grid
    coeffs.require_h(grid)
    if eps < 0.0:
        raise ValueError("noise level must be nonnegative")
    if not seeds:
        raise ValueError("need at least one seed")
    plan.check_burn_in(coeffs)

    seeds = tuple(int(s) for s in seeds)
    chains = len(seeds)
    burn_steps = round(plan.burn_in / dt)
    thin_steps = max(1, round(plan.thin / dt))
    per_chain = [plan.count // chains + (1 if j < plan.count % chains else 0) for j in range(chains)]
    rounds = max(per_chain)

    rngs = [
        np.random.default_rng(np.random.SeedSequence(entropy=s, spawn_key=(0,))) for s in seeds
    ]
    prop = Propagator(grid, coeffs.alpha, dt)
    x = grid.nodes
    scale = math.sqrt(dt * grid.dx)
    state = np.zeros((chains, grid.n + 1))
    noise = np.empty((chains, min(_NOISE_CHUNK, max(burn_steps, thin_steps)), grid.n + 1))

    def advance(steps: int) -> None:
        for start in range(0, steps, noise.shape[1]):
            block = min(noise.shape[1], steps - start)
            if eps > 0.0:
                # Chunked draws continue each chain's stream exactly as one draw would.
                for rng, buf in zip(rngs, noise):
                    rng.standard_normal(out=buf[:block])
                noise[:, :block] *= scale
            for k in range(block):
                rhs = state + dt * coeffs.f(x, state)
                if eps > 0.0:
                    rhs = rhs + eps * coeffs.sigma(x, state) * noise[:, k] / grid.dx
                prop.step(rhs, walls.k1, walls.k2, out=state)

    advance(burn_steps)
    # Chain j's round-r state goes to row starts[j] + r: (chain, round) order.
    starts = np.cumsum([0] + per_chain[:-1])
    samples = np.empty((plan.count, grid.n + 1))
    for r in range(rounds):
        advance(thin_steps)
        for j in range(chains):
            if r < per_chain[j]:
                samples[starts[j] + r] = state[j]
    return EmpiricalMeasure(samples=samples, eps=float(eps), plan=plan, seeds=seeds, grid=grid)


def ball_probability(
    measure: EmpiricalMeasure, z_star: np.ndarray, delta: float
) -> tuple[float, tuple[float, float]]:
    """Empirical mass of the open sup-norm ball with a Wilson 95% interval."""
    if measure.count == 0:
        raise ValueError("empty measure")
    if delta <= 0.0:
        raise ValueError("ball radius must be positive")
    z_star = np.asarray(z_star, dtype=float)
    hits = int(np.sum(np.max(np.abs(measure.samples - z_star), axis=1) < delta))
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
    """
    if np.any(np.diff(eps_schedule) >= 0.0):
        raise ValueError("eps schedule must be strictly decreasing")
    if isinstance(plans, SamplingPlan):
        plans = [plans] * len(eps_schedule)
    if len(plans) != len(eps_schedule):
        raise ValueError(f"got {len(plans)} sampling plans for {len(eps_schedule)} noise levels")
    if catalog is None:
        catalog = {}
        for idx, (z_star, delta) in enumerate(targets):
            z_star = np.asarray(z_star, dtype=float)
            j_in = quasipotential_J(np.clip(z_star - delta, walls.k1, walls.k2), coeffs, walls, options).value
            j_st = quasipotential_J(z_star, coeffs, walls, options).value
            j_out = quasipotential_J(np.clip(z_star + delta, walls.k1, walls.k2), coeffs, walls, options).value
            catalog[idx] = (min(j_in, j_out, j_st), j_st, max(j_in, j_out, j_st))

    rows = []
    for e_idx, eps in enumerate(eps_schedule):
        seeds = tuple(base_seed + 1000 * e_idx + j for j in range(chains))
        measure = sample_invariant(coeffs, walls, eps, plans[e_idx], seeds, dt=dt)
        for t_idx, (z_star, delta) in enumerate(targets):
            j_inner, j_star, j_outer = catalog[t_idx]
            p_hat, (lo, hi) = ball_probability(measure, np.asarray(z_star, dtype=float), delta)
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
    radii and shrink with the noise level.
    """
    if not 0.0 < gamma < 0.5:
        raise ValueError("holder exponent must lie in (0, 1/2)")
    norms = np.array(
        [holder_norm(measure.grid, sample, gamma) for sample in measure.samples]
    )
    rows = []
    for radius in radius_schedule:
        outside = float(np.mean(norms > radius))
        rows.append(
            {
                "radius": float(radius),
                "complement_mass": outside,
                "eps2_log_complement": measure.eps**2 * math.log(outside) if outside > 0.0 else None,
                "norm_median": float(np.median(norms)),
                "norm_q90": float(np.quantile(norms, 0.9)),
            }
        )
    return rows
