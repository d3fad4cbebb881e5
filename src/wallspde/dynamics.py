"""Time integrators for the reflected evolution problems.

Four flavours share one step: the controlled (skeleton) equation, its
penalized approximation, the zero-control flow, and the stochastic equation
driven by discretized space-time white noise.  Each step adds the explicit
reaction and drive terms to the previous state and hands the result to
``lattice.Propagator.step``, which does the implicit linear solve and
restores the walls by clipping onto [K1, K2] (projected mode, the
production default) or by the closed-form implicit penalty (penalized mode);
its restoring correction over dt gives the force densities.

Noise normalisation: each cell increment is N(0, dt*dx) and enters the drift
as sigma * dW / dx, so pairing the forcing with a test function under
trapezoid weights reproduces the white-noise integral.

Each stepping rule has one home that every solver and the sampler call:
``lattice.check_dt``, ``lattice.mesh_steps``, ``lattice.check_times``,
``lattice.uniform_step`` and ``lattice.match_dt`` (the time mesh),
``check_noise_step`` (stochastic step), ``check_level`` (noise level),
``check_penalty`` (penalty), and ``noise_generator`` with
``increment_scale`` (the noise stream).  A bad ``dt``, horizon, time mesh,
noise level or penalty raises ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from wallspde.lattice import (
    Grid,
    Propagator,
    SpaceTimeField,
    Walls,
    _step_tolerance,
    check_dt,
    check_times,
    match_dt,
    mesh_steps,
    uniform_step,
)
from wallspde.obstacle import LocalTime

__all__ = [
    "CoefficientSpec",
    "Control",
    "NoiseRealization",
    "Trajectory",
    "sample_noise",
    "step_penalized",
    "solve_skeleton",
    "solve_deterministic",
    "solve_spde",
    "local_time_energy",
]


@dataclass(frozen=True, eq=False)
class CoefficientSpec:
    """Reaction f(x, u), noise amplitude sigma(x, u), and declared bounds.

    ``lipschitz_c`` bounds the u-Lipschitz constant of f, ``sigma_min`` is a
    positive lower bound on |sigma|, ``bound`` dominates |f| and |sigma| on
    the admissible band.  The dissipativity hypothesis (``f(x, 0) = 0`` and
    ``lipschitz_c < alpha``) makes 0 an exponentially attracting rest point
    with rate alpha - lipschitz_c.
    """

    f: callable
    sigma: callable
    alpha: float
    lipschitz_c: float
    sigma_min: float
    bound: float
    df_du: callable | None = None
    dsigma_du: callable | None = None
    f_name: str = "custom"
    sigma_name: str = "custom"

    @property
    def alpha1(self) -> float:
        return self.alpha - self.lipschitz_c

    def require_h(self, grid: Grid) -> None:
        """Raises unless hypothesis H holds: lipschitz_c < alpha and |f(x, 0)| <= 1e-12."""
        at_zero = self.f(grid.nodes, np.zeros(grid.n + 1))
        if not (self.lipschitz_c < self.alpha and np.max(np.abs(at_zero)) <= 1e-12):
            raise ValueError(
                "hypothesis H required: need f(x, 0) = 0 and lipschitz_c < alpha "
                f"(c={self.lipschitz_c}, alpha={self.alpha})"
            )


@dataclass(eq=False)
class Control:
    """Square-integrable drive: row k holds hdot(., t) on [times[k], times[k+1])."""

    grid: Grid
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.times = check_times(self.times)
        self.values = np.asarray(self.values, dtype=float)
        expected = (len(self.times) - 1, self.grid.n + 1)
        if self.values.shape != expected:
            raise ValueError(f"control shaped {self.values.shape}, expected {expected}")

    @property
    def dt(self) -> float:
        """Uniform step size; raises when the mesh is not uniform."""
        return uniform_step(self.times)

    @property
    def l2_norm_sq(self) -> float:
        """Full space-time square integral of hdot."""
        dts = np.diff(self.times)
        return float(dts @ (self.values**2 @ self.grid.weights))

    @property
    def action(self) -> float:
        return 0.5 * self.l2_norm_sq

    @classmethod
    def zero(cls, grid: Grid, times: np.ndarray) -> "Control":
        return cls(grid, np.asarray(times, dtype=float), np.zeros((len(times) - 1, grid.n + 1)))

    @classmethod
    def from_function(cls, grid: Grid, T: float, dt: float, fn) -> "Control":
        """Sample hdot(x, t) at step starts on the uniform mesh of [0, T]."""
        m = mesh_steps(T, dt, "T")
        times = np.linspace(0.0, T, m + 1)
        vals = np.array([fn(grid.nodes, times[k]) for k in range(m)], dtype=float)
        return cls(grid, times, vals)


@dataclass(eq=False)
class NoiseRealization:
    """White-noise cell increments, one N(0, dt*dx) draw per (step, node)."""

    grid: Grid
    dt: float
    seed: int
    stream: int
    increments: np.ndarray

    @property
    def steps(self) -> int:
        return self.increments.shape[0]

    def negated(self) -> "NoiseRealization":
        return replace(self, increments=-self.increments)


def check_level(eps: float) -> float:
    """The noise level as a float; raises unless it is finite and nonnegative."""
    eps = float(eps)
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"noise level must be finite and nonnegative, got {eps}")
    return eps


def check_noise_step(grid: Grid, dt: float) -> None:
    """Raises unless the stochastic step dt is finite, positive and at most dx."""
    if check_dt(dt) > grid.dx:
        raise ValueError(f"dt too large: dt={dt} exceeds the stability heuristic dx={grid.dx}")


def check_penalty(delta: float, eps_pen: float) -> None:
    """Raises unless both penalty parameters are finite and positive."""
    if not (0.0 < delta < math.inf and 0.0 < eps_pen < math.inf):
        raise ValueError(f"penalty parameters must be positive and finite: delta={delta}, eps_pen={eps_pen}")


def noise_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Stream ``stream`` of ``seed``; its standard normals times ``increment_scale`` are increments."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def increment_scale(grid: Grid, dt: float) -> float:
    """Standard deviation sqrt(dt*dx) of one white-noise cell increment."""
    return math.sqrt(check_dt(dt) * grid.dx)


def sample_noise(grid: Grid, dt: float, steps: int, seed: int, stream: int = 0) -> NoiseRealization:
    """Reproducible i.i.d. increments; (seed, stream) fully determines them."""
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    scale = increment_scale(grid, dt)
    draws = noise_generator(seed, stream).normal(0.0, scale, size=(steps, grid.n + 1))
    return NoiseRealization(grid, float(dt), int(seed), int(stream), draws)


@dataclass(eq=False)
class Trajectory:
    """Reflected path together with its force densities and run metadata."""

    u: SpaceTimeField
    eta: LocalTime
    xi: LocalTime
    coeffs: CoefficientSpec
    mode: str
    eps_noise: float | None = None
    control: Control | None = None


def step_penalized(
    state: np.ndarray,
    walls: Walls,
    delta: float,
    eps_pen: float,
    coeffs: CoefficientSpec,
    dt: float,
    hdot: np.ndarray | None = None,
    noise_increment: np.ndarray | None = None,
    eps_noise: float = 0.0,
) -> np.ndarray:
    """One semi-implicit penalized step.

    The stiff restoring terms (u - K1)^- / delta and (u - K2)^+ / eps_pen are
    integrated implicitly per node, which stays stable for arbitrarily small
    penalty parameters; reaction, control, and noise enter explicitly at the
    old state.
    """
    state = np.asarray(state, dtype=float)
    if not np.all(np.isfinite(state)):
        raise ValueError("non-finite state")
    check_penalty(delta, eps_pen)
    eps_noise = check_level(eps_noise)
    grid = walls.grid
    drive = None
    if hdot is not None:
        drive = dt * coeffs.sigma(grid.nodes, state) * hdot
    if noise_increment is not None:
        kick = eps_noise * coeffs.sigma(grid.nodes, state) * noise_increment / grid.dx
        drive = kick if drive is None else drive + kick
    prop = _cached_propagator(grid, coeffs.alpha, dt)
    one_step = np.array([0.0, dt])
    path, _, _ = _march(prop, coeffs, walls, state, one_step, lambda k, u: drive, (delta, eps_pen))
    return path.final


@lru_cache(maxsize=8)
def _cached_propagator(grid: Grid, alpha: float, dt: float) -> Propagator:
    """One propagator per (grid, alpha, dt), so repeated single steps build it once."""
    return Propagator(grid, alpha, dt)


def _march(prop, coeffs, walls, u0, times, drive_for_step, penalty=None):
    """Step u0 across ``times``; returns the path and its lower and upper force densities."""
    grid = prop.grid
    m, n1 = len(times) - 1, grid.n + 1
    u = np.empty((m + 1, n1))
    eta = np.zeros((m, n1))
    xi = np.zeros((m, n1))
    u[0] = u0
    for k in range(m):
        drive = drive_for_step(k, u[k])
        rhs = u[k] + prop.dt * coeffs.f(grid.nodes, u[k])
        if drive is not None:
            rhs = rhs + drive
        prop.step(rhs, walls.k1, walls.k2, penalty=penalty, out=u[k + 1], forces=(eta[k], xi[k]))
    return SpaceTimeField(grid, times, u), LocalTime(grid, times, eta), LocalTime(grid, times, xi)


def solve_skeleton(
    u0: np.ndarray,
    control: Control | None,
    coeffs: CoefficientSpec,
    walls: Walls,
    T: float,
    dt: float,
    mode: str = "projected",
    delta: float = 1e-4,
    eps_pen: float | None = None,
) -> Trajectory:
    """Integrate the controlled reflected equation on [0, T].

    Projected mode keeps the state inside the walls exactly and reads the
    force densities off the clip corrections.  Penalized mode lets the state
    overshoot by O(delta) and defines the densities through the penalty
    terms; the two agree in the limit delta = eps_pen -> 0.
    """
    grid = walls.grid
    u0 = walls.check(u0, "initial state")
    if mode not in ("projected", "penalized"):
        raise ValueError(f"unknown mode '{mode}'")
    if eps_pen is None:
        eps_pen = delta
    if mode == "penalized":
        check_penalty(delta, eps_pen)
    m = mesh_steps(T, dt, "T")
    times = np.linspace(0.0, T, m + 1)
    if control is not None:
        match_dt(control.times, dt, "control")
        if control.values.shape[0] < m:
            raise ValueError(f"control time mesh has {control.values.shape[0]} steps, fewer than the trajectory's {m}")
    prop = Propagator(grid, coeffs.alpha, dt)

    def drive_for_step(k, state):
        if control is None:
            return None
        return prop.dt * coeffs.sigma(grid.nodes, state) * control.values[k]

    penalty = (delta, eps_pen) if mode == "penalized" else None
    u, eta, xi = _march(prop, coeffs, walls, u0, times, drive_for_step, penalty)
    return Trajectory(u, eta, xi, coeffs, mode, control=control)


def solve_deterministic(
    z: np.ndarray, coeffs: CoefficientSpec, walls: Walls, T: float, dt: float
) -> Trajectory:
    """Zero-control flow from z; requires the dissipativity hypothesis so the
    path decays toward 0 at rate alpha - lipschitz_c."""
    coeffs.require_h(walls.grid)
    return solve_skeleton(z, None, coeffs, walls, T, dt, mode="projected")


def solve_spde(
    u0: np.ndarray,
    eps_noise: float,
    coeffs: CoefficientSpec,
    walls: Walls,
    T: float,
    dt: float,
    seed: int = 0,
    stream: int = 0,
    noise: NoiseRealization | None = None,
) -> Trajectory:
    """Integrate the stochastic equation at noise level eps_noise.

    dt is capped at dx: larger steps leave the explicit noise/reaction
    sub-step unresolved even though the implicit linear solve itself is
    unconditionally stable.
    """
    grid = walls.grid
    u0 = walls.check(u0, "initial state")
    eps_noise = check_level(eps_noise)
    m = mesh_steps(T, dt, "T")
    check_noise_step(grid, dt)
    times = np.linspace(0.0, T, m + 1)
    if eps_noise > 0.0:
        if noise is None:
            noise = sample_noise(grid, dt, m, seed, stream)
        # Increments start at t = 0, so a realization's mesh is [0, noise.dt, ...].
        match_dt(np.array([0.0, noise.dt]), dt, "noise realization")
        if noise.steps < m:
            raise ValueError(f"noise realization time mesh has {noise.steps} steps, fewer than the trajectory's {m}")
        increments = noise.increments
    else:
        increments = None

    prop = Propagator(grid, coeffs.alpha, dt)

    def drive_for_step(k, state):
        if increments is None:
            return None
        return eps_noise * coeffs.sigma(grid.nodes, state) * increments[k] / grid.dx

    u, eta, xi = _march(prop, coeffs, walls, u0, times, drive_for_step)
    return Trajectory(u, eta, xi, coeffs, "projected", eps_noise=eps_noise)


def local_time_energy(lt: LocalTime, alpha: float, T: float) -> float:
    """Exponentially discounted square energy of a force density on [0, T].

    Integral of exp(-alpha*(T - t)) * density^2 dx dt, rectangle rule in time
    with the weight at step ends.  Diagnostic: stays of order
    1 + l2_norm_sq(control) uniformly in T for skeleton runs.
    """
    if not math.isfinite(T):
        raise ValueError(f"T must be finite, got {T}")
    grid = lt.grid
    mask = lt.times[1:] <= T + _step_tolerance(lt.times)
    dts = np.diff(lt.times)[mask]
    weight = np.exp(-alpha * (T - lt.times[1:][mask]))
    sq = (lt.density[mask] ** 2) @ grid.weights
    return float((dts * weight) @ sq)
