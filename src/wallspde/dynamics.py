"""Time integrators for the reflected evolution problems.

Four flavours share one step: the controlled (skeleton) equation, its
penalized approximation, the zero-control flow, and the stochastic equation
driven by discretized space-time white noise.  The step is written once, in
the private ``_Scheme`` that these solvers, the sampler in ``measure`` and
the optimizer in ``rate`` call: it adds the explicit reaction term and at
most one more, a control drive or a noise kick from ``_Scheme.kicks``, to
the previous state and hands the result to
``lattice.Propagator.step``, which does the implicit linear solve and
restores the walls by clipping onto [K1, K2] (projected mode, the
production default) or by the closed-form implicit penalty (penalized mode);
its restoring correction over dt, split after the last step by
``Propagator.restoring_forces``, gives the force densities.

A ``CoefficientSpec`` may declare what the scheme can use before a run
starts: ``sigma_profile``, a ``sigma`` that does not depend on u, and
``f_zero``, an f that is zero.  ``_Scheme`` checks the declarations once,
evaluates the profile once, and then calls neither callable where a
declaration stands in for it; every value keeps its bits.

Noise normalisation: each cell increment is N(0, dt*dx), a standard normal
from the seed's SFC64 stream (``noise_generator``) times sqrt(dt*dx), and
enters the drift as the kick (eps * sigma / dx) * dW: the factor is formed
first, on the small sigma profile or the step's sigma, and meets the
increments in one multiply.  Under trapezoid weights this reproduces the
white-noise pairing at the interior nodes only; at the two end nodes (weight
dx/2) it is O(dx) off the W metric of the action, which puts the sampled
law's LDP rate 1.7% above the rate ``rate`` computes at n=32.

Each stepping rule has one home that every solver and the sampler call:
``lattice.check_dt``, ``lattice.mesh_steps``, ``lattice.check_times``,
``lattice.uniform_step`` and ``lattice.match_dt`` (the time mesh),
``check_noise_step`` (stochastic step), ``check_level`` (noise level),
``check_penalty`` (penalty), and ``noise_generator`` with
``increment_scale`` (the noise stream).  ``noise_generator`` holds seeds and
streams, and ``sample_noise`` its step count, to ``lattice.check_integer``,
the one rule for every count, seed and grid size.  A bad ``dt``, horizon,
time mesh, noise level, penalty, seed, stream or count raises ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from wallspde.lattice import (
    Grid, Operator, Propagator, SpaceTimeField, Walls, _check_alpha, _step_tolerance, check_dt, check_field,
    check_integer, check_times, match_dt, match_grid, mesh_steps, neumann_operator, uniform_step,
)
from wallspde.obstacle import LocalTime

__all__ = [
    "CoefficientSpec",
    "Control",
    "NoiseRealization",
    "Trajectory",
    "sample_noise",
    "solve_skeleton",
    "solve_deterministic",
    "solve_spde",
    "local_time_energy",
]


@dataclass(frozen=True, eq=False)
class CoefficientSpec:
    """Reaction f(x, u), noise amplitude sigma(x, u) and the constants the solvers check.

    f and sigma act pointwise: each value depends on its own node's x and u
    alone, with x broadcast against u.  A single state u is an (n+1,) field
    and x the (n+1,) nodes; a sampler batch u is node-major,
    (..., n+1, batch), and x comes as an (n+1, 1) column.

    ``lipschitz_c`` bounds the u-Lipschitz constant of f and ``sigma_min`` is
    a positive lower bound on |sigma|; ``df_du`` and ``dsigma_du`` are the
    u-derivatives that the adjoint gradient needs.  The dissipativity
    hypothesis (``f(x, 0) = 0`` and ``lipschitz_c < alpha``, checked by
    ``require_h``) makes 0 an exponentially attracting rest point with rate
    alpha - lipschitz_c.

    Two optional declarations, both off by default, tell the scheme what it
    need not evaluate per step: ``sigma_profile(x)`` is sigma for a sigma
    that does not depend on u, and ``f_zero`` says that f is zero.
    ``check_declarations`` holds them to sigma and f.
    """

    f: callable
    sigma: callable
    alpha: float
    lipschitz_c: float
    sigma_min: float
    df_du: callable | None = None
    dsigma_du: callable | None = None
    sigma_profile: callable | None = None
    f_zero: bool = False

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

    def check_declarations(self, grid: Grid) -> np.ndarray | None:
        """The declared sigma profile on ``grid`` (None when there is none); raises
        unless it is a finite (n+1,) field equal to sigma(x, u) at two probe states
        and, when ``f_zero`` is set, f(x, u) is +0.0 at the nonzero probe."""
        x = grid.nodes
        probes = (np.zeros(grid.n + 1), 0.25 + x)
        profile = None
        if self.sigma_profile is not None:
            profile = check_field(grid, self.sigma_profile(x), "sigma_profile")
            if not all(np.array_equal(profile, np.broadcast_to(self.sigma(x, u), profile.shape)) for u in probes):
                raise ValueError("sigma_profile is declared, but sigma(x, u) differs from it")
        if self.f_zero:
            at_probe = np.asarray(self.f(x, probes[1]))
            if np.any(at_probe != 0.0) or np.any(np.signbit(at_probe)):
                raise ValueError("f_zero is declared, but f(x, u) is not +0.0")
        return profile


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
    increments: np.ndarray

    def __post_init__(self) -> None:
        self.dt = check_dt(self.dt)
        self.increments = np.asarray(self.increments, dtype=float)
        shape = self.increments.shape
        if len(shape) != 2 or shape[0] < 1 or shape[1] != self.grid.n + 1:
            raise ValueError(f"noise increments shaped {shape}, expected (steps >= 1, {self.grid.n + 1})")


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


def _check_rows(grid: Grid, dt: float, steps: int, other: Grid, times, rows: np.ndarray, name: str) -> np.ndarray:
    """The control or noise ``rows`` that drive ``steps`` steps of ``dt`` on ``grid``;
    raises unless their grid and mesh match and their first ``steps`` rows are
    finite (min and max carry a NaN or an inf through: no path-sized temporary)."""
    match_grid(grid, other, name)
    match_dt(times, dt, name)
    if rows.shape[0] < steps:
        raise ValueError(f"{name} time mesh has {rows.shape[0]} steps, fewer than the trajectory's {steps}")
    if not (math.isfinite(rows[:steps].min()) and math.isfinite(rows[:steps].max())):
        raise ValueError(f"{name} must be finite: it holds NaN or inf values")
    return rows


def noise_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Stream ``stream`` of ``seed``: an SFC64 generator seeded by
    SeedSequence(entropy=seed, spawn_key=(stream,)), so distinct (seed, stream)
    pairs seed independent streams.  Raises unless both are integers (not
    bools) of at least 0: a fractional seed must not stand in for the integer
    below it, nor True for 1.  SFC64 is the fastest of numpy's bit generators at
    drawing normals, which bound the sampler.  Its standard normals times
    ``increment_scale`` are increments."""
    check_integer(seed, "seed", 0)
    check_integer(stream, "stream", 0)
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy=seed, spawn_key=(stream,))))


def increment_scale(grid: Grid, dt: float) -> float:
    """Standard deviation sqrt(dt*dx) of one white-noise cell increment."""
    return math.sqrt(check_dt(dt) * grid.dx)


def sample_noise(grid: Grid, dt: float, steps: int, seed: int, stream: int = 0) -> NoiseRealization:
    """Reproducible i.i.d. increments; (seed, stream) fully determines them."""
    check_integer(steps, "steps", 1)
    scale = increment_scale(grid, dt)
    draws = noise_generator(seed, stream).normal(0.0, scale, size=(steps, grid.n + 1))
    return NoiseRealization(grid, dt, draws)


@dataclass(eq=False)
class Trajectory:
    """Reflected path together with its lower and upper force densities."""

    u: SpaceTimeField
    eta: LocalTime
    xi: LocalTime


class _Scheme:
    """The semi-implicit scheme on one (coeffs, grid, dt); its arithmetic is written only here.

    A step hands ``Propagator.step`` the explicit half-step state + dt*f(x, state)
    plus at most one term: a drive dt*sig*hdot or a kick (eps*sig/dx)*dW from
    ``kicks``, with sig = sigma(x, state).  A kick pairs as white noise does
    under trapezoid weights at the interior nodes only: at the two end nodes
    it is O(dx) off the W metric of the action.  The propagator is built on
    first use, so ``residual``, the inverse, never builds one; the operator
    that ``residual`` applies is built once too.  The propagator solves a
    single state as one gemv through np.dot, and a batch or stack by
    matmul's gemm per batch.

    A step's state is one (n+1,) field, or with ``batch`` set a batch in
    ``Propagator``'s node-major layout, (..., n+1, batch), whose walls the
    caller expands to (n+1, batch) once.  f and sigma act pointwise, and a
    batch scheme hands them the nodes x as an (n+1, 1) column, so each state
    keeps its bits in either layout.

    The coefficients' declarations are checked once, when the scheme is built.
    With ``sigma_profile`` declared, sig is that profile, evaluated once, so no
    term depends on the state: ``drives`` and ``kicks`` turn a whole block of
    rows into terms, and ``march`` builds all of a path's terms at once, in
    the path's own rows.  Without it ``march`` builds each drive in its own
    loop, dt*sig at the step's state times the control row, and tapes that
    dt*sig.  With ``f_zero`` the explicit half-step is state + 0.0: the add
    stays, because it maps -0.0 to +0.0, and the drive or kick carries it,
    since (s + 0.0) + t equals s + (t + 0.0) bit for bit.  Each value keeps
    the bits that calling f and sigma would give it.
    """

    def __init__(self, coeffs: CoefficientSpec, grid: Grid, dt: float, batch: bool = False):
        self.coeffs, self.grid, self.dt = coeffs, grid, check_dt(dt)
        self.x = grid.nodes[:, None] if batch else grid.nodes
        self.dx, self.f, self.sigma, self.f_zero = grid.dx, coeffs.f, coeffs.sigma, coeffs.f_zero
        self.profile = coeffs.check_declarations(grid)

    @cached_property
    def prop(self) -> Propagator:
        return Propagator(self.grid, self.coeffs.alpha, self.dt)

    @cached_property
    def op(self) -> Operator:
        return neumann_operator(self.grid, self.coeffs.alpha)

    def _sig(self, state):
        return self.sigma(self.x, state) if self.profile is None else self.profile

    def drives(self, hdot, out):
        """The drives dt*sig*hdot of a block of control rows ``hdot`` under the
        declared profile, with the half-step's + 0.0 when f is zero, written
        into ``out``."""
        drive = np.multiply(self.dt * self.profile, hdot, out=out)
        if self.f_zero:
            drive += 0.0
        return drive

    def kicks(self, increments, eps, state=None, out=None):
        """The kicks (eps*sig/dx)*dW of ``increments``, with the half-step's + 0.0 when
        f is zero, written into ``out`` (a new array when it is None).  The factor
        eps*sig/dx is formed first, on the small declared profile or on the
        step's sig, and meets the increments in one multiply.  With the
        declared profile ``increments`` may be a block of any leading shape;
        otherwise sig is evaluated at ``state``, the states the kicks act on,
        laid out as ``increments``.  ``eps`` broadcasts against ``increments``."""
        factor = eps * self._sig(state)
        factor /= self.dx
        kick = factor * increments if out is None else np.multiply(factor, increments, out=out)
        if self.f_zero:
            kick += 0.0
        return kick

    def step(self, state, lo, hi, term=None, penalty=None, out=None, free=None):
        """One step between the walls ``lo`` and ``hi``: the explicit half-step plus
        ``term``, a drive or kick laid out as ``state``, handed to ``Propagator.step``.
        The right-hand side is a new array, so ``term`` may be ``out`` itself."""
        if self.f_zero:
            rhs = state + (0.0 if term is None else term)
        else:
            rhs = state + self.dt * self.f(self.x, state)
            if term is not None:
                rhs += term
        return self.prop.step(rhs, lo, hi, penalty, out, free)

    def march(self, u, walls, hdot=None, increments=None, eps=0.0, penalty=None, free=None, tape=None):
        """Step row 0 of the path ``u`` into its later rows; step k takes row k of
        ``hdot`` or of ``increments`` (a march takes at most one of them) and fills
        row k of ``free``.

        With the declared profile no term depends on its state: one ``drives`` or
        ``kicks`` call writes step k's term into row k + 1 of ``u``, which step k
        reads and then overwrites with its state.  Otherwise each step builds its
        term at its own state and writes the dt*sig of its drive into row k of
        ``tape``.  The caller's ``hdot`` and ``increments`` are only read."""
        steps, step, lo, hi = len(u) - 1, self.step, walls.k1, walls.k2
        free_rows = repeat(None) if free is None else free
        if hdot is None and increments is None:
            terms = repeat(None)
        elif self.profile is not None:
            terms = u[1:]
            if increments is None:
                self.drives(hdot[:steps], terms)
            else:
                self.kicks(increments[:steps], eps, out=terms)
        elif increments is None:
            # The drive at each state, without the term builders' frames: dt*sig
            # goes into the step's row of ``tape`` (one scratch row without a
            # tape), and the drive is that row times the control row.
            dt, x, sigma, f_zero = self.dt, self.x, self.sigma, self.f_zero
            dsig_rows = repeat(np.empty(self.grid.n + 1)) if tape is None else tape
            for state, h, dsig, new, fr in zip(u, hdot, dsig_rows, u[1:], free_rows):
                drive = np.multiply(dt, sigma(x, state), out=dsig) * h
                if f_zero:
                    drive += 0.0
                step(state, lo, hi, drive, penalty, new, fr)
            return
        else:
            for state, inc, new, fr in zip(u, increments, u[1:], free_rows):
                step(state, lo, hi, self.kicks(inc, eps, state), penalty, new, fr)
            return
        for state, term, new, fr in zip(u, terms, u[1:], free_rows):
            step(state, lo, hi, term, penalty, new, fr)

    def trajectory(self, u0, walls, times, **drive) -> Trajectory:
        """March u0 across ``times`` (``drive`` as for ``march``) with its force densities."""
        grid, m = self.grid, len(times) - 1
        u, eta, xi = np.empty((m + 1, grid.n + 1)), np.empty((m, grid.n + 1)), np.empty((m, grid.n + 1))
        u[0] = u0
        self.march(u, walls, free=eta, **drive)
        self.prop.restoring_forces(u[1:], eta, xi)
        return Trajectory(SpaceTimeField(grid, times, u), LocalTime(grid, times, eta), LocalTime(grid, times, xi))

    def linearization(self, states, hdot):
        """A step's derivative in the old state, 1 + dt*df_du + dt*dsigma_du*hdot, at each
        of ``states``.  A declaration drops the term it makes zero: adding that term's
        zeros to a sum that starts at 1.0 changes no bit."""
        x, dt = self.x, self.dt
        factor = np.ones_like(states) if self.f_zero else 1.0 + dt * self.coeffs.df_du(x, states)
        if self.profile is None:
            factor = factor + dt * self.coeffs.dsigma_du(x, states) * hdot
        return factor

    def residual(self, prev, new):
        """sig and the residual (new - prev)/dt - A new - f(x, prev) of steps from
        ``prev`` to ``new``: sig*hdot plus the lower force density minus the upper.
        A declared profile comes back as the (n+1,) sig of every step, and with
        ``f_zero`` no f is subtracted (subtracting +0.0 changes no bit)."""
        residual = (new - prev) / self.dt - self.op.apply(new)
        if not self.f_zero:
            residual -= self.f(self.x, prev)
        return self._sig(prev), residual


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
    hdot = None
    if control is not None:
        hdot = _check_rows(grid, dt, m, control.grid, control.times, control.values, "control")
    penalty = (delta, eps_pen) if mode == "penalized" else None
    return _Scheme(coeffs, grid, dt).trajectory(u0, walls, times, hdot=hdot, penalty=penalty)


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
    increments = None
    if eps_noise > 0.0:
        if noise is None:
            noise = sample_noise(grid, dt, m, seed, stream)
        # Increments start at t = 0, so a realization's mesh is [0, noise.dt, ...].
        mesh = np.array([0.0, noise.dt])
        increments = _check_rows(grid, dt, m, noise.grid, mesh, noise.increments, "noise realization")
    return _Scheme(coeffs, grid, dt).trajectory(u0, walls, times, increments=increments, eps=eps_noise)


def local_time_energy(lt: LocalTime, alpha: float, T: float) -> float:
    """Exponentially discounted square energy of a force density on [0, T].

    Integral of exp(-alpha*(T - t)) * density^2 dx dt, rectangle rule in time
    with the weight at step ends.  Diagnostic: stays of order
    1 + l2_norm_sq(control) uniformly in T for skeleton runs.
    """
    _check_alpha(alpha)
    if not math.isfinite(T):
        raise ValueError(f"T must be finite, got {T}")
    grid = lt.grid
    mask = lt.times[1:] <= T + _step_tolerance(lt.times)
    dts = np.diff(lt.times)[mask]
    weight = np.exp(-alpha * (T - lt.times[1:][mask]))
    sq = (lt.density[mask] ** 2) @ grid.weights
    return float((dts * weight) @ sq)
