"""Minimum-action machinery: control recovery, path rates, quasipotential.

Control recovery inverts the scheme, ``dynamics._Scheme``: its residual r
equals sigma * hdot plus the force densities, so away from the walls
hdot = r / sigma reproduces the generating control of a forward run
exactly.  On contact sets the split is ambiguous; the recovery takes the
pointwise least-squares choice, putting as much of the residual as
admissible into the one-signed force and the rest into the control.
Recovery and the path rates walk the path in row blocks
(``lattice.row_blocks``), node-wise, so they keep the whole-path formulas'
bits without whole-path temporaries.

The quasipotential minimises the control action over a horizon subject to
hitting a target, with the terminal constraint enforced by the method of
multipliers (an augmented Lagrangian at one penalty weight whose multiplier
is updated between L-BFGS rounds), gradients from the discrete adjoint of
the projected scheme (the clip's slope is 1 or 0 at each node), and an
outer horizon-doubling search warm-started by ``shift_concat``, which puts
the incumbent control behind a waiting period at rest (that never changes
its action, so the best value is monotone in the horizon), and by carrying
the terminal multiplier from stage to stage (the wait leaves the terminal
state unchanged, so a stage after the first usually needs one L-BFGS
round).  Each stage leaves a ``StageRecord`` on the result.  The forward
pass tapes dt*sigma along the path, the product that both the drive and the
gradient multiply by, and the reverse sweep takes the scheme's
linearization once on the stored states, so each gradient costs one
coefficient call per derivative rather than one per step.
L-BFGS assumes a Euclidean metric (Liu & Nocedal 1989), so it runs on the
W-half-scaled control y = h / sqrt(dx / w), node-wise 1 inside and sqrt 2 at
the two end nodes.  There the action 0.5*dt*sum(w h^2) is 0.5*dt*dx*|y|^2,
a multiple of the identity, and the solver's curvature pairs go to the
terminal constraint rather than to the factor-2 split of the trapezoid
weights between the end nodes and the interior.

The L-BFGS solver is scipy's, and only the two optimizers need it, so
``minimize`` loads ``scipy.optimize`` on its first call: the path rates,
control recovery, ``import wallspde`` and every simulation never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wallspde.dynamics import CoefficientSpec, Control, _Scheme
from wallspde.lattice import SpaceTimeField, Walls, match_dt, match_grid, mesh_steps, row_blocks
from wallspde.obstacle import LocalTime

__all__ = [
    "RecoveredControl",
    "QuasipotentialResult",
    "StageRecord",
    "OptimizerOptions",
    "recover_control",
    "rate_I",
    "rate_S",
    "quasipotential_J",
    "infinite_horizon_check",
    "shift_concat",
]


# Method of multipliers (see _multipliers).  A weight of 1e3 keeps each
# L-BFGS round well conditioned; the stop gap, terminal_tol/50, is what an
# inner solve capped by maxiter still reaches.  In the free-start
# parametrization round k anchors u0 toward 0 with _ANCHOR_WEIGHT *
# _ANCHOR_RAMP[k] (the last entry from then on): a full anchor from the
# first round makes that round ill conditioned.  L-BFGS keeps
# _LBFGS_PAIRS curvature pairs (scipy's default is 10) and stops a round
# at ftol 1e-14, or at _LOOSE_FTOL in a first round that starts at mu = 0.
_PENALTY_WEIGHT = 1e3
_LBFGS_PAIRS = 20
_LOOSE_FTOL = 1e-10
_GAP_FRACTION = 0.02
_MAX_ROUNDS = 10
_ANCHOR_WEIGHT = 1e4
_ANCHOR_RAMP = (1e-4, 1e-2, 1.0)


def minimize(fun, x0, **kwargs):
    """``scipy.optimize.minimize``, loaded on the first call; a module-level
    name, so a test can put a stand-in solver in its place."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


def contact_tolerance(walls: Walls) -> float:
    scale = max(np.max(np.abs(walls.k1)), np.max(np.abs(walls.k2)))
    return 1e-6 * (1.0 + scale)


@dataclass(eq=False)
class RecoveredControl:
    """Minimal decomposition of a path residual into control and forces."""

    hdot: Control
    eta: LocalTime
    xi: LocalTime

    @property
    def action(self) -> float:
        return self.hdot.action


@dataclass(frozen=True)
class StageRecord:
    """How one horizon stage of ``quasipotential_J`` converged.  ``nit`` and
    ``nfev`` add up the L-BFGS rounds, ``message`` and ``gradient_norm`` (the
    sup norm of the gradient with respect to the control) are the last
    round's, and ``terminal_gap`` is the sup-norm terminal miss of the path
    that ``value`` prices."""

    horizon: float
    rounds: int
    nit: int
    nfev: int
    message: str
    value: float
    gradient_norm: float
    terminal_gap: float


@dataclass(eq=False)
class QuasipotentialResult:
    value: float
    horizon: float
    path: SpaceTimeField
    control: Control
    converged: bool
    gradient_norm: float
    terminal_gap: float
    stages: tuple = ()  # one StageRecord per horizon stage run, in order


@dataclass(frozen=True)
class OptimizerOptions:
    """Horizons must increase strictly, each a whole number (at least one) of
    ``dt`` steps as ``lattice.mesh_steps`` counts them.  ``maxiter`` is a
    whole number, at least one; ``terminal_tol`` is finite and positive and
    ``improvement_tol`` finite and nonnegative."""

    horizons: tuple = (1.0, 2.0, 4.0, 8.0)
    dt: float = 0.02
    maxiter: int = 500
    terminal_tol: float = 5e-3
    improvement_tol: float = 1e-3

    def __post_init__(self):
        if not self.horizons:
            raise ValueError("horizons must not be empty")
        for i, horizon in enumerate(self.horizons):
            if i and not horizon > self.horizons[i - 1]:
                raise ValueError(f"horizons[{i}] = {horizon} must exceed horizons[{i - 1}] = {self.horizons[i - 1]}")
            mesh_steps(horizon, self.dt, f"horizons[{i}]")
        if not (math.isfinite(self.maxiter) and self.maxiter >= 1 and int(self.maxiter) == self.maxiter):
            raise ValueError(f"maxiter must be a whole number, at least 1, got {self.maxiter}")
        if not (math.isfinite(self.terminal_tol) and self.terminal_tol > 0.0):
            raise ValueError(f"terminal_tol must be finite and positive, got {self.terminal_tol}")
        if not (math.isfinite(self.improvement_tol) and self.improvement_tol >= 0.0):
            raise ValueError(f"improvement_tol must be finite and nonnegative, got {self.improvement_tol}")


def _checked_target(z, coeffs: CoefficientSpec, walls: Walls) -> np.ndarray:
    """The optimizers' shared input checks; returns z as a float array."""
    for name in ("df_du", "dsigma_du"):
        if getattr(coeffs, name) is None:
            raise ValueError(f"the adjoint gradient needs coeffs.{name}, which is not set")
    return walls.check(z, "target")


def _admissible(v: SpaceTimeField, walls: Walls, tol: float = 1e-9) -> bool:
    return all(walls.contains(v.values[a:b], tol) for a, b in row_blocks(v.grid, len(v.times)))


def _decompose(v: SpaceTimeField, coeffs: CoefficientSpec, walls: Walls | None, dt: float):
    """Invert ``_Scheme`` one block of steps at a time.

    Yields ``(rows, hdot, eta, xi)`` for the step rows in the slice ``rows``.
    With ``walls`` the least-squares split puts the one-signed part of the
    residual at a contact node into the force and raises unless sigma keeps to
    its positive bound ``coeffs.sigma_min``; with ``walls=None`` the control
    absorbs the whole residual and ``eta``, ``xi`` are None.  Each value is
    computed node-wise, so it equals the full-array formula's bits.
    """
    if walls is not None and coeffs.sigma_min <= 0.0:
        raise ValueError("sigma lower bound must be positive")
    scheme = _Scheme(coeffs, v.grid, dt)
    tol = None if walls is None else contact_tolerance(walls)
    for a, b in row_blocks(v.grid, v.steps):
        new = v.values[a + 1 : b + 1]
        sig, residual = scheme.residual(v.values[a:b], new)
        if walls is not None and np.min(np.abs(sig)) < coeffs.sigma_min * (1.0 - 1e-9):
            raise ValueError("sigma dips below its declared lower bound along the path")
        if walls is None:
            yield slice(a, b), residual / sig, None, None
            continue
        eta = np.where(np.abs(new - walls.k1) <= tol, np.maximum(residual, 0.0), 0.0)
        xi = np.where(np.abs(new - walls.k2) <= tol, np.maximum(-residual, 0.0), 0.0)
        yield slice(a, b), (residual - eta + xi) / sig, eta, xi


def recover_control(
    v: SpaceTimeField, coeffs: CoefficientSpec, walls: Walls, dt: float
) -> RecoveredControl:
    """Invert the forward stencil along an admissible path.

    Conventions match the integrators: diffusion at the new time level,
    reaction and sigma at the old one, contact detected at the new level.
    """
    grid = v.grid
    match_grid(walls.grid, grid, "path")
    match_dt(v.times, dt, "path")
    if not _admissible(v, walls):
        raise ValueError("path leaves the walls: no admissible decomposition")

    hdot, eta, xi = (np.empty((v.steps, grid.n + 1)) for _ in range(3))
    for rows, h, lower, upper in _decompose(v, coeffs, walls, dt):
        hdot[rows], eta[rows], xi[rows] = h, lower, upper

    times = v.times.copy()
    return RecoveredControl(
        hdot=Control(grid, times, hdot),
        eta=LocalTime(grid, times, eta),
        xi=LocalTime(grid, times, xi),
    )


def _action(window: SpaceTimeField, coeffs: CoefficientSpec, walls: Walls | None) -> float:
    """Control.action of the decomposition, with hdot**2 as the only path-sized array."""
    sq = np.empty((window.steps, window.grid.n + 1))
    for rows, hdot, _, _ in _decompose(window, coeffs, walls, window.dt):
        np.square(hdot, out=sq[rows])
    return 0.5 * float(np.diff(window.times) @ (sq @ window.grid.weights))


def rate_I(
    v: SpaceTimeField, t1: float, t2: float, coeffs: CoefficientSpec, walls: Walls
) -> float:
    """Minimal action over [t1, t2]; +inf when the window is inadmissible."""
    match_grid(walls.grid, v.grid, "path")
    window = v.restrict(t1, t2)
    if not _admissible(window, walls):
        return math.inf
    return _action(window, coeffs, walls)


def rate_S(v: SpaceTimeField, t1: float, t2: float, coeffs: CoefficientSpec) -> float:
    """Unreflected variant: the control must absorb the whole residual."""
    return _action(v.restrict(t1, t2), coeffs, None)


def shift_concat(control: Control, T: float) -> Control:
    """Prepend a waiting period of length T (zero control); action invariant."""
    if T == 0.0:
        return Control(control.grid, control.times.copy(), control.values.copy())
    dt = control.dt
    pad = mesh_steps(T, dt, "shift T")
    n1 = control.grid.n + 1
    values = np.vstack([np.zeros((pad, n1)), control.values])
    times = np.concatenate([dt * np.arange(pad), control.times + pad * dt])
    return Control(control.grid, times, values)


# ------------------------------------------------------------ optimizer


class _ActionProblem:
    """Discrete action + augmented Lagrangian of the terminal constraint,
    w_pen*|miss|^2 + <mu, miss> in the trapezoid weights, with adjoint
    gradients; the multiplier row ``mu`` only shifts the adjoint's start.

    Forward map is ``_Scheme.march`` in projected mode, the path that
    ``solve_skeleton`` reports, and a stage prices the states of its own
    forward march (``_score_on_projected``), so the optimizer differentiates
    the path it prices with one scheme and one propagator.  The clip is
    piecewise linear: its slope is 1 at a node whose free (pre-clip) value
    lies in [k1, k2] and 0 where a wall restores it, exact off the
    measure-zero set where a free value sits on a wall.
    ``forward`` returns the states, these 0/1 slopes and the dt*sigma rows
    its drives used (dt times the declared profile, once, when there is
    one), so the gradient's dt*sigma*q is one product; ``value_and_grad``
    takes the scheme's linearization once on the stored states and folds the
    slopes into it, so its reverse loop walks the rows backwards with only a
    transposed solve into the step's row of the adjoint and a scale in place
    per step.  It keeps the last evaluated point and its terminal state, so
    ``terminal`` at that point costs no forward pass.

    ``scaled_value_and_grad`` is the same function of y = z / ``scale``, with
    ``scale`` = sqrt(dx / w) on every row, u0 included: the coordinates in
    which L-BFGS runs, where the action and the u0 anchor w_init*sum(w u0^2)
    weigh every coordinate alike.
    """

    def __init__(self, coeffs, walls, dt, steps, target, free_start=False):
        self.grid = walls.grid
        self.coeffs = coeffs
        self.walls = walls
        self.dt = dt
        self.steps = steps
        self.target = np.asarray(target, dtype=float)
        self.free_start = free_start
        self.weights = self.grid.weights
        self.scheme = _Scheme(coeffs, self.grid, dt)
        self.prop = self.scheme.prop
        self.n1 = self.grid.n + 1
        self.w_pen = 0.0
        self.w_init = 0.0
        self.mu = np.zeros(self.n1)
        self.scale = np.tile(np.sqrt(self.grid.dx / self.weights), steps + free_start)
        self._last = None

    def split(self, z):
        if self.free_start:
            return z[: self.n1], z[self.n1 :].reshape(self.steps, self.n1)
        return np.zeros(self.n1), z.reshape(self.steps, self.n1)

    def forward(self, u0, h):
        states = np.empty((self.steps + 1, self.n1))
        free = np.empty((self.steps, self.n1))
        # A declared sigma profile is every step's sig, so nothing is taped.
        profile = self.scheme.profile
        tape = np.empty((self.steps, self.n1)) if profile is None else None
        states[0] = u0
        self.scheme.march(states, self.walls, hdot=h, free=free, tape=tape)
        slopes = (self.walls.k1 <= free) & (free <= self.walls.k2)
        return states, slopes, self.dt * profile if tape is None else tape

    def terminal(self, z):
        """The path's terminal state for the control z."""
        if self._last is not None and np.array_equal(z, self._last[0]):
            return self._last[1]
        return self.forward(*self.split(z))[0][-1]

    def value_and_grad(self, z):
        u0, h = self.split(z)
        states, slopes, dsig = self.forward(u0, h)
        self._last = (z.copy(), states[-1].copy())
        w, dt = self.weights, self.dt

        miss = states[-1] - self.target
        value = 0.5 * dt * float(np.sum(w * h**2)) + self.w_pen * float(np.sum(w * miss**2))
        value += float(np.sum(w * self.mu * miss))
        if self.free_start:
            value += self.w_init * float(np.sum(w * u0**2))

        # Step k's clip slope multiplies the adjoint that enters step k's
        # transposed solve, so it folds into step k+1's factor (exact: 0 or 1).
        factor = self.scheme.linearization(states[:-1], h)
        factor[1:] *= slopes[:-1]
        lam = slopes[-1] * (2.0 * self.w_pen * w * miss + w * self.mu)
        q = np.empty_like(h)
        solve_transpose, multiply = self.prop.solve_transpose, np.multiply
        for q_row, factor_row in zip(q[::-1], factor[::-1]):
            solve_transpose(lam, q_row)
            multiply(q_row, factor_row, out=lam)
        grad_h = dt * w * h + dsig * q
        if self.free_start:
            grad0 = lam + 2.0 * self.w_init * w * u0
            return value, np.concatenate([grad0, grad_h.ravel()])
        return value, grad_h.ravel()

    def scaled_value_and_grad(self, y):
        """``value_and_grad`` at z = y * scale, with the chain-rule gradient."""
        value, grad = self.value_and_grad(y * self.scale)
        return value, grad * self.scale


def _multipliers(problem, z0, opts):
    """Method of multipliers for the terminal constraint (Hestenes 1969; Powell
    1969): L-BFGS on the augmented Lagrangian at the one weight
    ``_PENALTY_WEIGHT``, then mu += 2*w_pen*miss, until the path ends within
    ``_GAP_FRACTION * terminal_tol`` of the target with the anchor at full
    weight, or ``_MAX_ROUNDS`` rounds have run.  Starts from the problem's
    ``mu`` and leaves there the multiplier of the last round.  A first round
    at mu = 0 only feeds the first multiplier update (Conn, Gould & Toint
    1991 on inexact inner solves), so it stops at ``_LOOSE_FTOL`` and never
    ends the loop.
    L-BFGS sees the control in the problem's scaled coordinates; z0, the
    returned point and the recorded gradient norm are in control coordinates.
    Returns the last point and a dict of the ``StageRecord`` fields that
    describe the loop."""
    problem.w_pen = _PENALTY_WEIGHT
    lbfgs = {"maxiter": opts.maxiter, "gtol": 1e-10, "maxcor": _LBFGS_PAIRS}
    y = z0 / problem.scale
    last = len(_ANCHOR_RAMP) - 1
    nit = nfev = 0
    for k in range(_MAX_ROUNDS):
        problem.w_init = _ANCHOR_WEIGHT * _ANCHOR_RAMP[min(k, last)]
        loose = k == 0 and not np.any(problem.mu)
        lbfgs["ftol"] = _LOOSE_FTOL if loose else 1e-14
        result = minimize(problem.scaled_value_and_grad, y, jac=True, method="L-BFGS-B", options=lbfgs)
        y = result.x
        z = y * problem.scale
        nit, nfev = nit + result.nit, nfev + result.nfev
        miss = problem.terminal(z) - problem.target
        gap = float(np.max(np.abs(miss)))
        ramped = k >= last or not problem.free_start
        if ramped and not loose and gap <= _GAP_FRACTION * opts.terminal_tol:
            break
        problem.mu = problem.mu + 2.0 * problem.w_pen * miss
    return z, {
        "rounds": k + 1,
        "nit": nit,
        "nfev": nfev,
        "message": str(result.message),
        "gradient_norm": float(np.max(np.abs(result.jac / problem.scale))),
    }


def _score_on_projected(problem, z, horizon):
    """The stage tail of both optimizers: march the control z (its start
    clipped onto the walls) with ``problem.forward``, the projected scheme the
    stage optimized, and price those states by recovery, so the reported value
    is an action of an exact decomposition of the path the optimizer marched.
    Returns the path on the uniform mesh of [0, ``horizon``], the recovery and
    the sup-norm terminal gap."""
    u0, rows = problem.split(z)
    states = problem.forward(np.clip(u0, problem.walls.k1, problem.walls.k2), rows)[0]
    path = SpaceTimeField(problem.grid, np.linspace(0.0, horizon, problem.steps + 1), states)
    rec = recover_control(path, problem.coeffs, problem.walls, problem.dt)
    return path, rec, float(np.max(np.abs(states[-1] - problem.target)))


def quasipotential_J(
    z: np.ndarray,
    coeffs: CoefficientSpec,
    walls: Walls,
    opts: OptimizerOptions | None = None,
) -> QuasipotentialResult:
    """Minimal action to move the reflected flow from rest at 0 to z.

    Outer loop doubles the horizon, warm-starting each stage from the
    incumbent control shifted behind a waiting period and from the previous
    stage's terminal multiplier (the wait leaves the terminal state where it
    was, so the multiplier that held it there still fits), and stops once a
    converged stage improves on the previous converged one by less than
    ``improvement_tol`` relatively.  A stage converges when its terminal gap
    is within ``terminal_tol``; the lowest converged value wins, and a stage
    that missed the target wins only when none converged.  Convergence
    trouble is reported in the flag, never raised.
    """
    target = _checked_target(z, coeffs, walls)
    opts = opts or OptimizerOptions()
    grid = walls.grid
    if float(np.max(np.abs(target))) <= opts.terminal_tol:
        times = np.array([0.0, opts.dt])
        return QuasipotentialResult(
            value=0.0,
            horizon=0.0,
            path=SpaceTimeField(grid, times, np.zeros((2, grid.n + 1))),
            control=Control.zero(grid, times),
            converged=True,
            gradient_norm=0.0,
            terminal_gap=float(np.max(np.abs(target))),
        )

    best = prev = None
    stages = []
    mu = np.zeros(grid.n + 1)
    prev_value = math.inf
    for horizon in opts.horizons:
        steps = mesh_steps(horizon, opts.dt)
        problem = _ActionProblem(coeffs, walls, opts.dt, steps, target)
        problem.mu = mu
        if prev is None:
            z0 = np.zeros(steps * problem.n1)
        else:
            z0 = shift_concat(prev, horizon - prev.times[-1]).values.ravel()
        zstar, loop = _multipliers(problem, z0, opts)
        mu = problem.mu
        path, rec, gap = _score_on_projected(problem, zstar, horizon)
        value = rec.action
        stages.append(StageRecord(horizon=horizon, value=value, terminal_gap=gap, **loop))
        candidate = QuasipotentialResult(
            value=value,
            horizon=horizon,
            path=path,
            control=rec.hdot,
            converged=gap <= opts.terminal_tol,
            gradient_norm=loop["gradient_norm"],
            terminal_gap=gap,
        )
        if best is None or candidate.converged > best.converged or (
            candidate.converged == best.converged and value <= best.value + 1e-12
        ):
            best = candidate
        prev = Control(grid, path.times, problem.split(zstar)[1])
        if candidate.converged:
            if prev_value < math.inf:
                improvement = (prev_value - value) / max(abs(prev_value), 1e-30)
                if improvement < opts.improvement_tol:
                    break
            prev_value = value
    best.stages = tuple(stages)
    return best


def infinite_horizon_check(
    z: np.ndarray,
    coeffs: CoefficientSpec,
    walls: Walls,
    opts: OptimizerOptions | None = None,
) -> float:
    """Free-start parametrization of the same minimum: the path starts at an
    optimization variable anchored toward 0 over a long window and must end
    at z.  Returns the achieved action for comparison with quasipotential_J."""
    target = _checked_target(z, coeffs, walls)
    opts = opts or OptimizerOptions()
    horizon = opts.horizons[-1]
    steps = mesh_steps(horizon, opts.dt)
    problem = _ActionProblem(coeffs, walls, opts.dt, steps, target, free_start=True)
    z0 = np.zeros(problem.n1 + steps * problem.n1)
    zstar, _ = _multipliers(problem, z0, opts)
    return _score_on_projected(problem, zstar, horizon)[1].action
