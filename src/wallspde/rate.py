"""Minimum-action machinery: control recovery, path rates, quasipotential.

Control recovery inverts the time-stepping stencil: the discrete residual
r = (u_next - u_prev)/dt - A u_next - f(., u_prev) equals sigma * hdot plus
the force densities, so away from the walls hdot = r / sigma reproduces the
generating control of a forward run exactly.  On contact sets the split is
ambiguous; the recovery takes the pointwise least-squares choice, putting as
much of the residual as admissible into the one-signed force and the rest
into the control.  Recovery and the path rates walk the path in row blocks
(``lattice.row_blocks``), node-wise, so they keep the whole-path formulas'
bits without whole-path temporaries.

The quasipotential minimises the control action over a horizon subject to
hitting a target, with the terminal constraint enforced by the method of
multipliers (an augmented Lagrangian at one penalty weight whose multiplier
is updated between L-BFGS rounds), gradients from the discrete adjoint of
the penalized forward scheme, and an outer horizon-doubling search
warm-started by shifting the incumbent control behind a waiting period
(which never changes its action, so the best value is monotone in the
horizon) and by carrying the terminal multiplier from stage to stage (the
wait leaves the terminal state unchanged, so a stage after the first
usually needs one L-BFGS round).  Each stage leaves a ``StageRecord`` on
the result.  The forward pass tapes sigma along the path and the reverse
sweep evaluates df_du and dsigma_du once on the stored states, so each
gradient costs one coefficient call per derivative rather than one per step.

The L-BFGS solver is scipy's, and only the two optimizers need it, so
``minimize`` loads ``scipy.optimize`` on its first call: the path rates,
control recovery, ``import wallspde`` and every simulation never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wallspde.dynamics import CoefficientSpec, Control, Trajectory, solve_skeleton
from wallspde.lattice import Propagator, SpaceTimeField, Walls, match_dt, mesh_steps, neumann_operator, row_blocks
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
    "glue_path",
    "stability_bound_check",
    "level_set_distance",
]


# Method of multipliers (see _multipliers).  A weight of 1e3 keeps each
# L-BFGS round well conditioned; the stop gap, terminal_tol/50, is what an
# inner solve capped by maxiter still reaches.  In the free-start
# parametrization round k anchors u0 toward 0 with _ANCHOR_WEIGHT *
# _ANCHOR_RAMP[k] (the last entry from then on): a full anchor from the
# first round makes that round ill conditioned.  The forward map is the
# scheme penalized at delta = eps_pen = _PENALTY_DELTA.
_PENALTY_WEIGHT = 1e3
_GAP_FRACTION = 0.02
_MAX_ROUNDS = 10
_ANCHOR_WEIGHT = 1e4
_ANCHOR_RAMP = (1e-4, 1e-2, 1.0)
_PENALTY_DELTA = 1e-4


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
    residual: np.ndarray  # defect r - sigma*hdot - eta + xi, zero where exact

    @property
    def action(self) -> float:
        return self.hdot.action


@dataclass(frozen=True)
class StageRecord:
    """How one horizon stage of ``quasipotential_J`` converged.  ``nit`` and
    ``nfev`` add up the L-BFGS rounds, ``message`` and ``gradient_norm`` are
    the last round's, ``penalized_gap`` is the sup-norm terminal miss of the
    penalized path and ``terminal_gap`` that of the projected path that
    ``value`` prices."""

    horizon: float
    rounds: int
    nit: int
    nfev: int
    message: str
    value: float
    gradient_norm: float
    penalized_gap: float
    terminal_gap: float


@dataclass(eq=False)
class QuasipotentialResult:
    value: float
    horizon: float
    path: SpaceTimeField
    control: Control
    target: np.ndarray
    converged: bool
    gradient_norm: float
    terminal_gap: float
    stages: tuple = ()  # one StageRecord per horizon stage run, in order


@dataclass(frozen=True)
class OptimizerOptions:
    """Horizons must increase strictly, each a whole number (at least one) of
    ``dt`` steps as ``lattice.mesh_steps`` counts them."""

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


def _checked_target(z, coeffs: CoefficientSpec, walls: Walls) -> np.ndarray:
    """The optimizers' shared input checks; returns z as a float array."""
    for name in ("df_du", "dsigma_du"):
        if getattr(coeffs, name) is None:
            raise ValueError(f"the adjoint gradient needs coeffs.{name}, which is not set")
    return walls.check(z, "target")


def _admissible(v: SpaceTimeField, walls: Walls, tol: float = 1e-9) -> bool:
    return all(walls.contains(v.values[a:b], tol) for a, b in row_blocks(v.grid, len(v.times)))


def _decompose(v: SpaceTimeField, coeffs: CoefficientSpec, walls: Walls | None, dt: float):
    """Invert the forward stencil one block of steps at a time.

    Yields ``(steps, sig, residual, hdot, eta, xi)`` for the step rows in the
    slice ``steps``.  With ``walls`` the least-squares split puts the one-signed
    part of the residual at a contact node into the force and raises unless
    sigma keeps to its positive bound ``coeffs.sigma_min``; with ``walls=None``
    the control absorbs the whole residual and ``eta``, ``xi`` are None.  Each
    value is computed node-wise, so it equals the full-array formula's bits.
    """
    if walls is not None and coeffs.sigma_min <= 0.0:
        raise ValueError("sigma lower bound must be positive")
    grid = v.grid
    x = grid.nodes
    op = neumann_operator(grid, coeffs.alpha)
    tol = None if walls is None else contact_tolerance(walls)
    for a, b in row_blocks(grid, v.steps):
        prev, new = v.values[a:b], v.values[a + 1 : b + 1]
        sig = coeffs.sigma(x, prev)
        if walls is not None and np.min(np.abs(sig)) < coeffs.sigma_min * (1.0 - 1e-9):
            raise ValueError("sigma dips below its declared lower bound along the path")
        residual = (new - prev) / dt - op.apply(new) - coeffs.f(x, prev)
        if walls is None:
            yield slice(a, b), sig, residual, residual / sig, None, None
            continue
        eta = np.where(np.abs(new - walls.k1) <= tol, np.maximum(residual, 0.0), 0.0)
        xi = np.where(np.abs(new - walls.k2) <= tol, np.maximum(-residual, 0.0), 0.0)
        yield slice(a, b), sig, residual, (residual - eta + xi) / sig, eta, xi


def recover_control(
    v: SpaceTimeField, coeffs: CoefficientSpec, walls: Walls, dt: float
) -> RecoveredControl:
    """Invert the forward stencil along an admissible path.

    Conventions match the integrators: diffusion at the new time level,
    reaction and sigma at the old one, contact detected at the new level.
    """
    grid = v.grid
    match_dt(v.times, dt, "path")
    if not _admissible(v, walls):
        raise ValueError("path leaves the walls: no admissible decomposition")

    hdot, eta, xi, defect = (np.empty((v.steps, grid.n + 1)) for _ in range(4))
    for rows, sig, residual, h, lower, upper in _decompose(v, coeffs, walls, dt):
        hdot[rows], eta[rows], xi[rows] = h, lower, upper
        defect[rows] = residual - sig * h - lower + upper

    times = v.times.copy()
    return RecoveredControl(
        hdot=Control(grid, times, hdot),
        eta=LocalTime(grid, times, eta),
        xi=LocalTime(grid, times, xi),
        residual=defect,
    )


def _action(window: SpaceTimeField, coeffs: CoefficientSpec, walls: Walls | None) -> float:
    """Control.action of the decomposition, with hdot**2 as the only path-sized array."""
    sq = np.empty((window.steps, window.grid.n + 1))
    for rows, _, _, hdot, _, _ in _decompose(window, coeffs, walls, window.dt):
        np.square(hdot, out=sq[rows])
    return 0.5 * float(np.diff(window.times) @ (sq @ window.grid.weights))


def rate_I(
    v: SpaceTimeField, t1: float, t2: float, coeffs: CoefficientSpec, walls: Walls
) -> float:
    """Minimal action over [t1, t2]; +inf when the window is inadmissible."""
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


def glue_path(u0_flow: Trajectory, tail: Trajectory) -> SpaceTimeField:
    """Concatenate a relaxation segment with a controlled tail started at its
    terminal state; the duplicate junction row is dropped after checking it."""
    head, back = u0_flow.u, tail.u
    if head.grid.n != back.grid.n:
        raise ValueError("mesh mismatch: grids differ")
    match_dt(back.times, head.dt, "tail path")
    jump = float(np.max(np.abs(head.final - back.initial)))
    if jump > 1e-10:
        raise ValueError(f"glued segments disagree at the junction (jump={jump:.3e})")
    times = np.concatenate([head.times, head.times[-1] + back.times[1:]])
    values = np.vstack([head.values, back.values[1:]])
    return SpaceTimeField(head.grid, times, values)


# ------------------------------------------------------------ optimizer


class _ActionProblem:
    """Discrete action + augmented Lagrangian of the terminal constraint,
    w_pen*|miss|^2 + <mu, miss> in the trapezoid weights, with adjoint
    gradients; the multiplier row ``mu`` only shifts the adjoint's start.

    Forward map is the penalized semi-implicit scheme, smooth in the control
    except on the measure-zero kink set of the clip surrogate, so quasi-Newton
    steps see exact gradients wherever the walls are inactive.  ``forward``
    returns the states, the penalty slopes and the sigma rows it used;
    ``value_and_grad`` evaluates the coefficient derivatives once on the
    stored states, so its reverse loop is only a transposed solve and a scale
    per step.  It keeps the last evaluated point and its terminal state, so
    ``terminal`` at that point costs no forward pass.
    """

    def __init__(self, coeffs, walls, dt, steps, target, delta, free_start=False):
        self.grid = walls.grid
        self.coeffs = coeffs
        self.walls = walls
        self.dt = dt
        self.steps = steps
        self.target = np.asarray(target, dtype=float)
        self.delta = delta
        self.free_start = free_start
        self.weights = self.grid.weights
        self.prop = Propagator(self.grid, coeffs.alpha, dt)
        self.n1 = self.grid.n + 1
        self.w_pen = 0.0
        self.w_init = 0.0
        self.mu = np.zeros(self.n1)
        self._last = None

    def split(self, z):
        if self.free_start:
            return z[: self.n1], z[self.n1 :].reshape(self.steps, self.n1)
        return np.zeros(self.n1), z.reshape(self.steps, self.n1)

    def forward(self, u0, h):
        x = self.grid.nodes
        dt = self.dt
        penalty = (self.delta, self.delta)
        states = np.empty((self.steps + 1, self.n1))
        sig = np.empty((self.steps, self.n1))
        active = np.empty((self.steps, self.n1), dtype=bool)
        states[0] = u0
        for k in range(self.steps):
            u = states[k]
            sig[k] = self.coeffs.sigma(x, u)
            a = u + dt * self.coeffs.f(x, u) + dt * sig[k] * h[k]
            _, active[k] = self.prop.step(
                a, self.walls.k1, self.walls.k2, penalty=penalty, out=states[k + 1]
            )
        slopes = np.where(active, 1.0 / (1.0 + dt / self.delta), 1.0)
        return states, slopes, sig

    def terminal(self, z):
        """The penalized path's terminal state for the control z."""
        if self._last is not None and np.array_equal(z, self._last[0]):
            return self._last[1]
        return self.forward(*self.split(z))[0][-1]

    def value_and_grad(self, z):
        u0, h = self.split(z)
        states, slopes, sig = self.forward(u0, h)
        self._last = (z.copy(), states[-1].copy())
        x, u = self.grid.nodes, states[:-1]
        w, dt = self.weights, self.dt

        miss = states[-1] - self.target
        value = 0.5 * dt * float(np.sum(w * h**2)) + self.w_pen * float(np.sum(w * miss**2))
        value += float(np.sum(w * self.mu * miss))
        if self.free_start:
            value += self.w_init * float(np.sum(w * u0**2))

        factor = 1.0 + dt * self.coeffs.df_du(x, u) + dt * self.coeffs.dsigma_du(x, u) * h
        lam = 2.0 * self.w_pen * w * miss + w * self.mu
        q = np.empty_like(h)
        for k in range(self.steps - 1, -1, -1):
            q[k] = self.prop.solve_transpose(slopes[k] * lam)
            lam = q[k] * factor[k]
        grad_h = dt * w * h + dt * sig * q
        if self.free_start:
            grad0 = lam + 2.0 * self.w_init * w * u0
            return value, np.concatenate([grad0, grad_h.ravel()])
        return value, grad_h.ravel()


def _multipliers(problem, z0, opts):
    """Method of multipliers for the terminal constraint (Hestenes 1969; Powell
    1969): L-BFGS on the augmented Lagrangian at the one weight
    ``_PENALTY_WEIGHT``, then mu += 2*w_pen*miss, until the penalized path ends
    within ``_GAP_FRACTION * terminal_tol`` of the target with the anchor at
    full weight, or ``_MAX_ROUNDS`` rounds have run.  Starts from the
    problem's ``mu`` and leaves there the multiplier of the last round.
    Returns the last point and a dict of the ``StageRecord`` fields that
    describe the loop."""
    problem.w_pen = _PENALTY_WEIGHT
    lbfgs = {"maxiter": opts.maxiter, "ftol": 1e-14, "gtol": 1e-10}
    z = z0
    last = len(_ANCHOR_RAMP) - 1
    nit = nfev = 0
    for k in range(_MAX_ROUNDS):
        problem.w_init = _ANCHOR_WEIGHT * _ANCHOR_RAMP[min(k, last)]
        result = minimize(problem.value_and_grad, z, jac=True, method="L-BFGS-B", options=lbfgs)
        z = result.x
        nit, nfev = nit + result.nit, nfev + result.nfev
        miss = problem.terminal(z) - problem.target
        gap = float(np.max(np.abs(miss)))
        ramped = k >= last or not problem.free_start
        if ramped and gap <= _GAP_FRACTION * opts.terminal_tol:
            break
        problem.mu = problem.mu + 2.0 * problem.w_pen * miss
    return z, {
        "rounds": k + 1,
        "nit": nit,
        "nfev": nfev,
        "message": str(result.message),
        "gradient_norm": float(np.max(np.abs(result.jac))),
        "penalized_gap": gap,
    }


def _score_on_projected(hdot_rows, times, coeffs, walls, target, start):
    """Re-run the converged control through the projected scheme and price it
    by recovery, so the reported value is an action of an exact decomposition."""
    control = Control(walls.grid, times.copy(), hdot_rows.copy())
    dt = control.dt
    traj = solve_skeleton(start, control, coeffs, walls, times[-1] - times[0], dt)
    rec = recover_control(traj.u, coeffs, walls, dt)
    gap = float(np.max(np.abs(traj.u.final - target)))
    return traj, rec, gap


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
            target=target,
            converged=True,
            gradient_norm=0.0,
            terminal_gap=float(np.max(np.abs(target))),
        )

    best = None
    stages = []
    prev_rows = np.zeros((0, grid.n + 1))
    mu = np.zeros(grid.n + 1)
    prev_value = math.inf
    for horizon in opts.horizons:
        steps = mesh_steps(horizon, opts.dt)
        problem = _ActionProblem(coeffs, walls, opts.dt, steps, target, _PENALTY_DELTA)
        problem.mu = mu
        pad = steps - prev_rows.shape[0]
        z0 = np.vstack([np.zeros((pad, problem.n1)), prev_rows]).ravel()
        zstar, loop = _multipliers(problem, z0, opts)
        mu = problem.mu
        rows = zstar.reshape(steps, problem.n1)
        times = np.linspace(0.0, horizon, steps + 1)
        traj, rec, gap = _score_on_projected(
            rows, times, coeffs, walls, target, np.zeros(problem.n1)
        )
        value = rec.action
        stages.append(StageRecord(horizon=horizon, value=value, terminal_gap=gap, **loop))
        candidate = QuasipotentialResult(
            value=value,
            horizon=horizon,
            path=traj.u,
            control=rec.hdot,
            target=target,
            converged=gap <= opts.terminal_tol,
            gradient_norm=loop["gradient_norm"],
            terminal_gap=gap,
        )
        if best is None or candidate.converged > best.converged or (
            candidate.converged == best.converged and value <= best.value + 1e-12
        ):
            best = candidate
        prev_rows = rows
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
    problem = _ActionProblem(coeffs, walls, opts.dt, steps, target, _PENALTY_DELTA, free_start=True)
    z0 = np.zeros(problem.n1 + steps * problem.n1)
    zstar, _ = _multipliers(problem, z0, opts)
    u0, rows = problem.split(zstar)
    start = np.clip(u0, walls.k1, walls.k2)
    times = np.linspace(0.0, horizon, steps + 1)
    _, rec, _ = _score_on_projected(rows, times, coeffs, walls, target, start)
    return rec.action


def stability_bound_check(
    z: np.ndarray,
    T: float,
    T0: float,
    hbar: Control,
    coeffs: CoefficientSpec,
    walls: Walls,
) -> tuple[float, float]:
    """Gap between the controlled path from rest and the same control started
    from the T-relaxed state of z, relative to that state's size.

    The ratio stays bounded as T grows because the controlled flow is
    Lipschitz in its initial condition on finite windows.
    """
    from wallspde.dynamics import solve_deterministic

    dt = hbar.dt
    flow = solve_deterministic(np.asarray(z, dtype=float), coeffs, walls, T, dt)
    psi = solve_skeleton(np.zeros(walls.grid.n + 1), hbar, coeffs, walls, T0, dt)
    psibar = solve_skeleton(flow.u.final, hbar, coeffs, walls, T0, dt)
    f_value = float(np.max(np.abs(psi.u.values - psibar.u.values)))
    denom = float(np.max(np.abs(flow.u.final)))
    ratio = f_value / denom if denom > 0.0 else 0.0
    return f_value, ratio


def level_set_distance(z: np.ndarray, s: float, catalog: list[QuasipotentialResult]) -> float:
    """Upper estimate of the sup-norm distance from z to the level set of
    height s, using the evaluated targets as witnesses."""
    if not catalog:
        raise ValueError("empty catalog")
    z = np.asarray(z, dtype=float)
    dists = [
        float(np.max(np.abs(z - entry.target)))
        for entry in catalog
        if entry.value <= s + 1e-12
    ]
    if not dists:
        return math.inf
    return min(dists)
