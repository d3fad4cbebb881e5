"""Uniform lattice on [0, 1] with Neumann ends and the shifted heat operator.

All spatial integrals use trapezoid weights.  The second-difference operator
mirrors a ghost node across each boundary, which keeps it self-adjoint for
the trapezoid inner product and makes the discrete cosine modes exact
eigenvectors.  The semigroup kernel is assembled from that eigenbasis, so
kernel composition and row mass are identities up to round-off rather than
discretization errors.  ``Propagator`` holds the implicit step and the wall
restoration that every solver steps with.  The step has two paths chosen by
``grid.n`` alone: below ``TRIDIAGONAL_MIN_N`` a dense inverse, whose matvec is
the cheapest solve on coarse grids; at or above it one banded LU solve with
the tridiagonal system factored once, O(n) per step with no (n+1)^2 array.
Only that banded branch needs scipy, so ``Propagator`` imports LAPACK's
``gttrf``/``gttrs`` there, when a grid that fine is first built: loading
``scipy.linalg`` takes longer than a coarse-grid run's whole set-up, and
``import wallspde`` and every coarse-grid run would otherwise pay for it.

The time mesh lives here too.  ``check_dt`` accepts a step and ``mesh_steps``
a horizon.  ``check_times`` validates the times of every path, control and
force density.  ``uniform_step`` gives the step of a uniform mesh, and
``match_dt`` checks that step against a solver's ``dt``.  Steps are compared
to within 1e-12 * (1 + max|t|), which grows with the mesh because a level's
round-off grows with its time.  Every field a solver starts from or aims
at passes ``Walls.check``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "Walls",
    "Operator",
    "SpaceTimeField",
    "build_grid",
    "neumann_operator",
    "heat_kernel",
    "backward_euler_inverse",
    "Propagator",
    "cosine_eigensystem",
    "holder_norm",
]

# Grids with at least this many intervals take the factored tridiagonal solve.
# Dense matvec against LAPACK gttrs, one CPU of a 2-core Xeon: a single state
# 71 against 11 us at n=512 and 386 against 21 us at n=1024; a 16-row batch at
# n=32 4.2 against 8.9 us, where one BLAS product beats 16 column solves.
# Below the threshold the dense path also keeps coarse-grid outputs' bits.
TRIDIAGONAL_MIN_N = 512

# Path-wide reductions (the rate functionals, the complementarity integrals)
# walk a path in row blocks of about this many values, so their temporaries
# stay near 0.5 MiB each however fine the grid or long the path.
BLOCK_VALUES = 2**16


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [0, 1] into ``n`` intervals (``n + 1`` nodes)."""

    n: int

    def __post_init__(self) -> None:
        if int(self.n) != self.n or self.n < 4:
            raise ValueError(f"grid too coarse: need n >= 4, got n={self.n}")

    @property
    def dx(self) -> float:
        return 1.0 / self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n + 1)

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoid quadrature weights; they sum to 1 exactly."""
        w = np.full(self.n + 1, self.dx)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def integrate(self, values: np.ndarray) -> np.ndarray | float:
        """Trapezoid integral over x along the last axis."""
        return np.asarray(values) @ self.weights

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.sum(self.weights * u * v))


def build_grid(n: int) -> Grid:
    return Grid(n)


def check_dt(dt: float) -> float:
    """The step size as a float; raises unless it is finite and positive."""
    dt = float(dt)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    return dt


def mesh_steps(horizon: float, dt: float, name: str = "horizon") -> int:
    """The ``dt`` steps in ``horizon``: a whole number, at least one, to within
    1e-9 relative, whose mesh ``linspace(0, horizon, steps + 1)`` has a step
    that ``match_dt`` accepts as ``dt``."""
    steps = horizon / check_dt(dt)
    if not (math.isfinite(steps) and round(steps) >= 1 and abs(steps - round(steps)) <= 1e-9 * steps):
        raise ValueError(f"{name} = {horizon} is not a whole number, at least one, of dt = {dt} mesh steps")
    steps = round(steps)
    if not abs(horizon / steps - dt) <= _step_tolerance(horizon):
        raise ValueError(f"{name} = {horizon} makes a mesh step {horizon / steps} that does not match dt = {dt}")
    return steps


def check_times(times) -> np.ndarray:
    """The times as a float array; raises unless they are one-dimensional,
    at least two levels, finite and strictly increasing."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 2:
        raise ValueError("need at least two time levels")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be strictly increasing")
    return times


def _step_tolerance(times) -> float:
    """Step tolerance for a mesh of ``times``, or of a mesh from 0 to a horizon."""
    return 1e-12 * (1.0 + float(np.max(np.abs(times))))


def uniform_step(times: np.ndarray) -> float:
    """The step ``times[1] - times[0]`` of checked times; raises unless every
    step equals it to within 1e-12 * (1 + max|t|)."""
    diffs = np.diff(times)
    dt = float(diffs[0])
    if np.max(np.abs(diffs - dt)) > _step_tolerance(times):
        raise ValueError("time mesh is not uniform")
    return dt


def match_dt(times: np.ndarray, dt: float, name: str) -> float:
    """The uniform step of ``name``'s checked times; raises unless it equals
    the solver's ``dt`` to within the tolerance of ``uniform_step``."""
    try:
        step = uniform_step(times)
    except ValueError as err:
        raise ValueError(f"{name} {err}") from None
    if not abs(step - dt) <= _step_tolerance(times):
        raise ValueError(f"dt={dt} does not match the {name} time mesh (dt={step})")
    return step


def row_blocks(grid: Grid, rows: int) -> list[tuple[int, int]]:
    """(start, stop) ranges covering ``rows`` rows of (n+1) values in blocks of
    about ``BLOCK_VALUES`` values, for path-wide reductions."""
    size = max(1, BLOCK_VALUES // (grid.n + 1))
    return [(k, min(k + size, rows)) for k in range(0, rows, size)]


@dataclass(frozen=True, eq=False)
class Walls:
    """Lower/upper wall profiles with K1 < 0 < K2 node-wise."""

    grid: Grid
    k1: np.ndarray
    k2: np.ndarray
    d2k1: np.ndarray
    d2k2: np.ndarray

    def __post_init__(self) -> None:
        npts = self.grid.n + 1
        for name, arr in (("k1", self.k1), ("k2", self.k2)):
            if arr.shape != (npts,):
                raise ValueError(f"walls profile {name} has shape {arr.shape}, expected ({npts},)")
        if not np.all(self.k1 < 0.0):
            raise ValueError("lower wall must be negative everywhere (K1 < 0)")
        if not np.all(self.k2 > 0.0):
            raise ValueError("upper wall must be positive everywhere (K2 > 0)")
        if np.min(self.k2 - self.k1) <= 0.0:
            raise ValueError("walls must be separated (min gap > 0)")

    @property
    def gap(self) -> float:
        return float(np.min(self.k2 - self.k1))

    def contains(self, values: np.ndarray, tol: float = 0.0) -> bool:
        return bool(np.all(values >= self.k1 - tol) and np.all(values <= self.k2 + tol))

    def check(self, values, name: str) -> np.ndarray:
        """``values`` as floats; raises unless it is a finite (n+1,) field between the walls to 1e-12."""
        values = np.asarray(values, dtype=float)
        npts = self.grid.n + 1
        if values.shape != (npts,) or not np.isfinite(values).all():
            got = f"shape {values.shape}" if values.shape != (npts,) else "non-finite values"
            raise ValueError(f"{name} must be a finite field of shape ({npts},), got {got}")
        if not self.contains(values, tol=1e-12):
            raise ValueError(f"{name} is inadmissible: it must lie between the walls")
        return values

    @classmethod
    def constant(cls, grid: Grid, k1: float, k2: float) -> "Walls":
        npts = grid.n + 1
        return cls(
            grid,
            np.full(npts, float(k1)),
            np.full(npts, float(k2)),
            np.zeros(npts),
            np.zeros(npts),
        )

    @classmethod
    def from_profiles(cls, grid: Grid, k1: np.ndarray, k2: np.ndarray) -> "Walls":
        k1 = np.asarray(k1, dtype=float)
        k2 = np.asarray(k2, dtype=float)
        return cls(grid, k1, k2, _mirrored_laplacian(grid, k1), _mirrored_laplacian(grid, k2))


def _mirrored_laplacian(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Second difference with ghost nodes mirrored across both ends."""
    inv2 = 1.0 / grid.dx**2
    out = np.empty_like(values, dtype=float)
    out[..., 1:-1] = (values[..., :-2] - 2.0 * values[..., 1:-1] + values[..., 2:]) * inv2
    out[..., 0] = 2.0 * (values[..., 1] - values[..., 0]) * inv2
    out[..., -1] = 2.0 * (values[..., -2] - values[..., -1]) * inv2
    return out


@dataclass(frozen=True, eq=False)
class Operator:
    """Tridiagonal A = (d^2/dx^2) - alpha*I with mirrored-ghost Neumann rows.

    Self-adjoint for the trapezoid inner product; constants are eigenvectors
    with eigenvalue -alpha, and every row sums to -alpha.
    """

    grid: Grid
    alpha: float
    lower: np.ndarray
    main: np.ndarray
    upper: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        """A acting on fields shaped (..., n+1)."""
        values = np.asarray(values, dtype=float)
        return _mirrored_laplacian(self.grid, values) - self.alpha * values

    def dense(self) -> np.ndarray:
        n1 = self.grid.n + 1
        mat = np.zeros((n1, n1))
        idx = np.arange(n1)
        mat[idx, idx] = self.main
        mat[idx[1:], idx[:-1]] = self.lower
        mat[idx[:-1], idx[1:]] = self.upper
        return mat


def _check_alpha(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise ValueError(f"alpha must be finite and nonnegative, got {alpha}")


def neumann_operator(grid: Grid, alpha: float) -> Operator:
    """Build the shifted Neumann Laplacian.  Rejects alpha that is negative or not finite."""
    _check_alpha(alpha)
    n1 = grid.n + 1
    inv2 = 1.0 / grid.dx**2
    main = np.full(n1, -2.0 * inv2 - alpha)
    lower = np.full(n1 - 1, inv2)
    upper = np.full(n1 - 1, inv2)
    upper[0] = 2.0 * inv2
    lower[-1] = 2.0 * inv2
    return Operator(grid, float(alpha), lower, main, upper)


def cosine_eigensystem(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the mirrored-ghost Laplacian (alpha = 0).

    Returns (lam, basis) where basis column k is cos(k*pi*x) normalised to
    unit trapezoid norm and lam[k] = -4 sin^2(k*pi*dx/2) / dx^2.  These are
    exact eigenvectors of the discrete operator, orthonormal for the
    trapezoid inner product.
    """
    basis = np.cos(np.pi * np.outer(grid.nodes, np.arange(grid.n + 1)))
    basis /= np.sqrt(grid.weights @ basis**2)
    k = np.arange(grid.n + 1)
    return -4.0 * np.sin(0.5 * np.pi * k / grid.n) ** 2 / grid.dx**2, basis


def heat_kernel(grid: Grid, alpha: float, t: float) -> np.ndarray:
    """Dense kernel of exp(t*A), to be applied with trapezoid weights.

    (G_t u)(x_i) = sum_j w_j G[i, j] u_j.  Rows integrate to exp(-alpha*t)
    exactly and composition under trapezoid weights reproduces G_{t+s} up to
    round-off because the kernel is an exact eigen-expansion of the discrete
    operator.
    """
    _check_alpha(alpha)
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"kernel time must be finite and positive, got {t}")
    lam, basis = cosine_eigensystem(grid)
    decay = np.exp((lam - alpha) * t)
    return (basis * decay) @ basis.T


def backward_euler_inverse(grid: Grid, alpha: float, dt: float) -> np.ndarray:
    """Dense inverse of (I - dt*A), the implicit-step propagator.

    The matrix is a strictly diagonally dominant M-matrix, so the inverse is
    entrywise nonnegative with row sums 1 / (1 + alpha*dt).  ``Propagator``
    steps with it below ``TRIDIAGONAL_MIN_N`` intervals, where its matvec is
    cheap; it costs O(n^2) memory and an O(n^3) build, so finer grids take
    the factored tridiagonal path instead.
    """
    dt = check_dt(dt)
    op = neumann_operator(grid, alpha)
    n1 = grid.n + 1
    return np.linalg.inv(np.eye(n1) - dt * op.dense())


class Propagator:
    """Implicit heat step followed by restoring the walls, for one (grid, alpha, dt).

    The obstacle problem, the integrators, the adjoint optimizer and the
    sampler all step with it.  States are shaped (n+1,) or (batch, n+1),
    or for the sampler a stack of batches (levels, batch, n+1).
    Below ``TRIDIAGONAL_MIN_N`` intervals the solve multiplies by the dense
    ``backward_euler_inverse``.  From ``TRIDIAGONAL_MIN_N`` on, the
    tridiagonal I - dt*A is LU-factored once (LAPACK gttrf) and each solve,
    plain or transposed, is one gttrs call; only the five factor arrays,
    5(n+1) numbers, are stored.  The two paths agree to round-off.
    """

    def __init__(self, grid: Grid, alpha: float, dt: float):
        self.grid = grid
        self.alpha = float(alpha)
        self.dt = check_dt(dt)
        if grid.n < TRIDIAGONAL_MIN_N:
            self.matrix = backward_euler_inverse(grid, alpha, dt)
        else:
            from scipy.linalg.lapack import dgttrf, dgttrs

            self.matrix = None
            self._gttrs = dgttrs
            op = neumann_operator(grid, alpha)
            *factors, info = dgttrf(-self.dt * op.lower, 1.0 - self.dt * op.main, -self.dt * op.upper)
            if info != 0:
                raise ValueError(f"implicit-step matrix is singular (gttrf info={info})")
            self._factors = factors

    @cached_property
    def _matrix_t(self) -> np.ndarray:
        return np.ascontiguousarray(self.matrix.T)

    def _banded(self, values: np.ndarray, trans: str) -> np.ndarray:
        # gttrs solves for the columns of a column-major b, which a C-ordered
        # batch's transpose already is: no reordering copy.  Each column is
        # solved on its own, so a stack flattened into one batch keeps its bits.
        if values.ndim == 1:
            return self._gttrs(*self._factors, values, trans=trans)[0]
        rows = values.reshape(-1, values.shape[-1])
        return self._gttrs(*self._factors, rows.T, trans=trans)[0].T.reshape(values.shape)

    def solve(self, values: np.ndarray) -> np.ndarray:
        """(I - dt*A)^{-1} applied to a state or to each row of a batch.

        ``values`` is shaped (n+1,), (batch, n+1) or a stack of batches
        (..., batch, n+1).  Every row comes out with the same bits as when
        its batch is solved alone.
        """
        if self.matrix is None:
            return self._banded(values, "N")
        if values.ndim == 1:
            return self.matrix @ values
        # BLAS rounds the product with a node-major copy like an (n+1, batch)
        # product; multiplying the rows directly changes the last bits.  A
        # stack is one matmul that runs one (n+1, batch) product per batch:
        # gemm rounding depends on the column count and offset, so folding the
        # stack into one wide product would not keep the bits.
        return (self.matrix @ np.ascontiguousarray(values.swapaxes(-1, -2))).swapaxes(-1, -2)

    def solve_transpose(self, values: np.ndarray) -> np.ndarray:
        """Transposed solve of a single state, for adjoint sweeps."""
        if self.matrix is None:
            return self._banded(values, "T")
        return self._matrix_t @ values

    def step(
        self,
        rhs: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        penalty: tuple[float, float] | None = None,
        out: np.ndarray | None = None,
        forces: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Solve for ``rhs``, then restore the band [lo, hi] given as (n+1,) profiles.

        Without ``penalty`` the free value is clipped onto the band by the
        max/min ufuncs (np.clip's bits and NaN, less overhead).  With
        ``penalty = (delta, eps_pen)`` the stiff terms (u - lo)^- / delta and
        (u - hi)^+ / eps_pen are integrated implicitly per node in closed form,
        written only where a wall is crossed; each wall's closed form is
        computed only when some node crosses it.  ``forces = (lower, upper)``
        receive the restoring correction over dt, split into its two
        nonnegative parts.  Returns the new state and, in penalty mode, the
        mask of nodes where the penalty acted.
        """
        y = self.solve(rhs)
        if penalty is None:
            out, active = np.minimum(np.maximum(y, lo, out=out), hi, out=out), None
        else:
            r1, r2 = self.dt / penalty[0], self.dt / penalty[1]
            out = np.empty_like(y) if out is None else out
            out[...] = y
            below, above = y < lo, y > hi
            if np.count_nonzero(below):
                np.copyto(out, (y + r1 * lo) / (1.0 + r1), where=below)
            if np.count_nonzero(above):
                np.copyto(out, (y + r2 * hi) / (1.0 + r2), where=above)
            active = below | above
        if forces is not None:
            corr = (out - y) / self.dt
            np.maximum(corr, 0.0, out=forces[0])
            np.maximum(-corr, 0.0, out=forces[1])
        return out, active


def holder_norm(grid: Grid, values: np.ndarray, gamma: float) -> float:
    """Sup norm plus the gamma-Holder difference quotient over node pairs."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"holder exponent must lie in (0, 1), got {gamma}")
    v = np.asarray(values, dtype=float)
    x = grid.nodes
    diff = np.abs(v[:, None] - v[None, :])
    dist = np.abs(x[:, None] - x[None, :])
    iu = np.triu_indices(len(x), k=1)
    quot = diff[iu] / dist[iu] ** gamma
    return float(np.max(np.abs(v)) + np.max(quot))


@dataclass(eq=False)
class SpaceTimeField:
    """State path u(x, t) sampled on grid nodes at strictly increasing times."""

    grid: Grid
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.times = check_times(self.times)
        self.values = np.asarray(self.values, dtype=float)
        expected = (len(self.times), self.grid.n + 1)
        if self.values.shape != expected:
            raise ValueError(f"field values shaped {self.values.shape}, expected {expected}")

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    @property
    def dt(self) -> float:
        """Uniform step size; raises when the mesh is not uniform."""
        return uniform_step(self.times)

    @property
    def initial(self) -> np.ndarray:
        return self.values[0]

    @property
    def final(self) -> np.ndarray:
        return self.values[-1]

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def index_of(self, t: float) -> int:
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[k] - t) > 1e-9 * (1.0 + abs(t)):
            raise ValueError(f"time {t} is not on the mesh")
        return k

    def restrict(self, t1: float, t2: float) -> "SpaceTimeField":
        """The levels from t1 to t2, as views of this field's arrays."""
        i, j = self.index_of(t1), self.index_of(t2)
        if j <= i:
            raise ValueError("empty restriction window")
        return SpaceTimeField(self.grid, self.times[i : j + 1], self.values[i : j + 1])
