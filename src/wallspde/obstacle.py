"""Deterministic two-wall obstacle problem for a continuous forcing path.

Given a forcing path v with v(., 0) between the walls, produce the reflected
correction z with z(., 0) = 0 such that K1 <= z + v <= K2 at every node and
time, together with the nonnegative force densities that realise the
confinement and act only where a wall binds.

Each time step is one ``lattice.Propagator`` step in clip mode onto the
moving band [K1 - v_next, K2 - v_next]; its clip corrections over dt are the
force densities, so nonnegativity, wall exactness at active nodes, and the
complementarity identities hold by construction rather than up to a solver
tolerance.  The same recursion applied to spatially constant data is exactly
the classical discrete two-sided Skorokhod map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wallspde.lattice import Grid, Propagator, SpaceTimeField, Walls, check_times, match_dt, match_grid, row_blocks

__all__ = ["LocalTime", "ObstacleSolution", "solve_obstacle", "check_complementarity"]


@dataclass(eq=False)
class LocalTime:
    """Nonnegative force density per (node, step).

    Row k of ``density`` acts on the step ending at ``times[k + 1]``; the
    measure of a space-time cell is density * dx * dt.  Total mass is finite
    by construction on finite horizons.
    """

    grid: Grid
    times: np.ndarray
    density: np.ndarray

    def __post_init__(self) -> None:
        self.times = check_times(self.times)
        self.density = np.asarray(self.density, dtype=float)
        expected = (len(self.times) - 1, self.grid.n + 1)
        if self.density.shape != expected:
            raise ValueError(f"density shaped {self.density.shape}, expected {expected}")
        # Reductions rather than an isfinite mask: NaN fails the first test.
        if not (self.density.min() >= 0.0 and self.density.max() < np.inf):
            raise ValueError("local-time density must be finite and nonnegative")

    @property
    def total_mass(self) -> float:
        dts = np.diff(self.times)
        return float(dts @ (self.density @ self.grid.weights))


@dataclass(eq=False)
class ObstacleSolution:
    z: SpaceTimeField
    eta: LocalTime
    xi: LocalTime


def solve_obstacle(v: SpaceTimeField, walls: Walls, alpha: float, dt: float) -> ObstacleSolution:
    """Reflected correction z and force densities for the forcing path v."""
    grid = v.grid
    match_grid(grid, walls.grid, "walls")
    match_dt(v.times, dt, "forcing")
    walls.check(v.initial, "initial condition v(., 0)")

    m = v.steps
    n1 = grid.n + 1
    prop = Propagator(grid, alpha, dt)
    z = np.zeros((m + 1, n1))
    eta = np.empty((m, n1))
    xi = np.empty((m, n1))
    for k in range(m):
        lo = walls.k1 - v.values[k + 1]
        hi = walls.k2 - v.values[k + 1]
        prop.step(z[k], lo, hi, out=z[k + 1], free=eta[k])
    prop.restoring_forces(z[1:], eta, xi)

    times = v.times.copy()
    return ObstacleSolution(
        z=SpaceTimeField(grid, times, z),
        eta=LocalTime(grid, times, eta),
        xi=LocalTime(grid, times, xi),
    )


def check_complementarity(
    sol: ObstacleSolution, v: SpaceTimeField, walls: Walls
) -> tuple[float, float]:
    """Discrete complementarity integrals (lower, upper).

    Lower: integral of (z + v - K1) against the lower density; upper:
    integral of (K2 - z - v) against the upper density, trapezoid in space
    and rectangle in time with gaps evaluated at step ends.  Both must stay
    below 1e-6 * (1 + total local-time mass) for a valid solution.
    """
    grid = sol.z.grid
    match_grid(grid, walls.grid, "walls")
    if v.values.shape != sol.z.values.shape:
        raise ValueError(f"forcing shaped {v.values.shape} is off the solution mesh {sol.z.values.shape}")
    match_dt(v.times, sol.z.dt, "forcing")
    dts = np.diff(sol.z.times)
    z, forcing = sol.z.values[1:], v.values[1:]
    # One path-sized buffer for each product in turn, filled block by block.
    prod = np.empty((len(dts), grid.n + 1))

    def integral(density, gap) -> float:
        for a, b in row_blocks(grid, len(dts)):
            np.multiply(gap(z[a:b] + forcing[a:b]), density[a:b], out=prod[a:b])
        return abs(float(dts @ (prod @ grid.weights)))

    lower = integral(sol.eta.density, lambda u: u - walls.k1)
    upper = integral(sol.xi.density, lambda u: walls.k2 - u)
    return lower, upper
