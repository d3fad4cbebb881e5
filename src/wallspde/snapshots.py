"""On-disk formats: trajectory CSV, binary field snapshots, JSON records.

Binary snapshot layout, all little endian: int64 n, int64 m, float64 dt,
float64 dx, then (m+1)*(n+1) float64 field values in row-major order.  The
writer sends the header and then the field's own buffer, and the hash reads
that buffer in place, so neither copies the field.  Text outputs format
floats with repr-exact precision (``format_float``) so identical runs
produce byte-identical files.

The trajectory CSV is streamed: rows are formatted and written in blocks of
about ``_CSV_BLOCK_ROWS`` rows (whole time levels, at least one level per
block).  Node coordinates are formatted once per file, times once per level,
and only the nonzero force densities are formatted at all.  The writer holds
one block of strings at a time, about 2 MiB at the default block size,
whatever the horizon.
"""

from __future__ import annotations

import hashlib
import json
import struct
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from wallspde.dynamics import Trajectory
from wallspde.lattice import SpaceTimeField, build_grid, check_dt

__all__ = [
    "format_float",
    "write_trajectory_csv",
    "write_field_snapshot",
    "read_field_snapshot",
    "field_hash",
    "write_json_record",
]

_HEADER = struct.Struct("<qqdd")
# Rows formatted per write, so the CSV writer's memory does not grow with the horizon.
_CSV_BLOCK_ROWS = 8192

_format17 = "%.17g".__mod__


def format_float(x: float) -> str:
    """The one text spelling of a float in every artifact: 17 significant
    digits, enough to round-trip any double; same as ``format(x, ".17g")``."""
    return _format17(float(x))


def _format_all(values: np.ndarray) -> list[str]:
    return list(map(_format17, values.ravel().tolist()))


def _format_sparse(values: np.ndarray) -> list[str]:
    """Like ``_format_all`` but formats only the entries that are not +0.0."""
    flat = values.ravel()
    out = np.full(flat.size, "0", dtype=object)
    idx = np.flatnonzero((flat != 0.0) | np.signbit(flat))
    out[idx] = _format_all(flat[idx])
    return out.tolist()


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """Long-format rows (t, x, u, eta_dot, xi_dot); densities for the step
    ending at t, zero on the initial row."""
    width = traj.u.grid.n + 1
    times = traj.u.times
    x_cells = _format_all(traj.u.grid.nodes)
    levels = max(1, _CSV_BLOCK_ROWS // width)

    def density_cells(density: np.ndarray, start: int, stop: int) -> list[str]:
        # Density row k-1 belongs to time level k; level 0 has none.
        head = ["0"] * width if start == 0 else []
        return head + _format_sparse(density[max(start - 1, 0) : stop - 1])

    with Path(path).open("w") as fh:
        fh.write("t,x,u,eta_dot,xi_dot\n")
        for start in range(0, len(times), levels):
            stop = min(start + levels, len(times))
            t_cells = chain.from_iterable(map(repeat, _format_all(times[start:stop]), repeat(width)))
            rows = zip(
                t_cells,
                x_cells * (stop - start),
                _format_all(traj.u.values[start:stop]),
                density_cells(traj.eta.density, start, stop),
                density_cells(traj.xi.density, start, stop),
            )
            fh.write("\n".join(map(",".join, rows)))
            fh.write("\n")


def write_field_snapshot(field: SpaceTimeField, path: str | Path) -> None:
    grid = field.grid
    values = np.ascontiguousarray(field.values, dtype="<f8")
    with Path(path).open("wb") as fh:
        fh.write(_HEADER.pack(grid.n, field.steps, field.dt, grid.dx))
        fh.write(values.data)


def read_field_snapshot(path: str | Path) -> SpaceTimeField:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"snapshot is {len(raw)} bytes, shorter than its {_HEADER.size}-byte header")
    n, m, dt, dx = _HEADER.unpack_from(raw)
    grid = build_grid(n)
    if not abs(grid.dx - dx) <= 1e-12:
        raise ValueError(f"snapshot dx={dx} inconsistent with n={n}")
    try:
        check_dt(dt)
    except ValueError:
        raise ValueError(f"snapshot dt={dt} must be finite and positive") from None
    if m < 1:
        raise ValueError(f"snapshot has m={m} steps, need at least one")
    count = (m + 1) * (n + 1)
    expected = _HEADER.size + 8 * count
    if len(raw) != expected:
        raise ValueError(f"snapshot is {len(raw)} bytes, expected {expected} for n={n} and m={m}")
    values = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size, count=count)
    times = dt * np.arange(m + 1)
    return SpaceTimeField(grid, times, values.reshape(m + 1, n + 1).copy())


def field_hash(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").data).hexdigest()


def write_json_record(record: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
