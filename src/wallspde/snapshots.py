"""On-disk formats: trajectory CSV, binary field snapshots, JSON records.

Binary snapshot layout, all little endian: int64 n, int64 m, float64 dt,
float64 dx, then (m+1)*(n+1) float64 field values in row-major order.  The
writer sends the header and then the field's own buffer, the hash reads that
buffer in place, and the reader reads the values into the array that becomes
the field, so none of them copies the field.  Text outputs format
floats with repr-exact precision (``format_float``, ``"%.17g"``) and write
``"\n"`` line ends on every platform, so identical runs produce
byte-identical files.

The trajectory CSV is streamed: rows are spelled and written in blocks of
about ``_CSV_BLOCK_ROWS`` rows (whole time levels, at least one level per
block) through one binary handle.  Node coordinates are spelled once per
file, and only the nonzero force densities are spelled at all.  A block is a
byte matrix of NUL-padded cells, about 250 KiB at the default block size
whatever the horizon, whose NULs are dropped as it is written.

The cells come from ``_spell17``, which spells a whole array as
``format_float`` does.  For 1e-11 <= |x| < 1e16 it takes the 17 significant
digits from |x| * 10**k in long double, where 10**k is exact and the product
is off by at most half an ulp, 2**-8 below 1e17 (``_MARGIN``).  A product
whose fraction lies farther than that from 1/2 rounds to the same integer as
the exact product.  Every other cell goes to ``format_float``: fractions
within the margin (exact ties among them, about 0.8% of random cells), +-0,
nan, +-inf and |x| outside the range.  Where long double is a plain double
the margin exceeds 1/2 and every cell goes there.  ``wallspde selftest``
checks the kernel against ``format_float``.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from functools import cache
from pathlib import Path

import numpy as np

from wallspde.dynamics import Trajectory
from wallspde.lattice import Grid, SpaceTimeField, check_dt

__all__ = [
    "format_float",
    "write_trajectory_csv",
    "write_field_snapshot",
    "read_field_snapshot",
    "field_hash",
    "write_json_record",
]

_HEADER = struct.Struct("<qqdd")
# Rows spelled per write, so the CSV writer's memory does not grow with the horizon.
_CSV_BLOCK_ROWS = 2048

_format17 = "%.17g".__mod__

# _spell17 spells each value into _CELL bytes padded with NULs: the sign, the
# "0." and zeros that start a positional number below 1, a NUL, then the 17
# digits with their trailing zeros as NULs.  Other numbers are moved from there.
_CELL = 24
# Half an ulp of a long double below 1e17: how far |x| * 10**k can be off.
_MARGIN = float(2.0 ** np.floor(np.log2(1e17)) * np.finfo(np.longdouble).eps / 2)


@cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """10**k in long double for k <= 28, exact for k <= 27; and four ASCII
    digits of each q < 10000 as one uint32, by q + 10000 * (every digit after
    them is zero), in that second half with their trailing zeros as NULs.
    Built at the first spelling, so a process that writes no CSV skips them."""
    pow10 = np.cumprod(np.r_[1, np.full(28, 10)].astype(np.longdouble))
    q = np.arange(10000)
    quads = np.zeros((2, 10000, 4), dtype=np.uint8)
    for i, p in enumerate((1000, 100, 10, 1)):
        quads[0, :, i] = q // p % 10 + ord("0")
        quads[1, :, i] = np.where(q % (10 * p), quads[0, :, i], 0)
    return pow10, quads.view(np.uint32).ravel()


# The first 8 bytes of a cell by 10 * (5 * negative + zeros) + leading digit, where
# zeros = -X for a positional number below 1 (-4 <= X < 0) and 0 otherwise.
_HEADS = np.frombuffer(
    b"".join(
        (sign + (b"0." + b"0" * (zeros - 1) if zeros else b"")).ljust(7, b"\0") + b"%d" % digit
        for sign in (b"\0", b"-")
        for zeros in range(5)
        for digit in range(10)
    ),
    dtype=np.uint64,
)
_ZERO = np.frombuffer(b"0".ljust(_CELL, b"\0"), dtype=np.uint8)
# Exponent suffixes by -X, for X < -4.
_TAILS = np.frombuffer(b"".join(b"e-%02d" % e for e in range(13)), dtype=np.uint8).reshape(13, 4)


def format_float(x: float) -> str:
    """The one text spelling of a float in every artifact: 17 significant
    digits, enough to round-trip any double; same as ``format(x, ".17g")``."""
    return _format17(float(x))


def _spell17(values: np.ndarray) -> np.ndarray:
    """``format_float`` of every value at once, as NUL-padded ASCII rows shaped (size, _CELL).

    Dropping the NULs of row i leaves ``format_float(values.flat[i])``.  The
    exponent X starts as floor(log10 |x|) and moves by one where
    |x| * 10**(16 - X) leaves [1e16, 1e17); see the module docstring for
    why the nearest integer of that product is exact and which cells go to
    ``format_float`` instead.
    """
    pow10, quads_table = _tables()
    x = np.ascontiguousarray(values, dtype=float).ravel()
    ax = np.abs(x)
    fast = (ax >= 1e-11) & (ax < 1e16)
    ax = np.where(fast, ax, 1.0)
    k = 16 - np.floor(np.log10(ax)).astype(np.int64)
    ax = ax.astype(np.longdouble)
    product = ax * pow10[k]
    k += (product < 1e16).view(np.int8) - (product >= 1e17).view(np.int8)
    np.minimum(k, len(pow10) - 1, out=k)
    product = ax * pow10[k]
    whole = product.astype(np.int64)
    fraction = (product - whole).astype(float)  # exact: a multiple of the ulp
    fast &= (k <= 27) & (np.abs(fraction - 0.5) > _MARGIN)
    # Rounding up never reaches 1e17: in range, the largest double below each
    # power of ten lies more than 5e-18 relative below it.
    significand = whole + (fraction > 0.5)
    exponent = 16 - k

    cells = np.empty((x.size, _CELL), dtype=np.uint8)
    quads = cells[:, 8:].view(np.uint32)
    offset = np.full(x.size, 10000)  # while every digit after the current four is zero
    for j in range(3, -1, -1):
        significand, quad = np.divmod(significand, 10000)
        quads[:, j] = quads_table.take(quad + offset)
        offset *= quad == 0
    small = exponent < -4
    zeros = np.where((exponent < 0) & ~small, -exponent, 0)
    # significand is down to the leading digit.
    cells[:, :8].view(np.uint64)[:, 0] = _HEADS[50 * np.signbit(x) + 10 * zeros + significand]

    moved = np.flatnonzero(fast & ((exponent >= 0) | small))
    if moved.size:
        # At least 1, or the exponent form: sign, integer digits, then the
        # point where a fraction digit follows it, then the fraction digits.
        digits = cells[moved, 7:]
        point = np.where(small[moved], 1, exponent[moved] + 1)
        for p in np.flatnonzero(np.bincount(point)):
            group = point == p
            rows = np.zeros((np.count_nonzero(group), _CELL), dtype=np.uint8)
            rows[:, 0] = cells[moved[group], 0]
            rows[:, 1 : p + 1] = np.maximum(digits[group, :p], ord("0"))
            rows[:, p + 1] = np.where(digits[group, p] != 0, ord("."), 0)
            rows[:, p + 2 : 19] = digits[group, p:]
            cells[moved[group]] = rows
        tails = moved[small[moved]]
        cells[tails, 19:23] = _TAILS[-exponent[tails]]
    slow = np.flatnonzero(~fast)
    if slow.size:
        spelled = [_format17(v).encode() for v in x[slow].tolist()]
        cells[slow] = np.array(spelled, dtype=f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)
    return cells


def _spelled(values: np.ndarray) -> list[str]:
    """``_spell17``'s cells as strings, NULs dropped."""
    cells = _spell17(values)
    lines = np.concatenate([cells, np.full((len(cells), 1), ord("\n"), dtype=np.uint8)], axis=1)
    return lines[lines != 0].tobytes().decode().split("\n")[:-1]


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """Long-format rows (t, x, u, eta_dot, xi_dot); densities for the step
    ending at t, zero on the initial row."""
    width = traj.u.grid.n + 1
    times = traj.u.times
    levels = max(1, _CSV_BLOCK_ROWS // width)
    # A row per level and node: five cells, each followed by its separator.
    rows = np.zeros((levels, width, 5, _CELL + 1), dtype=np.uint8)
    rows[..., _CELL] = ord(",")
    rows[..., 4, _CELL] = ord("\n")
    rows[:, :, 1, :_CELL] = _spell17(traj.u.grid.nodes)

    with Path(path).open("wb") as fh:
        fh.write(b"t,x,u,eta_dot,xi_dot\n")
        for start in range(0, len(times), levels):
            stop = min(start + levels, len(times))
            block = rows[: stop - start]
            t, u = times[start:stop], traj.u.values[start:stop]
            # Density row k-1 belongs to time level k; level 0 has none.  A
            # density of +0.0 is the "0" already in place.
            first = max(start, 1)
            densities = np.stack([traj.eta.density[first - 1 : stop - 1], traj.xi.density[first - 1 : stop - 1]], -1)
            spots = np.flatnonzero((densities != 0.0) | np.signbit(densities))
            cells = _spell17(np.concatenate([t, u.ravel(), densities.ravel()[spots]]))
            block[:, :, 0, :_CELL] = cells[: len(t), None]
            block[:, :, 2, :_CELL] = cells[len(t) : len(t) + u.size].reshape(u.shape + (_CELL,))
            block[:, :, 3:, :_CELL] = _ZERO
            level, node, side = np.unravel_index(spots, densities.shape)
            block[first - start + level, node, 3 + side, :_CELL] = cells[len(t) + u.size :]
            fh.write(block[block != 0])


def write_field_snapshot(field: SpaceTimeField, path: str | Path) -> None:
    grid = field.grid
    values = np.ascontiguousarray(field.values, dtype="<f8")
    with Path(path).open("wb") as fh:
        fh.write(_HEADER.pack(grid.n, field.steps, field.dt, grid.dx))
        fh.write(values.data)


def read_field_snapshot(path: str | Path) -> SpaceTimeField:
    with Path(path).open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise ValueError(f"snapshot is {size} bytes, shorter than its {_HEADER.size}-byte header")
        n, m, dt, dx = _HEADER.unpack(fh.read(_HEADER.size))
        grid = Grid(n)
        if not abs(grid.dx - dx) <= 1e-12:
            raise ValueError(f"snapshot dx={dx} inconsistent with n={n}")
        try:
            check_dt(dt)
        except ValueError:
            raise ValueError(f"snapshot dt={dt} must be finite and positive") from None
        if m < 1:
            raise ValueError(f"snapshot has m={m} steps, need at least one")
        expected = _HEADER.size + 8 * (m + 1) * (n + 1)
        if size != expected:
            raise ValueError(f"snapshot is {size} bytes, expected {expected} for n={n} and m={m}")
        values = np.empty((m + 1, n + 1), dtype="<f8")
        if fh.readinto(values) != values.nbytes:
            raise ValueError(f"snapshot shrank while it was read: expected {expected} bytes")
    return SpaceTimeField(grid, dt * np.arange(m + 1), values)


def field_hash(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").data).hexdigest()


def write_json_record(record: dict, path: str | Path) -> None:
    Path(path).write_bytes((json.dumps(record, indent=2, sort_keys=True) + "\n").encode())
