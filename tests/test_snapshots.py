import hashlib
import struct
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from conftest import coeffs_sin
from wallspde import snapshots
from wallspde.dynamics import Trajectory, solve_spde
from wallspde.lattice import SpaceTimeField, Walls, build_grid
from wallspde.obstacle import LocalTime
from wallspde.snapshots import (
    field_hash,
    format_float,
    read_field_snapshot,
    write_field_snapshot,
    write_trajectory_csv,
)


def test_field_snapshot_round_trip(tmp_path):
    grid = build_grid(8)
    times = np.linspace(0.0, 0.5, 6)
    rng = np.random.default_rng(2)
    field = SpaceTimeField(grid, times, rng.normal(size=(6, 9)))
    path = tmp_path / "field.bin"
    write_field_snapshot(field, path)
    back = read_field_snapshot(path)
    assert back.grid.n == 8
    assert np.array_equal(back.values, field.values)
    assert np.allclose(back.times, times)


def test_snapshot_header_layout(tmp_path):
    grid = build_grid(8)
    field = SpaceTimeField(grid, np.array([0.0, 0.25]), np.zeros((2, 9)))
    path = tmp_path / "field.bin"
    write_field_snapshot(field, path)
    raw = path.read_bytes()
    n = int.from_bytes(raw[0:8], "little")
    m = int.from_bytes(raw[8:16], "little")
    assert (n, m) == (8, 1)
    assert np.frombuffer(raw, dtype="<f8", offset=16, count=2).tolist() == [0.25, 0.125]
    assert len(raw) == 32 + 2 * 9 * 8


def test_trajectory_csv_layout(tmp_path):
    grid = build_grid(4)
    walls = Walls.constant(grid, -0.5, 0.5)
    traj = solve_spde(np.zeros(5), 0.3, coeffs_sin(2.0, 0.5), walls, 0.05, 1e-2, seed=3)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,x,u,eta_dot,xi_dot"
    assert len(lines) == 1 + 6 * 5
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[3]) == 0.0 and float(first[4]) == 0.0


def test_field_hash_sensitivity():
    a = np.zeros((3, 3))
    b = np.zeros((3, 3))
    assert field_hash(a) == field_hash(b)
    b[1, 1] = 1e-300
    assert field_hash(a) != field_hash(b)


# ----------------------------------------------------- trajectory CSV writer


def _reference_csv(traj, path):
    """The per-row writer the streamed one replaced: the byte-level spec."""
    grid = traj.u.grid
    lines = ["t,x,u,eta_dot,xi_dot"]
    for k, t in enumerate(traj.u.times):
        eta_row = traj.eta.density[k - 1] if k > 0 else np.zeros(grid.n + 1)
        xi_row = traj.xi.density[k - 1] if k > 0 else np.zeros(grid.n + 1)
        for i, x in enumerate(grid.nodes):
            cells = (t, x, traj.u.values[k, i], eta_row[i], xi_row[i])
            lines.append(",".join(format(float(v), ".17g") for v in cells))
    Path(path).write_text("\n".join(lines) + "\n")


def _assert_same_csv(traj, tmp_path):
    _reference_csv(traj, tmp_path / "reference.csv")
    write_trajectory_csv(traj, tmp_path / "streamed.csv")
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def _synthetic_traj(n, steps, seed=0, density_frac=0.02):
    """A path with random values and sparse random densities, no solve needed."""
    grid = build_grid(n)
    rng = np.random.default_rng(seed)
    times = 1e-3 * np.arange(steps + 1)
    eta, xi = (
        np.where(rng.random((steps, n + 1)) < density_frac, rng.exponential(size=(steps, n + 1)), 0.0)
        for _ in range(2)
    )
    return Trajectory(
        u=SpaceTimeField(grid, times, rng.normal(size=(steps + 1, n + 1))),
        eta=LocalTime(grid, times, eta),
        xi=LocalTime(grid, times, xi),
    )


def _levels_per_block(n):
    return max(1, snapshots._CSV_BLOCK_ROWS // (n + 1))


@pytest.mark.parametrize("n", [4, 32])
def test_trajectory_csv_matches_reference_on_solved_paths(tmp_path, n):
    grid = build_grid(n)
    walls = Walls.constant(grid, -0.1, 0.12)
    traj = solve_spde(np.zeros(n + 1), 0.5, coeffs_sin(2.0, 0.5), walls, 0.3, 1e-3, seed=5)
    assert traj.eta.density.any() and traj.xi.density.any()
    _assert_same_csv(traj, tmp_path)


@pytest.mark.parametrize("n", [4, 32])
@pytest.mark.parametrize("where", ["one_step", "block_minus_1", "block", "block_plus_1", "several_blocks"])
def test_trajectory_csv_block_edges(tmp_path, n, where):
    b = _levels_per_block(n)
    levels = {"one_step": 2, "block_minus_1": b - 1, "block": b, "block_plus_1": b + 1, "several_blocks": 3 * b + 2}
    _assert_same_csv(_synthetic_traj(n, levels[where] - 1, seed=n), tmp_path)


@pytest.mark.parametrize("n", [4, 32])
def test_trajectory_csv_special_values(tmp_path, n):
    traj = _synthetic_traj(n, _levels_per_block(n) + 3, seed=1)
    specials = [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300]
    b = _levels_per_block(n)
    # Spread the values over the first level, the block seam and the last level.
    spots = [(0, 0), (1, n), (b - 1, 1), (b, 2), (traj.u.steps, n)]
    for j, (k, i) in enumerate(spots):
        traj.u.values[k, i] = specials[j % len(specials)]
        for density in (traj.eta.density, traj.xi.density):
            density[min(k, traj.u.steps - 1), i] = specials[(j + 1) % len(specials)]
    traj.u.values[2, 0], traj.u.values[3, 1], traj.u.values[b, 0] = np.nan, np.inf, -np.inf
    _assert_same_csv(traj, tmp_path)
    text = (tmp_path / "streamed.csv").read_text()
    for token in (",-0,", ",-0\n", ",nan,", ",inf,", ",-inf,", ",4.9406564584124654e-324", ",1.0000000000000001e+300"):
        assert token in text, token


def test_format_float_matches_format_17g():
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64).tolist()
    values += [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e308, 1e-300, 0.1, 3]
    assert [format_float(v) for v in values] == [format(float(v), ".17g") for v in values]


def _assert_kernel_matches(values):
    values = np.asarray(values, dtype=float)
    assert snapshots._spelled(values) == [format(v, ".17g") for v in values.ravel().tolist()]


def _counting_fallback(monkeypatch):
    calls = []
    fallback = snapshots._format17
    monkeypatch.setattr(snapshots, "_format17", lambda v: calls.append(v) or fallback(v))
    return calls


def test_kernel_matches_format_17g_on_random_bits():
    bits = np.random.default_rng(12).integers(0, 2**64, size=100_000, dtype=np.uint64, endpoint=False)
    _assert_kernel_matches(bits.view(np.float64))


def test_kernel_matches_next_to_powers_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-12, 18)])
    _assert_kernel_matches(np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]))


def test_kernel_matches_on_exact_ties():
    # Doubles whose exact decimal expansion has 18 significant digits: the
    # 17-digit rounding is a tie, settled to the even digit.
    # m / 2**q with m odd is m * 5**q / 10**q: 18 digits when m * 5**q has them.
    rng = np.random.default_rng(13)
    ties = []
    for q in range(2, 26):
        lo, hi = -(-(10**17) // 5**q), min(10**18 // 5**q, 2**53)
        ties += [float(m | 1) / 2**q for m in rng.integers(lo, hi - 1, size=40)]
    assert all(len(Decimal(v).as_tuple().digits) == 18 and Decimal(v).as_tuple().digits[-1] == 5 for v in ties)
    _assert_kernel_matches(ties + [-v for v in ties])


def test_kernel_matches_on_special_values():
    tiny = np.finfo(float).tiny
    subnormals = [5e-324, tiny / 3, tiny - 5e-324, np.nextafter(tiny, 0.0)]
    specials = [0.0, np.nan, np.inf, 1e-12, 1e16, 1e300, np.finfo(float).max] + subnormals
    _assert_kernel_matches(specials + [-v for v in specials])


def test_kernel_block_of_only_fallback_cells(monkeypatch):
    calls = _counting_fallback(monkeypatch)
    block = np.array([0.0, -0.0, np.nan, -np.inf, 5e-324, -1e-12, 1e16, 2.0**-25, 1234567890123456.25] * 7)
    _assert_kernel_matches(block)
    assert len(calls) == block.size


def test_kernel_settles_most_cells_itself(monkeypatch):
    if snapshots._MARGIN >= 0.5:
        pytest.skip("long double is a plain double here: every cell goes to format_float")
    calls = _counting_fallback(monkeypatch)
    values = np.random.default_rng(14).normal(size=(100, 100))
    _assert_kernel_matches(values)
    # A fraction lands within the margin of 1/2 with probability 2 * _MARGIN.
    assert len(calls) < 4 * snapshots._MARGIN * values.size


def test_trajectory_csv_memory_does_not_grow_with_horizon(tmp_path):
    traj = _synthetic_traj(32, 6000, seed=2)
    path = tmp_path / "long.csv"
    limit = 3 * 2**20
    tracemalloc.start()
    try:
        write_trajectory_csv(traj, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit
    assert path.stat().st_size > 2.5 * limit


# ------------------------------------------------------- binary snapshots


def test_binary_writer_and_hash_do_not_copy_the_field(tmp_path):
    grid = build_grid(64)
    field = SpaceTimeField(grid, 1e-3 * np.arange(4001), np.random.default_rng(3).normal(size=(4001, 65)))
    nbytes = field.values.nbytes  # about 2 MiB
    tracemalloc.start()
    try:
        write_field_snapshot(field, tmp_path / "big.bin")
        digest = field_hash(field.values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < nbytes / 8
    assert digest == hashlib.sha256(field.values.tobytes()).hexdigest()
    assert (tmp_path / "big.bin").stat().st_size == 32 + nbytes


def test_binary_writer_bytes_independent_of_memory_order(tmp_path):
    grid = build_grid(8)
    values = np.random.default_rng(4).normal(size=(6, 9))
    c_field = SpaceTimeField(grid, np.linspace(0.0, 0.5, 6), values)
    f_field = SpaceTimeField(grid, np.linspace(0.0, 0.5, 6), np.asfortranarray(values))
    write_field_snapshot(c_field, tmp_path / "c.bin")
    write_field_snapshot(f_field, tmp_path / "f.bin")
    assert (tmp_path / "c.bin").read_bytes() == (tmp_path / "f.bin").read_bytes()
    assert field_hash(f_field.values) == field_hash(c_field.values)


def _snapshot_bytes(tmp_path, steps=3, n=8):
    field = SpaceTimeField(build_grid(n), 0.1 * np.arange(steps + 1), np.ones((steps + 1, n + 1)))
    write_field_snapshot(field, tmp_path / "field.bin")
    return (tmp_path / "field.bin").read_bytes()


def _with_dt(raw, dt):
    return raw[:16] + struct.pack("<d", dt) + raw[24:]


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf])
def test_read_rejects_non_finite_dt(tmp_path, dt):
    path = tmp_path / "bad.bin"
    path.write_bytes(_with_dt(_snapshot_bytes(tmp_path), dt))
    with pytest.raises(ValueError, match="dt=.*finite"):
        read_field_snapshot(path)


@pytest.mark.parametrize("dt", [0.0, -0.0, -0.1])
def test_read_rejects_non_positive_dt(tmp_path, dt):
    path = tmp_path / "bad.bin"
    path.write_bytes(_with_dt(_snapshot_bytes(tmp_path), dt))
    with pytest.raises(ValueError, match="dt=.*positive"):
        read_field_snapshot(path)


@pytest.mark.parametrize("extra", [1, 7, 8, 80])
def test_read_rejects_trailing_bytes(tmp_path, extra):
    path = tmp_path / "bad.bin"
    path.write_bytes(_snapshot_bytes(tmp_path) + b"\x00" * extra)
    with pytest.raises(ValueError, match="bytes, expected"):
        read_field_snapshot(path)


@pytest.mark.parametrize("missing", [1, 8, 72])
def test_read_rejects_truncated_payload(tmp_path, missing):
    path = tmp_path / "bad.bin"
    path.write_bytes(_snapshot_bytes(tmp_path)[:-missing])
    with pytest.raises(ValueError, match="bytes, expected"):
        read_field_snapshot(path)


def test_read_rejects_truncated_header(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(_snapshot_bytes(tmp_path)[:20])
    with pytest.raises(ValueError, match="shorter than its 32-byte header"):
        read_field_snapshot(path)


def test_read_rejects_no_steps(tmp_path):
    raw = _snapshot_bytes(tmp_path, steps=1)
    path = tmp_path / "bad.bin"
    path.write_bytes(raw[:8] + struct.pack("<q", 0) + raw[16:-72])
    with pytest.raises(ValueError, match="m=0 steps"):
        read_field_snapshot(path)


@pytest.mark.parametrize("dx", [np.nan, np.inf, 0.5])
def test_read_rejects_inconsistent_dx(tmp_path, dx):
    raw = _snapshot_bytes(tmp_path)
    path = tmp_path / "bad.bin"
    path.write_bytes(raw[:24] + struct.pack("<d", dx) + raw[32:])
    with pytest.raises(ValueError, match="dx=.*inconsistent"):
        read_field_snapshot(path)
