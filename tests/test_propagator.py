"""Property tests of the implicit-step-and-restore kernel over random walls,
bands and forcings."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wallspde.lattice import TRIDIAGONAL_MIN_N, Propagator, build_grid, neumann_operator

finite = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def step_cases(draw):
    n = draw(st.integers(4, 24))
    batch = draw(st.sampled_from([None, 1, 3]))
    shape = (n + 1,) if batch is None else (batch, n + 1)
    centre = draw(arrays(float, n + 1, elements=finite))
    half = draw(arrays(float, n + 1, elements=st.floats(1e-3, 2.0)))
    rhs = draw(arrays(float, shape, elements=finite))
    other = draw(arrays(float, shape, elements=finite))
    prop = Propagator(
        build_grid(n), draw(st.floats(0.0, 5.0)), draw(st.floats(1e-4, 5e-2))
    )
    penalty = draw(
        st.one_of(st.none(), st.tuples(st.floats(1e-5, 1e-1), st.floats(1e-5, 1e-1)))
    )
    return prop, centre - half, centre + half, rhs, other, penalty


def step_with_forces(prop, rhs, lo, hi, penalty):
    lower, upper = np.empty_like(rhs), np.empty_like(rhs)
    new, active = prop.step(rhs, lo, hi, penalty=penalty, forces=(lower, upper))
    return new, active, lower, upper


def penalty_ratios(prop, penalty):
    return None if penalty is None else (prop.dt / penalty[0], prop.dt / penalty[1])


def restored_reference(y, lo, hi, ratios):
    """Clip onto [lo, hi], or the closed-form penalty step with ratios dt/delta."""
    if ratios is None:
        return np.clip(y, lo, hi)
    r1, r2 = ratios
    expected = np.where(y < lo, (y + r1 * lo) / (1 + r1), y)
    return np.where(y > hi, (y + r2 * hi) / (1 + r2), expected)


def both_modes(penalty):
    return (None, penalty or (1e-3, 2e-3))


@settings(max_examples=150, deadline=None)
@given(step_cases())
def test_step_restores_band_with_one_signed_forces(case):
    prop, lo, hi, rhs, _, penalty = case
    new, active, lower, upper = step_with_forces(prop, rhs, lo, hi, penalty)
    assert new.shape == rhs.shape
    assert np.all(lower >= 0.0) and np.all(upper >= 0.0)
    assert np.all(lower * upper == 0.0)
    lo_b, hi_b = np.broadcast_to(lo, new.shape), np.broadcast_to(hi, new.shape)
    if penalty is None:
        assert active is None
        assert np.all(new >= lo_b) and np.all(new <= hi_b)
        assert np.all(new[lower > 0.0] == lo_b[lower > 0.0])
        assert np.all(new[upper > 0.0] == hi_b[upper > 0.0])
    else:
        assert active.shape == new.shape
        assert np.all(lower[~active] == 0.0) and np.all(upper[~active] == 0.0)
        # A penalized node ends beyond its wall, up to rounding of the closed form.
        slack = 1e-12 * (1.0 + np.abs(lo_b) + np.abs(hi_b))
        assert np.all((new <= lo_b + slack)[lower > 0.0])
        assert np.all((new >= hi_b - slack)[upper > 0.0])


@settings(max_examples=100, deadline=None)
@given(step_cases())
def test_step_matches_reference_solve(case):
    prop, lo, hi, rhs, _, penalty = case
    grid = prop.grid
    system = np.eye(grid.n + 1) - prop.dt * neumann_operator(grid, prop.alpha).dense()
    y = np.linalg.solve(system, np.atleast_2d(rhs).T).T.reshape(rhs.shape)
    new, active = prop.step(rhs, lo, hi, penalty=penalty)
    expected = restored_reference(y, lo, hi, penalty_ratios(prop, penalty))
    assert np.max(np.abs(new - expected)) <= 1e-10 * (1.0 + np.max(np.abs(rhs)))


@settings(max_examples=150, deadline=None)
@given(step_cases())
def test_step_restores_prop_solve_exactly(case):
    prop, lo, hi, rhs, _, penalty = case
    y = prop.solve(rhs)
    for mode in both_modes(penalty):
        expected = restored_reference(y, lo, hi, penalty_ratios(prop, mode))
        buffer = np.empty_like(rhs)
        for out in (None, buffer):
            new, active = prop.step(rhs, lo, hi, penalty=mode, out=out)
            assert np.array_equal(new, expected)
            if mode is not None:
                assert np.array_equal(active, (y < lo) | (y > hi))
        assert np.array_equal(buffer, expected)


@settings(max_examples=100, deadline=None)
@given(step_cases(), st.data())
def test_nan_forcing_never_yields_a_finite_state(case, data):
    prop, lo, hi, rhs, _, penalty = case
    spot = data.draw(st.tuples(*(st.integers(0, size - 1) for size in rhs.shape)))
    rhs = rhs.copy()
    rhs[spot] = np.nan
    for mode in both_modes(penalty):
        new, _ = prop.step(rhs, lo, hi, penalty=mode)
        # The solve spreads the NaN over its row; no restore may turn it in-band.
        row = new if new.ndim == 1 else new[spot[0]]
        assert not np.isfinite(row).any()


@settings(max_examples=100, deadline=None)
@given(step_cases())
def test_step_is_a_contraction_in_the_forcing(case):
    prop, lo, hi, rhs, other, penalty = case
    gap_in = np.max(np.abs(rhs - other))
    new, _ = prop.step(rhs, lo, hi, penalty=penalty)
    new_other, _ = prop.step(other, lo, hi, penalty=penalty)
    assert np.max(np.abs(new - new_other)) <= gap_in * (1.0 + 1e-12) + 1e-14


@settings(max_examples=50, deadline=None)
@given(step_cases())
def test_batch_rows_step_like_single_states(case):
    prop, lo, hi, rhs, _, penalty = case
    batch = np.atleast_2d(rhs)
    new, _ = prop.step(batch, lo, hi, penalty=penalty)
    for row, expected in zip(batch, new):
        single, _ = prop.step(row, lo, hi, penalty=penalty)
        assert np.max(np.abs(single - expected)) <= 1e-12


def test_transposed_solve_is_the_adjoint():
    grid = build_grid(12)
    prop = Propagator(grid, 1.5, 0.02)
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(2, grid.n + 1))
    assert float(a @ prop.solve(b)) == pytest.approx(float(prop.solve_transpose(a) @ b), rel=1e-12)


def relative_error(got, expected):
    return np.max(np.abs(got - expected)) / np.max(np.abs(expected))


# The test_spectral_path_* names predate the banded LU solve: from
# TRIDIAGONAL_MIN_N on, every solve is one gttrs call on a factored I - dt*A.
@pytest.mark.parametrize("n", [512, 1024])
def test_spectral_path_matches_reference_solve(n):
    assert n >= TRIDIAGONAL_MIN_N
    grid = build_grid(n)
    prop = Propagator(grid, 2.0, 1.0 / n)
    assert prop.matrix is None
    system = np.eye(n + 1) - prop.dt * neumann_operator(grid, prop.alpha).dense()
    rng = np.random.default_rng(n)
    a, b = rng.normal(size=(2, n + 1))
    batch = rng.normal(size=(5, n + 1))
    assert relative_error(prop.solve(a), np.linalg.solve(system, a)) <= 1e-12
    assert relative_error(prop.solve(batch), np.linalg.solve(system, batch.T).T) <= 1e-12
    assert relative_error(prop.solve_transpose(a), np.linalg.solve(system.T, a)) <= 1e-12
    assert float(a @ prop.solve(b)) == pytest.approx(float(prop.solve_transpose(a) @ b), rel=1e-12)

    # A forcing that crosses both walls, so clip and penalty both act.
    lo = -0.5 + 0.1 * np.cos(2.0 * np.pi * grid.nodes)
    hi = 0.5 + 0.05 * grid.nodes
    rhs = 0.8 * np.cos(np.pi * grid.nodes) + 0.3 * batch
    y = np.linalg.solve(system, rhs.T).T
    r1, r2 = prop.dt / 1e-3, prop.dt / 2e-3
    penalized = np.where(y < lo, (y + r1 * lo) / (1 + r1), y)
    penalized = np.where(y > hi, (y + r2 * hi) / (1 + r2), penalized)
    for penalty, expected in ((None, np.clip(y, lo, hi)), ((1e-3, 2e-3), penalized)):
        new, active = prop.step(rhs, lo, hi, penalty=penalty)
        assert np.any(new == lo) or np.any(active)
        assert relative_error(new, expected) <= 1e-12
        for row, stepped in zip(rhs, new):
            single, _ = prop.step(row, lo, hi, penalty=penalty)
            assert np.array_equal(single, stepped)


def test_spectral_path_stores_no_matrix():
    # The dense path allocates the 2049 x 2049 inverse here, 34 MB.
    tracemalloc.start()
    try:
        grid = build_grid(2048)
        prop = Propagator(grid, 2.0, 1.0 / 2048)
        prop.step(np.cos(np.pi * grid.nodes), np.full(grid.n + 1, -0.5), np.full(grid.n + 1, 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("n", [512, 1024, 2048])
def test_tridiagonal_path_matches_dense_solve_to_round_off(n):
    grid = build_grid(n)
    prop = Propagator(grid, 2.0, 1.0 / n)
    assert prop.matrix is None
    system = np.eye(n + 1) - prop.dt * neumann_operator(grid, prop.alpha).dense()
    rng = np.random.default_rng(n + 7)
    a = rng.normal(size=n + 1)
    batch = rng.normal(size=(6, n + 1))
    expected = np.linalg.solve(system, np.column_stack([a, batch.T]))
    assert relative_error(prop.solve(a), expected[:, 0]) <= 1e-14
    solved = prop.solve(batch)
    assert relative_error(solved, expected[:, 1:].T) <= 1e-14
    assert relative_error(prop.solve_transpose(a), np.linalg.solve(system.T, a)) <= 1e-14
    for row, stepped in zip(batch, solved):
        assert np.array_equal(prop.solve(row), stepped)


@pytest.mark.parametrize("n", [512, 2048])
def test_tridiagonal_transposed_solve_is_the_adjoint(n):
    # The mirrored ghost rows make I - dt*A non-symmetric, so the transposed
    # solve is a different map from the plain one.
    grid = build_grid(n)
    prop = Propagator(grid, 0.5, 2.0 / n)
    system = np.eye(n + 1) - prop.dt * neumann_operator(grid, prop.alpha).dense()
    rng = np.random.default_rng(n)
    a, b = rng.normal(size=(2, n + 1))
    transposed = prop.solve_transpose(a)
    assert relative_error(transposed, np.linalg.solve(system.T, a)) <= 1e-14
    assert relative_error(transposed, prop.solve(a)) > 1e-6
    assert float(a @ prop.solve(b)) == pytest.approx(float(transposed @ b), rel=1e-13)
