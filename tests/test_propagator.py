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
    # A batch is node-major, one state per column, with its walls as columns.
    shape, band = ((n + 1,), (n + 1,)) if batch is None else ((n + 1, batch), (n + 1, 1))
    centre = draw(arrays(float, band, elements=finite))
    half = draw(arrays(float, band, elements=st.floats(1e-3, 2.0)))
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
    new = prop.step(rhs, lo, hi, penalty=penalty, free=lower)
    assert np.array_equal(lower, prop.solve(rhs))
    prop.restoring_forces(*np.atleast_2d(new, lower, upper))
    return new, lower, upper


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
    y = prop.solve(rhs)
    new, lower, upper = step_with_forces(prop, rhs, lo, hi, penalty)
    assert new.shape == rhs.shape
    assert np.all(lower >= 0.0) and np.all(upper >= 0.0)
    assert np.all(lower * upper == 0.0)
    # No force where the solved value crosses no wall, in either mode.
    crossed = (y < lo) | (y > hi)
    assert np.all(lower[~crossed] == 0.0) and np.all(upper[~crossed] == 0.0)
    lo_b, hi_b = np.broadcast_to(lo, new.shape), np.broadcast_to(hi, new.shape)
    if penalty is None:
        assert np.all(new >= lo_b) and np.all(new <= hi_b)
        assert np.all(new[lower > 0.0] == lo_b[lower > 0.0])
        assert np.all(new[upper > 0.0] == hi_b[upper > 0.0])
    else:
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
    y = np.linalg.solve(system, rhs)
    new = prop.step(rhs, lo, hi, penalty=penalty)
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
            new = prop.step(rhs, lo, hi, penalty=mode, out=out)
            assert np.array_equal(new, expected)
        assert np.array_equal(buffer, expected)


@settings(max_examples=100, deadline=None)
@given(step_cases(), st.data())
def test_nan_forcing_never_yields_a_finite_state(case, data):
    prop, lo, hi, rhs, _, penalty = case
    spot = data.draw(st.tuples(*(st.integers(0, size - 1) for size in rhs.shape)))
    rhs = rhs.copy()
    rhs[spot] = np.nan
    for mode in both_modes(penalty):
        new = prop.step(rhs, lo, hi, penalty=mode)
        # The solve spreads the NaN over its state; no restore may turn it in-band.
        state = new if new.ndim == 1 else new[:, spot[1]]
        assert not np.isfinite(state).any()


@settings(max_examples=100, deadline=None)
@given(step_cases())
def test_step_is_a_contraction_in_the_forcing(case):
    prop, lo, hi, rhs, other, penalty = case
    gap_in = np.max(np.abs(rhs - other))
    new = prop.step(rhs, lo, hi, penalty=penalty)
    new_other = prop.step(other, lo, hi, penalty=penalty)
    assert np.max(np.abs(new - new_other)) <= gap_in * (1.0 + 1e-12) + 1e-14


@settings(max_examples=50, deadline=None)
@given(step_cases())
def test_batch_columns_step_like_single_states(case):
    prop, lo, hi, rhs, _, penalty = case
    batch = rhs.reshape(len(rhs), -1)
    new = prop.step(batch, lo.reshape(-1, 1), hi.reshape(-1, 1), penalty=penalty)
    for column, expected in zip(batch.T, new.T):
        single = prop.step(column, lo.ravel(), hi.ravel(), penalty=penalty)
        assert np.max(np.abs(single - expected)) <= 1e-12


def test_penalized_step_pulls_toward_lower_wall():
    # A state 0.1 below the lower wall, with no heat flow (alpha = 0, constant
    # state): the implicit penalty pulls it to within O(delta) of the wall.
    grid = build_grid(16)
    delta = dt = 1e-3
    prop = Propagator(grid, 0.0, dt)
    lo, hi = np.full(grid.n + 1, -1.0), np.full(grid.n + 1, 1.0)
    state = np.full(grid.n + 1, -1.1)
    new = prop.step(state, lo, hi, penalty=(delta, 1e-3))
    assert np.allclose(new, (state + (dt / delta) * lo) / (1.0 + dt / delta), atol=1e-10)
    assert np.max(np.abs(new - lo)) <= 2.0 * delta * (0.1 / dt)


@pytest.mark.parametrize("n", [8, 32])
def test_restoring_forces_split_each_step_alone(n):
    grid = build_grid(n)
    prop = Propagator(grid, 2.0, 1e-3)
    rows = 300
    rng = np.random.default_rng(n)
    new = rng.normal(size=(rows, n + 1))
    free = np.where(rng.random((rows, n + 1)) < 0.5, new, rng.normal(size=(rows, n + 1)))
    lower, upper = free.copy(), np.empty_like(free)
    prop.restoring_forces(new, lower, upper)
    for k in range(rows):
        corr = (new[k] - free[k]) / prop.dt
        assert np.array_equal(lower[k], np.maximum(corr, 0.0))
        assert np.array_equal(upper[k], np.maximum(-corr, 0.0))


def test_transposed_solve_is_the_adjoint():
    grid = build_grid(12)
    prop = Propagator(grid, 1.5, 0.02)
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(2, grid.n + 1))
    assert float(a @ prop.solve(b)) == pytest.approx(float(prop.solve_transpose(a) @ b), rel=1e-12)


def relative_error(got, expected):
    return np.max(np.abs(got - expected)) / np.max(np.abs(expected))


# The test_spectral_path_* names predate the banded solve: from
# TRIDIAGONAL_MIN_N on, every solve is one pttrs call on the LDL^T factors
# of the symmetric W(I - dt*A).
@pytest.mark.parametrize("n", [512, 1024])
def test_spectral_path_matches_reference_solve(n):
    assert n >= TRIDIAGONAL_MIN_N
    grid = build_grid(n)
    prop = Propagator(grid, 2.0, 1.0 / n)
    assert prop.matrix is None
    system = np.eye(n + 1) - prop.dt * neumann_operator(grid, prop.alpha).dense()
    rng = np.random.default_rng(n)
    a, b = rng.normal(size=(2, n + 1))
    batch = rng.normal(size=(5, n + 1)).T  # node-major: one state per column
    assert relative_error(prop.solve(a), np.linalg.solve(system, a)) <= 1e-12
    assert relative_error(prop.solve(batch), np.linalg.solve(system, batch)) <= 1e-12
    assert relative_error(prop.solve_transpose(a), np.linalg.solve(system.T, a)) <= 1e-12
    assert float(a @ prop.solve(b)) == pytest.approx(float(prop.solve_transpose(a) @ b), rel=1e-12)

    # A forcing that crosses both walls, so clip and penalty both act.
    lo = -0.5 + 0.1 * np.cos(2.0 * np.pi * grid.nodes)
    hi = 0.5 + 0.05 * grid.nodes
    rhs = 0.8 * np.cos(np.pi * grid.nodes)[:, None] + 0.3 * batch
    y = np.linalg.solve(system, rhs)
    lo_c, hi_c = lo[:, None], hi[:, None]
    r1, r2 = prop.dt / 1e-3, prop.dt / 2e-3
    penalized = np.where(y < lo_c, (y + r1 * lo_c) / (1 + r1), y)
    penalized = np.where(y > hi_c, (y + r2 * hi_c) / (1 + r2), penalized)
    assert np.any(y < lo_c) and np.any(y > hi_c)
    for penalty, expected in ((None, np.clip(y, lo_c, hi_c)), ((1e-3, 2e-3), penalized)):
        new = prop.step(rhs, lo_c, hi_c, penalty=penalty)
        assert relative_error(new, expected) <= 1e-12
        for column, stepped in zip(rhs.T, new.T):
            single = prop.step(column, lo, hi, penalty=penalty)
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
    batch = rng.normal(size=(6, n + 1)).T  # node-major: one state per column
    expected = np.linalg.solve(system, np.column_stack([a, batch]))
    assert relative_error(prop.solve(a), expected[:, 0]) <= 1e-14
    solved = prop.solve(batch)
    assert relative_error(solved, expected[:, 1:]) <= 1e-14
    assert relative_error(prop.solve_transpose(a), np.linalg.solve(system.T, a)) <= 1e-14
    for column, stepped in zip(batch.T, solved.T):
        assert np.array_equal(prop.solve(column), stepped)


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


def backward_error(prop, x, b, transposed=False):
    """Componentwise backward error of ``x`` as a solution of (I - dt*A) x = b,
    or of its transpose, one column per state, with the residual taken in long double."""
    op = neumann_operator(prop.grid, prop.alpha)
    lower, upper = (op.upper, op.lower) if transposed else (op.lower, op.upper)
    dt = np.longdouble(prop.dt)
    x, b = (np.reshape(v, (prop.grid.n + 1, -1)).astype(np.longdouble) for v in (x, b))
    terms = np.zeros((3,) + x.shape, dtype=np.longdouble)
    terms[0] = (1 - dt * op.main.astype(np.longdouble))[:, None] * x
    terms[1, 1:] = -dt * lower.astype(np.longdouble)[:, None] * x[:-1]
    terms[2, :-1] = -dt * upper.astype(np.longdouble)[:, None] * x[1:]
    return float(np.max(np.abs(b - terms.sum(axis=0)) / (np.abs(terms).sum(axis=0) + np.abs(b))))


@pytest.mark.parametrize("n", [600, 1000])
def test_tridiagonal_path_is_backward_stable_where_dx_rounds(n):
    # dx is not a power of two here, so W*A's entries round, and the factored
    # W(I - dt*A) differs from the dense system's floats times W by an ulp per
    # entry.  The system's conditioning, about 2*dt/dx^2, scales that up: two
    # sound solvers differ by up to about 1e-13 here (np.linalg.solve itself
    # is 4e-14 to 1.1e-13 off a long-double solve, and LAPACK's gttrs on the
    # dense floats 1.7e-14 off np.linalg.solve at n=1000).  So each solve is
    # held to a componentwise backward error of a few ulps against I - dt*A,
    # which np.linalg.solve meets too.
    ulps = 4 * np.finfo(float).eps
    grid = build_grid(n)
    rng = np.random.default_rng(n)
    a, b = rng.normal(size=(2, n + 1))
    batch = rng.normal(size=(6, n + 1)).T  # node-major: one state per column
    for alpha, dt in ((2.0, 1.0 / n), (0.5, 2.0 / n), (3.0, 1e-5)):
        prop = Propagator(grid, alpha, dt)
        assert prop.matrix is None
        solved = prop.solve(batch)
        transposed = prop.solve_transpose(a)
        assert backward_error(prop, prop.solve(a), a) <= ulps
        assert backward_error(prop, solved, batch) <= ulps
        assert backward_error(prop, transposed, a, transposed=True) <= ulps
        for column, stepped in zip(batch.T, solved.T):
            assert np.array_equal(prop.solve(column), stepped)
        assert relative_error(transposed, prop.solve(a)) > 1e-6
        assert float(a @ prop.solve(b)) == pytest.approx(float(transposed @ b), rel=1e-13)


@pytest.mark.parametrize("penalty", [None, (1e-3, 2e-3)], ids=["projected", "penalized"])
@pytest.mark.parametrize("n", [16, TRIDIAGONAL_MIN_N], ids=["dense", "banded"])
def test_step_solves_into_the_callers_free_row(n, penalty):
    # A march keeps each step's free value in a row of a path-sized array, and
    # the solve writes it there with the bits of a plain solve; the banded
    # solve gives a strided row them too, and the dense one refuses it.  The
    # adjoint's transposed solve writes into its row alike.
    grid = build_grid(n)
    prop = Propagator(grid, 2.0, 1e-3)
    rhs = np.random.default_rng(n).normal(size=n + 1)
    lo, hi = -0.3 - 0.1 * grid.nodes, 0.4 + 0.1 * grid.nodes
    expected = prop.step(rhs, lo, hi, penalty)
    assert np.any(expected != prop.solve(rhs))
    for rows in (np.full((3, n + 1), np.nan), np.full((n + 1, 3), np.nan).T):
        if prop.matrix is not None and not rows[1].flags.c_contiguous:
            for solve in (prop.solve, prop.solve_transpose):
                with pytest.raises(ValueError):
                    solve(rhs, out=rows[1])
            continue
        out = np.empty(n + 1)
        assert prop.step(rhs, lo, hi, penalty, out=out, free=rows[1]) is out
        assert out.tobytes() == expected.tobytes()
        assert rows[1].tobytes() == prop.solve(rhs).tobytes()
        assert np.isnan(rows[[0, 2]]).all()
        adjoint = rows[2]
        assert prop.solve_transpose(rhs, out=adjoint) is adjoint
        assert adjoint.tobytes() == prop.solve_transpose(rhs).tobytes()


@pytest.mark.parametrize("n", [4, 16, 32, 100, TRIDIAGONAL_MIN_N - 1])
def test_single_state_solves_keep_the_matmul_bits(n):
    # A single state is solved by np.dot's gemv, which numpy reaches with less
    # dispatch than matmul.  Every path keeps its bits only if the two round
    # alike, into a new array, into ``out`` and from a strided state.  The
    # transposed solve multiplies by the contiguous transpose: a matmul by the
    # strided view ``matrix.T`` takes gemv's transposed kernel, which rounds
    # differently.
    prop = Propagator(build_grid(n), 2.0, 1e-3)
    assert prop.matrix is not None
    state = np.random.default_rng(n).standard_normal(n + 1)
    strided = np.repeat(state, 2)[::2]
    for solve, matrix in ((prop.solve, prop.matrix), (prop.solve_transpose, np.ascontiguousarray(prop.matrix.T))):
        expected = np.matmul(matrix, state).tobytes()
        assert solve(state).tobytes() == expected
        assert solve(strided).tobytes() == expected
        out = np.empty(n + 1)
        assert solve(state, out=out) is out
        assert out.tobytes() == expected


@pytest.mark.parametrize("n", [32, TRIDIAGONAL_MIN_N])
def test_stacked_solve_equals_per_batch_solves_bit_for_bit(n):
    # The sampler solves every noise level's node-major (n+1, chains) batch as
    # one (levels, n+1, chains) stack; each batch must keep the bits of its own
    # solve, whose dense product rounds with the batch's column count.
    rng = np.random.default_rng(n)
    prop = Propagator(build_grid(n), 3.0, 1e-3)
    for levels, chains in ((1, 16), (3, 16), (2, 5), (4, 1)):
        stack = rng.standard_normal((levels, n + 1, chains))
        solved = prop.solve(stack)
        assert solved.shape == stack.shape
        for level in range(levels):
            assert solved[level].tobytes() == prop.solve(stack[level].copy()).tobytes()
        # Strided stacks solve as their contiguous copies do: a slice of a wider
        # stack, every other column of one, and a chain-major stack's transpose.
        wide = rng.standard_normal((levels, n + 1, 2 * chains + 2))
        rows = rng.standard_normal((levels, chains, n + 1))
        for strided in (wide[..., 1 : chains + 1], wide[..., ::2], rows.swapaxes(-1, -2)):
            assert prop.solve(strided).tobytes() == prop.solve(strided.copy()).tobytes()
