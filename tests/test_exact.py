"""Exact arithmetic core: fields, vectors, and the linear-algebra kernel."""

from __future__ import annotations

import re
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemaps import (
    InputError,
    Matrix,
    PrimeField,
    QQ,
    ResourceError,
    build_constraints,
    identity_matrix,
    inverse,
    is_j_independent,
    field_from_json,
    field_to_json,
    mat_mul,
    mat_vec,
    matrix,
    nullspace,
    rank_of_vectors,
    rref,
    solve,
    unit_vector,
    vector,
    vectors_parallel,
)
from linemaps.exact import _is_prime, rank

# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


def test_rationals_are_exact():
    a = QQ.convert(Fraction(1, 3))
    b = QQ.convert(Fraction(1, 6))
    assert QQ.convert(a + b) == Fraction(1, 2)
    assert QQ.convert(a * QQ.inv(a)) == 1
    assert QQ.parse(QQ.to_json(Fraction(-7, 12))) == Fraction(-7, 12)


def test_prime_field_arithmetic():
    F = PrimeField(7)
    assert F.convert(5 + 4) == 2
    assert F.convert(3 * 5) == 1
    assert F.inv(3) == 5
    assert F.convert(-0) == 0


def test_prime_field_rejects_two_and_composites():
    with pytest.raises(InputError):
        PrimeField(2)
    with pytest.raises(InputError):
        PrimeField(9)
    with pytest.raises(InputError):
        PrimeField(1)


def test_prime_field_rejects_a_p_that_is_not_an_int():
    # 5.0 passed the prime test through float %, and convert(7) gave 2.0
    for bad in (5.0, 5.5, True, "5"):
        with pytest.raises(InputError, match="not an int"):
            PrimeField(bad)


def _trial_division_is_prime(p):
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def test_primality_agrees_with_trial_division_below_ten_thousand():
    for p in range(-2, 10 ** 4):
        assert _is_prime(p) == _trial_division_is_prime(p), p


def test_primality_of_large_numbers():
    assert _is_prime(2 ** 61 - 1)
    assert not _is_prime(2 ** 61 + 1)  # divisible by 3
    # the least strong pseudoprime to the first 12 prime bases: base 41 exposes it
    assert not _is_prime(318665857834031151167461)
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert PrimeField(2 ** 61 - 1).p == 2 ** 61 - 1
    with pytest.raises(ResourceError):
        PrimeField(2 ** 89 - 1)  # prime, but past the bound where the test is exact


def test_prime_field_converts_fractions_via_modular_inverse():
    F = PrimeField(5)
    assert F.convert(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 (mod 5)
    assert F.convert(Fraction(-1, 3)) == 3  # 3 * 3 = 9 = 4 = -1 (mod 5)
    with pytest.raises(InputError):
        F.convert(Fraction(1, 5))  # denominator kills the reduction


def test_field_json_round_trip():
    for F in (QQ, PrimeField(5), PrimeField(13)):
        assert field_from_json(field_to_json(F)) == F


def test_field_json_rejects_a_prime_that_is_not_an_int():
    # "p": 7.9 was once truncated to GF(7)
    for bad in (7.9, 7.0, True, "7"):
        with pytest.raises(InputError, match="not an int"):
            field_from_json({"type": "prime", "p": bad})


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        PrimeField(3).inv(0)


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------


def test_parallel_detection():
    assert vectors_parallel(QQ, vector(QQ, (1, 2)), vector(QQ, (2, 4)))
    assert not vectors_parallel(QQ, vector(QQ, (1, 2)), vector(QQ, (2, 5)))
    F = PrimeField(5)
    assert vectors_parallel(F, vector(F, (1, 2, 0)), vector(F, (3, 1, 0)))
    # the zero vector is parallel to everything by convention
    assert vectors_parallel(QQ, vector(QQ, (0, 0)), vector(QQ, (1, 7)))


def test_unit_vectors():
    assert unit_vector(QQ, 3, 1) == (0, 1, 0)


# ---------------------------------------------------------------------------
# row reduction, nullspace, solving
# ---------------------------------------------------------------------------


def test_rref_small_example():
    m = matrix(QQ, ((1, 2, 3), (2, 4, 7)))
    res = rref(m)
    assert res.rank == 2
    assert res.pivots == (0, 2)
    assert res.matrix.rows == ((1, 2, 0), (0, 0, 1))


def test_nullspace_example():
    m = matrix(QQ, ((1, 1, 1),))
    basis = nullspace(m)
    assert len(basis) == 2
    for b in basis:
        assert mat_vec(m, b) == (0,)


def test_solve_exact_and_unsolvable():
    m = matrix(QQ, ((2, 1), (1, 3)))
    x = solve(m, vector(QQ, (5, 10)))
    assert mat_vec(m, x) == (5, 10)
    assert x == (1, 3)
    singular = matrix(QQ, ((1, 2), (2, 4)))
    assert solve(singular, vector(QQ, (1, 3))) is None


def test_inverse_and_invertibility():
    m = matrix(PrimeField(5), ((1, 2), (3, 4)))
    assert rank_of_vectors(PrimeField(5), m.rows) == m.nrows
    assert mat_mul(m, inverse(m)).rows == identity_matrix(PrimeField(5), 2).rows
    with pytest.raises(InputError):
        inverse(matrix(QQ, ((1, 2), (2, 4))))


def test_matrix_names_an_entry_outside_the_field_in_a_later_row():
    # the message names the offending entry, in a later row too
    for F, rows, bad in ((PrimeField(5), ((1, 2), (3, 4), (0, 7)), "7"),
                         (PrimeField(5), ((1, 2), (3, -1)), "-1"),
                         (QQ, ((Fraction(1), Fraction(2)), (Fraction(3), 0.5)), "0.5")):
        with pytest.raises(InputError, match=re.escape(f"entry {bad} is not an element of {F}")):
            Matrix(F, rows)


def test_rank_and_j_independence():
    F = PrimeField(3)
    vs = [vector(F, v) for v in ((1, 0, 0), (0, 1, 0), (1, 1, 0))]
    assert rank_of_vectors(F, vs) == 2
    assert is_j_independent(F, vs, 2)
    assert not is_j_independent(F, vs, 3)


# ---------------------------------------------------------------------------
# algebraic properties (randomized, exact)
# ---------------------------------------------------------------------------

_entries = st.integers(min_value=-6, max_value=6)


def _matrices(draw, field):
    nrows = draw(st.integers(min_value=1, max_value=4))
    ncols = draw(st.integers(min_value=1, max_value=4))
    rows = [[field.convert(draw(_entries)) for _ in range(ncols)]
            for _ in range(nrows)]
    return matrix(field, rows)


@st.composite
def rational_matrices(draw):
    return _matrices(draw, QQ)


@st.composite
def mod5_matrices(draw):
    return _matrices(draw, PrimeField(5))


@settings(max_examples=60, deadline=None)
@given(rational_matrices())
def test_rref_is_idempotent(m):
    once = rref(m)
    twice = rref(once.matrix)
    assert once.matrix.rows == twice.matrix.rows
    assert once.rank == twice.rank


@settings(max_examples=60, deadline=None)
@given(mod5_matrices())
def test_nullspace_vectors_are_annihilated(m):
    basis = nullspace(m)
    assert len(basis) == m.ncols - rref(m).rank  # rank-nullity
    zero = tuple(m.field.zero() for _ in range(m.nrows))
    for b in basis:
        assert mat_vec(m, b) == zero


@settings(max_examples=60, deadline=None)
@given(rational_matrices(), st.lists(_entries, min_size=4, max_size=4))
def test_solve_returns_exact_solutions(m, raw):
    rhs = vector(QQ, [Fraction(raw[i % 4]) for i in range(m.nrows)])
    x = solve(m, rhs)
    if x is not None:
        assert mat_vec(m, x) == rhs


@pytest.mark.parametrize("p", (3, 5, 7))
def test_reduce_once_kernels_agree_with_the_rationals_mod_p(p):
    # over Z_p the kernels sum and multiply unreduced ints and reduce once:
    # on integer matrices that must equal exact arithmetic over Q, reduced
    F = PrimeField(p)
    rng = Random(p)

    def reduced(m):
        return tuple(tuple(F.convert(x) for x in row) for row in m.rows)

    inverses = 0
    for _ in range(40):
        k, l, c = (rng.randint(1, 4) for _ in range(3))
        a = [[rng.randint(-9, 9) for _ in range(l)] for _ in range(k)]
        b = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(l)]
        x = [rng.randint(-9, 9) for _ in range(l)]
        assert mat_vec(matrix(F, a), vector(F, x)) == tuple(
            F.convert(y) for y in mat_vec(matrix(QQ, a), vector(QQ, x)))
        assert mat_mul(matrix(F, a), matrix(F, b)).rows == reduced(
            mat_mul(matrix(QQ, a), matrix(QQ, b)))
        square = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
        try:
            inv = inverse(matrix(F, square))
        except InputError:
            continue  # singular mod p
        # a unit determinant mod p is a nonzero one over Q
        assert inv.rows == reduced(inverse(matrix(QQ, square)))
        inverses += 1
    assert inverses >= 20


# ---------------------------------------------------------------------------
# the elimination kernel against independent oracles
# ---------------------------------------------------------------------------


def _gauss_jordan(m):
    """Dense Gauss-Jordan elimination in field arithmetic: the body `rref`
    had before the sparse integer kernel, kept as an oracle."""
    F = m.field
    rows = [list(r) for r in m.rows]
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if not F.is_zero(rows[i][c])), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.convert(inv * x) for x in rows[r]]
        for i in range(nrows):
            if i != r and not F.is_zero(rows[i][c]):
                factor = rows[i][c]
                rows[i] = [F.convert(x - factor * y) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), r, tuple(pivots)


@st.composite
def sparse_matrices(draw, field):
    """Wide, tall and square matrices with some rows and columns entirely
    zero, mostly-zero entries, and (over Q) fractional entries."""
    nrows = draw(st.integers(min_value=1, max_value=7))
    ncols = draw(st.integers(min_value=1, max_value=7))
    zero_rows = draw(st.sets(st.integers(0, nrows - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=2))
    if isinstance(field, PrimeField):
        entry = st.integers(min_value=-12, max_value=12)
    else:
        entry = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    entries = st.one_of(st.just(0), entry)
    rows = [[0 if i in zero_rows or j in zero_cols else draw(entries)
             for j in range(ncols)] for i in range(nrows)]
    return matrix(field, rows)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([QQ, PrimeField(3), PrimeField(7), PrimeField(101)]).flatmap(sparse_matrices))
def test_rref_matches_dense_gauss_jordan(m):
    res = rref(m)
    rows, rank, pivots = _gauss_jordan(m)
    assert (res.matrix.rows, res.rank, res.pivots) == (rows, rank, pivots)
    assert len(nullspace(m)) == m.ncols - rank
    if m.nrows == m.ncols:
        try:
            inverse(m)
            invertible = True
        except InputError:
            invertible = False
        assert invertible == (rank == m.nrows)


@settings(max_examples=80, deadline=None)
@given(sparse_matrices(QQ))
def test_rref_matches_sympy_over_the_rationals(m):
    sympy = pytest.importorskip("sympy")
    reduced, pivots = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.rows]).rref()
    res = rref(m)
    assert res.pivots == tuple(pivots)
    assert res.matrix.rows == tuple(
        tuple(Fraction(int(x.p), int(x.q)) for x in reduced.row(i)) for i in range(m.nrows))


def test_rref_of_the_constraint_systems_matches_dense_gauss_jordan():
    # the system is block-diagonal by degree once its columns are grouped:
    # the sparse kernel must reach the same unique RREF as the dense one
    for n in range(2, 8):
        m = build_constraints(n).rows
        res = rref(m)
        assert (res.matrix.rows, res.rank, res.pivots) == _gauss_jordan(m), n


# ---------------------------------------------------------------------------
# the kernel's Q boundary: nullspace, solve and inverse read off Gauss-Jordan
# ---------------------------------------------------------------------------


def _assert_fractions(field, values):
    if field == QQ:
        for x in values:
            assert type(x) is Fraction, x


def _assert_agrees_with_gauss_jordan(m, rhs):
    """rref, rank, nullspace, solve and inverse of m against the values the
    dense `_gauss_jordan` oracle gives, in the same order; every Q entry a
    Fraction."""
    F = m.field
    rows, rk, pivots = _gauss_jordan(m)
    res = rref(m)
    assert (res.matrix.rows, res.rank, res.pivots) == (rows, rk, pivots)
    _assert_fractions(F, (x for row in res.matrix.rows for x in row))
    assert rank(m) == rk
    want = []
    for j in range(m.ncols):
        if j not in pivots:
            v = [F.zero()] * m.ncols
            v[j] = F.one()
            for i, pc in enumerate(pivots):
                v[pc] = F.convert(-rows[i][j])
            want.append(tuple(v))
    basis = nullspace(m)
    assert basis == want
    _assert_fractions(F, (x for v in basis for x in v))
    for b in rhs:
        aug_rows, _, aug_pivots = _gauss_jordan(matrix(F, [r + (x,) for r, x in zip(m.rows, b)]))
        if m.ncols in aug_pivots:
            assert solve(m, b) is None
        else:
            x = [F.zero()] * m.ncols
            for i, pc in enumerate(aug_pivots):
                x[pc] = aug_rows[i][m.ncols]
            got = solve(m, b)
            assert got == tuple(x)
            _assert_fractions(F, got)
    if m.nrows == m.ncols:
        n = m.nrows
        aug_rows, _, aug_pivots = _gauss_jordan(
            matrix(F, [r + unit_vector(F, n, i) for i, r in enumerate(m.rows)]))
        if aug_pivots[:n] != tuple(range(n)):
            with pytest.raises(InputError, match="^matrix is singular$"):
                inverse(m)
        else:
            got = inverse(m).rows
            assert got == tuple(row[n:] for row in aug_rows)
            _assert_fractions(F, (x for row in got for x in row))


_BOUNDARY_ENTRIES = (2, -3, 4, 6, Fraction(1, 2), Fraction(-5, 6), Fraction(7, 4),
                     Fraction(-2, 9), Fraction(10, 21))


def _boundary_matrix(rng, field):
    """A seeded matrix with non-unit and fractional entries (those whose
    denominator the field inverts), and often zero, repeated or dependent
    rows; square about one time in three."""
    entries = [x for x in _BOUNDARY_ENTRIES
               if field == QQ or Fraction(x).denominator % field.p]
    nrows = rng.randint(1, 6)
    ncols = nrows if rng.random() < 0.35 else rng.randint(1, 7)
    rows = [[rng.choice(entries) if rng.random() < 0.6 else 0 for _ in range(ncols)]
            for _ in range(nrows)]
    for i in range(1, nrows):
        shape = rng.random()
        if shape < 0.15:
            rows[i] = [0] * ncols
        elif shape < 0.3:
            rows[i] = list(rows[rng.randrange(i)])
        elif shape < 0.45:
            a, b = rng.choice(entries), rng.choice(entries)
            j, k = rng.randrange(i), rng.randrange(i)
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return matrix(field, rows)


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(7)], ids=str)
def test_the_kernel_agrees_with_gauss_jordan_on_seeded_matrices(field):
    for seed in range(150):
        rng = Random(seed)
        m = _boundary_matrix(rng, field)
        # a right-hand side in the column space, and one drawn at random
        weights = tuple(field.convert(rng.randint(-3, 3)) for _ in range(m.ncols))
        rhs = (mat_vec(m, weights),
               vector(field, [rng.choice((0, 1, Fraction(-5, 2))) for _ in range(m.nrows)]))
        _assert_agrees_with_gauss_jordan(m, rhs)


def test_the_kernel_agrees_with_gauss_jordan_on_the_signed_constraint_systems():
    # the benchmark's input: each row of the system times a seeded sign
    for n in range(3, 9):
        rng = Random(n)
        system = build_constraints(n)
        m = matrix(QQ, [[c * k for c in row] for row in system.rows.rows
                        for k in [rng.choice((-1, 1))]])
        _assert_agrees_with_gauss_jordan(m, ())
        assert len(nullspace(m)) == system.solution_dimension(), n
