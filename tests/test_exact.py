"""Exact arithmetic core: fields, vectors, and the linear-algebra kernel."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemaps import (
    InputError,
    Matrix,
    PrimeField,
    QQ,
    ResourceError,
    identity_matrix,
    inverse,
    is_invertible,
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
from linemaps.exact import _is_prime

# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


def test_rationals_are_exact():
    a = QQ.convert(Fraction(1, 3))
    b = QQ.convert(Fraction(1, 6))
    assert QQ.add(a, b) == Fraction(1, 2)
    assert QQ.mul(a, QQ.inv(a)) == 1
    assert QQ.parse(QQ.to_json(Fraction(-7, 12))) == Fraction(-7, 12)


def test_prime_field_arithmetic():
    F = PrimeField(7)
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.neg(0) == 0
    assert sorted(F.iter_elements()) == list(range(7))


def test_prime_field_rejects_two_and_composites():
    with pytest.raises(InputError):
        PrimeField(2)
    with pytest.raises(InputError):
        PrimeField(9)
    with pytest.raises(InputError):
        PrimeField(1)


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
    assert is_invertible(m)
    assert mat_mul(m, inverse(m)).rows == identity_matrix(PrimeField(5), 2).rows
    with pytest.raises(InputError):
        inverse(matrix(QQ, ((1, 2), (2, 4))))


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
