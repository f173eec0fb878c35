"""Scalar rigidity over prime fields: the ratio criterion for additivity,
power-map characterizations of multiplicative injections, and the pencil
conditions forcing the identity."""

from __future__ import annotations

import pytest

from linemaps import (
    InputError,
    ResourceError,
    ScalarFunctionTable,
    additive_scalar_bijections,
    bijections_fixing_0_1,
    identity_table,
    is_additive,
    is_multiplicative,
    multiplicative_injections,
    ratio_criterion,
    verify_additive_rigidity,
    verify_diagonal_rigidity,
    verify_multiplicative_rigidity,
)
from linemaps import points_collinear
from linemaps.scalars import _line_through

# ---------------------------------------------------------------------------
# scalar tables
# ---------------------------------------------------------------------------


def test_table_basics():
    f = identity_table(5)
    assert f(3) == 3
    assert f.is_bijection()
    assert is_additive(f) and is_multiplicative(f)
    squash = ScalarFunctionTable(3, (0, 0, 0))
    assert not squash.is_bijection()
    with pytest.raises(InputError):
        ScalarFunctionTable(3, (0, 1))  # wrong length


def test_additive_bijections_are_the_scalings():
    for p in (3, 5, 7):
        fs = additive_scalar_bijections(p)
        assert len(fs) == p - 1
        assert [f(1) for f in fs] == list(range(1, p))
        # the only additive bijection fixing 1 is the identity
        fixing_one = [f for f in fs if f(1) == 1]
        assert fixing_one == [identity_table(p)]


def test_bijections_fixing_0_1_count():
    assert sum(1 for _ in bijections_fixing_0_1(3)) == 1
    assert sum(1 for _ in bijections_fixing_0_1(5)) == 6
    first = next(iter(bijections_fixing_0_1(5)))
    assert first.values == (0, 1, 2, 3, 4)  # lexicographically least


def test_cube_is_multiplicative_but_not_additive_mod_5():
    cube = ScalarFunctionTable(5, tuple(pow(x, 3, 5) for x in range(5)))
    assert cube.is_bijection()
    assert is_multiplicative(cube)
    assert not is_additive(cube)


# ---------------------------------------------------------------------------
# ratio criterion: (f(a+b) - f(b)) / f(a) independent of a  <=>  additive
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,total", ((3, 1), (5, 6), (7, 120)))
def test_ratio_criterion_characterizes_additivity(p, total):
    report = ratio_criterion(p)
    assert report.ok
    assert report.candidates == total
    assert report.passing_all_additive and report.additive_all_passing
    # among bijections fixing 0 and 1 only the identity is additive
    assert report.passing == (tuple(range(p)),)


def test_ratio_criterion_guard():
    with pytest.raises(ResourceError):
        ratio_criterion(11)
    with pytest.raises(InputError):
        ratio_criterion(4)


# ---------------------------------------------------------------------------
# multiplicative injections are power maps; normalizations force identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,exponents", (
    (3, (1,)),
    (5, (1, 3)),
    (7, (1, 5)),
    (11, (1, 3, 7, 9)),
    (13, (1, 5, 7, 11)),
))
def test_multiplicative_injection_exponents(p, exponents):
    maps = multiplicative_injections(p)
    expected = [tuple(pow(x, k, p) for x in range(p)) for k in exponents]
    assert [f.values for f in maps] == expected
    for f in maps:
        assert is_multiplicative(f)
        assert f.is_bijection()
    assert verify_multiplicative_rigidity(p).exponents == exponents


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
def test_multiplicative_rigidity(p):
    report = verify_multiplicative_rigidity(p)
    assert report.ok
    assert report.shifted_identity_only
    assert report.scaled_identity_only
    assert report.f2_equal_one == ()
    if p <= 7:
        assert report.brute_force_agrees is True
    else:
        assert report.brute_force_agrees is None


# ---------------------------------------------------------------------------
# two pencils of lines in the plane force diagonal maps to be the identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", (3, 5))
@pytest.mark.parametrize("x0", ((1, 0), (1, 1)))
def test_diagonal_rigidity_identity_only(p, x0):
    report = verify_diagonal_rigidity(p, x0=x0)
    assert report.ok
    assert report.identity_only
    assert report.survivors == ((tuple(range(p)), tuple(range(p))),)


def test_diagonal_rigidity_guards():
    with pytest.raises(ResourceError):
        verify_diagonal_rigidity(11)
    with pytest.raises(ResourceError):
        verify_diagonal_rigidity(3, n=3)
    with pytest.raises(InputError):
        verify_diagonal_rigidity(3, x0=(0, 0))
    with pytest.raises(InputError):
        verify_diagonal_rigidity(3, x0=(2, 1))


def test_one_pencil_is_not_enough():
    # (x, y) -> (x^3, y^3) mod 5 carries every line through the origin onto a
    # line (t^3 sweeps all of Z_5), but bends lines through (1, 1)
    p = 5
    cube = lambda v: pow(v, 3, p)
    dirs = [(1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (1, 4)]

    def pencil_straight(center):
        for d in dirs:
            line = _line_through(p, center, d)
            images = {(cube(x), cube(y)) for x, y in line}
            if len(images) != p or not points_collinear(p, sorted(images)):
                return False
        return True

    assert pencil_straight((0, 0))
    assert not pencil_straight((1, 1))


# ---------------------------------------------------------------------------
# additive bijections of the plane = invertible matrices; pencils come free
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,count", ((3, 48), (5, 480)))
def test_additive_rigidity(p, count):
    report = verify_additive_rigidity(p)
    assert report.ok
    assert report.matrices_total == p ** 4
    assert report.bijections == count  # (p^2 - 1)(p^2 - p)
    assert report.expected_bijections == count
    assert report.all_additive and report.all_lines_ok


def test_additive_rigidity_guards():
    with pytest.raises(ResourceError):
        verify_additive_rigidity(7)
    with pytest.raises(InputError):
        verify_additive_rigidity(9, max_p=11)
