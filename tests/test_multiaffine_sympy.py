"""sympy as an independent oracle of the one expansion of a multiaffine map
with affine forms substituted for its variables: `compose`, `restrict_to_line`
and `evaluate` against sympy's own expansion, over Q, GF(5) and GF(7)."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from linemaps import (
    AffineMap,
    InputError,
    MultiAffineMap,
    PrimeField,
    QQ,
    compose,
    delta_to_mask,
    evaluate,
    matrix,
    restrict_to_line,
)

sympy = pytest.importorskip("sympy")

FIELDS = (QQ, PrimeField(5), PrimeField(7))


def _scalar(field, rng, zeros=0.3):
    """A random element of the field, zero with the given chance."""
    if rng.random() < zeros:
        return field.zero()
    if field == QQ:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return rng.randrange(field.p)


def _random_map(field, rng, n, m):
    coeffs = {mask: tuple(_scalar(field, rng) for _ in range(m))
              for mask in range(1 << n) if rng.random() < 0.6}
    return MultiAffineMap(n, m, field, coeffs)


def _random_affine(field, rng, rows, cols, zeros):
    a = matrix(field, [[_scalar(field, rng, zeros) for _ in range(cols)] for _ in range(rows)])
    return AffineMap(a, tuple(_scalar(field, rng) for _ in range(rows)))


def _sym(x):
    return sympy.Rational(x.numerator, x.denominator) if isinstance(x, Fraction) else sympy.Integer(x)


def _poly(field, expr, gens):
    if field == QQ:
        return sympy.Poly(expr, *gens, domain="QQ")
    return sympy.Poly(expr, *gens, modulus=field.p)


def _value(field, c):
    """A coefficient of a sympy Poly as an element of the field."""
    if field == QQ:
        return Fraction(int(c.p), int(c.q))
    return int(c) % field.p


def _sym_map(map_, xs):
    """The coordinates of F at the sympy expressions xs, not expanded."""
    return [sum((_sym(u[j]) * sympy.Mul(*[xs[i] for i in range(map_.n) if mask >> i & 1])
                 for mask, u in map_.coeffs.items()), sympy.Integer(0))
            for j in range(map_.m)]


def _sym_affine(aff, xs):
    return [sum((_sym(a) * x for a, x in zip(row, xs)), _sym(c))
            for row, c in zip(aff.matrix.rows, aff.offset)]


def _compose_agrees_with_sympy(left, map_, right):
    """Check compose(left, map_, right) against sympy's expansion: the
    InputError when F o right, reduced, keeps an exponent >= 2, else the
    coefficients of left o F o right.  Returns whether a square survived."""
    field, k, m_out = map_.field, right.matrix.ncols, left.matrix.nrows
    ys = sympy.symbols(f"y1:{k + 1}")
    inner = [_poly(field, f, ys) for f in _sym_map(map_, _sym_affine(right, ys))]
    # the square check reads F o right before the left map
    if any(e > 1 for q in inner if not q.is_zero for monom in q.monoms() for e in monom):
        with pytest.raises(InputError, match="a square survives"):
            compose(left, map_, right)
        return True
    expected = {}
    for j, f in enumerate(_sym_affine(left, [q.as_expr() for q in inner])):
        for monom, c in _poly(field, f, ys).terms():
            if c != 0:
                row = expected.setdefault(delta_to_mask(monom), [field.zero()] * m_out)
                row[j] = _value(field, c)
    got = compose(left, map_, right)
    assert (got.n, got.m, got.field) == (k, m_out, field)
    assert got.coeffs == {mask: tuple(row) for mask, row in expected.items()}
    return False


@pytest.mark.parametrize("field", FIELDS, ids=("Q", "GF5", "GF7"))
def test_compose_is_sympys_expansion(field):
    rng = Random(f"compose {field}")
    squares = []
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        k, m_out = rng.randint(1, 4), rng.randint(1, 3)
        map_ = _random_map(field, rng, n, m)
        # sparse right maps keep many products free of squares
        right = _random_affine(field, rng, n, k, rng.choice((0.3, 0.7)))
        left = _random_affine(field, rng, m_out, m, 0.3)
        squares.append(_compose_agrees_with_sympy(left, map_, right))
    assert any(squares) and not all(squares)


@pytest.mark.parametrize("field", FIELDS, ids=("Q", "GF5", "GF7"))
def test_a_square_that_cancels_in_the_sum_is_no_square(field):
    # x1 x2 - x1 x3 + x2 at x1 = x2 = x3 = y + 1: each product leaves a y^2,
    # their sum y + 1 none
    map_ = MultiAffineMap(3, 1, field, {0b011: (1,), 0b101: (field.convert(-1),), 0b010: (1,)})
    right = AffineMap(matrix(field, [[1]] * 3), (1, 1, 1))
    left = AffineMap(matrix(field, [[1]]), (0,))
    assert not _compose_agrees_with_sympy(left, map_, right)
    assert compose(left, map_, right).coeffs == {0: (1,), 1: (1,)}


@pytest.mark.parametrize("field", FIELDS, ids=("Q", "GF5", "GF7"))
def test_restriction_and_evaluation_are_sympys_expansion(field):
    rng = Random(f"restrict {field}")
    t = sympy.Symbol("t")
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        map_ = _random_map(field, rng, n, m)
        a = tuple(_scalar(field, rng) for _ in range(n))
        b = tuple(_scalar(field, rng, 0.5) for _ in range(n))
        if not any(b):
            b = b[:-1] + (field.one(),)
        line = [_sym(x) + _sym(y) * t for x, y in zip(a, b)]
        polys = [_poly(field, f, (t,)) for f in _sym_map(map_, line)]
        top = max([q.degree() for q in polys if not q.is_zero], default=0)
        expected = tuple(tuple(_value(field, q.coeff_monomial(t ** k)) for q in polys)
                         for k in range(top + 1))
        curve = restrict_to_line(map_, a, b)
        assert curve.coeffs == expected
        points = range(field.p) if field != QQ else (Fraction(-3), Fraction(1, 2), Fraction(5))
        for s in points:
            x = tuple(field.convert(ai + s * bi) for ai, bi in zip(a, b))
            assert evaluate(map_, x) == tuple(_value(field, q.eval(_sym(s))) for q in polys)
