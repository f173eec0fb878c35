"""Multiaffine normal form: evaluation, restriction, composition, tables."""

from __future__ import annotations

import time
from fractions import Fraction
from random import Random

import pytest

from linemaps import (
    AffineMap,
    InputError,
    LineFamily,
    MultiAffineMap,
    PrimeField,
    QQ,
    ResourceError,
    check_family,
    compose,
    construct_sharp_map,
    curve_lies_in_line,
    delta_to_mask,
    evaluate,
    example_r3_map,
    four_direction_form,
    grid_points,
    identity_map,
    identity_matrix,
    map_from_json,
    map_to_json,
    mask_to_delta,
    matrix,
    noninjective_r4_variant,
    reduce_mod,
    restrict_to_line,
    sample_constrained_map,
    sharp_r4_map,
    tabulate,
    vector,
)

# ---------------------------------------------------------------------------
# masks and construction
# ---------------------------------------------------------------------------


def test_mask_delta_round_trip():
    for n in (1, 2, 3, 5):
        for mask in range(1 << n):
            assert delta_to_mask(mask_to_delta(mask, n)) == mask
    assert mask_to_delta(0b101, 3) == (1, 0, 1)


def test_zero_coefficients_are_dropped():
    m = MultiAffineMap(2, 1, QQ, {0b01: (Fraction(1),), 0b10: (Fraction(0),)})
    assert set(m.coeffs) == {0b01}
    assert m.degree() == 1


def test_identity_map_evaluates_to_itself():
    m = identity_map(QQ, 3)
    assert evaluate(m, vector(QQ, (5, -2, 7))) == (5, -2, 7)
    assert m.degree() == 1


# ---------------------------------------------------------------------------
# the canonical 3-dimensional example
#   P(x) = (x1 + x3(x1 - x2), x2 + x3(x1 - x2), x3)
# ---------------------------------------------------------------------------


def test_example_map_point_values():
    P = example_r3_map(QQ)
    assert evaluate(P, vector(QQ, (1, 2, 3))) == (-2, -1, 3)
    assert evaluate(P, vector(QQ, (0, 0, 0))) == (0, 0, 0)
    assert evaluate(P, vector(QQ, (1, 1, 9))) == (1, 1, 9)  # fixed plane x1=x2


def test_example_map_is_not_additive():
    P = example_r3_map(QQ)
    a = vector(QQ, (0, 0, 1))
    b = vector(QQ, (0, 1, 0))
    lhs = evaluate(P, vector(QQ, (0, 1, 1)))
    rhs = tuple(x + y for x, y in zip(evaluate(P, a), evaluate(P, b)))
    assert lhs != rhs


def test_example_map_bijective_mod_5():
    table = tabulate(reduce_mod(example_r3_map(QQ), 5))
    assert table.is_bijection()


# ---------------------------------------------------------------------------
# restriction to lines
# ---------------------------------------------------------------------------


def test_restriction_matches_evaluation():
    P = example_r3_map(QQ)
    a = vector(QQ, (1, 2, 3))
    b = vector(QQ, (1, 1, -1))
    curve = restrict_to_line(P, a, b)
    for t in range(-3, 4):
        ft = Fraction(t)
        pt = tuple(ai + ft * bi for ai, bi in zip(a, b))
        assert curve.at(ft) == evaluate(P, pt)


def test_restriction_degrees():
    P = example_r3_map(QQ)
    origin = vector(QQ, (0, 0, 0))
    assert restrict_to_line(P, origin, vector(QQ, (1, 0, 0))).degree == 1
    # the diagonal direction stays a line only because the quadratic parts
    # of the two moving coordinates agree
    diag = restrict_to_line(P, origin, vector(QQ, (1, 1, 1)))
    assert diag.degree == 1
    skew = restrict_to_line(P, origin, vector(QQ, (1, 0, 1)))
    assert skew.degree == 2
    assert not curve_lies_in_line(skew)


def test_curve_in_line_accepts_constants():
    const = MultiAffineMap(2, 2, QQ, {0: (Fraction(4), Fraction(7))})
    c = restrict_to_line(const, vector(QQ, (1, 1)), vector(QQ, (1, 0)))
    assert c.degree == 0
    assert curve_lies_in_line(c)
    with pytest.raises(InputError):
        restrict_to_line(const, vector(QQ, (1, 1)), vector(QQ, (0, 0)))


# ---------------------------------------------------------------------------
# composition with affine maps
# ---------------------------------------------------------------------------


def affine_identity(field, n):
    return AffineMap(identity_matrix(field, n), (0,) * n)


def test_compose_with_identities_is_identity():
    P = example_r3_map(QQ)
    same = compose(affine_identity(QQ, 3), P, affine_identity(QQ, 3))
    assert same.coeffs == P.coeffs


def test_compose_with_translation():
    P = example_r3_map(QQ)
    shift = AffineMap(matrix(QQ, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
                      vector(QQ, (1, 0, 0)))
    shifted = compose(affine_identity(QQ, 3), P, shift)
    for x in ((0, 0, 0), (1, 2, 3), (-1, 4, 2)):
        moved = (x[0] + 1, x[1], x[2])
        assert evaluate(shifted, vector(QQ, x)) == evaluate(P, vector(QQ, moved))


def test_rebasing_turns_third_axis_into_line_direction():
    # Pre-composing with the basis change sending e3 to e1 + e2 - e3 yields a
    # map carrying all lines parallel to e3 onto lines (mod 5, exhaustively).
    P = example_r3_map(QQ)
    basis_change = AffineMap(
        matrix(QQ, ((1, 0, 1), (0, 1, 1), (0, 0, -1))),  # columns e1, e2, e1+e2-e3
        vector(QQ, (0, 0, 0)))
    Q = compose(affine_identity(QQ, 3), P, basis_change)
    table = tabulate(reduce_mod(Q, 5))
    fam = LineFamily(QQ, 3, ((0, 0, 1),))
    assert check_family(table, fam, mode="onto").ok


def test_compose_rejects_non_multiaffine_results():
    # x1 * x2 pre-composed with (x1 + x2, x1 - x2) leaves x1^2 - x2^2
    product = MultiAffineMap(2, 1, QQ, {0b11: (Fraction(1),)})
    mix = AffineMap(matrix(QQ, ((1, 1), (1, -1))), vector(QQ, (0, 0)))
    with pytest.raises(InputError):
        compose(affine_identity(QQ, 1), product, mix)


# ---------------------------------------------------------------------------
# tables and serialization
# ---------------------------------------------------------------------------


def test_tabulate_agrees_with_evaluate():
    F = PrimeField(3)
    m = reduce_mod(example_r3_map(QQ), 3)
    table = tabulate(m)
    assert table.apply((1, 2, 0)) == tuple(evaluate(m, (1, 2, 0)))


def _seeded_maps(rng, p, n):
    """Over Z_p: for each m = 1..4 a map with each monomial present by a coin
    toss, then the constant-only map and the identity."""
    F = PrimeField(p)
    maps = [MultiAffineMap(n, m, F, {mask: tuple(rng.randrange(p) for _ in range(m))
                                     for mask in range(1 << n) if rng.random() < 0.6})
            for m in (1, 2, 3, 4)]
    return maps + [MultiAffineMap(n, 2, F, {0: (rng.randrange(1, p), rng.randrange(p))}),
                   identity_map(F, n)]


@pytest.mark.parametrize("p", (3, 5, 7))
@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_tabulate_is_evaluate_at_every_grid_point(p, n):
    # the column-wise tabulation against one `evaluate` call per point
    rng = Random(100 * p + n)
    for map_ in _seeded_maps(rng, p, n):
        table = tabulate(map_)
        assert (table.p, table.n, table.m) == (p, n, map_.m)
        assert table.values == tuple(evaluate(map_, x) for x in grid_points(p, n))


def _maps_over_q():
    """Seeded constraint solutions and the stock examples, over Q, every
    denominator prime to 3, 5 and 7."""
    rng = Random(18)
    return [*(sample_constrained_map(n, m, rng) for n, m in ((2, 2), (3, 3), (3, 2))
              for _ in range(3)),
            example_r3_map(QQ), four_direction_form(Fraction(2, 11), 1),
            four_direction_form(Fraction(-5, 4), 2), sharp_r4_map(QQ),
            noninjective_r4_variant(QQ), construct_sharp_map(4).map, identity_map(QQ, 3)]


@pytest.mark.parametrize("p", (3, 5, 7))
def test_reduce_once_agrees_with_the_rationals_mod_p(p):
    # over Z_p evaluate sums and multiplies unreduced ints and reduces once:
    # at every grid point that must equal exact evaluation over Q, reduced
    F = PrimeField(p)
    for mp in _maps_over_q():
        red = reduce_mod(mp, p)
        for x, got in zip(grid_points(p, mp.n), tabulate(red).values):
            want = tuple(F.convert(y) for y in evaluate(mp, x))
            assert evaluate(red, x) == got == want, (mp, x)


def test_tabulate_budget_guard():
    # the r3 map over Z_101 has 101^3 = 1,030,301 points, past the point
    # budget: refused before a coefficient is read, so before any value
    m = reduce_mod(example_r3_map(QQ), 101)

    class Unread(dict):
        def get(self, *args):
            raise AssertionError("a coefficient was read")

    object.__setattr__(m, "coeffs", Unread(m.coeffs))
    with pytest.raises(ResourceError, match="a grid of 101\\^3 points exceeds the point budget"):
        tabulate(m)


def test_map_json_round_trip():
    for m in (example_r3_map(QQ), reduce_mod(example_r3_map(QQ), 7)):
        back = map_from_json(map_to_json(m))
        assert back.field == m.field
        assert back.coeffs == m.coeffs


def test_map_json_rejects_duplicate_deltas():
    obj = map_to_json(identity_map(QQ, 2))
    obj["coeffs"] = obj["coeffs"] + [obj["coeffs"][0]]
    with pytest.raises(InputError):
        map_from_json(obj)


# Each of these was once truncated or coerced: n = 2.7 became 2, m = 2.0
# became 2, a true delta entry or coefficient became 1.

def test_map_json_rejects_dimensions_that_are_not_ints():
    for key in ("n", "m"):
        for bad in (2.7, 2.0, True, "2"):
            obj = map_to_json(identity_map(QQ, 2))
            obj[key] = bad
            with pytest.raises(InputError, match="not an int"):
                map_from_json(obj)


def test_map_json_rejects_delta_entries_that_are_not_ints():
    for bad in (True, 1.0):
        obj = map_to_json(identity_map(QQ, 2))
        obj["coeffs"][0]["delta"] = [bad, 0]
        with pytest.raises(InputError, match="delta entries"):
            map_from_json(obj)


def test_map_json_rejects_a_delta_or_value_that_is_not_a_list():
    # a string value was read by its characters and an object by its keys:
    # "12" became the vector (1, 2) and {"3": 0, "4": 1} became (3, 4)
    for key, bad in (("value", "12"), ("value", {"3": 0, "4": 1}),
                     ("delta", "10"), ("delta", {"1": 0, "0": 1})):
        obj = map_to_json(identity_map(QQ, 2))
        obj["coeffs"][0][key] = bad
        with pytest.raises(InputError, match="delta and value must be lists"):
            map_from_json(obj)


def test_map_json_rejects_bool_coefficients():
    for field in (QQ, PrimeField(7)):
        obj = map_to_json(identity_map(field, 2))
        obj["coeffs"][0]["value"] = [True, 0]
        with pytest.raises(InputError, match="literal"):
            map_from_json(obj)


def test_map_json_bad_literals_are_input_errors():
    # a ValueError or ZeroDivisionError from the literal once escaped as such
    for field, bad in ((QQ, "abc"), (QQ, "1/0"), (PrimeField(7), "abc")):
        obj = map_to_json(identity_map(field, 2))
        obj["coeffs"][0]["value"] = [bad, 0]
        with pytest.raises(InputError):
            map_from_json(obj)


def test_a_rational_literal_past_the_digit_limit_is_refused_before_it_is_built():
    # a map coefficient "1e20000000" was built by Fraction in 32 s, and
    # "1e-5000" got as far as a ValueError formatting its 5,001-digit
    # denominator; the literal's digits are now counted from its text
    for bad in ("1e4300", "1e-4300", "1e99999999"):
        obj = map_to_json(identity_map(QQ, 2))
        obj["coeffs"][0]["value"] = [bad, 0]
        t0 = time.perf_counter()
        with pytest.raises(InputError, match="bad map JSON: a literal of more than 4300 digits"):
            map_from_json(obj)
        assert time.perf_counter() - t0 < 0.1
    t0 = time.perf_counter()
    with pytest.raises(InputError, match="a literal of more than 4300 digits"):
        QQ.convert("1e9999999")
    assert time.perf_counter() - t0 < 0.1
    # at the limit the value is read exactly
    obj = map_to_json(identity_map(QQ, 2))
    obj["coeffs"][0]["value"] = ["1e4299", 0]
    assert map_from_json(obj).coeffs[delta_to_mask([1, 0])] == (10 ** 4299, 0)
    assert QQ.convert("1e4299") == 10 ** 4299
