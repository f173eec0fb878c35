"""Scalar rigidity over prime fields: the ratio criterion for additivity,
power-map characterizations of multiplicative injections, and the pencil
conditions forcing the identity."""

from __future__ import annotations

import itertools
from math import factorial

import pytest

from linemaps import (
    InputError,
    ResourceError,
    ScalarFunctionTable,
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
from linemaps import grid, grid_points, points_collinear
from linemaps.grid import _plane_pencil
from linemaps.scalars import (
    _brute_force_multiplicative_injections, _is_additive_image, _line_triples,
)

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


def test_scalar_table_rejects_values_that_are_not_ints():
    # int() would truncate 1.7 to 1 and take True for 1 and 2.0 for 2
    assert ScalarFunctionTable(3, (0, 4, 2)).values == (0, 1, 2)
    for values in ((0, 1.7, 2), (0, True, 2.0)):
        with pytest.raises(InputError, match="not an int"):
            ScalarFunctionTable(3, values)


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


@pytest.mark.parametrize("p", (3, 5, 7))
def test_multiplicative_brute_force_matches_the_permutation_scan(p):
    scan = [perm for perm in itertools.permutations(range(p))
            if is_multiplicative(ScalarFunctionTable(p, perm))]
    assert _brute_force_multiplicative_injections(p) == scan


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


def line_through(p, c, d):
    return [((c[0] + s * d[0]) % p, (c[1] + s * d[1]) % p) for s in range(p)]


def plane_directions(p):
    return [(0, 1)] + [(1, t) for t in range(p)]


def product_loop_diagonal_rigidity(p, x0):
    """The two-pencil search as the full f1 x f2 product loop: the oracle."""
    pencils = [line_through(p, c, d) for c in ((0, 0), x0) for d in plane_directions(p)]
    count, survivors = 0, []
    for f1 in bijections_fixing_0_1(p):
        for f2 in bijections_fixing_0_1(p):
            count += 1
            if all(points_collinear(p, [(f1(x), f2(y)) for x, y in line]) for line in pencils):
                survivors.append((f1.values, f2.values))
    return count, tuple(survivors)


@pytest.mark.parametrize("p", (3, 5, 7))
@pytest.mark.parametrize("x0", ((1, 0), (0, 1), (1, 1)))
def test_diagonal_rigidity_matches_the_product_loop(p, x0):
    report = verify_diagonal_rigidity(p, x0=x0)
    assert (report.candidates, report.survivors) == product_loop_diagonal_rigidity(p, x0)
    assert report.candidates == factorial(p - 2) ** 2


@pytest.mark.parametrize("p,nodes", ((3, 6), (5, 63), (7, 1773)))
def test_diagonal_search_node_counts(monkeypatch, p, nodes):
    # each pencil line is checked as triples (its first two points and one
    # other), each as soon as its slots fill: that fixes the work per p
    for x0 in ((1, 0), (0, 1), (1, 1)):
        monkeypatch.setattr(grid, "SEARCH_NODE_BUDGET", nodes)
        assert verify_diagonal_rigidity(p, x0=x0).ok
        monkeypatch.setattr(grid, "SEARCH_NODE_BUDGET", nodes - 1)
        with pytest.raises(ResourceError, match=f"budget of {nodes - 1} nodes"):
            verify_diagonal_rigidity(p, x0=x0)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_line_triples_find_every_bent_line(p):
    # for each line, a bijection of the plane that bends it at its last point
    # only: the identity with that point swapped for one off the line
    lines = sorted({tuple(line) for c in grid_points(p, 2) for line in _plane_pencil(p, c)})
    for line in lines:
        F = {x: x for x in grid_points(p, 2)}
        off = next(x for x in F if x not in line)
        F[line[-1]], F[off] = off, line[-1]
        bent = {ln[:2] for ln in lines if not points_collinear(p, [F[x] for x in ln])}
        flagged = {(a, b) for a, b, q in _line_triples(lines)
                   if not points_collinear(p, [F[a], F[b], F[q]])}
        assert line[:2] in bent
        assert flagged == bent


def test_plane_pencil_has_one_line_per_direction():
    for p in (3, 5, 7):
        for c in grid_points(p, 2):
            assert _plane_pencil(p, c) == [sorted(line_through(p, c, d))
                                           for d in plane_directions(p)]


def test_diagonal_rigidity_guards():
    with pytest.raises(ResourceError):
        verify_diagonal_rigidity(11)
    with pytest.raises(ResourceError):
        verify_diagonal_rigidity(3, n=3)
    with pytest.raises(InputError):
        verify_diagonal_rigidity(3, x0=(0, 0))
    with pytest.raises(InputError):
        verify_diagonal_rigidity(3, x0=(2, 1))


@pytest.mark.parametrize("verify,x0", (
    (verify_additive_rigidity, (1.5, 0)),      # int() would truncate it to (1, 0)
    (verify_additive_rigidity, (1, 2, 3)),     # indexing would drop the 3
    (verify_additive_rigidity, (1,)),          # indexing would raise IndexError
    (verify_diagonal_rigidity, (True, False)), # a bool would pass as (1, 0)
))
def test_pinning_point_must_be_a_pair_of_ints(verify, x0):
    with pytest.raises(InputError, match="x0"):
        verify(3, 2, x0)


def test_one_pencil_is_not_enough():
    # (x, y) -> (x^3, y^3) mod 5 carries every line through the origin onto a
    # line (t^3 sweeps all of Z_5), but bends lines through (1, 1)
    p = 5
    cube = lambda v: pow(v, 3, p)

    def pencil_straight(center):
        for line in _plane_pencil(p, center):
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


def apply_loop_additive_rigidity(p, x0):
    """The additive check on point tuples: each matrix applied to every
    pair of points, the pencil tested with points_collinear: the oracle."""
    pencil = _plane_pencil(p, x0)
    points = list(grid_points(p, 2))
    total = bijections = 0
    all_additive = all_lines = True
    for m in itertools.product(range(p), repeat=4):
        total += 1
        if (m[0] * m[3] - m[1] * m[2]) % p == 0:
            continue
        bijections += 1

        def apply(v):
            return ((m[0] * v[0] + m[1] * v[1]) % p, (m[2] * v[0] + m[3] * v[1]) % p)

        for a in points:
            for b in points:
                fa, fb, fs = apply(a), apply(b), apply(((a[0] + b[0]) % p, (a[1] + b[1]) % p))
                if fs != ((fa[0] + fb[0]) % p, (fa[1] + fb[1]) % p):
                    all_additive = False
        if not all(points_collinear(p, [apply(x) for x in line]) for line in pencil):
            all_lines = False
    expected = (p * p - 1) * (p * p - p)
    return {"p": p, "x0": list(x0), "matrices_total": total, "bijections": bijections,
            "expected_bijections": expected, "all_additive": all_additive,
            "all_lines_ok": all_lines,
            "ok": bijections == expected and all_additive and all_lines}


@pytest.mark.parametrize("p", (3, 5))
@pytest.mark.parametrize("x0", ((0, 0), (1, 2), (2, 1)))
def test_additive_rigidity_matches_the_apply_loop(p, x0):
    assert verify_additive_rigidity(p, 2, x0).to_json() == apply_loop_additive_rigidity(p, x0)


def test_additivity_check_rejects_a_swapped_table():
    # flat indices x*p + y; the identity is additive, and stops being so
    # once two images are swapped, so all_additive cannot pass vacuously
    p = 3
    add = [[(i // p + j // p) % p * p + (i + j) % p for j in range(p * p)] for i in range(p * p)]
    img = list(range(p * p))
    assert _is_additive_image(img, add)
    for i, j in ((1, 2), (0, 4), (7, 8)):
        swapped = img[:]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert not _is_additive_image(swapped, add)
