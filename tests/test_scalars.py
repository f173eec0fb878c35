"""Scalar rigidity over prime fields: the ratio criterion for additivity,
power-map characterizations of multiplicative injections, and the pencil
conditions forcing the identity."""

from __future__ import annotations

import itertools
import time
from collections import Counter
from math import factorial
from operator import itemgetter
from random import Random

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
from linemaps import grid, grid_points, points_collinear, scalars
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


def ratio_scan(p):
    """The ratio criterion as a scan of every bijection fixing 0 and 1, each
    quotient taken for every a and b: the oracle of the search."""
    passing, all_additive, additive_pass, count = [], True, True, 0
    for f in bijections_fixing_0_1(p):
        count += 1
        v = f.values
        ok = all(len({(v[(a + b) % p] - v[b]) * pow(v[a], p - 2, p) % p
                      for a in range(1, p)}) == 1 for b in range(p))
        if ok:
            passing.append(v)
            all_additive = all_additive and is_additive(f)
        elif is_additive(f):
            additive_pass = False
    return {"p": p, "candidates": count, "passing": [list(v) for v in passing],
            "passing_all_additive": all_additive, "additive_all_passing": additive_pass,
            "ok": all_additive and additive_pass}


@pytest.mark.parametrize("p", (3, 5, 7))
def test_ratio_search_matches_the_bijection_scan(p):
    assert ratio_criterion(p).to_json() == ratio_scan(p)


@pytest.mark.parametrize("p,nodes", ((3, 3), (5, 25), (7, 71), (11, 379)))
def test_ratio_search_node_counts(monkeypatch, p, nodes):
    # one constraint per (a, b), a >= 2 and b >= 1, checked as soon as its
    # slots a, b, a+b and 1+b fill: that fixes the work per p
    monkeypatch.setattr(scalars, "RATIO_MAX_P", p)
    monkeypatch.setattr(grid, "SEARCH_NODE_BUDGET", nodes)
    assert ratio_criterion(p).passing == (tuple(range(p)),)
    monkeypatch.setattr(grid, "SEARCH_NODE_BUDGET", nodes - 1)
    with pytest.raises(ResourceError, match=f"budget of {nodes - 1} nodes"):
        ratio_criterion(p)


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


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 17))
def test_multiplicative_rigidity(p):
    report = verify_multiplicative_rigidity(p)
    assert report.ok
    assert report.shifted_identity_only
    assert report.scaled_identity_only
    assert report.f2_equal_one == ()
    assert report.brute_force_agrees is True


def test_a_brute_force_past_the_budget_leaves_the_cross_check_open(monkeypatch):
    # at p = 11 the 528 pair checks fit in 1,000 nodes and the 1,287 nodes
    # of the brute force do not: the lemma still answers, without it
    monkeypatch.setattr(grid, "SEARCH_NODE_BUDGET", 1000)
    report = verify_multiplicative_rigidity(11)
    assert report.brute_force_agrees is None
    assert report.ok and report.exponents == (1, 3, 7, 9)
    with pytest.raises(ResourceError, match="budget of 1000 nodes"):
        _brute_force_multiplicative_injections(11)
    monkeypatch.setattr(grid, "SEARCH_NODE_BUDGET", 1287)
    assert verify_multiplicative_rigidity(11).brute_force_agrees is True


def test_multiplicative_rigidity_guard(monkeypatch):
    # phi(p-1) p (p+1) pair checks: 12, 60, 112, 528, 728 for p = 3 .. 13
    for p in (3, 5, 7, 11, 13):
        assert verify_multiplicative_rigidity(p).ok
    # unguarded, p = 7919 tested its 3,816 power maps for 46 s
    t0 = time.perf_counter()
    with pytest.raises(ResourceError, match="budget of 1000000 nodes"):
        verify_multiplicative_rigidity(7919)
    assert time.perf_counter() - t0 < 0.1

    def never(p):
        raise AssertionError("reached")

    # the boundary, with no candidate built past it
    monkeypatch.setattr(scalars, "multiplicative_injections", never)
    monkeypatch.setattr(grid, "SEARCH_NODE_BUDGET", 112)
    with pytest.raises(AssertionError, match="reached"):
        verify_multiplicative_rigidity(7)  # phi(6) * 7 * 8 = 112
    monkeypatch.setattr(grid, "SEARCH_NODE_BUDGET", 111)
    with pytest.raises(ResourceError, match="budget of 111 nodes"):
        verify_multiplicative_rigidity(7)
    # p(p+1) alone passes the guard: the exponents of a huge p are not listed
    monkeypatch.setattr(scalars, "_power_exponents", never)
    with pytest.raises(ResourceError, match="budget of 111 nodes"):
        verify_multiplicative_rigidity(1000000007)
    with pytest.raises(InputError, match="not prime"):
        verify_multiplicative_rigidity(10 ** 9)


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


def plane_pencil(p, c):
    """The p+1 lines of (Z_p)^2 through c, one a direction, each sorted."""
    return [sorted(line_through(p, c, d)) for d in plane_directions(p)]


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
    lines = sorted({tuple(line) for c in grid_points(p, 2) for line in plane_pencil(p, c)})
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
    # the pencils of the plane's incidence structure, in the direction order
    # (0,1), (1,0), ..., (1,p-1) that the two-pencil node counts rest on
    for p in (3, 5, 7):
        points = list(grid_points(p, 2))
        pencils = grid._affine_incidence(p, 2).pencils
        for i, c in enumerate(points):
            assert [[points[j] for j in line] for line in pencils[i]] == plane_pencil(p, c)


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
    (verify_diagonal_rigidity, (0, 0)),
    (verify_diagonal_rigidity, (2, 1)),
    (verify_diagonal_rigidity, (1.5, 0)),
    (verify_additive_rigidity, (1, 2, 3)),
    (verify_additive_rigidity, (True, 0)),
))
def test_a_bad_pinning_point_is_read_before_the_size_guard(verify, x0):
    # p = 11 is past both lemmas' guards, yet bad input is an InputError
    with pytest.raises(InputError, match="x0"):
        verify(11, 2, x0)


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
        for line in plane_pencil(p, center):
            images = {(cube(x), cube(y)) for x, y in line}
            if len(images) != p or not points_collinear(p, sorted(images)):
                return False
        return True

    assert pencil_straight((0, 0))
    assert not pencil_straight((1, 1))


# ---------------------------------------------------------------------------
# additive bijections of the plane = invertible matrices; pencils come free
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,count", ((3, 48), (5, 480), (7, 2016)))
def test_additive_rigidity(p, count):
    report = verify_additive_rigidity(p)
    assert report.ok
    assert report.matrices_total == p ** 4
    assert report.bijections == count  # (p^2 - 1)(p^2 - p)
    assert report.expected_bijections == count
    assert report.all_additive and report.all_lines_ok


def test_additive_rigidity_guards():
    # p^4 matrices times p^2 points: 11^6 passes the node budget of 10^6
    with pytest.raises(ResourceError, match="budget of 1000000 nodes"):
        verify_additive_rigidity(11)
    with pytest.raises(InputError):
        verify_additive_rigidity(9)


def test_additive_rigidity_budget_boundary(monkeypatch):
    monkeypatch.setattr(grid, "SEARCH_NODE_BUDGET", 5 ** 6)
    assert verify_additive_rigidity(5).ok
    monkeypatch.setattr(grid, "SEARCH_NODE_BUDGET", 5 ** 6 - 1)
    with pytest.raises(ResourceError, match="budget of 15624 nodes"):
        verify_additive_rigidity(5)


def apply_loop_additive_rigidity(p, x0):
    """The additive check on point tuples: each matrix applied to every
    pair of points, the pencil tested with points_collinear: the oracle."""
    pencil = plane_pencil(p, x0)
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


def all_pairs_additive(img, add):
    """F(a+b) = F(a) + F(b) for every ordered pair of points: the oracle of
    the generator test.  Row a compares F(a+b) with F(a) + F(b) for every b."""
    pick = itemgetter(*img)
    return all(itemgetter(*row)(img) == pick(add[img[a]]) for a, row in enumerate(add))


def plane_addition(p):
    """add[a][b], the flat index of a+b, for flat indices x*p + y."""
    return [[(i // p + j // p) % p * p + (i + j) % p for j in range(p * p)] for i in range(p * p)]


def test_the_generator_test_matches_all_pairs_on_every_bijection_fixing_0_mod_3():
    # additive along e1 and e2 forces F(0) = 0 and linearity: exactly the 48
    # invertible matrices pass, among the 8! bijections fixing 0
    add = plane_addition(3)
    additive = 0
    for rest in itertools.permutations(range(1, 9)):
        img = (0,) + rest
        verdict = _is_additive_image(img, add)
        assert verdict == all_pairs_additive(img, add), img
        additive += verdict
    assert additive == 48


def map_additive_along_one_axis(rng, p):
    """A seeded bijection F of (Z_p)^2, as flat indices, and the flat index
    of a generator e with F(x+e) = F(x) + F(e) for every x: A applied to
    (s + c(t), h(t)) for e = e1 or to (h(s), t + c(s)) for e = e2, with c
    fixing 0 and h a bijection fixing 0.  Along the other generator it is
    additive only if c and h are linear."""
    c = [0] + [rng.randrange(p) for _ in range(p - 1)]
    h = [0] + rng.sample(range(1, p), p - 1)
    while True:
        a = [rng.randrange(p) for _ in range(4)]
        if (a[0] * a[3] - a[1] * a[2]) % p:
            break
    along_e1 = rng.random() < 0.5
    img = []
    for s, t in grid_points(p, 2):
        x, y = ((s + c[t]) % p, h[t]) if along_e1 else (h[s], (t + c[s]) % p)
        img.append((a[0] * x + a[1] * y) % p * p + (a[2] * x + a[3] * y) % p)
    return img, p if along_e1 else 1


def test_the_generator_test_matches_all_pairs_on_seeded_maps_mod_5():
    p = 5
    add = plane_addition(p)
    rng = Random(27)
    linear = [[(m[0] * x + m[1] * y) % p * p + (m[2] * x + m[3] * y) % p
               for x, y in grid_points(p, 2)]
              for m in itertools.product(range(p), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % p]
    one_axis = []
    for _ in range(400):
        img, e = map_additive_along_one_axis(rng, p)
        assert all(img[add[x][e]] == add[img[x]][img[e]] for x in range(p * p))
        one_axis.append(img)
    shuffled = [rng.sample(range(p * p), p * p) for _ in range(400)]
    verdicts = Counter()
    for kind, maps in (("linear", linear), ("one axis", one_axis), ("shuffled", shuffled)):
        for img in maps:
            verdict = _is_additive_image(img, add)
            assert verdict == all_pairs_additive(img, add), (kind, img)
            verdicts[kind, verdict] += 1
    # no map of this seed has c and h both linear, so each fails along its other axis
    assert verdicts == {("linear", True): 480, ("one axis", False): 400, ("shuffled", False): 400}


@pytest.mark.parametrize("p", (3, 5))
def test_additive_rigidity_report_at_every_pinning_point(p):
    for x0 in grid_points(p, 2):
        assert verify_additive_rigidity(p, 2, x0).to_json() == {
            "p": p, "x0": list(x0), "matrices_total": p ** 4,
            "bijections": (p * p - 1) * (p * p - p),
            "expected_bijections": (p * p - 1) * (p * p - p),
            "all_additive": True, "all_lines_ok": True, "ok": True}
