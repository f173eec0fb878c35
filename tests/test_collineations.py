"""Finite-grid line families: onto/into checks, parallelism, normal forms,
span invariants, and the exhaustive bijection search."""

from __future__ import annotations

import itertools
import time
from collections import Counter
from functools import lru_cache
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemaps import (
    DiagonalForm,
    FiniteMapTable,
    InputError,
    LineFamily,
    PlaneForm,
    PrimeField,
    QQ,
    ResourceError,
    check_family,
    enumerate_lines,
    example_r3_map,
    exhaustive_bijection_search,
    grid_points,
    parallelism_report,
    point_index,
    points_collinear,
    rank_of_vectors,
    recover_diagonal_form,
    recover_plane_form,
    reduce_mod,
    s_family,
    standard_family,
    table_from_function,
    table_from_json,
    table_to_json,
    tabulate,
    tabulate_diagonal_form,
    vectors_parallel,
    verify_span_invariants,
)
from linemaps import collineations, grid
from linemaps.collineations import FamilyReport, Violation
from linemaps.exact import InternalInconsistencyError, normalize_coords
from linemaps.grid import _backtrack


def identity_table(p, n):
    return table_from_function(p, n, n, lambda x: x)


def torn_table():
    """The identity of (Z_5)^2 with the images of (0,0) and (1,1) swapped: it
    is injective, but tears the e1-line and the e2-line through the origin;
    the (1,1)-lines stay lines (the swap stays inside one of them)."""
    swap = {(0, 0): (1, 1), (1, 1): (0, 0)}
    return table_from_function(5, 2, 2, lambda x: swap.get(x, x))


@pytest.fixture(scope="module")
def example_table_p5():
    return tabulate(reduce_mod(example_r3_map(QQ), 5))


# ---------------------------------------------------------------------------
# families and line enumeration
# ---------------------------------------------------------------------------


def test_family_rejects_zero_and_parallel_directions():
    with pytest.raises(InputError):
        LineFamily(QQ, 2, ((0, 0),))
    with pytest.raises(InputError):
        LineFamily(QQ, 2, ((1, 2), (2, 4)))


def test_family_rejects_an_empty_direction_list():
    # an empty family constrains nothing: the search would list every bijection
    with pytest.raises(InputError, match="at least one direction"):
        LineFamily(QQ, 2, ())


def test_standard_family_directions():
    fam = standard_family(QQ, 3)
    assert fam.directions == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    with_diag = standard_family(QQ, 3, with_diagonal=True)
    assert with_diag.directions[-1] == (1, 1, 1)


def test_s_family_sizes_and_duplicate_collapse():
    # n = 2: the all-ones diagonal coincides with e1 + e2
    assert len(s_family(2).directions) == 3
    assert len(s_family(3).directions) == 7
    assert len(s_family(4).directions) == 11


def test_enumerate_lines_partitions_the_grid():
    for d in ((1, 0, 0), (1, 1, 0), (1, 2, 4)):
        lines = enumerate_lines(5, 3, d)
        assert len(lines) == 25
        seen = set()
        for line in lines:
            assert len(line) == 5
            assert line == sorted(line)
            seen.update(line)
        assert len(seen) == 125


@pytest.mark.parametrize("p, n", ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2), (3, 3)))
def test_all_lines_lists_every_line_of_the_grid_once(p, n):
    incidence = grid._affine_incidence(p, n)
    lines, points = incidence.lines, list(grid_points(p, n))
    assert len(lines) == p ** (n - 1) * (p ** n - 1) // (p - 1)
    for line in lines:
        assert len(line) == p and list(line) == sorted(set(line))
        assert points_collinear(p, [points[i] for i in line])
    # every pair of distinct points lies on exactly one line
    pairs = Counter(pair for line in lines for pair in itertools.combinations(line, 2))
    assert len(pairs) == len(points) * (len(points) - 1) // 2
    assert set(pairs.values()) == {1}
    # the line test reads the ids in any order
    assert all(incidence.is_line(line[::-1]) for line in lines)
    assert not incidence.is_line(range(1, p + 1))
    # each pencil holds its point's lines in the builder's order: by their
    # direction scaled to a leading 1, lexicographically
    direction = lambda line: normalize_coords(p, [(b - a) % p for a, b in
                                                  zip(points[line[0]], points[line[1]])])
    pencils = [[] for _ in points]
    for line in sorted(lines, key=lambda line: (direction(line), line)):
        for x in line:
            pencils[x].append(line)
    assert incidence.pencils == tuple(map(tuple, pencils))


def test_enumerate_lines_rejects_a_direction_that_is_not_ints():
    # int() would truncate (1.5, 0) to the direction (1, 0)
    assert enumerate_lines(3, 2, (4, 0)) == enumerate_lines(3, 2, (1, 0))
    for bad in ((1.5, 0), (True, 0)):
        with pytest.raises(InputError, match="not an int"):
            enumerate_lines(3, 2, bad)


def test_enumerate_lines_rejects_a_direction_of_the_wrong_length():
    # a longer direction was cut to its first n entries, a shorter one
    # raised a bare IndexError
    for n, bad in ((2, (1, 0, 7)), (3, (0, 1))):
        with pytest.raises(InputError, match="point length"):
            enumerate_lines(5, n, bad)


def test_enumerate_lines_refuses_a_grid_past_the_point_budget(monkeypatch):
    # the direction (1, 0, ..., 0) of (Z_3)^25 ran until a 10-s timeout
    t0 = time.perf_counter()
    with pytest.raises(ResourceError, match="3\\^25 points exceeds the point budget"):
        enumerate_lines(3, 25, (1,) + (0,) * 24)
    assert time.perf_counter() - t0 < 0.1
    monkeypatch.setattr(grid, "DEFAULT_POINT_BUDGET", 25)
    assert len(enumerate_lines(5, 2, (1, 2))) == 5
    with pytest.raises(ResourceError, match="3\\^3 points exceeds the point budget"):
        enumerate_lines(3, 3, (1, 0, 0))


@pytest.mark.parametrize("p, n", ((3, 1), (5, 1), (3, 2), (7, 2), (3, 3), (5, 3), (3, 4)))
def test_direction_lines_are_the_lines_built_point_by_point(p, n):
    # every direction d with a leading 1 at i0: for each base point a with
    # a[i0] = 0, in lexicographic order, the flat indices of a + t d for
    # t = 0, ..., p - 1, which come sorted, so the first is a's own index;
    # `_line_bases` gives the a in that order, and the line kernel is the
    # same lines
    for d in itertools.product(range(p), repeat=n):
        if not any(d) or normalize_coords(p, d) != d:
            continue
        i0 = d.index(1)
        bases = [a for a in itertools.product(range(p), repeat=n) if a[i0] == 0]
        expected = tuple(
            tuple(point_index(p, [(x + t * y) % p for x, y in zip(a, d)]) for t in range(p))
            for a in bases)
        assert grid._direction_lines(p, n, d) == expected
        assert all(list(idx) == sorted(idx) for idx in expected)
        assert grid._line_bases(p, n, d) == bases
        assert [point_index(p, a) for a in bases] == [idx[0] for idx in expected]
        assert grid._line_kernel(p, n, d) == expected


@pytest.mark.parametrize("entry", ("enumerate_lines", "table_from_function"))
def test_grid_entry_points_reject_a_p_that_is_not_an_int(entry):
    # a float p once gave a bare TypeError (range(3.0)) or a misleading
    # "table entry 0.0 is not an int"
    call = {"enumerate_lines": lambda: enumerate_lines(3.0, 2, (1, 0)),
            "table_from_function": lambda: table_from_function(3.0, 1, 1, lambda x: x)}[entry]
    with pytest.raises(InputError, match="p 3.0 is not an int"):
        call()


@pytest.mark.parametrize("n", (13, 10 ** 4))
def test_table_from_function_refuses_a_grid_past_the_point_budget(n):
    # 3^13 = 1,594,323 points were built in 1.7 s before the budget was read
    calls = []
    t0 = time.perf_counter()
    with pytest.raises(ResourceError, match=f"3\\^{n} points exceeds the point budget"):
        table_from_function(3, n, 1, lambda x: calls.append(x) or (0,))
    assert time.perf_counter() - t0 < 1.0
    assert calls == []


@pytest.mark.parametrize("p", (3, 5, 7))
def test_form_columns_are_the_forms_at_every_grid_point(p):
    # seeded rows of k = 0..4 coefficients, zeros among them, and their
    # constants, against one evaluation of b + sum_k a_k x_k per point of
    # itertools.product's lexicographic order.  One call takes rows of every
    # length, and each row alone gives the same column
    rng = Random(p)
    rows = [tuple(rng.choice((0, 0) + tuple(range(1, p))) for _ in range(k))
            for k in (0, 1, 2, 3, 4) for _ in range(3)]
    consts = [rng.randrange(p) for _ in rows]
    assert any(0 in row for row in rows) and any(row and 0 not in row for row in rows)
    expected = [[(b + sum(a * x for a, x in zip(row, point))) % p
                 for point in itertools.product(range(p), repeat=len(row))]
                for row, b in zip(rows, consts)]
    assert grid._form_columns(p, rows, consts) == expected
    for row, b, column in zip(rows, consts, expected):
        assert grid._form_columns(p, [row], [b]) == [column]


@pytest.mark.parametrize("p", (3, 5, 7))
def test_horner_reads_flat_indices_and_the_walk_codes(p):
    # at radix p the coordinate columns of the grid's points give their flat
    # indices; at radix 2p the columns of a table's values give the codes the
    # line walk keeps, each value's entries as base-2p digits
    for n in (1, 2, 3, 4):
        points = list(grid_points(p, n))
        assert grid._horner(p, list(zip(*points))) == [point_index(p, x) for x in points]
    rng = Random(p)
    for m in (1, 2, 3, 4):
        table = FiniteMapTable(p, 2, m, tuple(tuple(rng.randrange(p) for _ in range(m))
                                              for _ in range(p * p)))
        codes = [sum(y * (2 * p) ** (m - 1 - j) for j, y in enumerate(value))
                 for value in table.values]
        assert grid._horner(2 * p, list(zip(*table.values))) == codes
        check_family(table, standard_family(QQ, 2))
        assert table.__dict__["_codes"] == codes
        assert collineations._direction_numbers(p, m).offset == sum(
            p * (2 * p) ** j for j in range(m))


@st.composite
def point_sets(draw, length):
    """1 to 6 points of (Z_p)^length, often on one line, sometimes with one
    point moved off it."""
    p = draw(st.sampled_from((3, 5, 7)))
    coord = st.integers(0, p - 1)
    base = draw(st.lists(coord, min_size=length, max_size=length))
    step = draw(st.lists(coord, min_size=length, max_size=length))
    ts = draw(st.lists(coord, min_size=1, max_size=6))
    pts = [tuple((b + t * s) % p for b, s in zip(base, step)) for t in ts]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(pts) - 1))
        pts[i] = tuple(draw(st.lists(coord, min_size=length, max_size=length)))
    return p, pts


@pytest.mark.parametrize("length", (1, 2, 3, 4))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_collinearity_agrees_with_the_rank_of_the_differences(length, data):
    p, pts = data.draw(point_sets(length))
    diffs = [tuple((a - b) % p for a, b in zip(q, pts[0])) for q in pts]
    expected = rank_of_vectors(PrimeField(p), diffs) <= 1
    assert points_collinear(p, pts) == expected
    assert points_collinear(p, pts[::-1]) == expected


def test_collinearity_predicate():
    assert points_collinear(5, [(0, 0), (1, 2), (2, 4)])
    assert not points_collinear(5, [(0, 0), (1, 2), (2, 3)])
    assert points_collinear(7, [(1, 1)])  # degenerate cases are collinear
    assert points_collinear(7, [(1, 1), (1, 1), (1, 1)])


# ---------------------------------------------------------------------------
# check_family on the canonical 3-dimensional example (mod 5)
# ---------------------------------------------------------------------------


def test_identity_passes_any_family(example_table_p5):
    fam = standard_family(QQ, 3, with_diagonal=True)
    assert check_family(identity_table(5, 3), fam).ok


def test_example_passes_its_four_directions(example_table_p5):
    fam = LineFamily(QQ, 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)))
    report = check_family(example_table_p5, fam, mode="onto")
    assert report.ok and report.violations == ()


def test_example_fails_off_family_direction(example_table_p5):
    report = check_family(example_table_p5, LineFamily(QQ, 3, ((1, 0, 1),)))
    assert not report.ok
    assert len(report.violations) == 25
    assert {v.reason for v in report.violations} == {"not-a-line"}
    # violations come with the lexicographically least point of the line
    assert report.violations[0].base == (0, 0, 0)


def test_example_survives_the_full_diagonal(example_table_p5):
    # the quadratic parts of the two moving coordinates cancel along (1,1,1),
    # so this direction is carried onto lines even though it is not in the
    # four-direction family
    report = check_family(example_table_p5, LineFamily(QQ, 3, ((1, 1, 1),)))
    assert report.ok


def test_into_and_onto_agree_for_bijections(example_table_p5):
    fam = LineFamily(QQ, 3, ((1, 0, 0), (1, 1, -1)))
    assert check_family(example_table_p5, fam, mode="into").ok
    assert check_family(example_table_p5, fam, mode="onto").ok


def test_into_accepts_collapses_that_onto_rejects():
    # projection (s,t) -> (s, 0): e2-lines collapse to points (into a line,
    # not onto one)
    proj = table_from_function(3, 2, 2, lambda x: (x[0], 0))
    fam = LineFamily(QQ, 2, ((0, 1),))
    assert check_family(proj, fam, mode="into").ok
    assert not check_family(proj, fam, mode="onto").ok


# ---------------------------------------------------------------------------
# parallelism
# ---------------------------------------------------------------------------


def test_affine_bijections_preserve_parallelism():
    tab = table_from_function(5, 2, 2,
                              lambda x: ((2 * x[0] + x[1] + 3) % 5,
                                         (x[0] + x[1] + 1) % 5))
    fam = standard_family(QQ, 2)
    assert parallelism_report(tab, fam).ok


def test_example_map_sends_parallel_lines_to_skew_lines(example_table_p5):
    fam = standard_family(QQ, 3)
    assert check_family(example_table_p5, fam).ok
    assert not parallelism_report(example_table_p5, fam).ok
    report = parallelism_report(example_table_p5, fam)
    assert all(v.reason == "not-parallel" for v in report.violations)


def test_skew_image_example_from_three_variables():
    # (s,t,r) -> (s,t, st - r) carries e1- and e2-lines onto lines, but the
    # image directions twist with the transverse coordinates
    tab = table_from_function(5, 3, 3,
                              lambda x: (x[0], x[1], (x[0] * x[1] - x[2]) % 5))
    fam = LineFamily(QQ, 3, ((1, 0, 0), (0, 1, 0)))
    assert check_family(tab, fam).ok
    assert not parallelism_report(tab, fam).ok


def test_parallelism_requires_injectivity():
    proj = table_from_function(3, 2, 2, lambda x: (x[0], 0))
    with pytest.raises(InputError):
        parallelism_report(proj, standard_family(QQ, 2))


def test_parallelism_requires_every_family_line_onto_a_line():
    torn = torn_table()
    assert torn.is_injective()
    for dirs in (((1, 0), (0, 1)), ((1, 1), (0, 1))):
        fam = LineFamily(QQ, 2, dirs)
        with pytest.raises(InputError, match="onto check"):
            parallelism_report(torn, fam)
        report = verify_span_invariants(torn, fam)
        assert not report.hypothesis_ok
        assert report.failure == "a family line is not mapped onto a line"
        with pytest.raises(InputError, match="not mapped onto a line"):
            recover_diagonal_form(torn, fam)
    assert parallelism_report(torn, LineFamily(QQ, 2, ((1, 1),))).ok


def parallel_violations_by_vectors_parallel(table, fam):
    """`_parallel_violations` with the field-generic `vectors_parallel` as its
    parallel test: the oracle of the line test it asks instead."""
    p, values, gf = table.p, table.values, PrimeField(table.p)
    points = list(grid_points(p, table.n))
    violations = []
    for d in collineations._residue_directions(table.p, table.n, fam):
        ref = None
        for idx in grid._line_kernel(p, table.n, normalize_coords(p, d)):
            base, images = points[idx[0]], [values[i] for i in idx]
            if not points_collinear(p, images):
                return None
            delta = tuple((a - b) % p for a, b in zip(images[1], images[0]))
            if ref is None:
                ref = delta
            elif not vectors_parallel(gf, ref, delta):
                violations.append(Violation(d, base, "not-parallel"))
    return tuple(violations)


def lines_table(rng, p, m, parallel):
    """An injective table of (Z_p)^2 -> (Z_p)^m that maps the e1-line at
    height t onto P_t + Z_p D_t, its points in a random order.  D_t is a
    random nonzero multiple of D_0 when parallel; otherwise a coin toss picks
    such a multiple or a random vector for each t."""
    while True:
        d0 = tuple(rng.randrange(p) for _ in range(m))
        if not any(d0):
            continue
        e = tuple(rng.randrange(p) for _ in range(m))
        if points_collinear(p, [(0,) * m, d0, e]):
            continue  # e off Z_p d0: P_t = t e puts each line in its own coset
        images = {}
        for t in range(p):
            if parallel or rng.random() < 0.5:
                c = rng.randrange(1, p)
                direction = tuple(c * x % p for x in d0)
            else:
                direction = tuple(rng.randrange(p) for _ in range(m))
            start = (tuple(t * x % p for x in e) if parallel and m == 2
                     else tuple(rng.randrange(p) for _ in range(m)))
            f = rng.sample(range(p), p)
            for s in range(p):
                images[s, t] = tuple((a + f[s] * b) % p for a, b in zip(start, direction))
        values = tuple(images[x] for x in grid_points(p, 2))
        if len(set(values)) == p * p:
            return FiniteMapTable(p, 2, m, values)


@pytest.mark.parametrize("p", (3, 5, 7))
@pytest.mark.parametrize("m", (2, 3, 4))
def test_parallelism_agrees_with_vectors_parallel(p, m):
    # over the plane every family of p disjoint lines is parallel, so m = 2
    # has rescaled-parallel images only; m = 3, 4 have non-parallel ones too
    rng = Random(100 * p + m)
    fam = LineFamily(QQ, 2, ((1, 0),))
    verdicts = set()
    for i in range(12):
        table = lines_table(rng, p, m, parallel=(m == 2 or i % 3 == 0))
        expected = parallel_violations_by_vectors_parallel(table, fam)
        report = parallelism_report(table, fam)
        assert report.to_json() == FamilyReport(not expected, expected).to_json()
        verdicts.add(report.ok)
    assert verdicts == ({True} if m == 2 else {True, False})


# ---------------------------------------------------------------------------
# one memoized walk per (table, direction)
# ---------------------------------------------------------------------------


def check_family_by_line_loop(table, fam, mode):
    """`check_family` as one loop over every family line, with no walk memo:
    the oracle of the reports built from `_walk`."""
    p, values = table.p, table.values
    points = list(grid_points(p, table.n))
    violations = []
    for d in collineations._residue_directions(table.p, table.n, fam):
        for idx in grid._line_kernel(p, table.n, normalize_coords(p, d)):
            base, images = points[idx[0]], [values[i] for i in idx]
            if not points_collinear(p, images):
                violations.append(Violation(d, base, "not-a-line"))
            elif mode == "onto" and len(set(images)) < p:
                violations.append(Violation(d, base, "not-onto"))
    return FamilyReport(not violations, tuple(violations))


def parallel_violations_by_line_loop(table, dirs):
    """`_parallel_violations` as one loop over every line of the directions,
    with no walk memo."""
    p, values = table.p, table.values
    points = list(grid_points(p, table.n))
    origin = (0,) * table.m
    violations = []
    for d in dirs:
        ref = None
        for idx in grid._line_kernel(p, table.n, normalize_coords(p, d)):
            base, images = points[idx[0]], [values[i] for i in idx]
            if not points_collinear(p, images):
                return None
            delta = tuple((a - b) % p for a, b in zip(images[1], images[0]))
            if ref is None:
                ref = delta
            elif not points_collinear(p, (origin, ref, delta)):
                violations.append(Violation(d, base, "not-parallel"))
    return tuple(violations)


def memo_tables(p, n):
    """Seeded tables of (Z_p)^n: an affine bijection, a diagonal form with a
    bent first axis, the affine map with two values swapped (torn), the
    affine map with one e1-line squashed onto two points and another bent
    off its line (not injective: not-onto and not-a-line lines in one
    direction), a random injection into (Z_p)^(n+1), and the injection
    x -> (x, x1 x2) into (Z_p)^(n+1), which maps the axis lines onto lines
    that are not parallel (skew)."""
    rng = Random(1000 * p + n)
    grid = list(grid_points(p, n))
    while True:
        a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if rank_of_vectors(PrimeField(p), a) == n:
            break
    b = [rng.randrange(p) for _ in range(n)]
    affine = lambda x: tuple((b[j] + sum(a[j][i] * x[i] for i in range(n))) % p
                             for j in range(n))
    f = (0, 1) + tuple(rng.sample(range(2, p), p - 2))
    tables = {"affine": [affine(x) for x in grid],
              "diagonal": [affine((f[x[0]],) + x[1:]) for x in grid]}
    torn = list(tables["affine"])
    i, j = rng.sample(range(len(grid)), 2)
    torn[i], torn[j] = torn[j], torn[i]
    squashed = list(tables["affine"])
    lines = enumerate_lines(p, n, (1,) + (0,) * (n - 1))
    flat, bent = rng.sample(lines, 2)
    for x in flat[:-1]:
        squashed[grid.index(x)] = affine(flat[0])
    squashed[grid.index(bent[1])] = affine(flat[-1])
    tables.update(torn=torn, squashed=squashed,
                  injection=rng.sample(list(grid_points(p, n + 1)), len(grid)),
                  skew=[x + (x[0] * x[1] % p,) for x in grid])
    return {kind: FiniteMapTable(p, n, len(values[0]), tuple(values))
            for kind, values in tables.items()}


def memo_operations(n):
    """(name, function, arguments after the table) for every reader of the
    walk memo: check_family in both modes and parallelism_report on four
    families (one of them scaled), then the span invariants and the
    diagonal-form recovery on the axes."""
    axes = standard_family(QQ, n)
    families = {"axes": axes, "standard": standard_family(QQ, n, True),
                "s_family": s_family(n),
                "diagonal": LineFamily(QQ, n, ((2,) * n, (0,) * (n - 1) + (4,)))}
    ops = []
    for name, fam in families.items():
        ops += [(f"check_family {name} {mode}", check_family, (fam, mode))
                for mode in ("into", "onto")]
        ops.append((f"parallelism_report {name}", parallelism_report, (fam,)))
    return ops + [("verify_span_invariants", verify_span_invariants, (axes,)),
                  ("recover_diagonal_form", recover_diagonal_form, (axes,))]


def memo_outcome(fn, table, args):
    try:
        return "returned", fn(table, *args).to_json()
    except (InputError, InternalInconsistencyError) as exc:
        return "raised", type(exc).__name__, str(exc)


@pytest.mark.parametrize("p", (3, 5, 7))
@pytest.mark.parametrize("n", (2, 3))
def test_walk_memo_does_not_depend_on_call_order(monkeypatch, p, n):
    # each operation on a table that has served the others, in three orders,
    # must give what it gives on a fresh copy and what the uncached line
    # loops give
    ops = memo_operations(n)
    orders = [ops, ops[::-1], Random(p * n).sample(ops, len(ops))]
    seen = set()
    for kind, table in memo_tables(p, n).items():
        copy = lambda: FiniteMapTable(table.p, table.n, table.m, table.values)
        with monkeypatch.context() as m:
            m.setattr(collineations, "_parallel_violations", parallel_violations_by_line_loop)
            m.setattr(FiniteMapTable, "is_injective",
                      lambda t: len(set(t.values)) == len(t.values))
            oracle = {name: memo_outcome(check_family_by_line_loop if fn is check_family else fn,
                                         copy(), args) for name, fn, args in ops}
        fresh = {name: memo_outcome(fn, copy(), args) for name, fn, args in ops}
        assert fresh == oracle, kind
        for order in orders:
            shared = copy()
            assert {name: memo_outcome(fn, shared, args) for name, fn, args in order} == fresh, kind
        seen.update((name, out[0] == "returned" and out[1].get("ok", True))
                    for name, out in fresh.items())
    # every reader passed on some table and failed or raised on another
    assert {name for name, *_ in ops} == {name for name, ok in seen if ok} \
        == {name for name, ok in seen if not ok}


def test_scaled_directions_share_a_walk_and_keep_their_labels(example_table_p5):
    # (t, c + t) -> (t^3, c + t) bends the (1,1)-lines with c != 0 mod 5
    table = table_from_function(5, 2, 2, lambda x: (pow(x[0], 3, 5), x[1]))
    twin = FiniteMapTable(5, 2, 2, table.values)
    before = hash(table), repr(table)
    labels = {}
    for d, field in (((1, 1), QQ), ((2, 2), QQ), ((3, 3), PrimeField(5))):
        report = check_family(table, LineFamily(field, 2, (d,)), "into")
        assert not report.ok and {v.direction for v in report.violations} == {d}
        labels[d] = [v.base for v in report.violations]
    assert list(table.__dict__["_walks"]) == [(1, 1)]
    assert labels[(1, 1)] == labels[(2, 2)] == labels[(3, 3)]
    assert table == twin and hash(table) == hash(twin) and repr(table) == repr(twin)
    assert (hash(table), repr(table)) == before
    # the not-parallel lines keep their family's direction too
    axes = standard_family(QQ, 3)
    scaled = LineFamily(QQ, 3, ((3, 0, 0), (0, 2, 0), (0, 0, 4)))
    by_axes = parallelism_report(example_table_p5, axes).violations
    by_scaled = parallelism_report(example_table_p5, scaled).violations
    assert by_axes and [v.base for v in by_axes] == [v.base for v in by_scaled]
    label = dict(zip(axes.directions, ((3, 0, 0), (0, 2, 0), (0, 0, 4))))
    assert [label[v.direction] for v in by_axes] == [v.direction for v in by_scaled]


def test_a_report_reads_each_directions_base_points_once():
    # a table with violations in both directions of (Z_7)^2: the base points
    # are read under the line kernel's key, once per direction, however many
    # reports and tables ask for them
    grid._line_bases.cache_clear()
    fam = standard_family(QQ, 2)

    def bent():
        return table_from_function(7, 2, 2, lambda x: (x[0] * x[0] % 7, x[1] * x[0] % 7))

    table = bent()
    report = check_family(table, fam)
    assert {v.direction for v in report.violations} == {(1, 0), (0, 1)}
    assert not check_family(table, fam, "into").ok
    assert check_family(bent(), fam) == report
    info = grid._line_bases.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    for v in report.violations:
        assert v.base in grid._line_bases(7, 2, v.direction)


@pytest.mark.parametrize("n, walks", ((2, 3), (3, 7)))
def test_a_diagonal_job_walks_each_direction_once(monkeypatch, n, walks):
    # the call chain of a diagonal-form job: the standard+diagonal family
    # into and onto, s_family into, then parallelism, the span invariants and
    # the recovery on the axes.  Without the memo it walked 15 directions at
    # n = 2 and 24 at n = 3; 3 and 7 of them are distinct
    p = 5
    table = table_from_function(p, n, n, lambda x: (pow(x[0], 3, p),) + x[1:])
    std, axes, sfam = standard_family(QQ, n, True), standard_family(QQ, n), s_family(n)
    # a walk reads the direction numbers once, before its first line
    walked = []
    numbers = collineations._direction_numbers
    monkeypatch.setattr(collineations, "_direction_numbers",
                        lambda p, m: walked.append((p, m)) or numbers(p, m))
    reports = [check_family(table, std, "into"), check_family(table, std, "onto"),
               check_family(table, sfam, "into"), parallelism_report(table, axes),
               verify_span_invariants(table, axes)]
    form = recover_diagonal_form(table, axes)
    assert [r.ok for r in reports] == [False, False, False, True, True]
    assert form.f[0] == tuple(pow(t, 3, p) for t in range(p))
    assert len(walked) == len(table.__dict__["_walks"]) == walks


# ---------------------------------------------------------------------------
# the integer line walk against points_collinear
# ---------------------------------------------------------------------------


def diagonal_failure_by_line_loop(table, fam):
    """`_diagonal_hypothesis`'s failure string with the uncached line loops
    as its collinear and parallel tests; the family has n directions."""
    p, n = table.p, table.n
    dirs = collineations._residue_directions(p, n, fam)
    if rank_of_vectors(PrimeField(p), dirs) != n:
        return "directions are not linearly independent"
    if len(set(table.values)) < len(table.values):
        return "table is not injective"
    violations = parallel_violations_by_line_loop(table, dirs)
    if violations is None:
        return "a family line is not mapped onto a line"
    return "parallel family lines have non-parallel images" if violations else None


def walk_tables(p, n, m):
    """Seeded tables of (Z_p)^n -> (Z_p)^m.  For m >= n: an affine injection,
    the same with two values swapped (torn), with one e1-line squashed onto
    two points and a point of another line moved off it (repeated images and
    a bent line), and, for m > n, the injection x -> (x, x1 xn, 0, ...)
    whose e1-lines are lines but not parallel ones.  For every m: a constant
    map, a map through a random line, a random map and a random injection
    when p^n <= p^m."""
    rng = Random(10007 * p + 101 * n + m)
    grid = list(grid_points(p, n))
    rand = lambda: tuple(rng.randrange(p) for _ in range(m))
    tables = {"constant": [rand()] * len(grid), "random": [rand() for _ in grid]}
    a, d = rand(), rand()
    t = [rng.randrange(p) for _ in grid]
    tables["line"] = [tuple((x + s * y) % p for x, y in zip(a, d)) for s in t]
    if m >= n:
        while True:
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
            if rank_of_vectors(PrimeField(p), rows) == n:
                break
        b = rand()
        affine = lambda x: tuple((b[j] + sum(r * c for r, c in zip(rows[j], x))) % p
                                 for j in range(m))
        tables["affine"] = [affine(x) for x in grid]
        torn = list(tables["affine"])
        i, j = rng.sample(range(len(grid)), 2)
        torn[i], torn[j] = torn[j], torn[i]
        tables["torn"] = torn
        lines = enumerate_lines(p, n, (1,) + (0,) * (n - 1))
        squashed = list(tables["affine"])
        flat = rng.choice(lines)
        for x in flat[:-1]:
            squashed[grid.index(x)] = affine(flat[0])
        if len(lines) > 1:
            bent = rng.choice([line for line in lines if line != flat])
            squashed[grid.index(bent[1])] = affine(flat[-1])
        tables["squashed"] = squashed
        tables["injection"] = rng.sample(list(grid_points(p, m)), len(grid))
        if m > n:
            tables["skew"] = [x + (x[0] * x[-1] % p,) + (0,) * (m - n - 1) for x in grid]
    return {kind: FiniteMapTable(p, n, m, tuple(values)) for kind, values in tables.items()}


def walk_families(n):
    """The axes (n independent directions), and at n >= 2 the axes with the
    diagonal, the pair e1, e1 + 2 e2 (scaled in a second copy) and s_family."""
    fams = [standard_family(QQ, n)]
    if n >= 2:
        pair = ((1,) + (0,) * (n - 1), (1, 2) + (0,) * (n - 2))
        fams += [standard_family(QQ, n, True), LineFamily(QQ, n, pair),
                 LineFamily(QQ, n, tuple(tuple(2 * c for c in d) for d in pair)), s_family(n)]
    return fams


def walk_outcomes_against_the_line_loops(p, m, ns):
    """Every report read from the walk on fresh tables of (Z_p)^n for n in
    ns, asserted equal to the uncached line loops over points_collinear and
    the origin/ref/delta parallel test: check_family in both modes,
    parallelism_report, and the failure string of the diagonal-form
    hypotheses.  Returns the outcomes seen."""
    seen = set()
    for n in ns:
        for kind, table in walk_tables(p, n, m).items():
            copy = lambda: FiniteMapTable(p, n, m, table.values)
            for fam in walk_families(n):
                for mode in ("into", "onto"):
                    got = check_family(copy(), fam, mode)
                    assert got == check_family_by_line_loop(table, fam, mode), (kind, n, mode)
                    seen.add((mode, got.ok, tuple(sorted({v.reason for v in got.violations}))))
                expected = parallel_violations_by_line_loop(
                    table, collineations._residue_directions(p, n, fam))
                if len(set(table.values)) < len(table.values):
                    expected = ("raised", "InputError", "parallelism check needs an injective table")
                elif expected is None:
                    expected = ("raised", "InputError",
                                "parallelism check requires the onto check to pass first")
                else:
                    expected = ("returned", FamilyReport(not expected, expected).to_json())
                assert memo_outcome(parallelism_report, copy(), (fam,)) == expected, (kind, n)
                seen.add(expected[0] == "returned" and expected[1]["ok"])
                if len(collineations._residue_directions(p, n, fam)) == n:
                    _dirs, failure = collineations._diagonal_hypothesis(copy(), fam)
                    assert failure == diagonal_failure_by_line_loop(table, fam), (kind, n)
                    seen.add(failure)
    return seen


@pytest.mark.parametrize("p", (3, 5, 7))
@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_the_integer_walk_agrees_with_points_collinear(p, m):
    seen = walk_outcomes_against_the_line_loops(p, m, [n for n in (1, 2, 3) if p ** n <= 400])
    # each outcome appears somewhere in the cases of this (p, m)
    assert ("onto", False, ("not-onto",)) in seen and ("into", True, ()) in seen
    if m >= 2:
        assert ("into", False, ("not-a-line",)) in seen
        assert "a family line is not mapped onto a line" in seen
    if m >= 3:
        assert "parallel family lines have non-parallel images" in seen
        assert {True, False} <= seen


def test_the_walk_past_the_table_bound(monkeypatch):
    # with no list of direction numbers the walk reads the values themselves
    # and gives the same reports: at p = 131 without a patch, (2p)^2 passing
    # the bound, and at small p and m with the bound patched to 0
    collineations._direction_numbers.cache_clear()
    try:
        walk_outcomes_against_the_line_loops(131, 2, (1,))
        assert collineations._direction_numbers(131, 2) is None
        monkeypatch.setattr(collineations, "DIFFERENCE_TABLE_BOUND", 0)
        collineations._direction_numbers.cache_clear()
        for p, m in ((3, 1), (3, 4), (5, 3), (7, 2)):
            walk_outcomes_against_the_line_loops(p, m, (1, 2))
            assert collineations._direction_numbers(p, m) is None
    finally:
        collineations._direction_numbers.cache_clear()


def test_the_walk_past_the_table_bound_scales_two_differences_of_a_bent_line(monkeypatch):
    # past the bound a difference's number is the difference scaled by
    # normalize_coords, and a line's second number settles it as bent: one
    # walk scales at most two differences a line, plus its direction (the
    # uncut walk scales all p - 1 = 130).  The image of the e1-line at
    # height y is t -> (t + y^2, y + t^2): its differences from t = 0 have
    # the numbers (1, t), so every line bends at its third point
    p = 131
    table = table_from_function(p, 2, 2, lambda x: (x[0] + x[1] ** 2, x[1] + x[0] ** 2))
    assert collineations._direction_numbers(p, 2) is None  # (2p)^2 = 68,644
    scaled = []
    scale = collineations.normalize_coords
    monkeypatch.setattr(collineations, "normalize_coords",
                        lambda p, v: scaled.append(v) or scale(p, v))
    _key, not_line, _not_onto, _not_parallel = collineations._walk(table, (1, 0))
    assert not_line == tuple(range(p))
    assert len(scaled) <= 2 * p + 1


def test_a_long_value_builds_nothing_sized_by_its_length():
    # a table of 40-entry values: a table of (2p)^m difference keys would
    # never be built, and the walk reads each value once
    table = FiniteMapTable(3, 1, 40, tuple(tuple((i * j + i) % 3 for j in range(40))
                                           for i in range(3)))
    fam = LineFamily(QQ, 1, ((1,),))
    t0 = time.perf_counter()
    assert table.is_injective()
    assert check_family(table, fam, "onto").ok and check_family(table, fam, "into").ok
    assert parallelism_report(table, fam).ok
    assert time.perf_counter() - t0 < 0.1
    bent = FiniteMapTable(3, 1, 40, ((0,) * 40, (1,) + (0,) * 39, (0, 1) + (0,) * 38))
    assert check_family(bent, fam, "into").violations == (Violation((1,), (0,), "not-a-line"),)


# ---------------------------------------------------------------------------
# span invariants (image of a span is the span of the images)
# ---------------------------------------------------------------------------


def test_span_invariants_for_nonlinear_diagonal():
    cube = lambda v: pow(v, 3, 5)  # a bijection of Z_5 fixing 0 and 1
    tab = table_from_function(5, 2, 2, lambda x: (cube(x[0]), cube(x[1])))
    report = verify_span_invariants(tab, standard_family(QQ, 2))
    assert report.ok and report.hypothesis_ok


def test_span_invariants_report_hypothesis_failures():
    squash = table_from_function(3, 2, 2, lambda x: (x[0], 0))
    report = verify_span_invariants(squash, standard_family(QQ, 2))
    assert not report.ok
    assert not report.hypothesis_ok


def span_invariants_by_rank(table, fam):
    """`verify_span_invariants` with every span rebuilt from all coefficient
    tuples for each k, independence taken as a rank, and every value read
    through `table.apply`: the oracle of the spans grown once."""
    p, n, m = table.p, table.n, table.m
    dirs, failure = collineations._diagonal_hypothesis(table, fam)
    if failure is not None:
        return {"ok": False, "hypothesis_ok": False, "failure": failure, "k": None}
    base = table.apply((0,) * n)

    def g(x):
        return tuple((a - b) % p for a, b in zip(table.apply(x), base))

    def span(vecs, dim):
        return {tuple(sum(c * v[i] for c, v in zip(coeffs, vecs)) % p for i in range(dim))
                for coeffs in itertools.product(range(p), repeat=len(vecs))}

    gv = [g(v) for v in dirs]
    for k in range(2, n + 1):
        failure = None
        if rank_of_vectors(PrimeField(p), gv[:k]) != k:
            failure = "images of the directions are dependent"
        elif {g(x) for x in span(dirs[:k], n)} != span(gv[:k], m):
            failure = "image of span != span of images"
        elif ({g(tuple((a + b) % p for a, b in zip(dirs[k - 1], y))) for y in span(dirs[:k - 1], n)}
              != {tuple((a + b) % p for a, b in zip(gv[k - 1], w)) for w in span(gv[:k - 1], m)}):
            failure = "affine slice images disagree"
        if failure is not None:
            return {"ok": False, "hypothesis_ok": True, "failure": failure, "k": k}
    return {"ok": True, "hypothesis_ok": True, "failure": None, "k": None}


def test_span_conclusions_agree_with_the_rank_oracle(monkeypatch):
    # the conclusions hold whenever the hypotheses do, so the hypotheses are
    # waved through here to reach every failure branch on seeded tables
    monkeypatch.setattr(collineations, "_diagonal_hypothesis", lambda table, fam: (
        collineations._residue_directions(table.p, table.n, fam), None))
    rng = Random(11)
    failures = set()
    for p, n in itertools.product((3, 5), (2, 3)):
        tables = [identity_table(p, n), table_from_function(p, n, n, lambda x: x[:-1] + (0,))]
        for m in (n, n + 1):  # random bijections, random injections
            for _ in range(6):
                tables.append(FiniteMapTable(p, n, m, tuple(
                    rng.sample(list(grid_points(p, m)), p ** n))))
        families = [standard_family(QQ, n), LineFamily(QQ, n, [(1,) * (n - i) + (0,) * i
                                                                for i in range(n)])]
        for table in tables:
            for fam in families:
                expected = span_invariants_by_rank(table, fam)
                assert verify_span_invariants(table, fam).to_json() == expected
                failures.add(expected["failure"])
    assert failures == {None, "images of the directions are dependent",
                        "image of span != span of images", "affine slice images disagree"}


def test_span_invariants_need_exactly_n_directions():
    with pytest.raises(InputError):
        verify_span_invariants(identity_table(3, 2), LineFamily(QQ, 2, ((1, 0),)))


# ---------------------------------------------------------------------------
# diagonal form recovery
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", (3, 5, 7))
def test_tabulate_diagonal_form_is_apply_at_every_grid_point(p):
    # the column-wise tabulation against one `apply` call per point, on
    # seeded forms with independent u's and any w's, f's and base
    rng = Random(p)
    for n, m in ((1, 1), (1, 3), (2, 2), (2, 3), (3, 3), (3, 4)):
        for _ in range(3):
            while True:
                u = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(n)]
                if rank_of_vectors(PrimeField(p), u) == n:
                    break
            form = DiagonalForm(p, u, [tuple(rng.randrange(p) for _ in range(m)) for _ in range(n)],
                                [tuple(rng.randrange(p) for _ in range(p)) for _ in range(n)],
                                tuple(rng.randrange(p) for _ in range(m)))
            assert tabulate_diagonal_form(form).values == tuple(map(form.apply, grid_points(p, n)))


def test_tabulate_diagonal_form_refuses_a_grid_past_the_point_budget(monkeypatch):
    # 3^13 = 1,594,323 values were tabulated in 3.4 s at a 590-MB peak
    # before the budget was read
    e = [tuple(int(i == j) for i in range(13)) for j in range(13)]
    form = DiagonalForm(3, e, e, [(0, 1, 2)] * 13, (0,) * 13)
    t0 = time.perf_counter()
    with pytest.raises(ResourceError, match="3\\^13 points exceeds the point budget"):
        tabulate_diagonal_form(form)
    assert time.perf_counter() - t0 < 0.1
    # the budget is read when the form is tabulated: 25 points fit, 27 do not
    monkeypatch.setattr(grid, "DEFAULT_POINT_BUDGET", 25)
    plane = DiagonalForm(5, ((1, 0), (0, 1)), ((1, 2), (3, 4)), [(0, 1, 3, 2, 4)] * 2, (4, 0))
    assert tabulate_diagonal_form(plane).values == tuple(map(plane.apply, grid_points(5, 2)))
    e3 = [tuple(int(i == j) for i in range(3)) for j in range(3)]
    with pytest.raises(ResourceError, match="3\\^3 points exceeds the point budget of 25"):
        tabulate_diagonal_form(DiagonalForm(3, e3, e3, [(0, 1, 2)] * 3, (0, 0, 0)))


def test_identity_diagonal_form():
    form = recover_diagonal_form(identity_table(3, 2), standard_family(QQ, 2))
    assert form.base == (0, 0)
    assert form.w == ((1, 0), (0, 1))
    assert form.f == ((0, 1, 2), (0, 1, 2))


def test_cube_diagonal_form_over_z5():
    cube = lambda v: pow(v, 3, 5)
    tab = table_from_function(5, 2, 2, lambda x: (cube(x[0]), cube(x[1])))
    form = recover_diagonal_form(tab, standard_family(QQ, 2))
    assert form.f == (tuple(cube(v) for v in range(5)),) * 2
    assert tabulate_diagonal_form(form).values == tab.values


def test_affine_map_diagonal_form_with_preimage_family():
    # x -> Ax + b carries lines in direction inv(A) e_i onto e_i lines
    p = 5
    A = ((1, 2), (3, 4))  # invertible mod 5 (det = -2)
    b = (2, 4)

    def apply(x):
        return tuple((A[i][0] * x[0] + A[i][1] * x[1] + b[i]) % p
                     for i in range(2))

    tab = table_from_function(p, 2, 2, apply)
    inv_a = ((3, 1), (4, 2))  # inverse of A mod 5
    fam = LineFamily(QQ, 2, (tuple(row) for row in zip(*inv_a)))
    form = recover_diagonal_form(tab, fam)
    assert form.base == b
    identity_scalar = tuple(range(p))
    assert form.f == (identity_scalar, identity_scalar)


def random_independent(rng, p, k, dim):
    """k seeded linearly independent vectors of (Z_p)^dim."""
    while True:
        vecs = tuple(tuple(rng.randrange(p) for _ in range(dim)) for _ in range(k))
        if rank_of_vectors(PrimeField(p), vecs) == k:
            return vecs


def forward_diagonal_table(form):
    """The values of a diagonal form tabulated forward, x = sum a_i u_i ->
    base + sum f_i(a_i) w_i for every alpha: the oracle of the evaluator,
    which never inverts the matrix of the u's."""
    p = form.p
    image = {}
    for alpha in itertools.product(range(p), repeat=form.n):
        x = tuple(sum(a * u[j] for a, u in zip(alpha, form.u)) % p for j in range(form.n))
        image[x] = tuple((b + sum(f[a] * w[j] for a, f, w in zip(alpha, form.f, form.w))) % p
                         for j, b in enumerate(form.base))
    assert len(image) == p ** form.n  # alpha -> x is a bijection
    return tuple(image[x] for x in grid_points(p, form.n))


@pytest.mark.parametrize("p", (3, 5, 7))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_diagonal_form_evaluator_agrees_with_forward_tabulation(p, n):
    rng = Random(10 * p + n)
    for m in (n, n + 1):
        for _ in range(3):
            f = tuple((0, 1) + tuple(rng.sample(range(2, p), p - 2)) for _ in range(n))
            form = DiagonalForm(p, random_independent(rng, p, n, n),
                                random_independent(rng, p, n, m), f,
                                tuple(rng.randrange(p) for _ in range(m)))
            expected = forward_diagonal_table(form)
            table = tabulate_diagonal_form(form)
            assert (table.p, table.n, table.m, table.values) == (p, n, m, expected)
            assert FiniteMapTable(p, n, m, expected).values == expected  # residues
            assert tuple(map(form.apply, grid_points(p, n))) == expected
            # f_i fixes 0 and 1, so the recovery reads the same form back
            assert recover_diagonal_form(table, LineFamily(QQ, n, form.u)) == form


def test_diagonal_form_reads_its_fields_as_residues():
    e = ((1, 0), (0, 1))
    ident = ((0, 1, 2), (0, 1, 2))
    form = DiagonalForm(3, ((4, 0), (0, -2)), e, ident, (3, 5))
    assert (form.u, form.base) == (e, (0, 2))
    assert tabulate_diagonal_form(form).values == tuple(
        (x, (y + 2) % 3) for x, y in grid_points(3, 2))
    # a float base once gave a table holding 0.5, a short w values of
    # length 1 in a table with m = 2, and base=() a table with m = 0
    with pytest.raises(InputError, match="not an int"):
        DiagonalForm(3, e, e, ident, (0.5, 0))
    with pytest.raises(InputError, match="not an int"):
        DiagonalForm(3, e, e, ((0, 1, 2), (0, 1.0, 2)), (0, 0))
    with pytest.raises(InputError, match="point length"):
        DiagonalForm(3, e, ((1,), (0, 1)), ident, (0, 0))
    with pytest.raises(InputError, match="m >= 1"):
        DiagonalForm(3, e, e, ident, ())


def test_diagonal_form_round_trip_evaluation():
    cube = lambda v: pow(v, 3, 5)
    tab = table_from_function(5, 2, 2, lambda x: (cube(x[0]), cube(x[1])))
    form = recover_diagonal_form(tab, standard_family(QQ, 2))
    for pt in grid_points(5, 2):
        assert form.apply(pt) == tab.apply(pt)


# ---------------------------------------------------------------------------
# plane form recovery
# ---------------------------------------------------------------------------


def test_split_variable_plane_form_has_no_cross_term():
    # two bijections of Z_5 fixing nothing in particular
    f = [0, 2, 4, 1, 3]
    g = [0, 3, 1, 4, 2]
    tab = table_from_function(5, 2, 2, lambda x: (f[x[0]], g[x[1]]))
    form = recover_plane_form(tab)
    assert form.u3 == (0, 0)
    assert form.cross_term_vanishes
    for pt in grid_points(5, 2):
        assert form.apply(pt) == tab.apply(pt)


def test_hyperbolic_paraboloid_plane_form():
    tab = table_from_function(5, 2, 3, lambda x: (x[0], x[1], x[0] * x[1] % 5))
    form = recover_plane_form(tab)
    assert (form.u1, form.u2, form.u3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert form.f == tuple(range(5))
    assert form.g == tuple(range(5))
    assert not form.cross_term_vanishes
    for pt in grid_points(5, 2):
        assert form.apply(pt) == tab.apply(pt)


def test_plane_form_reads_its_fields_as_residues():
    ident = tuple(range(5))
    form = PlaneForm(5, (6, 0), (0, -4), (0, 0), ident, ident, (5, 7))
    assert (form.u1, form.u2, form.base) == ((1, 0), (0, 1), (0, 2))
    assert form.apply((2, 3)) == (2, 0)
    # a float u1 was applied as (1.5, 1) and failed in to_json, a short f
    # raised a bare IndexError at apply, and base=() gave a form with m = 0
    with pytest.raises(InputError, match="not an int"):
        PlaneForm(5, (1.5, 0), (0, 1), (0, 0), ident, ident, (0, 0))
    with pytest.raises(InputError, match="not an int"):
        PlaneForm(5, (1, 0), (0, 1), (0, 0), ident, (0, 1, 2, 3, 4.0), (0, 0))
    with pytest.raises(InputError, match="point length"):
        PlaneForm(5, (1, 0), (0, 1), (0, 0), (0, 1), ident, (0, 0))
    with pytest.raises(InputError, match="m >= 1"):
        PlaneForm(5, (), (), (), ident, ident, ())
    with pytest.raises(InputError, match="not prime"):
        PlaneForm(4, (1, 0), (0, 1), (0, 0), ident[:4], ident[:4], (0, 0))


def test_plane_form_recovery_checks_every_point(monkeypatch):
    # the recovery reads F at 2p+1 points only; a table that is the plane
    # form but at its last point, with the axis walk waved through (no line
    # is torn), must still be refused by the check against the whole table
    p = 5
    values = list(table_from_function(p, 2, 3, lambda x: (x[0], x[1], x[0] * x[1] % p)).values)
    values[-1] = values[-1][:2] + ((values[-1][2] + 1) % p,)
    table = FiniteMapTable(p, 2, 3, tuple(values))
    with pytest.raises(InputError, match="axis-parallel line"):
        recover_plane_form(table)
    monkeypatch.setattr(collineations, "_walk", lambda table, d: (d, (), (), ()))
    with pytest.raises(InternalInconsistencyError, match="plane form"):
        recover_plane_form(table)


def test_plane_form_recovery_refuses_a_torn_axis_line():
    # an input error (exit 2), not an internal inconsistency (exit 4)
    with pytest.raises(InputError, match="axis-parallel line"):
        recover_plane_form(torn_table())


@pytest.mark.parametrize("method", ("table", "plane", "diagonal"))
def test_apply_reads_a_point_as_exact_ints(method):
    # exact ints only: int() would truncate 1.5 and read True as 1
    table = identity_table(3, 2)
    apply = {"table": table.apply,
             "plane": recover_plane_form(table).apply,
             "diagonal": recover_diagonal_form(table, standard_family(QQ, 2)).apply}[method]
    assert apply((4, -1)) == (1, 2)  # reduced mod p
    for bad in ((1.5, 0), (True, 0), (0, "1")):
        with pytest.raises(InputError, match="not an int"):
            apply(bad)
    for bad in ((1,), (1, 0, 0)):
        with pytest.raises(InputError, match="point length"):
            apply(bad)


def test_plane_form_cross_term_tracks_parallelism():
    f = [0, 2, 4, 1, 3]
    g = [0, 3, 1, 4, 2]
    straight = table_from_function(5, 2, 2, lambda x: (f[x[0]], g[x[1]]))
    skewed = table_from_function(5, 2, 3, lambda x: (x[0], x[1], x[0] * x[1] % 5))
    fam = standard_family(QQ, 2)
    assert parallelism_report(straight, fam).ok == recover_plane_form(straight).cross_term_vanishes
    assert parallelism_report(skewed, fam).ok == recover_plane_form(skewed).cross_term_vanishes


# ---------------------------------------------------------------------------
# exhaustive bijection search
# ---------------------------------------------------------------------------


def test_exhaustive_search_on_the_plane_mod_3():
    fam = standard_family(QQ, 2)
    survivors = exhaustive_bijection_search(3, 2, fam)
    assert len(survivors) == 432
    # results are sorted by value table; the identity grid comes first
    values = [t.values for t in survivors]
    assert values == sorted(values)
    assert survivors[0].values == tuple(grid_points(3, 2))


def test_exhaustive_search_with_diagonal_direction_mod_3():
    fam = standard_family(QQ, 2, with_diagonal=True)
    survivors = exhaustive_bijection_search(3, 2, fam)
    assert len(survivors) == 432


def test_exhaustive_search_line_case():
    fam = LineFamily(QQ, 1, ((1,),))
    assert len(exhaustive_bijection_search(3, 1, fam)) == 6  # all of S_3


def test_exhaustive_search_budget_guard():
    fam = standard_family(QQ, 3)
    with pytest.raises(ResourceError):
        exhaustive_bijection_search(5, 3, fam)


def lexicographic_search(p, n, fam):
    """The search as a recursive descent over the value table in
    lexicographic order, pruned when a line completes: the kernel's oracle."""
    points = list(grid_points(p, n))
    index = {x: i for i, x in enumerate(points)}
    finishers = [[] for _ in points]
    for d in fam.directions:
        for line in enumerate_lines(p, n, tuple(int(c) % p for c in d)):
            idx = [index[x] for x in line]
            finishers[max(idx)].append(idx)
    collinear = lru_cache(maxsize=None)(lambda key: points_collinear(p, key))
    assign, used, results = [0] * len(points), [False] * len(points), []

    def descend(i):
        if i == len(points):
            results.append(tuple(points[v] for v in assign))
            return
        for v in range(len(points)):
            if not used[v]:
                assign[i] = v
                if all(collinear(tuple(sorted(points[assign[j]] for j in line)))
                       for line in finishers[i]):
                    used[v] = True
                    descend(i + 1)
                    used[v] = False

    descend(0)
    return results


# every nonempty set of the four directions of (Z_3)^2
PLANE_DIRECTION_SETS = [dirs for k in range(1, 5)
                        for dirs in itertools.combinations(((1, 0), (0, 1), (1, 1), (1, 2)), k)]


@pytest.mark.parametrize("p,n,dirs", [(3, 1, ((1,),))]
                         + [(3, 2, dirs) for dirs in PLANE_DIRECTION_SETS]
                         + [(p, 1, ((1,),)) for p in (5, 7)])
def test_search_matches_the_lexicographic_descent(p, n, dirs):
    # the descent pins nothing: it checks the pin and the affine expansion
    fam = LineFamily(QQ, n, dirs)
    got = [t.values for t in exhaustive_bijection_search(p, n, fam)]
    assert got == lexicographic_search(p, n, fam)


def affine_group_mod_3():
    """AGL(2,3) as maps point -> point: x -> Ax + t for the 48 invertible
    matrices A mod 3 and the 9 translations t."""
    points = list(itertools.product(range(3), repeat=2))
    matrices = [(a, b, c, d) for a, b, c, d in itertools.product(range(3), repeat=4)
                if (a * d - b * c) % 3]
    assert len(matrices) == 48
    return [{(x, y): ((a * x + b * y + s) % 3, (c * x + d * y + t) % 3) for x, y in points}
            for a, b, c, d in matrices for s, t in points]


@pytest.mark.parametrize("dirs", PLANE_DIRECTION_SETS)
def test_search_survivors_are_closed_under_the_affine_group(dirs):
    # g o F is a survivor for every g in AGL(2,3) and survivor F.  The group
    # acts freely (g o F = F forces g = id), so the survivors fall into orbits
    # of 432 maps: 12 orbits for one direction, and AGL(2,3) itself for more
    group = affine_group_mod_3()
    assert len(group) == 432
    survivors = {t.values for t in exhaustive_bijection_search(3, 2, LineFamily(QQ, 2, dirs))}
    seen, orbits = set(), 0
    for values in sorted(survivors):
        if values not in seen:
            orbit = {tuple(g[y] for y in values) for g in group}
            assert len(orbit) == 432 and orbit <= survivors
            seen |= orbit
            orbits += 1
    assert seen == survivors
    assert (orbits, len(survivors)) == ((12, 5184) if len(dirs) == 1 else (1, 432))


@pytest.mark.parametrize("p,n,dirs", ((3, 1, ((1,),)), (3, 2, ((1, 0), (0, 1)))))
def test_search_survivors_equal_checked_tables(p, n, dirs):
    # survivors are built without a check per entry; each equals the table
    # the public constructor builds, and hashes alike
    tables = exhaustive_bijection_search(p, n, LineFamily(QQ, n, dirs))
    checked = [FiniteMapTable(p, n, n, t.values) for t in tables]
    assert tables == checked
    assert [hash(t) for t in tables] == [hash(t) for t in checked]


def test_search_survivors_compare_hash_print_and_memoize_as_checked_tables():
    # the survivors of the one-direction (Z_3)^2 search share their p, n and m
    # but no instance dict: each one's injectivity memo is its own
    tables = exhaustive_bijection_search(3, 2, LineFamily(QQ, 2, ((1, 0),)))
    assert len(tables) == 5184
    checked = [FiniteMapTable(3, 2, 2, t.values) for t in tables]
    assert [repr(t) for t in tables] == [repr(t) for t in checked]
    assert len({id(t.__dict__) for t in tables}) == len(tables)
    first, second = tables[:2]
    assert "_injective" not in first.__dict__
    assert first.is_injective() and first.__dict__["_injective"] is True
    assert "_injective" not in second.__dict__
    assert list(second.__dict__) == ["p", "n", "m", "values"]
    assert first == checked[0] and hash(first) == hash(checked[0])


@pytest.mark.parametrize("p,n", ((3, 1), (5, 1), (3, 2), (5, 2), (7, 2), (3, 3)))
def test_affine_transversal_is_y0_plus_ax_at_every_point(p, n):
    # one map per ordered pair (y0, y1) of distinct points, in
    # itertools.permutations order, each y0 + Ax with A the identity whose
    # last column is v = y1 - y0 and whose column k, v's first nonzero
    # entry, is e = (0, ..., 0, 1); evaluated point by point here
    points = list(grid_points(p, n))
    maps = collineations._affine_transversal(p, n)
    assert len(maps) == len(points) * (len(points) - 1)
    for values, (y0, y1) in zip(maps, itertools.permutations(points, 2)):
        v = [(b - a) % p for a, b in zip(y0, y1)]
        cols = [[int(i == j) for i in range(n)] for j in range(n)]
        k = next(j for j, c in enumerate(v) if c)
        cols[k], cols[-1] = cols[-1], v
        assert values == tuple(tuple((a + sum(c * col[r] for c, col in zip(x, cols))) % p
                                     for r, a in enumerate(y0)) for x in points)
        assert (values[0], values[1]) == (y0, y1)  # g(0) = y0, g(e) = y1
        assert sorted(values) == points
    assert len(set(maps)) == len(maps)
    # every table holds the same p^n point objects
    assert len({id(x) for values in maps for x in values}) == len(points)


# (directions, nodes of the pinned search, tables it expands to)
SEARCH_WORK = (
    (((1, 0),), 1108, 5184),
    (((1, 2), (0, 1)), 478, 432),
    (((1, 1), (1, 0), (0, 1)), 436, 432),
)


@pytest.mark.parametrize("dirs,nodes,tables", SEARCH_WORK)
def test_search_node_counts(monkeypatch, dirs, nodes, tables):
    # slots fill in the order the family's lines name them, and a line is
    # checked as its last slot fills: that fixes the work of each search.
    # Each table the pinned survivors expand to costs one node more
    fam = LineFamily(QQ, 2, dirs)

    def smallest_budget(budget):
        monkeypatch.setattr(grid, "SEARCH_NODE_BUDGET", budget)
        assert len(exhaustive_bijection_search(3, 2, fam)) == tables
        monkeypatch.setattr(grid, "SEARCH_NODE_BUDGET", budget - 1)
        with pytest.raises(ResourceError, match=f"budget of {budget - 1} nodes"):
            exhaustive_bijection_search(3, 2, fam)

    smallest_budget(nodes + tables)
    # the pinned search alone, with a kernel that charges nothing per result
    monkeypatch.setattr(collineations, "_backtrack",
                        lambda domains, constraints, accept, result_cost: _backtrack(
                            domains, constraints, accept))
    smallest_budget(nodes)


@pytest.mark.parametrize("dirs,nodes,tables", SEARCH_WORK)
def test_search_budget_refuses_the_expansion_before_building_it(monkeypatch, dirs, nodes, tables):
    # the pinned search fits in this budget, its tables do not: neither the
    # affine maps nor a table is built
    def never(*args):
        raise AssertionError("built past the budget")

    monkeypatch.setattr(collineations, "_affine_transversal", never)
    monkeypatch.setattr(collineations, "_trusted", never)
    for budget in (nodes, nodes + tables - 1):
        monkeypatch.setattr(grid, "SEARCH_NODE_BUDGET", budget)
        with pytest.raises(ResourceError, match=f"budget of {budget} nodes"):
            exhaustive_bijection_search(3, 2, LineFamily(QQ, 2, dirs))


def test_search_refuses_a_grid_whose_affine_group_passes_the_budget(monkeypatch):
    # every affine bijection survives every family, so |AGL(n,p)| =
    # p^n (p^n - 1) ... (p^n - p^(n-1)) nodes are refused before the grid
    # points are listed or the kernel runs; the grids whose group fits reach them
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(collineations, "_backtrack", reached)
    monkeypatch.setattr(collineations, "grid_points", reached)

    def search(p, n):
        return exhaustive_bijection_search(p, n, LineFamily(QQ, n, ((1,) + (0,) * (n - 1),)))

    # |AGL|: 1,017,072, 1,597,200, 1,965,150,720 and 186,000,000
    for p, n in ((1009, 1), (11, 2), (3, 4), (5, 3)):
        with pytest.raises(ResourceError, match="budget of 1000000 nodes"):
            search(p, n)
    # |AGL|: 993,012, 98,784 and 303,264
    for p, n in ((997, 1), (7, 2), (3, 3)):
        with pytest.raises(Reached):
            search(p, n)
    # |AGL(2,3)| = 432 exactly
    monkeypatch.setattr(grid, "SEARCH_NODE_BUDGET", 431)
    with pytest.raises(ResourceError, match="budget of 431 nodes"):
        search(3, 2)
    monkeypatch.setattr(grid, "SEARCH_NODE_BUDGET", 432)
    with pytest.raises(Reached):
        search(3, 2)


def test_search_checks_the_family_dimension_before_the_budget():
    # (Z_5)^3 is refused by the budget, but a plane family is wrong input first
    with pytest.raises(InputError, match="family dimension != table dimension"):
        exhaustive_bijection_search(5, 3, LineFamily(QQ, 2, ((1, 0),)))


def test_search_kernel_on_a_small_case_and_a_deep_one():
    # distinct values, the constraint a[2] > a[0], results sorted
    assert _backtrack([range(3)] * 3, [((2, 0), None)],
                      lambda a, _item: a[2] > a[0]) == [(0, 1, 2), (0, 2, 1), (1, 0, 2)]
    # 5000 slots: deeper than the interpreter's recursion limit
    assert _backtrack([[i] for i in range(5000)], [],
                      lambda a, _item: True) == [tuple(range(5000))]


# ---------------------------------------------------------------------------
# plane form recovery against the point-by-point reading
# ---------------------------------------------------------------------------


def pointwise_plane_form(table):
    """The plane form read point by point, every check made before the form
    is compared with the table: the axis-line test on every axis line, the
    axis reader's test at every axis point, then the form evaluated at every
    point.  The oracle of `recover_plane_form`."""
    if table.n != 2:
        raise InputError("plane form recovery needs n = 2")
    if table.m < 2:
        raise InputError("plane form recovery needs m >= 2")
    if not table.is_injective():
        raise InputError("table is not injective")
    p, values = table.p, table.values
    if not all(collineations.points_collinear(p, [table.apply(x) for x in line])
               for d in ((1, 0), (0, 1)) for line in enumerate_lines(p, 2, d)):
        raise InputError("an axis-parallel line is not mapped onto a line")

    def axis(v):
        diffs = [tuple((a - b) % p for a, b in zip(table.apply((s * v[0], s * v[1])), values[0]))
                 for s in range(p)]
        w = diffs[1]
        j0 = next((j for j, c in enumerate(w) if c), None)
        if j0 is None:
            raise InternalInconsistencyError("axis vector is zero")
        f = tuple(d[j0] * pow(w[j0], p - 2, p) % p for d in diffs)
        if any(c != s * e % p for d, s in zip(diffs, f) for c, e in zip(d, w)):
            raise InternalInconsistencyError("point is not on the expected axis")
        return w, f

    (u1, f), (u2, g) = axis((1, 0)), axis((0, 1))
    base = values[0]
    u3 = tuple((c - o - a - b) % p for c, o, a, b in zip(table.apply((1, 1)), base, u1, u2))
    form = PlaneForm(p, u1, u2, u3, f, g, base)
    if tuple(form.apply(x) for x in grid_points(p, 2)) != values:
        raise InternalInconsistencyError("recovered plane form does not reproduce the table")
    return form


def assert_plane_forms_agree(tables):
    """Each table's outcome, asserted equal under both readings."""
    outcomes = []
    for table in tables:
        outcome = memo_outcome(recover_plane_form, table, ())
        assert outcome == memo_outcome(pointwise_plane_form, table, ()), table.values
        outcomes.append(outcome)
    return outcomes


@pytest.mark.parametrize("dirs", PLANE_DIRECTION_SETS)
def test_plane_form_matches_the_pointwise_reading_on_search_survivors(dirs):
    # two or more directions leave AGL(2,3), whose forms are affine; one
    # direction leaves maps that tear the other axis, an input error
    outcomes = assert_plane_forms_agree(exhaustive_bijection_search(3, 2, LineFamily(QQ, 2, dirs)))
    kinds = Counter(outcome[:1] + outcome[2:] for outcome in outcomes)
    if len(dirs) > 1:
        assert kinds == {("returned",): 432}
    else:
        assert set(kinds) == {("returned",),
                              ("raised", "an axis-parallel line is not mapped onto a line")}


def plane_tables():
    """Tables of every outcome of `recover_plane_form`: plane forms with and
    without a cross term, seeded bijections and forms of (Z_5)^2 with m = 2
    and 3, torn, non-injective and last-point-perturbed tables, and tables
    of the wrong n or m."""
    rng = Random(27)
    f, g = [0, 2, 4, 1, 3], [0, 3, 1, 4, 2]
    tables = [table_from_function(5, 2, 2, lambda x: (f[x[0]], g[x[1]])),
              table_from_function(5, 2, 3, lambda x: (x[0], x[1], x[0] * x[1] % 5)),
              table_from_function(3, 2, 3, lambda x: (x[0], x[1], x[0] * x[1] % 3)),
              torn_table(), identity_table(3, 2),
              table_from_function(5, 2, 2, lambda x: (x[0], 0)),
              table_from_function(5, 2, 1, lambda x: (x[0] + 2 * x[1],)),
              identity_table(5, 1), identity_table(3, 3)]
    points = list(grid_points(5, 2))
    for _ in range(100):
        tables.append(FiniteMapTable(5, 2, 2, tuple(rng.sample(points, 25))))
    for m in (2, 3):
        for _ in range(100):
            u = [tuple(rng.randrange(5) for _ in range(m)) for _ in range(4)]
            f, g = ([0] + rng.sample(range(1, 5), 4) for _ in range(2))
            form = PlaneForm(5, *u[:3], f, g, u[3])
            tables.append(table_from_function(5, 2, m, form.apply))
    for table in tables[:3]:
        # the form but at its last point
        last = table.values[-1]
        values = table.values[:-1] + (((last[0] + 1) % table.p,) + last[1:],)
        tables.append(FiniteMapTable(table.p, 2, table.m, values))
    return tables


def test_plane_form_matches_the_pointwise_reading():
    # the reference checks every axis point as well; agreement shows that
    # check never fires once the axis lines are lines
    outcomes = assert_plane_forms_agree(plane_tables())
    assert {o[2] for o in outcomes if o[0] == "raised"} == {
        "plane form recovery needs n = 2", "plane form recovery needs m >= 2",
        "table is not injective", "an axis-parallel line is not mapped onto a line"}
    assert {o[1]["cross_term_vanishes"] for o in outcomes if o[0] == "returned"} == {True, False}


def test_plane_form_recovery_walks_the_axes_only_when_the_form_fails():
    # a table the form reproduces meets the axis-line hypothesis by the form
    # alone: no line is walked.  A table it does not reproduce has both axis
    # directions walked, and the walks serve a later family check as they are
    p5 = table_from_function(5, 2, 3, lambda x: (x[0], x[1], x[0] * x[1] % 5))
    reproduced = [identity_table(3, 2), p5]
    for dirs in PLANE_DIRECTION_SETS[4:6]:
        reproduced += exhaustive_bijection_search(3, 2, LineFamily(QQ, 2, dirs))
    for table in reproduced:
        recover_plane_form(table)
        assert "_walks" not in table.__dict__
    # the form but at its last point (4, 4): the e1-line through (0, 4) is torn
    values = p5.values[:-1] + (p5.values[-1][:2] + ((p5.values[-1][2] + 1) % 5,),)
    fam = standard_family(QQ, 2)
    for fresh in (torn_table, lambda: FiniteMapTable(5, 2, 3, values)):
        table = fresh()
        with pytest.raises(InputError, match="axis-parallel line"):
            recover_plane_form(table)
        assert set(table.__dict__["_walks"]) == {(1, 0), (0, 1)}
        report = check_family(table, fam)
        assert not report.ok and report == check_family(fresh(), fam)


# ---------------------------------------------------------------------------
# tables and serialization
# ---------------------------------------------------------------------------


def test_table_json_round_trip(example_table_p5):
    back = table_from_json(table_to_json(example_table_p5))
    assert back.values == example_table_p5.values
    assert (back.p, back.n, back.m) == (5, 3, 3)


def test_table_rejects_entries_that_are_not_ints():
    ints = [[x] for x in range(3)]
    assert table_from_json({"p": 3, "n": 1, "m": 1, "values": ints}).values == ((0,), (1,), (2,))
    # int() would truncate 0.9 to 0 and 1.5 to 1, and take True for 1 and "2" for 2
    for bad in (0.9, 1.5, True, "2"):
        values = ((0,), (bad,), (2,))
        with pytest.raises(InputError, match="not an int"):
            FiniteMapTable(3, 1, 1, values)
        with pytest.raises(InputError):
            table_from_json({"p": 3, "n": 1, "m": 1, "values": [list(v) for v in values]})


def test_table_from_function_rejects_values_that_are_not_ints():
    # int() would truncate 1.9 to 1 at every point
    assert table_from_function(3, 1, 1, lambda x: (x[0] + 4,)).values == ((1,), (2,), (0,))
    for bad in (1.9, True):
        with pytest.raises(InputError, match="not an int"):
            table_from_function(3, 1, 1, lambda x: (bad,))


def test_family_over_another_prime_field_is_rejected():
    table = identity_table(5, 2)
    assert check_family(table, standard_family(PrimeField(5), 2)).ok
    # over GF(7), (1, 5) is not parallel to (1, 0); mod 5 it would be
    # reduced to the e1 direction
    fam = LineFamily(PrimeField(7), 2, ((1, 0), (0, 1)))
    for oracle in (check_family, parallelism_report, verify_span_invariants,
                   recover_diagonal_form):
        with pytest.raises(InputError, match="GF\\(7\\)"):
            oracle(table, fam)


def test_table_validation():
    with pytest.raises(InputError):
        table_from_json({"p": 5, "n": 2, "m": 2, "values": [[0, 0]]})
    with pytest.raises(InputError):
        table_from_json({"p": 4, "n": 1, "m": 1, "values": [[0]] * 4})
