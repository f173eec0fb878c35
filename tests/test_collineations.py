"""Finite-grid line families: onto/into checks, parallelism, normal forms,
span invariants, and the exhaustive bijection search."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemaps import (
    FiniteMapTable,
    InputError,
    LineFamily,
    PrimeField,
    QQ,
    ResourceError,
    check_family,
    check_parallelism,
    enumerate_lines,
    example_r3_map,
    exhaustive_bijection_search,
    grid_points,
    parallelism_report,
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
    verify_span_invariants,
)


def identity_table(p, n):
    return table_from_function(p, n, n, lambda x: x)


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


@pytest.mark.parametrize("length", (1, 2, 3, 4))  # 2 takes the plane branch
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
    assert check_parallelism(tab, fam)


def test_example_map_sends_parallel_lines_to_skew_lines(example_table_p5):
    fam = standard_family(QQ, 3)
    assert check_family(example_table_p5, fam).ok
    assert not check_parallelism(example_table_p5, fam)
    report = parallelism_report(example_table_p5, fam)
    assert all(v.reason == "not-parallel" for v in report.violations)


def test_skew_image_example_from_three_variables():
    # (s,t,r) -> (s,t, st - r) carries e1- and e2-lines onto lines, but the
    # image directions twist with the transverse coordinates
    tab = table_from_function(5, 3, 3,
                              lambda x: (x[0], x[1], (x[0] * x[1] - x[2]) % 5))
    fam = LineFamily(QQ, 3, ((1, 0, 0), (0, 1, 0)))
    assert check_family(tab, fam).ok
    assert not check_parallelism(tab, fam)


def test_parallelism_requires_injectivity():
    proj = table_from_function(3, 2, 2, lambda x: (x[0], 0))
    with pytest.raises(InputError):
        parallelism_report(proj, standard_family(QQ, 2))


def test_parallelism_requires_every_family_line_onto_a_line():
    # the identity of (Z_5)^2 with the images of (0,0) and (1,1) swapped is
    # injective, but tears the e1-line and the e2-line through the origin;
    # the (1,1)-lines stay lines (the swap stays inside one of them)
    swap = {(0, 0): (1, 1), (1, 1): (0, 0)}
    torn = table_from_function(5, 2, 2, lambda x: swap.get(x, x))
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


def test_span_invariants_need_exactly_n_directions():
    with pytest.raises(InputError):
        verify_span_invariants(identity_table(3, 2), LineFamily(QQ, 2, ((1, 0),)))


# ---------------------------------------------------------------------------
# diagonal form recovery
# ---------------------------------------------------------------------------


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


def test_plane_form_cross_term_tracks_parallelism():
    f = [0, 2, 4, 1, 3]
    g = [0, 3, 1, 4, 2]
    straight = table_from_function(5, 2, 2, lambda x: (f[x[0]], g[x[1]]))
    skewed = table_from_function(5, 2, 3, lambda x: (x[0], x[1], x[0] * x[1] % 5))
    fam = standard_family(QQ, 2)
    assert check_parallelism(straight, fam) == recover_plane_form(straight).cross_term_vanishes
    assert check_parallelism(skewed, fam) == recover_plane_form(skewed).cross_term_vanishes


# ---------------------------------------------------------------------------
# exhaustive bijection search
# ---------------------------------------------------------------------------


def test_exhaustive_search_on_the_plane_mod_3():
    fam = standard_family(QQ, 2)
    onto = exhaustive_bijection_search(3, 2, fam, mode="onto")
    assert len(onto) == 432
    # results are sorted by value table; the identity grid comes first
    values = [t.values for t in onto]
    assert values == sorted(values)
    assert onto[0].values == tuple(grid_points(3, 2))
    # for bijections the into search returns the same set
    into = exhaustive_bijection_search(3, 2, fam, mode="into")
    assert [t.values for t in into] == values


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
