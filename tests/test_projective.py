"""Projective spaces over prime fields: frames, correspondences, the
linearity decision procedure, and the affine embedding."""

from __future__ import annotations

import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from random import Random

import pytest

from linemaps import (
    InputError,
    PrimeField,
    ProjLinearMap,
    ProjPoint,
    ProjTable,
    QQ,
    ResourceError,
    check_projective_hypotheses,
    decide_projective_linear,
    embed_affine_table,
    example_r3_map,
    lines_through,
    mat_mul,
    matrix,
    pg_points,
    proj_general_position,
    proj_identity,
    proj_point,
    proj_table_from_json,
    proj_table_from_map,
    proj_table_to_json,
    reduce_mod,
    split,
    tabulate,
    transform_from_correspondence,
)
from linemaps import projective
from linemaps.exact import mat_vec, normalize_coords, rank_of_vectors
from linemaps.projective import _frame_weights, _image_blocks, _incidence

# ---------------------------------------------------------------------------
# points, spaces, lines
# ---------------------------------------------------------------------------


def test_point_normalization_makes_equality_syntactic():
    F = PrimeField(5)
    assert proj_point(F, (2, 4, 0)).coords == (1, 2, 0)
    assert proj_point(F, (2, 4, 0)) == proj_point(F, (3, 1, 0))
    with pytest.raises(InputError):
        proj_point(F, (0, 0, 0))


def test_space_sizes():
    assert len(pg_points(3, 2)) == 13
    assert len(pg_points(3, 3)) == 40
    assert len(pg_points(7, 2)) == 57


def test_lines_are_pencils_of_the_right_size():
    # a line of PG(n,p) has p+1 points; the pencil through a point has
    # (p^n - 1)/(p - 1) lines
    for (p, n, pencil) in ((3, 2, 4), (3, 3, 13), (7, 2, 8)):
        lines = lines_through((1, 0, 0, 0)[: n + 1], p, n)
        assert len(lines) == pencil
        assert all(len(line) == p + 1 for line in lines)


# ---------------------------------------------------------------------------
# the incidence structure of PG(n,p), against the pair scan and closed forms
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def pair_scan_lines(p, n):
    """Every line of PG(n,p) by the pair scan: for each pair of points a, b
    the normalized points b and a + t*b, duplicates dropped, sorted."""
    pts = pg_points(p, n)
    lines = set()
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            line = {b} | {normalize_coords(p, [x + t * y for x, y in zip(a, b)])
                          for t in range(p)}
            lines.add(tuple(sorted(line)))
    return tuple(sorted(lines))


def pair_scan_pencil(point, p, n):
    return [line for line in pair_scan_lines(p, n) if point in line]


def gaussian_binomial(m, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


SMALL_SPACES = ((3, 1), (5, 1), (3, 2), (5, 2), (7, 2), (3, 3), (5, 3))


@pytest.mark.parametrize("p,n", SMALL_SPACES + ((7, 3), (3, 4)))
def test_points_are_the_normalized_nonzero_vectors_in_order(p, n):
    raw = itertools.product(range(p), repeat=n + 1)
    assert pg_points(p, n) == tuple(sorted({normalize_coords(p, c) for c in raw if any(c)}))


@pytest.mark.parametrize("p,n", ((3, 1), (7, 1), (3, 2), (5, 2), (7, 2), (3, 3),
                                 (5, 3), (7, 3), (3, 4), (5, 4)))
def test_line_count_is_the_gaussian_binomial_and_pencils_are_full(p, n):
    incidence = _incidence(p, n)
    lines, points = incidence.lines, pg_points(p, n)
    assert len(lines) == gaussian_binomial(n + 1, 2, p)
    assert all(len(line) == p + 1 and list(line) == sorted(set(line)) for line in lines)
    # every pair of distinct points lies on exactly one line
    pairs = Counter(pair for line in lines for pair in itertools.combinations(line, 2))
    assert len(pairs) == len(points) * (len(points) - 1) // 2
    assert set(pairs.values()) == {1}
    # the line test reads the ids in any order
    assert all(incidence.is_line(line[::-1]) for line in lines)
    assert not incidence.is_line(range(1, p + 2))
    # each pencil holds its point's lines, (p^n - 1)/(p - 1) of them, in the
    # builder's order: sorted
    pencils = [[] for _ in points]
    for line in sorted(lines):
        for x in line:
            pencils[x].append(line)
    assert incidence.pencils == tuple(map(tuple, pencils))
    assert {len(pencil) for pencil in pencils} == {(p ** n - 1) // (p - 1)}


@pytest.mark.parametrize("p,n", ((3, 2), (5, 2), (3, 3)))
def test_two_points_lie_on_exactly_one_line(p, n):
    pts = pg_points(p, n)
    for a in pts:
        pencil = lines_through(a, p, n)
        for b in pts:
            if b != a:
                assert sum(b in line for line in pencil) == 1


@pytest.mark.parametrize("p,n", SMALL_SPACES + ((3, 4), (13, 2)))
def test_lines_through_matches_the_pair_scan_at_every_point(p, n):
    for x in pg_points(p, n):
        assert lines_through(x, p, n) == pair_scan_pencil(x, p, n)


def test_lines_through_accepts_any_representative():
    F = PrimeField(5)
    want = lines_through((0, 1, 2), 5, 2)
    assert lines_through((0, 3, 1), 5, 2) == want      # 3 * (0, 1, 2)
    assert lines_through(proj_point(F, (0, 2, 4)), 5, 2) == want
    for bad in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(InputError):
            lines_through(bad, 5, 2)
    with pytest.raises(InputError):
        lines_through((0, 0, 0), 5, 2)


def rank_oracle_report(table, anchors):
    """The hypothesis check by rank: a line is bent when its images span
    more than a plane of the lift, and not onto when they are fewer than
    p+1 (which an injective table never gives)."""
    p, n = table.p, table.n
    violations = []
    for anchor in anchors:
        a = normalize_coords(p, anchor)
        for line in pair_scan_pencil(a, p, n):
            images = sorted({table.apply(x) for x in line})
            if rank_of_vectors(PrimeField(p), images) > 2:
                reason = "not-a-line"
            elif len(images) < p + 1:
                reason = "not-onto"
            else:
                continue
            violations.append({"anchor": list(a), "line": [list(c) for c in line],
                               "reason": reason})
    return {"ok": not violations, "violations": violations}


@pytest.mark.parametrize("p,n", ((3, 1), (3, 2), (5, 2), (7, 2), (3, 3), (5, 3), (3, 4)))
def test_hypothesis_check_matches_the_rank_oracle(p, n):
    rng = Random(p * 31 + n)
    pts = pg_points(p, n)
    linear = proj_table_from_map(random_proj_linear(rng, p, n), p).values
    for kind in ("permutation", "permutation", "swap", "swap", "linear"):
        values = list(pts if kind == "permutation" else linear)
        if kind == "permutation":
            rng.shuffle(values)
        elif kind == "swap":
            i, j = rng.sample(range(len(values)), 2)
            values[i], values[j] = values[j], values[i]
        table = ProjTable(p, n, tuple(values))
        # anchors in any representative: scaled by a unit
        anchors = [tuple(rng.randrange(1, p) * c for c in x) for x in rng.sample(pts, n + 2)]
        got = check_projective_hypotheses(table, anchors).to_json()
        assert got == rank_oracle_report(table, anchors), kind


def test_proj_table_rejects_n_below_one_and_wrong_counts_before_enumerating():
    for n, values in ((0, ((1,),)), (-1, ())):
        with pytest.raises(InputError, match=f"need n >= 1 .* got n = {n}"):
            ProjTable(3, n, values)
    # PG(4, 10007) has about 10^16 points; the count is compared first
    with pytest.raises(InputError, match="got n = 4, 0 values"):
        ProjTable(10007, 4, ())
    with pytest.raises(InputError, match="got n = 2, 12 values"):
        ProjTable(3, 2, pg_points(3, 2)[1:])


def test_spaces_past_the_point_budget_are_resource_errors():
    # PG(2,1009) has 1,019,091 points; none of these sizes is enumerated
    for p, n in ((1009, 2), (10007, 4), (3, 10 ** 9)):
        with pytest.raises(ResourceError, match=f"PG\\({n},{p}\\) has more than 1000000 points"):
            pg_points(p, n)
    with pytest.raises(ResourceError):
        proj_table_from_map(proj_identity(PrimeField(1009), 2), 1009)
    # PG(2,101) is just past the bound (10,303 points, 102 lines through
    # each), so a missing guard fails here before PG(3,31) is attempted
    # (30,784 points, 993 lines through each)
    for p, n in ((101, 2), (31, 3)):
        with pytest.raises(ResourceError, match="more than 1000000 point-line incidences"):
            lines_through((1,) + (0,) * n, p, n)
    # PG(4,5): 781 points with 156 lines through each, 121,836 incidences
    assert sum(map(len, _incidence(5, 4).pencils)) == 121836


def test_general_position():
    F = PrimeField(3)
    frame = [proj_point(F, c) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))]
    assert proj_general_position(frame)
    collinear = [proj_point(F, c) for c in ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1))]
    assert not proj_general_position(collinear)
    # on a projective line, distinct points are exactly the generic tuples
    line_pts = [proj_point(F, c) for c in ((1, 0), (0, 1), (1, 1), (1, 2))]
    assert proj_general_position(line_pts)


# ---------------------------------------------------------------------------
# projective-linear maps
# ---------------------------------------------------------------------------


def test_canonical_matrix_scaling():
    F = PrimeField(5)
    a = ProjLinearMap(matrix(F, ((2, 0), (0, 2))))
    assert a.matrix.rows == ((1, 0), (0, 1))  # rescaled to leading 1
    assert a == proj_identity(F, 1)


def test_singular_matrices_rejected():
    F = PrimeField(3)
    with pytest.raises(InputError):
        ProjLinearMap(matrix(F, ((1, 2, 0), (0, 1, 1), (1, 0, 1))))


# ---------------------------------------------------------------------------
# frames and correspondences
# ---------------------------------------------------------------------------


def random_generic_frame(rng, field, p, n):
    pts = pg_points(p, n)
    while True:
        sample = [proj_point(field, pts[rng.randrange(len(pts))])
                  for _ in range(n + 2)]
        if proj_general_position(sample):
            return sample


def test_correspondence_hits_all_pairs_and_is_permutation_stable():
    rng = Random(99)
    for (p, n) in ((3, 2), (3, 3), (7, 2)):
        F = PrimeField(p)
        for _ in range(10):
            src = random_generic_frame(rng, F, p, n)
            dst = random_generic_frame(rng, F, p, n)
            T = transform_from_correspondence(src, dst)
            for s, d in zip(src, dst):
                assert T.apply(s) == d
            # feeding the pairs in a different order yields the same class
            order = list(range(n + 2))
            rng.shuffle(order)
            T2 = transform_from_correspondence([src[i] for i in order],
                                               [dst[i] for i in order])
            assert T2 == T
            # composing with the reverse correspondence gives the identity
            back = transform_from_correspondence(dst, src)
            assert ProjLinearMap(mat_mul(back.matrix, T.matrix)) == proj_identity(F, n)


def test_correspondence_over_the_rationals():
    src = [proj_point(QQ, c) for c in
           ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))]
    dst = [proj_point(QQ, c) for c in
           ((1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 2, 4))]
    assert proj_general_position(dst)
    T = transform_from_correspondence(src, dst)
    for s, d in zip(src, dst):
        assert T.apply(s) == d


def test_correspondence_rejects_degenerate_frames():
    F = PrimeField(3)
    src = [proj_point(F, c) for c in
           ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1))]  # three collinear
    dst = [proj_point(F, c) for c in
           ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))]
    for a, b in ((src, dst), (dst, src)):
        with pytest.raises(InputError, match="^both frames must be in general position$"):
            transform_from_correspondence(a, b)


def test_correspondence_rejects_points_from_different_spaces():
    F = PrimeField(3)
    frame = [proj_point(F, c) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))]
    for stranger in (proj_point(PrimeField(5), (1, 1, 1)), proj_point(QQ, (1, 1, 1)),
                     proj_point(F, (1, 1)), proj_point(F, (1, 1, 1, 1))):
        for src, dst in ((frame[:3] + [stranger], frame), (frame, frame[:3] + [stranger])):
            with pytest.raises(InputError, match="^points live in different projective spaces$"):
                transform_from_correspondence(src, dst)
    with pytest.raises(InputError, match="^need n\\+2 = 4 point pairs$"):
        transform_from_correspondence(frame[:3], frame[:3])
    with pytest.raises(InputError, match="^need matching nonempty point lists$"):
        transform_from_correspondence(frame, frame[:3])


def assert_frame_test_matches_general_position(field, points):
    # the one elimination decides general position, and its weights write
    # the last lift in the first n+1
    lifts = [pt.coords for pt in points]
    weights = _frame_weights(field, lifts)
    assert (weights is not None) == proj_general_position(points), lifts
    if weights is not None:
        combo = [field.zero()] * len(lifts[0])
        for w, lift in zip(weights, lifts):
            combo = [field.convert(c + w * x) for c, x in zip(combo, lift)]
        assert tuple(combo) == lifts[-1]


def test_frame_test_on_every_four_points_of_the_plane_mod_3():
    F = PrimeField(3)
    rng = Random(3)
    points = [proj_point(F, c) for c in pg_points(3, 2)]
    frames = 0
    for subset in itertools.combinations(points, 4):
        subset = list(subset)
        rng.shuffle(subset)
        assert_frame_test_matches_general_position(F, subset)
        frames += proj_general_position(subset)
    # 13 * 12 * 9 * 4 / 4! four-point sets with no three collinear
    assert frames == 234


@pytest.mark.parametrize("p,n", ((3, 3), (5, 2)))
def test_frame_test_on_seeded_tuples(p, n):
    F = PrimeField(p)
    rng = Random(10 * p + n)
    pts = pg_points(p, n)
    for _ in range(300):
        assert_frame_test_matches_general_position(
            F, [proj_point(F, c) for c in rng.sample(pts, n + 2)])


def test_frame_test_over_the_rationals():
    rng = Random(5)
    for n in (1, 2, 3):
        for _ in range(60):
            while True:
                # small entries, so that dependent tuples come up often
                coords = [tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                                for _ in range(n + 1)) for _ in range(n + 2)]
                if all(any(c) for c in coords):
                    break
            assert_frame_test_matches_general_position(QQ, [proj_point(QQ, c) for c in coords])


# ---------------------------------------------------------------------------
# hypothesis checks on tables
# ---------------------------------------------------------------------------


def test_identity_table_passes_everywhere():
    table = proj_table_from_map(proj_identity(PrimeField(3), 2), 3)
    report = check_projective_hypotheses(table, pg_points(3, 2))
    assert report.ok


def test_single_swap_breaks_some_line():
    pts = pg_points(3, 2)
    values = list(pts)
    values[0], values[1] = values[1], values[0]
    table = ProjTable(3, 2, tuple(values))
    report = check_projective_hypotheses(table, pts)
    assert not report.ok
    assert report.violations[0].reason == "not-a-line"


# ---------------------------------------------------------------------------
# the decision procedure
# ---------------------------------------------------------------------------


def random_proj_linear(rng, p, n):
    F = PrimeField(p)
    while True:
        rows = tuple(tuple(rng.randrange(p) for _ in range(n + 1))
                     for _ in range(n + 1))
        try:
            return ProjLinearMap(matrix(F, rows))
        except InputError:
            continue


@pytest.mark.parametrize("p,n", ((3, 2), (3, 3)))
def test_decide_recovers_linear_tables(p, n):
    rng = Random(p * 100 + n)
    for _ in range(10):
        m = random_proj_linear(rng, p, n)
        table = proj_table_from_map(m, p)
        decided = decide_projective_linear(table)
        assert decided == m


@pytest.mark.parametrize("p,n", ((3, 2), (3, 3)))
def test_decide_rejects_perturbed_tables(p, n):
    rng = Random(p * 17 + n)
    for _ in range(10):
        m = random_proj_linear(rng, p, n)
        values = list(proj_table_from_map(m, p).values)
        i, j = rng.sample(range(len(values)), 2)
        values[i], values[j] = values[j], values[i]
        assert decide_projective_linear(ProjTable(p, n, tuple(values))) is None


def test_decide_requires_injectivity():
    pts = pg_points(3, 2)
    const = ProjTable(3, 2, tuple(pts[0] for _ in pts))
    with pytest.raises(InputError):
        decide_projective_linear(const)


def test_decide_on_the_projective_line():
    # swapping the two chart points 0 and infinity is x -> 1/x, which is
    # projective-linear with the antidiagonal matrix
    F = PrimeField(3)
    pts = pg_points(3, 1)  # (0,1), (1,0), (1,1), (1,2)
    swap = {(0, 1): (1, 0), (1, 0): (0, 1), (1, 1): (1, 1), (1, 2): (1, 2)}
    table = ProjTable(3, 1, tuple(swap[c] for c in pts))
    decided = decide_projective_linear(table)
    assert decided is not None
    assert decided.matrix.rows == ((0, 1), (1, 0))


def rank_decision(table):
    """The decision by a search for the first generic frame with generic
    images, with the generic Matrix rank and a ProjPoint comparison at every
    point: an oracle independent of the standard frame.  Returns the map, or
    None when no such frame exists or the table disagrees with its map."""
    p, n = table.p, table.n
    gf = PrimeField(p)
    pts = pg_points(p, n)

    def generic(prefix, extra):
        lifts = prefix + [extra]
        if len(lifts) <= n + 1:
            return rank_of_vectors(gf, lifts) == len(lifts)
        return all(rank_of_vectors(gf, list(subset) + [extra]) == n + 1
                   for subset in itertools.combinations(lifts[:-1], n))

    def search(frame, images, start):
        if len(frame) == n + 2:
            return frame, images
        for idx in range(start, len(pts)):
            cand, img = pts[idx], table.apply(pts[idx])
            if generic(frame, cand) and generic(images, img):
                found = search(frame + [cand], images + [img], idx + 1)
                if found:
                    return found
        return None

    found = search([], [], 0)
    if found is None:
        return None
    frame, images = found
    m = transform_from_correspondence([ProjPoint(gf, c) for c in frame],
                                      [ProjPoint(gf, c) for c in images])
    agrees = all(m.apply(ProjPoint(gf, c)).coords == table.apply(c) for c in pts)
    return m if agrees else None


@pytest.mark.parametrize("p,n", ((3, 2), (3, 3), (5, 2), (3, 4)))
def test_decide_matches_the_rank_oracle(p, n):
    # the same map, or None, on linear tables, tables with two images
    # swapped, and shuffled tables
    rng = Random(1000 * p + n)
    for kind in ("linear", "swapped", "shuffled") * 3:
        values = list(proj_table_from_map(random_proj_linear(rng, p, n), p).values)
        if kind == "swapped":
            i, j = rng.sample(range(len(values)), 2)
            values[i], values[j] = values[j], values[i]
        elif kind == "shuffled":
            rng.shuffle(values)
        table = ProjTable(p, n, tuple(values))
        want = rank_decision(table)
        assert decide_projective_linear(table) == want
        if kind == "linear":
            assert want is not None


def random_raw_rows(rng, p, n):
    """Seeded rows of an invertible matrix over GF(p) whose first entry is
    not 1, so that it is not in the canonical scaling."""
    gf = PrimeField(p)
    while True:
        rows = [[rng.randrange(p) for _ in range(n + 1)] for _ in range(n + 1)]
        rows[0][0] = rng.choice([0] + list(range(2, p)))
        try:
            ProjLinearMap(matrix(gf, rows))
        except InputError:
            continue
        return rows


@pytest.mark.parametrize("p,n", ((3, 2), (7, 2), (3, 3), (5, 3), (7, 3), (3, 4), (5, 4)))
def test_proj_table_from_map_matches_apply_at_every_point(p, n):
    # the column build, block by block, against one ProjPoint and one
    # ProjLinearMap.apply per point.  The builder is also given the raw rows
    # (the decision gives it an unscaled frame matrix), and the lifts of the
    # canonical rows must have leading entries other than 1 too, so each
    # table scales some lift
    rng = Random(31 * p + n)
    gf, pts = PrimeField(p), pg_points(p, n)
    for _ in range(3):
        rows = random_raw_rows(rng, p, n)
        m = ProjLinearMap(matrix(gf, rows))
        want = tuple(m.apply(ProjPoint(gf, c)).coords for c in pts)
        assert proj_table_from_map(m, p).values == want
        assert tuple(itertools.chain.from_iterable(_image_blocks(rows, p))) == want
        assert any(next(x for x in mat_vec(m.matrix, c) if x) != 1 for c in pts)


def test_a_large_p_builds_no_table_quadratic_in_p():
    # PG(1, p) has p + 1 points, so its image blocks need O(p) memory; a
    # p x p table of multiples held 4 million ints at p = 2003, about 150 MB
    p = 2003
    m = ProjLinearMap(matrix(PrimeField(p), [[1, 2], [3, 5]]))
    tracemalloc.start()
    try:
        table = proj_table_from_map(m, p)
        assert decide_projective_linear(table) == m
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def block_starts(p, n):
    """The index of the first point of each block of PG(n,p), block i being
    the points (0,)*i + (1,) + tail, i from n down to 0, and the index past
    the last point."""
    return [(p ** k - 1) // (p - 1) for k in range(n + 2)]


@pytest.mark.parametrize("p,n", ((3, 2), (3, 3), (5, 2), (5, 3)))
def test_decide_on_swaps_at_the_block_boundaries(p, n):
    # two images swapped: the single point of the first block with a point
    # of each later block, the last point with a point of each earlier
    # block, and two points of each block of more than one point; the rank
    # oracle decides each table, and no swap leaves a linear table
    rng = Random(7 * p + n)
    starts = block_starts(p, n)
    last = starts[-1] - 1
    swaps = [(0, rng.randrange(a, b)) for a, b in zip(starts[1:], starts[2:])]
    swaps += [(rng.randrange(a, b), last) for a, b in zip(starts, starts[1:-1])]
    swaps += [tuple(rng.sample(range(a, b), 2)) for a, b in zip(starts[1:], starts[2:])]
    for i, j in swaps:
        values = list(proj_table_from_map(random_proj_linear(rng, p, n), p).values)
        values[i], values[j] = values[j], values[i]
        table = ProjTable(p, n, tuple(values))
        assert decide_projective_linear(table) is None
        assert rank_decision(table) is None, (i, j)


def transposition_kinds(p, n, swaps):
    """How many of the swaps lie in the hyperplane x_0 = 0, how many in the
    chart x_0 = 1, and how many cross between them."""
    chart = block_starts(p, n)[n]
    return Counter("hyperplane" if j < chart else "chart" if i >= chart else "across"
                   for i, j in map(sorted, swaps))


def assert_transpositions_match_the_rank_oracle(p, n, swaps):
    values = proj_table_from_map(random_proj_linear(Random(p + 10 * n), p, n), p).values
    for i, j in swaps:
        swapped = list(values)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        table = ProjTable(p, n, tuple(swapped))
        assert decide_projective_linear(table) == rank_decision(table), (i, j)


def test_decide_on_every_transposition_of_a_linear_plane_mod_3():
    swaps = list(itertools.combinations(range(13), 2))
    assert len(swaps) == 78
    assert transposition_kinds(3, 2, swaps) == {"hyperplane": 6, "chart": 36, "across": 36}
    assert_transpositions_match_the_rank_oracle(3, 2, swaps)


@pytest.mark.parametrize("p,n", ((3, 3), (5, 2)))
def test_decide_on_seeded_transpositions(p, n):
    rng = Random(100 * p + n)
    size = len(pg_points(p, n))
    swaps = [rng.sample(range(size), 2) for _ in range(200)]
    assert set(transposition_kinds(p, n, swaps)) == {"hyperplane", "chart", "across"}
    assert_transpositions_match_the_rank_oracle(p, n, swaps)


def per_block_images(rows, p):
    """The images under the matrix rows of PG(n,p), block by block, each
    block one ProjPoint per point, grouped as the builder's two parts."""
    gf, n = PrimeField(p), len(rows) - 1
    m = ProjLinearMap(matrix(gf, rows))
    blocks = [tuple(m.apply(ProjPoint(gf, (0,) * i + (1,) + tail)).coords
                    for tail in itertools.product(range(p), repeat=n - i))
              for i in range(n, -1, -1)]
    return [tuple(itertools.chain.from_iterable(blocks[:-1])), blocks[-1]]


@pytest.mark.parametrize("p,n", ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (5, 3), (3, 4)))
def test_image_parts_are_the_hyperplane_and_the_chart(p, n):
    # two parts, built from raw rows: the hyperplane x_0 = 0 (one point at
    # n = 1) and the chart x_0 = 1, each against the images block by block
    rng = Random(53 * p + n)
    for _ in range(3):
        rows = random_raw_rows(rng, p, n)
        parts = list(_image_blocks(rows, p))
        assert [len(part) for part in parts] == [(p ** n - 1) // (p - 1), p ** n]
        assert all(c[0] == 0 for c in pg_points(p, n)[:len(parts[0])])
        assert parts == per_block_images(rows, p)


def test_decide_stops_at_the_first_disagreeing_block(monkeypatch):
    # PG(3,3) has a hyperplane x_0 = 0 of 13 points and a chart of 27; the
    # frame's points are the first point of each block and (1, 1, 1, 1), id
    # 26, so a swap of ids 2 and 3, two hyperplane points off the frame,
    # keeps the candidate and fails the hyperplane before the chart is built
    p, n = 3, 3
    m = random_proj_linear(Random(5), p, n)
    linear = proj_table_from_map(m, p)
    values = list(linear.values)
    values[2], values[3] = values[3], values[2]
    built = []

    def spy(rows, p):
        for part in _image_blocks(rows, p):
            built.append(len(part))
            yield part

    monkeypatch.setattr(projective, "_image_blocks", spy)
    assert decide_projective_linear(ProjTable(p, n, tuple(values))) is None
    assert built == [13]
    built.clear()
    assert decide_projective_linear(linear) == m
    assert built == [13, 27]


# ---------------------------------------------------------------------------
# affine embedding
# ---------------------------------------------------------------------------


def test_embed_split_round_trip():
    F = PrimeField(3)
    for x in ((0, 0), (1, 2), (2, 2)):
        kind, back = split(proj_point(F, x + (1,)))
        assert kind == "affine"
        assert back == x
    kind, frontier = split(proj_point(F, (1, 2, 0)))
    assert kind == "frontier"
    assert frontier == proj_point(F, (1, 2))


def test_embedded_nonlinear_map_is_detected():
    table = tabulate(reduce_mod(example_r3_map(QQ), 5))
    embedded = embed_affine_table(table)
    assert embedded.is_injective()
    assert decide_projective_linear(embedded) is None


def test_embedded_translation_is_recovered():
    # a translation extends projectively with the frontier fixed pointwise,
    # which is exactly how embed_affine_table extends tables
    from linemaps import table_from_function
    F = PrimeField(3)
    table = table_from_function(3, 2, 2,
                                lambda x: ((x[0] + 2) % 3, (x[1] + 1) % 3))
    embedded = embed_affine_table(table)
    decided = decide_projective_linear(embedded)
    # x -> x + (2, 1) on [x : 1]
    assert decided == ProjLinearMap(matrix(F, ((1, 0, 2), (0, 1, 1), (0, 0, 1))))


def test_embedded_general_affine_map_is_not_identity_on_the_frontier():
    # for a non-translation the projective extension moves frontier points,
    # so extending the table by the identity there breaks linearity
    from linemaps import table_from_function
    table = table_from_function(3, 2, 2,
                                lambda x: ((x[0] + x[1] + 2) % 3, (x[1] + 1) % 3))
    embedded = embed_affine_table(table)
    assert decide_projective_linear(embedded) is None


def test_proj_table_rejects_values_of_the_wrong_length():
    pts = pg_points(3, 2)
    for bad in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(InputError, match="n\\+1 = 3"):
            ProjTable(3, 2, (bad,) + pts[1:])


def test_proj_table_rejects_entries_that_are_not_ints():
    pts = pg_points(3, 1)
    for bad in ((1.5, 0.9), (True, 0), ("1", 0)):
        with pytest.raises(InputError, match="is not an int"):
            ProjTable(3, 1, (bad,) + pts[1:])


def test_proj_table_json_round_trip():
    table = proj_table_from_map(proj_identity(PrimeField(3), 2), 3)
    back = proj_table_from_json(proj_table_to_json(table))
    assert back.values == table.values


# ---------------------------------------------------------------------------
# exhaustive: every bijection of the projective line
# ---------------------------------------------------------------------------


def pgl2_tables(p):
    """The table of every element of PGL(2,p), each once."""
    F = PrimeField(p)
    maps = set()
    for a, b, c, d in itertools.product(range(p), repeat=4):
        if (a * d - b * c) % p:
            maps.add(ProjLinearMap(matrix(F, ((a, b), (c, d)))))
    return {proj_table_from_map(m, p).values for m in maps}


@pytest.mark.parametrize("p", (3, 5))
def test_decide_accepts_exactly_the_tables_of_pgl2(p):
    # all (p+1)! bijections of PG(1,p): a map comes back for exactly the
    # |PGL(2,p)| = (p+1)p(p-1) linear tables, and it is their map
    pts = pg_points(p, 1)
    linear = set()
    for values in itertools.permutations(pts):
        m = decide_projective_linear(ProjTable(p, 1, values))
        if m is not None:
            assert proj_table_from_map(m, p).values == values
            linear.add(values)
    assert linear == pgl2_tables(p)
    assert len(linear) == (p + 1) * p * (p - 1)


# ---------------------------------------------------------------------------
# point readers: exact ints, or a point over GF(p)
# ---------------------------------------------------------------------------


def test_normalize_coords_refuses_coordinates_that_are_not_ints():
    assert normalize_coords(5, (0, 3, 1)) == (0, 1, 2)
    for bad in ((2.9, 0, 1), (True, 0, 1), ("1", 0, 1), (Fraction(1, 2), 0, 1)):
        with pytest.raises(InputError, match="is not an int"):
            normalize_coords(5, bad)


def test_lines_through_refuses_points_that_are_not_exact_points_of_pg():
    # int() once read (True, 0, 1) as (1, 0, 1), and the rational point
    # (1, 1/2, 0) as (1, 0, 0), and returned that point's pencil
    for bad in ((True, 0, 1), (2.9, 0, 1), ("1", 0, 1)):
        with pytest.raises(InputError, match="is not an int"):
            lines_through(bad, 3, 2)
    for bad in (proj_point(QQ, (2, 1, 0)), proj_point(PrimeField(5), (1, 0, 0))):
        with pytest.raises(InputError, match="is not a point of PG\\(2,3\\)"):
            lines_through(bad, 3, 2)
    assert lines_through(proj_point(PrimeField(3), (2, 1, 0)), 3, 2) == \
        lines_through((1, 2, 0), 3, 2)


def test_proj_table_apply_refuses_points_that_are_not_exact_points_of_pg():
    # int() once read (2.9, 0, 1) as (2, 0, 1)
    table = proj_table_from_map(proj_identity(PrimeField(3), 2), 3)
    for bad in ((2.9, 0, 1), ("1", 0, 1), (True, 0, 1)):
        with pytest.raises(InputError, match="is not an int"):
            table.apply(bad)
    with pytest.raises(InputError, match="is not a point of PG"):
        table.apply(proj_point(QQ, (2, 0, 1)))
    assert table.apply((2, 0, 1)) == (1, 0, 2)


def test_hypothesis_check_refuses_anchors_that_are_not_exact_points_of_pg():
    table = proj_table_from_map(proj_identity(PrimeField(3), 2), 3)
    for bad in ((2.9, 0, 1), proj_point(QQ, (2, 1, 0))):
        with pytest.raises(InputError):
            check_projective_hypotheses(table, [bad])
