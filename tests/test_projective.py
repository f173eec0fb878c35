"""Projective spaces over prime fields: frames, correspondences, the
linearity decision procedure, and the affine embedding."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from linemaps import (
    InputError,
    PrimeField,
    ProjLinearMap,
    ProjTable,
    QQ,
    UndecidableByFrame,
    affine_to_projective,
    check_projective_hypotheses,
    compose_proj,
    decide_projective_linear,
    embed_affine,
    embed_affine_table,
    example_r3_map,
    invert_proj,
    lines_through,
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
    vector,
)

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


def test_compose_and_invert():
    F = PrimeField(5)
    m = ProjLinearMap(matrix(F, ((1, 2), (3, 4))))
    assert compose_proj(m, invert_proj(m)) == proj_identity(F, 1)
    x = proj_point(F, (2, 3))
    assert invert_proj(m).apply(m.apply(x)) == x


def test_affine_to_projective_agrees_with_the_affine_action():
    F = PrimeField(5)
    A = matrix(F, ((1, 2), (3, 4)))
    b = vector(F, (2, 0))
    P = affine_to_projective(A, b)
    for x in ((0, 0), (1, 2), (4, 4)):
        ax = tuple((A.rows[i][0] * x[0] + A.rows[i][1] * x[1] + b[i]) % 5
                   for i in range(2))
        assert P.apply(embed_affine(x, F)) == embed_affine(ax, F)


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
            assert compose_proj(back, T) == proj_identity(F, n)


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
    with pytest.raises(InputError):
        transform_from_correspondence(src, dst)


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


def test_undecidable_by_frame_contract():
    assert issubclass(UndecidableByFrame, RuntimeError)


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


# ---------------------------------------------------------------------------
# affine embedding
# ---------------------------------------------------------------------------


def test_embed_split_round_trip():
    F = PrimeField(3)
    for x in ((0, 0), (1, 2), (2, 2)):
        kind, back = split(embed_affine(x, F))
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
    from linemaps import identity_matrix, table_from_function
    F = PrimeField(3)
    b = vector(F, (2, 1))
    table = table_from_function(3, 2, 2,
                                lambda x: ((x[0] + 2) % 3, (x[1] + 1) % 3))
    embedded = embed_affine_table(table)
    decided = decide_projective_linear(embedded)
    assert decided == affine_to_projective(identity_matrix(F, 2), b)


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


def test_proj_table_json_round_trip():
    table = proj_table_from_map(proj_identity(PrimeField(3), 2), 3)
    back = proj_table_from_json(proj_table_to_json(table))
    assert back.values == table.values
