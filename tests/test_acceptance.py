"""End-to-end acceptance checks.

Every check is exact (tolerance zero) and prints one PASS/FAIL line with its
elapsed time against a wall-clock budget (run pytest with -s or -rA to see
the lines for passing checks too).

Group 05 checks the canonical 3-dimensional example
P(x) = (x1 + x3(x1-x2), x2 + x3(x1-x2), x3) mod 5.  Along any line
x = a + t(1,1,1) the difference c = x1 - x2 stays equal to a1 - a2, so
P(a + t(1,1,1)) = P(a) + t(1+c, 1+c, 1): the diagonal lines are carried onto
lines, but they lose their parallelism, because the image direction depends
on c.  `test_c05_listed_failure_along_diagonal` asserts exactly that: the
onto check passes, and the parallelism report names exactly the 20 diagonal
lines with c != 0.  The related unit tests are
`test_example_survives_the_full_diagonal` and
`test_example_map_sends_parallel_lines_to_skew_lines` in
`tests/test_collineations.py`, and `test_restriction_degrees` in
`tests/test_multiaffine.py`.  The expected pass count of the whole suite is
kept in the "Tier-1 verify" section of ROADMAP.md.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction
from random import Random

import pytest

from linemaps import (
    DiagonalForm,
    LineFamily,
    PrimeField,
    ProjLinearMap,
    ProjTable,
    QQ,
    build_constraints,
    check_family,
    check_standard_family,
    construct_sharp_map,
    decide_projective_linear,
    evaluate,
    example_r3_map,
    exhaustive_bijection_search,
    fifth_direction_refutation,
    four_direction_form,
    grid_points,
    matrix,
    noninjective_r4_variant,
    parallelism_report,
    pg_points,
    points_collinear,
    proj_general_position,
    proj_identity,
    proj_point,
    proj_table_from_map,
    rank_of_vectors,
    ratio_criterion,
    recover_diagonal_form,
    recover_plane_form,
    reduce_mod,
    restrict_to_line,
    s_family,
    sample_constrained_map,
    satisfies_constraints,
    standard_family,
    table_from_function,
    tabulate,
    tabulate_diagonal_form,
    transform_from_correspondence,
    vector,
    verify_diagonal_rigidity,
    verify_multiplicative_rigidity,
    verify_span_invariants,
)


@contextmanager
def budget(label: str, seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[{label}] FAIL after {time.perf_counter() - start:.2f} s "
              f"(budget {seconds:g} s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[{label}] PASS in {elapsed:.2f} s (budget {seconds:g} s)")
    assert elapsed <= seconds, (
        f"{label} exceeded its budget: {elapsed:.2f} s > {seconds:g} s")


# ===========================================================================
# 01 — plane classification oracle: every surviving bijection of (Z_3)^2
#      under the two-axis family fits the plane normal form with no cross
#      term, recovered exactly
# ===========================================================================


def test_c01_plane_survivors_fit_the_form_without_cross_term():
    with budget("criterion 01", 60):
        survivors = exhaustive_bijection_search(3, 2, standard_family(QQ, 2))
        assert len(survivors) == 432
        for table in survivors:
            form = recover_plane_form(table)
            assert form.u3 == (0, 0)
            assert tuple(form.apply(pt) for pt in grid_points(3, 2)) == table.values


# ===========================================================================
# 02 — adding the diagonal direction forces additive scalar parts
# ===========================================================================


def test_c02_diagonal_family_survivors_are_affine_additive():
    with budget("criterion 02", 60):
        fam = standard_family(QQ, 2, with_diagonal=True)
        survivors = exhaustive_bijection_search(3, 2, fam)
        assert survivors  # the affine bijections at least
        for table in survivors:
            form = recover_plane_form(table)
            for scalar in (form.f, form.g):
                for a in range(3):
                    for b in range(3):
                        lhs = (scalar[(a + b) % 3] - scalar[0]) % 3
                        rhs = (scalar[a] + scalar[b] - 2 * scalar[0]) % 3
                        assert lhs == rhs


# ===========================================================================
# 03 — the coefficient constraint system in small dimensions
# ===========================================================================


def test_c03_constraint_system_shape():
    with budget("criterion 03", 1):
        s3 = build_constraints(3)
        assert s3.labels == (("vanish", 0b111), ("sum", 2, ()))
        assert s3.rows.row(0) == (1, 0, 0, 0, 0, 0, 0, 0)
        assert s3.rows.row(1) == (0, 1, 1, 0, 1, 0, 0, 0)
        assert build_constraints(4).solution_dimension() == 10


# ===========================================================================
# 04 — converse direction: random solutions keep every family line straight
# ===========================================================================


def test_c04_random_solutions_have_degree_one_restrictions():
    with budget("criterion 04", 30):
        rng = Random(20260814)
        for n in (3, 4, 5):
            for _ in range(25):
                mp = sample_constrained_map(n, 2, rng)
                assert satisfies_constraints(mp)
                report = check_standard_family(reduce_mod(mp, 5))
                assert report.ok, (n, report)


# ===========================================================================
# 05 — the canonical 3-dimensional example mod 5
# ===========================================================================


@pytest.fixture(scope="module")
def example_table():
    return tabulate(reduce_mod(example_r3_map(QQ), 5))


def test_c05_bijective_and_onto_its_family(example_table):
    with budget("criterion 05a", 1):
        assert example_table.is_bijection()
        fam = LineFamily(QQ, 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)))
        assert check_family(example_table, fam, mode="onto").ok


def test_c05_non_additive(example_table):
    with budget("criterion 05b", 1):
        a, b = (0, 0, 1), (0, 1, 0)
        ab = tuple((x + y) % 5 for x, y in zip(a, b))
        fa, fb = example_table.apply(a), example_table.apply(b)
        assert example_table.apply(ab) != tuple((x + y) % 5 for x, y in zip(fa, fb))


def test_c05_listed_failure_along_diagonal(example_table):
    # Along x = a + t(1,1,1), c = x1 - x2 = a1 - a2 is constant, so
    # P(a + t(1,1,1)) = P(a) + t(1+c, 1+c, 1): every diagonal line goes onto
    # a line, but the image direction depends on c, so parallelism is lost.
    with budget("criterion 05c", 1):
        rational = example_r3_map(QQ)
        for a in ((0, 0, 0), (2, -1, 3), (Fraction(1, 2), 4, -7)):
            c = Fraction(a[0]) - Fraction(a[1])
            curve = restrict_to_line(rational, vector(QQ, a), vector(QQ, (1, 1, 1)))
            assert curve.degree == 1
            assert curve.coeffs[1] == (1 + c, 1 + c, 1)

        p = 5
        diag = LineFamily(QQ, 3, ((1, 1, 1),))
        assert check_family(example_table, diag, mode="onto").ok
        report = parallelism_report(example_table, diag)
        assert not report.ok
        assert all(v.reason == "not-parallel" and v.direction == (1, 1, 1)
                   for v in report.violations)

        # A report names each line by its least point.  The reference line is
        # the one through the origin (c = 0, image direction (1,1,1)); a line
        # is reported iff its image direction (1+c, 1+c, 1) is not parallel
        # to that, i.e. iff some 2x2 minor of the pair is nonzero mod p.
        def image_direction(base):
            c = (base[0] - base[1]) % p
            return ((1 + c) % p, (1 + c) % p, 1)

        def parallel(u, v):
            return all((u[i] * v[j] - u[j] * v[i]) % p == 0
                       for i, j in itertools.combinations(range(3), 2))

        bases = {min(tuple((x + t) % p for x in pt) for t in range(p))
                 for pt in itertools.product(range(p), repeat=3)}
        assert len(bases) == p ** 2
        ref = image_direction((0, 0, 0))
        expected = {b for b in bases if not parallel(image_direction(b), ref)}
        assert expected == {b for b in bases if b[0] != b[1]}
        assert len(expected) == 20
        assert len(report.violations) == len(expected)
        assert {v.base for v in report.violations} == expected


# ===========================================================================
# 06 — four-direction forms pass their family and die on a fifth direction
# ===========================================================================


def test_c06_four_direction_forms_and_fifth_direction_refutation():
    with budget("criterion 06", 1):
        fam = LineFamily(QQ, 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
        for variant in (1, 2):
            rational = four_direction_form(Fraction(1), variant, QQ)
            table = tabulate(reduce_mod(rational, 5))
            assert check_family(table, fam, mode="onto").ok
            # symbolic refutation over the rationals
            assert fifth_direction_refutation(rational, vector(QQ, (2, 3, 1)))
            # formal refutation mod 5
            F5 = PrimeField(5)
            assert fifth_direction_refutation(reduce_mod(rational, 5),
                                              vector(F5, (2, 3, 1)))
            # and the raw point set: the image of {t(2,3,1)} is not collinear
            image = [table.apply(tuple(t * c % 5 for c in (2, 3, 1)))
                     for t in range(5)]
            assert not points_collinear(5, image)


# ===========================================================================
# 07 — sharpness in dimension 4: degree 2 with injectivity, and the
#      non-injective printed variant
# ===========================================================================


def test_c07_sharp_construction_and_noninjective_variant():
    with budget("criterion 07", 5):
        spec = construct_sharp_map(4)
        assert spec.map.degree() == 2
        assert satisfies_constraints(spec.map)
        five_dirs = standard_family(QQ, 4, with_diagonal=True)
        table5 = tabulate(reduce_mod(spec.map, 5))
        assert check_family(table5, five_dirs, mode="onto").ok
        assert table5.is_injective()
        assert tabulate(reduce_mod(spec.map, 3)).is_injective()

        broken = tabulate(noninjective_r4_variant(PrimeField(3)))
        assert not broken.is_injective()
        assert broken.apply((0, 2, 0, 0)) == broken.apply((0, 2, 0, 1))


# ===========================================================================
# 08 — frame correspondences: existence, exactness, uniqueness
# ===========================================================================


def _random_frame(rng, field, points, n):
    while True:
        sample = [proj_point(field, points[rng.randrange(len(points))])
                  for _ in range(n + 2)]
        if proj_general_position(sample):
            return sample


def _random_rational_frame(rng, n):
    while True:
        sample = [proj_point(QQ, [Fraction(rng.randint(-5, 5))
                                  for _ in range(n + 1)])
                  for _ in range(n + 2)]
        try:
            ok = proj_general_position(sample)
        except Exception:
            continue
        if ok:
            return sample


def test_c08_frame_correspondences_exact_and_unique():
    with budget("criterion 08", 10):
        rng = Random(8)
        for (p, n) in ((3, 2), (3, 3), (7, 2)):
            F = PrimeField(p)
            pts = pg_points(p, n)
            for _ in range(100):
                src = _random_frame(rng, F, pts, n)
                dst = _random_frame(rng, F, pts, n)
                T = transform_from_correspondence(src, dst)
                assert all(T.apply(s) == d for s, d in zip(src, dst))
                order = rng.sample(range(n + 2), n + 2)
                T2 = transform_from_correspondence([src[i] for i in order],
                                                   [dst[i] for i in order])
                assert T2 == T
        for _ in range(20):
            src = _random_rational_frame(rng, 2)
            dst = _random_rational_frame(rng, 2)
            T = transform_from_correspondence(src, dst)
            assert all(T.apply(s) == d for s, d in zip(src, dst))
            order = rng.sample(range(4), 4)
            T2 = transform_from_correspondence([src[i] for i in order],
                                               [dst[i] for i in order])
            assert T2 == T


# ===========================================================================
# 09 — the decision procedure: recovers linear tables, rejects perturbations
# ===========================================================================


def _random_proj_linear(rng, p, n):
    F = PrimeField(p)
    while True:
        rows = tuple(tuple(rng.randrange(p) for _ in range(n + 1))
                     for _ in range(n + 1))
        if rank_of_vectors(F, rows) == n + 1:
            return ProjLinearMap(matrix(F, rows))


def test_c09_decision_procedure_round_trip_and_rejection():
    with budget("criterion 09", 30):
        rng = Random(9)
        for (p, n) in ((3, 2), (3, 3)):
            for _ in range(50):
                m = _random_proj_linear(rng, p, n)
                table = proj_table_from_map(m, p)
                assert decide_projective_linear(table) == m
            for _ in range(50):
                m = _random_proj_linear(rng, p, n)
                values = list(proj_table_from_map(m, p).values)
                i, j = rng.sample(range(len(values)), 2)
                values[i], values[j] = values[j], values[i]
                perturbed = ProjTable(p, n, tuple(values))
                assert perturbed.is_injective()
                assert decide_projective_linear(perturbed) is None


# ===========================================================================
# 10 — scalar rigidity: ratio criterion, power maps, two-pencil survivors
# ===========================================================================


def test_c10_scalar_rigidity_exhaustive():
    with budget("criterion 10", 60):
        for p in (3, 5, 7):
            report = ratio_criterion(p)
            assert report.ok
            assert report.passing == (tuple(range(p)),)
        for p in (3, 5, 7, 11, 13):
            assert verify_multiplicative_rigidity(p).ok
        for p in (3, 5):
            for x0 in ((1, 0), (1, 1)):
                report = verify_diagonal_rigidity(p, x0=x0)
                assert report.ok and report.identity_only


# ===========================================================================
# 11 — span invariants hold for random diagonal tables, and the recovery
#      reproduces them exactly
# ===========================================================================


def _random_bijection_fixing_0_1(rng, p):
    rest = list(range(2, p))
    rng.shuffle(rest)
    return tuple([0, 1] + rest)


def _random_diagonal_form(rng, p, n):
    u = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    while True:
        w = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
        if rank_of_vectors(PrimeField(p), w) == n:
            break
    f = tuple(_random_bijection_fixing_0_1(rng, p) for _ in range(n))
    base = tuple(rng.randrange(p) for _ in range(n))
    return DiagonalForm(p, u, w, f, base)


def test_c11_span_invariants_and_exact_recovery():
    with budget("criterion 11", 10):
        rng = Random(11)
        for n in (2, 3):
            fam = standard_family(QQ, n)
            for _ in range(25):
                form = _random_diagonal_form(rng, 5, n)
                table = tabulate_diagonal_form(form)
                report = verify_span_invariants(table, fam)
                assert report.ok and report.hypothesis_ok, report
                recovered = recover_diagonal_form(table, fam)
                assert recovered == form
                assert tabulate_diagonal_form(recovered).values == table.values


# ===========================================================================
# 12 — the enlarged direction family: affine bijections all pass; the
#      canonical example does not
# ===========================================================================


def _random_affine_bijection_table(rng, p, n):
    F = PrimeField(p)
    while True:
        A = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
        if rank_of_vectors(F, A) == n:
            break
    b = tuple(rng.randrange(p) for _ in range(n))

    def apply(x):
        return tuple((sum(A[i][j] * x[j] for j in range(n)) + b[i]) % p
                     for i in range(n))

    return table_from_function(p, n, n, apply)


def test_c12_enlarged_family_between_affine_and_example(example_table):
    with budget("criterion 12", 5):
        fam = s_family(3)
        assert len(fam.directions) == 7
        identity = table_from_function(5, 3, 3, lambda x: x)
        tables = [identity] + [_random_affine_bijection_table(Random(1200 + i), 5, 3)
                               for i in range(40)]
        for table in tables:
            assert check_family(table, fam, mode="onto").ok
        report = check_family(example_table, fam, mode="onto")
        assert not report.ok
        torn = sorted({v.direction for v in report.violations})
        assert torn == [(0, 1, 1), (1, 0, 1)]
