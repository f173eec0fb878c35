"""Coefficient constraint system, its sharp solutions, and the canonical
four-direction examples with their fifth-direction refutation."""

from __future__ import annotations

import dataclasses
import itertools
import time
from fractions import Fraction
from math import comb
from random import Random

import pytest

from linemaps import (
    InputError,
    LineFamily,
    Matrix,
    MultiAffineMap,
    PrimeField,
    QQ,
    ResourceError,
    build_constraints,
    check_family,
    check_standard_family,
    construct_sharp_map,
    enumerate_lines,
    evaluate,
    example_r3_map,
    fifth_direction_refutation,
    four_direction_form,
    identity_map,
    mask_to_delta,
    noninjective_r4_variant,
    nullspace,
    reduce_mod,
    restrict_to_line,
    sample_constrained_map,
    satisfies_constraints,
    sharp_r4_map,
    standard_family,
    tabulate,
    vector,
)
from linemaps import constraints
from linemaps.constraints import (
    ConstraintCheck, LineDegreeViolation, StandardFamilyReport, _dense_entries, _row_labels,
    _symbolic_excess_degree,
)

# ---------------------------------------------------------------------------
# the linear system on coefficients
# ---------------------------------------------------------------------------


def test_system_needs_dimension_two():
    with pytest.raises(InputError):
        build_constraints(1)


def test_the_dense_guard_counts_the_rows_in_closed_form():
    # rows times 2^n, without building a mask: n = 12 is built, n = 13 is not
    for n in range(2, 13):
        assert _dense_entries(n) == len(_row_labels(n)) << n, n
    assert _dense_entries(12) == 11_354_112
    assert _dense_entries(13) == 51_920_896
    for n in (13, 40, 10 ** 9):
        with pytest.raises(ResourceError, match=f"n = {n} has more than"):
            build_constraints(n)


def test_the_membership_check_refuses_a_map_past_the_point_budget():
    # the row labels sort all 2^n masks, even for a map with no coefficients:
    # n = 20 is the least n with 2^n past the budget, and 2^40 is not built
    for n in (20, 40):
        t0 = time.perf_counter()
        with pytest.raises(ResourceError, match=f"n = {n} has more than"):
            satisfies_constraints(MultiAffineMap(n, 1, QQ, {}))
        with pytest.raises(ResourceError, match=f"n = {n} has more than"):
            check_standard_family(MultiAffineMap(n, 1, QQ, {}))
        assert time.perf_counter() - t0 < 1.0


def test_three_variable_system_is_one_vanishing_plus_one_sum_row():
    system = build_constraints(3)
    # unknown masks run through delta tuples in descending lexicographic order
    assert system.unknowns == (0b111, 0b011, 0b101, 0b001, 0b110, 0b010, 0b100, 0)
    assert [mask_to_delta(m, 3) for m in system.unknowns] == [
        (1, 1, 1), (1, 1, 0), (1, 0, 1), (1, 0, 0),
        (0, 1, 1), (0, 1, 0), (0, 0, 1), (0, 0, 0)]
    assert system.rows.nrows == 2
    # u_111 = 0
    assert system.rows.row(0) == (1, 0, 0, 0, 0, 0, 0, 0)
    # u_110 + u_101 + u_011 = 0
    assert system.rows.row(1) == (0, 1, 1, 0, 1, 0, 0, 0)
    assert system.labels == (("vanish", 0b111), ("sum", 2, ()))
    assert system.solution_dimension() == 6


def test_four_variable_system_dimension():
    system = build_constraints(4)
    vanishing = [lab for lab in system.labels if lab[0] == "vanish"]
    sums = [lab for lab in system.labels if lab[0] == "sum"]
    assert len(vanishing) == 5  # all |delta| >= 3
    assert len(sums) == 1       # k = 2, S = {}
    assert system.solution_dimension() == 10


def test_solution_dimension_is_the_central_binomial_coefficient():
    # C(n+1, floor((n+1)/2)) from the paper, checked by rank and by the
    # nullspace, also with every row times a random sign and in random order
    rng = Random(11)
    for n in range(2, 10):
        system = build_constraints(n)
        want = comb(n + 1, (n + 1) // 2)
        rows = [tuple(c * k for c in row) for row in system.rows.rows
                for k in [rng.choice((-1, 1))]]
        rng.shuffle(rows)
        scrambled = Matrix(QQ, tuple(rows))
        assert system.solution_dimension() == want, n
        assert len(nullspace(system.rows)) == want, n
        assert len(nullspace(scrambled)) == want, n
        assert dataclasses.replace(system, rows=scrambled).solution_dimension() == want, n


def test_two_variable_system_kills_the_cross_term():
    system = build_constraints(2)
    assert system.rows.nrows == 1
    assert system.unknowns[0] == 0b11
    assert system.rows.row(0) == (1, 0, 0, 0)


# ---------------------------------------------------------------------------
# membership checks
# ---------------------------------------------------------------------------


def test_identity_and_example_satisfy_the_system():
    assert satisfies_constraints(identity_map(QQ, 3))
    assert satisfies_constraints(example_r3_map(QQ))
    assert satisfies_constraints(example_r3_map(PrimeField(5)))


def _first_violated_row(map_):
    """The dense scan of every row of the built system, column by column:
    the oracle for the sparse `satisfies_constraints`."""
    system = build_constraints(map_.n)
    F = map_.field
    for ri, row in enumerate(system.rows.rows):
        for j in range(map_.m):
            tally = F.zero()
            for ci, c in enumerate(row):
                u = map_.coeffs.get(system.unknowns[ci])
                if c and u is not None:
                    tally = F.convert(tally + F.convert(c) * u[j])
            if not F.is_zero(tally):
                return ri, system.labels[ri], j
    return None


def test_satisfies_constraints_matches_the_dense_row_scan():
    rng = Random(5)
    for n in (2, 3, 4, 5, 6):
        for field in (QQ, PrimeField(3)):
            for _ in range(12):
                mp = sample_constrained_map(n, 2, rng)
                if field != QQ:
                    mp = reduce_mod(mp, field.p)
                coeffs = dict(mp.coeffs)
                for _ in range(rng.randrange(3)):   # perturb up to two coefficients
                    mask = rng.randrange(1 << n)
                    coeffs[mask] = tuple(field.convert(rng.randint(-2, 2)) for _ in range(2))
                mp = MultiAffineMap(n, 2, field, coeffs)
                check = satisfies_constraints(mp)
                want = _first_violated_row(mp)
                if want is None:
                    assert check.ok
                else:
                    assert (check.row_index, check.label, check.coordinate) == want


# per output coordinate: units of Z_3 too, so a scaled solution stays one mod 3
SCALES = (Fraction(1, 2), Fraction(-2, 5), Fraction(7, 4), Fraction(-1, 7), Fraction(2))
# three degree-2 coefficients whose sum is 0 in the field and no two of which
# sum to 0: n >= 3 has one degree-2 condition, the sum of them all, so the map
# stays a solution with all three and not with the first two.  Mod 3 each of
# the second triple is 2, across denominators 2, 4 and 7
CANCELLING = {QQ: (Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6)),
              PrimeField(3): (Fraction(1, 2), Fraction(-1, 4), Fraction(5, 7))}


def _rational_solution(n, rng):
    """A seeded solution (m = 2) with each output coordinate times a rational
    scale, plus fractional affine terms, which no condition constrains; the
    denominators are units mod 3."""
    sample, scales = sample_constrained_map(n, 2, rng), rng.choices(SCALES, k=2)
    coeffs = {mask: [c * scale for c, scale in zip(u, scales)]
              for mask, u in sample.coeffs.items()}
    for mask in [0] + [1 << i for i in range(n)]:
        row = coeffs.setdefault(mask, [Fraction(0)] * 2)
        row[rng.randrange(2)] += Fraction(rng.randint(-5, 5), rng.choice((1, 2, 4, 5, 7)))
    return coeffs


def _perturbed(coeffs, masks, j, values):
    """coeffs with values[i] added to coordinate j of masks[i]."""
    coeffs = {mask: list(u) for mask, u in coeffs.items()}
    for mask, value in zip(masks, values):
        coeffs.setdefault(mask, [Fraction(0)] * 2)[j] += value
    return coeffs


def _as_map(n, field, coeffs):
    mp = MultiAffineMap(n, 2, QQ, {mask: tuple(u) for mask, u in coeffs.items()})
    return mp if field == QQ else reduce_mod(mp, field.p)


def test_satisfies_constraints_matches_the_dense_row_scan_on_fractions():
    # the common-denominator path: rational scales, fractional affine terms,
    # and degree-2 entries whose sum cancels across denominators, then the
    # same maps with the last of them dropped or a random entry added
    rng = Random(29)
    seen = {True: 0, False: 0}
    for n in (2, 3, 4, 5, 6):
        for field in (QQ, PrimeField(3)):
            for _ in range(8):
                coeffs = _rational_solution(n, rng)
                cases = [coeffs]
                if n >= 3:
                    masks = rng.sample([mk for mk in range(1 << n) if mk.bit_count() == 2], 3)
                    j = rng.randrange(2)
                    cancel = CANCELLING[field]
                    kept = _perturbed(coeffs, masks, j, cancel)
                    torn = _perturbed(coeffs, masks[:2], j, cancel[:2])
                    assert _first_violated_row(_as_map(n, field, kept)) is None
                    assert _first_violated_row(_as_map(n, field, torn)) == (
                        _row_labels(n).index(("sum", 2, ())), ("sum", 2, ()), j)
                    cases += [kept, torn]
                mask = rng.randrange(1 << n)
                cases.append(_perturbed(coeffs, [mask], rng.randrange(2),
                                        [Fraction(rng.choice((-5, 1, 7)), rng.choice((2, 4, 5)))]))
                for case in cases:
                    mp = _as_map(n, field, case)
                    check = satisfies_constraints(mp)
                    want = _first_violated_row(mp)
                    seen[want is None] += 1
                    if want is None:
                        assert check == ConstraintCheck(True), (n, field)
                    else:
                        assert (check.ok, check.row_index, check.label,
                                check.coordinate) == (False, *want), (n, field)
    assert seen[True] > 50 and seen[False] > 50


def test_violation_reports_first_row_and_coordinate():
    paraboloid = MultiAffineMap(2, 3, QQ, {
        0b01: (Fraction(1), Fraction(0), Fraction(0)),
        0b10: (Fraction(0), Fraction(1), Fraction(0)),
        0b11: (Fraction(0), Fraction(0), Fraction(1)),
    })
    check = satisfies_constraints(paraboloid)
    assert not check
    assert check.row_index == 0
    assert check.label == ("vanish", 0b11)
    assert check.coordinate == 2


# ---------------------------------------------------------------------------
# converse direction: solutions really do send the family lines into lines
# ---------------------------------------------------------------------------


def test_example_standard_family_symbolic_and_exhaustive():
    sym = check_standard_family(example_r3_map(QQ))
    assert sym.ok and sym.directions_checked == 4
    fin = check_standard_family(example_r3_map(PrimeField(5)))
    assert fin.ok


def test_standard_family_requires_membership_first():
    paraboloid = MultiAffineMap(2, 3, QQ, {
        0b11: (Fraction(0), Fraction(0), Fraction(1)),
    })
    with pytest.raises(InputError):
        check_standard_family(paraboloid)


def test_sampled_solutions_pass_both_checks():
    rng = Random(7)
    for n in (3, 4):
        for _ in range(5):
            mp = sample_constrained_map(n, 2, rng)
            assert satisfies_constraints(mp)
            assert check_standard_family(mp).ok
            assert check_standard_family(reduce_mod(mp, 5)).ok


def _oracle_maps(p, n, rng):
    """Reduced constraint solutions, the same with one coefficient bumped,
    and fully random maps over Z_p."""
    F = PrimeField(p)
    for _ in range(4):
        solution = reduce_mod(sample_constrained_map(n, 2, rng), p)
        yield solution
        bumped = dict(solution.coeffs)
        bumped[rng.randrange(1 << n)] = (rng.randrange(1, p), rng.randrange(p))
        yield MultiAffineMap(n, 2, F, bumped)
        yield MultiAffineMap(n, 2, F, {
            mask: (rng.randrange(p), rng.randrange(p)) for mask in range(1 << n)
            if rng.random() < 0.5})


@pytest.mark.parametrize("p", (3, 5))
@pytest.mark.parametrize("n", (2, 3, 4))
def test_symbolic_excess_degree_matches_every_line_over_zp(p, n):
    # the per-line expansion at one base point of every line is the
    # exhaustive oracle for the symbolic line degree check_standard_family uses
    rng = Random(100 * p + n)
    passing = excess_seen = 0
    for mp in _oracle_maps(p, n, rng):
        passing += satisfies_constraints(mp).ok
        for b in standard_family(mp.field, n, True).directions:
            worst = max(restrict_to_line(mp, line[0], b).degree
                        for line in enumerate_lines(p, n, b))
            excess = _symbolic_excess_degree(mp, b)
            assert excess == (worst if worst >= 2 else 0), (mp, b)
            excess_seen += excess >= 2
    assert 0 < passing < 12 and excess_seen > 0


def _fraction_excess_degree(map_, b):
    """The symbolic line degree with every product and sum taken in the map's
    own field elements, Fractions over Q: the oracle for the integer-scaled
    `_symbolic_excess_degree`."""
    F = map_.field
    totals = {}
    for mask, u in map_.coeffs.items():
        bits = [i for i in range(map_.n) if mask >> i & 1]
        for r in range(2, len(bits) + 1):
            for chosen in itertools.combinations(bits, r):
                coeff = F.one()
                for i in chosen:
                    coeff *= b[i]
                if F.is_zero(coeff):
                    continue
                key = (mask ^ sum(1 << i for i in chosen), r)
                acc = totals.setdefault(key, [F.zero()] * map_.m)
                for j, x in enumerate(u):
                    acc[j] = F.convert(acc[j] + coeff * x)
    return max((r for (_, r), acc in totals.items()
                if not all(F.is_zero(c) for c in acc)), default=0)


@pytest.mark.parametrize("p", (3, 5))
def test_symbolic_excess_degree_over_zp_distributes_the_support_of_b_only(p):
    # the standard family's supports have size 1 or n; directions with 1 to
    # n-1 zero entries reach masks that meet supp(b) in part, on dense maps
    F = PrimeField(p)
    rng = Random(53 * p)
    degrees = set()
    for n in range(3, 7):
        for _ in range(3):
            mp = MultiAffineMap(n, 2, F, {mask: (rng.randrange(1, p), rng.randrange(p))
                                          for mask in range(1 << n)})
            for _ in range(6):
                zeros = rng.sample(range(n), rng.randint(1, n - 1))
                b = tuple(0 if i in zeros else rng.randrange(1, p) for i in range(n))
                got = _symbolic_excess_degree(mp, b)
                assert got == _fraction_excess_degree(mp, b), (mp, b)
                degrees.add(got)
    assert {0, 2, 3, 4, 5} <= degrees


def _fractional_direction(n, rng):
    """A direction with fractional entries, some zero, ending in 1."""
    entries = [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(n - 1)]
    return tuple(entries) + (Fraction(1),)


def test_symbolic_excess_degree_matches_the_fraction_expansion_over_q():
    # fractional coefficients and fractional directions: b = (1/2, 1/3, 1)
    # takes 3 x1 x2 / 2 - x1 x3 / 2 to a t^2 coefficient 1/4 - 1/4 = 0
    b = (Fraction(1, 2), Fraction(1, 3), Fraction(1))
    cancel = MultiAffineMap(3, 1, QQ, {0b011: (Fraction(3, 2),), 0b101: (Fraction(-1, 2),)})
    bent = MultiAffineMap(3, 1, QQ, {0b011: (Fraction(3, 2),), 0b101: (Fraction(-1, 3),)})
    assert _symbolic_excess_degree(cancel, b) == _fraction_excess_degree(cancel, b) == 0
    assert _symbolic_excess_degree(bent, b) == _fraction_excess_degree(bent, b) == 2
    rng = Random(31)
    degrees = set()
    for n in (2, 3, 4, 5):
        dirs = (list(standard_family(QQ, n, True).directions)
                + [_fractional_direction(n, rng) for _ in range(4)])
        for _ in range(6):
            solution = _rational_solution(n, rng)
            noise = {mask: [Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(2)]
                     for mask in range(1 << n) if rng.random() < 0.4}
            for coeffs in (solution, noise):
                mp = _as_map(n, QQ, coeffs)
                for b in dirs:
                    got = _symbolic_excess_degree(mp, b)
                    assert got == _fraction_excess_degree(mp, b), (mp, b)
                    degrees.add(got)
    assert {0, 2, 3} <= degrees


def test_standard_family_report_carries_the_unscaled_direction(monkeypatch):
    # the report over Q against the Fraction expansion, once over the
    # standard family and once over fractional directions in its place: each
    # violation names the family's own b, not b times its denominators
    rng = Random(37)
    violations_seen = 0
    for n in (3, 4, 5):
        fractional = ((Fraction(1, 2), Fraction(1, 3)) + (Fraction(1),) * (n - 2),
                      *(_fractional_direction(n, rng) for _ in range(3)))
        for dirs in (standard_family(QQ, n, True).directions, fractional):
            monkeypatch.setattr(constraints, "standard_family",
                                lambda field, n, diagonal, dirs=dirs: LineFamily(field, n, dirs))
            for _ in range(4):
                mp = _as_map(n, QQ, _rational_solution(n, rng))
                want = tuple(LineDegreeViolation(b, degree) for b in dirs
                             if (degree := _fraction_excess_degree(mp, b)) >= 2)
                report = check_standard_family(mp)
                assert report == StandardFamilyReport(not want, len(dirs), want)
                violations_seen += len(want)
    assert violations_seen > 0


def test_sampling_is_deterministic_given_the_seed():
    a = sample_constrained_map(3, 2, Random(123))
    b = sample_constrained_map(3, 2, Random(123))
    assert a.coeffs == b.coeffs


def test_sampling_sums_over_the_common_denominator(monkeypatch):
    # every basis up to n = 9 is integral, D = 1; scaling its vectors by
    # SCALES (D = 140) takes the sampler through Fraction(sum, D), against the
    # dense scan of the same scaled basis
    plain = nullspace

    def scaled_nullspace(rows):
        return [tuple(c * k for c in vec)
                for vec, k in zip(plain(rows), itertools.cycle(SCALES))]

    monkeypatch.setattr(constraints, "nullspace", scaled_nullspace)
    monkeypatch.setitem(globals(), "nullspace", scaled_nullspace)
    constraints._solution_basis.cache_clear()
    try:
        for n in (3, 4, 5):
            assert constraints._solution_basis(n)[1] == 140
            for seed in range(4):
                rng, oracle_rng = Random(seed), Random(seed)
                got = sample_constrained_map(n, 2, rng)
                want = _dense_scan_sample(n, 2, oracle_rng)
                assert list(got.coeffs.items()) == list(want.coeffs.items()), (n, seed)
                assert rng.random() == oracle_rng.random()
                assert satisfies_constraints(got)
    finally:
        constraints._solution_basis.cache_clear()


def test_sampling_refuses_a_dimension_below_one_before_drawing():
    # the map is built unchecked, so the sampler checks m itself, after n (as
    # the system does) and before the first draw
    for m in (0, -1):
        rng = Random(5)
        state = rng.getstate()
        with pytest.raises(InputError, match=r"^dimensions must be >= 1$"):
            sample_constrained_map(4, m, rng)
        assert rng.getstate() == state
    with pytest.raises(InputError, match=r"^constraint system needs n >= 2$"):
        sample_constrained_map(1, 0, Random(5))


def _dense_scan_sample(n, m, rng, coeff_bound=3):
    """The sampler written over the dense nullspace basis: every entry of
    every basis vector is scanned for each output coordinate."""
    system = build_constraints(n)
    basis = nullspace(system.rows)
    coeffs = {}
    for j in range(m):
        weights = [Fraction(rng.randint(-coeff_bound, coeff_bound)) for _ in basis]
        for vec, w in zip(basis, weights):
            if w == 0:
                continue
            for ci, val in enumerate(vec):
                if val != 0:
                    row = coeffs.setdefault(system.unknowns[ci], [Fraction(0)] * m)
                    row[j] += w * val
    return MultiAffineMap(n, m, QQ, {k: tuple(v) for k, v in coeffs.items()})


def test_sampling_matches_the_dense_scan_of_the_basis():
    # the same rng draws in the same order give the same map, coefficient
    # order included, and leave the generator in the same state
    for n in range(3, 9):
        for seed in range(5):
            for m in (1, 2, 3):
                rng, oracle_rng = Random(seed), Random(seed)
                got = sample_constrained_map(n, m, rng)
                want = _dense_scan_sample(n, m, oracle_rng)
                assert list(got.coeffs.items()) == list(want.coeffs.items()), (n, seed, m)
                assert rng.random() == oracle_rng.random()


# ---------------------------------------------------------------------------
# sharp construction: degree n/2 with injectivity, in even dimension
# ---------------------------------------------------------------------------


def test_sharp_dimension_validation():
    for bad in (2, 3, 5, 7):
        with pytest.raises(InputError):
            construct_sharp_map(bad)


def test_sharp_dim4_structure():
    spec = construct_sharp_map(4)
    assert spec.map.degree() == 2
    assert spec.alphas == {0b0011: Fraction(-1), 0b0101: Fraction(1)}
    assert satisfies_constraints(spec.map)
    assert check_standard_family(spec.map).ok


def test_sharp_dim4_injective_over_small_fields():
    spec = construct_sharp_map(4)
    for p in (3, 5):
        assert tabulate(reduce_mod(spec.map, p)).is_injective()


def test_sharp_dim6_degree_three():
    spec = construct_sharp_map(6)
    assert spec.map.degree() == 3
    assert len(spec.alphas) == 4
    assert satisfies_constraints(spec.map)
    for p in (3, 5):
        assert tabulate(reduce_mod(spec.map, p)).is_injective()


def test_sharp_r4_closed_form():
    # fourth coordinate x4 + x1 x2 - x1 x3: the quadratic terms cancel on the
    # main diagonal
    mp = sharp_r4_map(QQ)
    assert evaluate(mp, vector(QQ, (1, 1, 1, 1))) == (1, 1, 1, 1)
    assert mp.degree() == 2
    diag = restrict_to_line(mp, vector(QQ, (0, 0, 0, 0)), vector(QQ, (1, 1, 1, 1)))
    assert diag.degree == 1
    assert tabulate(reduce_mod(mp, 3)).is_injective()


def test_noninjective_variant_collides_mod_3():
    # fourth coordinate x4(1 + x2) - x2 x3 is constant in x4 when x2 = -1
    mp = noninjective_r4_variant(PrimeField(3))
    table = tabulate(mp)
    assert not table.is_injective()
    assert table.apply((0, 2, 0, 0)) == table.apply((0, 2, 0, 1))


# ---------------------------------------------------------------------------
# four-direction forms and the fifth direction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", (1, 2))
def test_four_direction_forms_pass_their_family(variant):
    mp = four_direction_form(Fraction(1), variant, QQ)
    assert satisfies_constraints(mp)
    table = tabulate(reduce_mod(mp, 5))
    fam = LineFamily(QQ, 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
    assert check_family(table, fam, mode="onto").ok
    assert table.is_injective()


@pytest.mark.parametrize("variant", (1, 2))
def test_fifth_direction_refutes_both_variants(variant):
    for field in (QQ, PrimeField(5)):
        mp = four_direction_form(field.one(), variant, field)
        assert fifth_direction_refutation(mp, vector(field, (2, 3, 1)))


def test_fifth_direction_does_not_refute_affine_maps():
    assert not fifth_direction_refutation(identity_map(QQ, 3),
                                          vector(QQ, (2, 3, 1)))


def test_fifth_direction_validates_admissibility():
    mp = four_direction_form(Fraction(1), 1, QQ)
    for bad in ((1, 3, 1), (2, 2, 1), (0, 3, 1), (2, 3, 2)):
        with pytest.raises(InputError):
            fifth_direction_refutation(mp, vector(QQ, bad))


def test_four_direction_form_validation():
    with pytest.raises(InputError):
        four_direction_form(Fraction(0), 1, QQ)
    with pytest.raises(InputError):
        four_direction_form(Fraction(1), 3, QQ)
