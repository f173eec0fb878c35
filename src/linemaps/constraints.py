"""The coefficient constraint system for multiaffine maps that send the
standard direction family (all axes plus the main diagonal) onto lines.

For a map on n variables the conditions are, per output coordinate:

  * u_delta = 0 whenever 2|delta| >= n+2, and
  * sum over {|delta| = k, delta >= S} of u_delta = 0 for every degree k with
    2 <= k and 2k < n+2 and every index set S with |S| <= k-2.

This module builds the system exactly over the rationals, checks maps against
it, explores its nullspace (including the maximal-degree injective "sharp"
constructions in even dimension), and ships the small canonical examples in
dimension 3 together with the fifth-direction refutation showing four
directions are not enough to force affinity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from random import Random
from typing import Dict, List, Optional, Tuple

from .exact import (
    Field, InputError, InternalInconsistencyError, Matrix, QQ, ResourceError,
    Scalar, Vector, _Quotients, _trusted, nullspace, rank, unit_vector, vector,
    zero_vector,
)
from .grid import DEFAULT_POINT_BUDGET, standard_family
from .multiaffine import MultiAffineMap, _bits, curve_lies_in_line, mask_to_delta, restrict_to_line

RowLabel = Tuple  # ("vanish", mask) or ("sum", k, sorted index tuple)


# ===========================================================================
# system construction
# ===========================================================================

@lru_cache(maxsize=None)
def _ordered_masks(n: int) -> Tuple[int, ...]:
    """All 2^n masks, descending-lexicographic in the (d_1,...,d_n) tuples,
    so the high-degree unknowns that must vanish come first."""
    return tuple(sorted(range(1 << n), key=lambda m: mask_to_delta(m, n), reverse=True))


@lru_cache(maxsize=None)
def _row_labels(n: int) -> Tuple[RowLabel, ...]:
    """The conditions of the system on n variables, in row order: first
    u_delta = 0 for 2|delta| >= n+2, in column order, then the zero sums for
    2 <= k < (n+2)/2 and |S| <= k-2."""
    if n < 2:
        raise InputError("constraint system needs n >= 2")
    labels: List[RowLabel] = [("vanish", mask) for mask in _ordered_masks(n)
                              if 2 * mask.bit_count() >= n + 2]
    for k in range(2, n + 1):
        if 2 * k >= n + 2:
            break
        for l in range(0, k - 1):
            for subset in itertools.combinations(range(n), l):
                labels.append(("sum", k, subset))
    return tuple(labels)


def _subset_mask(subset: Tuple[int, ...]) -> int:
    s_mask = 0
    for i in subset:
        s_mask |= 1 << i
    return s_mask


@dataclass(frozen=True)
class ConstraintSystem:
    n: int
    unknowns: Tuple[int, ...]        # masks, in column order
    rows: Matrix                     # over QQ, one row per condition
    labels: Tuple[RowLabel, ...]     # what each row encodes

    def solution_dimension(self) -> int:
        return len(self.unknowns) - rank(self.rows)

    def to_json(self) -> dict:
        return {
            "unknowns": [list(mask_to_delta(m, self.n)) for m in self.unknowns],
            "rows": [[QQ.to_json(c) for c in row] for row in self.rows.rows],
        }


_ZERO, _ONE = Fraction(0), Fraction(1)


def _zero_sum_row(unknowns: Tuple[int, ...], k: int, subset: Tuple[int, ...]) -> Vector:
    """The row of sum over {|delta| = k, delta >= S} of u_delta = 0: a 1 in
    the column of each such unknown mask, 0 elsewhere."""
    s_mask = _subset_mask(subset)
    return tuple([_ONE if m & s_mask == s_mask and m.bit_count() == k else _ZERO
                  for m in unknowns])


# The system is built as dense rows of 2^n Fractions.  n = 12 has 11,354,112
# entries and is the largest n under this bound; n = 13 has 51,920,896.
_DENSE_ENTRY_BUDGET = 2 * 10 ** 7


def _dense_entries(n: int) -> int:
    """Rows times 2^n columns of the system on n variables, counted in closed
    form (the labels of `_row_labels`, without building a mask)."""
    half = (n + 3) // 2  # the least degree k with 2k >= n+2
    vanish = sum(comb(n, k) for k in range(half, n + 1))
    sums = sum(comb(n, l) for k in range(2, half) for l in range(k - 1))
    return (vanish + sums) << n


@lru_cache(maxsize=None)
def build_constraints(n: int) -> ConstraintSystem:
    # n < 2 is refused by _row_labels; past the bound's bit length 2^n alone
    # passes it, so no huge sum is taken
    if n >= 2 and (n >= _DENSE_ENTRY_BUDGET.bit_length()
                   or _dense_entries(n) > _DENSE_ENTRY_BUDGET):
        raise ResourceError(f"the constraint system for n = {n} has more than "
                            f"{_DENSE_ENTRY_BUDGET} dense entries")
    labels = _row_labels(n)
    unknowns = _ordered_masks(n)
    column = {mask: ci for ci, mask in enumerate(unknowns)}
    rows: List[Vector] = []
    for label in labels:
        if label[0] == "vanish":
            row = [_ZERO] * len(unknowns)
            row[column[label[1]]] = _ONE
            rows.append(tuple(row))
        else:
            rows.append(_zero_sum_row(unknowns, label[1], label[2]))
    return ConstraintSystem(n, unknowns, _trusted(Matrix, QQ, tuple(rows)), labels)


# ===========================================================================
# checking maps against the system
# ===========================================================================

@dataclass(frozen=True)
class ConstraintCheck:
    ok: bool
    row_index: Optional[int] = None
    label: Optional[RowLabel] = None
    coordinate: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


def _integer_coeffs(map_: MultiAffineMap) -> Dict[int, Vector]:
    """The map's coefficients as integers with the same zero tests: over Q
    each times the common denominator of them all, a positive scale, and over
    Z_p as they are."""
    if map_.field != QQ:
        return map_.coeffs
    d = lcm(*{c.denominator for u in map_.coeffs.values() for c in u})
    return {mask: tuple([c.numerator * (d // c.denominator) for c in u])
            for mask, u in map_.coeffs.items()}


def satisfies_constraints(map_: MultiAffineMap) -> ConstraintCheck:
    """Does every output coordinate of the map satisfy every condition row?
    Reports the first violated row (and the coordinate it fails in).

    Each condition is evaluated over the map's own nonzero coefficients,
    without building the system's rows, but the row labels sort all 2^n
    masks: past the point budget, which 2^n passes exactly when n reaches
    the budget's bit length, the map is refused."""
    if map_.n >= DEFAULT_POINT_BUDGET.bit_length():
        raise ResourceError(f"the constraint system for n = {map_.n} has more than "
                            f"{DEFAULT_POINT_BUDGET} unknowns")
    F = map_.field
    coeffs = _integer_coeffs(map_)
    by_degree: Dict[int, List[Tuple[int, Vector]]] = {}
    for mask, u in coeffs.items():
        by_degree.setdefault(mask.bit_count(), []).append((mask, u))
    for ri, label in enumerate(_row_labels(map_.n)):
        if label[0] == "vanish":
            terms = [coeffs[label[1]]] if label[1] in coeffs else []
        else:
            s_mask = _subset_mask(label[2])
            terms = [u for mask, u in by_degree.get(label[1], ())
                     if mask & s_mask == s_mask]
        for j, tally in enumerate(map(sum, zip(*terms))):
            if not F.is_zero(tally):
                return ConstraintCheck(False, ri, label, j)
    return ConstraintCheck(True)


# ===========================================================================
# the standard family check (converse direction)
# ===========================================================================

@dataclass(frozen=True)
class LineDegreeViolation:
    direction: Tuple
    degree: int


@dataclass(frozen=True)
class StandardFamilyReport:
    ok: bool
    directions_checked: int
    violations: Tuple[LineDegreeViolation, ...]

    def to_json(self) -> dict:
        return {"ok": self.ok,
                "directions_checked": self.directions_checked,
                "violations": [{"direction": [str(c) for c in v.direction],
                                "degree": v.degree} for v in self.violations]}


def _symbolic_excess_degree(map_: MultiAffineMap, b: Vector) -> int:
    """Largest k >= 2 for which the t^k coefficient of F(w + t b) is a nonzero
    polynomial in the (symbolic) base point w; 0 if none.

    The t^k coefficient at the w-monomial T is
        sum over {delta >= T, |delta| = |T| + k} of u_delta * prod_{i in
        delta minus T} b_i,
    and, being multiaffine in w, it vanishes at every point of the field (Q
    or Z_p alike) iff all these coefficients vanish.  The coefficients and b
    are taken in integers: b times lam scales the t^k coefficient by lam^k.
    Only the variables in supp(b) are distributed, as a product with a zero
    b_i vanishes; those b_i are units (nonzero rationals, or nonzero residues
    mod a prime), so every product taken is nonzero.
    """
    F = map_.field
    lam = lcm(*(c.denominator for c in b))
    b = [c.numerator * (lam // c.denominator) for c in b]
    support = _subset_mask([i for i, c in enumerate(b) if c])
    totals: Dict[Tuple[int, int], List[int]] = {}
    for mask, u in _integer_coeffs(map_).items():
        moving = mask & support
        if moving.bit_count() < 2:
            continue
        # distribute mask's variables in supp(b) between the base monomial T and t-powers
        bits = list(_bits(moving))
        for r in range(2, len(bits) + 1):    # r = number of t factors
            for chosen in itertools.combinations(bits, r):
                coeff = 1
                for i in chosen:
                    coeff *= b[i]
                acc = totals.setdefault((mask ^ _subset_mask(chosen), r), [0] * map_.m)
                for j, x in enumerate(u):
                    acc[j] += coeff * x
    worst = 0
    for (_t_mono, r), acc in totals.items():
        if any(not F.is_zero(c) for c in acc):
            worst = max(worst, r)
    return worst


def check_standard_family(map_: MultiAffineMap) -> StandardFamilyReport:
    """For a map satisfying the constraint system, confirm that every line
    parallel to an axis or to the main diagonal is carried with degree <= 1.

    One path serves Q and Z_p: the base point w of the line w + t b is left
    symbolic, and b is reported with the largest k >= 2 for which the t^k
    coefficient of F(w + t b) is a nonzero polynomial in w.  This settles
    every line, with no sampling gap, over both fields: a line's degree in t
    does not depend on which of its points is the base, and a nonzero
    multiaffine polynomial is nonzero at some point, over Z_p as over Q.
    """
    if not satisfies_constraints(map_).ok:
        raise InputError("map does not satisfy the constraint system")
    violations: List[LineDegreeViolation] = []
    dirs = standard_family(map_.field, map_.n, True).directions
    for b in dirs:
        excess = _symbolic_excess_degree(map_, b)
        if excess >= 2:
            violations.append(LineDegreeViolation(b, excess))
    return StandardFamilyReport(not violations, len(dirs), tuple(violations))


# ===========================================================================
# sharpness: maximal-degree injective examples in even dimension
# ===========================================================================

@dataclass(frozen=True)
class SharpMapSpec:
    dim: int
    alphas: Dict[int, Scalar]     # mask -> coefficient of the top perturbation
    map: MultiAffineMap


def construct_sharp_map(dim: int) -> SharpMapSpec:
    """An injective map of (Q)^dim with degree dim/2 passing all conditions.

    The perturbation lives on degree-(dim/2) monomials avoiding the last
    variable, so the map is triangular (the last output is x_dim plus terms
    free of x_dim) and hence injective over every field.  The coefficients
    solve the zero-sum conditions for every (dim/2 - 2)-subset; the first
    canonical nullspace vector is chosen, deterministically.
    """
    if dim < 4 or dim % 2:
        raise InputError("sharp construction needs an even dimension >= 4")
    k = dim // 2
    # the dense system has C(dim, k-2) >= dim rows and C(dim-1, k) >=
    # 2^(dim-1) / dim columns, at least 2^(dim-1) entries: past the bound's
    # bit length it is refused without a binomial.  dim = 14 has 3,435,432
    # entries and is the largest dim under the bound; dim = 16 has 51,531,480
    if (dim > _DENSE_ENTRY_BUDGET.bit_length()
            or comb(dim, k - 2) * comb(dim - 1, k) > _DENSE_ENTRY_BUDGET):
        raise ResourceError(f"the sharp system for dim = {dim} has more than "
                            f"{_DENSE_ENTRY_BUDGET} dense entries")
    last_bit = 1 << (dim - 1)
    unknowns = tuple(m for m in _ordered_masks(dim)
                     if m.bit_count() == k and not m & last_bit)
    col = {m: i for i, m in enumerate(unknowns)}
    rows = tuple(_zero_sum_row(unknowns, k, subset)
                 for subset in itertools.combinations(range(dim), k - 2))
    basis = nullspace(_trusted(Matrix, QQ, rows))
    if not basis:
        raise InternalInconsistencyError(
            "restricted zero-sum system unexpectedly has a trivial kernel")
    alpha_vec = basis[0]
    alphas = {m: alpha_vec[col[m]] for m in unknowns if alpha_vec[col[m]] != 0}

    coeffs: Dict[int, Vector] = {1 << i: unit_vector(QQ, dim, i) for i in range(dim)}
    for m, a in alphas.items():
        coeffs[m] = (QQ.zero(),) * (dim - 1) + (a,)
    map_ = MultiAffineMap(dim, dim, QQ, coeffs)

    if not satisfies_constraints(map_).ok:
        raise InternalInconsistencyError("sharp map violates the constraint system")
    if map_.degree() != k:
        raise InternalInconsistencyError("sharp map has the wrong degree")
    return SharpMapSpec(dim, alphas, map_)


def sharp_r4_map(field: Field = QQ) -> MultiAffineMap:
    """(x1, x2, x3, x4 + x1 x2 - x1 x3): the corrected dimension-4 sharp map."""
    one, zero = field.one(), field.zero()
    coeffs: Dict[int, Vector] = {1 << i: unit_vector(field, 4, i) for i in range(4)}
    coeffs[0b0011] = (zero, zero, zero, one)                # +x1 x2
    coeffs[0b0101] = (zero, zero, zero, field.convert(-1))  # -x1 x3
    return MultiAffineMap(4, 4, field, coeffs)


def noninjective_r4_variant(field: Field = QQ) -> MultiAffineMap:
    """(x1, x2, x3, x4 - x2 x3 + x2 x4): a superficially similar degree-2
    perturbation whose last coordinate is x4(1 + x2) - x2 x3 — constant in x4
    when x2 = -1, so the map is NOT injective.  Shipped as a cautionary
    executable example; see the collision exhibited in the test suite."""
    one, zero = field.one(), field.zero()
    coeffs: Dict[int, Vector] = {1 << i: unit_vector(field, 4, i) for i in range(4)}
    coeffs[0b0110] = (zero, zero, zero, field.convert(-1))  # -x2 x3
    coeffs[0b1010] = (zero, zero, zero, one)                # +x2 x4
    return MultiAffineMap(4, 4, field, coeffs)


# ===========================================================================
# the canonical dimension-3 examples and the fifth-direction refutation
# ===========================================================================

def example_r3_map(field: Field = QQ) -> MultiAffineMap:
    """P(x) = (x1 + x3(x1-x2), x2 + x3(x1-x2), x3)."""
    return four_direction_form(field.one(), 1, field)


def four_direction_form(alpha: Scalar, variant: int, field: Field = QQ) -> MultiAffineMap:
    """The two canonical non-affine maps adapted to the four directions
    e1, e2, e3, e1+e2+e3 (every line in those directions goes onto a line):

      variant 1: (x1 + a*x3(x1-x2), x2 + a*x3(x1-x2), x3)
      variant 2: (x1 - x3, x2, a*x3 + x2(x1-x3))
    """
    a = field.convert(alpha)
    if field.is_zero(a):
        raise InputError("alpha must be nonzero")
    one, zero = field.one(), field.zero()
    if variant == 1:
        coeffs = {
            0b001: (one, zero, zero),
            0b010: (zero, one, zero),
            0b100: (zero, zero, one),
            0b101: (a, a, zero),                                  # +a x1 x3
            0b110: (field.convert(-a), field.convert(-a), zero),  # -a x2 x3
        }
    elif variant == 2:
        coeffs = {
            0b001: (one, zero, zero),
            0b010: (zero, one, zero),
            0b100: (field.convert(-1), zero, a),     # x3 enters 1st and 3rd
            0b011: (zero, zero, one),                 # +x1 x2
            0b110: (zero, zero, field.convert(-1)),   # -x2 x3
        }
    else:
        raise InputError("variant must be 1 or 2")
    return MultiAffineMap(3, 3, field, coeffs)


def fifth_direction_refutation(map_: MultiAffineMap, u: Vector) -> bool:
    """True iff the single line {t*u} through the origin is NOT carried into
    a line — witnessing that a fifth direction in general position cannot be
    added to the four-direction family.

    u must be normalized to (a, b, 1) with a, b outside {0, 1} and a != b,
    which makes {e1, e2, e3, e1+e2+e3, u} 3-independent.
    """
    F = map_.field
    if map_.n != 3:
        raise InputError("fifth-direction refutation lives in dimension 3")
    u = vector(F, u)
    a, b, c = u
    one = F.one()
    if c != one:
        raise InputError("direction must be normalized to (a, b, 1)")
    if a in (F.zero(), one) or b in (F.zero(), one) or a == b:
        raise InputError("need a, b outside {0,1} with a != b for 3-independence")
    curve = restrict_to_line(map_, zero_vector(F, 3), u)
    return not curve_lies_in_line(curve)


# ===========================================================================
# random elements of the solution space (for sampling-based verification)
# ===========================================================================

@lru_cache(maxsize=None)
def _solution_basis(n: int) -> Tuple[Tuple[Tuple[Tuple[int, int], ...], ...], int]:
    """The nullspace basis as integer numerators over one common denominator
    D: each vector as its nonzero (unknown mask, numerator) pairs, and D."""
    system = build_constraints(n)
    basis = nullspace(system.rows)
    d = lcm(*(val.denominator for vec in basis for val in vec))
    return tuple(tuple((mask, val.numerator * (d // val.denominator))
                       for mask, val in zip(system.unknowns, vec) if val != 0)
                 for vec in basis), d


def sample_constrained_map(n: int, m: int, rng: Random,
                           coeff_bound: int = 3) -> MultiAffineMap:
    """A random rational map whose every coordinate satisfies the constraint
    system: each output coordinate is an independent small-integer combination
    of the nullspace basis of the system.  The sums are taken in integers over
    the basis's common denominator, and one Fraction is made per distinct sum."""
    basis, d = _solution_basis(n)
    if m < 1:
        raise InputError("dimensions must be >= 1")
    sums: Dict[int, List[int]] = {}
    for j in range(m):
        for vec in basis:
            w = rng.randint(-coeff_bound, coeff_bound)
            if w:
                for mask, val in vec:
                    row = sums.get(mask)
                    if row is None:
                        row = sums[mask] = [0] * m
                    row[j] += w * val
    quotient = _Quotients()
    return _trusted(MultiAffineMap, n, m, QQ,
                    {mask: tuple([quotient[a, d] for a in row])
                     for mask, row in sums.items() if any(row)})
