"""Multiaffine maps F(x) = sum_delta u_delta * prod_i x_i^{delta_i}.

Degree <= 1 in each variable separately; coefficients are stored sparsely,
keyed by an n-bit mask (bit i set <=> delta_{i+1} = 1).  This is the normal
form every restricted collineation reduces to, with the per-coordinate scalar
bijections taken as the identity (over Q and over Z_p the additive bijections
fixing 1 are the identity, so nothing is lost in the stored skeleton).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, Sequence, Tuple

from .exact import (
    Field, InputError, Matrix, PrimeField, Scalar, Vector,
    field_from_json, field_to_json, exact_int, mat_vec, unit_vector, vec_add, vec_is_zero,
    vec_scale, vector, vectors_parallel, zero_vector,
)
from .grid import DEFAULT_POINT_BUDGET, FiniteMapTable, _grid_size, grid_points


def mask_to_delta(mask: int, n: int) -> Tuple[int, ...]:
    return tuple((mask >> i) & 1 for i in range(n))


def delta_to_mask(delta: Sequence[int]) -> int:
    mask = 0
    for i, d in enumerate(delta):
        if type(d) is not int or d not in (0, 1):
            raise InputError(f"delta entries must be 0/1, got {d!r}")
        mask |= d << i
    return mask


@dataclass(frozen=True)
class MultiAffineMap:
    n: int
    m: int
    field: Field
    coeffs: Dict[int, Vector] = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise InputError("dimensions must be >= 1")
        cleaned = {}
        for mask, u in self.coeffs.items():
            if not 0 <= mask < (1 << self.n):
                raise InputError(f"mask {mask} out of range for n={self.n}")
            u = vector(self.field, u)
            if len(u) != self.m:
                raise InputError("coefficient vector length != m")
            if not vec_is_zero(self.field, u):
                cleaned[mask] = u
        object.__setattr__(self, "coeffs", cleaned)

    def degree(self) -> int:
        return max((mask.bit_count() for mask in self.coeffs), default=0)

    def __eq__(self, other):
        return (isinstance(other, MultiAffineMap) and self.n == other.n
                and self.m == other.m and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.n, self.m, self.field, tuple(sorted(self.coeffs.items()))))


def identity_map(field: Field, n: int) -> MultiAffineMap:
    coeffs = {1 << i: unit_vector(field, n, i) for i in range(n)}
    return MultiAffineMap(n, n, field, coeffs)


def evaluate(map_: MultiAffineMap, x: Vector) -> Vector:
    if len(x) != map_.n:
        raise InputError(f"point has length {len(x)}, map domain is {map_.n}")
    F = map_.field
    x = vector(F, x)
    out = [0] * map_.m
    for mask, u in map_.coeffs.items():
        prod = 1
        mm = mask
        while mm:
            i = (mm & -mm).bit_length() - 1
            prod *= x[i]
            mm &= mm - 1
        if not F.is_zero(prod):
            for j, c in enumerate(u):
                out[j] += prod * c
    return tuple([F.convert(s) for s in out])


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix.x + offset."""

    matrix: Matrix
    offset: Vector

    def __post_init__(self):
        if len(self.offset) != self.matrix.nrows:
            raise InputError("offset length must match matrix rows")
        off = vector(self.matrix.field, self.offset)
        object.__setattr__(self, "offset", off)

    @property
    def field(self) -> Field:
        return self.matrix.field

    def apply(self, x: Vector) -> Vector:
        return vec_add(self.field, mat_vec(self.matrix, x), self.offset)


@dataclass(frozen=True)
class UnivariateCurve:
    """Coefficients c_0, c_1, ..., c_d of t |-> F(a + t b); c_d != 0 unless d=0."""

    m: int
    field: Field
    coeffs: Tuple[Vector, ...]

    def __post_init__(self):
        coeffs = tuple(vector(self.field, c) for c in self.coeffs)
        # trim trailing zero coefficients so the degree is honest
        while len(coeffs) > 1 and vec_is_zero(self.field, coeffs[-1]):
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = (zero_vector(self.field, self.m),)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def at(self, t: Scalar) -> Vector:
        F = self.field
        t = F.convert(t)
        acc = zero_vector(F, self.m)
        for c in reversed(self.coeffs):
            acc = vec_add(F, vec_scale(F, t, acc), c)
        return acc


def restrict_to_line(map_: MultiAffineMap, a: Vector, b: Vector) -> UnivariateCurve:
    """Exact expansion of t |-> F(a + t b) as a polynomial in t."""
    F = map_.field
    if len(a) != map_.n or len(b) != map_.n:
        raise InputError("base/direction length mismatch")
    a = vector(F, a)
    b = vector(F, b)
    if vec_is_zero(F, b):
        raise InputError("direction must be nonzero")
    # unreduced sums; UnivariateCurve reduces each coefficient once
    coeffs = [[0] * map_.m for _ in range(map_.n + 1)]
    for mask, u in map_.coeffs.items():
        # multiply out prod_{i in mask} (a_i + t b_i), lowest degree first
        poly = [1]
        mm = mask
        while mm:
            i = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            poly = [c * a[i] + d * b[i] for c, d in zip(poly + [0], [0] + poly)]
        for k, c in enumerate(poly):
            if not F.is_zero(c):
                row = coeffs[k]
                for j, x in enumerate(u):
                    row[j] += c * x
    return UnivariateCurve(map_.m, F, tuple(map(tuple, coeffs)))


def curve_lies_in_line(curve: UnivariateCurve) -> bool:
    """True iff the image set lies in a single line (or a point): all the
    coefficients c_k with k >= 1 are pairwise parallel."""
    F = curve.field
    dirs = [c for c in curve.coeffs[1:] if not vec_is_zero(F, c)]
    for i in range(1, len(dirs)):
        if not vectors_parallel(F, dirs[0], dirs[i]):
            return False
    return True


def compose(left: AffineMap, map_: MultiAffineMap, right: AffineMap) -> MultiAffineMap:
    """Normal form of left o F o right, expanded exactly.

    Raises InputError if the substitution leaves a genuine square (the result
    of composing with an arbitrary affine map need not stay multiaffine).
    """
    F = map_.field
    if left.field != F or right.field != F:
        raise InputError("field mismatch in composition")
    if right.matrix.nrows != map_.n or left.matrix.ncols != map_.m:
        raise InputError("dimension mismatch in composition")
    n_in = right.matrix.ncols

    # polynomial accumulator: exponent tuple (len n_in) -> coefficient
    # vector, unreduced until the left map's mat_vec reduces it
    acc: Dict[Tuple[int, ...], list] = {}

    for mask, u in map_.coeffs.items():
        # product over i in mask of the affine form (row i of right)
        terms: Dict[Tuple[int, ...], Scalar] = {tuple([0] * n_in): 1}
        mm = mask
        while mm:
            i = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            lin = [(None, right.offset[i])] + [
                (j, right.matrix.rows[i][j]) for j in range(n_in)
            ]
            nxt: Dict[Tuple[int, ...], Scalar] = {}
            for expo, c in terms.items():
                for var, coeff in lin:
                    if F.is_zero(coeff):
                        continue
                    if var is None:
                        e2 = expo
                    else:
                        e2 = list(expo)
                        e2[var] += 1
                        e2 = tuple(e2)
                    nxt[e2] = nxt.get(e2, 0) + c * coeff
            terms = {e: c for e, c in nxt.items() if not F.is_zero(c)}
        for expo, c in terms.items():
            row = acc.setdefault(expo, [0] * map_.m)
            for j, x in enumerate(u):
                row[j] += c * x

    out_coeffs: Dict[int, Vector] = {}
    for expo, row in acc.items():
        if vec_is_zero(F, tuple(row)):
            continue
        if any(e > 1 for e in expo):
            raise InputError("composition is not multiaffine (a square survives)")
        out_coeffs[delta_to_mask(expo)] = tuple(row)

    # apply the left affine map: u -> A.u, and add the offset to the constant
    final: Dict[int, Vector] = {}
    for mask, u in out_coeffs.items():
        final[mask] = mat_vec(left.matrix, u)
    const = final.get(0, zero_vector(F, left.matrix.nrows))
    final[0] = vec_add(F, const, left.offset)
    return MultiAffineMap(n_in, left.matrix.nrows, F, final)


def reduce_mod(map_: MultiAffineMap, p: int) -> MultiAffineMap:
    """Reduce a rational map mod p (all denominators must be units)."""
    gf = PrimeField(p)
    coeffs = {mask: tuple(gf.convert(x) for x in u) for mask, u in map_.coeffs.items()}
    return MultiAffineMap(map_.n, map_.m, gf, coeffs)


# ---------------------------------------------------------------------------
# tabulation over Z_p
# ---------------------------------------------------------------------------

def tabulate(map_: MultiAffineMap, budget: int = DEFAULT_POINT_BUDGET):
    """Evaluate the map on all p^n grid points, lexicographic index order."""
    F = map_.field
    if not isinstance(F, PrimeField):
        raise InputError("tabulate needs a prime-field map")
    p = F.p
    _grid_size(p, map_.n, budget, "point budget")
    values = tuple(evaluate(map_, x) for x in grid_points(p, map_.n))
    return FiniteMapTable(p, map_.n, map_.m, values)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def map_to_json(map_: MultiAffineMap) -> dict:
    F = map_.field
    coeffs = []
    for mask in sorted(map_.coeffs):
        coeffs.append({
            "delta": list(mask_to_delta(mask, map_.n)),
            "value": [F.to_json(x) for x in map_.coeffs[mask]],
        })
    return {"n": map_.n, "m": map_.m, "field": field_to_json(F), "coeffs": coeffs}


def map_from_json(obj: dict) -> MultiAffineMap:
    try:
        n, m = exact_int(obj["n"], "n"), exact_int(obj["m"], "m")
        F = field_from_json(obj["field"])
        coeffs: Dict[int, Vector] = {}
        for entry in obj.get("coeffs", ()):
            delta = entry["delta"]
            if len(delta) != n:
                raise InputError("delta length != n")
            mask = delta_to_mask(delta)
            if mask in coeffs:
                raise InputError("duplicate delta")
            coeffs[mask] = tuple(F.parse(x) for x in entry["value"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad map JSON: {exc}") from exc
    return MultiAffineMap(n, m, F, coeffs)
