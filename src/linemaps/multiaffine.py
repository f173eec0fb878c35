"""Multiaffine maps F(x) = sum_delta u_delta * prod_i x_i^{delta_i}.

Degree <= 1 in each variable separately; coefficients are stored sparsely,
keyed by an n-bit mask (bit i set <=> delta_{i+1} = 1).  This is the normal
form every restricted collineation reduces to, with the per-coordinate scalar
bijections taken as the identity (over Q and over Z_p the additive bijections
fixing 1 are the identity, so nothing is lost in the stored skeleton).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterator, List, Sequence, Tuple

from .exact import (
    Field, InputError, Matrix, PrimeField, Scalar, Vector, _trusted,
    field_from_json, field_to_json, exact_int, mat_vec, unit_vector, vec_add, vec_is_zero,
    vec_scale, vector, vectors_parallel, zero_vector,
)
from .grid import FiniteMapTable, _grid_size


def mask_to_delta(mask: int, n: int) -> Tuple[int, ...]:
    return tuple((mask >> i) & 1 for i in range(n))


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
        for i in _bits(mask):
            prod *= x[i]
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


def _substitute(map_: MultiAffineMap,
                forms: Sequence[Sequence[Scalar]]) -> Dict[Tuple[int, ...], List[Scalar]]:
    """F with each x_i replaced by the affine form c_i + sum_j a_ij y_j, given
    as forms[i] = (c_i, a_i1, ..., a_ik), multiplied out: {exponent tuple of
    (y_1, ..., y_k): coefficient row}.  While a product is expanded, an
    exponent tuple is kept as the int sum_j e_j r^(j-1), r = n + 1 (no
    exponent passes n), so multiplying by y_j adds r^(j-1) and by c_i adds 0.
    The entries are unreduced; each caller reduces them once."""
    F, r, k = map_.field, map_.n + 1, len(forms[0]) - 1
    weights = [0] + [r ** j for j in range(k)]
    terms = [[(weights[j], a) for j, a in enumerate(form) if not F.is_zero(a)] for form in forms]
    rows: Dict[int, List[Scalar]] = {}
    for mask, u in map_.coeffs.items():
        product = {0: 1}
        for i in _bits(mask):
            step: Dict[int, Scalar] = {}
            for key, c in product.items():
                for w, a in terms[i]:
                    step[key + w] = step.get(key + w, 0) + c * a
            product = step
        for key, c in product.items():
            row = rows.setdefault(key, [0] * map_.m)
            for j, x in enumerate(u):
                row[j] += c * x
    return {tuple(key // w % r for w in weights[1:]): row for key, row in rows.items()}


def restrict_to_line(map_: MultiAffineMap, a: Vector, b: Vector) -> UnivariateCurve:
    """Exact expansion of t |-> F(a + t b) as a polynomial in t."""
    F = map_.field
    if len(a) != map_.n or len(b) != map_.n:
        raise InputError("base/direction length mismatch")
    a = vector(F, a)
    b = vector(F, b)
    if vec_is_zero(F, b):
        raise InputError("direction must be nonzero")
    powers = _substitute(map_, list(zip(a, b)))
    zero = (0,) * map_.m
    # UnivariateCurve reduces each coefficient once, and trims the zero top ones
    return UnivariateCurve(map_.m, F, tuple(tuple(powers.get((k,), zero))
                                            for k in range(map_.n + 1)))


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
    coeffs: Dict[int, Vector] = {}
    forms = [(c,) + row for c, row in zip(right.offset, right.matrix.rows)]
    for expo, row in _substitute(map_, forms).items():
        if vec_is_zero(F, row):
            continue
        if any(e > 1 for e in expo):
            raise InputError("composition is not multiaffine (a square survives)")
        # the left affine map: u -> A.u, and its offset added to the constant
        coeffs[delta_to_mask(expo)] = mat_vec(left.matrix, row)
    coeffs[0] = vec_add(F, coeffs.get(0, zero_vector(F, left.matrix.nrows)), left.offset)
    return MultiAffineMap(right.matrix.ncols, left.matrix.nrows, F, coeffs)


def reduce_mod(map_: MultiAffineMap, p: int) -> MultiAffineMap:
    """Reduce a rational map mod p (all denominators must be units)."""
    gf = PrimeField(p)
    coeffs = {mask: tuple(gf.convert(x) for x in u) for mask, u in map_.coeffs.items()}
    return MultiAffineMap(map_.n, map_.m, gf, coeffs)


# ---------------------------------------------------------------------------
# tabulation over Z_p
# ---------------------------------------------------------------------------

def tabulate(map_: MultiAffineMap):
    """Evaluate the map on all p^n grid points, lexicographic index order.

    Built one output coordinate at a time, one variable at a time: before
    variable i is read, a column holds at index B*p^i + A the coefficient of
    the monomial with mask B << i in the map with x_0..x_{i-1} set to the
    point of lexicographic index A.  Reading x_i = a splits B into its low bit
    b and the rest, and sends the pair (b = 0, b = 1) to lo + a*hi at index
    B'*p^(i+1) + A*p + a.  After n variables the column is the coordinate's
    table, in O(p^n) steps per coordinate (p >= 3)."""
    F = map_.field
    if not isinstance(F, PrimeField):
        raise InputError("tabulate needs a prime-field map")
    p, n = F.p, map_.n
    _grid_size(p, n)
    zero = (0,) * map_.m
    coeffs = [map_.coeffs.get(mask, zero) for mask in range(1 << n)]
    columns = []
    for column in zip(*coeffs):
        size = 1  # p^i
        for _ in range(n):
            column = [(lo + a * hi) % p
                      for start in range(0, len(column), 2 * size)
                      for lo, hi in zip(column[start:start + size],
                                        column[start + size:start + 2 * size])
                      for a in range(p)]
            size *= p
        columns.append(column)
    # residues mod p
    return _trusted(FiniteMapTable, p, n, map_.m, tuple(zip(*columns)))


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
            delta, value = entry["delta"], entry["value"]
            # a string or an object would be read by its characters or keys
            if type(delta) is not list or type(value) is not list:
                raise InputError("delta and value must be lists")
            if len(delta) != n:
                raise InputError("delta length != n")
            mask = delta_to_mask(delta)
            if mask in coeffs:
                raise InputError("duplicate delta")
            coeffs[mask] = tuple(F.parse(x) for x in value)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad map JSON: {exc}") from exc
    return MultiAffineMap(n, m, F, coeffs)
