"""Exhaustive finite-field verification of the scalar-function rigidity
facts the classification arguments lean on: the additivity ratio criterion,
the structure of multiplicative injections of Z_p (power maps), the
shifted-multiplicativity characterizations of the identity, and the
rigidity of diagonal maps pinned at two line pencils.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial, gcd
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from .exact import InputError, PrimeField, ResourceError, _to_json, exact_int
from .grid import _backtrack, _lines, _plane_directions, _plane_pencil

Table = Tuple[int, ...]


@dataclass(frozen=True)
class ScalarFunctionTable:
    """A function Z_p -> Z_p given by its full value table."""

    p: int
    values: Table

    def __post_init__(self):
        PrimeField(self.p)
        if len(self.values) != self.p:
            raise InputError("value table must have length p")
        object.__setattr__(self, "values",
                           tuple(exact_int(v, "table value") % self.p for v in self.values))

    def __call__(self, x: int) -> int:
        return self.values[x % self.p]

    def is_bijection(self) -> bool:
        return len(set(self.values)) == self.p


def identity_table(p: int) -> ScalarFunctionTable:
    return ScalarFunctionTable(p, tuple(range(p)))


def is_additive(f: ScalarFunctionTable) -> bool:
    p, v = f.p, f.values
    return all(v[(a + b) % p] == (v[a] + v[b]) % p
               for a in range(p) for b in range(a, p))


def is_multiplicative(f: ScalarFunctionTable) -> bool:
    p, v = f.p, f.values
    return all(v[a * b % p] == v[a] * v[b] % p
               for a in range(p) for b in range(a, p))


def bijections_fixing_0_1(p: int):
    """All bijections of Z_p with f(0)=0, f(1)=1, in lexicographic order."""
    for rest in itertools.permutations(range(2, p)):
        yield ScalarFunctionTable(p, (0, 1) + rest)


# ===========================================================================
# the ratio criterion for additivity
# ===========================================================================

@dataclass(frozen=True)
class RatioReport:
    p: int
    candidates: int
    passing: Tuple[Table, ...]
    passing_all_additive: bool
    additive_all_passing: bool

    @property
    def ok(self) -> bool:
        return self.passing_all_additive and self.additive_all_passing

    def to_json(self) -> dict:
        return _to_json(self, "ok")


def ratio_criterion(p: int, max_p: int = 7) -> RatioReport:
    """Among bijections fixing 0 and 1, those for which the quotient
    (f(a+b) - f(b)) / f(a) does not depend on a (for every b) are exactly
    the additive ones — checked by exhausting all (p-2)! candidates."""
    PrimeField(p)
    if p > max_p:
        raise ResourceError(f"(p-2)! enumeration guarded at p <= {max_p}")
    passing: List[Table] = []
    all_additive = True
    additive_pass = True
    count = 0
    for f in bijections_fixing_0_1(p):
        count += 1
        v = f.values
        ok = True
        for b in range(p):
            ratios = {(v[(a + b) % p] - v[b]) * pow(v[a], p - 2, p) % p
                      for a in range(1, p)}
            if len(ratios) > 1:
                ok = False
                break
        if ok:
            passing.append(v)
            if not is_additive(f):
                all_additive = False
        elif is_additive(f):
            additive_pass = False
    return RatioReport(p, count, tuple(passing), all_additive, additive_pass)


# ===========================================================================
# multiplicative injections and the shift-to-identity characterizations
# ===========================================================================

def multiplicative_injections(p: int) -> List[ScalarFunctionTable]:
    """All multiplicative injections of Z_p: the power maps x -> x^k with
    gcd(k, p-1) = 1 (f(0)=0 and f(1)=1 are forced for any of them)."""
    PrimeField(p)
    out = []
    for k in range(1, p - 1):
        if gcd(k, p - 1) == 1:
            out.append(ScalarFunctionTable(p, tuple(pow(x, k, p) for x in range(p))))
    return out


def _brute_force_multiplicative_injections(p: int) -> List[Table]:
    """Every bijection of Z_p with f(ab) = f(a)f(b), by the search kernel."""
    return _backtrack([range(p)] * p,
                      [((a, b, a * b % p), (a, b)) for a in range(p) for b in range(a, p)],
                      lambda f, ab: f[ab[0] * ab[1] % p] == f[ab[0]] * f[ab[1]] % p)


@dataclass(frozen=True)
class MultRigidityReport:
    p: int
    exponents: Tuple[int, ...]
    brute_force_agrees: Optional[bool]       # None when p is too big to brute-force
    shifted_identity_only: bool              # g(x) = f(x+1) - 1 multiplicative => f = id
    scaled_identity_only: bool               # g(x) = (f(x+1)-1)/(f(2)-1) likewise
    f2_equal_one: Tuple[Table, ...]          # candidates where the scaling is undefined

    @property
    def ok(self) -> bool:
        return (self.shifted_identity_only and self.scaled_identity_only
                and self.brute_force_agrees is not False
                and not self.f2_equal_one)

    def to_json(self) -> dict:
        return _to_json(self, "ok")


def verify_multiplicative_rigidity(p: int, brute_force_max_p: int = 7) -> MultRigidityReport:
    """Check, over all multiplicative injections f of Z_p, that the shifted
    function g(x) = f(x+1) - 1 (and its f(2)-normalized variant) is
    multiplicative only for f = identity.

    The structural enumeration by power maps is cross-checked against a brute
    force over all permutations when p is small enough.
    """
    candidates = multiplicative_injections(p)
    exponents = tuple(k for k in range(1, p - 1) if gcd(k, p - 1) == 1)

    agrees: Optional[bool] = None
    if p <= brute_force_max_p:
        structural = sorted(f.values for f in candidates)
        agrees = structural == sorted(_brute_force_multiplicative_injections(p))

    ident = tuple(range(p))
    shifted_ok = True
    scaled_ok = True
    f2_one: List[Table] = []
    for f in candidates:
        v = f.values
        g = ScalarFunctionTable(p, tuple((v[(x + 1) % p] - 1) % p for x in range(p)))
        if is_multiplicative(g) != (v == ident):
            shifted_ok = False
        if v[2] == 1:
            f2_one.append(v)
            continue
        s = pow(v[2] - 1, p - 2, p)
        g2 = ScalarFunctionTable(p, tuple((v[(x + 1) % p] - 1) * s % p for x in range(p)))
        if is_multiplicative(g2) != (v == ident):
            scaled_ok = False
    return MultRigidityReport(p, exponents, agrees, shifted_ok, scaled_ok, tuple(f2_one))


# ===========================================================================
# rigidity of plane diagonal maps pinned at two pencils
# ===========================================================================

def _pinning_point(x0) -> Tuple[int, int]:
    """x0 as a pair of exact ints: a float, bool or str coordinate, or a
    length other than 2, is an InputError, never truncated or coerced."""
    try:
        a, b = x0  # a wrong length is a ValueError, a non-iterable a TypeError
    except (TypeError, ValueError) as exc:
        raise InputError(f"x0 must be a pair of ints, got {x0!r}") from exc
    return exact_int(a, "x0 coordinate"), exact_int(b, "x0 coordinate")


def _line_triples(lines):
    """Each line's first two points with each of its other points.  Under an
    injective map the images of a line are distinct, so they are collinear
    iff the images of every triple are."""
    return [(line[0], line[1], q) for line in lines for q in line[2:]]


@dataclass(frozen=True)
class DiagonalRigidityReport:
    p: int
    x0: Tuple[int, int]
    candidates: int
    survivors: Tuple[Tuple[Table, Table], ...]   # (f1 table, f2 table)
    identity_only: bool

    @property
    def ok(self) -> bool:
        return self.identity_only

    def to_json(self) -> dict:
        return _to_json(self, "ok")


def verify_diagonal_rigidity(p: int, n: int = 2,
                             x0: Tuple[int, int] = (1, 1),
                             max_p: int = 7) -> DiagonalRigidityReport:
    """Diagonal plane maps F(x) = (f1(x1), f2(x2)) with both scalars fixing
    0 and 1 that carry every line through the origin AND every line through
    x0 into lines: exhaustively, only the identity survives.

    x0 must be a nonzero 0/1 vector (the pinning point of the second pencil).
    """
    PrimeField(p)
    if n != 2:
        raise ResourceError("only the plane case n=2 is within the search guard")
    if p > max_p:
        raise ResourceError(f"((p-2)!)^2 enumeration guarded at p <= {max_p}")
    x0 = _pinning_point(x0)
    if x0 == (0, 0) or any(c not in (0, 1) for c in x0):
        raise InputError("x0 must be a nonzero 0/1 vector")
    # slot x holds f1(x) and slot p+y holds p+f2(y), so all values differ
    f_domains = [[0], [1]] + [range(2, p)] * (p - 2)
    domains = f_domains + [[p + v for v in dom] for dom in f_domains]
    # F is injective, so each line is checked as its triples, each as soon
    # as its own slots fill.  A triple lists the slots of its three points.
    triples = [tuple(s for x, y in tri for s in (x, p + y))
               for tri in _line_triples(_plane_pencil(p, (0, 0)) + _plane_pencil(p, x0))]
    # the p offsets of the f2 slots cancel in the differences
    found = _backtrack(domains, [(sorted(set(t)), t) for t in triples], lambda a, t: (
        (a[t[2]] - a[t[0]]) * (a[t[5]] - a[t[1]])
        - (a[t[3]] - a[t[1]]) * (a[t[4]] - a[t[0]])) % p == 0)
    survivors = tuple((a[:p], tuple(v - p for v in a[p:])) for a in found)
    ident = tuple(range(p))
    return DiagonalRigidityReport(p, x0, factorial(p - 2) ** 2, survivors,
                                  survivors == ((ident, ident),))


# ===========================================================================
# additive plane bijections are linear (and respect every pencil)
# ===========================================================================

@dataclass(frozen=True)
class AdditiveRigidityReport:
    p: int
    x0: Tuple[int, int]
    matrices_total: int
    bijections: int
    expected_bijections: int
    all_additive: bool
    all_lines_ok: bool

    @property
    def ok(self) -> bool:
        return (self.bijections == self.expected_bijections
                and self.all_additive and self.all_lines_ok)

    def to_json(self) -> dict:
        return _to_json(self, "ok")


def verify_additive_rigidity(p: int, n: int = 2,
                             x0: Tuple[int, int] = (0, 0),
                             max_p: int = 5) -> AdditiveRigidityReport:
    """Additive bijections of the plane over Z_p are exactly the invertible
    matrices (additivity forces linearity coordinate by coordinate), and all
    of them carry every line through x0 into a line — i.e. the pencil
    condition adds nothing over a prime field.  Verified by enumeration.
    """
    PrimeField(p)
    if n != 2:
        raise ResourceError("only the plane case n=2 is within the search guard")
    if p > max_p:
        raise ResourceError(f"matrix enumeration guarded at p <= {max_p}")
    x0 = tuple(c % p for c in _pinning_point(x0))
    # points as flat indices x*p + y, so i // p and i % p are its coordinates
    size = p * p
    add = [[(i // p + j // p) % p * p + (i + j) % p for j in range(size)] for i in range(size)]
    lines = {idx for d in _plane_directions(p) for _base, idx in _lines(p, 2, d)}
    pencil = sorted(line for line in lines if x0[0] * p + x0[1] in line)

    total = 0
    bijections = 0
    all_additive = True
    all_lines = True
    for m in itertools.product(range(p), repeat=4):
        total += 1
        det = (m[0] * m[3] - m[1] * m[2]) % p
        if det == 0:
            continue
        bijections += 1
        img = [(m[0] * x + m[1] * y) % p * p + (m[2] * x + m[3] * y) % p
               for x in range(p) for y in range(p)]
        if not _is_additive_image(img, add):
            all_additive = False
        # img is a bijection: the p images of a line lie on a line iff they are one
        if not all(tuple(sorted([img[i] for i in line])) in lines for line in pencil):
            all_lines = False
    expected = (p * p - 1) * (p * p - p)
    return AdditiveRigidityReport(p, x0, total, bijections, expected,
                                  all_additive, all_lines)


def _is_additive_image(img: Sequence[int], add: Sequence[Sequence[int]]) -> bool:
    """F(a+b) = F(a) + F(b) for every ordered pair of points, where F maps
    flat index i to img[i] and add[a][b] is the flat index of a+b.  Row a
    compares the images F(a+b) with the sums F(a) + F(b), for every b at once."""
    pick = itemgetter(*img)  # pick(row) = (row[img[0]], row[img[1]], ...)
    return all(itemgetter(*row)(img) == pick(add[img[a]]) for a, row in enumerate(add))
