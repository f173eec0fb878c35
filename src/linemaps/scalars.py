"""Exhaustive finite-field verification of the scalar-function rigidity
facts the classification arguments lean on: the additivity ratio criterion,
the structure of multiplicative injections of Z_p (power maps), the
shifted-multiplicativity characterizations of the identity, and the
rigidity of diagonal maps pinned at two line pencils.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial, gcd, isqrt
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from .exact import InputError, PrimeField, ResourceError, _to_json, _trusted, exact_int
from .grid import _affine_incidence, _backtrack, _charge

Table = Tuple[int, ...]

# the largest p of the two searches over (p-2)! scalars; the other lemmas
# are guarded by the node budget of linemaps.grid alone, which by itself
# would admit the ratio search up to p = 137
RATIO_MAX_P = 7
DIAGONAL_MAX_P = 7  # ((p-2)!)^2 pairs of scalars


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
    return _trusted(ScalarFunctionTable, PrimeField(p).p, tuple(range(p)))


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
    for rest in itertools.permutations(range(2, PrimeField(p).p)):
        yield _trusted(ScalarFunctionTable, p, (0, 1) + rest)


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


def ratio_criterion(p: int) -> RatioReport:
    """Among bijections fixing 0 and 1, those for which the quotient
    (f(a+b) - f(b)) / f(a) does not depend on a (for every b) are exactly
    the additive ones — checked over all (p-2)! candidates by the search
    kernel.  At b = 0 the quotient is 1; for b >= 1 it is f(1+b) - f(b) at
    a = 1, so f passes iff f(a+b) - f(b) = (f(1+b) - f(b)) f(a) for every
    a >= 2 and b >= 1, a constraint on the slots a, b, a+b and 1+b."""
    PrimeField(p)
    if p > RATIO_MAX_P:
        raise ResourceError(f"the ratio search guarded at p <= {RATIO_MAX_P}")
    sums = [(a, b, (a + b) % p, (1 + b) % p) for a in range(2, p) for b in range(1, p)]
    passing = tuple(_backtrack([[0], [1]] + [range(2, p)] * (p - 2), [(t, t) for t in sums],
                               lambda f, t: (f[t[2]] - f[t[1]]
                                             - (f[t[3]] - f[t[1]]) * f[t[0]]) % p == 0))
    # an additive f has f(a) = a f(1) = a: the identity is the one additive candidate
    return RatioReport(p, factorial(p - 2), passing,
                       all(is_additive(_trusted(ScalarFunctionTable, p, v)) for v in passing),
                       tuple(range(p)) in passing)


# ===========================================================================
# multiplicative injections and the shift-to-identity characterizations
# ===========================================================================

def _power_exponents(p: int) -> Tuple[int, ...]:
    """The k in 1..p-2 with gcd(k, p-1) = 1, phi(p-1) of them."""
    return tuple(k for k in range(1, p - 1) if gcd(k, p - 1) == 1)


def multiplicative_injections(p: int) -> List[ScalarFunctionTable]:
    """All multiplicative injections of Z_p: the power maps x -> x^k with
    gcd(k, p-1) = 1 (f(0)=0 and f(1)=1 are forced for any of them)."""
    PrimeField(p)
    return [_trusted(ScalarFunctionTable, p, tuple(pow(x, k, p) for x in range(p)))
            for k in _power_exponents(p)]


def _brute_force_multiplicative_injections(p: int) -> List[Table]:
    """Every bijection of Z_p with f(ab) = f(a)f(b), by the search kernel."""
    return _backtrack([range(p)] * p,
                      [((a, b, a * b % p),) * 2 for a in range(p) for b in range(a, p)],
                      lambda f, t: f[t[2]] == f[t[0]] * f[t[1]] % p)


@dataclass(frozen=True)
class MultRigidityReport:
    p: int
    exponents: Tuple[int, ...]
    brute_force_agrees: Optional[bool]       # None when the brute force passes the node budget
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


def verify_multiplicative_rigidity(p: int) -> MultRigidityReport:
    """Check, over all multiplicative injections f of Z_p, that the shifted
    function g(x) = f(x+1) - 1 (and its f(2)-normalized variant) is
    multiplicative only for f = identity.

    The power maps are cross-checked against a brute force over all
    permutations by the search kernel; when that search passes the node
    budget the cross-check is None.  The lemma's own pair checks,
    phi(p-1) p (p+1) at most (is_multiplicative reads p(p+1)/2 pairs of g and
    of g2 for each power map), are charged to the same budget before any map
    is built: every p up to 131 runs, and so do 139 and 151.
    """
    PrimeField(p)
    # phi(p-1) >= 1, so p(p+1) is charged first: a huge p lists no exponent
    _charge(p * (p + 1))
    exponents = _power_exponents(p)
    _charge(len(exponents) * p * (p + 1))
    candidates = multiplicative_injections(p)
    try:
        agrees: Optional[bool] = (sorted(f.values for f in candidates)
                                  == _brute_force_multiplicative_injections(p))
    except ResourceError:
        agrees = None

    ident = tuple(range(p))
    shifted_ok = True
    scaled_ok = True
    f2_one: List[Table] = []
    for f in candidates:
        v = f.values
        g = _trusted(ScalarFunctionTable, p, tuple((v[(x + 1) % p] - 1) % p for x in range(p)))
        if is_multiplicative(g) != (v == ident):
            shifted_ok = False
        if v[2] == 1:
            f2_one.append(v)
            continue
        s = pow(v[2] - 1, p - 2, p)
        g2 = _trusted(ScalarFunctionTable, p, tuple((v[(x + 1) % p] - 1) * s % p for x in range(p)))
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
                             x0: Tuple[int, int] = (1, 1)) -> DiagonalRigidityReport:
    """Diagonal plane maps F(x) = (f1(x1), f2(x2)) with both scalars fixing
    0 and 1 that carry every line through the origin AND every line through
    x0 into lines: exhaustively, only the identity survives.

    x0 must be a nonzero 0/1 vector (the pinning point of the second pencil).
    """
    PrimeField(p)
    if n != 2:
        raise ResourceError("only the plane case n=2 is within the search guard")
    x0 = _pinning_point(x0)
    if x0 == (0, 0) or any(c not in (0, 1) for c in x0):
        raise InputError("x0 must be a nonzero 0/1 vector")
    if p > DIAGONAL_MAX_P:
        raise ResourceError(f"((p-2)!)^2 enumeration guarded at p <= {DIAGONAL_MAX_P}")
    # slot x holds f1(x) and slot p+y holds p+f2(y), so all values differ
    f_domains = [[0], [1]] + [range(2, p)] * (p - 2)
    domains = f_domains + [[p + v for v in dom] for dom in f_domains]
    # F is injective, so each line is checked as its triples, each as soon
    # as its own slots fill.  A triple lists the slots of its three points,
    # point x*p + y at slots x and p+y
    pencils = _affine_incidence(p, 2).pencils
    triples = [tuple(s for i in tri for s in (i // p, p + i % p))
               for tri in _line_triples(pencils[0] + pencils[x0[0] * p + x0[1]])]
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
                             x0: Tuple[int, int] = (0, 0)) -> AdditiveRigidityReport:
    """Additive bijections of the plane over Z_p are exactly the invertible
    matrices (additivity forces linearity coordinate by coordinate), and all
    of them carry every line through x0 into a line — i.e. the pencil
    condition adds nothing over a prime field.  Verified by enumeration, its
    p^4 matrices times p^2 points charged to the search node budget first.
    """
    PrimeField(p)
    if n != 2:
        raise ResourceError("only the plane case n=2 is within the search guard")
    x0 = tuple(c % p for c in _pinning_point(x0))
    _charge(p ** 6)
    # points as flat indices x*p + y, so i // p and i % p are its coordinates
    size = p * p
    add = [[(i // p + j // p) % p * p + (i + j) % p for j in range(size)] for i in range(size)]
    plane = _affine_incidence(p, 2)
    pencil = plane.pencils[x0[0] * p + x0[1]]

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
        if not all(plane.is_line([img[i] for i in line]) for line in pencil):
            all_lines = False
    expected = (p * p - 1) * (p * p - p)
    return AdditiveRigidityReport(p, x0, total, bijections, expected,
                                  all_additive, all_lines)


def _is_additive_image(img: Sequence[int], add: Sequence[Sequence[int]]) -> bool:
    """F(x+e) = F(x) + F(e) for every point x and both generators e = e1, e2
    of (Z_p)^2, where F maps flat index i to img[i] and add[a][b] is the flat
    index of a+b.  That is every ordered pair's additivity: at x = 0 it gives
    F(0) = 0, and then F(x + a e1 + b e2) = F(x) + a F(e1) + b F(e2), so F is
    linear.  Row e compares the images F(x+e) with the sums F(x) + F(e), for
    every x at once."""
    pick = itemgetter(*img)  # pick(row) = (row[img[0]], row[img[1]], ...)
    p = isqrt(len(img))
    # e1 = (1, 0) has flat index p, e2 = (0, 1) index 1
    return all(itemgetter(*add[e])(img) == pick(add[img[e]]) for e in (p, 1))
