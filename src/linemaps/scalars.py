"""Exhaustive finite-field verification of the scalar-function rigidity
facts the classification arguments lean on: the additivity ratio criterion,
the structure of multiplicative injections of Z_p (power maps), the
shifted-multiplicativity characterizations of the identity, and the
rigidity of diagonal maps pinned at two line pencils.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Optional, Tuple

from .collineations import points_collinear
from .exact import InputError, PrimeField, ResourceError

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
                           tuple(int(v) % self.p for v in self.values))

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


def additive_scalar_bijections(p: int) -> List[ScalarFunctionTable]:
    """All additive bijections of Z_p.  Additivity forces f(x) = x*f(1)
    (iterated addition of 1), so enumerating the value at 1 is complete;
    each candidate is still checked against the definition."""
    out = []
    for c in range(1, p):
        f = ScalarFunctionTable(p, tuple(c * x % p for x in range(p)))
        if not is_additive(f):
            raise InputError("scaling map unexpectedly failed additivity")
        out.append(f)
    return out


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
        return {"p": self.p, "candidates": self.candidates,
                "passing": [list(t) for t in self.passing],
                "passing_all_additive": self.passing_all_additive,
                "additive_all_passing": self.additive_all_passing,
                "ok": self.ok}


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
    return [perm for perm in itertools.permutations(range(p))
            if is_multiplicative(ScalarFunctionTable(p, perm))]


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
        return {"p": self.p, "exponents": list(self.exponents),
                "brute_force_agrees": self.brute_force_agrees,
                "shifted_identity_only": self.shifted_identity_only,
                "scaled_identity_only": self.scaled_identity_only,
                "f2_equal_one": [list(t) for t in self.f2_equal_one],
                "ok": self.ok}


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

def _plane_directions(p: int) -> List[Tuple[int, int]]:
    return [(1, t) for t in range(p)] + [(0, 1)]


def _line_through(p: int, c: Tuple[int, int], d: Tuple[int, int]) -> List[Tuple[int, int]]:
    return [((c[0] + s * d[0]) % p, (c[1] + s * d[1]) % p) for s in range(p)]


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
        return {"p": self.p, "x0": list(self.x0), "candidates": self.candidates,
                "survivors": [[list(a), list(b)] for a, b in self.survivors],
                "identity_only": self.identity_only, "ok": self.ok}


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
    if tuple(x0) == (0, 0) or any(c not in (0, 1) for c in x0):
        raise InputError("x0 must be a nonzero 0/1 vector")
    x0 = (int(x0[0]), int(x0[1]))
    pencils = []
    for c in ((0, 0), x0):
        for d in _plane_directions(p):
            pencils.append(_line_through(p, c, d))

    ident = tuple(range(p))
    survivors: List[Tuple[Table, Table]] = []
    count = 0
    for f1 in bijections_fixing_0_1(p):
        for f2 in bijections_fixing_0_1(p):
            count += 1
            v1, v2 = f1.values, f2.values
            if all(points_collinear(
                    p, [(v1[x], v2[y]) for (x, y) in line]) for line in pencils):
                survivors.append((v1, v2))
    identity_only = survivors == [(ident, ident)]
    return DiagonalRigidityReport(p, x0, count, tuple(survivors), identity_only)


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
        return {"p": self.p, "x0": list(self.x0),
                "matrices_total": self.matrices_total,
                "bijections": self.bijections,
                "expected_bijections": self.expected_bijections,
                "all_additive": self.all_additive,
                "all_lines_ok": self.all_lines_ok, "ok": self.ok}


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
    x0 = (int(x0[0]) % p, int(x0[1]) % p)
    pencil = [_line_through(p, x0, d) for d in _plane_directions(p)]

    total = 0
    bijections = 0
    all_additive = True
    all_lines = True
    points = [(a, b) for a in range(p) for b in range(p)]
    for m in itertools.product(range(p), repeat=4):
        total += 1
        det = (m[0] * m[3] - m[1] * m[2]) % p
        if det == 0:
            continue
        bijections += 1

        def apply(v):
            return ((m[0] * v[0] + m[1] * v[1]) % p,
                    (m[2] * v[0] + m[3] * v[1]) % p)

        for a in points:
            for b in points:
                s = ((a[0] + b[0]) % p, (a[1] + b[1]) % p)
                fa, fb = apply(a), apply(b)
                if apply(s) != ((fa[0] + fb[0]) % p, (fa[1] + fb[1]) % p):
                    all_additive = False
        if not all(points_collinear(p, [apply(x) for x in line])
                   for line in pencil):
            all_lines = False
    expected = (p * p - 1) * (p * p - p)
    return AdditiveRigidityReport(p, x0, total, bijections, expected,
                                  all_additive, all_lines)
