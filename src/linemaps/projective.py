"""Projective space over exact fields: homogeneous points, general position,
the unique projective-linear map through n+2 generic point pairs, line
pencils through a point in PG(n,p), and the decision procedure telling
whether an injective self-map of PG(n,p) is induced by an invertible matrix.

Affine space sits inside via x -> [x : 1] (the extra coordinate last); the
complement is the frontier hyperplane (last homogeneous coordinate zero).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import mul, ne
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .exact import (
    Field, InputError, InternalInconsistencyError, Matrix, PrimeField, ResourceError, Vector,
    _reduced_rows, _to_json, exact_int, identity_matrix, inverse, is_j_independent,
    mat_mul, mat_vec, normalize_coords, rank_of_vectors, vector,
)
from .grid import DEFAULT_POINT_BUDGET, FiniteMapTable, point_index

Coords = Tuple[int, ...]
Line = Tuple[int, ...]  # the sorted indices into pg_points of a line's points


# ===========================================================================
# points
# ===========================================================================

def _scaled(field: Field, entries: Sequence, zero_message: str) -> Tuple:
    """The entries scaled so that the first nonzero one is 1 (over any field)."""
    pivot = next((x for x in entries if not field.is_zero(x)), None)
    if pivot is None:
        raise InputError(zero_message)
    inv = field.inv(pivot)
    return tuple([field.convert(inv * x) for x in entries])


@dataclass(frozen=True)
class ProjPoint:
    """Homogeneous coordinates, canonically scaled: first nonzero entry = 1."""

    field: Field
    coords: Vector

    def __post_init__(self):
        c = vector(self.field, self.coords)
        if len(c) < 2:
            raise InputError("projective points need at least 2 homogeneous coordinates")
        object.__setattr__(self, "coords", _scaled(
            self.field, c, "homogeneous coordinates must not all vanish"))

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    def __lt__(self, other: "ProjPoint") -> bool:
        return self.coords < other.coords


def proj_point(field: Field, coords: Sequence) -> ProjPoint:
    return ProjPoint(field, tuple(coords))


@lru_cache(maxsize=None)
def pg_points(p: int, n: int) -> Tuple[Coords, ...]:
    """All points of PG(n,p) as normalized tuples (zeros, a leading 1, any tail),
    lexicographically sorted — the canonical order used by tables.  A space of
    more than DEFAULT_POINT_BUDGET points raises ResourceError."""
    PrimeField(p)
    # the count passes p^n > 2^n, so past the budget's bit length no power is built
    if (n >= DEFAULT_POINT_BUDGET.bit_length()
            or (p ** (n + 1) - 1) // (p - 1) > DEFAULT_POINT_BUDGET):
        raise ResourceError(f"PG({n},{p}) has more than {DEFAULT_POINT_BUDGET} points")
    return tuple((0,) * i + (1,) + tail for i in range(n, -1, -1)
                 for tail in itertools.product(range(p), repeat=n - i))


@lru_cache(maxsize=None)
def _pg_index(p: int, n: int) -> Dict[Coords, int]:
    return {c: i for i, c in enumerate(pg_points(p, n))}


def _point_id(point, p: int, n: int) -> int:
    """The index of a point of PG(n,p), given as exact int coordinates in any
    representative or as a ProjPoint over GF(p)."""
    if isinstance(point, ProjPoint):
        if not isinstance(point.field, PrimeField) or point.field.p != p:
            raise InputError(f"a point over {point.field} is not a point of PG({n},{p})")
        point = point.coords
    idx = _pg_index(p, n).get(normalize_coords(p, point))
    if idx is None:
        raise InputError("point not in PG(n,p)")
    return idx


# ===========================================================================
# projective-linear maps
# ===========================================================================

@dataclass(frozen=True)
class ProjLinearMap:
    """The class of an invertible matrix modulo scalars, canonically scaled
    so the first nonzero entry (row-major) equals 1."""

    matrix: Matrix

    def __post_init__(self):
        m = self.matrix
        if m.nrows != m.ncols:
            raise InputError("projective-linear maps need a square matrix")
        F, k = m.field, m.ncols
        flat = _scaled(F, [x for row in m.rows for x in row], "zero matrix")
        scaled = Matrix(F, tuple(flat[i:i + k] for i in range(0, len(flat), k)))
        if rank_of_vectors(F, scaled.rows) != m.nrows:
            raise InputError("matrix must be invertible")
        object.__setattr__(self, "matrix", scaled)

    @property
    def field(self) -> Field:
        return self.matrix.field

    @property
    def dim(self) -> int:
        return self.matrix.nrows - 1

    def apply(self, point: ProjPoint) -> ProjPoint:
        if len(point.coords) != self.matrix.ncols:
            raise InputError("dimension mismatch")
        return ProjPoint(self.field, mat_vec(self.matrix, point.coords))


def proj_identity(field: Field, n: int) -> ProjLinearMap:
    return ProjLinearMap(identity_matrix(field, n + 1))


# ===========================================================================
# general position and frame correspondences
# ===========================================================================

def proj_general_position(points: Sequence[ProjPoint]) -> bool:
    """Every k <= n+1 of the lifts linearly independent.  It suffices to test
    subsets of size min(n+1, #points): dependence always persists upward."""
    if not points:
        return True
    F, d = points[0].field, points[0].dim
    if any(pt.field != F or pt.dim != d for pt in points):
        raise InputError("points live in different projective spaces")
    return is_j_independent(F, [pt.coords for pt in points], min(d + 1, len(points)))


def _frame_weights(field: Field, lifts: Sequence[Vector]) -> Optional[Vector]:
    """The w with lifts[n+1] = sum w_j lifts[j] (j <= n) for n+2 lifts in
    dimension n+1, or None when they are not a frame.  The one elimination is
    the test: rank n+1 and a weight in every RREF row, which fails on a free
    column, on a pivot in the last one, and on a zero w_j."""
    k = len(lifts) - 1
    reduced = _reduced_rows(field, list(zip(*lifts)))
    if len(reduced) != k or any(k not in row for _, row in reduced):
        return None
    return tuple(row[k] for _, row in reduced)


def _frame_matrix(field: Field, lifts: Sequence[Vector]) -> Optional[Matrix]:
    """The matrix sending the standard frame e_0, ..., e_n, e_0 + ... + e_n
    onto the n+2 lifts (its columns are the first n+1 lifts scaled by their
    frame weights), or None when the lifts are not a frame."""
    lam = _frame_weights(field, lifts)
    if lam is None:
        return None
    k = len(lam)
    return Matrix(field, tuple(tuple([field.convert(lam[j] * lifts[j][i]) for j in range(k)])
                               for i in range(k)))


def transform_from_correspondence(src: Sequence[ProjPoint],
                                  dst: Sequence[ProjPoint]) -> ProjLinearMap:
    """The unique projective-linear map with src_i -> dst_i for n+2 points in
    general position on both sides.

    The classical construction: the frame matrix of each side sends the
    standard frame onto it, so the map is the destination's frame matrix
    after the inverse of the source's.  The result is verified on all n+2
    pairs before being returned.
    """
    if not src or len(src) != len(dst):
        raise InputError("need matching nonempty point lists")
    F, n = src[0].field, src[0].dim
    if len(src) != n + 2:
        raise InputError(f"need n+2 = {n + 2} point pairs")
    if any(pt.field != F or pt.dim != n for pt in itertools.chain(src, dst)):
        raise InputError("points live in different projective spaces")
    to_src, to_dst = (_frame_matrix(F, [pt.coords for pt in points]) for points in (src, dst))
    if to_src is None or to_dst is None:
        raise InputError("both frames must be in general position")
    m = ProjLinearMap(mat_mul(to_dst, inverse(to_src)))
    for a, b in zip(src, dst):
        if m.apply(a) != b:
            raise InternalInconsistencyError("constructed map misses a frame pair")
    return m


# ===========================================================================
# tables of self-maps of PG(n,p)
# ===========================================================================

@dataclass(frozen=True)
class ProjTable:
    """Values of a self-map of PG(n,p), aligned with the canonical order."""

    p: int
    n: int
    values: Tuple[Coords, ...]

    def __post_init__(self):
        p, n, k = self.p, self.n, len(self.values)
        PrimeField(p)
        # counted before any point is built, and as in FiniteMapTable before any huge power
        if not 1 <= n <= k.bit_length() or k != (p ** (n + 1) - 1) // (p - 1):
            raise InputError(f"need n >= 1 and (p^(n+1)-1)/(p-1) values, got n = {n}, {k} values")
        vals = []
        for v in self.values:
            if len(v) != self.n + 1:
                raise InputError(f"table value {v!r} does not have n+1 = {self.n + 1} coordinates")
            vals.append(normalize_coords(self.p, v))
        object.__setattr__(self, "values", tuple(vals))

    def apply(self, point) -> Coords:
        return self.values[_point_id(point, self.p, self.n)]

    def is_injective(self) -> bool:
        return len(set(self.values)) == len(self.values)


def _images(m: ProjLinearMap, p: int) -> Iterator[Coords]:
    """The image of each point of PG(n,p) in canonical order, by integer row products."""
    rows = m.matrix.rows
    for c in pg_points(p, m.dim):
        yield normalize_coords(p, [sum(map(mul, row, c)) for row in rows])


def proj_table_from_map(m: ProjLinearMap, p: int) -> ProjTable:
    if not isinstance(m.field, PrimeField) or m.field.p != p:
        raise InputError("map is not over Z_p")
    return ProjTable(p, m.dim, tuple(_images(m, p)))


def proj_table_to_json(table: ProjTable) -> dict:
    return _to_json(table)


def proj_table_from_json(obj: dict) -> ProjTable:
    try:
        return ProjTable(exact_int(obj["p"], "p"), exact_int(obj["n"], "n"),
                         tuple(tuple(v) for v in obj["values"]))
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad projective table JSON: {exc}") from exc


# ===========================================================================
# lines and the hypothesis checks
# ===========================================================================

@lru_cache(maxsize=None)
def _incidence(p: int, n: int) -> Tuple[FrozenSet[Line], Tuple[Tuple[Line, ...], ...]]:
    """The lines of PG(n,p), and each point's pencil: its lines, sorted.
    Each line is built once, from its reduced basis: b has its leading 1 at
    column j, and a = head + (0,) + tail for a point head of PG(j-1,p).  b and
    the a + t*b are normalized already and in sorted order, so nothing is
    normalized or deduplicated; with j running down, the lines come sorted.
    More than DEFAULT_POINT_BUDGET incidences raise ResourceError."""
    index = _pg_index(p, n)
    if len(index) * ((p ** n - 1) // (p - 1)) > DEFAULT_POINT_BUDGET:
        raise ResourceError(
            f"PG({n},{p}) has more than {DEFAULT_POINT_BUDGET} point-line incidences")
    pencils: List[List[Line]] = [[] for _ in index]
    for j in range(n, 0, -1):
        for b_tail in itertools.product(range(p), repeat=n - j):
            b = index[(0,) * j + (1,) + b_tail]
            for head in pg_points(p, j - 1):
                for tail in itertools.product(range(p), repeat=n - j):
                    line = (b,) + tuple(
                        index[head + (t,) + tuple([(x + t * y) % p for x, y in zip(tail, b_tail)])]
                        for t in range(p))
                    for x in line:
                        pencils[x].append(line)
    return (frozenset(line for pencil in pencils for line in pencil),
            tuple(map(tuple, pencils)))


def lines_through(point, p: int, n: int) -> List[Tuple[Coords, ...]]:
    """All (p^n - 1)/(p - 1) projective lines through the point, each as a
    sorted tuple of p+1 normalized coordinate tuples."""
    pts, pencil = pg_points(p, n), _incidence(p, n)[1][_point_id(point, p, n)]
    return [tuple(pts[x] for x in line) for line in pencil]


@dataclass(frozen=True)
class ProjViolation:
    anchor: Coords
    line: Tuple[Coords, ...]
    reason: str  # "not-a-line"


@dataclass(frozen=True)
class ProjReport:
    ok: bool
    violations: Tuple[ProjViolation, ...]

    def to_json(self) -> dict:
        return _to_json(self)


def check_projective_hypotheses(table: ProjTable, anchors: Sequence) -> ProjReport:
    """Every projective line through every anchor maps onto a projective line.
    The table is injective, so the p+1 images of a line lie on a line only if
    they are that whole line: into and onto agree."""
    if not table.is_injective():
        raise InputError("hypothesis check needs an injective table")
    p, n = table.p, table.n
    lines, pencils = _incidence(p, n)
    pts, index = pg_points(p, n), _pg_index(p, n)
    image = [index[v] for v in table.values]
    violations: List[ProjViolation] = []
    for anchor in anchors:
        a = _point_id(anchor, p, n)
        for line in pencils[a]:
            if tuple(sorted([image[x] for x in line])) not in lines:
                violations.append(ProjViolation(
                    pts[a], tuple(pts[x] for x in line), "not-a-line"))
    return ProjReport(not violations, tuple(violations))


# ===========================================================================
# the decision procedure
# ===========================================================================

def decide_projective_linear(table: ProjTable) -> Optional[ProjLinearMap]:
    """If the table is induced by an invertible matrix, return that map;
    otherwise return None.

    A projective-linear map sends every frame onto a frame, and the map
    through a frame is unique, so the images of the standard frame
    e_0, ..., e_n, e_0 + ... + e_n decide: when they are not a frame no such
    map agrees with the table, and otherwise their frame matrix is the one
    candidate, compared with the table at every point.
    """
    if not table.is_injective():
        raise InputError("decision procedure needs an injective table")
    p, n = table.p, table.n
    gf, index, values = PrimeField(p), _pg_index(p, n), table.values
    frame = identity_matrix(gf, n + 1).rows + ((1,) * (n + 1),)
    candidate = _frame_matrix(gf, [values[index[c]] for c in frame])
    if candidate is None:
        return None
    m = ProjLinearMap(candidate)
    # the first point where the map and the table disagree ends the comparison
    if any(map(ne, _images(m, p), values)):
        return None
    return m


# ===========================================================================
# the affine copy inside projective space
# ===========================================================================

def split(point: ProjPoint):
    """Invert the affine embedding: ("affine", x) when the last homogeneous
    coordinate is nonzero, else ("frontier", the point of the hyperplane at
    infinity, one dimension down)."""
    F = point.field
    last = point.coords[-1]
    if F.is_zero(last):
        return "frontier", ProjPoint(F, point.coords[:-1])
    inv = F.inv(last)
    return "affine", tuple([F.convert(inv * c) for c in point.coords[:-1]])


def embed_affine_table(table) -> ProjTable:
    """Extend a finite affine self-map table to PG(n,p) by acting as the
    identity on the frontier hyperplane."""
    if not isinstance(table, FiniteMapTable):
        raise InputError("need a finite map table")
    if table.m != table.n:
        raise InputError("only self-maps extend to the same projective space")
    p, n = table.p, table.n
    values = []
    for c in pg_points(p, n):
        if c[-1] == 0:
            values.append(c)
        else:
            # normalized c with last coordinate nonzero: last coordinate may
            # be any unit, so rescale to reach the affine chart first
            inv = pow(c[-1], p - 2, p)
            x = tuple(v * inv % p for v in c[:-1])
            values.append(normalize_coords(p, table.values[point_index(p, x)] + (1,)))
    return ProjTable(p, n, tuple(values))
