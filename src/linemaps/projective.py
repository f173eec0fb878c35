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
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .exact import (
    Field, InputError, InternalInconsistencyError, Matrix, PrimeField, ResourceError, Vector,
    _echelon, _reduced_rows, _to_json, _trusted, exact_int, identity_matrix, inverse,
    is_j_independent, mat_mul, mat_vec, normalize_coords, vector,
)
from .grid import (
    DEFAULT_POINT_BUDGET, FiniteMapTable, _Incidence, _direction_lines, _form_columns, grid_points,
    point_index,
)

Coords = Tuple[int, ...]


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
                 for tail in grid_points(p, n - i))


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

def _canonical_rows(field: Field, rows: Sequence[Vector]) -> Tuple[Vector, ...]:
    """A square matrix's rows scaled so that its first nonzero entry,
    row-major, is 1."""
    k = len(rows)
    flat = _scaled(field, [x for row in rows for x in row], "zero matrix")
    return tuple(flat[i:i + k] for i in range(0, len(flat), k))


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
        rows = _canonical_rows(F, m.rows)
        if len(_echelon(F, rows)) != k:
            raise InputError("matrix must be invertible")
        object.__setattr__(self, "matrix", _trusted(Matrix, F, rows))

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
    return _trusted(Matrix, field, tuple(tuple([field.convert(lam[j] * lifts[j][i])
                                                for j in range(k)]) for i in range(k)))


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


def _image_blocks(rows: Sequence[Coords], p: int) -> Iterator[Tuple[Coords, ...]]:
    """The images under the matrix rows (residues mod p) of the points of
    PG(n,p), normalized, in canonical order one block at a time.  Block i
    holds the points (0,)*i + (1,) + tail, i from n down to 0, and is built
    column by column: lift coordinate r is row[i] + sum_k row[i+1+k]*t_k over
    the tails t in lexicographic order, all n+1 columns from one call of the
    grid's form-column builder.  Each lift is then scaled by the inverse of
    its first nonzero entry, found as the first nonzero residue across the
    columns."""
    inverses = [0] + [pow(a, p - 2, p) for a in range(1, p)]
    for i in range(len(rows) - 1, -1, -1):
        columns = _form_columns(p, [row[i + 1:] for row in rows], [row[i] for row in rows])
        pivots = columns[0]
        for column in columns[1:]:
            pivots = [a or b for a, b in zip(pivots, column)]
        scale = [inverses[a] for a in pivots]
        yield tuple(zip(*[[x * s % p for x, s in zip(column, scale)] for column in columns]))


def proj_table_from_map(m: ProjLinearMap, p: int) -> ProjTable:
    if m.field != PrimeField(p):
        raise InputError("map is not over Z_p")
    if m.dim < 1:  # a 1x1 matrix: PG(0,p) is one point
        raise InputError("need n >= 1 and (p^(n+1)-1)/(p-1) values, got n = 0, 1 values")
    pg_points(p, m.dim)  # the point budget, before any column is built
    values = tuple(itertools.chain.from_iterable(_image_blocks(m.matrix.rows, p)))
    return _trusted(ProjTable, p, m.dim, values)


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
def _incidence(p: int, n: int) -> _Incidence:
    """PG(n,p) on the indices into pg_points, each pencil sorted.  Block i,
    the points (0,)*i + (1,) + x, is a copy of (Z_p)^(n-i) at the ids
    start[i] + flat(x).  Each line is built once, from b, its point of the
    highest block j, and the block i < j of its other p points: they are a
    line of block i in the direction b[i+1:], closed by b.  With j and b
    running up the ids and i down, the lines come sorted.  More than
    DEFAULT_POINT_BUDGET incidences raise ResourceError."""
    size = len(pg_points(p, n))
    if size * ((p ** n - 1) // (p - 1)) > DEFAULT_POINT_BUDGET:
        raise ResourceError(
            f"PG({n},{p}) has more than {DEFAULT_POINT_BUDGET} point-line incidences")
    start = [(p ** (n - i) - 1) // (p - 1) for i in range(n + 1)]

    def lines() -> Iterator[Tuple[int, ...]]:
        for j in range(n, 0, -1):
            for b, b_tail in enumerate(grid_points(p, n - j), start[j]):
                for i in range(j - 1, -1, -1):
                    d = (0,) * (j - i - 1) + (1,) + b_tail
                    for _base, idx in _direction_lines(p, n - i, d):
                        yield (b,) + tuple([start[i] + x for x in idx])
    return _Incidence(size, lines())


def lines_through(point, p: int, n: int) -> List[Tuple[Coords, ...]]:
    """All (p^n - 1)/(p - 1) projective lines through the point, each as a
    sorted tuple of p+1 normalized coordinate tuples."""
    pts, pencil = pg_points(p, n), _incidence(p, n).pencils[_point_id(point, p, n)]
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
    incidence = _incidence(p, n)
    pts, index = pg_points(p, n), _pg_index(p, n)
    image = [index[v] for v in table.values]
    violations: List[ProjViolation] = []
    for anchor in anchors:
        a = _point_id(anchor, p, n)
        for line in incidence.pencils[a]:
            if not incidence.is_line([image[x] for x in line]):
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
    candidate.  Its images are built one block of points at a time, and the
    first block that disagrees with the table ends the comparison.  Its
    columns are the lifts scaled by nonzero frame weights, so it is
    invertible: the map is scaled canonically without a second elimination.
    """
    if not table.is_injective():
        raise InputError("decision procedure needs an injective table")
    p, n, values = table.p, table.n, table.values
    gf, index = PrimeField(p), _pg_index(p, n)
    frame = [tuple([int(i == j) for i in range(n + 1)]) for j in range(n + 1)]
    candidate = _frame_matrix(gf, [values[index[c]] for c in frame + [(1,) * (n + 1)]])
    if candidate is None:
        return None
    start = 0
    for block in _image_blocks(candidate.rows, p):
        if block != values[start:start + len(block)]:
            return None
        start += len(block)
    return _trusted(ProjLinearMap, _trusted(Matrix, gf, _canonical_rows(gf, candidate.rows)))


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
    return _trusted(ProjTable, p, n, tuple(values))
