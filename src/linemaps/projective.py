"""Projective space over exact fields: homogeneous points, general position,
the unique projective-linear map through n+2 generic point pairs, line
pencils through a point in PG(n,p), and the decision procedure telling
whether an injective self-map of PG(n,p) is induced by an invertible matrix.

Affine space sits inside via x -> [x : 1] (the extra coordinate last); the
complement is the frontier hyperplane (last homogeneous coordinate zero).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .exact import (
    Field, InputError, InternalInconsistencyError, Matrix, PrimeField, QQ,
    Vector, identity_matrix, inverse, is_j_independent, mat_mul, mat_vec,
    normalize_coords, rank_of_vectors, solve, vector,
)

Coords = Tuple[int, ...]


class UndecidableByFrame(RuntimeError):
    """No generic frame with generic images exists, so the frame-based
    decision procedure cannot even produce a candidate."""


# ===========================================================================
# points
# ===========================================================================

@dataclass(frozen=True)
class ProjPoint:
    """Homogeneous coordinates, canonically scaled: first nonzero entry = 1."""

    field: Field
    coords: Vector

    def __post_init__(self):
        c = vector(self.field, self.coords)
        if len(c) < 2:
            raise InputError("projective points need at least 2 homogeneous coordinates")
        pivot = next((x for x in c if not self.field.is_zero(x)), None)
        if pivot is None:
            raise InputError("homogeneous coordinates must not all vanish")
        inv = self.field.inv(pivot)
        object.__setattr__(self, "coords",
                           tuple(self.field.mul(inv, x) for x in c))

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    def __lt__(self, other: "ProjPoint") -> bool:
        return self.coords < other.coords


def proj_point(field: Field, coords: Sequence) -> ProjPoint:
    return ProjPoint(field, tuple(coords))


@lru_cache(maxsize=None)
def pg_points(p: int, n: int) -> Tuple[Coords, ...]:
    """All points of PG(n,p) as normalized tuples, lexicographically sorted —
    the canonical order used by tables."""
    PrimeField(p)
    pts = {normalize_coords(p, raw)
           for raw in itertools.product(range(p), repeat=n + 1) if any(raw)}
    out = tuple(sorted(pts))
    expected = (p ** (n + 1) - 1) // (p - 1)
    if len(out) != expected:
        raise InternalInconsistencyError("point count of PG(n,p) is off")
    return out


@lru_cache(maxsize=None)
def _pg_index(p: int, n: int) -> Dict[Coords, int]:
    return {c: i for i, c in enumerate(pg_points(p, n))}


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
        F = m.field
        pivot = next((x for row in m.rows for x in row if not F.is_zero(x)), None)
        if pivot is None:
            raise InputError("zero matrix")
        inv = F.inv(pivot)
        scaled = Matrix(F, tuple(tuple(F.mul(inv, x) for x in row) for row in m.rows))
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


def compose_proj(outer: ProjLinearMap, inner: ProjLinearMap) -> ProjLinearMap:
    return ProjLinearMap(mat_mul(outer.matrix, inner.matrix))


def invert_proj(m: ProjLinearMap) -> ProjLinearMap:
    return ProjLinearMap(inverse(m.matrix))


def affine_to_projective(matrix: Matrix, offset: Vector) -> ProjLinearMap:
    """x -> Ax + b lifted to homogeneous coordinates: the block matrix
    (A b; 0 1) acting on [x : 1]."""
    F = matrix.field
    if matrix.nrows != matrix.ncols or len(offset) != matrix.nrows:
        raise InputError("need a square matrix and a matching offset")
    off = vector(F, offset)
    rows = [row + (off[i],) for i, row in enumerate(matrix.rows)]
    rows.append(tuple([F.zero()] * matrix.ncols + [F.one()]))
    return ProjLinearMap(Matrix(F, tuple(rows)))


# ===========================================================================
# general position and frame correspondences
# ===========================================================================

def proj_general_position(points: Sequence[ProjPoint]) -> bool:
    """Every k <= n+1 of the lifts linearly independent.  It suffices to test
    subsets of size min(n+1, #points): dependence always persists upward."""
    if not points:
        return True
    F = points[0].field
    d = points[0].dim
    for pt in points:
        if pt.field != F or pt.dim != d:
            raise InputError("points live in different projective spaces")
    lifts = [pt.coords for pt in points]
    j = min(d + 1, len(lifts))
    return is_j_independent(F, lifts, j)


def transform_from_correspondence(src: Sequence[ProjPoint],
                                  dst: Sequence[ProjPoint]) -> ProjLinearMap:
    """The unique projective-linear map with src_i -> dst_i for n+2 points in
    general position on both sides.

    The classical construction: write the last source lift as a combination
    of the first n+1, scale those columns by the combination weights (all
    nonzero by genericity) so the standard frame goes to the scaled columns,
    do the same on the destination side, and compose.  The result is verified
    on all n+2 pairs before being returned.
    """
    if not src or len(src) != len(dst):
        raise InputError("need matching nonempty point lists")
    F = src[0].field
    n = src[0].dim
    if len(src) != n + 2:
        raise InputError(f"need n+2 = {n + 2} point pairs")
    if not proj_general_position(src) or not proj_general_position(dst):
        raise InputError("both frames must be in general position")

    def frame_matrix(points: Sequence[ProjPoint]) -> Matrix:
        cols = Matrix(F, tuple(tuple(points[j].coords[i] for j in range(n + 1))
                               for i in range(n + 1)))
        lam = solve(cols, points[n + 1].coords)
        if lam is None or any(F.is_zero(c) for c in lam):
            raise InternalInconsistencyError(
                "frame weights vanished despite general position")
        return Matrix(F, tuple(tuple(F.mul(lam[j], row[j]) for j in range(n + 1))
                               for row in cols.rows))

    m = ProjLinearMap(mat_mul(frame_matrix(dst), inverse(frame_matrix(src))))
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
        pts = pg_points(self.p, self.n)
        if len(self.values) != len(pts):
            raise InputError(f"expected {len(pts)} values")
        vals = []
        for v in self.values:
            if len(v) != self.n + 1:
                raise InputError(f"table value {v!r} does not have n+1 = {self.n + 1} coordinates")
            vals.append(normalize_coords(self.p, v))
        object.__setattr__(self, "values", tuple(vals))

    def apply(self, point) -> Coords:
        coords = point.coords if isinstance(point, ProjPoint) else point
        idx = _pg_index(self.p, self.n).get(normalize_coords(self.p, coords))
        if idx is None:
            raise InputError("point not in PG(n,p)")
        return self.values[idx]

    def is_injective(self) -> bool:
        return len(set(self.values)) == len(self.values)


def proj_table_from_map(m: ProjLinearMap, p: int) -> ProjTable:
    if not isinstance(m.field, PrimeField) or m.field.p != p:
        raise InputError("map is not over Z_p")
    n = m.dim
    values = tuple(m.apply(ProjPoint(m.field, c)).coords for c in pg_points(p, n))
    return ProjTable(p, n, values)


def proj_table_to_json(table: ProjTable) -> dict:
    return {"p": table.p, "n": table.n, "values": [list(v) for v in table.values]}


def proj_table_from_json(obj: dict) -> ProjTable:
    try:
        return ProjTable(int(obj["p"]), int(obj["n"]),
                         tuple(tuple(v) for v in obj["values"]))
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad projective table JSON: {exc}") from exc


def load_proj_table(path: str) -> ProjTable:
    with open(path) as fh:
        return proj_table_from_json(json.load(fh))


# ===========================================================================
# lines and the hypothesis checks
# ===========================================================================

@lru_cache(maxsize=None)
def _all_lines(p: int, n: int) -> Tuple[Tuple[Coords, ...], ...]:
    pts = pg_points(p, n)
    seen = set()
    lines = []
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            line = {b}
            for t in range(p):
                line.add(normalize_coords(p, tuple(a[k] + t * b[k] for k in range(n + 1))))
            key = tuple(sorted(line))
            if key not in seen:
                seen.add(key)
                lines.append(key)
    return tuple(sorted(lines))


def lines_through(point, p: int, n: int) -> List[Tuple[Coords, ...]]:
    """All (p^n - 1)/(p - 1) projective lines through the point, each as a
    sorted tuple of p+1 normalized coordinate tuples."""
    coords = point.coords if isinstance(point, ProjPoint) else point
    coords = normalize_coords(p, coords)
    if len(coords) != n + 1:
        raise InputError("point dimension mismatch")
    out = [line for line in _all_lines(p, n) if coords in line]
    expected = (p ** n - 1) // (p - 1)
    if len(out) != expected:
        raise InternalInconsistencyError("pencil size through a point is off")
    return out


def _images_on_a_line(p: int, images: Sequence[Coords]) -> bool:
    return rank_of_vectors(PrimeField(p), list(images)) <= 2


@dataclass(frozen=True)
class ProjViolation:
    anchor: Coords
    line: Tuple[Coords, ...]
    reason: str  # "not-a-line" | "not-onto"


@dataclass(frozen=True)
class ProjReport:
    ok: bool
    violations: Tuple[ProjViolation, ...]

    def to_json(self) -> dict:
        return {"ok": self.ok,
                "violations": [{"anchor": list(v.anchor),
                                "line": [list(c) for c in v.line],
                                "reason": v.reason} for v in self.violations]}


def check_projective_hypotheses(table: ProjTable, anchors: Sequence,
                                mode: str = "onto") -> ProjReport:
    """Every projective line through every anchor maps into (or onto) a
    projective line."""
    if mode not in ("into", "onto"):
        raise InputError(f"mode must be 'into' or 'onto', got {mode!r}")
    if not table.is_injective():
        raise InputError("hypothesis check needs an injective table")
    p, n = table.p, table.n
    violations: List[ProjViolation] = []
    for anchor in anchors:
        coords = anchor.coords if isinstance(anchor, ProjPoint) else anchor
        coords = normalize_coords(p, coords)
        for line in lines_through(coords, p, n):
            images = sorted(set(table.apply(x) for x in line))
            if not _images_on_a_line(p, images):
                violations.append(ProjViolation(coords, line, "not-a-line"))
            elif mode == "onto" and len(images) < p + 1:
                violations.append(ProjViolation(coords, line, "not-onto"))
    return ProjReport(not violations, tuple(violations))


# ===========================================================================
# the decision procedure
# ===========================================================================

def decide_projective_linear(table: ProjTable) -> Optional[ProjLinearMap]:
    """If the table is induced by an invertible matrix, return that map;
    otherwise return None.

    A candidate is built from the lexicographically first generic
    (n+2)-tuple of points whose images are also generic, then compared with
    the table at every point — so a returned map is correct by construction,
    and None means no projective-linear map can agree with the table.
    """
    if not table.is_injective():
        raise InputError("decision procedure needs an injective table")
    p, n = table.p, table.n
    gf = PrimeField(p)
    pts = pg_points(p, n)

    def generic(prefix: List[Coords], extra: Coords) -> bool:
        lifts = prefix + [extra]
        if len(lifts) <= n + 1:
            return rank_of_vectors(gf, lifts) == len(lifts)
        for subset in itertools.combinations(lifts[:-1], n):
            if rank_of_vectors(gf, list(subset) + [extra]) != n + 1:
                return False
        return True

    frame: List[Coords] = []
    images: List[Coords] = []

    def search(start: int) -> bool:
        if len(frame) == n + 2:
            return True
        for idx in range(start, len(pts)):
            cand = pts[idx]
            img = table.apply(cand)
            if generic(frame, cand) and generic(images, img):
                frame.append(cand)
                images.append(img)
                if search(idx + 1):
                    return True
                frame.pop()
                images.pop()
        return False

    if not search(0):
        raise UndecidableByFrame(
            "no generic frame with generic images exists in this table")

    m = transform_from_correspondence(
        [ProjPoint(gf, c) for c in frame],
        [ProjPoint(gf, c) for c in images])
    for c in pts:
        if m.apply(ProjPoint(gf, c)).coords != table.apply(c):
            return None
    return m


# ===========================================================================
# the affine copy inside projective space
# ===========================================================================

def embed_affine(x: Sequence, field: Field) -> ProjPoint:
    """x -> [x : 1], the affine copy at height 1 (last coordinate)."""
    coords = tuple(vector(field, x)) + (field.one(),)
    return ProjPoint(field, coords)


def split(point: ProjPoint):
    """Invert the affine embedding: ("affine", x) when the last homogeneous
    coordinate is nonzero, else ("frontier", the point of the hyperplane at
    infinity, one dimension down)."""
    F = point.field
    last = point.coords[-1]
    if F.is_zero(last):
        return "frontier", ProjPoint(F, point.coords[:-1])
    inv = F.inv(last)
    return "affine", tuple(F.mul(inv, c) for c in point.coords[:-1])


def embed_affine_table(table) -> ProjTable:
    """Extend a finite affine self-map table to PG(n,p) by acting as the
    identity on the frontier hyperplane."""
    from .collineations import FiniteMapTable
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
            values.append(normalize_coords(p, table.apply(x) + (1,)))
    return ProjTable(p, n, tuple(values))
