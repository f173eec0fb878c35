"""Finite-grid oracles on line families, and normal-form recovery.

Everything here runs over a prime field Z_p (p odd) where "maps every line of
the family onto a line" is a finite, exhaustively checkable statement.  Maps
are handled as explicit value tables so the checks are oracle-grade: no
algebra is trusted, every line is inspected point by point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Iterator, List, Optional, Sequence, Tuple

from .exact import (
    InputError, InternalInconsistencyError, Matrix, PrimeField, _to_json, inverse,
    normalize_coords, rank_of_vectors,
)
from .grid import (
    FiniteMapTable, LineFamily, Point, _backtrack, _grid_point, _grid_size, _line_kernel,
    _lines, _unchecked_table, grid_points, point_index,
)


# ===========================================================================
# the onto/into oracle
# ===========================================================================

def _residue_directions(table: FiniteMapTable, fam: LineFamily) -> List[Point]:
    """The family's directions as residue vectors mod the table's p,
    deduplicated up to scaling; the family must have the table's dimension."""
    p = table.p
    if fam.n != table.n:
        raise InputError("family dimension != table dimension")
    if isinstance(fam.field, PrimeField) and fam.field.p != p:
        raise InputError(f"family over {fam.field} checked against a table over Z_{p}")
    gf = PrimeField(p)
    out: List[Point] = []
    seen = set()
    for d in fam.directions:
        dd = tuple(gf.convert(c) for c in d)
        if not any(dd):
            raise InputError("direction reduces to zero mod p")
        canon = normalize_coords(p, dd)
        if canon not in seen:
            seen.add(canon)
            out.append(dd)
    return out


def _family_lines(table: FiniteMapTable,
                  dirs: Sequence[Point]) -> Iterator[Tuple[Point, Point, List[Point]]]:
    """Every line of the table's grid parallel to one of the residue
    directions, direction by direction: (direction, line[0], its images)."""
    p, n, values = table.p, table.n, table.values
    for d in dirs:
        for base, idx in _lines(p, n, d):
            yield d, base, [values[i] for i in idx]


def points_collinear(p: int, pts: Sequence[Point]) -> bool:
    """All points on one affine line of (Z_p)^m (where m = len of each point)."""
    first = pts[0]
    if len(first) == 2:
        # plane images are the common case (the n = 2 tables and the searches),
        # and the unrolled test is several times faster there than the pivot
        # test below: (ex, ey) is the first nonzero difference from the first point
        x0, y0 = first
        ex = ey = 0
        for x, y in pts:
            dx, dy = (x - x0) % p, (y - y0) % p
            if ex or ey:
                if (ex * dy - ey * dx) % p:
                    return False
            else:
                ex, ey = dx, dy
        return True
    # e is the first nonzero difference from the first point and k its first
    # nonzero entry: a later difference d = q - first is a multiple of e iff
    # e[k]*d - d[k]*e = 0 (e[k] is a unit), m products per point
    e: Optional[List[int]] = None
    for q in pts[1:]:
        if e is not None:
            dk = q[k] - first[k]
            for a, b, f in zip(q, first, e):
                if (ek * (a - b) - dk * f) % p:
                    return False
        else:
            d = [(a - b) % p for a, b in zip(q, first)]
            if any(d):
                e = d
                k = next(i for i, c in enumerate(e) if c)
                ek = e[k]
    return True


@dataclass(frozen=True)
class Violation:
    direction: Point
    base: Point
    reason: str  # "not-a-line" | "not-onto" | "not-parallel"


@dataclass(frozen=True)
class FamilyReport:
    ok: bool
    violations: Tuple[Violation, ...]

    def to_json(self) -> dict:
        return _to_json(self)


def _walk(table: FiniteMapTable,
          d: Point) -> Tuple[Point, Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]:
    """The one walk over the lines of the table's grid parallel to the
    residue direction d, made once per table and direction and kept in the
    table's instance dict (scalings of d share it): (canonical direction,
    numbers of the lines whose image is not a line, of those whose image is
    a line but not all of it, of those whose image is not parallel to the
    image of the direction's first line).  A line's number is its place in
    `_line_kernel` of the canonical direction.

    An injective table maps p points to p distinct points, so a collinear
    image is a whole line and the onto test is skipped; a table that is not
    injective gets no parallel test (its consumers refuse it first).  The
    parallel lines mean something only when every image is a line."""
    p = table.p
    key = normalize_coords(p, d)
    walks = table.__dict__.setdefault("_walks", {})
    walk = walks.get(key)
    if walk is None:
        injective = table.is_injective()
        origin = (0,) * table.m
        ref = None
        not_line: List[int] = []
        not_onto: List[int] = []
        not_parallel: List[int] = []
        for i, (_d, _base, images) in enumerate(_family_lines(table, (key,))):
            if not points_collinear(p, images):
                not_line.append(i)
            elif not injective:
                if len(set(images)) < p:
                    not_onto.append(i)
            else:
                # injective: delta and ref are nonzero, so they are parallel
                # iff 0, ref and delta lie on one line
                delta = tuple((a - b) % p for a, b in zip(images[1], images[0]))
                if ref is None:
                    ref = delta
                elif not points_collinear(p, (origin, ref, delta)):
                    not_parallel.append(i)
        walk = walks[key] = (key, tuple(not_line), tuple(not_onto), tuple(not_parallel))
    return walk


def _violations(table: FiniteMapTable, d: Point, key: Point,
                numbered: Sequence[Tuple[int, str]]) -> List[Violation]:
    """The violations at these (line number, reason) pairs of a walk, each
    labelled with the family's own direction d and its line's base point."""
    if not numbered:
        return []
    lines = _line_kernel(table.p, table.n, key)
    return [Violation(d, lines[i][0], reason) for i, reason in numbered]


def check_family(table: FiniteMapTable, fam: LineFamily, mode: str = "onto") -> FamilyReport:
    """Does the table map every line of the family into/onto a line?

    onto: the image of each family line is exactly a full line of (Z_p)^m.
    into: the image merely lies inside some line (collapses allowed).
    """
    if mode not in ("into", "onto"):
        raise InputError(f"mode must be 'into' or 'onto', got {mode!r}")
    violations: List[Violation] = []
    for d in _residue_directions(table, fam):
        key, not_line, not_onto, _ = _walk(table, d)
        numbered = [(i, "not-a-line") for i in not_line]
        if mode == "onto" and not_onto:
            numbered = sorted(numbered + [(i, "not-onto") for i in not_onto])
        violations += _violations(table, d, key, numbered)
    return FamilyReport(not violations, tuple(violations))


def _parallel_violations(table: FiniteMapTable, dirs: Sequence[Point]) -> Optional[Tuple[Violation, ...]]:
    """For an injective table: None if a line in the residue directions is
    not mapped onto a line (for an injective table, onto = into), else the
    lines whose image is not parallel to the image of the first line of their
    direction."""
    violations: List[Violation] = []
    for d in dirs:
        key, not_line, _, not_parallel = _walk(table, d)
        if not_line:
            return None
        violations += _violations(table, d, key, [(i, "not-parallel") for i in not_parallel])
    return tuple(violations)


def parallelism_report(table: FiniteMapTable, fam: LineFamily) -> FamilyReport:
    """Within each direction, do all family lines have parallel images?"""
    if not table.is_injective():
        raise InputError("parallelism check needs an injective table")
    violations = _parallel_violations(table, _residue_directions(table, fam))
    if violations is None:
        raise InputError("parallelism check requires the onto check to pass first")
    return FamilyReport(not violations, violations)


def _diagonal_hypothesis(table: FiniteMapTable, fam: LineFamily) -> Tuple[List[Point], Optional[str]]:
    """The family's directions mod p and the first hypothesis of the
    diagonal-form lemma that the table fails (None when it meets them all):
    n independent directions, injective, every family line onto a line,
    parallel family lines onto parallel lines."""
    p, n = table.p, table.n
    dirs = _residue_directions(table, fam)
    if len(dirs) != n:
        raise InputError(f"need exactly n={n} directions, got {len(dirs)}")
    if rank_of_vectors(PrimeField(p), dirs) != n:
        return dirs, "directions are not linearly independent"
    if not table.is_injective():
        return dirs, "table is not injective"
    violations = _parallel_violations(table, dirs)
    if violations is None:
        return dirs, "a family line is not mapped onto a line"
    if violations:
        return dirs, "parallel family lines have non-parallel images"
    return dirs, None


def _differences(table: FiniteMapTable, points: Sequence[Sequence[int]]) -> List[Point]:
    """F(x) - F(0) (mod p) at these points, read by flat index; F(0) is
    values[0]."""
    p, values = table.p, table.values
    base = values[0]
    return [tuple((a - b) % p for a, b in zip(values[point_index(p, x)], base)) for x in points]


def _axis(table: FiniteMapTable, v: Sequence[int]) -> Tuple[Point, Tuple[int, ...]]:
    """The map read along the direction v: w = F(v) - F(0) and the f with
    F(a*v) - F(0) = f[a]*w for every a in Z_p."""
    p = table.p
    along = _differences(table, [[a * c for c in v] for a in range(p)])
    return along[1], tuple(_scalar_along(p, d, along[1]) for d in along)


# ===========================================================================
# span invariants (the parallelism lemma's three conclusions)
# ===========================================================================

@dataclass(frozen=True)
class SpanInvariantReport:
    ok: bool
    hypothesis_ok: bool
    failure: Optional[str] = None
    k: Optional[int] = None

    def to_json(self) -> dict:
        return _to_json(self)


def verify_span_invariants(table: FiniteMapTable, fam: LineFamily) -> SpanInvariantReport:
    """For an injective table sending every family line onto a line, with
    parallel lines onto parallel lines and n independent directions, check
    the three structural conclusions for every 2 <= k <= n:

      (1) images of the first k directions are linearly independent,
      (2) the image of their span is the span of their images,
      (3) the image of the affine slice v_k + span{v_1..v_{k-1}} is the
          corresponding affine slice of the images.

    Everything is normalized by subtracting the value at 0 first.  Failures
    of the hypotheses are reported as such, not as conclusion failures.
    """
    p, n, m = table.p, table.n, table.m
    dirs, failure = _diagonal_hypothesis(table, fam)
    if failure is not None:
        return SpanInvariantReport(False, False, failure)
    # span{v_1..v_{k-1}} and span{w_1..w_{k-1}}, grown one direction at a time;
    # the slices c*v_k + dom (c in Z_p) make up span{v_1..v_k}
    dom, img = [(0,) * n], {(0,) * m}
    for k, v in enumerate(dirs, 1):
        w = _differences(table, [v])[0]
        slices = [[tuple((a + c * b) % p for a, b in zip(x, v)) for x in dom] for c in range(p)]
        img_slices = [{tuple((a + c * b) % p for a, b in zip(y, w)) for y in img}
                      for c in range(p)]
        dom, img = [x for sl in slices for x in sl], set().union(*img_slices)
        if k == 1:
            continue
        # a span of rank r has p^r points
        if len(img) != p ** k:
            return SpanInvariantReport(False, True, "images of the directions are dependent", k)
        images = [set(_differences(table, sl)) for sl in slices]
        if set().union(*images) != img:
            return SpanInvariantReport(False, True, "image of span != span of images", k)
        if images[1] != img_slices[1]:
            return SpanInvariantReport(False, True, "affine slice images disagree", k)
    return SpanInvariantReport(True, True)


# ===========================================================================
# diagonal form recovery
# ===========================================================================

@dataclass(frozen=True)
class DiagonalForm:
    """F(sum a_i u_i) = base + sum f_i(a_i) w_i with independent u's and w's
    and scalar bijections f_i fixing 0 and 1."""

    p: int
    u: Tuple[Point, ...]
    w: Tuple[Point, ...]
    f: Tuple[Tuple[int, ...], ...]
    base: Point

    def __post_init__(self):
        # every field read as exact ints mod p, so a tabulated form holds
        # residues by construction
        p, n, m = self.p, len(self.u), len(self.base)
        PrimeField(p)
        if not n or not m or len(self.w) != n or len(self.f) != n:
            raise InputError("a diagonal form needs n >= 1 u's, w's and f's, and m >= 1")
        object.__setattr__(self, "u", tuple(_grid_point(p, n, v) for v in self.u))
        object.__setattr__(self, "w", tuple(_grid_point(p, m, v) for v in self.w))
        object.__setattr__(self, "f", tuple(_grid_point(p, p, t) for t in self.f))
        object.__setattr__(self, "base", _grid_point(p, m, self.base))

    @property
    def n(self) -> int:
        return len(self.u)

    @property
    def m(self) -> int:
        return len(self.base)

    @cached_property
    def _u_inverse(self) -> Tuple[Tuple[int, ...], ...]:
        """The rows of the inverse of the matrix with columns u: row i takes
        x to its alpha_i."""
        return inverse(Matrix(PrimeField(self.p), tuple(zip(*self.u)))).rows

    def apply(self, x: Sequence[int]) -> Point:
        return self._evaluate(_grid_point(self.p, self.n, x))

    def _evaluate(self, x: Point) -> Point:
        """F(x) at a residue point: base + sum f_i(alpha_i) w_i, reduced mod p."""
        p = self.p
        out = list(self.base)
        for row, f, w in zip(self._u_inverse, self.f, self.w):
            fa = f[sum(r * c for r, c in zip(row, x)) % p]
            out = [a + fa * b for a, b in zip(out, w)]
        return tuple(a % p for a in out)

    def to_json(self) -> dict:
        return _to_json(self)


def tabulate_diagonal_form(form: DiagonalForm) -> FiniteMapTable:
    # the evaluator reduces mod p: the values are residues by construction
    return _unchecked_table(form.p, form.n, form.m,
                            tuple(map(form._evaluate, grid_points(form.p, form.n))))


def _scalar_along(p: int, value: Point, axis: Point) -> int:
    """The s with value = s*axis, or raise if value is off the axis."""
    j0 = next((j for j, c in enumerate(axis) if c), None)
    if j0 is None:
        raise InternalInconsistencyError("axis vector is zero")
    s = value[j0] * pow(axis[j0], p - 2, p) % p
    if any(value[j] != s * axis[j] % p for j in range(len(axis))):
        raise InternalInconsistencyError("point is not on the expected axis")
    return s


def recover_diagonal_form(table: FiniteMapTable, fam: LineFamily) -> DiagonalForm:
    """Recover u_i, w_i, f_i, base from a table satisfying the hypotheses
    (injective, onto for n independent directions, parallelism preserved).

    The result is re-verified against the table at every grid point; a
    mismatch means the preconditions were mis-checked and raises an internal
    inconsistency error rather than returning a bogus form.
    """
    dirs, failure = _diagonal_hypothesis(table, fam)
    if failure is not None:
        raise InputError(failure)
    w, f = zip(*(_axis(table, v) for v in dirs))
    form = DiagonalForm(table.p, tuple(dirs), w, f, table.values[0])
    if tabulate_diagonal_form(form).values != table.values:
        raise InternalInconsistencyError("recovered diagonal form does not reproduce the table")
    return form


# ===========================================================================
# plane form recovery (n = 2)
# ===========================================================================

@dataclass(frozen=True)
class PlaneForm:
    """F(s,t) = base + f(s) u1 + g(t) u2 + f(s) g(t) u3."""

    p: int
    u1: Point
    u2: Point
    u3: Point
    f: Tuple[int, ...]
    g: Tuple[int, ...]
    base: Point

    @property
    def m(self) -> int:
        return len(self.base)

    @property
    def cross_term_vanishes(self) -> bool:
        return all(c == 0 for c in self.u3)

    def apply(self, x: Sequence[int]) -> Point:
        return self._evaluate(*_grid_point(self.p, 2, x))

    def _evaluate(self, s: int, t: int) -> Point:
        """F(s, t) at residues s and t."""
        fs, gt = self.f[s], self.g[t]
        return tuple((b + fs * a1 + gt * a2 + fs * gt * a3) % self.p
                     for b, a1, a2, a3 in zip(self.base, self.u1, self.u2, self.u3))

    def to_json(self) -> dict:
        return _to_json(self, "cross_term_vanishes")


def recover_plane_form(table: FiniteMapTable) -> PlaneForm:
    """Read u1, u2, u3, f, g off an injective planar table that maps all
    axis-parallel lines onto lines; verified on the full grid afterwards."""
    if table.n != 2:
        raise InputError("plane form recovery needs n = 2")
    if table.m < 2:
        raise InputError("plane form recovery needs m >= 2")
    if not table.is_injective():
        raise InputError("table is not injective")
    p = table.p
    # injective: the p images of an axis line are distinct, so into is onto
    if not all(points_collinear(p, images)
               for _d, _base, images in _family_lines(table, ((1, 0), (0, 1)))):
        raise InputError("an axis-parallel line is not mapped onto a line")

    (u1, f), (u2, g) = _axis(table, (1, 0)), _axis(table, (0, 1))
    u12 = _differences(table, [(1, 1)])[0]
    u3 = tuple((c - a - b) % p for c, a, b in zip(u12, u1, u2))
    form = PlaneForm(p, u1, u2, u3, f, g, table.values[0])
    if tuple(itertools.starmap(form._evaluate, grid_points(p, 2))) != table.values:
        raise InternalInconsistencyError("recovered plane form does not reproduce the table")
    return form


# ===========================================================================
# exhaustive search over all bijections of the grid
# ===========================================================================

def exhaustive_bijection_search(p: int, n: int, fam: LineFamily,
                                max_points: int = 9) -> List[FiniteMapTable]:
    """All bijections of (Z_p)^n sending every family line onto a line, in
    lexicographic order of the value table.

    The search kernel fills the grid positions line by line and prunes as
    soon as a completed line has a non-collinear image.  For bijections into
    and onto coincide (p distinct collinear points fill their line), so the
    search takes no mode.
    """
    PrimeField(p)
    total = _grid_size(p, n, max_points, "search guard")
    # the identity table checks every grid point once; survivors are
    # permutations of its values, so they are built without a check per entry
    grid = FiniteMapTable(p, n, n, tuple(grid_points(p, n)))

    # bounded: a search run up to the node budget would keep a key per node
    collinear = lru_cache(maxsize=1 << 14)(
        lambda key: points_collinear(p, [grid.values[v] for v in key]))
    lines = [(idx, itemgetter(*idx))
             for d in _residue_directions(grid, fam) for _base, idx in _lines(p, n, d)]
    found = _backtrack([range(total)] * total, lines,
                       lambda a, images: collinear(tuple(sorted(images(a)))))
    return [_unchecked_table(p, n, n, tuple(map(grid.values.__getitem__, values))) for values in found]
