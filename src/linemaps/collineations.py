"""Finite-grid oracles on line families, and normal-form recovery.

Everything here runs over a prime field Z_p (p odd) where "maps every line of
the family onto a line" is a finite, exhaustively checkable statement.  Maps
are handled as explicit value tables so the checks are oracle-grade: no
algebra is trusted, every line is inspected point by point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add, itemgetter
from typing import List, Optional, Sequence, Tuple

from .exact import (
    InputError, InternalInconsistencyError, Matrix, PrimeField, _echelon, _to_json, _trusted,
    _trusted_batch, inverse, normalize_coords,
)
from .grid import (
    FiniteMapTable, LineFamily, Point, _affine_incidence, _backtrack, _charge, _form_columns,
    _grid_point, _grid_size, _horner, _line_bases, _line_kernel, grid_points, point_index,
)


# ===========================================================================
# the onto/into oracle
# ===========================================================================

def _residue_directions(p: int, n: int, fam: LineFamily) -> List[Point]:
    """The family's directions as residue vectors mod p, an odd prime,
    deduplicated up to scaling; the family must have dimension n."""
    if fam.n != n:
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


def points_collinear(p: int, pts: Sequence[Point]) -> bool:
    """All points on one affine line of (Z_p)^m (where m = len of each point)."""
    # e is the first nonzero difference from the first point and k its first
    # nonzero entry: a later difference d = q - first is a multiple of e iff
    # e[k]*d - d[k]*e = 0 (e[k] is a unit), m products per point
    first = pts[0]
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


# The direction numbers of every difference key, (2p)^m of them, are one list
# while they number at most DIFFERENCE_TABLE_BOUND: 10,000 at p = 5, m = 4.
# Past it the walk reads the values themselves, so nothing sized (2p)^m is
# built for a large m: at m = 40 it would never finish.
DIFFERENCE_TABLE_BOUND = 1 << 16


class _DirectionNumbers:
    """Integer codes for the values of (Z_p)^m, and the direction number of
    each difference of two values, while (2p)^m is at most
    DIFFERENCE_TABLE_BOUND.

    A value's code c(y) is the integer whose base-2p digits are its entries,
    read across the value columns by the grid's digit reader.  For values y
    and y0, c(y) - c(y0) + c((p, ..., p)) has the digits y_j - y0_j + p, all
    in [1, 2p): no digit borrows, and the number names the difference y - y0.
    It is the difference's key, and `numbers` lists the direction number of
    every key: the flat index of the difference scaled so its first nonzero
    entry is 1, and 0 for a zero difference.  So two nonzero differences have
    one number iff they are parallel."""

    def __init__(self, p: int, m: int):
        # the residue vector of each key digit by digit, then its number
        residues = [(d - p) % p for d in range(2 * p)]
        index = [0]
        for _ in range(m):
            index = [i * p + r for i in index for r in residues]
        numbers = [point_index(p, normalize_coords(p, v)) if any(v) else 0
                   for v in grid_points(p, m)]
        self.numbers = [numbers[i] for i in index]
        (self.offset,) = _horner(2 * p, [[p]] * m)


@lru_cache(maxsize=8)
def _direction_numbers(p: int, m: int) -> Optional[_DirectionNumbers]:
    """The direction numbers of (Z_p)^m, or None past DIFFERENCE_TABLE_BOUND."""
    if m < DIFFERENCE_TABLE_BOUND.bit_length() and (2 * p) ** m <= DIFFERENCE_TABLE_BOUND:
        return _DirectionNumbers(p, m)
    return None


def _walk(table: FiniteMapTable,
          d: Point) -> Tuple[Point, Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]:
    """The one walk over the lines of the table's grid parallel to the
    residue direction d, made once per table and direction and kept in the
    table's instance dict (scalings of d share it): (canonical direction,
    numbers of the lines whose image is not a line, of those whose image is
    a line but not all of it, of those whose image is not parallel to the
    image of the direction's first line).  A line's number is its place in
    `_line_kernel` of the canonical direction.

    A line's numbers are those of its nonzero differences from its first
    image.  Its image is a line iff it has one number (a zero difference is
    a repeated point, which a table that is not injective can have), and two
    image lines are parallel iff their numbers are equal.  While the values
    have direction numbers (see `_DirectionNumbers`), the walk reads each
    value as its integer code, computed once per table and kept next to the
    walks, and each difference's number from the list.  Past the bound a
    value is its own code, and a difference's number is the difference
    scaled by `normalize_coords`, up to the line's second number; values are
    residues, so a difference is zero iff its two values are equal.

    An injective table maps p points to p distinct points, so a collinear
    image is a whole line and the onto test is skipped; a table that is not
    injective gets no parallel test (its consumers refuse it first).  The
    parallel lines mean something only when every image is a line."""
    p = table.p
    key = normalize_coords(p, d)
    memo = table.__dict__
    walks = memo.setdefault("_walks", {})
    walk = walks.get(key)
    if walk is None:
        directions = _direction_numbers(p, table.m)
        if directions is None:
            codes = table.values
        else:
            codes = memo.get("_codes")
            if codes is None:
                codes = memo["_codes"] = _horner(2 * p, list(zip(*table.values)))
            known, offset = directions.numbers, directions.offset
        injective = table.is_injective()
        ref = None
        not_line: List[int] = []
        not_onto: List[int] = []
        not_parallel: List[int] = []
        for i, idx in enumerate(_line_kernel(p, table.n, key)):
            if directions is None:
                y0, numbers = codes[idx[0]], set()
                for y in map(codes.__getitem__, idx):
                    if y != y0:
                        numbers.add(normalize_coords(p, [(a - b) % p for a, b in zip(y, y0)]))
                        if len(numbers) > 1:
                            break  # two numbers settle a bent line
            else:
                base = codes[idx[0]] - offset
                numbers = {known[codes[j] - base] for j in idx}
                numbers.discard(0)
            if len(numbers) > 1:
                not_line.append(i)
            elif not injective:
                if len({codes[j] for j in idx}) < p:
                    not_onto.append(i)
            else:
                # injective: the line's one direction number is its image's direction
                number = numbers.pop()
                if ref is None:
                    ref = number
                elif number != ref:
                    not_parallel.append(i)
        walk = walks[key] = (key, tuple(not_line), tuple(not_onto), tuple(not_parallel))
    return walk


def _violations(table: FiniteMapTable, d: Point, key: Point,
                numbered: Sequence[Tuple[int, str]]) -> List[Violation]:
    """The violations at these (line number, reason) pairs of a walk, each
    labelled with the family's own direction d and its line's base point."""
    if not numbered:
        return []
    bases = _line_bases(table.p, table.n, key)
    return [Violation(d, bases[i], reason) for i, reason in numbered]


def check_family(table: FiniteMapTable, fam: LineFamily, mode: str = "onto") -> FamilyReport:
    """Does the table map every line of the family into/onto a line?

    onto: the image of each family line is exactly a full line of (Z_p)^m.
    into: the image merely lies inside some line (collapses allowed).
    """
    if mode not in ("into", "onto"):
        raise InputError(f"mode must be 'into' or 'onto', got {mode!r}")
    violations: List[Violation] = []
    for d in _residue_directions(table.p, table.n, fam):
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
    violations = _parallel_violations(table, _residue_directions(table.p, table.n, fam))
    if violations is None:
        raise InputError("parallelism check requires the onto check to pass first")
    return FamilyReport(not violations, violations)


def _diagonal_hypothesis(table: FiniteMapTable, fam: LineFamily) -> Tuple[List[Point], Optional[str]]:
    """The family's directions mod p and the first hypothesis of the
    diagonal-form lemma that the table fails (None when it meets them all):
    n independent directions, injective, every family line onto a line,
    parallel family lines onto parallel lines."""
    p, n = table.p, table.n
    dirs = _residue_directions(p, n, fam)
    if len(dirs) != n:
        raise InputError(f"need exactly n={n} directions, got {len(dirs)}")
    if len(_echelon(PrimeField(p), dirs)) != n:
        return dirs, "directions are not linearly independent"
    if not table.is_injective():
        return dirs, "table is not injective"
    violations = _parallel_violations(table, dirs)
    if violations is None:
        return dirs, "a family line is not mapped onto a line"
    if violations:
        return dirs, "parallel family lines have non-parallel images"
    return dirs, None


def _axis_read(p: int, line: Sequence[Point]) -> Tuple[Point, Tuple[int, ...]]:
    """The map read along a direction v of an injective table, given its
    values F(a*v) at a = 0, ..., p-1: w = F(v) - F(0), nonzero, and f[a], the
    entry of F(a*v) - F(0) at w's first nonzero entry over that of w, whose
    inverse is taken once.  No point is checked to be on the axis: where the
    walk finds the axis line mapped onto a line, F(a*v) - F(0) = f[a]*w, and
    each caller compares the form it reads with the whole table."""
    base = line[0]
    w = tuple([(a - b) % p for a, b in zip(line[1], base)])
    for j0, c in enumerate(w):
        if c:
            break
    inv, b = pow(c, p - 2, p), base[j0]
    return w, tuple([(y[j0] - b) * inv % p for y in line])


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

    Both sides are compared translated by F(0), which is one bijection.
    Failures of the hypotheses are reported as such, not as conclusion
    failures.
    """
    p, n = table.p, table.n
    dirs, failure = _diagonal_hypothesis(table, fam)
    if failure is not None:
        return SpanInvariantReport(False, False, failure)
    values, base = table.values, table.values[0]
    w = [[(a - b) % p for a, b in zip(values[point_index(p, v)], base)] for v in dirs]
    # span{v_1..v_k} and F(0) + span{w_1..w_k} as coordinate columns over the
    # coefficients (a_1, ..., a_k), a_k least significant: the slice
    # v_k + span{v_1..v_{k-1}}, a_k = 1, is every p-th point from index 1
    for k in range(2, n + 1):
        # the coordinate rows of v_1..v_k, then those of w_1..w_k
        columns = _form_columns(p, [*zip(*dirs[:k]), *zip(*w[:k])], [0] * n + list(base))
        img = list(zip(*columns[n:]))
        # a span of rank r has p^r points
        span = set(img)
        if len(span) != p ** k:
            return SpanInvariantReport(False, True, "images of the directions are dependent", k)
        images = [values[i] for i in _horner(p, columns[:n])]
        if set(images) != span:
            return SpanInvariantReport(False, True, "image of span != span of images", k)
        if set(images[1::p]) != set(img[1::p]):
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
        return inverse(_trusted(Matrix, PrimeField(self.p), tuple(zip(*self.u)))).rows

    def apply(self, x: Sequence[int]) -> Point:
        """F(x) = base + sum f_i(alpha_i) w_i, reduced mod p."""
        p, x = self.p, _grid_point(self.p, self.n, x)
        out = list(self.base)
        for row, f, w in zip(self._u_inverse, self.f, self.w):
            fa = f[sum(r * c for r, c in zip(row, x)) % p]
            out = [a + fa * b for a, b in zip(out, w)]
        return tuple(a % p for a in out)

    def to_json(self) -> dict:
        return _to_json(self)


def tabulate_diagonal_form(form: DiagonalForm) -> FiniteMapTable:
    """The form's values over the grid, built column by column: alpha_i over
    the grid in lexicographic order from the grid's form-column builder,
    then each output coordinate as base_j plus sum_i f_i(alpha_i) w_ij, with
    the term looked up per entry from its p values, reduced mod p: residues
    by construction.  A grid past the point budget is refused first."""
    p, n = form.p, form.n
    size = _grid_size(p, n)
    alphas = _form_columns(p, form._u_inverse, [0] * n)
    columns = []
    for j, b in enumerate(form.base):
        column = [b] * size
        for alpha, f, w in zip(alphas, form.f, form.w):
            if w[j]:
                term = [t * w[j] for t in f]
                column = list(map(add, column, map(term.__getitem__, alpha)))
        columns.append([c % p for c in column])
    return _trusted(FiniteMapTable, p, n, form.m, tuple(zip(*columns)))


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
    p, values = table.p, table.values
    w, f = zip(*(_axis_read(p, [values[point_index(p, [a * c for c in v])] for a in range(p)])
                 for v in dirs))
    form = _trusted(DiagonalForm, p, tuple(dirs), w, f, values[0])
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

    def __post_init__(self):
        # read as DiagonalForm reads its fields: exact ints mod p, of lengths m and p
        p, m = self.p, len(self.base)
        PrimeField(p)
        if not m:
            raise InputError("a plane form needs m >= 1")
        for name, length in (("u1", m), ("u2", m), ("u3", m), ("f", p), ("g", p), ("base", m)):
            object.__setattr__(self, name, _grid_point(p, length, getattr(self, name)))

    @property
    def m(self) -> int:
        return len(self.base)

    @property
    def cross_term_vanishes(self) -> bool:
        return all(c == 0 for c in self.u3)

    def apply(self, x: Sequence[int]) -> Point:
        s, t = _grid_point(self.p, 2, x)
        fs, gt = self.f[s], self.g[t]
        return tuple((b + fs * a1 + gt * a2 + fs * gt * a3) % self.p
                     for b, a1, a2, a3 in zip(self.base, self.u1, self.u2, self.u3))

    def to_json(self) -> dict:
        return _to_json(self, "cross_term_vanishes")


def recover_plane_form(table: FiniteMapTable) -> PlaneForm:
    """Read u1, u2, u3, f, g off an injective planar table that maps all
    axis-parallel lines onto lines; verified on the full grid afterwards.

    The form is read at 2p+1 points and compared with the whole table.  A
    table it reproduces meets the hypothesis: the image of the line through
    (s, 0) along e2 is base + f(s) u1 + g(t) (u2 + f(s) u3), and that of the
    line through (0, t) along e1 is base + g(t) u2 + f(s) (u1 + g(t) u3), each
    a line.  A table it does not reproduce has its two axis directions
    walked: a torn axis line is an input error, and otherwise the axes were
    read right and the mismatch is an internal inconsistency."""
    if table.n != 2:
        raise InputError("plane form recovery needs n = 2")
    if table.m < 2:
        raise InputError("plane form recovery needs m >= 2")
    if not table.is_injective():
        raise InputError("table is not injective")
    p, values = table.p, table.values
    base = values[0]
    # a*e1 = (a, 0) has flat index a*p, a*e2 = (0, a) index a, and (1, 1)
    # index p+1.  F is injective, so neither F(e1) - F(0) nor F(e2) - F(0) is zero
    (u1, f), (u2, g) = _axis_read(p, values[::p]), _axis_read(p, values[:p])
    u3 = tuple([(c - o - a - b) % p for c, o, a, b in zip(values[p + 1], base, u1, u2)])
    # F(s, t) = b + f(s) a1 + g(t) (a2 + f(s) a3), one output column at a
    # time over the grid in lexicographic order, and the columns compared
    # with the table in one comparison
    columns = [[(c0 + gt * c1) % p for fs in f for c0, c1 in [(b + fs * a1, a2 + fs * a3)]
                for gt in g]
               for b, a1, a2, a3 in zip(base, u1, u2, u3)]
    if tuple(zip(*columns)) == values:
        return _trusted(PlaneForm, p, u1, u2, u3, f, g, base)
    # injective: the p images of an axis line are distinct, so into is onto.
    # Both axes are walked, not short-circuited, so the table's memo holds
    # the two walks a later check of the standard family reads
    if any([_walk(table, d)[1] for d in ((1, 0), (0, 1))]):
        raise InputError("an axis-parallel line is not mapped onto a line")
    raise InternalInconsistencyError("recovered plane form does not reproduce the table")


# ===========================================================================
# exhaustive search over all bijections of the grid
# ===========================================================================

@lru_cache(maxsize=8)
def _affine_transversal(p: int, n: int) -> Tuple[Tuple[Point, ...], ...]:
    """One affine bijection g of (Z_p)^n per ordered pair (y0, y1) of distinct
    points, with g(0) = y0 and g(e) = y1 for e = (0, ..., 0, 1), the point with
    flat index 1; each as its value table, the points g(point i) in order,
    each point the one object `grid_points` gives, picked at the flat indices
    read off g's coordinate columns.

    g(x) = y0 + Ax, where A is the identity with its last column set to
    v = y1 - y0 and, when v's first nonzero entry k is not the last, its column
    k set to e: A is invertible.  The affine maps taking (0, e) to (y0, y1) are
    g composed with the stabiliser of (0, e), so the p^n (p^n - 1) maps are one
    per coset of that stabiliser in AGL(n, p)."""
    points = list(grid_points(p, n))
    unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    maps = []
    for y0, y1 in itertools.permutations(points, 2):
        v = tuple((b - a) % p for a, b in zip(y0, y1))
        cols = list(unit)
        k = next(j for j, c in enumerate(v) if c)
        cols[k], cols[-1] = cols[-1], v
        maps.append(itemgetter(*_horner(p, _form_columns(p, list(zip(*cols)), y0)))(points))
    return tuple(maps)


def exhaustive_bijection_search(p: int, n: int, fam: LineFamily) -> List[FiniteMapTable]:
    """All bijections of (Z_p)^n sending every family line onto a line, in
    lexicographic order of the value table.  For bijections into and onto
    coincide (p distinct collinear points fill their line), so there is no mode.

    The search is made up to the affine group, which maps lines onto lines:
    g composed with a survivor is a survivor.  The kernel fills the grid line
    by line, pruning at each completed line whose image is not collinear; the
    first two points x0, x1 it fills are pinned to F(x0) = 0 and F(x1) = e,
    the point with flat index 1.  AGL(n, p) is 2-transitive on points, so each
    survivor F is g o G for exactly one map g of `_affine_transversal` (the one
    taking (0, e) to (F(x0), F(x1))) and one pinned survivor G, for every p, n
    and family.  The results number |pinned| * p^n (p^n - 1), each a node
    against the search budget before any table is built.  There is no size
    guard: all |AGL(n, p)| affine maps survive, so a grid whose affine group
    passes the node budget is refused before anything is built.
    """
    dirs = _residue_directions(p, n, fam)  # validates p and the family's dimension
    total = _grid_size(p, n)  # never p^n for a huge n
    # |AGL(n, p)| = p^n (p^n - 1) ... (p^n - p^(n-1)), a bound compared on its own
    _charge(total * math.prod(total - p ** i for i in range(n)))

    # the kernel's values are distinct flat indices, and p distinct collinear
    # points are a whole line: a line's images are collinear iff they are one
    # of the grid's lines
    is_line = _affine_incidence(p, n).is_line
    lines = [(idx, itemgetter(*idx)) for d in dirs
             for idx in _line_kernel(p, n, normalize_coords(p, d))]
    # the kernel fills the first line's slots first, then the rest in order
    x0, x1 = lines[0][0][:2]
    domains = [range(2, total)] * total
    domains[x0], domains[x1] = (0,), (1,)
    pinned = _backtrack(domains, lines, lambda a, images: is_line(images(a)),
                        result_cost=total * (total - 1))
    # built only once the budget has counted the tables, which are at least as
    # many as the maps.  The values of g o G are g's value table read at G's
    # flat indices, one pick per table (p^n >= 3 of them, so an itemgetter
    # picks a tuple), and the tables are sorted once, as points.  With g
    # outermost the list comes grouped by F(0) = g(0), which shortens the
    # sort: x0 is the first point of a line through the origin, 0, and G(0) = 0
    transversal = _affine_transversal(p, n)
    picks = [itemgetter(*values) for values in pinned]
    found = sorted([pick(g) for g in transversal for pick in picks])
    return _trusted_batch(FiniteMapTable, p, n, n, found)
