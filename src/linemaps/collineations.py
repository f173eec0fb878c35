"""Line families, finite-grid oracles, and normal-form recovery.

Everything here runs over a prime field Z_p (p odd) where "maps every line of
the family onto a line" is a finite, exhaustively checkable statement.  Maps
are handled as explicit value tables so the checks are oracle-grade: no
algebra is trusted, every line is inspected point by point.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .exact import (
    Field, InputError, InternalInconsistencyError, Matrix, PrimeField, QQ,
    ResourceError, Vector, inverse, mat_vec, normalize_coords,
    rank_of_vectors, unit_vector, vector, vectors_parallel,
)
from .multiaffine import grid_points, point_index

Point = Tuple[int, ...]


# ===========================================================================
# line families
# ===========================================================================

@dataclass(frozen=True)
class LineFamily:
    """L(v_1, ..., v_k): all affine lines parallel to one of the directions."""

    field: Field
    n: int
    directions: Tuple[Vector, ...]

    def __post_init__(self):
        dirs = []
        for d in self.directions:
            d = vector(self.field, d)
            if len(d) != self.n:
                raise InputError("direction length != n")
            if all(self.field.is_zero(c) for c in d):
                raise InputError("zero direction in family")
            dirs.append(d)
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                if vectors_parallel(self.field, dirs[i], dirs[j]):
                    raise InputError("family directions must be pairwise non-parallel")
        object.__setattr__(self, "directions", tuple(dirs))

    @property
    def k(self) -> int:
        return len(self.directions)


def standard_family(field: Field, n: int, with_diagonal: bool = False) -> LineFamily:
    """L(e_1, ..., e_n) or L(e_1, ..., e_n, e_1+...+e_n)."""
    dirs = [unit_vector(field, n, i) for i in range(n)]
    if with_diagonal:
        dirs.append((field.one(),) * n)
    return LineFamily(field, n, tuple(dirs))


def s_family(n: int, field: Field = QQ) -> LineFamily:
    """The richer direction set {e_i} + {e_i+e_j : i<j} + {e_1+...+e_n}.

    At n=2 the all-ones vector coincides with the single pair sum; duplicates
    (and, over small prime fields, directions that merely become parallel)
    are collapsed because a family is a set of lines.
    """
    if n < 2:
        raise InputError("s_family needs n >= 2")
    one, zero = field.one(), field.zero()
    raw: List[Vector] = [unit_vector(field, n, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            raw.append(tuple(one if t in (i, j) else zero for t in range(n)))
    raw.append(tuple(one for _ in range(n)))
    dirs: List[Vector] = []
    for d in raw:
        if not any(vectors_parallel(field, d, e) for e in dirs):
            dirs.append(d)
    return LineFamily(field, n, tuple(dirs))


def _family_directions_mod(fam: LineFamily, p: int) -> List[Point]:
    """Family directions as residue vectors, deduplicated up to scaling."""
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


# ===========================================================================
# map tables on the grid (Z_p)^n
# ===========================================================================

@dataclass(frozen=True)
class FiniteMapTable:
    """All values of a map (Z_p)^n -> (Z_p)^m, in lexicographic point order."""

    p: int
    n: int
    m: int
    values: Tuple[Point, ...]

    def __post_init__(self):
        PrimeField(self.p)  # validates p (odd prime)
        if self.n < 1 or self.m < 1:
            raise InputError("dimensions must be >= 1")
        if len(self.values) != self.p ** self.n:
            raise InputError(f"expected {self.p ** self.n} values, got {len(self.values)}")
        p, m = self.p, self.m
        vals = tuple(map(tuple, self.values))
        for v in vals:
            if len(v) != m:
                raise InputError("table value out of range")
            for c in v:
                # exactly int: a float, bool or str entry is rejected, never truncated
                if type(c) is not int:
                    raise InputError(f"table entry {c!r} is not an int")
                if not 0 <= c < p:
                    raise InputError("table value out of range")
        object.__setattr__(self, "values", vals)

    def apply(self, point: Sequence[int]) -> Point:
        if len(point) != self.n:
            raise InputError("point length != n")
        return self.values[point_index(self.p, point)]

    def is_injective(self) -> bool:
        return len(set(self.values)) == len(self.values)

    def is_bijection(self) -> bool:
        return self.m == self.n and self.is_injective()

    def domain(self):
        return grid_points(self.p, self.n)


def table_from_function(p: int, n: int, m: int, fn: Callable[[Point], Sequence[int]]) -> FiniteMapTable:
    values = []
    for x in grid_points(p, n):
        y = tuple(int(c) % p for c in fn(x))
        if len(y) != m:
            raise InputError("function returned a value of the wrong length")
        values.append(y)
    return FiniteMapTable(p, n, m, tuple(values))


def table_to_json(table: FiniteMapTable) -> dict:
    return {"p": table.p, "n": table.n, "m": table.m,
            "values": [list(v) for v in table.values]}


def table_from_json(obj: dict) -> FiniteMapTable:
    try:
        return FiniteMapTable(int(obj["p"]), int(obj["n"]), int(obj["m"]),
                              tuple(tuple(v) for v in obj["values"]))
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad table JSON: {exc}") from exc


def load_table(path: str) -> FiniteMapTable:
    with open(path) as fh:
        return table_from_json(json.load(fh))


# ===========================================================================
# line enumeration and the onto/into oracle
# ===========================================================================

def enumerate_lines(p: int, n: int, direction: Sequence[int]) -> List[List[Point]]:
    """Partition (Z_p)^n into the p^{n-1} lines with the given direction.

    Each line is returned as its sorted point list; the list of lines is
    ordered by the hyperplane representative used to generate it.
    """
    PrimeField(p)
    b = tuple(int(c) % p for c in direction)
    if all(c == 0 for c in b):
        raise InputError("direction must be nonzero")
    i0 = next(i for i, c in enumerate(b) if c)
    lines = []
    for rest in grid_points(p, n - 1) if n > 1 else [()]:
        a = rest[:i0] + (0,) + rest[i0:]
        line = sorted(tuple((a[i] + t * b[i]) % p for i in range(n)) for t in range(p))
        lines.append(line)
    return lines


# A cached direction holds about 80 bytes per grid point.  The bound keeps
# every direction of perfbench's families (28 keys in its grid-oracle
# workload) and caps what a family with many directions can pin.
@lru_cache(maxsize=32)
def _line_kernel(p: int, n: int, direction: Point) -> Tuple[Tuple[Point, Tuple[int, ...]], ...]:
    """The lines of `enumerate_lines(p, n, direction)`, each as its base
    point line[0] and the flat indices of its points into a value table.
    Keyed by the canonical direction (see `_lines`)."""
    return tuple((line[0], tuple(point_index(p, x) for x in line))
                 for line in enumerate_lines(p, n, direction))


def _lines(p: int, n: int, direction: Point) -> Tuple[Tuple[Point, Tuple[int, ...]], ...]:
    """Every line of (Z_p)^n parallel to the direction: (line[0], indices)."""
    return _line_kernel(p, n, normalize_coords(p, direction))


def points_collinear(p: int, pts: Sequence[Point]) -> bool:
    """All points on one affine line of (Z_p)^m (where m = len of each point)."""
    first = pts[0]
    if len(first) == 2:
        # the plane case runs in the scalar-rigidity searches' inner loop:
        # (ex, ey) is the first nonzero difference from the first point
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
    d0: Optional[Point] = None
    for q in pts[1:]:
        d = tuple((a - b) % p for a, b in zip(q, first))
        if all(c == 0 for c in d):
            continue
        if d0 is None:
            d0 = d
            continue
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                if (d0[i] * d[j] - d0[j] * d[i]) % p:
                    return False
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
        return {"ok": self.ok,
                "violations": [{"direction": list(v.direction),
                                "base": list(v.base),
                                "reason": v.reason} for v in self.violations]}


def check_family(table: FiniteMapTable, fam: LineFamily, mode: str = "onto") -> FamilyReport:
    """Does the table map every line of the family into/onto a line?

    onto: the image of each family line is exactly a full line of (Z_p)^m.
    into: the image merely lies inside some line (collapses allowed).
    """
    if mode not in ("into", "onto"):
        raise InputError(f"mode must be 'into' or 'onto', got {mode!r}")
    if fam.n != table.n:
        raise InputError("family dimension != table dimension")
    p, values = table.p, table.values
    onto = mode == "onto"
    violations: List[Violation] = []
    for d in _family_directions_mod(fam, p):
        for base, idx in _lines(p, table.n, d):
            images = [values[i] for i in idx]
            if not points_collinear(p, images):
                violations.append(Violation(d, base, "not-a-line"))
            elif onto and len(set(images)) < p:
                violations.append(Violation(d, base, "not-onto"))
    return FamilyReport(not violations, tuple(violations))


def _parallel_violations(table: FiniteMapTable, fam: LineFamily) -> Optional[Tuple[Violation, ...]]:
    """One pass over the family lines of an injective table: None as soon as
    a line is not mapped onto a line (for an injective table, onto = into),
    else the lines whose image is not parallel to the image of the first line
    of their direction."""
    if fam.n != table.n:
        raise InputError("family dimension != table dimension")
    p, values = table.p, table.values
    gf = PrimeField(p)
    violations: List[Violation] = []
    for d in _family_directions_mod(fam, p):
        ref: Optional[Point] = None
        for base, idx in _lines(p, table.n, d):
            images = [values[i] for i in idx]
            if not points_collinear(p, images):
                return None
            delta = tuple((a - b) % p for a, b in zip(images[1], images[0]))
            if ref is None:
                ref = delta
            elif not vectors_parallel(gf, ref, delta):
                violations.append(Violation(d, base, "not-parallel"))
    return tuple(violations)


def parallelism_report(table: FiniteMapTable, fam: LineFamily) -> FamilyReport:
    """Within each direction, do all family lines have parallel images?"""
    if not table.is_injective():
        raise InputError("parallelism check needs an injective table")
    violations = _parallel_violations(table, fam)
    if violations is None:
        raise InputError("parallelism check requires the onto check to pass first")
    return FamilyReport(not violations, violations)


def check_parallelism(table: FiniteMapTable, fam: LineFamily) -> bool:
    return parallelism_report(table, fam).ok


def _diagonal_hypothesis(table: FiniteMapTable, fam: LineFamily) -> Tuple[List[Point], Optional[str]]:
    """The family's directions mod p and the first hypothesis of the
    diagonal-form lemma that the table fails (None when it meets them all):
    n independent directions, injective, every family line onto a line,
    parallel family lines onto parallel lines."""
    p, n = table.p, table.n
    dirs = _family_directions_mod(fam, p)
    if len(dirs) != n:
        raise InputError(f"need exactly n={n} directions, got {len(dirs)}")
    if rank_of_vectors(PrimeField(p), dirs) != n:
        return dirs, "directions are not linearly independent"
    if not table.is_injective():
        return dirs, "table is not injective"
    violations = _parallel_violations(table, fam)
    if violations is None:
        return dirs, "a family line is not mapped onto a line"
    if violations:
        return dirs, "parallel family lines have non-parallel images"
    return dirs, None


def _from_origin(table: FiniteMapTable) -> Tuple[Point, Callable[[Point], Point]]:
    """F(0) and the map x -> F(x) - F(0) (mod p) of the table."""
    p = table.p
    base = table.apply((0,) * table.n)

    def g(x: Point) -> Point:
        return tuple((a - b) % p for a, b in zip(table.apply(x), base))

    return base, g


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
        return {"ok": self.ok, "hypothesis_ok": self.hypothesis_ok,
                "failure": self.failure, "k": self.k}


def _span_points(p: int, vecs: Sequence[Point], m: int) -> set:
    pts = set()
    for coeffs in itertools.product(range(p), repeat=len(vecs)):
        pts.add(tuple(sum(c * v[i] for c, v in zip(coeffs, vecs)) % p
                      for i in range(m)))
    return pts


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
    gf = PrimeField(p)
    _base, g = _from_origin(table)
    gv = [g(v) for v in dirs]
    for k in range(2, n + 1):
        if rank_of_vectors(gf, gv[:k]) != k:
            return SpanInvariantReport(False, True, "images of the directions are dependent", k)
        lhs = {g(x) for x in _span_points(p, dirs[:k], n)}
        rhs = _span_points(p, gv[:k], m)
        if lhs != rhs:
            return SpanInvariantReport(False, True, "image of span != span of images", k)
        offset_dom, offset_img = dirs[k - 1], gv[k - 1]
        lhs = {g(tuple((offset_dom[i] + y[i]) % p for i in range(n)))
               for y in _span_points(p, dirs[:k - 1], n)}
        rhs = {tuple((offset_img[i] + w[i]) % p for i in range(m))
               for w in _span_points(p, gv[:k - 1], m)}
        if lhs != rhs:
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

    @property
    def n(self) -> int:
        return len(self.u)

    @property
    def m(self) -> int:
        return len(self.base)

    @cached_property
    def _u_inverse(self) -> Matrix:
        """The inverse of the matrix with columns u, taking x to its alphas."""
        u_cols = Matrix(PrimeField(self.p), tuple(zip(*self.u)))
        return inverse(u_cols)

    def apply(self, x: Sequence[int]) -> Point:
        alpha = mat_vec(self._u_inverse, tuple(int(c) % self.p for c in x))
        return self._from_alpha(alpha)

    def _from_alpha(self, alpha: Sequence[int]) -> Point:
        out = list(self.base)
        for i, a in enumerate(alpha):
            fi = self.f[i][a]
            for j in range(self.m):
                out[j] = (out[j] + fi * self.w[i][j]) % self.p
        return tuple(out)

    def to_json(self) -> dict:
        return {"p": self.p, "u": [list(v) for v in self.u],
                "w": [list(v) for v in self.w],
                "f": [list(t) for t in self.f], "base": list(self.base)}


def tabulate_diagonal_form(form: DiagonalForm) -> FiniteMapTable:
    u_inv = form._u_inverse
    values = []
    for x in grid_points(form.p, form.n):
        values.append(form._from_alpha(mat_vec(u_inv, x)))
    return FiniteMapTable(form.p, form.n, form.m, tuple(values))


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
    p = table.p
    dirs, failure = _diagonal_hypothesis(table, fam)
    if failure is not None:
        raise InputError(failure)
    base, g = _from_origin(table)
    w = tuple(g(v) for v in dirs)
    f = []
    for i, v in enumerate(dirs):
        fi = []
        for a in range(p):
            fi.append(_scalar_along(p, g(tuple(a * c % p for c in v)), w[i]))
        f.append(tuple(fi))
    form = DiagonalForm(p, tuple(dirs), w, tuple(f), base)
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
        s, t = int(x[0]) % self.p, int(x[1]) % self.p
        fs, gt = self.f[s], self.g[t]
        return tuple((self.base[j] + fs * self.u1[j] + gt * self.u2[j]
                      + fs * gt * self.u3[j]) % self.p for j in range(self.m))

    def to_json(self) -> dict:
        return {"p": self.p, "u1": list(self.u1), "u2": list(self.u2),
                "u3": list(self.u3), "f": list(self.f), "g": list(self.g),
                "base": list(self.base),
                "cross_term_vanishes": self.cross_term_vanishes}


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
    if not check_family(table, standard_family(PrimeField(p), 2), "onto").ok:
        raise InputError("an axis-parallel line is not mapped onto a line")

    base, g_ = _from_origin(table)
    u1, u2 = g_((1, 0)), g_((0, 1))
    u12 = g_((1, 1))
    u3 = tuple((u12[j] - u1[j] - u2[j]) % p for j in range(table.m))
    f = tuple(_scalar_along(p, g_((s, 0)), u1) for s in range(p))
    g = tuple(_scalar_along(p, g_((0, t)), u2) for t in range(p))
    form = PlaneForm(p, u1, u2, u3, f, g, base)
    for x in grid_points(p, 2):
        if form.apply(x) != table.apply(x):
            raise InternalInconsistencyError("recovered plane form does not reproduce the table")
    return form


# ===========================================================================
# exhaustive search over all bijections of the grid
# ===========================================================================

def exhaustive_bijection_search(p: int, n: int, fam: LineFamily,
                                mode: str = "onto",
                                max_points: int = 9) -> List[FiniteMapTable]:
    """All bijections of (Z_p)^n sending every family line onto a line.

    The permutation tree is walked in lexicographic order of the value table
    and pruned as soon as a completed line has a non-collinear image, which
    keeps the default 9!-size search (p=3, n=2) comfortable.  For bijections
    the into and onto modes coincide (p distinct collinear points fill their
    line), so the mode argument only validates the caller's intent.
    """
    if mode not in ("into", "onto"):
        raise InputError(f"mode must be 'into' or 'onto', got {mode!r}")
    PrimeField(p)
    total = p ** n
    if total > max_points:
        raise ResourceError(
            f"{total}! candidate bijections exceed the search guard "
            f"(grid of {total} > {max_points} points)")
    points = list(grid_points(p, n))
    if fam.n != n:
        raise InputError("family dimension != n")

    # lines as index tuples, grouped by the position at which they complete
    finishers: List[List[Tuple[int, ...]]] = [[] for _ in range(total)]
    for d in _family_directions_mod(fam, p):
        for _base, idx in _lines(p, n, d):
            finishers[max(idx)].append(idx)

    collinear_cache: Dict[Tuple[Point, ...], bool] = {}

    def images_collinear(pts: List[Point]) -> bool:
        key = tuple(sorted(pts))
        hit = collinear_cache.get(key)
        if hit is None:
            hit = points_collinear(p, key)
            collinear_cache[key] = hit
        return hit

    assign = [0] * total
    used = [False] * total
    results: List[FiniteMapTable] = []

    def descend(i: int):
        if i == total:
            results.append(FiniteMapTable(
                p, n, n, tuple(points[assign[j]] for j in range(total))))
            return
        for v in range(total):
            if used[v]:
                continue
            assign[i] = v
            ok = True
            for line in finishers[i]:
                if not images_collinear([points[assign[j]] for j in line]):
                    ok = False
                    break
            if ok:
                used[v] = True
                descend(i + 1)
                used[v] = False

    descend(0)
    return results
