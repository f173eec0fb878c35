"""The grid (Z_p)^n that every finite oracle runs on.

Points of the grid in lexicographic order and their flat indices, the one
builder of affine-form columns over the grid and the one reader of digits
across columns, families of lines parallel to finitely many directions, value
tables of maps on the grid, the lines of one direction as flat indices into a
value table, the incidence structure of AG(n,p) and PG(n,p), and the one
backtracking search kernel.  Only `exact` is imported, so every module that
uses the grid sits above it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, List, Sequence, Tuple

from .exact import (
    Field, InputError, PrimeField, QQ, ResourceError, Vector, _to_json, _trusted, exact_int,
    normalize_coords, unit_vector, vector, vectors_parallel,
)

Point = Tuple[int, ...]


# ===========================================================================
# points of the grid
# ===========================================================================

DEFAULT_POINT_BUDGET = 10 ** 6


def _grid_size(p: int, n: int) -> int:
    """p^n, or a ResourceError naming p and n when it passes the point budget.
    p^n > 2^n, so once n reaches the budget's bit length no power is built."""
    if n >= DEFAULT_POINT_BUDGET.bit_length() or p ** n > DEFAULT_POINT_BUDGET:
        raise ResourceError(f"a grid of {p}^{n} points exceeds the point budget "
                            f"of {DEFAULT_POINT_BUDGET} points")
    return p ** n


def grid_points(p: int, n: int):
    """All of (Z_p)^n in lexicographic order (first coordinate most significant)."""
    return itertools.product(range(p), repeat=n)


def point_index(p: int, point: Sequence[int]) -> int:
    idx = 0
    for x in point:
        idx = idx * p + x % p
    return idx


def _form_columns(p: int, rows: Sequence[Sequence[int]], consts: Sequence[int]) -> List[List[int]]:
    """For each row of residues and its residue constant b, the values of
    b + sum_k row[k] x_k mod p at the points x of (Z_p)^len(row), in
    lexicographic order.  Each column is grown one coordinate at a time: an
    entry c becomes the p entries c + a t mod p, t in Z_p, for a = row[k].
    The multiples a t are read off a range, unreduced, so no table of
    multiples is built or kept, however large p is."""
    columns = []
    for row, b in zip(rows, consts):
        column = [b]
        for a in row:
            shifts = range(0, a * p, a) if a else [0] * p
            column = [(c + s) % p for c in column for s in shifts]
        columns.append(column)
    return columns


def _horner(radix: int, columns: Sequence[Sequence[int]]) -> List[int]:
    """The ints whose digits in the radix, most significant first, are read
    across the (at least one) columns.  At radix p the columns of points are
    their flat indices."""
    codes = list(columns[0])
    for column in columns[1:]:
        codes = [c * radix + y for c, y in zip(codes, column)]
    return codes


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
        if not dirs:
            raise InputError("a family needs at least one direction")
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                if vectors_parallel(self.field, dirs[i], dirs[j]):
                    raise InputError("family directions must be pairwise non-parallel")
        object.__setattr__(self, "directions", tuple(dirs))

    @property
    def k(self) -> int:
        return len(self.directions)


def standard_family(field: Field, n: int, with_diagonal: bool = False) -> LineFamily:
    """L(e_1, ..., e_n) or L(e_1, ..., e_n, e_1+...+e_n).

    For n >= 2 these directions are pairwise non-parallel over every field
    (the supports differ), so the family is built without the constructor's
    pairwise test; at n = 1 the diagonal is e_1, which the constructor refuses."""
    dirs = [unit_vector(field, n, i) for i in range(n)]
    if with_diagonal:
        dirs.append((field.one(),) * n)
    if n >= 2:
        return _trusted(LineFamily, field, n, tuple(dirs))
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
        # p^n > 2^n > the count once n passes its bit length: p**n is never built for a huge n
        if self.n > len(self.values).bit_length() or len(self.values) != self.p ** self.n:
            raise InputError(f"expected p^n = {self.p}^{self.n} values, got {len(self.values)}")
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
        return self.values[point_index(self.p, _grid_point(self.p, self.n, point))]

    def is_injective(self) -> bool:
        # remembered in the instance dict, as `_walk`'s line walks are: a
        # frozen dataclass compares, hashes and prints its fields only, so
        # neither memo changes ==, hash or repr.  A plain dict read, not a
        # cached_property: the searches build thousands of tables to ask once
        memo = self.__dict__
        injective = memo.get("_injective")
        if injective is None:
            injective = memo["_injective"] = len(set(self.values)) == len(self.values)
        return injective

    def is_bijection(self) -> bool:
        return self.m == self.n and self.is_injective()


def _grid_point(p: int, n: int, point: Sequence[int]) -> Point:
    """The point of (Z_p)^n given by n exact ints, each reduced mod p: a
    float, bool or str coordinate is rejected, never truncated or coerced."""
    if len(point) != n:
        raise InputError("point length != n")
    return tuple(exact_int(c, "point coordinate") % p for c in point)


def table_from_function(p: int, n: int, m: int, fn: Callable[[Point], Sequence[int]]) -> FiniteMapTable:
    PrimeField(p)  # validates p before the grid is walked
    _grid_size(p, n)
    values = []
    for x in grid_points(p, n):
        y = tuple(exact_int(c, "function value") % p for c in fn(x))
        if len(y) != m:
            raise InputError("function returned a value of the wrong length")
        values.append(y)
    return FiniteMapTable(p, n, m, tuple(values))


def table_to_json(table: FiniteMapTable) -> dict:
    return _to_json(table)


def table_from_json(obj: dict) -> FiniteMapTable:
    try:
        return FiniteMapTable(exact_int(obj["p"], "p"), exact_int(obj["n"], "n"),
                              exact_int(obj["m"], "m"), tuple(tuple(v) for v in obj["values"]))
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad table JSON: {exc}") from exc


# ===========================================================================
# the lines of one direction, and the incidence structure of a geometry
# ===========================================================================

def _direction_lines(p: int, n: int, d: Point) -> Tuple[Tuple[Point, Tuple[int, ...]], ...]:
    """The lines of (Z_p)^n in the direction d, residues with a leading 1 at
    i0: for each base point a with a[i0] = 0, in lexicographic order, a and
    the flat indices of a + t d, t = 0, ..., p - 1, which come sorted.  Each
    coordinate of a + t d is a form in t (least significant) and the other
    coordinates of a, so one `_form_columns` call gives every index."""
    i0 = d.index(1)
    rows = [[int(k == i) for k in range(n) if k != i0] + [c] for i, c in enumerate(d)]
    idx = iter(_horner(p, _form_columns(p, rows, [0] * n)))
    bases = (rest[:i0] + (0,) + rest[i0:] for rest in grid_points(p, n - 1))
    return tuple(zip(bases, zip(*[idx] * p)))


# A cached direction holds about 80 bytes per grid point.  The bound keeps
# every direction of perfbench's families (28 keys in its grid-oracle
# workload) and caps what a family with many directions can pin.  Whole
# geometries are built from `_direction_lines` itself, and evict none.
_line_kernel = lru_cache(maxsize=32)(_direction_lines)


def enumerate_lines(p: int, n: int, direction: Sequence[int]) -> List[List[Point]]:
    """Partition (Z_p)^n into the p^{n-1} lines with the given direction, each
    its sorted point list, in the order of their base points.  A grid past the
    point budget raises ResourceError."""
    PrimeField(p)
    _grid_size(p, n)
    b = _grid_point(p, n, direction)
    if all(c == 0 for c in b):
        raise InputError("direction must be nonzero")
    points = list(grid_points(p, n))
    return [[points[x] for x in idx]
            for _base, idx in _direction_lines(p, n, normalize_coords(p, b))]


class _Incidence:
    """A finite geometry on the point ids 0, ..., size - 1: its lines as
    sorted id tuples, held once, and each point's pencil, the lines through
    it in the order the builder gave them."""

    def __init__(self, size: int, lines: Iterable[Tuple[int, ...]]):
        pencils: List[List[Tuple[int, ...]]] = [[] for _ in range(size)]
        for line in lines:
            for x in line:
                pencils[x].append(line)
        # read off the pencils, so a builder may yield its lines once
        self.lines = frozenset(itertools.chain.from_iterable(pencils))
        self.pencils = tuple(map(tuple, pencils))

    def is_line(self, ids: Iterable[int]) -> bool:
        """Are these ids, in any order, the points of one line?"""
        return tuple(sorted(ids)) in self.lines


@lru_cache(maxsize=8)
def _affine_incidence(p: int, n: int) -> _Incidence:
    """AG(n,p) on the flat indices, for the small grids of the searches and
    the plane lemmas.  Its p^(n-1) (p^n - 1)/(p - 1) lines come direction by
    direction, scaled to a leading 1 in lexicographic order ((0,1), (1,0),
    ..., (1,p-1) in the plane), each direction's in `_direction_lines` order."""
    return _Incidence(p ** n, (idx for d in grid_points(p, n)
                               if any(d) and normalize_coords(p, d) == d
                               for _base, idx in _direction_lines(p, n, d)))


# ===========================================================================
# the exhaustive search kernel
# ===========================================================================

# A search that would pass this many nodes raises a ResourceError.  A node is
# a value examined at a slot, free or not, so the time to trip is bounded: about
# 0.3 s at p=5, n=2.  A result a caller expands into tables costs one node per
# table.  It is the one guard of `exhaustive_bijection_search`, which first
# refuses a grid whose |AGL(n, p)| passes it, as every affine map survives; that
# admits n = 1 up to p = 997, (Z_p)^2 up to p = 7, and (Z_3)^3.  Pinned up to
# AGL(n, p), one direction at p=3, n=2 takes 1,108 nodes for its 72 pinned
# survivors and 5,184 for their tables (102,474 nodes without the pin).  The
# scalar lemmas charge their closed-form work to it as well: the pair checks
# of the multiplicative lemma and the p^6 lookups of the additive one.
SEARCH_NODE_BUDGET = 10 ** 6


def _charge(nodes: int) -> int:
    """The nodes spent so far, or a ResourceError once they pass the budget."""
    if nodes > SEARCH_NODE_BUDGET:
        raise ResourceError(f"search passed its budget of {SEARCH_NODE_BUDGET} nodes")
    return nodes


def _backtrack(domains: Sequence[Sequence[int]],
               constraints: Sequence[Tuple[Sequence[int], object]],
               accept: Callable[[List[int], object], bool],
               result_cost: int = 0) -> List[Tuple[int, ...]]:
    """Every assignment a of pairwise distinct values to the slots, a[i] from
    domains[i], with accept(a, item) for each (slots, item) constraint; sorted.

    Slots are filled in the order the constraints first name them, then the
    slots no constraint names; a constraint is checked as soon as its last
    slot is filled.  The walk keeps its own stack of domain iterators.  Each
    result costs result_cost nodes on top of the values examined, so work a
    caller does per result is refused before it starts."""
    order = list(dict.fromkeys(itertools.chain(
        (s for slots, _item in constraints for s in slots), range(len(domains)))))
    depth = {s: d for d, s in enumerate(order)}
    checks: List[list] = [[] for _ in order]
    for slots, item in constraints:
        checks[max(depth[s] for s in slots)].append(item)
    a: list = [None] * len(order)
    used, results, stack = set(), [], []
    nodes = d = 0
    while d >= 0:
        if len(stack) == d:  # a slot's iterator always runs out: count its values now
            nodes = _charge(nodes + len(domains[order[d]]))
            stack.append(iter(domains[order[d]]))
        slot = order[d]
        used.discard(a[slot])
        for v in stack[d]:
            if v not in used:
                a[slot] = v
                for item in checks[d]:
                    if not accept(a, item):
                        break
                else:
                    break  # every constraint completed at this slot holds
        else:
            a[slot] = None
            stack.pop()
            d -= 1
            continue
        if d + 1 == len(order):
            results.append(tuple(a))
            nodes = _charge(nodes + result_cost)
        else:
            used.add(v)
            d += 1
    return sorted(results)
