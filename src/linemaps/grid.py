"""The grid (Z_p)^n that every finite oracle runs on.

Points of the grid in lexicographic order and their flat indices, families of
lines parallel to finitely many directions, value tables of maps on the grid,
the partition of the grid into the lines of one direction (kept as flat
indices into a value table), and the one backtracking search kernel.  Only
`exact` is imported, so every module that uses the grid sits above this one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Sequence, Tuple

from .exact import (
    Field, InputError, PrimeField, QQ, ResourceError, Vector, _to_json, exact_int,
    normalize_coords, unit_vector, vector, vectors_parallel,
)

Point = Tuple[int, ...]


# ===========================================================================
# points of the grid
# ===========================================================================

DEFAULT_POINT_BUDGET = 10 ** 6


def _grid_size(p: int, n: int, budget: int, guard: str) -> int:
    """p^n, or a ResourceError naming p and n when it passes the budget.
    p^n > 2^n, so once n reaches the budget's bit length no power is built."""
    if n >= budget.bit_length() or p ** n > budget:
        raise ResourceError(f"a grid of {p}^{n} points exceeds the {guard} of {budget} points")
    return p ** n


def grid_points(p: int, n: int):
    """All of (Z_p)^n in lexicographic order (first coordinate most significant)."""
    point = [0] * n
    while True:
        yield tuple(point)
        i = n - 1
        while i >= 0 and point[i] == p - 1:
            point[i] = 0
            i -= 1
        if i < 0:
            return
        point[i] += 1


def point_index(p: int, point: Sequence[int]) -> int:
    idx = 0
    for x in point:
        idx = idx * p + x % p
    return idx


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
    _grid_size(p, n, DEFAULT_POINT_BUDGET, "point budget")
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


def _unchecked_table(p: int, n: int, m: int, values: Tuple[Point, ...]) -> FiniteMapTable:
    """A FiniteMapTable of a map (Z_p)^n -> (Z_p)^m whose values are residue
    points by construction: built without __post_init__'s check per entry."""
    table = object.__new__(FiniteMapTable)
    for name, value in (("p", p), ("n", n), ("m", m), ("values", values)):
        object.__setattr__(table, name, value)
    return table


# ===========================================================================
# the lines of one direction
# ===========================================================================

def enumerate_lines(p: int, n: int, direction: Sequence[int]) -> List[List[Point]]:
    """Partition (Z_p)^n into the p^{n-1} lines with the given direction.

    Each line is returned as its sorted point list; the list of lines is
    ordered by the hyperplane representative used to generate it.
    """
    PrimeField(p)
    b = _grid_point(p, n, direction)
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


def _plane_directions(p: int) -> List[Point]:
    """The p+1 directions of (Z_p)^2 up to scaling: (0,1), (1,0), ..., (1,p-1)."""
    return [(0, 1)] + [(1, t) for t in range(p)]


def _plane_pencil(p: int, c: Point) -> List[List[Point]]:
    """The p+1 lines of (Z_p)^2 through c, one per direction of
    `_plane_directions`, each as its sorted points."""
    i = point_index(p, c)
    return [[divmod(j, p) for j in idx]
            for d in _plane_directions(p)
            for _base, idx in _lines(p, 2, d) if i in idx]


# ===========================================================================
# the exhaustive search kernel
# ===========================================================================

# A search that would pass this many nodes raises a ResourceError.  A node is
# a value examined at a slot, free or not, so the time to trip is bounded: about
# 0.3 s at p=5, n=2.  One direction at p=3, n=2 completes in 102,474 nodes.
SEARCH_NODE_BUDGET = 10 ** 6


def _backtrack(domains: Sequence[Sequence[int]],
               constraints: Sequence[Tuple[Sequence[int], object]],
               accept: Callable[[List[int], object], bool]) -> List[Tuple[int, ...]]:
    """Every assignment a of pairwise distinct values to the slots, a[i] from
    domains[i], with accept(a, item) for each (slots, item) constraint; sorted.

    Slots are filled in the order the constraints first name them, then the
    slots no constraint names; a constraint is checked as soon as its last
    slot is filled.  The walk keeps its own stack of domain iterators."""
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
            nodes += len(domains[order[d]])
            if nodes > SEARCH_NODE_BUDGET:
                raise ResourceError(f"search passed its budget of {SEARCH_NODE_BUDGET} nodes")
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
        else:
            used.add(v)
            d += 1
    return sorted(results)
