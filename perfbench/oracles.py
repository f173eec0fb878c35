"""Independent expectations: small exact computations written here, from the
mathematics, so that a verdict is never judged by the code that produced it.
Nothing in this file imports `linemaps`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, gcd
from typing import Dict, Iterable, List, Sequence, Tuple

Point = Tuple[int, ...]


def solution_dimension(n: int) -> int:
    """Dimension of the constraint system's solution space, C(n+1, floor((n+1)/2))."""
    return comb(n + 1, (n + 1) // 2)


def constraint_row_count(n: int) -> int:
    """Rows of the paper's system: one per vanishing unknown (2|delta| >= n+2)
    and one per (k, S) with 2 <= k, 2k < n+2, |S| <= k-2."""
    vanish = sum(comb(n, k) for k in range(n + 1) if 2 * k >= n + 2)
    sums = sum(comb(n, l) for k in range(2, n + 1) if 2 * k < n + 2 for l in range(k - 1))
    return vanish + sums


def grid(p: int, n: int) -> Iterable[Point]:
    """(Z_p)^n in lexicographic order, first coordinate most significant."""
    return itertools.product(range(p), repeat=n)


def to_mod(x, p: int) -> int:
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


def rank_mod(rows: Sequence[Sequence[int]], p: int) -> int:
    m = [[c % p for c in r] for r in rows]
    rank, col, ncols = 0, 0, len(m[0]) if m else 0
    while rank < len(m) and col < ncols:
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [c * inv % p for c in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
        col += 1
    return rank


def random_invertible(rng, p: int, n: int) -> List[List[int]]:
    while True:
        a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if rank_mod(a, p) == n:
            return a


def tabulate_mod(coeffs: Dict[int, Sequence], p: int, n: int, m: int) -> Dict[Point, Point]:
    """All values of a multiaffine map {mask: rational coefficient vector} on (Z_p)^n."""
    reduced = [(mask, [to_mod(c, p) for c in u]) for mask, u in coeffs.items()]
    values = {}
    for x in grid(p, n):
        out = [0] * m
        for mask, u in reduced:
            prod = 1
            for i in range(n):
                if mask >> i & 1:
                    prod = prod * x[i] % p
            if prod:
                for j in range(m):
                    out[j] = (out[j] + prod * u[j]) % p
        values[x] = tuple(out)
    return values


def standard_directions(n: int) -> List[Point]:
    """The axes e_1..e_n and the main diagonal."""
    return [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(1,) * n]


def lines(p: int, n: int, d: Point) -> Iterable[List[Point]]:
    """The p^(n-1) lines of direction d, each as its p points."""
    i0 = next(i for i, c in enumerate(d) if c % p)
    for base in grid(p, n):
        if base[i0] == 0:
            yield [tuple((base[i] + t * d[i]) % p for i in range(n)) for t in range(p)]


def collinear(p: int, pts: Sequence[Point]) -> bool:
    first = pts[0]
    return rank_mod([[(a - b) % p for a, b in zip(q, first)] for q in pts[1:]], p) <= 1


def injective_and_onto(values: Dict[Point, Point], p: int, n: int) -> bool:
    """Injective, and every line of the standard family goes onto a line."""
    if len(set(values.values())) != len(values):
        return False
    for d in standard_directions(n):
        for line in lines(p, n, d):
            img = [values[x] for x in line]
            if len(set(img)) != p or not collinear(p, img):
                return False
    return True


def degree(coeffs: Dict[int, Sequence]) -> int:
    return max((mask.bit_count() for mask, u in coeffs.items() if any(u)), default=0)


# --- projective space PG(n, p) ---------------------------------------------

def normalize(p: int, c: Sequence[int]) -> Point:
    c = tuple(x % p for x in c)
    inv = pow(next(x for x in c if x), -1, p)
    return tuple(x * inv % p for x in c)


def pg_points(p: int, n: int) -> List[Point]:
    return sorted({normalize(p, c) for c in grid(p, n + 1) if any(c)})


def apply_matrix(p: int, a: Sequence[Sequence[int]], c: Point) -> Point:
    return normalize(p, [sum(r[k] * c[k] for k in range(len(c))) for r in a])


def normalize_matrix(p: int, a: Sequence[Sequence[int]]) -> Tuple[Point, ...]:
    """A matrix modulo scalars, scaled so its first nonzero entry (row-major) is 1."""
    inv = pow(next(x for r in a for x in r if x % p), -1, p)
    return tuple(tuple(x * inv % p for x in r) for r in a)


def pencil_size(p: int, n: int) -> int:
    """Lines through one point of PG(n, p)."""
    return (p ** n - 1) // (p - 1)


def line_count(p: int, n: int) -> int:
    """All lines of PG(n, p): the Gaussian binomial [n+1 choose 2]_p."""
    return (p ** (n + 1) - 1) * (p ** (n + 1) - p) // ((p * p - 1) * (p * p - p))


def transposition_violations(p: int, anchors: Sequence[Point], a: Point, b: Point) -> int:
    """Pencil lines, through the anchors, that a linear map with the images of
    a and b swapped no longer carries onto a line: the lines that hold exactly
    one of a and b."""
    total = 0
    for x in anchors:
        if x in (a, b):
            total += pencil_size(p, len(x) - 1) - 1
        elif rank_mod([x, a, b], p) == 3:
            total += 2
    return total


# --- scalar lemmas -----------------------------------------------------------

def power_map_exponents(p: int) -> Tuple[int, ...]:
    return tuple(k for k in range(1, p - 1) if gcd(k, p - 1) == 1)


def gl2_order(p: int) -> int:
    return (p * p - 1) * (p * p - p)


def agl_order(p: int, n: int) -> int:
    """|AGL(n, p)| = p^n |GL(n, p)|."""
    order = p ** n
    for i in range(n):
        order *= p ** n - p ** i
    return order


def axis_search_count(p: int) -> int:
    """Bijections of (Z_p)^2 carrying every e1-line onto a line: each of the p
    rows goes to a line, the p rows to p pairwise disjoint lines of one
    parallel class, in (p+1) * p! ways, and each row onto its image in p!
    ways.  At p = 3 this is 4 * 3! * (3!)^3 = 5184."""
    return (p + 1) * factorial(p) * factorial(p) ** p
