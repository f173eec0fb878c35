"""Exact scalars (arbitrary-precision rationals, prime fields Z_p with p odd)
and dense exact linear algebra: RREF, rank, solve, nullspace, independence.

Everything here is a pure function over immutable values.  No floats, ever:
rationals are `fractions.Fraction` (canonical lowest terms), prime-field
elements are plain ints reduced to 0..p-1.  All equality is exact equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple, Union


class InputError(ValueError):
    """Malformed or inconsistent input (dimension/field mismatch, bad flags)."""


class ResourceError(RuntimeError):
    """A size/budget guard tripped before any heavy computation started."""


class InternalInconsistencyError(RuntimeError):
    """A verified precondition later failed; signals a checker bug, not bad input."""


Scalar = Union[Fraction, int]
Vector = Tuple[Scalar, ...]


# Miller-Rabin with the first 13 primes as bases is exact below the least
# strong pseudoprime to all of them, psi_13 (Sorenson and Webster, 2017).
# The first 12 bases alone pass psi_12 = 318665857834031151167461, which is
# composite.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981  # psi_13


def _is_prime(p: int) -> bool:
    """Deterministic primality test; ResourceError where it is not exact."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    if p >= _MR_BOUND:
        raise ResourceError(f"primality of {p} is only decided below {_MR_BOUND}")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field Q.  Elements are Fraction values in lowest terms."""

    kind = "rational"

    def convert(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise InputError(f"cannot coerce {x!r} into Q")

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / b

    def is_zero(self, a) -> bool:
        return a == 0

    def contains(self, a) -> bool:
        return isinstance(a, Fraction)

    def iter_elements(self):
        raise InputError("Q is not enumerable")

    def to_json(self, a) -> str:
        return str(a)

    def parse(self, s) -> Fraction:
        if isinstance(s, str):
            return Fraction(s)
        if isinstance(s, int):
            return Fraction(s)
        raise InputError(f"bad rational literal {s!r}")

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """Z_p for an odd prime p.  Elements are ints in 0..p-1.

    p = 2 is rejected: the plane-form recovery needs at least three parallel
    lines per direction, and the whole toolkit follows that convention.
    """

    kind = "prime"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise InputError(f"{p} is not prime")
        if p == 2:
            raise InputError("p = 2 is not supported (need at least three parallel lines)")
        self.p = p

    def convert(self, x) -> int:
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise InputError(f"denominator of {x} vanishes mod {self.p}")
            return (x.numerator % self.p) * pow(den, self.p - 2, self.p) % self.p
        raise InputError(f"cannot coerce {x!r} into Z_{self.p}")

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def contains(self, a) -> bool:
        return isinstance(a, int) and 0 <= a < self.p

    def iter_elements(self):
        return range(self.p)

    def to_json(self, a) -> int:
        return a % self.p

    def parse(self, s) -> int:
        if isinstance(s, int):
            return s % self.p
        if isinstance(s, str):
            return int(s) % self.p
        raise InputError(f"bad prime-field literal {s!r}")

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"GF({self.p})"


Field = Union[Rationals, PrimeField]

QQ = Rationals()


def field_from_json(obj) -> Field:
    if not isinstance(obj, dict) or "type" not in obj:
        raise InputError(f"bad field spec {obj!r}")
    if obj["type"] == "rational":
        return QQ
    if obj["type"] == "prime":
        return PrimeField(int(obj["p"]))
    raise InputError(f"unknown field type {obj['type']!r}")


def field_to_json(field: Field) -> dict:
    if isinstance(field, Rationals):
        return {"type": "rational"}
    return {"type": "prime", "p": field.p}


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def vector(field: Field, entries: Iterable) -> Vector:
    return tuple(field.convert(x) for x in entries)

def vec_add(field: Field, a: Vector, b: Vector) -> Vector:
    return tuple(field.add(x, y) for x, y in zip(a, b))

def vec_sub(field: Field, a: Vector, b: Vector) -> Vector:
    return tuple(field.sub(x, y) for x, y in zip(a, b))

def vec_scale(field: Field, c: Scalar, a: Vector) -> Vector:
    return tuple(field.mul(c, x) for x in a)

def vec_neg(field: Field, a: Vector) -> Vector:
    return tuple(field.neg(x) for x in a)

def vec_is_zero(field: Field, a: Vector) -> bool:
    return all(field.is_zero(x) for x in a)

def zero_vector(field: Field, n: int) -> Vector:
    return (field.zero(),) * n

def unit_vector(field: Field, n: int, i: int) -> Vector:
    e = [field.zero()] * n
    e[i] = field.one()
    return tuple(e)


def normalize_coords(p: int, raw: Sequence[int]) -> Tuple[int, ...]:
    """Residues mod p, scaled so that the first nonzero entry is 1."""
    c = [int(x) % p for x in raw]
    for pivot in c:
        if pivot:
            break
    else:
        raise InputError("homogeneous coordinates must not all vanish")
    if pivot == 1:
        return tuple(c)
    inv = pow(pivot, p - 2, p)
    return tuple([x * inv % p for x in c])


def vectors_parallel(field: Field, a: Vector, b: Vector) -> bool:
    """True iff a and b span the same 1-dim subspace or one of them is zero."""
    for i, j in itertools.combinations(range(len(a)), 2):
        if not field.is_zero(field.sub(field.mul(a[i], b[j]), field.mul(a[j], b[i]))):
            return False
    return True


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Matrix:
    """Dense exact matrix.  All entries are elements of `field`."""

    field: Field
    rows: Tuple[Vector, ...]

    def __post_init__(self):
        if not self.rows or not self.rows[0]:
            raise InputError("matrix must have at least one row and one column")
        ncols = len(self.rows[0])
        for r in self.rows:
            if len(r) != ncols:
                raise InputError("ragged matrix rows")
            for x in r:
                if not self.field.contains(x):
                    raise InputError(f"entry {x!r} is not an element of {self.field}")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def row(self, i: int) -> Vector:
        return self.rows[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, tuple(zip(*self.rows)))


def matrix(field: Field, rows: Sequence[Sequence]) -> Matrix:
    return Matrix(field, tuple(vector(field, r) for r in rows))


def identity_matrix(field: Field, n: int) -> Matrix:
    return Matrix(field, tuple(unit_vector(field, n, i) for i in range(n)))


def mat_vec(m: Matrix, x: Vector) -> Vector:
    if len(x) != m.ncols:
        raise InputError("matrix/vector size mismatch")
    F = m.field
    out = []
    for r in m.rows:
        s = F.zero()
        for a, b in zip(r, x):
            s = F.add(s, F.mul(a, b))
        out.append(s)
    return tuple(out)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.ncols != b.nrows or a.field != b.field:
        raise InputError("matrix product size/field mismatch")
    bt = b.transpose()
    F = a.field
    rows = []
    for r in a.rows:
        row = []
        for c in bt.rows:
            s = F.zero()
            for x, y in zip(r, c):
                s = F.add(s, F.mul(x, y))
            row.append(s)
        rows.append(tuple(row))
    return Matrix(F, tuple(rows))


@dataclass(frozen=True)
class RrefResult:
    matrix: Matrix
    rank: int
    pivots: Tuple[int, ...]


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form (Gauss-Jordan with exact arithmetic)."""
    F = m.field
    rows = [list(r) for r in m.rows]
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if not F.is_zero(rows[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and not F.is_zero(rows[i][c]):
                factor = rows[i][c]
                rows[i] = [F.sub(x, F.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return RrefResult(Matrix(F, tuple(tuple(row) for row in rows)), r, tuple(pivots))


def nullspace(m: Matrix) -> list:
    """Basis of {x : m.x = 0}, one vector per free column, in column order.

    The basis vector for free column j has entry 1 at j and the negated
    reduced-row values at the pivot columns; this canonical order is relied
    on by deterministic constructions downstream.
    """
    F = m.field
    red = rref(m)
    pivot_set = set(red.pivots)
    free_cols = [c for c in range(m.ncols) if c not in pivot_set]
    basis = []
    for j in free_cols:
        v = [F.zero()] * m.ncols
        v[j] = F.one()
        for i, pc in enumerate(red.pivots):
            v[pc] = F.neg(red.matrix.rows[i][j])
        basis.append(tuple(v))
    return basis


def solve(m: Matrix, rhs: Vector) -> Optional[Vector]:
    """One exact solution of m.x = rhs (free variables set to 0), or None."""
    if len(rhs) != m.nrows:
        raise InputError("rhs length mismatch")
    F = m.field
    aug = Matrix(F, tuple(r + (b,) for r, b in zip(m.rows, rhs)))
    red = rref(aug)
    if m.ncols in red.pivots:
        return None  # a pivot in the rhs column: inconsistent
    x = [F.zero()] * m.ncols
    for i, pc in enumerate(red.pivots):
        x[pc] = red.matrix.rows[i][m.ncols]
    return tuple(x)


def rank_of_vectors(field: Field, vectors_: Sequence[Vector]) -> int:
    vs = [v for v in vectors_ if not vec_is_zero(field, v)]
    if not vs:
        return 0
    return rref(Matrix(field, tuple(vs))).rank


def inverse(m: Matrix) -> Matrix:
    if m.nrows != m.ncols:
        raise InputError("only square matrices invert")
    F = m.field
    n = m.nrows
    aug = Matrix(F, tuple(r + unit_vector(F, n, i) for i, r in enumerate(m.rows)))
    red = rref(aug)
    if red.rank < n or red.pivots[:n] != tuple(range(n)):
        raise InputError("matrix is singular")
    return Matrix(F, tuple(r[n:] for r in red.matrix.rows))


def is_invertible(m: Matrix) -> bool:
    return m.nrows == m.ncols and rref(m).rank == m.nrows


def is_j_independent(field: Field, vectors_: Sequence[Vector], j: int) -> bool:
    """True iff every size-j subset of the vectors is linearly independent."""
    if not vectors_:
        raise InputError("need at least one vector")
    n = len(vectors_[0])
    if not 1 <= j <= min(n, len(vectors_)):
        raise InputError(f"j={j} out of range for {len(vectors_)} vectors in dim {n}")
    for v in vectors_:
        if len(v) != n:
            raise InputError("mixed vector dimensions")
    for subset in itertools.combinations(vectors_, j):
        if rank_of_vectors(field, subset) != j:
            return False
    return True
