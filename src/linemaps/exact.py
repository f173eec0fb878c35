"""Exact scalars (arbitrary-precision rationals, prime fields Z_p with p odd)
and exact linear algebra: RREF, rank, solve, nullspace, independence.

Matrices are dense tuples, but every reduction runs through one sparse
integer elimination kernel (`_echelon`): rational rows are cleared of
denominators and updated fraction-free, prime-field rows are reduced mod p.
`nullspace` reads the integer echelon directly, making each distinct
rational quotient of an entry by its row's pivot once per call (`_Quotients`).

Everything here is a pure function over immutable values.  No floats, ever:
rationals are `fractions.Fraction` (canonical lowest terms), prime-field
elements are plain ints reduced to 0..p-1.  All equality is exact equality.

A field is its element type plus one reduction, `convert`.  Kernels combine
elements with +, - and *, leave the intermediate values unreduced (an int
over Q, an int of any size over Z_p), test them for zero only through
`is_zero`, and reduce each value once, through `convert`, before storing it.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union


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


# int <-> str conversion stops past 4300 digits, CPython's default limit, and
# Fraction builds 10**exponent before it reduces.  So a literal is measured by
# its text first: the digits it writes times a power of ten, over a power of
# ten, as Fraction parses it (a superset of its grammar; anything else is
# left to Fraction to refuse)
_MAX_DIGITS = 4300
_LITERAL = re.compile(
    r"\s*[-+]?(?=\d|\.\d)([\d_]*)(?:/([\d_]+)|(?:\.([\d_]*))?(?:[eE]([-+]?)([\d_]+))?)\s*")


def _literal_digits(text: str) -> int:
    """The most digits of an integer that Fraction builds from the literal,
    counted from its text without building one; 0 for any other text."""
    m = _LITERAL.fullmatch(text)
    if m is None:
        return 0
    num, den, dec, sign, exp = (g.replace("_", "") if g else "" for g in m.groups())
    exp = exp.lstrip("0")
    if len(exp) > 4:  # 10**exponent alone passes the limit
        return _MAX_DIGITS + 1
    e = int(sign + (exp or "0"))
    # 10**k has k + 1 digits
    return max(len(num) + len(dec) + max(e, 0), len(den), len(dec) + max(-e, 0) + 1)


def _fraction(text: str) -> Fraction:
    """Fraction(text), or an InputError for a literal past _MAX_DIGITS digits."""
    if _literal_digits(text) > _MAX_DIGITS:
        raise InputError(f"a literal of more than {_MAX_DIGITS} digits")
    return Fraction(text)


class Rationals:
    """The field Q.  Elements are Fraction values in lowest terms."""

    def convert(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return _fraction(x)
        raise InputError(f"cannot coerce {x!r} into Q")

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def contains(self, a) -> bool:
        return isinstance(a, Fraction)

    def to_json(self, a) -> str:
        return str(a)

    def parse(self, s) -> Fraction:
        if isinstance(s, str):
            return _fraction(s)
        if type(s) is int:
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

    def __init__(self, p: int):
        # exactly an int: a float p would pass the prime test and make floats
        # of field elements
        p = exact_int(p, "p")
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

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def contains(self, a) -> bool:
        return isinstance(a, int) and 0 <= a < self.p

    def to_json(self, a) -> int:
        return a % self.p

    def parse(self, s) -> int:
        if type(s) is int:
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


def exact_int(x, what: str) -> int:
    """x if it is exactly an int: a float, bool or str is rejected, never
    truncated or coerced."""
    if type(x) is not int:
        raise InputError(f"{what} {x!r} is not an int")
    return x


def field_from_json(obj) -> Field:
    if not isinstance(obj, dict) or "type" not in obj:
        raise InputError(f"bad field spec {obj!r}")
    if obj["type"] == "rational":
        return QQ
    if obj["type"] == "prime":
        return PrimeField(exact_int(obj["p"], "p"))
    raise InputError(f"unknown field type {obj['type']!r}")


def field_to_json(field: Field) -> dict:
    if isinstance(field, Rationals):
        return {"type": "rational"}
    return {"type": "prime", "p": field.p}


def _trusted(cls, *values):
    """cls from field values, in field order, valid by construction: no __post_init__."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__match_args__, values))
    return obj


def _to_json(value, *extra: str):
    """A report, form or table as JSON.  An int, bool, string or None is kept,
    a tuple becomes a list, and a dataclass becomes the dict of its fields,
    each converted in turn, and then of the named `extra` attributes."""
    if isinstance(value, (int, str)) or value is None:
        return value
    if isinstance(value, tuple):
        return list(map(_to_json, value))
    out = {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    out.update((name, getattr(value, name)) for name in extra)
    return out


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def vector(field: Field, entries: Iterable) -> Vector:
    return tuple(field.convert(x) for x in entries)

def vec_add(field: Field, a: Vector, b: Vector) -> Vector:
    return tuple([field.convert(x + y) for x, y in zip(a, b)])

def vec_scale(field: Field, c: Scalar, a: Vector) -> Vector:
    return tuple([field.convert(c * x) for x in a])

def vec_is_zero(field: Field, a: Vector) -> bool:
    return all(field.is_zero(x) for x in a)

def zero_vector(field: Field, n: int) -> Vector:
    return (field.zero(),) * n

def unit_vector(field: Field, n: int, i: int) -> Vector:
    e = [field.zero()] * n
    e[i] = field.one()
    return tuple(e)


def normalize_coords(p: int, raw: Sequence[int]) -> Tuple[int, ...]:
    """Residues mod p of exact ints, scaled so that the first nonzero entry is
    1: a float, bool or str coordinate is rejected, never truncated."""
    c = [x % p if type(x) is int else exact_int(x, "coordinate") for x in raw]
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
        if not field.is_zero(a[i] * b[j] - a[j] * b[i]):
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

    def transpose(self) -> "Matrix":
        return _trusted(Matrix, self.field, tuple(zip(*self.rows)))


def matrix(field: Field, rows: Sequence[Sequence]) -> Matrix:
    return Matrix(field, tuple(vector(field, r) for r in rows))


def identity_matrix(field: Field, n: int) -> Matrix:
    return Matrix(field, tuple(unit_vector(field, n, i) for i in range(n)))


def mat_vec(m: Matrix, x: Vector) -> Vector:
    if len(x) != m.ncols:
        raise InputError("matrix/vector size mismatch")
    F = m.field
    return tuple([F.convert(sum(map(mul, r, x))) for r in m.rows])


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.ncols != b.nrows or a.field != b.field:
        raise InputError("matrix product size/field mismatch")
    F = a.field
    cols = b.transpose().rows
    return _trusted(Matrix, F, tuple(tuple([F.convert(sum(map(mul, r, c))) for c in cols])
                                     for r in a.rows))


@dataclass(frozen=True)
class RrefResult:
    matrix: Matrix
    rank: int
    pivots: Tuple[int, ...]


def _nonzero_numerators(row: Vector) -> Dict[int, int]:
    """{column: numerator} for the nonzero entries of a Q row.  It reads the
    Fraction slots (`_numerator`, and `_denominator` in `_integer_rows`), not
    the numerator and denominator properties: a property is a Python call
    per entry and most entries are zero.  Every entry must be a Fraction,
    which QQ.contains checks for a Matrix."""
    return {j: x._numerator for j, x in enumerate(row) if x._numerator}


def _integer_rows(field: Field, rows: Sequence[Vector]) -> Iterator[Dict[int, int]]:
    """Each row as a sparse {column: int} dict holding only its nonzero
    entries.  Over Q the row is scaled to a primitive integer vector (the
    denominators cleared, the content divided out); over Z_p the entries are
    already residues."""
    rational = isinstance(field, Rationals)
    for row in rows:
        if not rational:
            yield {j: x for j, x in enumerate(row) if x}
            continue
        ints = _nonzero_numerators(row)
        dens = [row[j]._denominator for j in ints]
        if any(d != 1 for d in dens):
            den = lcm(*dens)
            ints = {j: v * (den // d) for (j, v), d in zip(ints.items(), dens)}
        g = gcd(*ints.values())
        yield {j: v // g for j, v in ints.items()} if g > 1 else ints


def _clear(row: Dict[int, int], piv: Dict[int, int], c: int, p: int) -> None:
    """Make row[c] zero by subtracting a multiple of the pivot row piv, whose
    pivot column is c.  Only piv's nonzero columns are touched, except that
    over Q (p = 0) the row is first scaled so that the update stays integral
    and is afterwards divided by its content."""
    a = row[c]
    if p:                                   # piv[c] == 1
        for k, v in piv.items():
            x = (row.get(k, 0) - a * v) % p
            if x:
                row[k] = x
            else:
                del row[k]
        return
    pv = piv[c]
    g = gcd(a, pv)
    s, t = pv // g, a // g                  # s > 0: pivots are kept positive
    if s != 1:
        for k in row:
            row[k] *= s
    for k, v in piv.items():
        x = row.get(k, 0) - t * v
        if x:
            row[k] = x
        else:
            del row[k]
    g = gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g


def _echelon(field: Field, rows: Sequence[Vector]) -> Dict[int, Dict[int, int]]:
    """The nonzero rows of the RREF, each up to a scalar factor, keyed by
    pivot column: integer rows (primitive, positive pivot) over Q, rows with
    pivot 1 over Z_p.

    Rows are inserted one at a time.  A new row is cleared at every existing
    pivot column, takes its first nonzero column as its pivot, and that
    column is then cleared from the earlier rows.  So every stored row is
    zero at every other row's pivot, and its own pivot is its first nonzero
    column: the stored rows are the RREF rows up to scaling, because the RREF
    of a matrix is unique.  Each update is sparse, so blocks of columns that
    no row shares never fill each other in.
    """
    p = field.p if isinstance(field, PrimeField) else 0
    basis: Dict[int, Dict[int, int]] = {}
    for row in _integer_rows(field, rows):
        for c in [c for c in row if c in basis]:
            _clear(row, basis[c], c, p)
        if not row:
            continue
        c0 = min(row)
        if p:
            inv = pow(row[c0], p - 2, p)
            if inv != 1:
                for k in row:
                    row[k] = row[k] * inv % p
        elif row[c0] < 0:
            for k in row:
                row[k] = -row[k]
        for other in basis.values():
            if c0 in other:
                _clear(other, row, c0, p)
        basis[c0] = row
    return basis


class _Quotients(dict):
    """Fraction(v, d) keyed by the int pair (v, d), each distinct quotient
    made once, when first asked for.  For rows whose entries repeat a few
    values, such as the ±1 entries of the constraint system's echelon; the
    memo lives for one call."""

    def __missing__(self, key: Tuple[int, int]) -> Fraction:
        x = self[key] = Fraction(*key)
        return x


def _reduced_rows(field: Field, rows: Sequence[Vector]) -> List[Tuple[int, Dict[int, Scalar]]]:
    """(pivot column, sparse RREF row) pairs in pivot order, the entries in
    the field: each integer row divided by its pivot.  Each integer row is
    dropped as soon as its field row is built."""
    basis = _echelon(field, rows)
    out = []
    for c in sorted(basis):
        row = basis.pop(c)
        if isinstance(field, Rationals):
            pv = row[c]
            row = ({k: Fraction(v) for k, v in row.items()} if pv == 1 else
                   {k: Fraction(v, pv) for k, v in row.items()})
        out.append((c, row))
    return out


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form, exact: the nonzero rows in pivot order,
    then the zero rows."""
    F = m.field
    zero = F.zero()
    reduced = _reduced_rows(F, m.rows)
    rows = []
    for _, row in reduced:
        dense = [zero] * m.ncols
        for k, v in row.items():
            dense[k] = v
        rows.append(tuple(dense))
    rows += [(zero,) * m.ncols] * (m.nrows - len(rows))
    return RrefResult(_trusted(Matrix, F, tuple(rows)), len(reduced),
                      tuple(c for c, _ in reduced))


def rank(m: Matrix) -> int:
    return len(_echelon(m.field, m.rows))


def nullspace(m: Matrix) -> list:
    """Basis of {x : m.x = 0}, one vector per free column, in column order.

    The basis vector for free column j has entry 1 at j and the negated
    reduced-row values at the pivot columns; this canonical order is relied
    on by deterministic constructions downstream.
    """
    F = m.field
    zero, one = F.zero(), F.one()
    # for each free column j: the (pivot column, -entry / pivot) pairs of
    # column j, read off the integer echelon.  Over Q each distinct quotient
    # is one Fraction; over Z_p every pivot is 1
    quotient = _Quotients() if isinstance(F, Rationals) else None
    in_column: Dict[int, List[Tuple[int, Scalar]]] = {}
    echelon = _echelon(F, m.rows)
    for pc, row in echelon.items():
        pv = row[pc]
        for k, v in row.items():
            if k != pc:
                x = quotient[-v, pv] if quotient is not None else -v % F.p
                in_column.setdefault(k, []).append((pc, x))
    basis = []
    for j in range(m.ncols):
        if j in echelon:
            continue
        v = [zero] * m.ncols
        v[j] = one
        for pc, x in in_column.get(j, ()):
            v[pc] = x
        basis.append(tuple(v))
    return basis


def solve(m: Matrix, rhs: Vector) -> Optional[Vector]:
    """One exact solution of m.x = rhs (free variables set to 0), or None."""
    if len(rhs) != m.nrows:
        raise InputError("rhs length mismatch")
    F = m.field
    for b in rhs:  # m's entries are checked already, the caller's rhs is not
        if not F.contains(b):
            raise InputError(f"entry {b!r} is not an element of {F}")
    zero = F.zero()
    x = [zero] * m.ncols
    for pc, row in _reduced_rows(F, [r + (b,) for r, b in zip(m.rows, rhs)]):
        if pc == m.ncols:
            return None  # a pivot in the rhs column: inconsistent
        x[pc] = row.get(m.ncols, zero)
    return tuple(x)


def rank_of_vectors(field: Field, vectors_: Sequence[Vector]) -> int:
    vs = [v for v in vectors_ if not vec_is_zero(field, v)]
    if not vs:
        return 0
    return rank(Matrix(field, tuple(vs)))


def inverse(m: Matrix) -> Matrix:
    if m.nrows != m.ncols:
        raise InputError("only square matrices invert")
    F = m.field
    n = m.nrows
    reduced = _reduced_rows(F, [r + unit_vector(F, n, i) for i, r in enumerate(m.rows)])
    if [pc for pc, _ in reduced[:n]] != list(range(n)):
        raise InputError("matrix is singular")
    zero = F.zero()
    return _trusted(Matrix, F, tuple(tuple(row.get(k, zero) for k in range(n, 2 * n))
                                     for _, row in reduced))


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
