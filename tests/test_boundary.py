"""One validation boundary: the public constructors and the JSON readers check
what a caller passes, and the library's own producers build their results
through `exact._trusted`, without checking them again.  So every object built
that way must pass its public constructor unchanged, and a raw value a caller
passes to a producer must still be refused as before."""

from __future__ import annotations

import dataclasses
import re
from fractions import Fraction
from random import Random

import pytest

from linemaps import (
    DiagonalForm,
    FiniteMapTable,
    InputError,
    LineFamily,
    Matrix,
    MultiAffineMap,
    PlaneForm,
    PrimeField,
    ProjLinearMap,
    ProjTable,
    QQ,
    ScalarFunctionTable,
    bijections_fixing_0_1,
    build_constraints,
    construct_sharp_map,
    decide_projective_linear,
    embed_affine_table,
    exhaustive_bijection_search,
    identity_matrix,
    identity_table,
    inverse,
    mat_mul,
    matrix,
    multiplicative_injections,
    proj_table_from_map,
    recover_diagonal_form,
    recover_plane_form,
    rref,
    sample_constrained_map,
    solve,
    standard_family,
    table_from_function,
    tabulate,
    tabulate_diagonal_form,
    verify_multiplicative_rigidity,
)
from linemaps import collineations, constraints, exact, grid, multiaffine, projective, scalars
from linemaps.exact import _trusted

FIELDS = (QQ, PrimeField(7))


def _matrix(rng, field, rows, cols):
    return matrix(field, [[Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(cols)]
                          for _ in range(rows)])


def _invertible(rng, field, k):
    while True:
        m = _matrix(rng, field, k, k)
        if rref(m).rank == k:
            return m


def _scalar_bijection(rng, p):
    """A bijection of Z_p fixing 0 and 1, as its table."""
    rest = list(range(2, p))
    rng.shuffle(rest)
    return (0, 1) + tuple(rest)


def _diagonal_form(rng):
    """A diagonal form with independent u's and w's: an injective map."""
    p, n = rng.choice((3, 5)), rng.randint(1, 3)
    gf = PrimeField(p)
    u, w = (tuple(zip(*_invertible(rng, gf, n).rows)) for _ in range(2))
    return DiagonalForm(p, u, w, tuple(_scalar_bijection(rng, p) for _ in range(n)),
                        tuple(rng.randrange(p) for _ in range(n)))


def _multiaffine_map(rng):
    p, n, m = rng.choice((3, 5, 7)), rng.randint(1, 3), rng.randint(1, 3)
    return MultiAffineMap(n, m, PrimeField(p), {
        mask: tuple(rng.randrange(p) for _ in range(m))
        for mask in range(1 << n) if rng.random() < 0.6})


def _search_family(rng):
    dirs = rng.sample([(1, 0), (0, 1), (1, 1), (1, 2)], rng.randint(2, 3))
    return LineFamily(QQ, 2, tuple(dirs))


def _proj_map(rng):
    gf = PrimeField(rng.choice((3, 5)))
    return ProjLinearMap(_invertible(rng, gf, rng.randint(2, 3)))


def _recovery_case(rng):
    form = _diagonal_form(rng)
    return tabulate_diagonal_form(form), LineFamily(PrimeField(form.p), form.n, form.u)


def _plane_map(rng):
    """(f(s), g(t), f(s) g(t)) for bijections f and g of Z_p: injective, and
    linear along each axis line."""
    p = rng.choice((3, 5, 7))
    f, g = (rng.sample(range(p), p) for _ in range(2))
    return table_from_function(p, 2, 3, lambda x: (f[x[0]], g[x[1]], f[x[0]] * g[x[1]]))


def _random_self_map(rng):
    p, n = rng.choice((3, 5)), rng.randint(1, 2)
    return table_from_function(p, n, n, lambda x: [rng.randrange(p) for _ in x])


def _small_prime(rng):
    return rng.choice((3, 5, 7, 11, 13))


# each producer: the type it builds through _trusted, and a function of (rng,
# field) giving the producer and its seeded arguments
PRODUCERS = {
    "transpose": (Matrix, lambda rng, F: (Matrix.transpose, _matrix(rng, F, 3, 4))),
    "mat_mul": (Matrix, lambda rng, F: (mat_mul, _matrix(rng, F, 3, 4), _matrix(rng, F, 4, 2))),
    "rref": (Matrix, lambda rng, F: (rref, _matrix(rng, F, 4, 5))),
    "inverse": (Matrix, lambda rng, F: (inverse, _invertible(rng, F, 3))),
    "tabulate": (FiniteMapTable, lambda rng, F: (tabulate, _multiaffine_map(rng))),
    "tabulate_diagonal_form": (
        FiniteMapTable, lambda rng, F: (tabulate_diagonal_form, _diagonal_form(rng))),
    "DiagonalForm._u_inverse": (
        Matrix, lambda rng, F: (lambda form: form._u_inverse, _diagonal_form(rng))),
    "recover_diagonal_form": (
        DiagonalForm, lambda rng, F: (recover_diagonal_form, *_recovery_case(rng))),
    "recover_plane_form": (PlaneForm, lambda rng, F: (recover_plane_form, _plane_map(rng))),
    "exhaustive_bijection_search": (
        FiniteMapTable, lambda rng, F: (exhaustive_bijection_search, 3, 2, _search_family(rng))),
    "ProjLinearMap": (Matrix, lambda rng, F: (ProjLinearMap, _invertible(rng, F, 3))),
    "_frame_matrix": (Matrix, lambda rng, F: (
        decide_projective_linear, proj_table_from_map(m := _proj_map(rng), m.field.p))),
    "proj_table_from_map": (
        ProjTable, lambda rng, F: (proj_table_from_map, m := _proj_map(rng), m.field.p)),
    "embed_affine_table": (ProjTable, lambda rng, F: (embed_affine_table, _random_self_map(rng))),
    "build_constraints": (
        Matrix, lambda rng, F: (build_constraints.__wrapped__, rng.randint(2, 6))),
    "construct_sharp_map": (Matrix, lambda rng, F: (construct_sharp_map, rng.choice((4, 6, 8)))),
    # at n = 5, 6 and m = 1 the weights cancel a coefficient vector at four of
    # the six seeds, and the sampler must drop it
    "sample_constrained_map": (
        MultiAffineMap, lambda rng, F: (sample_constrained_map, rng.randint(5, 6), 1, rng)),
    # over Q and GF(3), n = 2..5, with and without the diagonal
    "standard_family": (LineFamily, lambda rng, F: (
        lambda field: [standard_family(field, n, diagonal)
                       for n in range(2, 6) for diagonal in (False, True)],
        QQ if F == QQ else PrimeField(3))),
    "identity_table": (ScalarFunctionTable, lambda rng, F: (identity_table, _small_prime(rng))),
    "bijections_fixing_0_1": (ScalarFunctionTable, lambda rng, F: (
        lambda p: list(bijections_fixing_0_1(p)), rng.choice((3, 5, 7)))),
    "multiplicative_injections": (
        ScalarFunctionTable, lambda rng, F: (multiplicative_injections, _small_prime(rng))),
    "verify_multiplicative_rigidity": (
        ScalarFunctionTable, lambda rng, F: (verify_multiplicative_rigidity, _small_prime(rng))),
}

# a raw value of a caller that reaches a producer is refused as before
REFUSED = [
    (lambda: identity_matrix(QQ, 0), "matrix must have at least one row and one column"),
    (lambda: table_from_function(3, 0, 1, lambda x: (0,)), "dimensions must be >= 1"),
    (lambda: table_from_function(3, 1, 0, lambda x: ()), "dimensions must be >= 1"),
    (lambda: solve(matrix(QQ, [[1, 0], [0, 1]]), (1, 2)), "entry 1 is not an element of QQ"),
    (lambda: solve(matrix(PrimeField(5), [[1, 0], [0, 1]]), (1, 5)),
     "entry 5 is not an element of GF(5)"),
    (lambda: proj_table_from_map(ProjLinearMap(matrix(PrimeField(5), [[2]])), 5),
     "need n >= 1 and (p^(n+1)-1)/(p-1) values, got n = 0, 1 values"),
    (lambda: proj_table_from_map(ProjLinearMap(identity_matrix(PrimeField(5), 2)), 5.0),
     "p 5.0 is not an int"),
    (lambda: identity_table(9), "9 is not prime"),
    (lambda: standard_family(QQ, 1, True), "family directions must be pairwise non-parallel"),
    (lambda: list(bijections_fixing_0_1(2)),
     "p = 2 is not supported (need at least three parallel lines)"),
]


def test_trusted_objects_pass_their_public_constructors(monkeypatch):
    # dataclasses.replace reruns the public constructor with the same fields
    built = []

    def spy(cls, *values):
        built.append(_trusted(cls, *values))
        return built[-1]

    for module in (exact, grid, multiaffine, collineations, constraints, projective, scalars):
        monkeypatch.setattr(module, "_trusted", spy)
    for name, (cls, prepare) in PRODUCERS.items():
        for seed in range(6):
            producer, *args = prepare(Random(seed), FIELDS[seed % 2])
            built.clear()
            producer(*args)
            assert any(type(obj) is cls for obj in built), (name, seed)
            for obj in built:
                assert dataclasses.replace(obj) == obj, (name, seed, obj)
    for call, message in REFUSED:
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            call()
