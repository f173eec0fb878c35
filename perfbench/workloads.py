"""The four workloads: their job mixes, seeded inputs, and the expectation
each job's verdict is checked against.

Every builder takes the seed, `tiny` (a few small jobs, for the self-tests)
and a Caller for its set-up calls, and returns a `Built` whose `make_round(r)`
gives round r's jobs.  Round r's inputs come from (seed, r), so no two rounds
of a run repeat an input, except where a job has no input but its size
(`construct_sharp_map(dim)`, the ratio and multiplicative lemmas) and in
cli-oneshot, whose inputs stay fixed so that its stdout can be compared
across rounds.  The seed changes the inputs but never the round's mix of job
kinds and sizes.  Inputs are made before the round's timing starts, and the
program receives only the generated maps, tables and argv.

The mixes come from `tier1_profile.json`, the calls the Tier-1 suite makes
into the public API (written by `tier1_profile.py`): a job kind that mirrors a
Tier-1 call gets ceil(calls / scale) jobs per round, with one scale per
workload.  Kinds marked Growth extend a size axis past what Tier-1 reaches
(larger n, p or PG(n,p)); they run once or twice per round, a weight chosen,
not measured.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from pathlib import Path
from random import Random
from typing import Callable, Dict, List, Optional

import oracles as O
from harness import Caller, Job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PROFILE = json.loads((HERE / "tier1_profile.json").read_text())["calls"]

# Which layers each workload's timed jobs call; the rest it bypasses.
LAYERS_USED = {
    "grid-oracle": ("multiaffine", "collineations", "constraints"),
    "rational-solve": ("exact", "constraints"),
    "finite-geometry": ("projective", "collineations", "scalars"),
    "cli-oneshot": ("cli",),
}


def tier1(function: str, args: str, scale: int) -> int:
    """Jobs per round for a kind that mirrors one row of the Tier-1 call
    profile: ceil(calls / scale)."""
    calls = sum(r["calls"] for r in PROFILE[function] if r["args"] == args)
    if not calls:
        raise KeyError(f"{function}({args}) is not in tier1_profile.json")
    return -(-calls // scale)


@dataclass(frozen=True)
class Growth:
    """A kind past the sizes Tier-1 reaches: `jobs` per round, a chosen weight."""
    jobs: int = 1


def per_round(count) -> int:
    return count.jobs if isinstance(count, Growth) else count


@dataclass
class Built:
    make_round: Callable[[int], List[Job]]
    mix: List[dict]                  # kind, size, jobs per round, where the weight came from
    fixed: bool = False              # the same inputs every round
    # How job times are scaled to the nominal host speed (reference.py): "job",
    # each by the reference samples beside it in the worker's thread; "run",
    # all by the median of the run's samples, when the jobs run in child
    # processes, whose speed from moment to moment those samples do not follow.
    scale_by: str = "job"
    close: Callable[[], None] = lambda: None
    probes: Optional[Callable[[], Dict[str, float]]] = None  # per-layer extras, traced runs


def round_rng(seed: int, r: int) -> Random:
    return Random(seed * 1_000_003 + r)


def mix_record(mix, size_keys) -> List[dict]:
    return [dict(zip(("kind", *size_keys), row[:-1]), jobs=per_round(row[-1]),
                 weight="growth" if isinstance(row[-1], Growth) else "tier1") for row in mix]


def expect(*conditions) -> Optional[str]:
    """The first failing (condition, message) pair's message, or None."""
    for ok, msg in conditions:
        if not ok:
            return msg
    return None


# ===========================================================================
# grid-oracle: finite-grid verification of tabulated maps over (Z_p)^n
# ===========================================================================

GRID_SCALE = 5
# (kind, n, p, jobs per round)
GRID_MIX = [
    # test_c04: sampled constraint solutions (m = 2), checked over Z_5
    ("c04", 3, 5, tier1("constraints.check_standard_family", "map(n=3,m=2,F5)", GRID_SCALE)),
    ("c04", 4, 5, tier1("constraints.check_standard_family", "map(n=4,m=2,F5)", GRID_SCALE)),
    ("c04", 5, 5, tier1("constraints.check_standard_family", "map(n=5,m=2,F5)", GRID_SCALE)),
    # test_c11: diagonal-form tables, span invariants and exact recovery
    ("diagonal", 2, 5, tier1("collineations.recover_diagonal_form",
                             "table(p=5,n=2,m=2), family(n=2,k=2)", GRID_SCALE)),
    ("diagonal", 3, 5, tier1("collineations.recover_diagonal_form",
                             "table(p=5,n=3,m=3), family(n=3,k=3)", GRID_SCALE)),
    # test_c12: affine bijections against the 7-direction family
    ("affine", 3, 5, tier1("collineations.check_family",
                           "table(p=5,n=3,m=3), family(n=3,k=7), mode='onto'", GRID_SCALE)),
    # test_c05/c06/c12: the canonical examples, tabulated mod 5
    ("canonical", 3, 5, tier1("multiaffine.tabulate", "map(n=3,m=3,F5)", GRID_SCALE)),
    ("sharp-r4", 4, 5, tier1("multiaffine.tabulate", "map(n=4,m=4,F5)", GRID_SCALE)),
    # the p = 7 and n = 4 axes, past Tier-1
    ("c04", 4, 7, Growth()),
    ("canonical", 3, 7, Growth()),
    ("affine", 3, 7, Growth()),
    ("diagonal", 3, 7, Growth()),
    ("affine", 4, 5, Growth()),
]
TINY_GRID_MIX = [("c04", 3, 5, 1), ("diagonal", 2, 5, 1), ("affine", 3, 5, 1),
                 ("canonical", 3, 5, 1)]
CANONICAL = ("r3", "four-dir-1", "four-dir-2")

# Directions of the richer s_family that each canonical example tears: every
# line in them is bent, because F(w + t d) has a nonzero t^2 coefficient that
# is not parallel to its t coefficient.
CANONICAL_TORN = {
    "r3": {(1, 0, 1), (0, 1, 1)},
    "four-dir-1": {(1, 0, 1), (0, 1, 1)},
    "four-dir-2": {(1, 1, 0), (0, 1, 1)},
    "sharp-r4": {(1, 1, 0, 0), (1, 0, 1, 0)},
}


def family_summary(report):
    """(ok, violations, violating directions, reasons) of a FamilyReport."""
    v = report.violations
    return (report.ok, len(v), tuple(sorted({x.direction for x in v})),
            tuple(sorted({x.reason for x in v})))


def torn_exactly(summary, torn, p, n) -> bool:
    """The report bends exactly the lines of the `torn` directions, all of them."""
    return (summary[0] == (not torn) and summary[1] == len(torn) * p ** (n - 1)
            and set(summary[2]) == set(torn) and summary[3] in ((), ("not-a-line",)))


def build_grid(seed: int, tiny: bool, caller: Caller) -> Built:
    from linemaps import QQ, s_family, sample_constrained_map, standard_family
    families = {}
    mix = TINY_GRID_MIX if tiny else GRID_MIX
    for _kind, n, _p, _count in mix:
        families[n] = (standard_family(QQ, n, True), standard_family(QQ, n, False), s_family(n))
        sample_constrained_map(n, 2, Random(0))               # cached solution basis

    def make_round(r: int) -> List[Job]:
        rng = round_rng(seed, r)
        jobs = []
        for kind, n, p, count in mix:
            for i in range(per_round(count)):
                if kind == "c04":
                    jobs.append(_c04_job(rng, n, p))
                elif kind == "diagonal":
                    jobs.append(_diagonal_job(rng, n, p, *families[n]))
                elif kind == "affine":
                    jobs.append(_affine_job(rng, n, p, families[n]))
                else:
                    name = CANONICAL[i % len(CANONICAL)] if kind == "canonical" else kind
                    jobs.append(_canonical_job(rng, name, n, p, families[n]))
        return jobs

    return Built(make_round, mix_record(mix, ("n", "p")))


def _c04_job(rng, n, p) -> Job:
    """Test_c04's chain on a seeded constraint solution F: Q^n -> Q^2."""
    from linemaps import check_standard_family, reduce_mod, sample_constrained_map, \
        satisfies_constraints
    while True:                   # reduce_mod needs denominators that are units mod p
        job_seed = rng.randrange(2 ** 32)
        m = sample_constrained_map(n, 2, Random(job_seed))
        if all(Fraction(c).denominator % p for u in m.coeffs.values() for c in u):
            break

    def run(c):
        sat = c("constraints.satisfies_constraints", satisfies_constraints, m)
        mp = c("multiaffine.reduce_mod", reduce_mod, m, p)
        rep = c("constraints.check_standard_family.zp", check_standard_family, mp,
                work={"lines": (n + 1) * p ** (n - 1)})
        return (sat.ok, rep.ok, len(rep.violations))

    return Job("c04", f"c04 n={n} p={p} rng={job_seed}", run,
               lambda v: expect((v[0], "a sampled solution violates the constraints"),
                                (v[1:] == (True, 0), "check_standard_family bent a line")))


def _affine_job(rng, n, p, fams) -> Job:
    from linemaps import MultiAffineMap, QQ
    a = O.random_invertible(rng, p, n)
    b = tuple(rng.randrange(p) for _ in range(n))
    coeffs = {1 << i: tuple(Fraction(a[j][i]) for j in range(n)) for i in range(n)}
    coeffs[0] = tuple(Fraction(c) for c in b)
    recover = (tuple(tuple(a[j][i] for j in range(n)) for i in range(n)),
               tuple(tuple(range(p)) for _ in range(n)), b)
    return _map_job("affine", f"affine n={n} p={p} A={a} b={b}",
                    MultiAffineMap(n, n, QQ, coeffs), n, p, fams, set(), recover)


def _canonical_job(rng, name, n, p, fams) -> Job:
    from linemaps import QQ, example_r3_map, four_direction_form, sharp_r4_map
    alpha = Fraction(rng.randrange(1, p))
    m = {"r3": lambda: example_r3_map(QQ),
         "four-dir-1": lambda: four_direction_form(alpha, 1, QQ),
         "four-dir-2": lambda: four_direction_form(alpha, 2, QQ),
         "sharp-r4": lambda: sharp_r4_map(QQ)}[name]()
    label = f"{name} n={n} p={p}" + (f" alpha={alpha}" * name.startswith("four"))
    return _map_job(name, label, m, n, p, fams, CANONICAL_TORN[name], None)


def _map_job(kind, label, m, n, p, fams, torn, recover) -> Job:
    """reduce_mod -> tabulate -> check_family (standard+diagonal into and onto,
    s_family into) -> check_standard_family over Z_p, then the parallelism
    oracles on the (bijective) table; `torn` are the s_family directions that
    must bend, `recover` the diagonal form an affine map must give back."""
    from linemaps import (
        check_family, check_standard_family, parallelism_report, recover_diagonal_form,
        reduce_mod, tabulate, verify_span_invariants,
    )
    std, axes, sfam = fams
    lpd = p ** (n - 1)

    def run(c):
        mp = c("multiaffine.reduce_mod", reduce_mod, m, p)
        t = c("multiaffine.tabulate", tabulate, mp, work={"points": p ** n})
        into = c("collineations.check_family", check_family, t, std, "into",
                 work={"lines": std.k * lpd})
        onto = c("collineations.check_family", check_family, t, std, "onto",
                 work={"lines": std.k * lpd})
        s = c("collineations.check_family", check_family, t, sfam, "into",
              work={"lines": sfam.k * lpd})
        csf = c("constraints.check_standard_family.zp", check_standard_family, mp,
                work={"lines": (n + 1) * lpd})
        par = c("collineations.parallelism_report", parallelism_report, t, axes,
                work={"lines": n * lpd})
        span = c("collineations.verify_span_invariants", verify_span_invariants, t, axes)
        out = [family_summary(into), family_summary(onto), family_summary(s),
               (csf.ok, len(csf.violations)), par.ok, (span.ok, span.hypothesis_ok)]
        if recover is not None:
            form = c("collineations.recover_diagonal_form", recover_diagonal_form, t, axes)
            out.append((form.w, form.f, form.base))
        return tuple(out)

    def check(v):
        into, onto, s, csf, par, span = v[:6]
        conds = [(into[0], "a standard+diagonal line is not carried into a line"),
                 (onto[0], "a bijection fails the onto check"),
                 (csf == (True, 0), "check_standard_family found a line of degree > 1"),
                 (torn_exactly(s, torn, p, n), f"s_family should tear exactly {sorted(torn)}")]
        if recover is None:
            conds += [(par is False, "parallelism should fail for a non-affine example"),
                      (span == (False, False), "span invariants should fail a hypothesis")]
        else:
            conds += [(par is True, "an affine map should preserve parallelism"),
                      (span == (True, True), "span invariants should hold when affine"),
                      (v[6] == recover, "recovered diagonal form != generating affine map")]
        return expect(*conds)

    return Job(kind, label, run, check)


def _diagonal_job(rng, n, p, std, axes, sfam) -> Job:
    """F(x) = base + sum_i f_i(x_i) w_i with one non-affine f_i (a bijection
    fixing 0 and 1) and the rest the identity."""
    from linemaps import (
        FiniteMapTable, check_family, parallelism_report, recover_diagonal_form,
        verify_span_invariants,
    )
    w = O.random_invertible(rng, p, n)
    base = tuple(rng.randrange(p) for _ in range(n))
    bent = rng.randrange(n)
    while True:
        rest = list(range(2, p))
        rng.shuffle(rest)
        f = (0, 1) + tuple(rest)
        if f != tuple(range(p)):
            break
    fs = tuple(f if i == bent else tuple(range(p)) for i in range(n))
    values = tuple(tuple((base[j] + sum(fs[i][x[i]] * w[j][i] for i in range(n))) % p
                         for j in range(n)) for x in O.grid(p, n))
    table = FiniteMapTable(p, n, n, values)
    cols = tuple(tuple(w[j][i] for j in range(n)) for i in range(n))
    diag = (1,) * n
    pair_torn = {tuple(int(k in (bent, j)) for k in range(n)) for j in range(n) if j != bent}
    lpd = p ** (n - 1)

    def run(c):
        into = c("collineations.check_family", check_family, table, std, "into",
                 work={"lines": std.k * lpd})
        onto = c("collineations.check_family", check_family, table, std, "onto",
                 work={"lines": std.k * lpd})
        s = c("collineations.check_family", check_family, table, sfam, "into",
              work={"lines": sfam.k * lpd})
        par = c("collineations.parallelism_report", parallelism_report, table, axes,
                work={"lines": n * lpd})
        span = c("collineations.verify_span_invariants", verify_span_invariants, table, axes)
        form = c("collineations.recover_diagonal_form", recover_diagonal_form, table, axes)
        return (family_summary(into), family_summary(onto), family_summary(s), par.ok,
                (span.ok, span.hypothesis_ok), (form.w, form.f, form.base))

    def check(v):
        into, onto, s, par, span, form = v
        return expect(
            (torn_exactly(into, {diag}, p, n), "into: only the diagonal lines should bend"),
            (torn_exactly(onto, {diag}, p, n), "onto: only the diagonal lines should bend"),
            (torn_exactly(s, pair_torn | {diag}, p, n), "s_family: wrong set of bent directions"),
            (par is True, "a diagonal form should preserve parallelism on the axes"),
            (span == (True, True), "span invariants should hold for a diagonal form"),
            (form == (cols, fs, base), "recovered diagonal form != generating form"))

    return Job("diagonal", f"diagonal n={n} p={p} bent=x{bent + 1} f={f}", run, check)


# ===========================================================================
# rational-solve: exact rational linear algebra of the constraint system
# ===========================================================================

SOLVE_SCALE = 1                 # Tier-1's own counts: the light jobs cost ~0.1 s per round
# (kind, n or dim, jobs per round)
SOLVE_MIX = [
    # test_c04 and the constraint tests: sample a solution (m = 2) and check it
    ("sample", 3, tier1("constraints.sample_constrained_map", "3, 2, Random", SOLVE_SCALE)),
    ("sample", 4, tier1("constraints.sample_constrained_map", "4, 2, Random", SOLVE_SCALE)),
    ("sample", 5, tier1("constraints.sample_constrained_map", "5, 2, Random", SOLVE_SCALE)),
    ("sample+check-q", 3, tier1("constraints.check_standard_family", "map(n=3,m=2,Q)",
                                SOLVE_SCALE)),
    ("sample+check-q", 4, tier1("constraints.check_standard_family", "map(n=4,m=2,Q)",
                                SOLVE_SCALE)),
    ("solution_dimension", 3, tier1("constraints.ConstraintSystem.solution_dimension",
                                    "system(n=3)", SOLVE_SCALE)),
    ("solution_dimension", 4, tier1("constraints.ConstraintSystem.solution_dimension",
                                    "system(n=4)", SOLVE_SCALE)),
    *[("construct_sharp_map", dim, tier1("constraints.construct_sharp_map", str(dim),
                                         SOLVE_SCALE)) for dim in (4, 6)],
    # ROADMAP item 3's axis: the dense solve at n = 5..8 (up to 140x256), dim 8
    *[(kind, n, Growth()) for n in (5, 6, 7, 8) for kind in ("solution_dimension", "nullspace")],
    ("construct_sharp_map", 8, Growth()),
]
TINY_SOLVE_MIX = [("sample", 3, 1), ("sample+check-q", 3, 1), ("solution_dimension", 4, 1),
                  ("nullspace", 4, 1), ("construct_sharp_map", 4, 1)]
# construct_sharp_map(dim) reduced mod these primes is checked injective and
# onto by tabulating it in oracles.py; (6, 7) would need 117649 points.
SHARP_CHECK_PRIMES = {4: (3, 5, 7), 6: (3, 5)}


def build_rational(seed: int, tiny: bool, caller: Caller) -> Built:
    from linemaps import (
        build_constraints, check_standard_family, construct_sharp_map, nullspace,
        sample_constrained_map, satisfies_constraints,
    )
    mix = TINY_SOLVE_MIX if tiny else SOLVE_MIX
    for kind, n, _count in mix:
        if kind.startswith("sample"):
            sample_constrained_map(n, 2, Random(0))           # cached system and basis
        elif kind != "construct_sharp_map":
            build_constraints(n)                              # cached system

    def resigned(n, rng):
        """The constraint system of size n with each row times a seeded sign:
        the same solution space and elimination steps, an input no earlier
        round has used.  (A seeded row order changes the pivots, and larger
        factors the size of the fractions, and with them the cost.)"""
        system = build_constraints(n)
        rows = tuple(tuple(c * k for c in row) for row in system.rows.rows
                     for k in [rng.choice((-1, 1))])
        return dataclasses.replace(system, rows=dataclasses.replace(system.rows, rows=rows))

    def make_round(r: int) -> List[Job]:
        rng = round_rng(seed, r)
        jobs = []
        for kind, n, count in mix:
            for _ in range(per_round(count)):
                if kind == "construct_sharp_map":
                    jobs.append(Job(
                        kind, f"construct_sharp_map dim={n}",
                        lambda c, dim=n: tuple(sorted(
                            c("constraints.construct_sharp_map", construct_sharp_map,
                              dim).map.coeffs.items())),
                        lambda v, dim=n: _check_sharp(dict(v), dim)))
                elif kind in ("solution_dimension", "nullspace"):
                    system = resigned(n, rng)
                    entries = {"matrix_entries": O.constraint_row_count(n) * 2 ** n}
                    want = O.solution_dimension(n)
                    if kind == "solution_dimension":
                        run = (lambda c, s=system, e=entries:
                               c("constraints.solution_dimension", s.solution_dimension, work=e))
                    else:
                        run = (lambda c, s=system, e=entries:
                               len(c("exact.nullspace", nullspace, s.rows, work=e)))
                    jobs.append(Job(kind, f"{kind} n={n} seeded row signs", run,
                                    lambda v, want=want: expect((v == want, f"{v} != {want}"))))
                else:
                    job_seed = rng.randrange(2 ** 32)
                    full = kind == "sample+check-q"

                    def run(c, n=n, job_seed=job_seed, full=full):
                        m = c("constraints.sample_constrained_map", sample_constrained_map,
                              n, 2, Random(job_seed))
                        sat = c("constraints.satisfies_constraints", satisfies_constraints, m)
                        out = (tuple(sorted(m.coeffs.items())), sat.ok)
                        if full:
                            rep = c("constraints.check_standard_family.q", check_standard_family, m)
                            out += (rep.ok, len(rep.violations))
                        return out

                    jobs.append(Job(
                        kind, f"{kind} n={n} rng={job_seed}", run,
                        lambda v: expect((v[1], "a sampled solution violates the constraints"),
                                         (v[2:] in ((), (True, 0)),
                                          "a sampled solution bends a standard line"))))
        return jobs

    return Built(make_round, mix_record(mix, ("n",)))


def _check_sharp(coeffs, dim) -> Optional[str]:
    """Degree dim/2; identity plus perturbations of the last coordinate that
    avoid the last variable (so triangular, hence injective over every field);
    for small dims also injective and onto mod small primes, by tabulation."""
    last = 1 << (dim - 1)
    units = all(tuple(coeffs.get(1 << i, ())) == tuple(int(i == j) for j in range(dim))
                for i in range(dim))
    triangular = all(mask.bit_count() == 1 or (not mask & last and not any(u[:-1]))
                     for mask, u in coeffs.items())
    conds = [(O.degree(coeffs) == dim // 2, f"degree {O.degree(coeffs)} != {dim // 2}"),
             (units and triangular, "not the identity plus a triangular perturbation")]
    for p in SHARP_CHECK_PRIMES.get(dim, ()):
        conds.append((O.injective_and_onto(O.tabulate_mod(coeffs, p, dim, dim), p, dim),
                      f"not injective and onto mod {p}"))
    return expect(*conds)


# ===========================================================================
# finite-geometry: PG(n,p), the exhaustive search, the scalar lemmas
# ===========================================================================

# At 10 the median fell between the transposed and the linear PG(3,3) decisions.
GEO_SCALE = 5
SEARCH_DIRS = ((1, 0), (0, 1), (1, 1), (1, 2))          # the four directions of (Z_3)^2
# The k-direction sets a search can get.  Their costs differ up to 3x, so the
# rounds of a run go through them in turn, from a seeded start.
SEARCH_SETS = {k: list(itertools.combinations(SEARCH_DIRS, k)) for k in range(1, 5)}
SCALAR_PRIMES = (3, 5, 7)
# (kind, size, jobs per round); a PG job alternates linear and transposed tables.
# "decide" runs decide_projective_linear; "pencils" runs check_projective_hypotheses
# first, at every point as anchor (Tier-1) or at n+2 seeded anchors (Growth).
GEO_MIX = [
    # test_c09: decisions on PG(2,3) and PG(3,3), half linear, half transposed
    ("decide", (3, 2), tier1("projective.decide_projective_linear", "proj(p=3,n=2)", GEO_SCALE)),
    ("decide", (3, 3), tier1("projective.decide_projective_linear", "proj(p=3,n=3)", GEO_SCALE)),
    ("decide", (5, 3), tier1("projective.decide_projective_linear", "proj(p=5,n=3)", GEO_SCALE)),
    ("pencils", (3, 2), tier1("projective.check_projective_hypotheses",
                              "proj(p=3,n=2), tuple[13]", GEO_SCALE)),
    # test_c01/c02 and the search tests: searches at p=3, n=2 with k directions
    ("search", 2, tier1("collineations.exhaustive_bijection_search",
                        "3, 2, family(n=2,k=2)", GEO_SCALE)),
    ("search", 3, tier1("collineations.exhaustive_bijection_search",
                        "3, 2, family(n=2,k=3)", GEO_SCALE)),
    # test_c10 and the scalar tests
    *[(kind, p, tier1(f"scalars.{fn}", str(p) + extra, GEO_SCALE))
      for kind, fn, extra in (("ratio", "ratio_criterion", ""),
                              ("multiplicative", "verify_multiplicative_rigidity", ""),
                              ("diagonal-rigidity", "verify_diagonal_rigidity", ", x0=tuple[2]"),
                              ("additive", "verify_additive_rigidity", ""))
      for p in SCALAR_PRIMES if (kind, p) not in (("additive", 7), ("diagonal-rigidity", 7))],
    # the PG(n,p) axis past Tier-1, two tables each, and the other family sizes
    *[("pencils", pn, Growth(2)) for pn in ((7, 2), (5, 3), (7, 3), (3, 4))],
    ("decide", (5, 4), Growth(2)),
    ("search", 1, Growth()),
    ("search", 4, Growth()),
    ("diagonal-rigidity", 7, Growth()),
]
TINY_GEO_MIX = [("decide", (3, 2), 2), ("pencils", (3, 2), 1), ("search", 2, 1),
                ("ratio", 3, 1), ("multiplicative", 3, 1), ("diagonal-rigidity", 3, 1),
                ("additive", 3, 1)]


def build_geometry(seed: int, tiny: bool, caller: Caller) -> Built:
    from linemaps import (
        ratio_criterion, verify_additive_rigidity, verify_diagonal_rigidity,
        verify_multiplicative_rigidity, lines_through,
    )
    mix = TINY_GEO_MIX if tiny else GEO_MIX
    first_set = Random(seed).randrange(len(SEARCH_SETS[2]) * len(SEARCH_SETS[3]))
    points = {}
    for kind, size, _count in mix:
        if kind in ("decide", "pencils") and size not in points:
            p, n = size
            points[size] = O.pg_points(p, n)
            if kind == "pencils":     # warm-up: the pencil line cache fills once per process
                caller("projective.lines_through", lines_through, points[size][0], p, n,
                       work={"lines": O.line_count(p, n)})

    def make_round(r: int) -> List[Job]:
        rng = round_rng(seed, r)
        jobs = []
        for kind, size, count in mix:
            for i in range(per_round(count)):
                if kind in ("decide", "pencils"):
                    p, n = size
                    anchors = None
                    if kind == "pencils":
                        pts = points[size]
                        anchors = rng.sample(pts, n + 2) if isinstance(count, Growth) else pts
                    jobs.append(_pg_job(rng, p, n, points[size], bool(i % 2), anchors))
                elif kind == "search":
                    sets = SEARCH_SETS[size]
                    jobs.append(_search_job(rng, sets[(first_set + r * per_round(count) + i)
                                                      % len(sets)]))
                else:
                    ident = tuple(range(size))
                    p = size
                    if kind == "ratio":
                        jobs.append(_scalar_job(
                            kind, f"p={p}", ratio_criterion, (p,), factorial(p - 2),
                            lambda r: (r.candidates, r.passing, r.passing_all_additive,
                                       r.additive_all_passing),
                            (factorial(p - 2), (ident,), True, True)))
                    elif kind == "multiplicative":
                        jobs.append(_scalar_job(
                            kind, f"p={p}", verify_multiplicative_rigidity, (p,), factorial(p),
                            lambda r: (r.exponents, r.brute_force_agrees, r.shifted_identity_only,
                                       r.scaled_identity_only, r.f2_equal_one),
                            (O.power_map_exponents(p), True, True, True, ())))
                    elif kind == "diagonal-rigidity":
                        x0 = rng.choice(((1, 0), (0, 1), (1, 1)))
                        jobs.append(_scalar_job(
                            kind, f"p={p} x0={x0}", verify_diagonal_rigidity, (p, 2, x0),
                            factorial(p - 2) ** 2, lambda r: (r.candidates, r.survivors),
                            (factorial(p - 2) ** 2, ((ident, ident),))))
                    else:             # the matrix enumeration is guarded at p <= 5
                        xa = (rng.randrange(p), rng.randrange(p))
                        jobs.append(_scalar_job(
                            kind, f"p={p} x0={xa}", verify_additive_rigidity, (p, 2, xa), p ** 4,
                            lambda r: (r.matrices_total, r.bijections, r.all_additive,
                                       r.all_lines_ok),
                            (p ** 4, O.gl2_order(p), True, True)))
        return jobs

    return Built(make_round, mix_record(mix, ("size",)))


def _pg_job(rng, p, n, pts, transposed, anchors) -> Job:
    """A seeded projective-linear table of PG(n,p), or one with two images swapped."""
    from linemaps import ProjTable, check_projective_hypotheses, decide_projective_linear
    a = O.random_invertible(rng, p, n + 1)
    values = [O.apply_matrix(p, a, x) for x in pts]
    swap = None
    if transposed:
        i, j = rng.sample(range(len(pts)), 2)
        values[i], values[j] = values[j], values[i]
        swap = (pts[i], pts[j])
    table = ProjTable(p, n, tuple(values))
    want_matrix = None if transposed else O.normalize_matrix(p, a)
    want_bad = O.transposition_violations(p, anchors, *swap) if swap and anchors else 0

    def run(c):
        rep = None
        if anchors is not None:
            rep = c("projective.check_projective_hypotheses", check_projective_hypotheses,
                    table, anchors, work={"lines": len(anchors) * O.pencil_size(p, n)})
        m = c("projective.decide_projective_linear", decide_projective_linear, table,
              work={"points": len(pts)})
        return (rep and (rep.ok, len(rep.violations)),
                None if m is None else tuple(tuple(r) for r in m.matrix.rows))

    def check(v):
        return expect((anchors is None or v[0] == (want_bad == 0, want_bad),
                       f"pencil lines bent: {v[0]}, want {want_bad}"),
                      (v[1] == want_matrix, "decision differs from the generating matrix"))

    kind = "transposed" if transposed else "linear"
    where = f"{len(anchors)} anchors" if anchors else "no pencils"
    return Job(f"PG({n},{p}) {kind}", f"PG({n},{p}) {kind} A={a} swap={swap} {where}",
               run, check)


def _search_job(rng, directions) -> Job:
    """exhaustive_bijection_search at p=3, n=2 over the given directions, in a
    seeded order and each written as a seeded multiple; the survivors' plane
    forms when there are two or more."""
    from linemaps import LineFamily, QQ, exhaustive_bijection_search, recover_plane_form
    k = len(directions)
    dirs = tuple(tuple(s * c for c in d)
                 for d, s in zip(rng.sample(directions, k), (rng.choice((1, 2, -1))
                                                             for _ in range(k))))
    fam = LineFamily(QQ, 2, dirs)
    want = O.axis_search_count(3) if k == 1 else O.agl_order(3, 2)

    def run(c):
        res = c("collineations.exhaustive_bijection_search", exhaustive_bijection_search,
                3, 2, fam, work=lambda r: {"results": len(r)})
        forms = ()
        if k >= 2:
            forms = c("collineations.recover_plane_form",
                      lambda: tuple(recover_plane_form(t) for t in res))
        digest = hashlib.sha256(repr([t.values for t in res]).encode()).hexdigest()
        return (len(res), digest, tuple((f.u1, f.u2, f.u3, f.f, f.g) for f in forms))

    def check(v):
        ident = (0, 1, 2)
        return expect(
            (v[0] == want, f"{v[0]} survivors, want {want}"),
            (all(u3 == (0, 0) and f == g == ident and O.rank_mod([u1, u2], 3) == 2
                 for u1, u2, u3, f, g in v[2]), "a recovered plane form is not affine"))

    return Job(f"search k={k}", f"exhaustive search p=3 n=2 dirs={dirs}", run, check)


def _scalar_job(kind, args_label, fn, args, candidates, summarize, want) -> Job:
    """One scalar lemma: `candidates` functions enumerated, report summarized and compared."""
    name = f"scalars.{fn.__name__}"
    return Job(kind, f"{fn.__name__} {args_label}",
               lambda c: summarize(c(name, fn, *args, work={"candidates": candidates})),
               lambda v: expect((v == want, f"{fn.__name__} report {v} != {want}")))


# ===========================================================================
# cli-oneshot: one `python -m linemaps.cli` process per job
# ===========================================================================

def _map_json(n, coeffs) -> dict:
    """{mask: vector} as the CLI's map JSON over Q."""
    return {"n": n, "m": n, "field": {"type": "rational"},
            "coeffs": [{"delta": [(mask >> i) & 1 for i in range(n)],
                        "value": [str(Fraction(c)) for c in u]}
                       for mask, u in sorted(coeffs.items())]}


def _table_json(p, n, m, fn) -> dict:
    return {"p": p, "n": n, "m": m, "values": [list(fn(x)) for x in O.grid(p, n)]}


R3 = {0b001: (1, 0, 0), 0b010: (0, 1, 0), 0b100: (0, 0, 1), 0b101: (1, 1, 0), 0b110: (-1, -1, 0)}


def _deltas(n, masks):
    return sorted([(m >> i) & 1 for i in range(n)] for m in masks)


def build_cli(seed: int, tiny: bool, caller: Caller) -> Built:
    rng = Random(seed)
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    def write(name, obj):
        (tmp / name).write_text(obj if isinstance(obj, str) else json.dumps(obj))
        return str(tmp / name)

    def child(argv):
        return subprocess.run([sys.executable, *argv], capture_output=True, env=env,
                              cwd=tmp, timeout=120)

    # warm-up, and proof that the CLI comes from this checkout's sources
    probe = child(["-c", "import linemaps.cli; print(linemaps.cli.__file__)"])
    where = Path(probe.stdout.decode().strip() or "/nonexistent").resolve()
    if probe.returncode != 0 or SRC.resolve() not in where.parents:
        shutil.rmtree(tmp)
        raise RuntimeError(f"linemaps.cli does not import from {SRC}: "
                           f"{probe.stderr.decode()[-300:]}")

    # Sizes are the ones tests/test_cli.py uses; the seed picks only values.
    p = 5
    alpha = rng.randrange(1, p)
    a, b = rng.sample(range(2, 7), 2)            # u = (a, b, 1): a, b outside {0, 1} mod 7, a != b
    pp = 3
    pts = O.pg_points(pp, 2)
    mat = O.random_invertible(rng, pp, 3)
    lin = [O.apply_matrix(pp, mat, x) for x in pts]
    trans = []
    for _ in range(2):
        t = list(lin)
        i, j = rng.sample(range(len(pts)), 2)
        t[i], t[j] = t[j], t[i]
        trans.append(t)
    n_sys = (3, 4)
    fs = [(0, 1, *rng.sample((2, 3, 4), 3)) for _ in range(2)]   # bijections fixing 0, 1
    r3_values = O.tabulate_mod(R3, 5, 3, 3)
    files = {
        "r3": write("r3.json", _map_json(3, R3)),
        "lin": write("lin.json", {"p": pp, "n": 2, "values": [list(v) for v in lin]}),
        "trans0": write("trans0.json", {"p": pp, "n": 2, "values": [list(v) for v in trans[0]]}),
        "trans1": write("trans1.json", {"p": pp, "n": 2, "values": [list(v) for v in trans[1]]}),
        "plane": write("plane.json", _table_json(5, 2, 3, lambda x: (x[0], x[1],
                                                                      x[0] * x[1] % 5))),
        "diagonal": write("diagonal.json", _table_json(5, 2, 2, lambda x: (fs[0][x[0]],
                                                                            fs[1][x[1]]))),
        "r3-table": write("r3-table.json", _table_json(5, 3, 3, r3_values.get)),
        "bad": write("bad.json", "{not json"),
        "missing": str(tmp / "nope.json"),
    }
    r3_deltas = _deltas(3, R3)
    dir_deltas_2 = _deltas(3, (0b001, 0b010, 0b100, 0b011, 0b110))
    sharp4_deltas = _deltas(4, (1, 2, 4, 8, 0b0011, 0b0101))

    def deltas(out):
        return sorted(c["delta"] for c in out["coeffs"])

    def ok(out):
        return out.get("ok") is True

    # (argv, expected exit code, check of the parsed stdout, known breach).  Per
    # command and exit code, as many calls as tier1_profile.json counts for
    # `cli.main`, plus the two known breaches of ROADMAP item 5.
    cases = [
        (["constraints", "--n", str(n_sys[0])], 0,
         lambda o: (len(o["unknowns"]), len(o["rows"]))
         == (2 ** n_sys[0], O.constraint_row_count(n_sys[0])), None),
        (["constraints", "--n", str(n_sys[1])], 0,
         lambda o: len(o["rows"]) == O.constraint_row_count(n_sys[1]), None),
        (["constraints", "--n", "1"], 2, None, None),
        (["construct-sharp", "--dim", "4"], 0, lambda o: o["degree"] == 2, None),
        (["construct-sharp", "--dim", "3"], 2, None, None),
        (["decide-proj", "--table", files["lin"]], 0,
         lambda o: o["projective_linear"] is True
         and tuple(map(tuple, o["matrix"])) == O.normalize_matrix(pp, mat), None),
        (["decide-proj", "--table", files["trans0"]], 1,
         lambda o: o == {"projective_linear": False}, None),
        (["decide-proj", "--table", files["trans1"]], 1,
         lambda o: o == {"projective_linear": False}, None),
        (["example", "--name", "r3"], 0, lambda o: deltas(o) == r3_deltas, None),
        (["example", "--name", "four-dir-1", "--alpha", str(alpha), "--field", f"p:{p}"], 0,
         lambda o: deltas(o) == r3_deltas and o["coeffs"][3]["value"] == [alpha, alpha, 0], None),
        (["example", "--name", "four-dir-2", "--alpha", str(alpha)], 0,
         lambda o: deltas(o) == dir_deltas_2, None),
        (["example", "--name", "sharp-r4", "--field", f"p:{p}"], 0,
         lambda o: deltas(o) == sharp4_deltas, None),
        (["example", "--name", "r4-noninjective"], 0, lambda o: o["n"] == 4, None),
        (["example", "--name", "r3", "--field", f"p:{p}"], 0,
         lambda o: deltas(o) == r3_deltas, None),
        (["example", "--name", "mystery"], 2, None, None),
        (["exhaust", "--p", "3", "--n", "2", "--dirs", "e1,e2"], 0,
         lambda o: o["count"] == O.agl_order(3, 2), None),
        (["exhaust", "--p", "3", "--n", "2", "--dirs", "e1,e2,1,1"], 0,
         lambda o: o["count"] == O.agl_order(3, 2), None),
        (["exhaust", "--p", "5", "--n", "3", "--dirs", "e1,e2,e3"], 3, None, None),
        (["recover-form", "--table", files["plane"], "--kind", "plane"], 0,
         lambda o: o["u3"] == [0, 0, 1] and o["cross_term_vanishes"] is False, None),
        (["recover-form", "--table", files["diagonal"], "--kind", "diagonal", "--dirs", "e1,e2"],
         0, lambda o: o["f"] == [list(f) for f in fs], None),
        (["recover-form", "--table", files["r3-table"], "--kind", "diagonal",
          "--dirs", "e1,e2,e3"], 2, None, None),
        (["refute-fifth", "--variant", "1", "--u", f"{a},{b},1"], 0,
         lambda o: o["refuted"] is True, None),
        (["refute-fifth", "--variant", "1", "--u", f"{a},{b},1", "--field", "p:7"], 0,
         lambda o: o["refuted"] is True, None),
        (["refute-fifth", "--variant", "2", "--u", f"{a},{b},1", "--alpha", str(alpha)], 0,
         lambda o: o["refuted"] is True, None),
        (["refute-fifth", "--variant", "2", "--u", f"{a},{b},1", "--field", "p:7",
          "--alpha", str(alpha)], 0, lambda o: o["refuted"] is True, None),
        (["refute-fifth", "--variant", "1", "--u", "1,1,1"], 2, None, None),
        (["scalar-lemmas", "--p", "5", "--lemma", "ratio"], 0, ok, None),
        (["scalar-lemmas", "--p", "7", "--lemma", "mult-id"], 0, ok, None),
        (["scalar-lemmas", "--p", "7", "--lemma", "f2-id"], 0, ok, None),
        (["scalar-lemmas", "--p", "5", "--lemma", "diag2str",
          "--x0", rng.choice(("1,0", "0,1", "1,1"))], 0, ok, None),
        (["scalar-lemmas", "--p", "3", "--lemma", "add1str",
          "--x0", f"{rng.randrange(3)},{rng.randrange(3)}"], 0, ok, None),
        (["scalar-lemmas", "--p", "4", "--lemma", "ratio"], 2, None, None),
        (["scalar-lemmas", "--p", "11", "--lemma", "ratio"], 3, None, None),
        (["verify-family", "--map", files["r3"], "--field", "p:5", "--dirs", "e1,e2,e3,1,1,-1",
          "--mode", "onto"], 0, lambda o: o == {"ok": True, "violations": []}, None),
        (["verify-family", "--map", files["r3"], "--field", "p:7", "--dirs", "1,0,1"], 1,
         lambda o: o["ok"] is False and len(o["violations"]) == 49, None),
        (["verify-family", "--table", files["r3-table"], "--dirs", "1,0,1"], 1,
         lambda o: o["ok"] is False and len(o["violations"]) == 25, None),
        (["verify-family", "--table", files["r3-table"], "--dirs", "0,1,1"], 1,
         lambda o: o["ok"] is False and len(o["violations"]) == 25, None),
        (["verify-family", "--map", files["r3"], "--field", "p:5", "--dirs", "e1,e2,e3",
          "--parallelism"], 1, lambda o: o["ok"] is True and o["parallelism"]["ok"] is False, None),
        (["verify-family", "--map", files["r3"], "--dirs", "e1,e2,e3"], 2, None, None),
        (["verify-family", "--map", files["bad"], "--field", "p:5", "--dirs", "e1"], 2,
         None, None),
        (["verify-family", "--map", files["missing"], "--field", "p:5", "--dirs", "e1"], 2,
         None, None),
        # The two known contract breaches: today they raise a traceback and exit 1
        # where the contract says 2.  They run in every round and are reported by name.
        (["example", "--alpha", "1/0"], 2, None, "alpha-zero-denominator"),
        (["scalar-lemmas", "--p", "5", "--lemma", "diag2str", "--x0", "a,b"], 2, None,
         "x0-not-integers"),
    ]
    if tiny:
        cases = [cases[8], cases[2], cases[17], cases[-1]]

    jobs = []
    for argv, want_rc, content, breach in cases:
        cmd = argv[0]

        def run(c, argv=argv, cmd=cmd):
            proc = c(f"cli.invoke.{cmd}", child, ["-m", "linemaps.cli", *argv],
                     work=lambda r: {"stdout_bytes": len(r.stdout)})
            return (proc.returncode, proc.stdout, b"Traceback" in proc.stderr)

        def check(v, want_rc=want_rc, content=content):
            rc, stdout, traceback = v
            if rc != want_rc:
                return f"exit {rc}, want {want_rc}" + (" (traceback)" if traceback else "")
            if content is None:
                return expect((stdout == b"", "bad input printed a report"))
            try:
                return expect((content(json.loads(stdout)), "report content is off"))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                return f"unreadable report: {exc!r}"

        jobs.append(Job(cmd, " ".join(argv).replace(str(tmp) + os.sep, ""), run, check, breach))

    def probes() -> Dict[str, float]:
        """Interpreter start (bare `python -c pass`) and a fresh `import linemaps.cli`, 5 each."""
        starts, imports = [], []
        for _ in range(5):
            t0 = time.perf_counter()
            child(["-c", "pass"])
            starts.append(time.perf_counter() - t0)
            out = child(["-c", "import time; t = time.perf_counter(); import linemaps.cli; "
                               "print(time.perf_counter() - t)"])
            imports.append(float(out.stdout))
        return {"cli.interpreter_start.s": statistics.median(starts),
                "cli.import.s": statistics.median(imports)}

    counts = {}
    for argv, want_rc, _content, breach in cases:
        key = (argv[0], want_rc, breach)
        counts[key] = counts.get(key, 0) + 1
    mix = [{"kind": cmd, "exit": rc, "jobs": k, "weight": "roadmap-5" if br else "tier1"}
           for (cmd, rc, br), k in sorted(counts.items(), key=str)]
    return Built(lambda r: jobs, mix, fixed=True, scale_by="run",
                 close=lambda: shutil.rmtree(tmp, ignore_errors=True), probes=probes)


BUILDERS = {
    "grid-oracle": build_grid,
    "rational-solve": build_rational,
    "finite-geometry": build_geometry,
    "cli-oneshot": build_cli,
}
