"""Batch front door: load maps and tables, run the verifications, construct
the stock examples, and emit machine-readable reports.

Exit codes:
  0  every requested check passed / the object was constructed
  1  a verified mathematical violation (the report carries the details)
  2  bad input: unreadable or unparsable files, malformed flags, dimension
     mismatches
  3  a resource guard tripped (table or search too large for the budget)
  4  an internal inconsistency: a verified precondition later failed, which
     signals a checker bug rather than a property of the input
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .collineations import (
    check_family, exhaustive_bijection_search, parallelism_report, recover_diagonal_form,
    recover_plane_form,
)
from .constraints import (
    build_constraints, construct_sharp_map, example_r3_map,
    fifth_direction_refutation, four_direction_form, noninjective_r4_variant,
    sharp_r4_map,
)
from .exact import (
    Field, InputError, InternalInconsistencyError, PrimeField, QQ,
    ResourceError, unit_vector,
)
from .grid import (
    DEFAULT_POINT_BUDGET, FiniteMapTable, LineFamily, table_from_json, table_to_json,
)
from .multiaffine import map_from_json, map_to_json, reduce_mod, tabulate
from .projective import decide_projective_linear, proj_table_from_json
from .scalars import (
    ratio_criterion, verify_additive_rigidity, verify_diagonal_rigidity,
    verify_multiplicative_rigidity,
)

_E_TOKEN = re.compile(r"^e(\d+)$")


def parse_field(text: str) -> Field:
    if text in ("q", "Q", "rational"):
        return QQ
    if text.startswith("p:"):
        try:
            return PrimeField(int(text[2:]))
        except ValueError as exc:
            raise InputError(f"bad prime in field spec {text!r}: {exc}") from exc
    raise InputError(f"field must be 'q' or 'p:<prime>', got {text!r}")


def parse_rational(text, what: str) -> Fraction:
    """A rational literal such as "-3", "2/5" or "1.5"; anything else,
    "1/0" included, is an InputError naming `what`."""
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad {what} {text!r}") from exc


def parse_x0(text: str) -> Tuple[int, int]:
    """An integer pair "a,b" (the --x0 pinning point)."""
    try:
        a, b = (int(c) for c in text.split(","))  # a wrong count is a ValueError too
    except ValueError as exc:
        raise InputError(f"--x0 must be two integers like '1,1', got {text!r}") from exc
    return a, b


def parse_directions(text: str, n: int) -> List[Tuple[Fraction, ...]]:
    """Parse "e1,e2,e3,1,1,-1" style lists: e-tokens are unit vectors, bare
    numbers are grouped into vectors of length n, semicolons force breaks."""
    dirs: List[Tuple[Fraction, ...]] = []
    for group in text.split(";"):
        buffer: List[Fraction] = []
        for token in group.split(","):
            token = token.strip()
            if not token:
                continue
            m = _E_TOKEN.match(token)
            if m:
                if buffer:
                    raise InputError(
                        f"incomplete vector before {token!r}: {buffer}")
                i = int(m.group(1))
                if not 1 <= i <= n:
                    raise InputError(f"unit direction {token!r} out of range for n={n}")
                dirs.append(unit_vector(QQ, n, i - 1))
                continue
            buffer.append(parse_rational(token, "direction entry"))
            if len(buffer) == n:
                dirs.append(tuple(buffer))
                buffer = []
        if buffer:
            raise InputError(
                f"trailing direction entries do not fill a vector of length {n}: {buffer}")
    if not dirs:
        raise InputError("no directions given")
    return dirs


def _emit(obj: dict, out: Optional[str]) -> None:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _read_json(path: str):
    """The JSON value in the file at path.  The CLI reads every input file
    here, and nothing in the library opens a file."""
    with open(path) as fh:
        return json.load(fh)


def _load_directions(args, n: int) -> List[Tuple[Fraction, ...]]:
    if getattr(args, "dirs_file", None):
        raw = _read_json(args.dirs_file)
        if not isinstance(raw, list) or not all(isinstance(v, list) for v in raw):
            raise InputError("--dirs-file must hold a JSON list of direction vectors")
        return [tuple(parse_rational(c, "--dirs-file entry") for c in v) for v in raw]
    if getattr(args, "dirs", None):
        return parse_directions(args.dirs, n)
    raise InputError("need --dirs or --dirs-file")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _table_for(args) -> FiniteMapTable:
    """Load --map (reducing to the requested prime field) or --table."""
    if getattr(args, "table", None):
        return table_from_json(_read_json(args.table))
    if not getattr(args, "map", None):
        raise InputError("need --map or --table")
    m = map_from_json(_read_json(args.map))
    if getattr(args, "field", None):
        field = parse_field(args.field)
        if isinstance(field, PrimeField):
            if m.field != field:
                m = reduce_mod(m, field.p)
        elif m.field != QQ:
            raise InputError("cannot lift a prime-field map to the rationals")
    if m.field == QQ:
        raise InputError("tabulation needs a prime field; pass --field p:<prime>")
    return tabulate(m, budget=args.budget)


def cmd_verify_family(args) -> int:
    table = _table_for(args)
    fam = LineFamily(QQ, table.n, tuple(_load_directions(args, table.n)))
    report = check_family(table, fam, args.mode)
    payload = report.to_json()
    ok = report.ok
    if args.parallelism:
        if ok:
            par = parallelism_report(table, fam)
            payload["parallelism"] = par.to_json()
            ok = par.ok
        else:
            payload["parallelism"] = None
    _emit(payload, args.out)
    return 0 if ok else 1


def cmd_recover_form(args) -> int:
    table = _table_for(args)
    if args.kind == "plane":
        form = recover_plane_form(table)
    else:
        fam = LineFamily(QQ, table.n, tuple(_load_directions(args, table.n)))
        form = recover_diagonal_form(table, fam)
    _emit(form.to_json(), args.out)
    return 0


def cmd_constraints(args) -> int:
    system = build_constraints(args.n)
    _emit(system.to_json(), args.emit)
    return 0


def cmd_construct_sharp(args) -> int:
    spec = construct_sharp_map(args.dim)
    alphas = [{"delta": [(m >> i) & 1 for i in range(spec.dim)],
               "value": QQ.to_json(a)} for m, a in sorted(spec.alphas.items())]
    _emit({"dim": spec.dim, "degree": spec.map.degree(),
           "alphas": alphas, "map": map_to_json(spec.map)}, args.out)
    return 0


_EXAMPLES = {
    "r3": lambda field, alpha: example_r3_map(field),
    "four-dir-1": lambda field, alpha: four_direction_form(alpha, 1, field),
    "four-dir-2": lambda field, alpha: four_direction_form(alpha, 2, field),
    "sharp-r4": lambda field, alpha: sharp_r4_map(field),
    "r4-noninjective": lambda field, alpha: noninjective_r4_variant(field),
}


def cmd_example(args) -> int:
    field = parse_field(args.field)
    alpha = field.convert(parse_rational(args.alpha, "--alpha"))
    _emit(map_to_json(_EXAMPLES[args.name](field, alpha)), args.out)
    return 0


def cmd_refute_fifth(args) -> int:
    field = parse_field(args.field)
    alpha = field.convert(parse_rational(args.alpha, "--alpha"))
    map_ = four_direction_form(alpha, args.variant, field)
    u = parse_directions(args.u, 3)
    if len(u) != 1:
        raise InputError("--u must be a single direction")
    direction = tuple(field.convert(c) for c in u[0])
    refuted = fifth_direction_refutation(map_, direction)
    _emit({"variant": args.variant, "u": [str(c) for c in u[0]],
           "refuted": refuted}, args.out)
    return 0 if refuted else 1


def cmd_decide_proj(args) -> int:
    m = decide_projective_linear(proj_table_from_json(_read_json(args.table)))
    if m is None:
        _emit({"projective_linear": False}, args.out)
        return 1
    field = m.field
    _emit({"projective_linear": True,
           "matrix": [[field.to_json(c) for c in row] for row in m.matrix.rows]},
          args.out)
    return 0


def cmd_exhaust(args) -> int:
    fam = LineFamily(QQ, args.n, tuple(_load_directions(args, args.n)))
    tables = exhaustive_bijection_search(args.p, args.n, fam, max_points=args.budget)
    _emit({"count": len(tables),
           "tables": [table_to_json(t) for t in tables]}, args.out)
    return 0


def cmd_scalar_lemmas(args) -> int:
    p = args.p
    if args.lemma == "ratio":
        report = ratio_criterion(p)
        payload, ok = report.to_json(), report.ok
    elif args.lemma == "mult-id":
        rep = verify_multiplicative_rigidity(p)
        ok = rep.shifted_identity_only and rep.brute_force_agrees is not False
        payload = {"p": p, "exponents": list(rep.exponents),
                   "brute_force_agrees": rep.brute_force_agrees,
                   "shifted_identity_only": rep.shifted_identity_only, "ok": ok}
    elif args.lemma == "f2-id":
        rep = verify_multiplicative_rigidity(p)
        ok = rep.scaled_identity_only and not rep.f2_equal_one
        payload = {"p": p, "scaled_identity_only": rep.scaled_identity_only,
                   "f2_equal_one": [list(t) for t in rep.f2_equal_one], "ok": ok}
    elif args.lemma == "diag2str":
        report = verify_diagonal_rigidity(p, 2, parse_x0(args.x0))
        payload, ok = report.to_json(), report.ok
    else:  # add1str
        report = verify_additive_rigidity(p, 2, parse_x0(args.x0))
        payload, ok = report.to_json(), report.ok
    _emit(payload, args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="linemaps",
        description="exact verification toolkit for maps sending line families onto lines")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, budget=False):
        p.add_argument("--out", default=None, help="report path (default: stdout)")
        if budget:
            p.add_argument("--budget", type=int, default=DEFAULT_POINT_BUDGET,
                           help="largest grid p^n a map may be tabulated on")

    p = sub.add_parser("verify-family", help="check lines-onto-lines for a map or table")
    p.add_argument("--map", help="multiaffine map JSON")
    p.add_argument("--table", help="finite table JSON")
    p.add_argument("--field", help="q or p:<prime> (for reducing a rational map)")
    p.add_argument("--dirs", help="direction list, e.g. 'e1,e2,e3,1,1,-1'")
    p.add_argument("--dirs-file", help="JSON file with direction vectors")
    p.add_argument("--mode", choices=["into", "onto"], default="onto")
    p.add_argument("--parallelism", action="store_true",
                   help="also require parallel lines to have parallel images")
    common(p, budget=True)
    p.set_defaults(fn=cmd_verify_family)

    p = sub.add_parser("recover-form", help="recover the plane or diagonal normal form")
    p.add_argument("--map", help="multiaffine map JSON")
    p.add_argument("--table", help="finite table JSON")
    p.add_argument("--field", help="q or p:<prime>")
    p.add_argument("--kind", choices=["plane", "diagonal"], required=True)
    p.add_argument("--dirs", help="n independent directions (diagonal kind)")
    p.add_argument("--dirs-file")
    common(p, budget=True)
    p.set_defaults(fn=cmd_recover_form)

    p = sub.add_parser("constraints", help="emit the coefficient constraint system")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--emit", default=None, help="output path (default: stdout)")
    p.set_defaults(fn=cmd_constraints)

    p = sub.add_parser("construct-sharp", help="build the maximal-degree injective map")
    p.add_argument("--dim", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_construct_sharp)

    p = sub.add_parser("example", help="emit a stock example map")
    p.add_argument("--name", choices=sorted(_EXAMPLES), default="r3")
    p.add_argument("--field", default="q")
    p.add_argument("--alpha", default="1")
    common(p)
    p.set_defaults(fn=cmd_example)

    p = sub.add_parser("refute-fifth", help="test the single-line fifth-direction refutation")
    p.add_argument("--variant", type=int, choices=[1, 2], required=True)
    p.add_argument("--alpha", default="1")
    p.add_argument("--u", default="2,3,1", help="fifth direction (a,b,1)")
    p.add_argument("--field", default="q")
    common(p)
    p.set_defaults(fn=cmd_refute_fifth)

    p = sub.add_parser("decide-proj", help="decide whether a projective table is linear")
    p.add_argument("--table", required=True, help="projective table JSON")
    common(p)
    p.set_defaults(fn=cmd_decide_proj)

    p = sub.add_parser("exhaust", help="enumerate all grid bijections passing the family check")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dirs", help="direction list")
    p.add_argument("--dirs-file")
    p.add_argument("--mode", choices=["into", "onto"], default="onto",
                   help="has no effect: into and onto agree for bijections")
    p.add_argument("--out", default=None)
    p.add_argument("--budget", type=int, default=9,
                   help="largest grid size the (grid!)-search may attempt")
    p.set_defaults(fn=cmd_exhaust)

    p = sub.add_parser("scalar-lemmas", help="run a scalar rigidity verification")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--lemma", required=True,
                   choices=["ratio", "mult-id", "f2-id", "diag2str", "add1str"])
    p.add_argument("--x0", default="1,1", help="pinning point for diag2str/add1str")
    common(p)
    p.set_defaults(fn=cmd_scalar_lemmas)

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except InternalInconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
