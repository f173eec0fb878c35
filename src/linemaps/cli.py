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

The parsers need only `exact` and `grid`, which load with this module; each
command imports the rest of what it runs when it runs, so a process loads only
the modules of its own command.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .exact import (
    Field, InputError, InternalInconsistencyError, PrimeField, QQ,
    ResourceError, _nonzero_numerators, unit_vector,
)
from .grid import FiniteMapTable, LineFamily, _grid_size, table_from_json, table_to_json

_E_TOKEN = re.compile(r"^e(\d{1,9})$")  # int() refuses a string of over 4300 digits

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
    """A rational literal such as "-3", "2/5" or "1.5e-3"; anything else,
    "1/0" included, is an InputError naming `what`.  So is a literal whose
    numerator or denominator, as written, has more than 4300 digits: the
    field's reader refuses it before Fraction builds it."""
    text = str(text)
    try:
        return QQ.parse(text)
    except InputError as exc:
        raise InputError(f"bad {what}: {exc}") from exc
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
    return dirs


def _compact(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(obj: dict, out: Optional[str]) -> None:
    _write([_compact(obj), "\n"], out)


def _write(chunks: Iterable[str], out: Optional[str]) -> None:
    """The report's text, piece by piece, on stdout or in the file at out."""
    if out is None or out == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w") as fh:
            fh.writelines(chunks)


def _read_json(path: str):
    """The JSON value in the file at path.  The CLI reads every input file
    here, and nothing in the library opens a file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # malformed, or an int past 4300 digits
            raise InputError(str(exc)) from exc


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
    from .multiaffine import map_from_json, reduce_mod, tabulate
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
    return tabulate(m)


def cmd_verify_family(args) -> int:
    from .collineations import check_family, parallelism_report
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
    from .collineations import recover_diagonal_form, recover_plane_form
    table = _table_for(args)
    if args.kind == "plane":
        form = recover_plane_form(table)
    else:
        fam = LineFamily(QQ, table.n, tuple(_load_directions(args, table.n)))
        form = recover_diagonal_form(table, fam)
    _emit(form.to_json(), args.out)
    return 0


def cmd_constraints(args) -> int:
    from .constraints import build_constraints
    from .multiaffine import mask_to_delta
    system = build_constraints(args.n)

    def text() -> Iterator[str]:
        # what `_emit` writes for system.to_json(), one row at a time: at
        # n = 12 the rows hold 11,354,112 entries, whose JSON tree and text
        # would otherwise be built whole.  Sorted, "rows" comes before
        # "unknowns".  A row starts as the zero text repeated, and only its
        # nonzero entries, found by the kernel's slot scan, are rendered:
        # most entries are zero, and Fraction.__str__ is slow
        yield '{"rows":['
        zero = _compact(QQ.to_json(QQ.zero()))
        for i, row in enumerate(system.rows.rows):
            cells = [zero] * len(row)
            for j in _nonzero_numerators(row):
                cells[j] = _compact(QQ.to_json(row[j]))
            yield ("," if i else "") + "[" + ",".join(cells) + "]"
        unknowns = [list(mask_to_delta(m, system.n)) for m in system.unknowns]
        yield '],"unknowns":' + _compact(unknowns) + "}\n"

    _write(text(), args.emit)
    return 0


def cmd_construct_sharp(args) -> int:
    from .constraints import construct_sharp_map
    from .multiaffine import map_to_json, mask_to_delta
    spec = construct_sharp_map(args.dim)
    alphas = [{"delta": list(mask_to_delta(m, spec.dim)),
               "value": QQ.to_json(a)} for m, a in sorted(spec.alphas.items())]
    _emit({"dim": spec.dim, "degree": spec.map.degree(),
           "alphas": alphas, "map": map_to_json(spec.map)}, args.out)
    return 0


# each stock example, built from the `constraints` module that the command loads
_EXAMPLES = {
    "r3": lambda c, field, alpha: c.example_r3_map(field),
    "four-dir-1": lambda c, field, alpha: c.four_direction_form(alpha, 1, field),
    "four-dir-2": lambda c, field, alpha: c.four_direction_form(alpha, 2, field),
    "sharp-r4": lambda c, field, alpha: c.sharp_r4_map(field),
    "r4-noninjective": lambda c, field, alpha: c.noninjective_r4_variant(field),
}


def cmd_example(args) -> int:
    from . import constraints
    from .multiaffine import map_to_json
    field = parse_field(args.field)
    alpha = field.convert(parse_rational(args.alpha, "--alpha"))
    _emit(map_to_json(_EXAMPLES[args.name](constraints, field, alpha)), args.out)
    return 0


def cmd_refute_fifth(args) -> int:
    from .constraints import fifth_direction_refutation, four_direction_form
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
    from .projective import decide_projective_linear, proj_table_from_json
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
    from .collineations import exhaustive_bijection_search
    # a huge n is refused before the directions are read: e1 is a vector of length n
    _grid_size(PrimeField(args.p).p, args.n)
    fam = LineFamily(QQ, args.n, tuple(_load_directions(args, args.n)))
    tables = exhaustive_bijection_search(args.p, args.n, fam)
    _emit({"count": len(tables),
           "tables": [table_to_json(t) for t in tables]}, args.out)
    return 0


def cmd_scalar_lemmas(args) -> int:
    from .scalars import (
        ratio_criterion, verify_additive_rigidity, verify_diagonal_rigidity,
        verify_multiplicative_rigidity,
    )
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

    def common(p):
        p.add_argument("--out", default=None, help="report path (default: stdout)")

    p = sub.add_parser("verify-family", help="check lines-onto-lines for a map or table")
    p.add_argument("--map", help="multiaffine map JSON")
    p.add_argument("--table", help="finite table JSON")
    p.add_argument("--field", help="q or p:<prime> (for reducing a rational map)")
    p.add_argument("--dirs", help="direction list, e.g. 'e1,e2,e3,1,1,-1'")
    p.add_argument("--dirs-file", help="JSON file with direction vectors")
    p.add_argument("--mode", choices=["into", "onto"], default="onto")
    p.add_argument("--parallelism", action="store_true",
                   help="also require parallel lines to have parallel images")
    common(p)
    p.set_defaults(fn=cmd_verify_family)

    p = sub.add_parser("recover-form", help="recover the plane or diagonal normal form")
    p.add_argument("--map", help="multiaffine map JSON")
    p.add_argument("--table", help="finite table JSON")
    p.add_argument("--field", help="q or p:<prime>")
    p.add_argument("--kind", choices=["plane", "diagonal"], required=True)
    p.add_argument("--dirs", help="n independent directions (diagonal kind)")
    p.add_argument("--dirs-file")
    common(p)
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
    common(p)
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
    except (InputError, OSError) as exc:
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
