"""Command-line front door: flag parsing, exit codes, deterministic reports."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linemaps import (
    PrimeField,
    ProjLinearMap,
    QQ,
    example_r3_map,
    map_to_json,
    matrix,
    pg_points,
    proj_table_from_map,
    proj_table_to_json,
    reduce_mod,
    table_from_function,
    table_to_json,
    tabulate,
)
from linemaps.cli import main, parse_directions, parse_field
from linemaps.exact import InputError, InternalInconsistencyError


@pytest.fixture()
def r3_map_file(tmp_path):
    path = tmp_path / "r3.json"
    path.write_text(json.dumps(map_to_json(example_r3_map(QQ))))
    return str(path)


@pytest.fixture()
def r3_table_file(tmp_path):
    path = tmp_path / "r3_table.json"
    table = tabulate(reduce_mod(example_r3_map(QQ), 5))
    path.write_text(json.dumps(table_to_json(table)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------


def test_parse_field():
    assert parse_field("q") is QQ
    assert parse_field("rational") is QQ
    assert parse_field("p:7") == PrimeField(7)
    for bad in ("p:4", "p:x", "reals"):
        with pytest.raises(InputError):
            parse_field(bad)


def test_parse_directions_mixed_tokens():
    dirs = parse_directions("e1,e2,e3,1,1,-1", 3)
    assert dirs == [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                    (Fraction(1), Fraction(1), Fraction(-1))]


def test_parse_directions_semicolons_and_runs():
    assert parse_directions("1,0;0,1", 2) == [(1, 0), (0, 1)]
    assert parse_directions("1,0,0,1", 2) == [(1, 0), (0, 1)]


def test_parse_directions_errors():
    with pytest.raises(InputError):
        parse_directions("e4", 3)  # out of range
    with pytest.raises(InputError):
        parse_directions("1,2;3", 2)  # dangling coordinates
    with pytest.raises(InputError):
        parse_directions("1,e1", 2)  # e-token interrupting a vector


# ---------------------------------------------------------------------------
# verify-family
# ---------------------------------------------------------------------------


def test_verify_family_four_directions_passes(capsys, r3_map_file):
    code, out = run(capsys, "verify-family", "--map", r3_map_file,
                    "--field", "p:5", "--dirs", "e1,e2,e3,1,1,-1",
                    "--mode", "onto")
    assert code == 0
    assert json.loads(out) == {"ok": True, "violations": []}


def test_verify_family_reports_violations(capsys, r3_table_file):
    code, out = run(capsys, "verify-family", "--table", r3_table_file,
                    "--dirs", "1,0,1")
    assert code == 1
    report = json.loads(out)
    assert not report["ok"]
    assert len(report["violations"]) == 25
    assert report["violations"][0] == {"direction": [1, 0, 1],
                                       "base": [0, 0, 0],
                                       "reason": "not-a-line"}


def test_verify_family_parallelism_flag(capsys, r3_map_file):
    code, out = run(capsys, "verify-family", "--map", r3_map_file,
                    "--field", "p:5", "--dirs", "e1,e2,e3", "--parallelism")
    assert code == 1  # lines stay lines but parallel classes are torn apart
    report = json.loads(out)
    assert report["ok"] is True
    assert report["parallelism"]["ok"] is False


def test_verify_family_rational_map_needs_field(capsys, r3_map_file):
    code = main(["verify-family", "--map", r3_map_file, "--dirs", "e1,e2,e3"])
    assert code == 2


def test_verify_family_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify-family", "--map", str(bad), "--field", "p:5",
                 "--dirs", "e1"]) == 2


def test_verify_family_missing_file(capsys, tmp_path):
    assert main(["verify-family", "--map", str(tmp_path / "nope.json"),
                 "--field", "p:5", "--dirs", "e1"]) == 2


def test_reports_are_byte_identical(capsys, r3_table_file):
    _, first = run(capsys, "verify-family", "--table", r3_table_file,
                   "--dirs", "1,0,1")
    _, second = run(capsys, "verify-family", "--table", r3_table_file,
                    "--dirs", "1,0,1")
    assert first == second
    assert first.endswith("\n")


# ---------------------------------------------------------------------------
# recover-form
# ---------------------------------------------------------------------------


def test_recover_plane_form_cli(capsys, tmp_path):
    from linemaps import table_from_function
    table = table_from_function(5, 2, 3,
                                lambda x: (x[0], x[1], x[0] * x[1] % 5))
    path = tmp_path / "hp.json"
    path.write_text(json.dumps(table_to_json(table)))
    code, out = run(capsys, "recover-form", "--table", str(path),
                    "--kind", "plane")
    assert code == 0
    form = json.loads(out)
    assert form["u3"] == [0, 0, 1]
    assert form["cross_term_vanishes"] is False


def test_recover_diagonal_form_cli(capsys, tmp_path):
    from linemaps import table_from_function
    cube = lambda v: pow(v, 3, 5)
    table = table_from_function(5, 2, 2, lambda x: (cube(x[0]), cube(x[1])))
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(table_to_json(table)))
    code, out = run(capsys, "recover-form", "--table", str(path),
                    "--kind", "diagonal", "--dirs", "e1,e2")
    assert code == 0
    form = json.loads(out)
    assert form["f"] == [[0, 1, 3, 2, 4], [0, 1, 3, 2, 4]]


def test_recover_plane_form_on_a_torn_axis_line_is_input_error(capsys, tmp_path):
    # the identity of (Z_5)^2 with the images of (0,0) and (1,1) swapped is
    # injective, but tears the two axis lines through the origin
    swap = {(0, 0): (1, 1), (1, 1): (0, 0)}
    table = table_from_function(5, 2, 2, lambda x: swap.get(x, x))
    path = tmp_path / "torn.json"
    path.write_text(json.dumps(table_to_json(table)))
    assert main(["recover-form", "--table", str(path), "--kind", "plane"]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


def test_recover_form_precondition_failure_is_input_error(capsys, r3_table_file):
    code = main(["recover-form", "--table", r3_table_file,
                 "--kind", "diagonal", "--dirs", "e1,e2,e3"])
    assert code == 2  # the example map violates the parallelism precondition


# ---------------------------------------------------------------------------
# constraints / construct-sharp / example
# ---------------------------------------------------------------------------


def test_constraints_cli_emits_the_three_variable_system(capsys):
    code, out = run(capsys, "constraints", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["unknowns"][0] == [1, 1, 1]
    assert payload["rows"] == [
        ["1", "0", "0", "0", "0", "0", "0", "0"],
        ["0", "1", "1", "0", "1", "0", "0", "0"],
    ]


def test_constraints_cli_writes_files(capsys, tmp_path):
    path = tmp_path / "system.json"
    code = main(["constraints", "--n", "4", "--emit", str(path)])
    assert code == 0
    payload = json.loads(path.read_text())
    assert len(payload["rows"]) == 6
    assert len(payload["unknowns"]) == 16


@pytest.mark.parametrize("n", range(2, 10))
def test_constraints_cli_streams_the_compact_json_of_the_system(capsys, tmp_path, n):
    # written a row at a time, byte for byte what json.dumps gives for the
    # whole report, on stdout and in a file
    from linemaps.constraints import build_constraints
    want = json.dumps(build_constraints(n).to_json(), sort_keys=True, separators=(",", ":")) + "\n"
    assert run(capsys, "constraints", "--n", str(n)) == (0, want)
    path = tmp_path / "system.json"
    assert main(["constraints", "--n", str(n), "--emit", str(path)]) == 0
    assert path.read_text() == want


def test_constraints_cli_rejects_n1(capsys):
    assert main(["constraints", "--n", "1"]) == 2


def test_construct_sharp_cli(capsys):
    code, out = run(capsys, "construct-sharp", "--dim", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 2
    assert payload["alphas"] == [
        {"delta": [1, 1, 0, 0], "value": "-1"},
        {"delta": [1, 0, 1, 0], "value": "1"},
    ]
    assert main(["construct-sharp", "--dim", "3"]) == 2


def test_example_cli_round_trips_through_the_loader(capsys, tmp_path):
    from linemaps import map_from_json, evaluate, vector
    path = tmp_path / "map.json"
    code = main(["example", "--name", "r3", "--out", str(path)])
    assert code == 0
    mp = map_from_json(json.loads(path.read_text()))
    assert evaluate(mp, vector(QQ, (1, 2, 3))) == (-2, -1, 3)


def test_example_cli_all_names(capsys):
    for name in ("r3", "four-dir-1", "four-dir-2", "sharp-r4", "r4-noninjective"):
        code, out = run(capsys, "example", "--name", name, "--field", "p:5")
        assert code == 0
        assert json.loads(out)["field"] == {"type": "prime", "p": 5}


def test_unknown_example_name_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main(["example", "--name", "mystery"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# refute-fifth / decide-proj / exhaust / scalar-lemmas
# ---------------------------------------------------------------------------


def test_refute_fifth_cli(capsys):
    for variant in ("1", "2"):
        for field in ("q", "p:5"):
            code, out = run(capsys, "refute-fifth", "--variant", variant,
                            "--field", field)
            assert code == 0
            assert json.loads(out)["refuted"] is True
    assert main(["refute-fifth", "--variant", "1", "--u", "1,1,1"]) == 2


def test_decide_proj_cli(capsys, tmp_path):
    F = PrimeField(3)
    m = ProjLinearMap(matrix(F, ((1, 2, 0), (0, 1, 1), (1, 0, 2))))
    good = tmp_path / "linear.json"
    good.write_text(json.dumps(proj_table_to_json(proj_table_from_map(m, 3))))
    code, out = run(capsys, "decide-proj", "--table", str(good))
    assert code == 0
    payload = json.loads(out)
    assert payload["projective_linear"] is True
    assert payload["matrix"] == [[1, 2, 0], [0, 1, 1], [1, 0, 2]]

    values = list(proj_table_from_map(m, 3).values)
    values[0], values[1] = values[1], values[0]
    bad = tmp_path / "twisted.json"
    bad.write_text(json.dumps({"p": 3, "n": 2,
                               "values": [list(v) for v in values]}))
    code, out = run(capsys, "decide-proj", "--table", str(bad))
    assert code == 1
    assert json.loads(out) == {"projective_linear": False}


def test_exhaust_cli(capsys):
    code, out = run(capsys, "exhaust", "--p", "3", "--n", "2",
                    "--dirs", "e1,e2")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 432
    assert payload["tables"][0]["values"][:3] == [[0, 0], [0, 1], [0, 2]]
    # rerunning is byte-stable
    _, again = run(capsys, "exhaust", "--p", "3", "--n", "2", "--dirs", "e1,e2")
    assert again == out


def test_exhaust_budget_guard(capsys):
    assert main(["exhaust", "--p", "5", "--n", "3", "--dirs", "e1,e2,e3"]) == 3


def test_exhaust_stops_at_the_search_node_budget(capsys):
    # |AGL(2,5)| = 12,000 and |AGL(1,997)| = 993,012 both fit in the node
    # budget, so the kernel runs and the budget stops it there; the second
    # search is 997 slots deep.  (Z_3)^7 is refused by |AGL(7,3)| before it
    for argv in (("--p", "5", "--n", "2", "--dirs", "e1,e2"),
                 ("--p", "997", "--n", "1", "--dirs", "e1"),
                 ("--p", "3", "--n", "7", "--dirs", "e1")):
        assert main(["exhaust", *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "resource guard: search passed its budget of 1000000 nodes\n"


def test_scalar_lemmas_cli(capsys):
    cases = [
        (("--p", "5", "--lemma", "ratio"), 0),
        (("--p", "7", "--lemma", "mult-id"), 0),
        (("--p", "7", "--lemma", "f2-id"), 0),
        (("--p", "3", "--lemma", "diag2str", "--x0", "1,0"), 0),
        (("--p", "3", "--lemma", "add1str"), 0),
        (("--p", "4", "--lemma", "ratio"), 2),
        (("--p", "11", "--lemma", "ratio"), 3),
    ]
    for flags, expected in cases:
        assert main(["scalar-lemmas", *flags]) == expected, flags
        capsys.readouterr()


def test_a_bad_pinning_point_past_the_size_guard_is_an_input_error(capsys):
    # p = 11 is past the guards of both plane lemmas: bad input still exits 2
    for lemma, x0, expected in (("diag2str", "0,0", 2), ("diag2str", "2,1", 2),
                                ("add1str", "1", 2), ("diag2str", "1,0", 3),
                                ("add1str", "0,0", 3)):
        code, _, err = _exit_code_and_time(
            capsys, ["scalar-lemmas", "--p", "11", "--lemma", lemma, "--x0", x0])
        assert code == expected, (lemma, x0)
        assert err.startswith("input error: " if expected == 2 else "resource guard: ")


def test_bad_flag_values_are_input_errors(capsys, tmp_path):
    # each of these once escaped as a traceback with exit 1 (a ZeroDivisionError,
    # a ValueError, an IndexError or a TypeError from the parse site)
    bad_entry = tmp_path / "bad_entry.json"
    bad_entry.write_text(json.dumps([[1, 0], ["a", 1]]))
    zero_den = tmp_path / "zero_den.json"
    zero_den.write_text(json.dumps([["1/0", 1]]))
    not_vectors = tmp_path / "not_vectors.json"
    not_vectors.write_text(json.dumps([1, 0]))
    cases = [
        ("example", "--alpha", "1/0"),
        ("example", "--alpha", "x"),
        ("refute-fifth", "--variant", "1", "--alpha", "1/0"),
        ("scalar-lemmas", "--p", "5", "--lemma", "diag2str", "--x0", "a,b"),
        ("scalar-lemmas", "--p", "5", "--lemma", "add1str", "--x0", "1"),
        ("exhaust", "--p", "3", "--n", "2", "--dirs", "1/0,1"),
        ("exhaust", "--p", "3", "--n", "2", "--dirs-file", str(bad_entry)),
        ("exhaust", "--p", "3", "--n", "2", "--dirs-file", str(zero_den)),
        ("exhaust", "--p", "3", "--n", "2", "--dirs-file", str(not_vectors)),
    ]
    for argv in cases:
        assert main(list(argv)) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: "), argv


def test_unreadable_files_are_input_errors(capsys, tmp_path):
    # a directory or a non-UTF-8 file once escaped as a traceback with exit 1
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\x80\xff{}")
    cases = []
    for path in (str(tmp_path), str(not_utf8)):
        cases += [
            ("verify-family", "--table", path, "--dirs", "e1"),
            ("verify-family", "--map", path, "--field", "p:5", "--dirs", "e1"),
            ("decide-proj", "--table", path),
            ("exhaust", "--p", "3", "--n", "2", "--dirs-file", path),
        ]
    for argv in cases:
        assert main(list(argv)) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: "), argv


def test_map_files_with_coerced_entries_are_input_errors(capsys, tmp_path):
    # a float n or p, a true delta entry or coefficient was once truncated or
    # coerced to an int and the command ran on the wrong map
    def spoil_n(obj):
        obj["n"] = 3.0

    def spoil_p(obj):
        obj["field"] = {"type": "prime", "p": 7.9}

    def spoil_delta(obj):
        obj["coeffs"][0]["delta"][0] = True

    def spoil_value(obj):
        obj["coeffs"][0]["value"][0] = True

    for spoil in (spoil_n, spoil_p, spoil_delta, spoil_value):
        obj = map_to_json(example_r3_map(QQ))
        spoil(obj)
        path = tmp_path / "spoiled.json"
        path.write_text(json.dumps(obj))
        argv = ["verify-family", "--map", str(path), "--field", "p:5", "--dirs", "e1"]
        assert main(argv) == 2, spoil.__name__
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: "), spoil.__name__


def test_internal_inconsistency_has_its_own_exit_code(capsys, monkeypatch):
    # the command imports construct_sharp_map when it runs, so it is patched
    # where it is defined
    import linemaps.constraints as constraints_module

    def broken(dim):
        raise InternalInconsistencyError("sharp map violates the constraint system")

    monkeypatch.setattr(constraints_module, "construct_sharp_map", broken)
    assert main(["construct-sharp", "--dim", "4"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("inconsistency: ")


def test_dirs_file_accepts_rational_entries(capsys, tmp_path):
    dirs = tmp_path / "dirs.json"
    dirs.write_text(json.dumps([[1, 0], ["0", "1/2"]]))
    code, out = run(capsys, "exhaust", "--p", "3", "--n", "2", "--dirs-file", str(dirs))
    assert code == 0 and json.loads(out)["count"] == 432


def test_a_rational_literal_past_the_digit_limit_is_refused_before_it_is_built(
        capsys, tmp_path, monkeypatch):
    # example --alpha 1e4400 built the value and then failed to print it: a
    # ValueError traceback from _emit, exit 1; Fraction("1e9999999") alone took
    # 5 s.  The numerator and denominator as written are counted from the text
    # (10**k has k + 1 digits) by the field's literal reader, and Fraction is
    # never called on such a literal
    import linemaps.exact as exact_module

    def never(text):
        raise AssertionError("Fraction was called")

    huge = ("1e4400", "1e-5000", "1e9999999", "0e99999999", "1e4300", "1e-4300", "1" * 4301,
            "0." + "0" * 4299 + "1", "1/" + "1" * 4301, "1_0e4299", "1e" + "9" * 5000)
    with monkeypatch.context() as patched:
        patched.setattr(exact_module, "Fraction", never)
        for alpha in huge:
            code, elapsed, err = _exit_code_and_time(
                capsys, ["example", "--name", "four-dir-1", "--alpha", alpha])
            assert (code, err) == (2, "input error: bad --alpha: a literal of more than "
                                      "4300 digits\n"), alpha[:20]
            assert elapsed < 0.1
    # at the limit the value is built and printed exactly
    for alpha, value in (("1e4299", 10 ** 4299), ("1e-4299", Fraction(1, 10 ** 4299)),
                         ("0." + "0" * 4298 + "1", Fraction(1, 10 ** 4299))):
        code, out = run(capsys, "example", "--name", "four-dir-1", "--alpha", alpha)
        assert code == 0 and json.loads(out)["coeffs"][3]["value"][0] == str(value)
    # the same reader serves --dirs and --dirs-file entries
    dirs = tmp_path / "dirs.json"
    dirs.write_text(json.dumps([[1, 0], ["1e-5000", 1]]))
    for argv, what in ((["--dirs", "1e4400,1"], "direction entry"),
                       (["--dirs-file", str(dirs)], "--dirs-file entry")):
        code, _, err = _exit_code_and_time(capsys, ["exhaust", "--p", "3", "--n", "2", *argv])
        assert (code, err) == (2, f"input error: bad {what}: a literal of more than 4300 digits\n")


def _r3_map_json_with(value):
    """The r3 example map's JSON with its first coefficient entry replaced."""
    obj = map_to_json(example_r3_map(QQ))
    obj["coeffs"][0]["value"][0] = value
    return json.dumps(obj)


@pytest.mark.parametrize("value", ("1e20000000", "1e-5000"))
def test_a_map_coefficient_past_the_digit_limit_is_an_input_error(capsys, tmp_path, value):
    # "1e20000000" ran 32 s and exited 1 with a report; "1e-5000" exited 1
    # with a ValueError traceback from formatting its denominator mod 5
    path = tmp_path / "m.json"
    path.write_text(_r3_map_json_with(value))
    code, elapsed, err = _exit_code_and_time(
        capsys, ["verify-family", "--map", str(path), "--field", "p:5", "--dirs", "e1"])
    assert (code, err) == (2, "input error: bad map JSON: a literal of more than 4300 digits\n")
    assert elapsed < 0.1


def test_a_json_int_past_the_digit_limit_is_an_input_error(capsys, tmp_path):
    # json.load raises a bare ValueError on such an int, not a JSONDecodeError:
    # it escaped as a traceback with exit 1
    path = tmp_path / "dirs.json"
    path.write_text("[[1, " + "1" * 5000 + "]]")
    code, _, err = _exit_code_and_time(
        capsys, ["exhaust", "--p", "3", "--n", "2", "--dirs-file", str(path)])
    assert code == 2 and err.startswith("input error: Exceeds the limit (4300 digits)")


def test_the_multiplicative_lemmas_refuse_a_prime_past_their_guard(capsys):
    # scalar-lemmas --p 7919 --lemma f2-id ran 46 s and exited 0
    for lemma in ("mult-id", "f2-id"):
        code, elapsed, err = _exit_code_and_time(
            capsys, ["scalar-lemmas", "--p", "7919", "--lemma", lemma])
        assert code == 3 and err.startswith("resource guard: search passed its budget")
        assert elapsed < 0.1


def test_huge_prime_hits_the_guard_at_once(capsys):
    # 2^61 - 1 is prime: it used to take trial division past 15 s to see that
    t0 = time.perf_counter()
    code = main(["scalar-lemmas", "--p", str(2 ** 61 - 1), "--lemma", "ratio"])
    assert code == 3
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.startswith("resource guard: ")


def _exit_code_and_time(capsys, argv):
    t0 = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert captured.out == "", argv
    return code, elapsed, captured.err


def test_projective_table_with_a_huge_space_is_rejected_before_enumeration(capsys, tmp_path):
    # PG(4, 10007) has about 10^16 points: they were enumerated before the
    # (empty) value list was counted, and the command hung
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"p": 10007, "n": 4, "values": []}))
    code, elapsed, err = _exit_code_and_time(capsys, ["decide-proj", "--table", str(path)])
    assert code == 2 and err.startswith("input error: ")
    assert elapsed < 1.0


def test_finite_table_with_a_huge_dimension_is_rejected_before_the_power(capsys, tmp_path):
    # 3**100000000 was computed to count the values, and the command hung
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"p": 3, "n": 100000000, "m": 1, "values": []}))
    code, elapsed, err = _exit_code_and_time(
        capsys, ["verify-family", "--table", str(path), "--dirs", "e1"])
    assert code == 2 and err.startswith("input error: ")
    assert elapsed < 1.0


def test_a_table_of_long_values_is_checked_at_once(capsys, tmp_path):
    # an injective table of (Z_3)^1 into (Z_3)^40: the line walk must build
    # nothing sized by (2p)^m, which at m = 40 never finishes
    path = tmp_path / "long.json"
    values = [[(i * j + i) % 3 for j in range(40)] for i in range(3)]
    path.write_text(json.dumps({"p": 3, "n": 1, "m": 40, "values": values}))
    t0 = time.perf_counter()
    code = main(["verify-family", "--table", str(path), "--dirs", "e1", "--parallelism"])
    elapsed = time.perf_counter() - t0
    assert code == 0 and elapsed < 0.1
    assert json.loads(capsys.readouterr().out) == {
        "ok": True, "parallelism": {"ok": True, "violations": []}, "violations": []}


def test_a_huge_dimension_trips_the_grid_guards_before_the_power(capsys, tmp_path):
    # both guards formatted p**n into their message, and a power past 4300
    # digits cannot be turned into a string: a ValueError traceback, exit 1
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 10000, "m": 1, "field": {"type": "prime", "p": 3},
                                "coeffs": []}))
    for argv in (["exhaust", "--p", "3", "--n", "10000", "--dirs", "e1"],
                 ["verify-family", "--map", str(path), "--dirs", "e1"]):
        code, elapsed, err = _exit_code_and_time(capsys, argv)
        assert code == 3 and err.startswith("resource guard: "), argv
        assert "3^10000" in err and "Traceback" not in err, argv
        assert elapsed < 1.0


def test_a_constraint_system_past_the_dense_bound_trips_its_guard(capsys):
    # n = 13 once built its 51,920,896 dense entries and could end in a
    # MemoryError traceback with exit 1
    code, elapsed, err = _exit_code_and_time(capsys, ["constraints", "--n", "13"])
    assert code == 3 and err.startswith("resource guard: ")
    assert "n = 13" in err and "Traceback" not in err
    assert elapsed < 1.0


@pytest.mark.parametrize("dim", ("16", "1000000"))
def test_a_sharp_system_past_the_dense_bound_trips_its_guard(capsys, dim):
    # dim = 16 once built its 51,531,480 dense entries and ran on for more
    # than 30 s; a huge dim is refused without a binomial
    code, elapsed, err = _exit_code_and_time(capsys, ["construct-sharp", "--dim", dim])
    assert code == 3 and err.startswith("resource guard: ")
    assert f"dim = {dim}" in err and "Traceback" not in err
    assert elapsed < 1.0


def test_projective_tables_need_n_at_least_one(capsys, tmp_path):
    # n = 0 and n = -1 once reached the decision procedure and exited 1
    # with "decided": false
    for n, values in ((0, [[1]]), (-1, [])):
        path = tmp_path / "small.json"
        path.write_text(json.dumps({"p": 3, "n": n, "values": values}))
        code, elapsed, err = _exit_code_and_time(capsys, ["decide-proj", "--table", str(path)])
        assert code == 2 and err.startswith("input error: "), n
        assert elapsed < 1.0


def test_table_files_with_coerced_sizes_are_input_errors(capsys, tmp_path):
    # int() once truncated or parsed these, and the command ran on the
    # truncated table with exit 0
    proj = proj_table_to_json(proj_table_from_map(
        ProjLinearMap(matrix(PrimeField(3), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))), 3))
    finite = table_to_json(table_from_function(3, 2, 2, lambda x: x))
    cases = [(["decide-proj"], proj, {"p": 3.9}), (["decide-proj"], proj, {"p": "3"}),
             (["decide-proj"], proj, {"n": 2.0})]
    for spoil in ({"p": 3.5}, {"n": 2.2}, {"m": "2"}, {"p": 3.5, "n": 2.2, "m": "2"}):
        cases.append((["verify-family", "--dirs", "e1"], finite, spoil))
    for command, obj, spoil in cases:
        path = tmp_path / "spoiled.json"
        path.write_text(json.dumps({**obj, **spoil}))
        code, elapsed, err = _exit_code_and_time(capsys, [*command, "--table", str(path)])
        assert code == 2 and err.startswith("input error: "), (command, spoil)
        assert elapsed < 1.0


def test_budget_is_an_option_of_no_command(capsys, r3_map_file):
    # each command's own arguments parse, and --budget is refused: the point
    # budget of a tabulated map is a constant, as the search's node budget is
    for argv in (["verify-family", "--map", r3_map_file, "--field", "p:5", "--dirs", "e1"],
                 ["recover-form", "--map", r3_map_file, "--field", "p:5", "--kind", "plane"],
                 ["constraints", "--n", "2"], ["construct-sharp", "--dim", "2"],
                 ["example", "--name", "r3"], ["refute-fifth", "--variant", "1"],
                 ["decide-proj", "--table", r3_map_file],
                 ["exhaust", "--p", "3", "--n", "2", "--dirs", "e1"],
                 ["scalar-lemmas", "--p", "5", "--lemma", "ratio"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--budget", "100"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == "", argv
        assert "unrecognized arguments: --budget 100" in captured.err, argv
    # the r3 map over Z_101 has 101^3 = 1,030,301 points, past the default
    for command in (["verify-family", "--dirs", "e1"], ["recover-form", "--kind", "plane"]):
        assert main([*command, "--map", r3_map_file, "--field", "p:101"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("resource guard: a grid of 101^3 points exceeds the "
                                       "point budget of 1000000 points")
    # into and onto agree for bijections: exhaust has no mode
    with pytest.raises(SystemExit) as exc:
        main(["exhaust", "--p", "3", "--n", "2", "--dirs", "e1", "--mode", "onto"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_exhaust_refuses_a_huge_dimension_before_building_the_family(capsys, monkeypatch):
    # e1 was a tuple of n entries, built and checked before the search's grid
    # guard: 0.2 s and 85 MB at n = 3 * 10^6, growing linearly with n
    import linemaps.cli as cli_module

    def never(*args):
        raise AssertionError("the directions were read")

    monkeypatch.setattr(cli_module, "_load_directions", never)
    for n in ("20", str(10 ** 8)):
        code, elapsed, err = _exit_code_and_time(
            capsys, ["exhaust", "--p", "3", "--n", n, "--dirs", "e1"])
        assert code == 3 and err.startswith(f"resource guard: a grid of 3^{n} points")
        assert elapsed < 1.0


def test_an_empty_family_is_an_input_error(capsys, tmp_path, r3_map_file):
    # exhaust once printed all 362,880 bijections of (Z_3)^2 (30.8 MB) with exit 0
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    for argv in (["exhaust", "--p", "3", "--n", "2", "--dirs-file", str(empty)],
                 ["exhaust", "--p", "3", "--n", "2", "--dirs", ","],
                 ["verify-family", "--map", r3_map_file, "--field", "p:5",
                  "--dirs-file", str(empty)]):
        code, elapsed, err = _exit_code_and_time(capsys, argv)
        assert code == 2 and err == "input error: a family needs at least one direction\n"
        assert elapsed < 1.0


# an int flag as text: small, any size, past int()'s 4300 digits, a float or
# a bool
_INT_TEXT = st.one_of(
    st.integers(-1, 8).map(str), st.integers().map(str), st.just("9" * 5000),
    st.floats().map(repr), st.booleans().map(str))
# direction lists: unit tokens in and out of range and entries that group into
# vectors of any length (so duplicate, parallel, zero and dangling ones), a
# rational, a zero denominator, junk and empty groups
_DIRS = st.lists(st.one_of(
    st.integers(0, 4).map(lambda i: f"e{i}"), st.integers(-2, 2).map(str),
    st.sampled_from(("1/2", "1/0", "x", "", ";", "e" + "9" * 5000))), max_size=6).map(",".join)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(p=_INT_TEXT, n=_INT_TEXT, dirs=_DIRS)
# each exit code, and the breaches this test found: a negative power of 0, a
# direction of length n built before the grid guard, an e-token past int()'s
# digit limit
@example(p="3", n="2", dirs="e1,e2")
@example(p="7", n="1", dirs="e1")
@example(p="5", n="3", dirs="e1,e2,e3")
@example(p="3", n="2", dirs=",")
@example(p="0", n="-1", dirs="")
@example(p="3", n=str(10 ** 30), dirs="e1")
@example(p="3", n="2", dirs="e" + "9" * 5000)
def test_exhaust_fuzz_ends_in_an_exit_code_and_never_a_traceback(p, n, dirs):
    # in-process through main, as the console script runs it; argparse's own
    # refusals are a SystemExit
    argv = ["exhaust", f"--p={p}", f"--n={n}", f"--dirs={dirs}"]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert time.perf_counter() - t0 < 2.0, argv
    assert code in (0, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if code:
        assert out.getvalue() == "", argv
    else:
        payload = json.loads(out.getvalue())
        assert payload["count"] == len(payload["tables"]) > 0, argv


# --alpha literals: small rationals, exponents either way past the digit limit,
# a zero denominator, more digits than the limit, junk
_ALPHA = st.one_of(
    st.fractions(max_denominator=50).map(str), st.integers(-6000, 6000).map("1e{}".format),
    st.integers(0, 10 ** 12).map("0.5e-{}".format),
    st.sampled_from(("1/0", "0", "x", "", "nan", "1_0", "1" * 5000, "1e" + "9" * 5000)))
_FIELD = st.sampled_from(("q", "p:5", "p:7", "p:4"))
# p: primes each side of the guards, and any int text as for exhaust
_P = st.one_of(st.sampled_from((3, 5, 7, 11, 13, 131, 137, 7919, 2 ** 61 - 1)).map(str), _INT_TEXT)
_X0 = st.one_of(st.tuples(st.integers(-1, 2), st.integers(-1, 2)).map("{0[0]},{0[1]}".format),
                st.sampled_from(("1", "1,1,1", "1.5,1", "True,1", "9" * 5000 + ",1")),
                st.text(max_size=6))
_ARGV = st.one_of(
    st.builds(lambda name, field, alpha: ["example", f"--name={name}", f"--field={field}",
                                          f"--alpha={alpha}"],
              st.sampled_from(("r3", "four-dir-1", "four-dir-2", "sharp-r4", "r4-noninjective")),
              _FIELD, _ALPHA),
    st.builds(lambda variant, alpha, u, field: ["refute-fifth", f"--variant={variant}",
                                                f"--alpha={alpha}", f"--u={u}",
                                                f"--field={field}"],
              st.sampled_from(("1", "2")), _ALPHA,
              st.sampled_from(("2,3,1", "-1,1/2,1", "1,1,1", "2,3", "1e9999,3,1")), _FIELD),
    st.builds(lambda p, lemma, x0: ["scalar-lemmas", f"--p={p}", f"--lemma={lemma}",
                                    f"--x0={x0}"],
              _P, st.sampled_from(("ratio", "mult-id", "f2-id", "diag2str", "add1str")), _X0))


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(argv=_ARGV)
# the breaches this test found: an --alpha past the digit limit, either way,
# and the unguarded multiplicative lemmas
@example(argv=["example", "--name=four-dir-1", "--alpha=1e4400"])
@example(argv=["refute-fifth", "--variant=1", "--alpha=1e-5000"])
@example(argv=["example", "--name=four-dir-2", "--alpha=1e9999999"])
@example(argv=["scalar-lemmas", "--p=7919", "--lemma=f2-id"])
@example(argv=["scalar-lemmas", "--p=13", "--lemma=mult-id"])
@example(argv=["refute-fifth", "--variant=2", "--u=1,1,1"])
def test_other_commands_fuzz_end_in_an_exit_code_and_never_a_traceback(argv):
    # in-process through main, twice: an exception other than argparse's
    # SystemExit fails the test
    code, out, err, elapsed = _run_in_process(argv)
    assert elapsed < 1.0, argv
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv
    if code in (0, 1):
        json.loads(out)
    else:
        assert out == "", argv
    assert _run_in_process(argv)[:3] == (code, out, err), argv


# the commands that read files, and constraints and construct-sharp
# ------------------------------------------------------------------

# JSON text for an int field: small, any size, past int()'s 4300 digits, a
# float (NaN and the infinities too), a bool, a string, null
_JSON_INT = st.one_of(
    st.integers(-1, 8).map(str), st.integers().map(str), st.just("9" * 5000),
    st.floats().map(json.dumps), st.booleans().map(json.dumps), st.sampled_from(('"3"', "null")))
# a size flag: small, past the dense guards, negative, a float or a bool.
# constraints --n 10..12 and construct-sharp --dim 10..14 are left out: they
# are valid jobs of 0.2 to 3 s (constraints --n 12 prints 45 MB), bounded by
# the dense guards, not bad input
_SIZE_TEXT = st.one_of(
    st.integers(-1, 9).map(str), st.integers(max_value=-2).map(str), st.integers(min_value=15).map(str), st.just("9" * 5000),
    st.floats().map(repr), st.booleans().map(str))
# --dirs-file contents: entries that are rationals, junk, zero denominators,
# floats and bools, in vectors of any length, and empty, duplicate, zero and
# non-list families
_DIRS_JSON = st.one_of(
    st.lists(st.lists(st.one_of(st.integers(-2, 2), st.sampled_from(("1/2", "1/0", "x")),
                                st.floats(), st.booleans()), max_size=4), max_size=4),
    st.sampled_from(([], [[1, 0], [1, 0]], [[1, 0, 0], [2, 0, 0]], [[0, 0, 0]], {"e1": 1},
                     [1, 0])))


def _spoil(draw, obj, fields):
    """obj as JSON text, half the time with one fault: one of its int fields
    replaced by a _JSON_INT; its value list cut short, grown, emptied or
    flattened to numbers; its first entry out of range or not an int; or the
    value list alone in place of the object."""
    spoil = draw(st.sampled_from(("short", "long", "empty", "flat", "entry", "bare") + fields)) \
        if draw(st.booleans()) else None
    values = obj["values"]
    if spoil == "bare":
        return json.dumps(values)
    if spoil == "entry":
        first = draw(st.sampled_from((-1, obj["p"], 1.5, True, "1", None)))
        obj["values"] = [[first] + values[0][1:]] + values[1:]
    else:
        obj["values"] = {"short": values[:-1], "long": values + values[:1], "empty": [],
                         "flat": [c for v in values for c in v]}.get(spoil, values)
    text = json.dumps(obj)
    if spoil in fields:
        text = text.replace(f'"{spoil}": {obj[spoil]}', f'"{spoil}": {draw(_JSON_INT)}')
    return text


@st.composite
def _table_json(draw):
    """A table of (Z_p)^n -> (Z_p)^m: the identity, or the plane's x1*x2
    when m > n, permuted or random, then perhaps spoiled."""
    p, n, m = draw(st.sampled_from(((3, 1, 1), (3, 2, 2), (3, 2, 3), (5, 2, 2), (5, 2, 3))))
    values = [list(x) + [x[0] * x[-1] % p] * (m - n)
              for x in itertools.product(range(p), repeat=n)]
    values = draw(st.one_of(
        st.just(values), st.permutations(values),
        st.lists(st.lists(st.integers(0, p - 1), min_size=m, max_size=m),
                 min_size=len(values), max_size=len(values))))
    return _spoil(draw, {"p": p, "n": n, "m": m, "values": values}, ("p", "n", "m"))


@st.composite
def _proj_table_json(draw):
    """A table of PG(n,p): the identity, permuted, or random coordinates,
    then perhaps spoiled."""
    p, n = draw(st.sampled_from(((3, 1), (3, 2), (5, 1), (5, 2))))
    points = [list(c) for c in pg_points(p, n)]
    values = draw(st.one_of(
        st.just(points), st.permutations(points),
        st.lists(st.lists(st.integers(0, p - 1), min_size=n + 1, max_size=n + 1),
                 min_size=len(points), max_size=len(points))))
    return _spoil(draw, {"p": p, "n": n, "values": values}, ("p", "n"))


@st.composite
def _map_json(draw):
    """The r3 example map, half the time with one fault: its n, m or field p
    replaced by a _JSON_INT, a coefficient repeated, a coefficient vector cut
    short, a coefficient value replaced by a bad literal, or the coefficient
    list alone in place of the object."""
    obj = map_to_json(example_r3_map(QQ))
    text = json.dumps(obj)
    spoil = draw(st.sampled_from(("n", "m", "field", "repeat", "short", "value", "bare"))) \
        if draw(st.booleans()) else None
    if spoil in ("n", "m"):
        text = text.replace(f'"{spoil}": 3', f'"{spoil}": {draw(_JSON_INT)}')
    elif spoil == "field":
        text = text.replace('{"type": "rational"}', f'{{"type": "prime", "p": {draw(_JSON_INT)}}}')
    elif spoil == "repeat":
        obj["coeffs"].append(obj["coeffs"][0])
        text = json.dumps(obj)
    elif spoil == "short":
        obj["coeffs"][0]["value"].pop()
        text = json.dumps(obj)
    elif spoil == "value":
        text = _r3_map_json_with(draw(st.sampled_from(
            ("1e4300", "1e-4300", "1e99999999", "1/0", "abc", "1/5", True, 1.5, None))))
    elif spoil == "bare":
        text = json.dumps(obj["coeffs"])
    return text


@st.composite
def _file_argv(draw):
    """argv for one command, with the files it reads: file arguments name a
    file under "<dir>/", and the files map each name to its text."""
    command = draw(st.sampled_from(
        ("verify-family", "recover-form", "decide-proj", "constraints", "construct-sharp")))
    if command == "constraints":
        return ["constraints", f"--n={draw(_SIZE_TEXT)}"], {}
    if command == "construct-sharp":
        return ["construct-sharp", f"--dim={draw(_SIZE_TEXT)}"], {}
    if command == "decide-proj":
        return ["decide-proj", "--table=<dir>/proj.json"], {"proj.json": draw(_proj_table_json())}
    argv, files = [command], {}
    if draw(st.booleans()):
        files["table.json"] = draw(_table_json())
        argv.append("--table=<dir>/table.json")
    else:
        files["map.json"] = draw(_map_json())
        argv += ["--map=<dir>/map.json", f"--field={draw(_FIELD)}"]
    kind = draw(st.sampled_from(("plane", "diagonal"))) if command == "recover-form" else None
    if kind:
        argv.append(f"--kind={kind}")
    if kind != "plane":
        if draw(st.booleans()):
            dirs = st.one_of(st.sampled_from(("e1", "e1,e2", "e1,e2,e3", "e1,e2,e3,1,1,-1")), _DIRS)
            argv.append(f"--dirs={draw(dirs)}")
        else:
            files["dirs.json"] = json.dumps(draw(_DIRS_JSON))
            argv.append("--dirs-file=<dir>/dirs.json")
    if command == "verify-family":
        argv += draw(st.sampled_from(([], ["--mode=into"], ["--parallelism"])))
    return argv, files


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=_file_argv())
# exit 0 of each command and exit 1 of the two that report a violation, then
# the guards and an empty family
@example(case=(["verify-family", "--table=<dir>/t.json", "--dirs=e1,e2,1,1"],
               {"t.json": json.dumps(table_to_json(table_from_function(3, 2, 2, tuple)))}))
@example(case=(["verify-family", "--map=<dir>/r3.json", "--field=p:5", "--dirs=e1,e2,e3",
                "--parallelism"], {"r3.json": json.dumps(map_to_json(example_r3_map(QQ)))}))
# a coefficient past the digit limit, too large and too small
@example(case=(["verify-family", "--map=<dir>/m.json", "--field=p:5", "--dirs=e1"],
               {"m.json": _r3_map_json_with("1e20000000")}))
@example(case=(["verify-family", "--map=<dir>/m.json", "--field=p:5", "--dirs=e1"],
               {"m.json": _r3_map_json_with("1e-5000")}))
@example(case=(["recover-form", "--table=<dir>/t.json", "--kind=plane"],
               {"t.json": json.dumps(table_to_json(table_from_function(
                   5, 2, 3, lambda x: (x[0], x[1], x[0] * x[1] % 5))))}))
@example(case=(["decide-proj", "--table=<dir>/t.json"],
               {"t.json": json.dumps({"p": 3, "n": 2, "values": pg_points(3, 2)})}))
@example(case=(["decide-proj", "--table=<dir>/t.json"],
               {"t.json": json.dumps({"p": 5, "n": 1, "values": [[0, 1], [1, 0], [1, 1], [1, 2],
                                                                [1, 4], [1, 3]]})}))
@example(case=(["constraints", "--n=4"], {}))
@example(case=(["construct-sharp", "--dim=6"], {}))
@example(case=(["constraints", "--n=13"], {}))
@example(case=(["construct-sharp", "--dim=16"], {}))
@example(case=(["verify-family", "--table=<dir>/t.json", "--dirs=e1,e2"],
               {"t.json": '{"p": 3, "n": 99999, "m": 2, "values": []}'}))
@example(case=(["decide-proj", "--table=<dir>/t.json"],
               {"t.json": '{"p": 3, "n": 99999, "values": []}'}))
@example(case=(["recover-form", "--table=<dir>/t.json", "--kind=diagonal",
                "--dirs-file=<dir>/d.json"],
               {"t.json": '{"p": 3, "n": 1, "m": 1, "values": [[0], [1], [2]]}',
                "d.json": "[]"}))
def test_file_commands_fuzz_end_in_an_exit_code_and_never_a_traceback(tmp_path_factory, case):
    # in-process through main, twice; every file is written before the first call
    argv, files = case
    where = tmp_path_factory.mktemp("fuzz")
    for name, text in files.items():
        (where / name).write_text(text)
    argv = [arg.replace("<dir>", str(where)) for arg in argv]
    code, out, err, elapsed = _run_in_process(argv)
    assert elapsed < 1.0, argv
    assert code in (0, 1, 2, 3, 4), argv
    assert "Traceback" not in err, argv
    if code in (0, 1):
        json.loads(out)
    else:
        assert out == "", argv
    assert _run_in_process(argv)[:3] == (code, out, err), argv
