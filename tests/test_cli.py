"""Command-line front door: flag parsing, exit codes, deterministic reports."""

from __future__ import annotations

import json
import time
from fractions import Fraction

import pytest

from linemaps import (
    PrimeField,
    ProjLinearMap,
    QQ,
    UndecidableByFrame,
    example_r3_map,
    map_to_json,
    matrix,
    proj_table_from_map,
    proj_table_to_json,
    reduce_mod,
    table_to_json,
    tabulate,
)
from linemaps.cli import main, parse_directions, parse_field
from linemaps.exact import InputError


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
    from linemaps import load_map, evaluate, vector
    path = tmp_path / "map.json"
    code = main(["example", "--name", "r3", "--out", str(path)])
    assert code == 0
    mp = load_map(str(path))
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


def test_decide_proj_undecidable_maps_to_exit_1(capsys, tmp_path, monkeypatch):
    import linemaps.cli as cli_module
    F = PrimeField(3)
    m = ProjLinearMap(matrix(F, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    path = tmp_path / "id.json"
    path.write_text(json.dumps(proj_table_to_json(proj_table_from_map(m, 3))))

    def no_frame(table):
        raise UndecidableByFrame("no generic frame with generic images")

    monkeypatch.setattr(cli_module, "decide_projective_linear", no_frame)
    code, out = run(capsys, "decide-proj", "--table", str(path))
    assert code == 1
    assert json.loads(out)["decided"] is False


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


def test_dirs_file_accepts_rational_entries(capsys, tmp_path):
    dirs = tmp_path / "dirs.json"
    dirs.write_text(json.dumps([[1, 0], ["0", "1/2"]]))
    code, out = run(capsys, "exhaust", "--p", "3", "--n", "2", "--dirs-file", str(dirs))
    assert code == 0 and json.loads(out)["count"] == 432


def test_huge_prime_hits_the_guard_at_once(capsys):
    # 2^61 - 1 is prime: it used to take trial division past 15 s to see that
    t0 = time.perf_counter()
    code = main(["scalar-lemmas", "--p", str(2 ** 61 - 1), "--lemma", "ratio"])
    assert code == 3
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.startswith("resource guard: ")
