"""Golden CLI outputs: the sha256 of stdout and the exit code of each command
line, recorded once and compared on every run.

A refactor of the library may change how a report is built but not one byte
of what the CLI prints.  Every input file is written here from plain Python,
so the inputs do not depend on the library's own serializers.  A digest is
changed only together with a deliberate, documented change of a report.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from linemaps.cli import main

# x -> (x1 + x3(x1 - x2), x2 + x3(x1 - x2), x3), as a map JSON over Q
R3_MAP = {"n": 3, "m": 3, "field": {"type": "rational"}, "coeffs": [
    {"delta": [1, 0, 0], "value": ["1", "0", "0"]},
    {"delta": [0, 1, 0], "value": ["0", "1", "0"]},
    {"delta": [1, 0, 1], "value": ["1", "1", "0"]},
    {"delta": [0, 0, 1], "value": ["0", "0", "1"]},
    {"delta": [0, 1, 1], "value": ["-1", "-1", "0"]},
]}


def _table(p, n, m, fn):
    return {"p": p, "n": n, "m": m,
            "values": [[c % p for c in fn(x)] for x in itertools.product(range(p), repeat=n)]}


def _normalized(p, v):
    pivot = next(c for c in v if c % p)
    inv = pow(pivot, p - 2, p)
    return [c * inv % p for c in v]


def _proj_linear_values(p, rows):
    """The images of PG(len(rows)-1, p) in lexicographic point order."""
    points = sorted({tuple(_normalized(p, v))
                     for v in itertools.product(range(p), repeat=len(rows)) if any(v)})
    return [_normalized(p, [sum(a * b for a, b in zip(row, c)) for row in rows])
            for c in points]


def _inputs():
    x1x3 = lambda x: x[2] * (x[0] - x[1])
    linear = _proj_linear_values(3, ((1, 2, 0), (0, 1, 1), (1, 0, 2)))
    swapped = list(linear)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    return {
        "r3.json": R3_MAP,
        "r3_table.json": _table(5, 3, 3, lambda x: (x[0] + x1x3(x), x[1] + x1x3(x), x[2])),
        "affine.json": _table(5, 2, 2, lambda x: (2 * x[0] + x[1] + 3, x[0] + x[1] + 1)),
        "plane.json": _table(5, 2, 3, lambda x: (x[0], x[1], x[0] * x[1])),
        "cube.json": _table(5, 2, 2, lambda x: (x[0] ** 3, x[1] ** 3)),
        "linear.json": {"p": 3, "n": 2, "values": linear},
        "swapped.json": {"p": 3, "n": 2, "values": swapped},
        "dirs.json": [[1, 0, 1], ["0", "1/2", "1/2"]],
        "bad.json": "{not json",
    }


# name: (argv, exit code, sha256 of stdout); "{dir}" is the input directory
GOLDEN = {
    "constraints": (
        "constraints --n 3", 0,
        "a52e657db99463379dcee1d4b32006c66904026d12071775759e9a4e1d229d77"),
    "constraints-n1": (
        "constraints --n 1", 2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "construct-sharp": (
        "construct-sharp --dim 4", 0,
        "21b6cafdf565b964e8759b132de1e595c82b9423ef2a8ddad0a8517a2c7e4d3f"),
    "construct-sharp-dim3": (
        "construct-sharp --dim 3", 2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "example-r3": (
        "example --name r3", 0,
        "e9b3fc171ab35fdc49c8442cf196e6649438636b5bec5941b570c84c02d6c459"),
    "example-four-dir-1": (
        "example --name four-dir-1 --alpha 2 --field p:5", 0,
        "bfb39d511c15bf35cb408cac116654255614ce9e5e1ffa2a2b37a47b24b17525"),
    "example-four-dir-2": (
        "example --name four-dir-2 --alpha 3/2", 0,
        "1d8aa3361c94bb072216a11d57a7f250854a04622bf16a4a7007edfa2d9c99bb"),
    "example-sharp-r4": (
        "example --name sharp-r4 --field p:7", 0,
        "5ac09d60e7df81776bda3b4f920d20b2eef38ded1bf8dd65ff6040ba1c9993ac"),
    "example-r4-noninjective": (
        "example --name r4-noninjective", 0,
        "6791b1300fab993be1e9218b897e9a48066678f0c1ec759151c8bd34dfbc7c1c"),
    "refute-fifth-1": (
        "refute-fifth --variant 1", 0,
        "8ea944f9eef3034c479679df6ccfa950228ccb006aea9e7046e864a282e38e3d"),
    "refute-fifth-2": (
        "refute-fifth --variant 2 --u 3,5,1 --field p:7 --alpha 2", 0,
        "b9bf117caf5ab6b296929e291de1a5550dd84f367a2dfb232f7f993de64efde9"),
    "decide-proj-linear": (
        "decide-proj --table {dir}/linear.json", 0,
        "6477113ea3aaf6ce3d0f9654f5aefed37a3ae6444b508181bc497629920ca976"),
    "decide-proj-swapped": (
        "decide-proj --table {dir}/swapped.json", 1,
        "ac11153a25e9263da6288544917517495745a2fd34ccb1fcab9533ca91de01f0"),
    "exhaust": (
        "exhaust --p 3 --n 2 --dirs e1,e2,1,1", 0,
        "bf3f94c895e28c226640b4d0f80dc2a6bdd2c862f4ffbb144cebdd6e6d3ae8a2"),
    "exhaust-e1": (
        "exhaust --p 3 --n 2 --dirs e1", 0,
        "7b7145b98a8a3bcc4524d6a1816f9a645b442995cb114749e746d9fba8de5a2a"),
    "exhaust-line-p7": (
        "exhaust --p 7 --n 1 --dirs e1", 0,
        "49e6c2813995d55380df97c1ab09bfca1f737317d9152d91bc42e5eb14d947af"),
    "exhaust-guard": (
        "exhaust --p 5 --n 3 --dirs e1,e2,e3", 3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "scalar-ratio": (
        "scalar-lemmas --p 5 --lemma ratio", 0,
        "119534cafbbc0d3c1683dda7164ec19f59bc963919e038233ce79c98696e047b"),
    "scalar-mult-id": (
        "scalar-lemmas --p 7 --lemma mult-id", 0,
        "2439f06313b6b30eb2053617cca2c8d1f2e962d45b287356eda2b9a7198037ee"),
    "scalar-f2-id": (
        "scalar-lemmas --p 5 --lemma f2-id", 0,
        "77483e66eb135ca6454bc68d1726c6772ffbdf43314fe37ccb57530a2d331b38"),
    "scalar-diag2str": (
        "scalar-lemmas --p 5 --lemma diag2str --x0 1,0", 0,
        "a213f090252241946aee4d9d441d20b2b70f74e4d8e93d50583033b586b95203"),
    "scalar-add1str": (
        "scalar-lemmas --p 3 --lemma add1str --x0 2,1", 0,
        "8a5de70b3717e7031a758df35422916975bc1910fe33eeb74bf29010000892b8"),
    "scalar-guard": (
        "scalar-lemmas --p 11 --lemma ratio", 3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify-onto": (
        "verify-family --map {dir}/r3.json --field p:5 --dirs e1,e2,e3,1,1,-1", 0,
        "99cc6fa60218b2a28f6dd2286e8fa65120e01e907d9a6d784c059ea14e503563"),
    "verify-violations": (
        "verify-family --table {dir}/r3_table.json --dirs 1,0,1", 1,
        "994a481c17ba5a0eab8d35bbbdf94e89bca3beb007721b225212bafef138b2da"),
    "verify-dirs-file": (
        "verify-family --table {dir}/r3_table.json --dirs-file {dir}/dirs.json --mode into", 1,
        "762b6454a656d511edcc48420be0004af7ef1eef7289e69ddc97b636f806d2cd"),
    "verify-into-parallelism": (
        "verify-family --map {dir}/r3.json --field p:5 --dirs e1,e2,e3 --mode into"
        " --parallelism", 1,
        "43945a0126effa936534bcbd6ed67b8f120b9a9b00979a01b9e1193ea288dd4b"),
    "verify-onto-parallelism": (
        "verify-family --table {dir}/affine.json --dirs e1,e2,1,1 --parallelism", 0,
        "462d45d5d978530180caca64baf2eed76a5fdd5d122dcf5bd1aada4fc8386f47"),
    "verify-parallelism-skipped": (
        "verify-family --table {dir}/r3_table.json --dirs e1,1,0,1 --parallelism", 1,
        "c8903683321942de4d5d7619c53261fde76468e18161bcd09edb866c2e39ad55"),
    "verify-malformed-file": (
        "verify-family --map {dir}/bad.json --field p:5 --dirs e1", 2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify-missing-file": (
        "verify-family --map {dir}/nope.json --field p:5 --dirs e1", 2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "recover-plane": (
        "recover-form --table {dir}/plane.json --kind plane", 0,
        "0f0907a452ba3592986bff7857291e975800cab0a16f34c3536dab00c2a7fb74"),
    "recover-diagonal": (
        "recover-form --table {dir}/cube.json --kind diagonal --dirs e1,e2", 0,
        "de23bf04199df3f78305822c21a5ad90941215afaebfc2d19573b48f5fa5ee68"),
    "recover-diagonal-precondition": (
        "recover-form --table {dir}/r3_table.json --kind diagonal --dirs e1,e2,e3", 2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    for name, obj in _inputs().items():
        (path / name).write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return path


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_stdout_and_exit_code_match_the_golden_digest(name, input_dir, capsys):
    argv, code, digest = GOLDEN[name]
    got = main(argv.format(dir=input_dir).split())
    out = capsys.readouterr().out
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), out[:300]
