"""Which `linemaps` modules a fresh interpreter loads: none for a bare
`import linemaps`, and for each CLI command only the modules it runs."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from linemaps import (
    PrimeField, ProjLinearMap, QQ, example_r3_map, map_to_json, matrix, proj_table_from_map,
    proj_table_to_json, reduce_mod, table_from_function, table_to_json, tabulate,
)

# run one command through main, as the console script does, with its report
# kept off stdout; print the exit code and the linemaps modules loaded
CHILD = """
import contextlib, io, json, sys
from linemaps.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("linemaps."))]))
"""


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("loading")
    proj = ProjLinearMap(matrix(PrimeField(3), ((1, 2, 0), (0, 1, 1), (1, 0, 2))))
    objects = {
        "r3": map_to_json(example_r3_map(QQ)),
        "r3-table": table_to_json(tabulate(reduce_mod(example_r3_map(QQ), 5))),
        "plane": table_to_json(table_from_function(5, 2, 3,
                                                   lambda x: (x[0], x[1], x[0] * x[1] % 5))),
        "proj": proj_table_to_json(proj_table_from_map(proj, 3)),
    }
    paths = {name: str(tmp / f"{name}.json") for name in objects}
    for name, obj in objects.items():
        Path(paths[name]).write_text(json.dumps(obj))
    return paths


GRID = ["linemaps.cli", "linemaps.exact", "linemaps.grid"]
COLLINEATIONS = sorted(GRID + ["linemaps.collineations"])
CONSTRAINTS = sorted(GRID + ["linemaps.constraints", "linemaps.multiaffine"])

CASES = {
    "verify-family-table": (["verify-family", "--table", "{r3-table}", "--dirs", "e1,e2,e3"],
                            COLLINEATIONS),
    "verify-family-map": (["verify-family", "--map", "{r3}", "--field", "p:5", "--dirs", "e1"],
                          sorted(COLLINEATIONS + ["linemaps.multiaffine"])),
    "recover-form": (["recover-form", "--table", "{plane}", "--kind", "plane"], COLLINEATIONS),
    "constraints": (["constraints", "--n", "3"], CONSTRAINTS),
    "construct-sharp": (["construct-sharp", "--dim", "4"], CONSTRAINTS),
    "example": (["example", "--name", "four-dir-1", "--alpha", "2"], CONSTRAINTS),
    "refute-fifth": (["refute-fifth", "--variant", "1"], CONSTRAINTS),
    "decide-proj": (["decide-proj", "--table", "{proj}"], sorted(GRID + ["linemaps.projective"])),
    "exhaust": (["exhaust", "--p", "3", "--n", "1", "--dirs", "e1"], COLLINEATIONS),
    "scalar-lemmas": (["scalar-lemmas", "--p", "5", "--lemma", "ratio"],
                      sorted(GRID + ["linemaps.scalars"])),
}


@pytest.mark.parametrize("argv, modules", CASES.values(), ids=CASES)
def test_each_command_loads_only_its_own_modules(fresh_python, files, argv, modules):
    # every case passes, so no module is loaded only on an error path
    argv = [arg.format(**files) for arg in argv]
    assert json.loads(fresh_python(CHILD, *argv)) == [0, modules]


def test_a_bare_import_loads_no_submodule(fresh_python):
    out = fresh_python("import sys, linemaps; "
                       "print(sorted(m for m in sys.modules if m.startswith('linemaps.')))")
    assert out == "[]\n"
