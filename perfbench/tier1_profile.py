"""Count the calls the Tier-1 test suite makes into the public API of
linemaps, by function and input size.  The workload mixes in workloads.py are
taken from this profile (see README.md, "Where the mixes come from").

    python3 perfbench/tier1_profile.py            # rewrites perfbench/tier1_profile.json

It runs `pytest tests/` in this process with every public function of every
linemaps module replaced by a counting wrapper.  Only calls made from test
code count: a call that a wrapped function makes into another is nested and
is left out.  CLI calls are counted per command (the first argument of
`linemaps.cli.main`) and exit code.  Needs pytest, which the Tier-1 suite
needs anyway; the benchmark itself does not.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = ("exact", "multiaffine", "collineations", "constraints", "projective",
           "scalars", "cli")


def describe(x) -> str:
    """A short size key for one argument."""
    kind = type(x).__name__
    if kind == "MultiAffineMap":
        return f"map(n={x.n},m={x.m},{describe(x.field)})"
    if kind == "FiniteMapTable":
        return f"table(p={x.p},n={x.n},m={x.m})"
    if kind == "ProjTable":
        return f"proj(p={x.p},n={x.n})"
    if kind == "LineFamily":
        return f"family(n={x.n},k={len(x.directions)})"
    if kind == "ConstraintSystem":
        return f"system(n={x.n})"
    if kind == "PrimeField":
        return f"F{x.p}"
    if kind == "Rationals":
        return "Q"
    if isinstance(x, (bool, int, str)) or x is None:
        return repr(x)
    if isinstance(x, (tuple, list)):
        return f"{kind}[{len(x)}]"
    return kind


class Profile:
    def __init__(self):
        self.depth = 0
        self.calls = {}           # (qualified name, size key) -> [calls, seconds]

    def wrap(self, qualname, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.depth:
                return fn(*args, **kwargs)
            key = ", ".join([describe(a) for a in args]
                            + [f"{k}={describe(v)}" for k, v in sorted(kwargs.items())])
            outcome = None
            self.depth += 1
            t0 = time.perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except SystemExit as exc:
                outcome = exc.code
                raise
            finally:
                self.depth -= 1
                if qualname == "cli.main":
                    argv = args[0] if args else kwargs.get("argv")
                    key = f"{argv[0] if argv else '(none)'} -> exit {outcome}"
                rec = self.calls.setdefault((qualname, key), [0, 0.0])
                rec[0] += 1
                rec[1] += time.perf_counter() - t0
        return wrapper

    def install(self):
        import importlib
        mods = {name: importlib.import_module(f"linemaps.{name}") for name in MODULES}
        pkg = sys.modules["linemaps"]
        swaps = {}
        for name, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    swaps[id(obj)] = self.wrap(f"{name}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if meth in ("solution_dimension", "is_bijection") \
                                and inspect.isfunction(fn):
                            setattr(obj, meth, self.wrap(f"{name}.{attr}.{meth}", fn))
        # rebind every name that refers to a wrapped function, in every module
        for mod in [pkg, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in swaps:
                    setattr(mod, attr, swaps[id(obj)])

    def table(self):
        out = {}
        for (qual, key), (calls, secs) in sorted(self.calls.items()):
            out.setdefault(qual, []).append({"args": key, "calls": calls,
                                             "s": round(secs, 3)})
        return out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest
    prof = Profile()
    prof.install()
    t0 = time.perf_counter()
    rc = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    wall = time.perf_counter() - t0
    doc = {"about": "Calls from the Tier-1 tests into linemaps' public API, by function "
                    "and argument sizes; nested calls excluded.  Written by "
                    "perfbench/tier1_profile.py; times are from one run and only indicative.",
           "python": sys.version.split()[0], "pytest_exit": int(rc),
           "suite_s": round(wall, 1), "calls": prof.table()}
    (HERE / "tier1_profile.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {HERE / 'tier1_profile.json'} ({sum(c for c, _ in prof.calls.values())} calls)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
