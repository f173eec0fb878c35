"""Benchmark entry point for the linemaps verifier.

    python3 perfbench/run.py --workload grid-oracle --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # the four workloads in turn

Run from anywhere; the program is imported from `src/` next to this
directory.  Each run starts the workload's worker process three times and
reports the median set-up time; the last start also measures: it runs rounds
of jobs, each round with fresh inputs of the same mix, for the given seconds.  With
`--trace 0` it prints the end-to-end metrics, with `--trace 1` the per-layer
metrics of a traced run (both as listed in BENCHMARK.json), after a
human-readable report and the run record.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.

Exit code 0 means a complete measurement; anything else (the program missing,
a worker that fails or overruns) exits 1 without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from harness import LAYERS, percentile
from workloads import BUILDERS, LAYERS_USED, OUT, ROOT

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3           # worker starts per run; set-up time is their median
TIME_LIMIT_S = 170          # a run must end inside 180 s
# How the known contract breaches of cli-oneshot fail today (see README.md).
BREACH_FAILURE = "exit 1, want 2 (traceback)"


class BenchError(Exception):
    pass


def spawn(workload, seed, seconds, *, trace=False, setup_only=False, tiny=False, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only + ["--tiny"] * tiny
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker overran the {TIME_LIMIT_S} s limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload}: worker exited {proc.returncode}\n{proc.stderr[-3000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - launched
    return out


def measure(workload, seed, seconds, trace, tiny=False) -> dict:
    """Run one workload and return its result line and report."""
    deadline = time.monotonic() + TIME_LIMIT_S
    starts = [] if trace else [
        spawn(workload, seed, seconds, setup_only=True, tiny=tiny, deadline=deadline)
        for _ in range(SETUP_SAMPLES - 1)]
    main = spawn(workload, seed, seconds, trace=trace, tiny=tiny, deadline=deadline)
    starts.append(main)
    setups = [w["setup_s"] for w in starts]

    rounds = main["rounds"]
    ref_samples = [x for _, batch in main["refs"] for x in batch]
    for r in rounds:            # each job's latency at the nominal host speed
        if main["scale_by"] == "job":
            r["scales"] = reference.scales(main["refs"], [t + x / 2 for t, x in
                                                          zip(r["starts"], r["latencies"])])
        else:
            r["scales"] = [reference.NOMINAL_S / statistics.median(ref_samples)] * len(
                r["latencies"])
        r["scaled"] = [x * k for x, k in zip(r["latencies"], r["scales"])]
    plain = [r for r in rounds if not r["traced"]]
    job_scales = [k for r in plain for k in r["scales"]]
    per_round = len(main["kinds"])
    wall = time_figures(setups, [x for r in plain for x in r["latencies"]], per_round)
    attempted = sum(len(r["latencies"]) for r in rounds)
    failures, breaches = {}, {}
    failed = 0
    for f in main["failures"]:
        if f["known_breach"] and f["why"] == BREACH_FAILURE:
            breaches[f["known_breach"]] = f"{f['label']}: {f['why']}"
        else:
            failed += 1
            failures.setdefault(f["label"], f["why"])

    e2e = time_figures(setups, [x for r in plain for x in r["scaled"]], per_round)
    e2e["peak_rss_mb"] = main["peak_rss_kb"] / 1024
    e2e["fail_ratio"] = len(main["failures"]) / attempted
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        layers = dict(main["layers"])
        traced = [r for r in rounds if r["traced"]]
        layers["trace.overhead_s"] = statistics.median(
            sum(t["scaled"]) - sum(u["scaled"]) for t, u in zip(traced, plain))
        layers["trace.spans"] = main["spans_per_round"]
        layers["cli.stdout_bytes"] = sum(v for k, v in layers.items()
                                         if k.endswith(".stdout_bytes"))
        metrics = {m["name"]: {"value": _layer_value(layers, m["name"]), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    kinds = {}
    for k in main["kinds"]:
        kinds[k] = kinds.get(k, 0) + 1
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "commit": _git_commit(), "jobs_per_round": len(main["kinds"]), "job_kinds": kinds,
        "mix": main["mix"],
        "rounds": {"untraced": len(plain), "traced": len(rounds) - len(plain)},
        "samples": {"setup_s": len(setups), "run_s": len(plain),
                    "job_latency": len(plain) * per_round},
        "wall": wall,
        "host": {"scale_by": main["scale_by"], "reference_nominal_ms": 1e3 * reference.NOMINAL_S,
                 "reference_median_ms": 1e3 * statistics.median(ref_samples),
                 "reference_samples": len(ref_samples),
                 "job_scale_range": [min(job_scales), max(job_scales)]},
        "layers_used": list(LAYERS_USED[workload]),
        "layers_bypassed": [x for x in LAYERS if x not in LAYERS_USED[workload]],
        "verdict_digest": main["verdict_digest"],
        "failures": failures, "known_breaches": breaches,
    }
    if trace:
        record["layers_called"] = main["layers_called"]
        record["trace_file"] = main["trace_file"]
    return {"e2e": e2e, "metrics": metrics, "record": record,
            "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": metrics}}


def time_figures(setups, latencies, per_round) -> dict:
    """The end-to-end time figures from set-up times and job latencies (in
    seconds, in run order, `per_round` jobs a round)."""
    rounds = [sum(latencies[i:i + per_round]) for i in range(0, len(latencies), per_round)]
    slowest = sorted(latencies)[-max(1, len(latencies) // 10):]
    return {"setup_s": statistics.median(setups),
            "run_s": statistics.mean(rounds),
            "job_p50_ms": 1e3 * statistics.median(latencies),
            "job_p90_ms": 1e3 * percentile(latencies, 90),
            "job_tail10_ms": 1e3 * statistics.mean(slowest)}


def _layer_value(layers, name):
    """A per-layer number; ns-per-unit rates are derived from seconds and work
    counts, and a layer the workload bypasses reads 0."""
    if ".ns_per_" in name:
        base, unit = name.split(".ns_per_")
        work = layers.get(f"{base}.{unit}s", 0)
        return layers.get(f"{base}.s", 0.0) * 1e9 / work if work else 0.0
    return layers.get(name, 0)


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    """The checkout's commit from .git, or None when it is not a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def report(m) -> None:
    rec, e2e = m["record"], m["e2e"]
    s = rec["samples"]
    print(f"{rec['workload']}  seed={rec['seed']}  trace={rec['trace']}  "
          f"{rec['jobs_per_round']} jobs/round, {rec['rounds']['untraced']} untraced "
          f"+ {rec['rounds']['traced']} traced rounds")
    host = rec["host"]
    print(f"  job times scaled to the nominal host speed, by {host['scale_by']} (reference"
          f" {host['reference_nominal_ms']:.1f} ms; here {host['reference_median_ms']:.3f} ms,"
          f" median of {host['reference_samples']}), then as measured; setup_s is as measured"
          f" in both")
    rows = [("setup_s", "s", f"median of {s['setup_s']} worker starts"),
            ("run_s", "s", f"mean of {s['run_s']} rounds"),
            ("job_p50_ms", "ms", f"over {s['job_latency']} job latencies"),
            ("job_p90_ms", "ms", f"over {s['job_latency']} job latencies"),
            ("job_tail10_ms", "ms", f"mean of the slowest {s['job_latency'] // 10}")]
    for name, unit, note in rows:
        print(f"  {name:<13} {e2e[name]:>14.6f} {rec['wall'][name]:>14.6f} {unit:<3} ({note})")
    print(f"  {'peak_rss_mb':<13} {e2e['peak_rss_mb']:>14.6f} {'':>14} MB  (ru_maxrss)")
    print(f"  {'fail_ratio':<13} {e2e['fail_ratio']:>14.6f} {'':>14} 1   "
          f"({m['result']['attempted']} attempted)")
    for name, why in rec["known_breaches"].items():
        print(f"  contract breach (counted in fail_ratio): {name}: {why}")
    for label, why in rec["failures"].items():
        print(f"  FAILED {label}: {why}")
    if rec["trace"]:
        for name, v in m["metrics"].items():
            print(f"  {name:<52} {v['value']:>16.6f} {v['unit']}")
    print("record: " + json.dumps(rec, sort_keys=True))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few small jobs per workload (self-tests)")
    args = ap.parse_args()
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = list(BUILDERS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            m = measure(name, args.seed, seconds, bool(args.trace), args.tiny)
            report(m)
            results[name] = m
            OUT.mkdir(parents=True, exist_ok=True)
            (OUT / f"record-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(m["record"], indent=1, sort_keys=True))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        line = results[names[0]]["result"]
    else:
        line = {"correct": all(r["result"]["correct"] for r in results.values()),
                "attempted": sum(r["result"]["attempted"] for r in results.values()),
                "failed": sum(r["result"]["failed"] for r in results.values()),
                "metrics": {f"{w}.{k}": v for w, r in results.items()
                            for k, v in r["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
