"""One workload process: set up (import, inputs, warm-up), then run rounds
for the measuring time, and print one JSON summary line.

    python3 perfbench/worker.py --workload grid-oracle --seed 1 --seconds 20 \
        [--trace] [--setup-only] [--tiny]

`run.py` starts this process several times per run and measures set-up time
from its launch to the `ready` instant this process reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from harness import LAYERS, Caller, Tracer, run_rounds, self_times, spans_json, work_totals
from workloads import BUILDERS, OUT, SRC

# Job latencies per run, so that ten or more lie beyond the 90th percentile.
MIN_SAMPLES = 100


def import_program() -> None:
    """Import linemaps from this checkout's sources, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import linemaps
    except ImportError as exc:
        sys.exit(f"cannot import linemaps from {SRC}: {exc}")
    if SRC.resolve() not in Path(linemaps.__file__).resolve().parents:
        sys.exit(f"linemaps was imported from {linemaps.__file__}, not from {SRC}")


def layer_stats(spans, rounds: int) -> dict:
    """Self seconds and work counts per span name, divided by `rounds`."""
    out = {f"{name}.s": s / rounds for name, s in self_times(spans).items()}
    out.update({key: v / rounds for key, v in work_totals(spans).items()})
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    if args.workload != "cli-oneshot":      # the CLI workload runs the program in child processes
        import_program()
    tracer = Tracer() if args.trace else None
    built = BUILDERS[args.workload](args.seed, args.tiny, Caller(tracer))
    ready = time.monotonic()
    if args.setup_only:
        built.close()
        print(json.dumps({"ready": ready}))
        return

    setup_spans = list(tracer.spans) if tracer else []
    if tracer:
        tracer.spans.clear()
    try:
        result = run_rounds(built.make_round, args.seconds, tracer,
                            0 if args.tiny else MIN_SAMPLES, built.fixed)
        probes = built.probes() if (tracer and built.probes) else {}
    finally:
        built.close()
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-oneshot" else resource.RUSAGE_SELF
    failures = [{"traced": traced, "label": job.label, "known_breach": job.known_breach,
                 "why": why} for traced, job, why in result.failed]
    summary = {
        "ready": ready,
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
        "kinds": result.kinds,
        "mix": built.mix,
        "scale_by": built.scale_by,
        "rounds": [{"traced": r.traced, "latencies": r.latencies, "starts": r.starts}
                   for r in result.rounds],
        "refs": result.refs,
        "failures": failures,
        "verdict_digest": hashlib.sha256(repr(result.verdicts).encode()).hexdigest(),
    }
    if tracer:
        traced_rounds = len(result.rounds) // 2
        layers = layer_stats(tracer.spans, traced_rounds)
        layers.update(layer_stats(setup_spans, 1))
        layers.update(probes)
        summary["layers"] = layers
        summary["spans_per_round"] = len(tracer.spans) / traced_rounds
        summary["layers_called"] = sorted({s[0].split(".")[0] for s in tracer.spans + setup_spans}
                                          & set(LAYERS))
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"setup": spans_json(setup_spans),
                                    "rounds": spans_json(tracer.spans)}))
        summary["trace_file"] = str(path.relative_to(OUT.parent.parent))
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
