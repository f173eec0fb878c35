"""Round loop, per-job timing and span tracing shared by every workload.

A workload gives a list of jobs per round, each round with fresh inputs of
the same mix.  The worker runs rounds, in one thread, until the measuring time
is used up: a closed loop with one caller, so the next job starts when the
last one has returned.  Every call into the program goes through a `Caller`;
untraced it only forwards the call, traced it records one span per call
around it.

"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import reference

# The package's modules, which are the layers the benchmark reports on.
LAYERS = ("exact", "multiaffine", "collineations", "constraints",
          "projective", "scalars", "cli")
# After a job, once this long has passed since the last reference samples,
# the loop takes one sample per REF_GAP_S passed (outside the timed region):
# about 5% of the time, and several samples beside each long job.
REF_GAP_S = 0.1

@dataclass
class Job:
    """One unit of timed work.  `run` makes the program calls and returns the
    verdict; `check` returns None when the verdict meets the expectation, else
    why not.  `kind` is the job's class (a round's mix of kinds never depends
    on the seed), `label` its generated inputs, and `known_breach` names the
    documented contract breach the job exercises, if any."""

    kind: str
    label: str
    run: Callable[["Caller"], Any]
    check: Callable[[Any], Optional[str]]
    known_breach: Optional[str] = None


class Tracer:
    """Spans kept in memory: [name, start_ns, end_ns, parent index, job id, work]."""

    def __init__(self):
        self.spans: List[list] = []
        self._open: List[int] = []
        self.job_id: Optional[int] = None

    def span(self, name: str, fn: Callable, args=(), kwargs=None, work=None):
        idx = len(self.spans)
        rec = [name, 0, 0, self._open[-1] if self._open else None, self.job_id, None]
        self.spans.append(rec)
        self._open.append(idx)
        rec[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            rec[2] = time.perf_counter_ns()
            self._open.pop()
        rec[5] = work(result) if callable(work) else work
        return result


def spans_json(spans: List[list]) -> List[dict]:
    return [{"name": n, "start_ns": s, "end_ns": e, "parent": p, "job": j, "work": w}
            for n, s, e, p, j, w in spans]


class Caller:
    """The one door into the program.  `work` is a dict of work counts, or a
    function of the call's result that returns one; it is used only when
    tracing."""

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer

    def __call__(self, name: str, fn: Callable, *args, work=None, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.span(name, fn, args, kwargs, work)


@dataclass
class RoundResult:
    traced: bool
    latencies: List[float]           # seconds per job, in job order
    starts: List[float]              # perf_counter at each job's start
    failures: Dict[int, str]         # job index -> reason


@dataclass
class RunResult:
    kinds: List[str] = field(default_factory=list)            # of each round's jobs
    rounds: List[RoundResult] = field(default_factory=list)
    failed: List[Tuple[bool, Job, str]] = field(default_factory=list)  # traced, job, why
    verdicts: List[Any] = field(default_factory=list)         # the first round's
    refs: List[Tuple[float, List[float]]] = field(default_factory=list)  # (instant, samples)


def run_rounds(make_round: Callable[[int], List[Job]], seconds: float,
               tracer: Optional[Tracer] = None, min_samples: int = 0,
               fixed: bool = False) -> RunResult:
    """Run rounds 0, 1, 2, ... until `seconds` have passed and the untraced
    rounds hold `min_samples` job latencies; every round runs to its end.
    `make_round(r)` gives round r's jobs; it is called before the round, outside
    the timed region.  With a tracer every round runs twice, untraced and then
    traced on the same jobs, and the traced verdicts must equal the untraced ones.
    Between jobs the loop times the host-speed reference (`reference.py`),
    one sample per REF_GAP_S since the last ones; the run starts and ends
    with one sample.

    Each untraced verdict is checked against its job's expectation, outside the
    timed region.  When `fixed`, every round has the same inputs, and each
    verdict must also equal the first round's: the package's determinism
    guarantee (byte-identical reports).
    """
    out = RunResult()
    plain = Caller()
    traced_caller = Caller(tracer) if tracer is not None else None

    def take_refs(k):
        out.refs.append((time.perf_counter(), [reference.sample() for _ in range(k)]))

    take_refs(1)
    deadline = time.perf_counter() + seconds
    samples = 0
    r = 0
    while r == 0 or time.perf_counter() < deadline or samples < min_samples:
        jobs = make_round(r)
        verdicts = []
        for traced in (False, True) if tracer is not None else (False,):
            rr = RoundResult(traced, [], [], {})
            out.rounds.append(rr)
            for j, job in enumerate(jobs):
                error = None
                t0 = time.perf_counter()
                try:
                    if traced:
                        tracer.job_id = r * len(jobs) + j
                        verdict = tracer.span("job." + job.kind, job.run, (traced_caller,))
                    else:
                        verdict = job.run(plain)
                except Exception as exc:  # a job that raises is a failed job; the loop goes on
                    verdict, error = None, f"raised {type(exc).__name__}: {exc}"
                rr.latencies.append(time.perf_counter() - t0)
                rr.starts.append(t0)
                if error is None and traced:
                    if verdict != verdicts[j]:
                        error = "traced verdict differs from the untraced one"
                elif error is None:
                    try:
                        error = job.check(verdict)
                    except Exception as exc:
                        error = f"check raised {type(exc).__name__}: {exc}"
                    if error is None and fixed and r > 0 and verdict != out.verdicts[j]:
                        error = "verdict differs from the first round"
                if not traced:
                    verdicts.append(verdict)
                if error is not None:
                    rr.failures[j] = error
                    out.failed.append((traced, job, error))
                since = time.perf_counter() - out.refs[-1][0]
                if since >= REF_GAP_S:
                    take_refs(int(since / REF_GAP_S))
            samples += 0 if traced else len(jobs)
        if tracer is not None:
            tracer.job_id = None
        if r == 0:
            out.kinds, out.verdicts = [job.kind for job in jobs], verdicts
        r += 1
    take_refs(1)
    return out


def percentile(values: List[float], pct: int) -> float:
    """Nearest-rank percentile, pct an integer in 1..100."""
    ordered = sorted(values)
    return ordered[max(0, -(-pct * len(ordered) // 100) - 1)]


def self_times(spans: List[list]) -> Dict[str, float]:
    """Seconds per span name, each span's duration minus the part its child
    spans cover (children never overlap: the loop is single-threaded)."""
    child = [0] * len(spans)
    for name, s, e, parent, _job, _work in spans:
        if parent is not None:
            child[parent] += e - s
    out: Dict[str, float] = {}
    for k, (name, s, e, _p, _j, _w) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (e - s - child[k]) / 1e9
    return out


def work_totals(spans: List[list]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for name, _s, _e, _p, _j, work in spans:
        for key, val in (work or {}).items():
            out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + val
    return out
