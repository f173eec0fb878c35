"""The host-speed reference: a fixed pure-Python computation, independent of
`linemaps`, timed between jobs so that wall times can be put on one scale.

On a shared VM the host's speed changes by itself: a fixed computation
switched between two speeds about 1.7 times apart, in stretches from a
fraction of a second to minutes.  The reference does the kinds of work the
program does, which slow by about the same factor: Fraction elimination, a
dict of tuples and a set of its images, and small-int arithmetic mod p (an
integer loop alone slows less).  A job's scaled latency is its wall time
times `NOMINAL_S / ref`, where `ref` is the median of the reference samples
taken just before and just after it: the latency on a host where the
reference takes `NOMINAL_S`.  The reference never calls the program, so a
faster program still reads faster.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction
from typing import List, Sequence, Tuple

# The reference's time on the host the figures are scaled to: about its median
# on the 2-vCPU Xeon VM the benchmark was written on, with the other vCPU idle.
# A constant: changing it rescales every scaled figure.
NOMINAL_S = 0.005

_MATRIX = [[Fraction((7 * i + 3 * j * j + 1) % 11 - 5, 1 + (i + 2 * j) % 4) for j in range(8)]
           for i in range(7)]


def _work() -> int:
    """One reference unit; every call does exactly the same work."""
    m = [row[:] for row in _MATRIX]
    rank = 0
    for col in range(8):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    p = 7
    table = {}
    for x in range(p):
        for y in range(p):
            for z in range(p):
                table[(x, y, z)] = ((x * y + z) % p, (x + y * z) % p, (x * z + 2 * y) % p)
    images = {v[:2] for v in table.values()}
    acc = 0
    for k in range(600):
        acc = (acc * 31 + pow(k % p + 1, p - 2, p) * k) % 1_000_003
    return rank + len(images) + acc


def sample() -> float:
    """Seconds one reference unit takes now.  The collector is off while it
    runs, so its time does not depend on how many objects the program holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scales(refs: Sequence[Tuple[float, Sequence[float]]],
           instants: Sequence[float]) -> List[float]:
    """For each instant, NOMINAL_S over the median of the batches of reference
    samples just before and just after it.  `refs` are (instant, samples), in
    time order, with one batch before the first instant and one after the
    last.  (The host switches speed within a second; the median of the seven
    nearest samples, reaching further away in time, left twice the
    run-to-run spread.)"""
    at = [t for t, _ in refs]
    out = []
    for t in instants:
        i = min(max(bisect.bisect_left(at, t), 1), len(refs) - 1)
        out.append(NOMINAL_S / statistics.median([*refs[i - 1][1], *refs[i][1]]))
    return out
