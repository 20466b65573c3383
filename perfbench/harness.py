"""Arithmetic shared by the runner, the worker and the self-test.

Pure Python with no dependency on the package under test, so the numbers the
benchmark reports can be checked on their own (see test_harness.py).
"""
from __future__ import annotations

import math
import time
from fractions import Fraction

# The tail percentile every workload reports.  A job list needs at least
# MIN_TAIL samples beyond it for the figure to rest on more than a handful
# of jobs.
TAIL_Q = 90
MIN_TAIL = 10


# Machine-speed calibration.  The host's speed drifts by tens of percent
# over tens of seconds, in CPU time as well as wall time, which would swamp
# the bounds.  The worker times a fixed kernel every CAL_EVERY_S while it
# runs the jobs, and end-to-end times are reported at the speed where the
# kernel takes CAL_REF_S: t * (CAL_REF_S / kernel time around the job) **
# CAL_POWER.  Each workload is scaled by the kernel that resembles its own
# work:
#   "python"         Fraction arithmetic in the interpreter (exact, dense);
#   "numpy_threads"  numpy draws on every usable CPU at once (mc, whose
#                    estimates run on the CLI's default thread count).  A
#                    neighbour busy on one core slows this kernel as it
#                    slows the work; a single-threaded kernel would run on
#                    the free core and miss it.
# The threaded kernel reacts more than 30-100 ms jobs do to brief
# contention (waking a thread on a busy core costs about a millisecond), so
# mc is scaled by the square root of its ratio: on the passes of 40 saved
# runs, powers 0.3-0.6 all halved the worst run-to-run spread of power 1.
CAL_EVERY_S = 0.1
# Kernel times at the reference speed (about their medians on the machine
# where the benchmark was defined, so scaled times stay close to raw ones).
CAL_REF_S = {"python": 0.003, "numpy_threads": 0.0055}
CAL_POWER = {"python": 1.0, "numpy_threads": 0.5}


def _numpy_slice() -> None:
    import numpy as np

    g = np.random.Generator(np.random.PCG64(7))
    for _ in range(2):
        X = g.uniform(0.0, 1.0, size=(16384, 6))
        logs = np.log(X).sum(axis=1)
        logs[X.sum(axis=1) < 3.0].sum()


def calibration_kernel(kind: str = "python") -> float:
    """Seconds taken by one fixed slice of Fraction work ("python"), or by
    one numpy slice on each usable CPU at once ("numpy_threads").

    The garbage collector is paused so a collection of the caller's heap
    is not mistaken for a slow machine.
    """
    import gc
    import os
    import threading

    paused = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        if kind == "python":
            acc = Fraction(0)
            for i in range(1, 800):
                acc += Fraction(1, i % 97 + 1)
        elif kind == "numpy_threads":
            threads = [threading.Thread(target=_numpy_slice) for _ in os.sched_getaffinity(0)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        else:
            raise ValueError(f"unknown calibration kernel {kind!r}")
        return time.perf_counter() - t0
    finally:
        if paused:
            gc.enable()


# Marks on each side of a job that its calibration looks at.  One kernel
# time scatters by about +-30% with no correlation from one mark to the
# next, so a single mark mostly measures noise; the mean of about a second
# of marks keeps the drifts that last longer than that.  A mean, not a
# median: the threaded kernel's times fall in two modes (the other core
# free or busy), and the share of slow marks is the slowdown to undo.
CAL_WINDOW = 5


def local_calibration(marks, k: int, window: int = CAL_WINDOW) -> float:
    """Kernel time around job k: the mean of up to `window` marks before it
    and `window` after, from marks [(index of the first job after the mark,
    seconds)]."""
    before = max((i for i, (pos, _) in enumerate(marks) if pos <= k), default=0)
    near = [s for _, s in marks[max(0, before - window + 1):before + 1 + window]]
    return math.fsum(near) / len(near)


def scaled(seconds: float, kernel_s: float, kind: str = "python") -> float:
    """A measured time expressed at the reference machine speed."""
    return seconds * (CAL_REF_S[kind] / kernel_s) ** CAL_POWER[kind]


def percentile(values, q: float) -> float:
    """q-th percentile by linear interpolation between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50)


def samples_beyond(values, q: float) -> int:
    """How many samples lie strictly above the q-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def tail_percentile(values, q: float = TAIL_Q) -> float:
    """The q-th percentile, refused when fewer than MIN_TAIL samples lie beyond it."""
    beyond = samples_beyond(values, q)
    if beyond < MIN_TAIL:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has only {beyond} beyond it; "
            f"need at least {MIN_TAIL}"
        )
    return percentile(values, q)


def failed_ratio(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no job was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return failed / attempted


def time_to_rse(jobs, target: float = 0.01) -> float:
    """Extrapolated time for every job to reach relative SE `target`.

    Each job is (wall_s, rse).  Standard error falls as 1/sqrt(work), so a
    job that took wall_s to reach rse needs wall_s * (rse / target)^2.
    """
    total = 0.0
    for wall, rse in jobs:
        if not (wall >= 0 and rse >= 0 and math.isfinite(rse)):
            raise ValueError(f"bad (wall, rse) pair: {(wall, rse)}")
        total += wall * (rse / target) ** 2
    return total


def covered_length(intervals) -> float:
    """Total length of the union of closed intervals (start, end)."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus what its children cover.

    spans is a sequence of (start, end, parent) with parent an index into
    the same sequence or -1.  Child intervals are clipped to the parent's
    and merged first, so overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (start, end, _) in enumerate(spans):
        kids = [(max(a, start), min(b, end)) for a, b in children.get(i, ())]
        kids = [(a, b) for a, b in kids if b > a]
        out.append((end - start) - covered_length(kids))
    return out
