"""Arithmetic and bookkeeping shared by every benchmark workload.

Nothing here imports :mod:`repro`: this module is the benchmark's own
measuring instrument — percentiles, open-loop clocks, SLO accounting,
spans with self time, the environment block and the machine-speed
probe — so a change to the program under test cannot change how it is
measured.  ``perfbench/tests/test_harness.py`` pins its arithmetic.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Sequence

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it.
MIN_BEYOND = 10


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def quantile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile by linear interpolation (numpy's default rule)."""
    if not samples:
        raise ValueError("quantile of an empty sample set")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile fraction must be in [0, 1], got {q}")
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def samples_beyond(q: float, count: int) -> int:
    """How many of ``count`` distinct samples lie strictly above their
    interpolated ``q``-quantile."""
    if count <= 0:
        return 0
    return count - 1 - math.floor(q * (count - 1))


def min_samples_for(q: float, beyond: int = MIN_BEYOND) -> int:
    """The smallest sample count that puts ``beyond`` samples past ``q``."""
    count = beyond + 1
    while samples_beyond(q, count) < beyond:
        count += 1
    return count


def tail_latency(samples: Sequence[float], q: float) -> float:
    """The fixed tail percentile ``q`` of ``samples``; refuses a tail the
    sample cannot support (fewer than :data:`MIN_BEYOND` samples beyond)."""
    if samples_beyond(q, len(samples)) < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} needs {min_samples_for(q)} samples, "
            f"got {len(samples)}"
        )
    return quantile(samples, q)


def slo_ok_ratio(ok_latencies: Sequence[float], failed: int, limit: float) -> float:
    """Share of attempted ops that succeeded within ``limit``; a failed
    op counts as a miss whatever its latency."""
    attempted = len(ok_latencies) + failed
    if attempted == 0:
        raise ValueError("SLO ratio over zero attempted ops")
    return sum(1 for lat in ok_latencies if lat <= limit) / attempted


def quartile_spread(values: Sequence[float]) -> tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)`` as the steadiness rule
    computes it (``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else (0.0 if q3 == q1 else math.inf)
    return q1, q2, q3, spread


# ----------------------------------------------------------------------
# open-loop load generation
# ----------------------------------------------------------------------
@dataclass
class OpenLoopSchedule:
    """Request ``i`` is due ``i / rate`` seconds after ``start``.

    Latency is taken from the due time, not the send time, so a stall
    in the generator or the system charges every request it delayed;
    ``late`` is how far behind schedule each send actually went out.
    """

    start: float
    rate: float
    sent: dict[int, float] = field(default_factory=dict)
    done: dict[int, float] = field(default_factory=dict)

    def due(self, i: int) -> float:
        return self.start + i / self.rate

    def mark_sent(self, i: int, now: float) -> None:
        self.sent[i] = now

    def mark_done(self, i: int, now: float) -> None:
        self.done[i] = now

    def latency(self, i: int) -> float:
        return self.done[i] - self.due(i)

    def late(self, i: int) -> float:
        return max(0.0, self.sent[i] - self.due(i))

    def offered_rate(self) -> float:
        """Sends per second actually achieved over the schedule."""
        if len(self.sent) < 2:
            return 0.0
        span = max(self.sent.values()) - min(self.sent.values())
        return (len(self.sent) - 1) / span if span > 0 else 0.0


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request_id: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans opened by the benchmark around public layer calls.

    Spans nest by a stack, so a span must open and close without an
    ``await`` in between.  A disabled tracer records nothing.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request_id: str | None = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, request_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def to_json(self) -> list[dict[str, Any]]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "request_id": s.request_id,
            }
            for s in self.spans
        ]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - _covered(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
def speed_probe() -> dict[str, float]:
    """A fixed pure-Python loop and a fixed numpy sort, median of 3 ms.

    Recorded at the start and end of a run to identify a throttled
    host; never used to rescale a metric.
    """
    import numpy as np

    def py_loop() -> None:
        acc = 0
        for i in range(200_000):
            acc += i * i

    data = np.random.default_rng(0).integers(0, 1 << 30, 400_000)

    def np_sort() -> None:
        np.sort(data)

    out = {}
    for name, fn in (("python_ms", py_loop), ("numpy_ms", np_sort)):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t0) * 1000.0)
        out[name] = statistics.median(times)
    return out


def _loop_ms() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return (time.perf_counter() - t0) * 1000.0


def pin_to_fastest_cpu() -> dict[str, Any]:
    """Pin this single-threaded process to the CPU that runs a fixed
    pure-Python loop fastest right now; returns the choice and each
    CPU's probe time.

    The vCPUs of a small shared host can differ in speed by 2x for
    minutes at a time (a busy neighbour on one core's sibling thread),
    and a process the kernel moves between them gets a different mix of
    the two speeds in every run.
    """
    cpus = sorted(os.sched_getaffinity(0))
    probe = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        probe[cpu] = min(_loop_ms() for _ in range(3))
    best = min(probe, key=probe.get)
    os.sched_setaffinity(0, {best})
    return {"cpu": best, "probe_ms": probe}


def source_digest(src: Path) -> str:
    """SHA-256 (16 hex) over the program's Python sources, for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha(root: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: Path, workload: str, seed: int) -> dict[str, Any]:
    import networkx
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": nproc,
        "machine": platform.machine(),
        "git_sha": git_sha(root),
        "src_digest": source_digest(root / "src"),
        "executable": Path(sys.executable).name,
    }


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Another live process's peak resident set size (``VmHWM``) in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM for pid {pid}")


def op_seed(seed: int, i: int) -> int:
    """A per-op graph seed derived from the run seed."""
    return (seed * 1_000_003 + i * 7_919) % (2**31 - 1)


def timed_setups(build, repeats: int) -> tuple[Any, float]:
    """Run ``build()`` ``repeats`` times; return the last result and the
    median wall time in seconds."""
    times = []
    state = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - t0)
    return state, statistics.median(times)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``metrics`` holds the end-to-end metrics of an untraced run or the
    per-layer metrics of a traced one; ``errors`` lists every failed
    check.  A run with errors is incorrect and reports no metrics.
    """

    attempted: int
    failed: int
    metrics: dict[str, float]
    errors: list[str] = field(default_factory=list)
    info: dict[str, Any] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.errors:
            self.metrics = {}


class Checks:
    """Failed checks of a run, keyed by the op they condemn."""

    def __init__(self) -> None:
        self.errors: list[str] = []
        self.failed_ops: set[int] = set()

    def fail(self, op: int, message: str) -> None:
        self.failed_ops.add(op)
        self.errors.append(f"op {op}: {message}")

    def ok(self, op: int) -> bool:
        return op not in self.failed_ops


def closed_loop(run_op, seconds: float, min_ops: int) -> tuple[list[float], float]:
    """Call ``run_op(i)`` back to back for ``seconds`` (and at least
    ``min_ops`` times); ``run_op`` returns the op's latency in seconds.

    Returns the latencies and the wall time of the whole window.
    """
    latencies: list[float] = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or len(latencies) < min_ops:
        latencies.append(run_op(len(latencies)))
    return latencies, time.perf_counter() - t0


def trace_overhead(untraced: Sequence[float], traced: Sequence[float]) -> float:
    """Tracing overhead as a share of the untraced median op time."""
    base = median(untraced)
    return (median(traced) - base) / base if base else 0.0
