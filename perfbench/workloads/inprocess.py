"""In-process serving phases for ``serve_wire``'s traced run.

No sockets.  Requests go straight into a
:class:`repro.serve.scheduler.ContinuousBatcher` (``max_batch`` 64).
The mix is ``synth_requests`` with every 20th request replaced by one
repeated heavy ring recipe, so identical recipes are rebuilt on the
serving path.  Two phases supply the per-layer metrics the wire cannot
show:

* an open loop at ``RATE`` requests per second, about half the
  batcher's drain capacity on this mix, timed from each request's due
  time: generator lateness, and the latency it reaches;
* bursts of ``BURST`` requests due at once, with the batcher's tick and
  its stepper's step wrapped in spans: the stepper at tens of residents.

These phases were a gated workload of their own until ten-seed runs
showed the open loop's tail is not steady on a 2-core host: its
p95..p99.5 latency spread 0.32..0.36 (IQR over median) at 100 req/s
and 0.38 at 50 req/s, because it is a handful of garbage-collector
pauses (25..100 ms) and host stalls per run.
"""

from __future__ import annotations

import asyncio
import time

import harness as H
from workloads import serve_common as S

RATE = 300.0
MAX_BATCH = 64
BURST = 300
#: The batcher drains WARMUP_BURSTS bursts of WARMUP requests before it
#: is measured: a fresh process serves its first few thousand requests
#: several times slower.
WARMUP = 200
WARMUP_BURSTS = 3
#: Every SAMPLE_EVERY-th response is diffed against the offline engine.
SAMPLE_EVERY = 8
REPLAY_REQUESTS = 400


class Pending:
    """Counts submitted-but-unfinished requests; ``wait`` returns when
    all have finished.  Responses are handed to ``on_done`` from the
    future's callback and not kept here."""

    def __init__(self, on_done) -> None:
        self.on_done = on_done
        self.open = 0
        self.idle = asyncio.Event()
        self.idle.set()

    def submit(self, batcher, i: int, request) -> None:
        self.open += 1
        self.idle.clear()
        batcher.submit(request).add_done_callback(lambda f, i=i: self._done(i, f))

    def _done(self, i: int, future) -> None:
        self.on_done(i, future.result())
        self.open -= 1
        if not self.open:
            self.idle.set()

    async def wait(self) -> None:
        await self.idle.wait()


async def burst(batcher, requests, on_done, offset: int = 0) -> None:
    """Submit ``requests`` at once and wait for all of them; ``on_done``
    sees request indices shifted by ``offset``."""
    pending = Pending(lambda i, response: on_done(offset + i, response))
    for i, request in enumerate(requests):
        pending.submit(batcher, i, request)
    await pending.wait()


async def start_batcher(seed: int):
    """A running batcher, warmed up on drained bursts."""
    from repro.serve import ContinuousBatcher, ServeConfig

    batcher = ContinuousBatcher(ServeConfig(max_batch=MAX_BATCH))
    task = asyncio.create_task(batcher.run())
    for k in range(WARMUP_BURSTS):
        warm = S.open_requests(H.op_seed(seed, 90 + k), WARMUP, f"warm{k}")
        await burst(batcher, warm, lambda i, r: None)
    return batcher, task


async def stop_batcher(batcher, task) -> None:
    batcher.stop()
    await task


async def open_loop(batcher, requests, on_done) -> H.OpenLoopSchedule:
    """Submit ``requests[i]`` at its due time, ``i / RATE`` seconds in;
    ``on_done(i, response)`` runs as each finishes.  Returns the
    schedule with send and finish times."""
    schedule = H.OpenLoopSchedule(start=time.perf_counter() + 0.005, rate=RATE)

    def finished(i: int, response) -> None:
        schedule.mark_done(i, time.perf_counter())
        on_done(i, response)

    pending = Pending(finished)
    for i, request in enumerate(requests):
        delay = schedule.due(i) - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        schedule.mark_sent(i, time.perf_counter())
        pending.submit(batcher, i, request)
    await pending.wait()
    return schedule


def trace_batcher(batcher, tracer: H.Tracer) -> list[int]:
    """Wrap the batcher's tick and its stepper's step in spans (from
    outside: instance attributes shadow the public methods); returns
    the list that collects each step's resident count."""
    residents: list[int] = []
    tick, step = batcher.tick, batcher.stepper.step

    def traced_tick():
        with tracer.span("scheduler.tick"):
            return tick()

    def traced_step():
        with tracer.span("stepper.step"):
            report = step()
        residents.append(report.live)
        return report

    batcher.tick = traced_tick
    batcher.stepper.step = traced_step
    return residents


async def layer_metrics(seed: int, seconds: float, tracer: H.Tracer, checks: H.Checks):
    """Run the open loop for ``seconds / 2`` and traced bursts for
    ``seconds / 2``; check every response and diff a sample against the
    offline engine.  Returns the per-layer metrics, the number of
    requests served and an info block."""
    requests = S.open_requests(seed, int(RATE * seconds / 2), f"{seed}o")
    sink = S.Sink(list(requests), checks, 0, SAMPLE_EVERY)
    batcher, task = await start_batcher(seed)
    try:
        schedule = await open_loop(batcher, requests, sink.accept)
        residents = trace_batcher(batcher, tracer)
        t0 = time.perf_counter()
        k = 0
        while time.perf_counter() - t0 < seconds / 2 or not k:
            more = S.open_requests(H.op_seed(seed, 1000 + k), BURST, f"{seed}b{k}")
            offset = len(sink.requests)
            sink.requests.extend(more)
            await burst(batcher, more, sink.accept, offset)
            k += 1
    finally:
        await stop_batcher(batcher, task)
    checked = sink.check_bit_identical()

    replay, _ = S.replay_metrics(requests[:REPLAY_REQUESTS], H.Tracer())
    late_ms = [schedule.late(i) * 1000.0 for i in schedule.sent]
    open_ms = [schedule.latency(i) * 1000.0 for i in schedule.done]
    metrics = {
        "recipe.build_small_ms": replay["recipe.build_small_ms"],
        "recipe.build_heavy_ms": replay["recipe.build_heavy_ms"],
        "recipe.repeat_share": replay["recipe.repeat_share"],
        "stepper.step_ms": H.median(tracer.durations("stepper.step")) * 1000.0,
        "stepper.residents_per_step": sum(residents) / len(residents),
        "loadgen.late_p50_ms": H.median(late_ms),
        "loadgen.late_max_ms": max(late_ms),
        "loadgen.offered_rps": schedule.offered_rate(),
    }
    info = {
        "mix": f"synth_requests + ring n={S.HEAVY_N} every {S.HEAVY_EVERY}th, "
               f"max_batch={MAX_BATCH}",
        "open_loop_rate": RATE,
        "open_loop_samples": len(open_ms),
        "open_loop_p50_ms": H.median(open_ms),
        "open_loop_p99_ms": H.quantile(open_ms, 0.99),
        "bursts": k,
        "bit_identical_checked": checked,
    }
    return metrics, len(sink.requests), info
