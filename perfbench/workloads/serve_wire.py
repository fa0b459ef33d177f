"""``serve_wire``: ``repro-cli serve`` in its own process, over TCP.

Closed loop over 2 connections (``nproc`` is 2), each sending its next
request only after the previous reply.  Requests are small, unique
``synth_requests``, so the batch holds at most 2 residents and the
protocol, stream and JSON work dominates: client latency against the
daemon's own ``timing.total_ms`` is the served-latency gap the ROADMAP
names.  The traced run splits a request into stages by replaying the
same requests in-process through the public protocol, recipe, stepper
and validate functions.
"""

from __future__ import annotations

import asyncio
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import harness as H
from workloads import inprocess
from workloads import serve_common as S

ROOT = Path(__file__).resolve().parents[2]
CONNECTIONS = 2
MAX_BATCH = 64
TAIL_Q = 0.99
SLO_MS = 50.0
WARMUP = 16
CHUNK = 512
COUNT_REQUESTS = 2000
SAMPLE_EVERY = 16
REPLAY_REQUESTS = 400
SETUP_REPEATS = 3
START_TIMEOUT_S = 60.0


class Daemon:
    """One ``repro-cli serve`` process on a free local port."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--max-batch", str(MAX_BATCH)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.port: int | None = None

    async def wait_ready(self) -> int:
        banner = await asyncio.wait_for(
            asyncio.to_thread(self.proc.stdout.readline), START_TIMEOUT_S
        )
        match = re.search(r"listening on [\d.]+:(\d+)", banner)
        if not match:
            raise RuntimeError(f"daemon failed to start: {banner!r}")
        self.port = int(match.group(1))
        return self.port

    def peak_rss_mb(self) -> float:
        return H.process_peak_rss_mb(self.proc.pid)

    def close(self) -> None:
        """Wait for the process (after a shutdown op) or stop it."""
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            self.proc.wait(timeout=30)
        finally:
            self.proc.stdout.close()


async def start(seed: int):
    """Daemon up, connections open, warm-up requests served."""
    from repro.serve import ServeClient, synth_requests

    daemon = Daemon()
    try:
        port = await daemon.wait_ready()
        clients = [
            await ServeClient("127.0.0.1", port, timeout=60.0).connect()
            for _ in range(CONNECTIONS)
        ]
        for r in synth_requests(H.op_seed(seed, 99), WARMUP):
            await clients[0].color(r)
    except BaseException:
        daemon.proc.kill()
        daemon.close()
        raise
    return daemon, clients


async def stop(daemon: Daemon, clients) -> None:
    try:
        await clients[0].shutdown()
        for c in clients[1:]:
            await c.close()
    finally:
        daemon.close()


class RequestStream:
    """``synth_requests`` in seeded chunks of unique requests, grown on
    demand so a fast run never runs dry."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.requests: list = []

    def __getitem__(self, i: int):
        from repro.serve import synth_requests

        while i >= len(self.requests):
            chunk = len(self.requests) // CHUNK
            self.requests.extend(synth_requests(H.op_seed(self.seed, chunk), CHUNK))
        return self.requests[i]


async def closed_loop(clients, stream: RequestStream, seconds: float, min_ops: int, sink):
    """Each connection sends its next request after the previous reply.

    Returns per-request client latencies (seconds), the client latency
    minus the daemon's own ``timing.total_ms`` (ms), and the window's
    wall time; responses go to ``sink`` as they arrive.
    """
    latency: dict[int, float] = {}
    wire_ms: list[float] = []
    issued = 0
    t0 = time.perf_counter()

    async def worker(client) -> None:
        nonlocal issued
        while time.perf_counter() - t0 < seconds or issued < min_ops:
            i = issued
            issued += 1
            request = stream[i]
            t_send = time.perf_counter()
            response = await client.color(request)
            latency[i] = time.perf_counter() - t_send
            if response.status == "ok":
                wire_ms.append(latency[i] * 1000.0 - response.timing["total_ms"])
            sink.accept(i, response)

    await asyncio.gather(*(worker(c) for c in clients))
    return [latency[i] for i in range(len(latency))], wire_ms, time.perf_counter() - t0


async def _run(seed: int, seconds: float, trace: bool) -> H.Outcome:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        daemon, clients = await start(seed)
        times.append(time.perf_counter() - t0)
        if len(times) < SETUP_REPEATS:
            await stop(daemon, clients)
    setup_s = H.median(times)

    stream = RequestStream(seed)
    checks = H.Checks()
    sink = S.Sink(stream, checks, COUNT_REQUESTS, SAMPLE_EVERY)
    try:
        window = seconds / 2 if trace else seconds
        min_ops = COUNT_REQUESTS if trace else max(COUNT_REQUESTS, H.min_samples_for(TAIL_Q))
        latencies, wire_ms, wall = await closed_loop(
            clients, stream, window, min_ops, sink
        )
        stats = await clients[0].stats()
        daemon_rss = daemon.peak_rss_mb()
    finally:
        await stop(daemon, clients)

    n = len(latencies)
    info = {
        "loop": f"closed, {CONNECTIONS} connections",
        "op": "small unique synth_requests to a repro-cli serve process",
        "tail_percentile": TAIL_Q * 100,
        "samples": n,
        "slo_ms": SLO_MS,
        "bit_identical_checked": sink.check_bit_identical(),
    }
    if checks.errors:
        return H.Outcome(n, len(checks.failed_ops), {}, checks.errors, info)
    ok_ms = [latencies[i] * 1000.0 for i in range(n) if checks.ok(i)]
    failed = len(checks.failed_ops)
    if trace:
        outcome = await _traced(seed, seconds / 2, stream.requests[:REPLAY_REQUESTS],
                                wire_ms, stats)
        outcome.attempted += n
        outcome.failed += failed
        outcome.info = {**info, "inprocess": outcome.info}
        return outcome
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": n / wall,
        "latency_mean_ms": sum(ok_ms) / len(ok_ms),
        "latency_tail_ms": H.tail_latency(ok_ms, TAIL_Q),
        "ok_ratio": (n - failed) / n,
        "slo_ok_ratio": H.slo_ok_ratio(ok_ms, failed, SLO_MS),
        **sink.counts,
        "peak_rss_mb": H.peak_rss_mb() + daemon_rss,
    }
    info["latency_p50_ms"] = H.median(ok_ms)
    return H.Outcome(n, failed, metrics, checks.errors, info)


async def _traced(seed, seconds, replayed, wire_ms, stats) -> H.Outcome:
    """Per-layer metrics: the daemon's own stats and the wire overhead
    the live clients saw; the in-process batcher phases (stepper at
    tens of residents, recipes with repeats, open-loop lateness); and a
    per-stage split from an in-process replay of the wire's requests,
    run plain and then traced, after a warming pass, for the tracing
    overhead."""
    tracer = H.Tracer()
    checks = H.Checks()
    batcher_metrics, attempted, info = await inprocess.layer_metrics(
        seed, seconds, tracer, checks
    )
    S.replay(replayed, H.Tracer(enabled=False))
    _, plain_wall = S.replay_metrics(replayed, H.Tracer(enabled=False))
    replay, traced_wall = S.replay_metrics(replayed, tracer)
    occupancy = stats["occupancy_stats"]
    metrics = {
        **replay,
        **batcher_metrics,
        "scheduler.queue_p50_ms": stats["latency"]["queue"]["p50_ms"],
        "scheduler.service_p50_ms": stats["latency"]["service"]["p50_ms"],
        "scheduler.mean_occupancy": occupancy["mean_occupancy"],
        "scheduler.mean_queue_depth": occupancy["mean_queue_depth"],
        "scheduler.rounds": occupancy["rounds"],
        "scheduler.rejected": stats["rejected"],
        "scheduler.timed_out": stats["timed_out"],
        "wire.overhead_p50_ms": H.median(wire_ms),
        "trace.overhead_share": (traced_wall - plain_wall) / plain_wall,
    }
    return H.Outcome(
        attempted, len(checks.failed_ops), metrics, checks.errors, info, tracer.to_json()
    )


def run(seed: int, seconds: float, trace: bool) -> H.Outcome:
    return asyncio.run(_run(seed, seconds, trace))
