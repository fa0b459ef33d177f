"""``engine_kernels``: the round kernels on inputs built before timing.

Closed loop, one caller.  Setup builds six mid-size graphs (n=4000,
d=8) with their FK24 lists, and 64 small instances of the batched
benchmark's shape (n=64, d=3, 20-bit IDs).  Op ``i`` runs
``linial_vectorized``, ``classic_delta_plus_one_vectorized`` and
``fk24_vectorized`` on mid-size graph ``i mod 6`` plus
``linial_vectorized_batch`` and ``fk24_vectorized_batch`` on the small
instances, and validates every output with its
:mod:`repro.core.validate` oracle.  No graph is built inside the timed
window.  Linial runs 2 heavy rounds, FK24 about ten shrinking ones and
classic about a hundred one-class rounds, so a shared round-step change
that helps one and hurts another shows here.

Why six graphs, not one: with one graph every op is identical, so the
op latencies of a run sit in two narrow modes (host fast or slow) and
their median jumps between the modes from run to run; over ten seeds
at 36 s its spread was 0.31 (IQR over median).  Graphs of the same
size but different classic round counts widen each run's distribution.
"""

from __future__ import annotations

import random
import time

import harness as H

N = 4000
DEGREE = 8
GRAPHS = 6
SMALL_K = 64
SMALL_N = 64
SMALL_DEGREE = 3
ID_BITS = 20
FK24_DEFECT = 1
TAIL_Q = 0.8
SLO_MS = 1000.0
#: Exact counts are summed over the first COUNT_OPS ops (one rotation).
COUNT_OPS = GRAPHS
SETUP_REPEATS = 3


#: How many CSR freezes and schedule builds each single-graph entry
#: repeats internally; the benchmark times those calls beside the entry
#: and subtracts them to estimate the entry's round work.
REPEATED = {"linial": (1, 1), "classic": (2, 1), "fk24": (1, 0)}


def round_work(kernel: str, call_s: float, csr_s: float, sched_s: float) -> float:
    """A single-graph entry's time minus the freezes and schedule builds
    it repeats internally."""
    freezes, schedules = REPEATED[kernel]
    return call_s - freezes * csr_s - schedules * sched_s


def build_inputs(seed: int) -> dict:
    from repro import graphs
    from repro.algorithms.fk24 import fk24_lists

    mids = []
    for k in range(GRAPHS):
        graph = graphs.random_regular(N, DEGREE, seed=H.op_seed(seed, k))
        lists, space = fk24_lists(graph, FK24_DEFECT)
        mids.append({"graph": graph, "lists": lists, "space": space})
    smalls = [
        graphs.random_regular(SMALL_N, SMALL_DEGREE, seed=H.op_seed(seed, GRAPHS + j))
        for j in range(SMALL_K)
    ]
    inits = []
    for j, g in enumerate(smalls):
        ids = random.Random(H.op_seed(seed, GRAPHS + j)).sample(
            range(1 << ID_BITS), SMALL_N
        )
        ids[0] = (1 << ID_BITS) - 1  # every instance shares m0 = 2**20
        inits.append(dict(zip(sorted(g.nodes()), ids)))
    small_lists = [fk24_lists(g, FK24_DEFECT) for g in smalls]
    return {
        "mids": mids,
        "smalls": smalls,
        "inits": inits,
        "small_lists": [lst for lst, _ in small_lists],
        "small_spaces": [sp for _, sp in small_lists],
    }


def run_op(inp: dict, i: int, tracer: H.Tracer) -> tuple[list, list[str]]:
    """Op ``i``: all five kernels plus validation; returns per-kernel
    summaries ``(name, n, rounds, bits, colors, assignment digest)`` and
    problems."""
    from repro.core.validate import validate_arbdefective_plain, validate_proper_coloring
    from repro.sim.batch import fk24_vectorized_batch, linial_vectorized_batch
    from repro.sim.vectorized import (
        classic_delta_plus_one_vectorized,
        fk24_vectorized,
        linial_vectorized,
    )

    mid = inp["mids"][i % GRAPHS]
    g = mid["graph"]
    with tracer.span("kernel.linial"):
        lin, lin_m, _ = linial_vectorized(g)
    with tracer.span("kernel.classic"):
        cls, cls_m = classic_delta_plus_one_vectorized(g)
    with tracer.span("kernel.fk24"):
        fk, fk_m, _ = fk24_vectorized(
            g, lists=mid["lists"], space_size=mid["space"], defect=FK24_DEFECT
        )
    with tracer.span("kernel.batch_linial"):
        blin = linial_vectorized_batch(inp["smalls"], initial_colors=inp["inits"])
    with tracer.span("kernel.batch_fk24"):
        bfk = fk24_vectorized_batch(
            inp["smalls"],
            lists=inp["small_lists"],
            space_size=inp["small_spaces"],
            defect=FK24_DEFECT,
        )
    problems = []
    with tracer.span("validate"):
        for name, res in (("linial", lin), ("classic", cls)):
            if not validate_proper_coloring(g, res).ok:
                problems.append(f"{name}: improper coloring")
        if not validate_arbdefective_plain(g, fk, FK24_DEFECT).ok:
            problems.append("fk24: defect exceeded")
        if any(fk.assignment[v] not in mid["lists"][v] for v in g.nodes):
            problems.append("fk24: color outside its list")
        for j, sg in enumerate(inp["smalls"]):
            if not validate_proper_coloring(sg, blin[j][0]).ok:
                problems.append(f"batch linial instance {j}: improper coloring")
            if not validate_arbdefective_plain(sg, bfk[j][0], FK24_DEFECT).ok:
                problems.append(f"batch fk24 instance {j}: defect exceeded")
    summary = [
        ("linial", N, lin_m.rounds, lin_m.total_bits, lin.num_colors(), hash(tuple(sorted(lin.assignment.items())))),
        ("classic", N, cls_m.rounds, cls_m.total_bits, cls.num_colors(), hash(tuple(sorted(cls.assignment.items())))),
        ("fk24", N, fk_m.rounds, fk_m.total_bits, fk.num_colors(), hash(tuple(sorted(fk.assignment.items())))),
    ]
    for name, out in (("batch_linial", blin), ("batch_fk24", bfk)):
        summary.append((
            name,
            SMALL_N * SMALL_K,
            sum(m.rounds for _, m, _ in out),
            sum(m.total_bits for _, m, _ in out),
            sum(r.num_colors() for r, _, _ in out),
            hash(tuple(tuple(sorted(r.assignment.items())) for r, _, _ in out)),
        ))
    return summary, problems


def run(seed: int, seconds: float, trace: bool) -> H.Outcome:
    pinned = H.pin_to_fastest_cpu()

    def setup() -> dict:
        built = build_inputs(seed)
        run_op(built, 0, H.Tracer(enabled=False))  # warm-up
        return built

    inp, setup_s = H.timed_setups(setup, SETUP_REPEATS)
    checks = H.Checks()
    summaries: list[list] = []
    untraced = H.Tracer(enabled=False)

    def op(i: int) -> float:
        t0 = time.perf_counter()
        summary, problems = run_op(inp, i, untraced)
        latency = time.perf_counter() - t0
        for p in problems:
            checks.fail(i, p)
        if i >= GRAPHS and summary != summaries[i - GRAPHS]:
            checks.fail(i, f"outputs differ from op {i - GRAPHS} on identical inputs")
        summaries.append(summary)
        return latency

    window = seconds / 2 if trace else seconds
    min_ops = COUNT_OPS if trace else max(COUNT_OPS, H.min_samples_for(TAIL_Q))
    latencies, wall = H.closed_loop(op, window, min_ops)
    info = {
        "loop": "closed, 1 caller",
        "op": f"3 kernels on one of {GRAPHS} n={N} d={DEGREE} graphs + 2 batched kernels on "
              f"{SMALL_K}x(n={SMALL_N}, d={SMALL_DEGREE}), all validated",
        "tail_percentile": TAIL_Q * 100,
        "samples": len(latencies),
        "slo_ms": SLO_MS,
        "pinned": pinned,
    }
    if trace:
        return _traced(inp, window, latencies, checks, info, summaries)

    if checks.errors:
        return H.Outcome(len(latencies), len(checks.failed_ops), {}, checks.errors, info)
    counted = summaries[:COUNT_OPS]
    ok_ms = [x * 1000.0 for i, x in enumerate(latencies) if checks.ok(i)]
    failed = len(checks.failed_ops)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / wall,
        "latency_mean_ms": sum(ok_ms) / len(ok_ms),
        "latency_tail_ms": H.tail_latency(ok_ms, TAIL_Q),
        "ok_ratio": (len(latencies) - failed) / len(latencies),
        "slo_ok_ratio": H.slo_ok_ratio(ok_ms, failed, SLO_MS),
        "rounds_total": sum(row[2] for s in counted for row in s),
        "message_bits_total": sum(row[3] for s in counted for row in s),
        "colors_total": sum(row[4] for s in counted for row in s),
        "peak_rss_mb": H.peak_rss_mb(),
    }
    info["latency_p50_ms"] = H.median(ok_ms)
    return H.Outcome(len(latencies), failed, metrics, checks.errors, info)


def _traced(inp, window, untraced, checks, info, summaries) -> H.Outcome:
    from repro.algorithms.linial import linial_schedule
    from repro.sim.engine import CSRGraph

    tracer = H.Tracer()
    op_walls: list[float] = []
    rounds: list[int] = []
    done = len(untraced)
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < window or not op_walls:
        i = done + len(op_walls)
        g = inp["mids"][i % GRAPHS]["graph"]
        with tracer.span("op"):
            # the single-graph entries repeat these calls internally;
            # timing them beside the kernels separates the round work
            with tracer.span("engine.csr"):
                csr = CSRGraph.from_networkx(g)
            with tracer.span("schedule.build"):
                linial_schedule(csr.n, int(csr.degrees.max()))
            summary, problems = run_op(inp, i, tracer)
        op_walls.append(_last(tracer, "op"))
        rounds.append(sum(row[2] for row in summary[:3]))
        for p in problems:
            checks.fail(i, p)
        if summary != summaries[i % GRAPHS]:
            checks.fail(i, f"outputs differ from op {i % GRAPHS} on identical inputs")

    d = {name: tracer.durations(name) for name in (
        "engine.csr", "schedule.build", "kernel.linial", "kernel.classic",
        "kernel.fk24", "kernel.batch_linial", "kernel.batch_fk24", "validate")}
    work = {
        k: [round_work(k, call, c, sc) for call, c, sc in
            zip(d["kernel." + k], d["engine.csr"], d["schedule.build"])]
        for k in ("linial", "classic", "fk24")
    }
    kernel_s = sum(sum(v) for v in work.values())
    metrics = {
        "graphs.build_s": 0.0,
        "graphs.share": 0.0,
        "engine.csr_s": H.median(d["engine.csr"]),
        "schedule.build_s": H.median(d["schedule.build"]),
        "kernel.linial_s": H.median(work["linial"]),
        "kernel.classic_s": H.median(work["classic"]),
        "kernel.fk24_s": H.median(work["fk24"]),
        "kernel.batch_linial_ms": H.median(d["kernel.batch_linial"]) * 1000.0,
        "kernel.batch_fk24_ms": H.median(d["kernel.batch_fk24"]) * 1000.0,
        "kernel.rounds": sum(rounds) / len(rounds),
        "kernel.round_ms": kernel_s / sum(rounds) * 1000.0,
        "kernel.node_rounds_per_s": N * sum(rounds) / kernel_s,
        "validate.busy_s": H.median(d["validate"]),
        "validate.invalid": len(checks.failed_ops),
        "trace.overhead_share": H.trace_overhead(
            untraced,
            [w - c - s for w, c, s in zip(op_walls, d["engine.csr"], d["schedule.build"])],
        ),
    }
    info.update(traced_ops=len(op_walls))
    return H.Outcome(
        done + len(op_walls), len(checks.failed_ops), metrics, checks.errors, info,
        tracer.to_json(),
    )


def _last(tracer: H.Tracer, name: str) -> float:
    return next(s.duration for s in reversed(tracer.spans) if s.name == name)
