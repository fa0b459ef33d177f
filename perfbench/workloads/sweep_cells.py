"""``sweep_cells``: the path ``repro-cli sweep`` runs, one cell per op.

Closed loop, one caller.  Op ``i`` is
:func:`repro.experiments.sweep.compute_cell` on a ``random_regular``
cell of fixed size (n=5000, d=8) with a per-op graph seed derived from
the run seed, rotating the three vectorized algorithms.  Graph
generation dominates the op, which is the sweep-cell gap the ROADMAP
names.  The traced run re-executes each cell as its public layer calls
(build, CSR freeze, schedule, kernel, validate, record encode) to split
the op's time by layer.
"""

from __future__ import annotations

import json
import time

import harness as H
from workloads.engine_kernels import round_work

ALGORITHMS = ("linial_vectorized", "classic_vectorized", "fk24_vectorized")
N = 5000
DEGREE = 8
FK24_DEFECT = 1
TAIL_Q = 0.75
SLO_MS = 1500.0
#: Exact counts are summed over the first COUNT_OPS ops (ten rotations).
COUNT_OPS = 30
#: Ops re-derived through the repro.core.validate oracles after the window.
ORACLE_OPS = 3
SETUP_REPEATS = 7


def cell(seed: int, i: int):
    from repro.experiments.sweep import SweepCell

    return SweepCell.make(
        "random_regular",
        {"n": N, "degree": DEGREE, "seed": H.op_seed(seed, i)},
        ALGORITHMS[i % len(ALGORITHMS)],
    )


def _warm_up() -> None:
    """Compute one full-size cell per algorithm (imports, lazy tables,
    allocator growth)."""
    from repro.experiments.sweep import SweepCell, compute_cell

    for k, algorithm in enumerate(ALGORITHMS):
        compute_cell(
            SweepCell.make(
                "random_regular", {"n": N, "degree": DEGREE, "seed": k}, algorithm
            )
        )


def check_record(record: dict) -> str | None:
    """Why a cell record is wrong, or ``None`` when it is right."""
    if record.get("status") != "ok" or record.get("valid") is not True:
        return f"status={record.get('status')} valid={record.get('valid')}"
    if record["n"] != N or record["m"] != N * DEGREE // 2:
        return f"graph size n={record['n']} m={record['m']}"
    bound = DEGREE + 1 if record["algorithm"] == "classic_vectorized" else record["palette"]
    if not 1 <= record["colors"] <= bound:
        return f"{record['colors']} colors outside [1, {bound}]"
    if record["metrics"]["bandwidth_violations"]:
        return "CONGEST bandwidth violated"
    return None


def decomposed(c, tracer: H.Tracer) -> dict:
    """Run one cell as its public layer calls, each inside a span, and
    check the coloring with its :mod:`repro.core.validate` oracle."""
    from repro import graphs
    from repro.algorithms.fk24 import fk24_lists
    from repro.algorithms.linial import linial_schedule
    from repro.core.validate import validate_arbdefective_plain, validate_proper_coloring
    from repro.obs import RunRecorder
    from repro.sim.backends import backend_of_sweep_algorithm
    from repro.sim.engine import CSRGraph
    from repro.sim.vectorized import (
        classic_delta_plus_one_vectorized,
        fk24_vectorized,
        linial_vectorized,
    )

    params = dict(c.family_params)
    algorithm = c.algorithm
    with tracer.span("graphs.build"):
        graph = graphs.family(c.family, **params)
    with tracer.span("engine.csr"):
        csr = CSRGraph.from_networkx(graph)
    delta = int(csr.degrees.max())
    with tracer.span("schedule.build"):
        if algorithm == "fk24_vectorized":
            lists, space = fk24_lists(graph, FK24_DEFECT)
        else:
            linial_schedule(csr.n, delta)
    recorder = RunRecorder(
        engine=backend_of_sweep_algorithm(algorithm).engine, algorithm=algorithm
    )
    with tracer.span("kernel." + algorithm.split("_")[0]):
        if algorithm == "linial_vectorized":
            result, metrics, _ = linial_vectorized(graph, recorder=recorder)
        elif algorithm == "classic_vectorized":
            result, metrics = classic_delta_plus_one_vectorized(graph, recorder=recorder)
        else:
            result, metrics, _ = fk24_vectorized(
                graph, lists=lists, space_size=space, defect=FK24_DEFECT,
                recorder=recorder,
            )
    with tracer.span("validate"):
        if algorithm == "fk24_vectorized":
            report = validate_arbdefective_plain(graph, result, FK24_DEFECT)
            in_lists = all(result.assignment[v] in lists[v] for v in graph.nodes)
        else:
            report = validate_proper_coloring(graph, result)
            in_lists = True
    with tracer.span("record.encode"):
        blob = json.dumps(recorder.record.to_dict())
    return {
        "ok": bool(report.ok) and in_lists,
        "colors": result.num_colors(),
        "rounds": metrics.rounds,
        "total_bits": metrics.total_bits,
        "n": csr.n,
        "record_bytes": len(blob),
    }


def run(seed: int, seconds: float, trace: bool) -> H.Outcome:
    from repro.experiments.sweep import compute_cell

    pinned = H.pin_to_fastest_cpu()
    _, setup_s = H.timed_setups(_warm_up, SETUP_REPEATS)
    checks = H.Checks()
    records: list[dict] = []

    def op(i: int) -> float:
        c = cell(seed, i)
        t0 = time.perf_counter()
        record = compute_cell(c)
        latency = time.perf_counter() - t0
        problem = check_record(record)
        if problem:
            checks.fail(i, f"{c.algorithm}: {problem}")
        records.append(record)
        return latency

    window = seconds / 2 if trace else seconds
    min_ops = COUNT_OPS if trace else max(COUNT_OPS, H.min_samples_for(TAIL_Q))
    latencies, wall = H.closed_loop(op, window, min_ops)

    # the oracle pass: re-derive the first ops layer by layer and demand
    # the identical coloring size, rounds and bits
    for i in range(ORACLE_OPS):
        got = decomposed(cell(seed, i), H.Tracer(enabled=False))
        want = records[i]
        if not got["ok"]:
            checks.fail(i, "repro.core.validate oracle rejects the coloring")
        for key, ref in (
            ("colors", want["colors"]),
            ("rounds", want["metrics"]["rounds"]),
            ("total_bits", want["metrics"]["total_bits"]),
        ):
            if got[key] != ref:
                checks.fail(i, f"{key} {got[key]} != compute_cell's {ref}")

    info = {
        "loop": "closed, 1 caller",
        "op": f"compute_cell random_regular n={N} d={DEGREE}",
        "tail_percentile": TAIL_Q * 100,
        "samples": len(latencies),
        "slo_ms": SLO_MS,
        "pinned": pinned,
    }
    if trace:
        return _traced(seed, window, latencies, records, checks, info)

    if checks.errors:
        return H.Outcome(len(records), len(checks.failed_ops), {}, checks.errors, info)
    counted = records[:COUNT_OPS]
    ok_ms = [x * 1000.0 for i, x in enumerate(latencies) if checks.ok(i)]
    failed = len(checks.failed_ops)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / wall,
        "latency_mean_ms": sum(ok_ms) / len(ok_ms),
        "latency_tail_ms": H.tail_latency(ok_ms, TAIL_Q),
        "ok_ratio": (len(records) - failed) / len(records),
        "slo_ok_ratio": H.slo_ok_ratio(ok_ms, failed, SLO_MS),
        "rounds_total": sum(r["metrics"]["rounds"] for r in counted),
        "message_bits_total": sum(r["metrics"]["total_bits"] for r in counted),
        "colors_total": sum(r["colors"] for r in counted),
        "peak_rss_mb": H.peak_rss_mb(),
    }
    info["latency_p50_ms"] = H.median(ok_ms)
    return H.Outcome(len(records), failed, metrics, checks.errors, info)


def _traced(seed, window, untraced, records, checks, info) -> H.Outcome:
    from repro.experiments.sweep import compute_cell

    tracer = H.Tracer()
    cell_walls: list[float] = []
    results: list[dict] = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < window or len(results) < len(ALGORITHMS):
        i = len(records)
        c = cell(seed, i)
        with tracer.span("sweep.compute_cell"):
            record = compute_cell(c)
        cell_walls.append(tracer.spans[-1].duration)
        problem = check_record(record)
        if problem:
            checks.fail(i, f"{c.algorithm}: {problem}")
        with tracer.span("sweep.decomposed"):
            got = decomposed(c, tracer)
        if not got["ok"]:
            checks.fail(i, "repro.core.validate oracle rejects the coloring")
        got["algorithm"] = c.algorithm
        got["cell_wall"] = cell_walls[-1]
        results.append(got)
        records.append(record)

    by_name: dict[str, list[float]] = {}
    for s, t in zip(tracer.spans, H.self_times(tracer.spans)):
        by_name.setdefault(s.name, []).append(t)
    build = by_name["graphs.build"]
    csr = by_name["engine.csr"]
    sched = by_name["schedule.build"]
    encode = by_name["record.encode"]
    kernel_self: dict[str, list[float]] = {"linial": [], "classic": [], "fk24": []}
    rounds = node_rounds = 0
    overhead = []
    for j, r in enumerate(results):
        short = r["algorithm"].split("_")[0]
        call = by_name["kernel." + short][len(kernel_self[short])]
        kernel_self[short].append(round_work(short, call, csr[j], sched[j]))
        rounds += r["rounds"]
        node_rounds += r["rounds"] * r["n"]
        overhead.append(r["cell_wall"] - build[j] - call - encode[j])
    kernel_total = sum(sum(v) for v in kernel_self.values())
    metrics = {
        "graphs.build_s": H.median(build),
        "graphs.share": sum(build) / sum(cell_walls),
        "engine.csr_s": H.median(csr),
        "schedule.build_s": H.median(sched),
        "kernel.linial_s": H.median(kernel_self["linial"]),
        "kernel.classic_s": H.median(kernel_self["classic"]),
        "kernel.fk24_s": H.median(kernel_self["fk24"]),
        "kernel.rounds": rounds / len(results),
        "kernel.round_ms": kernel_total / rounds * 1000.0,
        "kernel.node_rounds_per_s": node_rounds / kernel_total,
        "validate.busy_s": H.median(by_name["validate"]),
        "validate.invalid": sum(1 for r in results if not r["ok"]),
        "record.encode_s": H.median(encode),
        "record.bytes": H.median([r["record_bytes"] for r in results]),
        "sweep.overhead_s": H.median(overhead),
        "trace.overhead_share": H.trace_overhead(untraced, cell_walls),
    }
    info.update(traced_ops=len(results))
    return H.Outcome(
        len(records), len(checks.failed_ops), metrics, checks.errors, info,
        tracer.to_json(),
    )
