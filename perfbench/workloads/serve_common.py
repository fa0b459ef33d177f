"""Request sets, response checks with the offline bit-identity diff, and
the in-process replay, shared by ``serve_wire`` and its in-process
batcher phases."""

from __future__ import annotations

import json
import time

import harness as H

#: Every HEAVY_EVERY-th request of an open-loop set is the same large
#: ring recipe, so identical recipes recur on the serving path.
HEAVY_EVERY = 20
HEAVY_N = 2000


def open_requests(seed: int, count: int, tag: str) -> list:
    """``synth_requests`` with every ``HEAVY_EVERY``-th request replaced
    by the one repeated heavy ring recipe."""
    from repro.serve import ServeRequest, synth_requests

    out = []
    for i, r in enumerate(synth_requests(seed, count)):
        if i % HEAVY_EVERY == HEAVY_EVERY - 1:
            r = ServeRequest(
                family="ring",
                family_params={"n": HEAVY_N},
                request_id=f"heavy-{tag}-{i}",
            )
        out.append(r)
    return out


def is_heavy(request) -> bool:
    return (request.request_id or "").startswith("heavy-")


class Sink:
    """Checks each response as it arrives and keeps only what the run
    reports: exact counts over the first ``count_first`` requests and
    every ``keep_every``-th response for the offline diff.  Dropping the
    rest keeps the benchmark's own heap from growing the program's
    garbage-collection pauses."""

    def __init__(self, requests, checks: H.Checks, count_first: int, keep_every: int):
        self.requests = requests
        self.checks = checks
        self.count_first = count_first
        self.keep_every = keep_every
        self.kept: dict[int, object] = {}
        self.counts = {"rounds_total": 0, "message_bits_total": 0, "colors_total": 0}

    def accept(self, i: int, response) -> None:
        """Every response must be ``ok``, validated by the server, and
        answer its own request."""
        request = self.requests[i]
        rid = request.request_id
        if response.status != "ok":
            self.checks.fail(i, f"{rid}: status {response.status} {response.error}")
            return
        if response.valid is not True:
            self.checks.fail(i, f"{rid}: served coloring not validated")
        if response.request_id != rid:
            self.checks.fail(i, f"{rid}: answered as {response.request_id}")
        if i < self.count_first:
            self.counts["rounds_total"] += response.rounds
            self.counts["message_bits_total"] += response.total_bits
            self.counts["colors_total"] += len(set(response.colors.values()))
        if i % self.keep_every == 0:
            self.kept[i] = response

    def check_bit_identical(self) -> int:
        """The kept served colorings must equal the offline batched
        engine's output on the same recipes; returns how many were
        compared."""
        from repro.sim import linial_vectorized_batch

        picked = sorted(self.kept)
        if not picked:
            return 0
        requests = [self.requests[i] for i in picked]
        offline = linial_vectorized_batch(
            [r.build_graph() for r in requests],
            initial_colors=[r.initial_colors for r in requests],
            defect=[r.defect for r in requests],
        )
        for i, request, (result, metrics, palette) in zip(picked, requests, offline):
            served = self.kept[i]
            if (
                served.assignment() != result.assignment
                or served.palette != palette
                or served.rounds != metrics.rounds
                or served.total_bits != metrics.total_bits
            ):
                self.checks.fail(
                    i, f"{request.request_id}: served coloring differs from offline"
                )
        return len(picked)


def recipe_key(request) -> str:
    spec = request.to_dict()
    spec.pop("request_id", None)
    return json.dumps(spec, sort_keys=True)


def replay(requests, tracer: H.Tracer) -> list[dict]:
    """Serve each request in-process through the public protocol, recipe,
    stepper and validate functions, one span per stage.

    Mirrors the daemon's path for a lone resident: the client encodes
    the request line, the server decodes it, builds the recipe, steps
    the instance to completion, validates, and encodes the response
    line, which the client decodes.
    """
    from repro.core.validate import validate_defective_coloring, validate_proper_coloring
    from repro.serve import ServeRequest, ServeResponse, decode_line, encode_line
    from repro.sim import LinialBatchStepper, make_batch_instance

    out = []
    for request in requests:
        rid = request.request_id
        with tracer.span("request", rid):
            with tracer.span("protocol.encode", rid):
                line = encode_line({"op": "color", "request": request.to_dict()})
            with tracer.span("protocol.decode", rid):
                parsed = ServeRequest.from_dict(decode_line(line)["request"])
            with tracer.span("recipe.build", rid):
                graph = parsed.build_graph()
                instance = make_batch_instance(
                    graph,
                    initial_colors=parsed.initial_colors,
                    defect=parsed.defect,
                )
            with tracer.span("stepper.run", rid):
                stepper = LinialBatchStepper()
                stepper.admit(instance)
                steps = 0
                while not stepper.drained:
                    stepper.step()
                    steps += 1
                result, metrics, palette = instance.outcome()
            with tracer.span("validate", rid):
                report = (
                    validate_proper_coloring(graph, result)
                    if parsed.defect == 0
                    else validate_defective_coloring(graph, result, parsed.defect)
                )
            with tracer.span("protocol.encode", rid):
                reply = encode_line(
                    ServeResponse(
                        status="ok",
                        request_id=rid,
                        colors={str(v): int(c) for v, c in result.assignment.items()},
                        palette=int(palette),
                        rounds=int(metrics.rounds),
                        total_bits=int(metrics.total_bits),
                        valid=bool(report.ok),
                    ).to_dict()
                )
            with tracer.span("protocol.decode", rid):
                ServeResponse.from_dict(decode_line(reply))
        out.append({
            "request_id": rid,
            "heavy": is_heavy(request),
            "key": recipe_key(request),
            "valid": bool(report.ok),
            "steps": steps,
            "nodes": graph.number_of_nodes(),
            "response_bytes": len(reply),
        })
    return out


def replay_metrics(requests, tracer: H.Tracer) -> tuple[dict[str, float], float]:
    """Per-stage medians (per request) from a replay, plus the share of
    recipe-build time spent rebuilding recipes seen before, and the
    replay's wall time (the metrics are empty when ``tracer`` is off)."""
    t0 = time.perf_counter()
    rows = replay(requests, tracer)
    wall = time.perf_counter() - t0
    if not tracer.enabled:
        return {}, wall
    per: dict[str, dict[str, float]] = {}
    for s, own in zip(tracer.spans, H.self_times(tracer.spans)):
        if s.name != "request":
            stage = per.setdefault(s.request_id, {})
            stage[s.name] = stage.get(s.name, 0.0) + own
    stages = [per[r["request_id"]] for r in rows]
    seen: set[str] = set()
    repeat = total = 0.0
    for row, stage in zip(rows, stages):
        total += stage["recipe.build"]
        if row["key"] in seen:
            repeat += stage["recipe.build"]
        seen.add(row["key"])
    small = [st["recipe.build"] for r, st in zip(rows, stages) if not r["heavy"]]
    heavy = [st["recipe.build"] for r, st in zip(rows, stages) if r["heavy"]]
    steps = sum(r["steps"] for r in rows)
    step_s = sum(st["stepper.run"] for st in stages)
    metrics = {
        "recipe.build_small_ms": H.median(small) * 1000.0,
        "recipe.build_heavy_ms": H.median(heavy) * 1000.0,
        "recipe.repeat_share": repeat / total if total else 0.0,
        "protocol.decode_ms": H.median([st["protocol.decode"] for st in stages]) * 1000.0,
        "protocol.encode_ms": H.median([st["protocol.encode"] for st in stages]) * 1000.0,
        "protocol.response_bytes": H.median([r["response_bytes"] for r in rows]),
        "validate.busy_s": H.median([st["validate"] for st in stages]),
        "validate.invalid": sum(1 for r in rows if not r["valid"]),
        "kernel.rounds": steps / len(rows),
        "kernel.round_ms": step_s / steps * 1000.0 if steps else 0.0,
        "kernel.node_rounds_per_s": (
            sum(r["steps"] * r["nodes"] for r in rows) / step_s if step_s else 0.0
        ),
    }
    return metrics, wall
