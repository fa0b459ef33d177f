"""The serving stack: stepper equivalence, scheduler discipline, daemon.

Three layers, tested bottom-up:

* :class:`~repro.sim.batch.LinialBatchStepper` — the round-stepped
  driver must produce per-instance triples bit-identical to
  :func:`~repro.sim.vectorized.linial_vectorized` under *any* batch
  composition: static drain, staggered admission, fault plans on their
  local round clocks, and crash-stop halts that leave siblings intact;
* :class:`~repro.serve.ContinuousBatcher` — the scheduling discipline:
  FIFO admission, eviction the round an instance finishes, freed slots
  refilled from the queue between rounds, crash-halted requests
  resolved as ``halted`` without disturbing batch-mates;
* :class:`~repro.serve.ColoringServer` — end to end over a real TCP
  socket: heavy concurrent traffic serves valid colorings bit-identical
  to the offline batched engine, stats/ping/shutdown work, malformed
  requests answer as errors without killing the daemon.

Everything async runs under ``asyncio.run`` inside ordinary sync tests
(no pytest-asyncio in the environment).
"""

import asyncio

import pytest

from repro.graphs import ring
from repro.obs import LatencyTracker, OccupancyTracker, quantile
from repro.serve import (
    ColoringServer,
    ContinuousBatcher,
    ServeClient,
    ServeConfig,
    ServeRequest,
    ServeResponse,
    fire_traffic,
    synth_requests,
)
from repro.sim import (
    CapabilityError,
    HaltingError,
    LinialBatchStepper,
    linial_vectorized,
    make_batch_instance,
)
from repro.faults import FaultPlan

#: Spread initial colors (node i -> 64*i): forces a non-empty Linial
#: schedule on small graphs, so instances actually occupy rounds.
def spread(g):
    return {v: 64 * i for i, v in enumerate(sorted(g.nodes))}


CRASH = FaultPlan(seed=5, p_crash=1.0, recovery_rounds=None, crash_horizon=1)
DROPPY = FaultPlan(seed=9, p_drop=0.3)


def triple_eq(a, b):
    res_a, met_a, pal_a = a
    res_b, met_b, pal_b = b
    assert res_a.assignment == res_b.assignment
    assert met_a.summary() == met_b.summary()
    assert pal_a == pal_b


# ----------------------------------------------------------------------
# layer 1: the round-stepped driver
# ----------------------------------------------------------------------
class TestStepperEquivalence:
    def graphs(self):
        return [ring(n) for n in (8, 12, 16, 20)]

    def test_static_drain_matches_single_instance(self):
        gs = self.graphs()
        singles = [linial_vectorized(g, initial_colors=spread(g)) for g in gs]
        stepper = LinialBatchStepper(
            [make_batch_instance(g, initial_colors=spread(g)) for g in gs]
        )
        done = stepper.run_to_completion()
        assert len(done) == len(gs)
        by_uid = sorted(done, key=lambda i: i.uid)
        for inst, single in zip(by_uid, singles):
            triple_eq(inst.outcome(), single)

    def test_staggered_admission_is_bit_identical(self):
        # admit one instance every round into a half-drained batch: the
        # composition any instance sees changes every round, the result
        # must not
        gs = self.graphs()
        singles = [linial_vectorized(g, initial_colors=spread(g)) for g in gs]
        stepper = LinialBatchStepper()
        pending = [make_batch_instance(g, initial_colors=spread(g)) for g in gs]
        done = []
        while pending or not stepper.drained:
            if pending:
                stepper.admit(pending.pop(0))
            done.extend(stepper.step().finished)
        for inst, single in zip(sorted(done, key=lambda i: i.uid), singles):
            triple_eq(inst.outcome(), single)

    def test_faulty_instance_uses_local_round_clock(self):
        # a faulty instance admitted at global round 3 must replay the
        # same adversary its standalone run sees at round 0
        g = ring(12)
        single = linial_vectorized(g, initial_colors=spread(g), faults=DROPPY)
        stepper = LinialBatchStepper(
            [make_batch_instance(h, initial_colors=spread(h)) for h in self.graphs()]
        )
        for _ in range(3):
            stepper.step()
        late = stepper.admit(
            make_batch_instance(g, initial_colors=spread(g), faults=DROPPY)
        )
        while not late.finished:
            stepper.step()
        stepper.run_to_completion()
        triple_eq(late.outcome(), single)

    def test_crash_halts_instance_but_not_siblings(self):
        g = ring(12)
        with pytest.raises(HaltingError) as solo:
            linial_vectorized(g, initial_colors=spread(g), faults=CRASH)
        siblings = [
            make_batch_instance(h, initial_colors=spread(h))
            for h in self.graphs()
        ]
        doomed = make_batch_instance(g, initial_colors=spread(g), faults=CRASH)
        stepper = LinialBatchStepper(siblings + [doomed])
        done = stepper.run_to_completion()
        assert doomed in done
        # the halt is the same error the standalone run raises...
        assert isinstance(doomed.outcome(), HaltingError)
        assert str(doomed.outcome()) == str(solo.value)
        # ...and every sibling still finished with its standalone triple
        for sib, g_s in zip(siblings, self.graphs()):
            triple_eq(
                sib.outcome(), linial_vectorized(g_s, initial_colors=spread(g_s))
            )

    def test_empty_schedule_seals_at_admit(self):
        # identity colors on a small ring: m0 = n makes the schedule
        # empty, the instance must finish without occupying a slot
        stepper = LinialBatchStepper()
        inst = stepper.admit(make_batch_instance(ring(8)))
        assert stepper.occupancy == 0
        report = stepper.step()
        assert inst in report.finished
        triple_eq(inst.outcome(), linial_vectorized(ring(8)))

    def test_admitting_finished_instance_rejected(self):
        stepper = LinialBatchStepper()
        inst = stepper.admit(make_batch_instance(ring(8)))
        stepper.step()
        with pytest.raises(ValueError, match="already-finished"):
            stepper.admit(inst)

    def test_fuzz_cases_under_a_drawn_schedule_match_the_reference(
        self, monkeypatch
    ):
        # the pinned linial corpus plus fuzz cases (plain and faulty),
        # admitted a few per round on a seeded schedule, one evicted
        # mid-run, with tiles small enough that a (q, deg) group spans
        # several of them: every instance must reproduce the reference
        # engine's triple and per-round rows, fault columns included
        import random
        from pathlib import Path

        import repro.sim.batch as batch_mod
        from repro.algorithms.linial import run_linial
        from repro.fuzz import FuzzCase, generate_case, load_case
        from repro.obs import (
            ENGINE_REFERENCE,
            ENGINE_VECTORIZED,
            RunRecorder,
            compare_round_accounting,
        )

        seed = 25
        corpus = sorted((Path(__file__).parent / "corpus").glob("linial-*.json"))
        cases = [load_case(p) for p in corpus]
        assert len(cases) == 3 and any(c.fault is not None for c in cases)
        cases += [generate_case(f"{seed}:{i}", pair="linial") for i in range(30)]
        assert any(c.fault is not None for c in cases[3:])
        assert any(c.fault is None for c in cases[3:])
        # most small fault-free fuzz cases run an empty schedule; rings of
        # mixed sizes on one schedule (distinct colors, one shared maximum)
        # fill the packed tiles
        rings = []
        for n in (3, 4, 5, 6, 7, 8, 3, 5):
            g = ring(n)
            colors = {v: 64 * i for i, v in enumerate(sorted(g.nodes))}
            colors[n - 1] = 449
            rings.append(
                FuzzCase(
                    pair="linial",
                    nodes=list(g.nodes),
                    edges=list(g.edges),
                    initial_colors=colors,
                )
            )
        cases[3:3] = rings

        spans = []
        real_tiles = batch_mod._node_tiles

        def small_tiles(js, node_counts):
            tiles = real_tiles(js, node_counts, cap=16)
            spans.append((len(js), len(tiles)))
            return tiles

        monkeypatch.setattr(batch_mod, "_node_tiles", small_tiles)

        def plan(case):
            return None if case.fault is None else FaultPlan.from_dict(case.fault)

        pending = []
        for case in cases:
            rec = RunRecorder(engine=ENGINE_VECTORIZED)
            inst = make_batch_instance(
                case.graph(),
                initial_colors=case.initial_colors,
                defect=case.defect,
                faults=plan(case),
                recorder=rec,
            )
            pending.append((case, inst, rec))

        rng = random.Random(seed)
        stepper = LinialBatchStepper()
        evicted = None
        waiting = list(pending)
        while waiting or not stepper.drained:
            for _ in range(rng.randint(0, 5)):
                if waiting:
                    stepper.admit(waiting.pop(0)[1])
            started = [i for i in stepper.live if i.rounds_resident]
            if evicted is None and started:
                evicted = started[0]
                assert stepper.evict(evicted)
            stepper.step()
        assert evicted is not None and not evicted.finished
        assert any(m > t >= 2 for m, t in spans), spans

        checked = 0
        for case, inst, rec in pending:
            if inst is evicted:
                continue
            ref_rec = RunRecorder(engine=ENGINE_REFERENCE)
            try:
                ref = run_linial(
                    case.graph(),
                    initial_colors=case.initial_colors,
                    defect=case.defect,
                    recorder=ref_rec,
                    faults=plan(case),
                )
            except HaltingError as exc:
                assert isinstance(inst.outcome(), HaltingError)
                assert str(inst.outcome()) == str(exc)
            else:
                triple_eq(inst.outcome(), ref)
            acc = compare_round_accounting(ref_rec.record, rec.record)
            assert acc["rounds_equal"] and acc["accounting_equal"], case.describe()
            assert acc["faults_equal"] and acc["totals_equal"], case.describe()
            checked += 1
        assert checked == len(cases) - 1


# ----------------------------------------------------------------------
# layer 2: the continuous-batching scheduler
# ----------------------------------------------------------------------
def request_for(n: int, *, rid: str, faults=None) -> ServeRequest:
    return ServeRequest(
        family="ring",
        family_params={"n": n},
        initial_colors={v: 64 * v for v in range(n)},
        faults=faults,
        request_id=rid,
    )


class TestContinuousBatcher:
    def test_rejects_non_serve_backend(self):
        with pytest.raises(CapabilityError, match="supports_serve"):
            ContinuousBatcher(ServeConfig(backend="reference"))

    def test_fifo_admission_order(self):
        async def scenario():
            batcher = ContinuousBatcher(ServeConfig(max_batch=2))
            futures = [
                batcher.submit(request_for(12, rid=f"r{i}")) for i in range(5)
            ]
            admitted = []
            while batcher.has_work:
                before = {t.request.request_id for t in batcher._resident.values()}
                batcher.tick()
                after = {t.request.request_id for t in batcher._resident.values()}
                admitted.extend(sorted(after - before, key=lambda r: int(r[1:])))
            await asyncio.sleep(0)
            assert admitted == [f"r{i}" for i in range(5)]
            assert all(f.done() for f in futures)

        asyncio.run(scenario())

    def test_eviction_refills_slot_from_queue(self):
        async def scenario():
            # max_batch=1: request 2 can only ever run after request 1's
            # eviction freed the single slot
            batcher = ContinuousBatcher(ServeConfig(max_batch=1))
            f1 = batcher.submit(request_for(8, rid="first"))
            f2 = batcher.submit(request_for(8, rid="second"))
            occupancies = []
            while batcher.has_work:
                batcher.tick()
                occupancies.append(batcher.stepper.occupancy)
            await asyncio.sleep(0)
            assert max(occupancies) <= 1
            assert (await f1).status == "ok"
            assert (await f2).status == "ok"
            # the second request entered strictly after the first left
            assert (await f2).batch["admitted_round"] >= (
                (await f1).batch["admitted_round"]
                + (await f1).batch["rounds_resident"]
            )

        asyncio.run(scenario())

    def test_crash_request_halts_while_siblings_complete(self):
        async def scenario():
            batcher = ContinuousBatcher(ServeConfig(max_batch=8))
            doomed = batcher.submit(
                request_for(12, rid="doomed", faults=CRASH.to_dict())
            )
            healthy = [
                batcher.submit(request_for(10 + 2 * i, rid=f"ok{i}"))
                for i in range(4)
            ]
            while batcher.has_work:
                batcher.tick()
            await asyncio.sleep(0)
            crashed = await doomed
            assert crashed.status == "halted"
            assert crashed.error["type"] == "HaltingError"
            for f in healthy:
                response = await f
                assert response.status == "ok"
                assert response.valid is True
            assert batcher.halted == 1
            assert batcher.served == len(healthy)

        asyncio.run(scenario())

    def test_malformed_request_fails_fast_without_queueing(self):
        async def scenario():
            batcher = ContinuousBatcher(ServeConfig(max_batch=4))
            future = batcher.submit(
                ServeRequest(family="no_such_family", family_params={})
            )
            assert future.done()
            assert batcher.queue_depth == 0
            response = await future
            assert response.status == "error"
            assert "no_such_family" in response.error["message"]

        asyncio.run(scenario())

    def test_stats_track_occupancy_and_latency(self):
        async def scenario():
            batcher = ContinuousBatcher(ServeConfig(max_batch=4))
            futures = [
                batcher.submit(request_for(12, rid=f"s{i}")) for i in range(6)
            ]
            while batcher.has_work:
                batcher.tick()
            await asyncio.gather(*futures)
            stats = batcher.stats()
            assert stats["backend"] == "batched"
            assert stats["served"] == 6
            assert stats["occupancy_stats"]["max_occupancy"] <= 4
            assert stats["latency"]["total"]["count"] == 6
            assert stats["latency"]["total"]["p50_ms"] >= 0

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# layer 3: the daemon over TCP
# ----------------------------------------------------------------------
class TestColoringServer:
    def test_burst_serves_valid_and_bit_identical(self):
        from repro.sim import linial_vectorized_batch

        requests = synth_requests(seed=3, count=24)

        async def scenario():
            server = ColoringServer(ServeConfig(max_batch=8))
            await server.start()
            try:
                return await fire_traffic(
                    "127.0.0.1", server.port, requests, clients=12
                )
            finally:
                await server.stop()

        report = asyncio.run(scenario())
        assert report.status_counts() == {"ok": len(requests)}
        assert all(r.valid is True for r in report.responses)
        offline = linial_vectorized_batch(
            [r.build_graph() for r in requests],
            initial_colors=[r.initial_colors for r in requests],
        )
        for request, (result, metrics, palette) in zip(requests, offline):
            served = report.response_for(request.request_id)
            assert served.assignment() == result.assignment
            assert served.palette == palette
            assert served.rounds == metrics.rounds
            assert served.total_bits == metrics.total_bits

    def test_protocol_aux_ops_and_bad_lines(self):
        async def scenario():
            server = ColoringServer(ServeConfig(max_batch=4))
            await server.start()
            client = ServeClient("127.0.0.1", server.port)
            try:
                assert await client.ping() is True
                # a malformed op answers as an error, connection survives
                reply = await client.request({"op": "transmogrify"})
                assert reply["status"] == "error"
                response = await client.color(request_for(10, rid="after-error"))
                assert response.status == "ok"
                stats = await client.stats()
                assert stats["served"] == 1
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())

    def test_crash_request_over_tcp_keeps_daemon_serving(self):
        async def scenario():
            server = ColoringServer(ServeConfig(max_batch=4))
            await server.start()
            client = ServeClient("127.0.0.1", server.port)
            try:
                crashed = await client.color(
                    request_for(12, rid="doomed", faults=CRASH.to_dict())
                )
                assert crashed.status == "halted"
                healthy = await client.color(request_for(12, rid="healthy"))
                assert healthy.status == "ok" and healthy.valid is True
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())

    def test_shutdown_op_releases_serve_forever(self):
        async def scenario():
            server = ColoringServer(ServeConfig(max_batch=2))
            await server.start()
            waiter = asyncio.create_task(server.serve_forever())
            client = ServeClient("127.0.0.1", server.port)
            await client.shutdown()
            await asyncio.wait_for(waiter, timeout=5)
            await server.stop()

        asyncio.run(scenario())

    def test_shutdown_closes_other_live_connections(self):
        """A connection still open at shutdown is closed by ``stop()``,
        so its handler exits on EOF instead of being cancelled mid-read
        when the loop tears down (logged as a CancelledError traceback)."""
        errors = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context)
            )
            server = ColoringServer(ServeConfig(max_batch=2))
            await server.start()
            waiter = asyncio.create_task(server.serve_forever())
            idle, closer = (
                ServeClient("127.0.0.1", server.port, timeout=5) for _ in range(2)
            )
            assert await idle.ping() and await closer.ping()
            holder = asyncio.create_task(hold_open(idle))
            await closer.shutdown()
            await asyncio.wait_for(waiter, timeout=5)
            await server.stop()
            return holder

        async def hold_open(client):
            """Keep ``client`` open until the loop tears down (which
            cancels this task alongside any handler still reading)."""
            try:
                await asyncio.Event().wait()
            finally:
                await client.close()

        asyncio.run(scenario())
        assert [c.get("message") for c in errors] == []


# ----------------------------------------------------------------------
# the recipe path: requests freeze straight into CSR form
# ----------------------------------------------------------------------
SYNTH_FAMILIES = {"ring", "path", "random_regular", "gnp", "random_tree", "hypercube"}


class TestRecipeCSR:
    """The daemon turns a recipe into an instance with no networkx graph,
    and serves exactly what the offline engine computes on that graph."""

    def test_build_csr_equals_the_networkx_freeze(self):
        from repro.sim.engine import CSRGraph

        requests = synth_requests(seed=7, count=300)
        assert {r.family for r in requests} == SYNTH_FAMILIES
        for request in requests:
            got = request.build_csr()
            want = CSRGraph.from_networkx(request.build_graph())
            assert (got.n, got.nodes, got.index) == (want.n, want.nodes, want.index)
            for name in ("indptr", "indices", "src"):
                assert (getattr(got, name) == getattr(want, name)).all(), request

    def test_submit_builds_no_networkx_graph(self, monkeypatch):
        from tests.test_sweep import _count_networkx_graphs

        requests = synth_requests(seed=11, count=60, defect_choices=(0, 1, 2))
        assert {r.family for r in requests} == SYNTH_FAMILIES

        async def scenario():
            batcher = ContinuousBatcher(ServeConfig(max_batch=16))
            futures = [batcher.submit(r) for r in requests]
            while batcher.has_work:
                batcher.tick()
            return await asyncio.gather(*futures)

        graphs = _count_networkx_graphs(monkeypatch)
        responses = asyncio.run(scenario())
        assert graphs == []
        assert all(r.status == "ok" and r.valid is True for r in responses)

    def test_served_equals_offline_with_defects_and_a_crash_plan(self):
        from repro.sim import linial_vectorized_batch

        requests = synth_requests(
            seed=4,
            count=48,
            defect_choices=(0, 1, 2),
            fault_plans=(None, CRASH.to_dict()),
        )

        async def scenario():
            server = ColoringServer(ServeConfig(max_batch=8))
            await server.start()
            try:
                report = await fire_traffic(
                    "127.0.0.1", server.port, requests, clients=6
                )
                return report, server.batcher.stats()
            finally:
                await server.stop()

        report, stats = asyncio.run(scenario())
        offline = linial_vectorized_batch(
            [r.build_graph() for r in requests],
            initial_colors=[r.initial_colors for r in requests],
            defect=[r.defect for r in requests],
            faults=[r.fault_plan() for r in requests],
            return_exceptions=True,
        )
        statuses = set()
        for request, want in zip(requests, offline):
            served = report.response_for(request.request_id)
            statuses.add(served.status)
            assert served.timing["recipe_ms"] >= 0
            if isinstance(want, HaltingError):
                assert served.status == "halted"
                assert served.error["message"] == str(want)
                continue
            result, metrics, palette = want
            assert served.status == "ok" and served.valid is True
            assert served.assignment() == result.assignment
            assert served.palette == palette
            assert served.rounds == metrics.rounds
            assert served.total_bits == metrics.total_bits
        assert statuses == {"ok", "halted"}
        assert {r.defect for r in requests} == {0, 1, 2}
        assert stats["latency"]["recipe"]["count"] == len(requests)

    def test_synth_requests_share_one_read_only_coloring_per_size(self):
        from dataclasses import replace

        from repro.serve import encode_line

        requests = synth_requests(seed=2, count=200)
        by_size: dict = {}
        for request in requests:
            colors = request.initial_colors
            assert by_size.setdefault(len(colors), colors) is colors
            with pytest.raises(TypeError):
                colors[0] = 1
            private = replace(request, initial_colors=dict(colors))
            assert private == request
            assert encode_line(private.to_dict()) == encode_line(request.to_dict())


# ----------------------------------------------------------------------
# TrafficReport accounting (regressions for the silent-overwrite /
# inflated-rps / phantom-clients bugs)
# ----------------------------------------------------------------------
class TestTrafficReportAccounting:
    def make_response(self, rid, status="ok"):
        return ServeResponse(status=status, request_id=rid)

    def test_duplicate_request_ids_are_both_kept(self):
        # a daemon answering one id twice used to overwrite the first
        # response in a dict and look indistinguishable from correct
        from repro.serve import TrafficReport

        report = TrafficReport(clients=1, requests=2, wall_seconds=1.0)
        report.responses.extend(
            [self.make_response("dup"), self.make_response("dup", "error")]
        )
        assert report.completed == 2
        assert report.status_counts() == {"ok": 1, "error": 1}
        assert report.by_id() == {"dup": report.responses}
        with pytest.raises(ValueError, match="2 responses"):
            report.response_for("dup")
        with pytest.raises(KeyError):
            report.response_for("never-issued")

    def test_rps_counts_completed_not_issued(self):
        # 10 issued, 4 completed (1 errored): rps must not claim 5/s
        from repro.serve import TrafficReport

        report = TrafficReport(clients=2, requests=10, wall_seconds=2.0)
        report.responses.extend(
            [self.make_response(f"r{i}") for i in range(3)]
            + [self.make_response("r3", "error")]
        )
        assert report.completed == 4
        assert report.completed_ok == 3
        assert report.rps == pytest.approx(2.0)
        assert report.ok_rps == pytest.approx(1.5)

    def test_zero_wall_reports_zero_rates(self):
        from repro.serve import TrafficReport

        report = TrafficReport(clients=0, requests=0, wall_seconds=0.0)
        assert report.rps == 0.0 and report.ok_rps == 0.0

    def test_empty_burst_reports_zero_clients(self):
        # no server needed: an empty request set opens no connections,
        # and the report must say 0 clients, not echo the requested N
        report = asyncio.run(
            fire_traffic("127.0.0.1", 1, [], clients=50)
        )
        assert report.clients == 0
        assert report.requests == 0
        assert report.completed == 0
        assert report.status_counts() == {}

    def test_duplicate_ids_surface_through_fire_traffic(self):
        # end to end: the same request_id issued twice produces two
        # retained responses, and the unique lookup refuses to guess
        requests = [request_for(8, rid="twin"), request_for(8, rid="twin")]

        async def scenario():
            server = ColoringServer(ServeConfig(max_batch=4))
            await server.start()
            try:
                return await fire_traffic(
                    "127.0.0.1", server.port, requests, clients=2
                )
            finally:
                await server.stop()

        report = asyncio.run(scenario())
        assert report.completed == 2
        assert report.status_counts() == {"ok": 2}
        assert len(report.by_id()["twin"]) == 2
        with pytest.raises(ValueError, match="twin"):
            report.response_for("twin")


class TestFreshDaemonStats:
    def test_stats_is_clean_as_first_op(self):
        # a fresh daemon has empty latency/occupancy trackers; their
        # summaries must serialize through JSON and render without
        # KeyErrors before any request has been served
        async def scenario():
            server = ColoringServer(ServeConfig(max_batch=4))
            await server.start()
            client = ServeClient("127.0.0.1", server.port)
            try:
                return await client.stats()
            finally:
                await client.close()
                await server.stop()

        stats = asyncio.run(scenario())
        assert stats["served"] == 0
        assert stats["errors"] == 0
        assert stats["round_index"] == 0
        assert stats["queue_depth"] == 0
        # empty trackers summarize as bare counts — no percentile keys
        for kind in ("queue", "service", "total"):
            assert stats["latency"][kind] == {"count": 0}
        assert stats["occupancy_stats"] == {"rounds": 0}
        # the CLI smoke renderer's access pattern on the fresh tracker
        assert stats["occupancy_stats"].get("max_occupancy", 0) == 0


# ----------------------------------------------------------------------
# protocol + synthetic-traffic plumbing
# ----------------------------------------------------------------------
class TestProtocolRoundTrips:
    def test_request_round_trip(self):
        request = request_for(10, rid="rt", faults=CRASH.to_dict())
        assert ServeRequest.from_dict(request.to_dict()) == request

    def test_request_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown request fields"):
            ServeRequest.from_dict({"family": "ring", "grpah": {}})

    def test_response_round_trip(self):
        response = ServeResponse(
            status="ok",
            request_id="x",
            colors={"0": 1, "1": 0},
            palette=4,
            rounds=2,
            total_bits=96,
            valid=True,
            timing={"total_ms": 1.5},
            batch={"admitted_round": 3, "rounds_resident": 2},
        )
        again = ServeResponse.from_dict(response.to_dict())
        assert again == response
        assert again.assignment() == {0: 1, 1: 0}

    def test_response_rejects_foreign_protocol(self):
        with pytest.raises(ValueError, match="protocol"):
            ServeResponse.from_dict({"protocol": 99, "status": "ok"})

    def test_synth_requests_are_pinned(self):
        a = synth_requests(seed=5, count=10)
        b = synth_requests(seed=5, count=10)
        assert a == b
        assert a != synth_requests(seed=6, count=10)
        # every request builds a real graph whose node set matches its
        # spread initial coloring
        for request in a:
            g = request.build_graph()
            assert set(request.initial_colors) == set(g.nodes)


# ----------------------------------------------------------------------
# the serving observability primitives
# ----------------------------------------------------------------------
class TestServingObs:
    def test_quantile_interpolates(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert quantile(samples, 0.0) == 1.0
        assert quantile(samples, 1.0) == 4.0
        assert quantile(samples, 0.5) == 2.5

    def test_quantile_rejects_bad_input(self):
        with pytest.raises(ValueError, match="empty"):
            quantile([], 0.5)
        with pytest.raises(ValueError, match="fraction"):
            quantile([1.0], 1.5)

    def test_latency_tracker_summary(self):
        tracker = LatencyTracker()
        for s in (0.010, 0.020, 0.030):
            tracker.add(s)
        summary = tracker.summary()
        assert summary["count"] == 3
        assert summary["p50_ms"] == pytest.approx(20.0)
        assert summary["max_ms"] == pytest.approx(30.0)
        assert LatencyTracker().summary() == {"count": 0}

    def test_occupancy_tracker_summary(self):
        tracker = OccupancyTracker()
        tracker.on_round(queue_depth=3, occupancy=2)
        tracker.on_round(queue_depth=1, occupancy=4)
        summary = tracker.summary()
        assert summary["rounds"] == 2
        assert summary["max_queue_depth"] == 3
        assert summary["mean_occupancy"] == pytest.approx(3.0)
        assert OccupancyTracker().summary() == {"rounds": 0}
