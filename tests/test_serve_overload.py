"""Overload hardening: admission control, deadlines, retries, degradation.

The graceful-degradation contract from :mod:`repro.serve`, tested at
every layer it touches:

* protocol — the ``rejected``/``timeout`` statuses, ``deadline_ms`` and
  ``retry_after_ms`` fields survive the wire round trip;
* scheduler — a bounded queue sheds per policy in O(1) *without*
  building the shed request's graph, deadlines resolve as ``timeout``
  at the queue, at admission, and mid-run (with the resident evicted),
  admitted siblings stay bit-identical to the offline engine, a dead
  scheduler loop fails every pending future with a structured error,
  and :meth:`~repro.serve.ContinuousBatcher.drain` never strands an
  awaiter;
* client — per-op wall-clock timeouts, seeded-deterministic
  exponential backoff honoring the server's ``retry_after_ms`` hint,
  and a traffic generator that survives mid-burst connection loss;
* daemon — oversized protocol lines answer with an error naming the
  limit instead of silently killing the connection.

Everything async runs under ``asyncio.run`` inside ordinary sync tests
(no pytest-asyncio in the environment).
"""

import asyncio

import pytest

from repro.serve import (
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    ColoringServer,
    ContinuousBatcher,
    RetryPolicy,
    ServeClient,
    ServeConfig,
    ServeRequest,
    ServeResponse,
    decode_line,
    encode_line,
    fire_traffic,
    rejected_response,
    synth_requests,
    timeout_response,
)
from repro.sim import linial_vectorized


def request_for(n: int, *, rid: str, deadline_ms=None) -> ServeRequest:
    return ServeRequest(
        family="ring",
        family_params={"n": n},
        initial_colors={v: 64 * v for v in range(n)},
        request_id=rid,
        deadline_ms=deadline_ms,
    )


async def drain_batcher(batcher: ContinuousBatcher) -> None:
    """Tick until idle, then let resolved futures' callbacks run."""
    while batcher.has_work:
        batcher.tick()
    await asyncio.sleep(0)


# ----------------------------------------------------------------------
# protocol: the overload vocabulary survives the wire
# ----------------------------------------------------------------------
class TestOverloadProtocol:
    def test_rejected_response_round_trip(self):
        resp = rejected_response("r1", retry_after_ms=12.5, reason="full")
        back = ServeResponse.from_dict(decode_line(encode_line(resp.to_dict())))
        assert back.status == STATUS_REJECTED
        assert back.request_id == "r1"
        assert back.retry_after_ms == 12.5
        assert back.error["type"] == "Rejected"
        assert "full" in back.error["message"]

    def test_timeout_response_round_trip(self):
        resp = timeout_response(
            "r2", deadline_ms=40.0, where="running",
            timing={"queue_ms": 1.0}, batch={"admitted_round": 3},
        )
        back = ServeResponse.from_dict(decode_line(encode_line(resp.to_dict())))
        assert back.status == STATUS_TIMEOUT
        assert back.error["type"] == "DeadlineExceeded"
        assert "running" in back.error["message"]
        assert back.timing == {"queue_ms": 1.0}
        assert back.batch == {"admitted_round": 3}

    def test_request_deadline_round_trip(self):
        req = request_for(8, rid="d", deadline_ms=250.0)
        back = ServeRequest.from_dict(decode_line(encode_line(req.to_dict())))
        assert back.deadline_ms == 250.0
        assert back == req

    def test_request_rejects_non_positive_deadline(self):
        with pytest.raises(ValueError, match="deadline_ms"):
            request_for(8, rid="bad", deadline_ms=0.0)


# ----------------------------------------------------------------------
# scheduler: bounded admission and shed policies
# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_full_queue_sheds_newest_and_admitted_stay_bit_identical(self):
        async def scenario():
            batcher = ContinuousBatcher(
                ServeConfig(max_batch=1, max_queue=1)
            )
            futures = [batcher.submit(request_for(8, rid="r0"))]
            batcher.tick()  # r0 leaves the queue for the batch slot
            futures.append(batcher.submit(request_for(12, rid="r1")))
            futures += [
                batcher.submit(request_for(8 + 4 * i, rid=f"r{i}"))
                for i in range(2, 5)
            ]
            # r0 runs, r1 holds the single queue slot: r2-r4 shed
            # immediately (tail drop), before any graph work
            await asyncio.sleep(0)
            for f in futures[2:]:
                resp = f.result()
                assert resp.status == STATUS_REJECTED
                assert resp.retry_after_ms >= batcher.config.retry_after_floor_ms
            assert not futures[1].done()
            await drain_batcher(batcher)
            for i in (0, 1):
                resp = futures[i].result()
                assert resp.status == "ok"
                req = request_for(8 + 4 * i, rid=f"r{i}")
                result, metrics, palette = linial_vectorized(
                    req.build_graph(), initial_colors=req.initial_colors
                )
                assert resp.assignment() == result.assignment
                assert resp.palette == palette
                assert resp.rounds == metrics.rounds
            assert batcher.rejected == 3
            assert batcher.stats()["outcomes"]["counts"][STATUS_REJECTED] == 3

        asyncio.run(scenario())

    def test_shed_policy_oldest_drops_queue_head(self):
        async def scenario():
            batcher = ContinuousBatcher(
                ServeConfig(max_batch=1, max_queue=1, shed_policy="oldest")
            )
            futures = [
                batcher.submit(request_for(8, rid=f"r{i}")) for i in range(3)
            ]
            await asyncio.sleep(0)
            # drop-head, no tick yet: each arrival on the full one-slot
            # queue evicts the queue head — r1 bumps r0, r2 bumps r1 —
            # so under sustained overload "oldest" keeps the freshest
            for f in futures[:2]:
                resp = f.result()
                assert resp.status == STATUS_REJECTED
                assert "oldest" in resp.error["message"]
            assert not futures[2].done()
            await drain_batcher(batcher)
            assert futures[2].result().status == "ok"
            assert batcher.rejected == 2

        asyncio.run(scenario())

    def test_shed_path_never_builds_the_graph(self):
        async def scenario():
            batcher = ContinuousBatcher(
                ServeConfig(max_batch=1, max_queue=1)
            )
            batcher.submit(request_for(8, rid="a"))
            batcher.submit(request_for(8, rid="b"))
            # malformed family: would raise at materialization — but a
            # full queue must turn it away un-inspected, as rejected
            bogus = ServeRequest(family="no-such-family", request_id="c")
            resp = (await asyncio.gather(batcher.submit(bogus)))[0]
            assert resp.status == STATUS_REJECTED
            assert batcher.errors == 0
            await drain_batcher(batcher)

        asyncio.run(scenario())

    def test_draining_batcher_rejects_new_work(self):
        async def scenario():
            batcher = ContinuousBatcher(ServeConfig(max_batch=2))
            task = asyncio.create_task(batcher.run())
            first = await batcher.submit(request_for(8, rid="before"))
            assert first.status == "ok"
            report = await batcher.drain(0.5)
            resp = await batcher.submit(request_for(8, rid="after"))
            assert resp.status == STATUS_REJECTED
            assert "draining" in resp.error["message"]
            assert report == {"pending_at_drain": 0, "abandoned": 0}
            batcher.stop()
            await task

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# scheduler: deadlines at the queue, at admission, and mid-run
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_expired_in_queue_resolves_timeout(self):
        async def scenario():
            batcher = ContinuousBatcher(ServeConfig(max_batch=1))
            slow = batcher.submit(request_for(16, rid="slow"))
            doomed = batcher.submit(
                request_for(16, rid="doomed", deadline_ms=100.0)
            )
            # force the deterministic path: expire the queued ticket
            # directly instead of sleeping the wall clock
            queued = next(
                t for t in batcher._queue
                if t.request.request_id == "doomed"
            )
            queued.deadline = 0.0
            await drain_batcher(batcher)
            assert slow.result().status == "ok"
            resp = doomed.result()
            assert resp.status == STATUS_TIMEOUT
            assert resp.error["type"] == "DeadlineExceeded"
            assert "admission" in resp.error["message"] or "queue" in (
                resp.error["message"]
            )
            assert batcher.timed_out == 1

        asyncio.run(scenario())

    def test_expired_mid_run_evicts_resident(self):
        async def scenario():
            batcher = ContinuousBatcher(ServeConfig(max_batch=2))
            doomed = batcher.submit(
                request_for(24, rid="doomed", deadline_ms=60_000.0)
            )
            sibling = batcher.submit(request_for(24, rid="sibling"))
            batcher.tick()  # both admitted, neither finished yet
            assert len(batcher._resident) == 2
            ticket = next(
                t for t in batcher._resident.values()
                if t.request.request_id == "doomed"
            )
            # expire it and run the between-rounds sweep directly: every
            # ring needs exactly two rounds, so another full tick would
            # finish the instance first (finish beats a same-round
            # deadline by design — asserted separately below)
            ticket.deadline = 0.0
            batcher._evict_expired_residents()
            await asyncio.sleep(0)
            resp = doomed.result()
            assert resp.status == STATUS_TIMEOUT
            assert "running" in resp.error["message"]
            assert resp.batch == {"admitted_round": 0}
            # the doomed instance left the stepper, not just the books
            assert batcher.stepper.occupancy == 1
            await drain_batcher(batcher)
            # eviction must not perturb the surviving sibling
            sib = sibling.result()
            assert sib.status == "ok"
            req = request_for(24, rid="sibling")
            result, _, palette = linial_vectorized(
                req.build_graph(), initial_colors=req.initial_colors
            )
            assert sib.assignment() == result.assignment
            assert sib.palette == palette

        asyncio.run(scenario())

    def test_finish_beats_same_round_deadline(self):
        async def scenario():
            batcher = ContinuousBatcher(ServeConfig(max_batch=1))
            future = batcher.submit(
                request_for(8, rid="close-call", deadline_ms=60_000.0)
            )
            await drain_batcher(batcher)
            assert future.result().status == "ok"
            assert batcher.timed_out == 0

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# scheduler: the no-hanging-awaiters contract
# ----------------------------------------------------------------------
class TestGracefulDegradation:
    def test_scheduler_crash_fails_pending_futures(self):
        async def scenario():
            batcher = ContinuousBatcher(ServeConfig(max_batch=1))
            batcher.tick = lambda: (_ for _ in ()).throw(
                RuntimeError("kernel exploded")
            )
            task = asyncio.create_task(batcher.run())
            resp = await batcher.submit(request_for(8, rid="victim"))
            assert resp.status == "error"
            assert resp.error["type"] == "SchedulerCrashed"
            assert "kernel exploded" in resp.error["message"]
            with pytest.raises(RuntimeError, match="kernel exploded"):
                await task
            # the crash is sticky: later submissions fail fast
            late = await batcher.submit(request_for(8, rid="late"))
            assert late.status == "error"
            assert late.error["type"] == "SchedulerCrashed"
            assert batcher.stats()["crashed"] == "RuntimeError"

        asyncio.run(scenario())

    def test_drain_timeout_fails_leftover_work(self):
        async def scenario():
            batcher = ContinuousBatcher(ServeConfig(max_batch=1))
            # no run() loop: queued work can never finish, so the drain
            # deadline must fire and fail it with a structured error
            future = batcher.submit(request_for(8, rid="stuck"))
            report = await batcher.drain(0.05)
            assert report == {"pending_at_drain": 1, "abandoned": 1}
            resp = future.result()
            assert resp.status == "error"
            assert resp.error["type"] == "DrainTimeout"
            assert not batcher.has_work

        asyncio.run(scenario())

    def test_daemon_stop_reaps_crashed_scheduler(self):
        async def scenario():
            server = ColoringServer(ServeConfig(max_batch=1))
            await server.start()
            server.batcher.tick = lambda: (_ for _ in ()).throw(
                ValueError("chaos")
            )
            client = ServeClient("127.0.0.1", server.port, timeout=10.0)
            resp = await client.color(request_for(8, rid="r"))
            assert resp.status == "error"
            assert resp.error["type"] == "SchedulerCrashed"
            await client.close()
            await asyncio.wait_for(server.stop(), timeout=10.0)
            assert isinstance(server.scheduler_error, ValueError)

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# client: timeouts, seeded backoff, surviving a mid-burst disconnect
# ----------------------------------------------------------------------
class TestClientResilience:
    def test_retry_policy_is_seed_deterministic(self):
        policy = RetryPolicy(attempts=5, seed=7)
        a = [policy.delay_ms(i, policy.rng()) for i in range(4)]
        b = [policy.delay_ms(i, RetryPolicy(attempts=5, seed=7).rng())
             for i in range(4)]
        assert a == b
        assert [
            policy.delay_ms(i, RetryPolicy(attempts=5, seed=8).rng())
            for i in range(4)
        ] != a

    def test_retry_delay_honors_server_hint(self):
        policy = RetryPolicy(attempts=3, base_ms=1.0, jitter=0.0, seed=0)
        rng = policy.rng()
        assert policy.delay_ms(0, rng, retry_after_ms=500.0) >= 500.0
        assert policy.delay_ms(0, rng) == 1.0

    def test_client_timeout_on_mute_daemon(self):
        async def scenario():
            async def mute(reader, writer):
                try:
                    await reader.readline()
                    await asyncio.sleep(3600)
                except asyncio.CancelledError:
                    pass
                finally:
                    writer.close()

            server = await asyncio.start_server(mute, host="127.0.0.1", port=0)
            port = server.sockets[0].getsockname()[1]
            client = ServeClient("127.0.0.1", port, timeout=0.2)
            with pytest.raises(asyncio.TimeoutError):
                await client.color(request_for(8, rid="hang"))
            await client.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_retrying_clients_recover_from_shed(self):
        async def scenario():
            server = ColoringServer(ServeConfig(max_batch=1, max_queue=1))
            await server.start()
            requests = synth_requests(3, 12)
            report = await fire_traffic(
                "127.0.0.1",
                server.port,
                requests,
                clients=6,
                timeout=30.0,
                retry_policy=RetryPolicy(
                    attempts=40, base_ms=5.0, max_ms=50.0, seed=1
                ),
            )
            await server.stop()
            assert report.status_counts() == {"ok": len(requests)}
            assert report.retries > 0
            # ... and the daemon's books saw the shedding happen
            assert server.batcher.rejected > 0

        asyncio.run(scenario())

    def test_fire_traffic_survives_mid_burst_disconnect(self):
        async def scenario():
            victim_rid = None

            async def flaky(reader, writer):
                nonlocal victim_rid
                try:
                    while True:
                        line = await reader.readline()
                        if not line:
                            break
                        payload = decode_line(line)
                        rid = (payload.get("request") or {}).get("request_id")
                        if rid == victim_rid:
                            # hard drop, mid-burst, reply never sent
                            writer.close()
                            return
                        writer.write(
                            encode_line(
                                ServeResponse(
                                    status="ok", request_id=rid, valid=True
                                ).to_dict()
                            )
                        )
                        await writer.drain()
                except ConnectionResetError:
                    pass
                finally:
                    writer.close()

            server = await asyncio.start_server(
                flaky, host="127.0.0.1", port=0
            )
            port = server.sockets[0].getsockname()[1]
            requests = [request_for(8, rid=f"r{i}") for i in range(12)]
            # round-robin deal: client 1 serves r1, r5, r9 — dropping on
            # r5 kills that client mid-slice, after one success
            victim_rid = "r5"
            report = await fire_traffic(
                "127.0.0.1", port, requests, clients=4, timeout=5.0
            )
            server.close()
            await server.wait_closed()
            assert report.failed_clients == 1
            (err,) = report.errors
            assert err["client"] == 1
            assert err["completed"] == 1  # r1 landed before the drop
            assert err["type"] in (
                "IncompleteReadError", "ConnectionResetError",
                "ConnectionError", "BrokenPipeError",
            )
            # the three surviving clients finished every request
            survivors = {"r0", "r4", "r8", "r2", "r6", "r10", "r3", "r7",
                         "r11", "r1"}
            got = {r.request_id for r in report.responses}
            assert got == survivors
            assert len(report.latencies) == len(report.responses)

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# daemon: oversized lines answer, then close deliberately
# ----------------------------------------------------------------------
class TestOversizedLines:
    def test_oversized_line_gets_error_naming_limit(self):
        async def scenario():
            server = ColoringServer(
                ServeConfig(max_batch=2), max_line_bytes=1024
            )
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b'{"op": "color", "pad": "' + b"x" * 4096 + b'"}\n')
            await writer.drain()
            reply = ServeResponse.from_dict(
                decode_line(await asyncio.wait_for(reader.readline(), 10))
            )
            assert reply.status == "error"
            assert "1024" in reply.error["message"]
            # the daemon closed the unrecoverable connection...
            assert await asyncio.wait_for(reader.read(), 10) == b""
            writer.close()
            # ... but kept itself alive for everyone else
            client = ServeClient("127.0.0.1", server.port, timeout=10.0)
            resp = await client.color(request_for(8, rid="after"))
            assert resp.status == "ok"
            await client.close()
            await server.stop()

        asyncio.run(scenario())

    def test_oversized_reply_becomes_error_naming_limit(self):
        async def scenario():
            server = ColoringServer(
                ServeConfig(max_batch=2), max_line_bytes=1024
            )
            await server.start()
            # a client reading under the same 1024-byte protocol limit
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port, limit=1024
            )
            try:
                # a small recipe (identity colors) with a large coloring
                big = ServeRequest(
                    family="ring", family_params={"n": 400}, request_id="big"
                )
                for request in (big, request_for(8, rid="small")):
                    writer.write(
                        encode_line({"op": "color", "request": request.to_dict()})
                    )
                    await writer.drain()
                big = ServeResponse.from_dict(
                    decode_line(await asyncio.wait_for(reader.readline(), 10))
                )
                # framing survived: the next reply on the connection is read
                small = ServeResponse.from_dict(
                    decode_line(await asyncio.wait_for(reader.readline(), 10))
                )
            finally:
                writer.close()
                await server.stop()
            return big, small

        big, small = asyncio.run(scenario())
        assert big.status == "error"
        assert big.request_id == "big"
        assert "1024" in big.error["message"]
        assert small.status == "ok" and small.request_id == "small"
