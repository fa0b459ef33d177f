"""Continuous-batching scheduler: FIFO admission, per-round eviction.

This is the serving half of the tentpole: the transport
(:mod:`repro.serve.daemon`) turns socket lines into
:class:`~repro.serve.protocol.ServeRequest` objects and awaits futures;
*this* module owns the round loop.  A :class:`ContinuousBatcher` keeps a
FIFO queue of submitted requests and a
:class:`~repro.sim.batch.LinialBatchStepper`; each :meth:`tick` admits
queued requests into free batch slots, steps one synchronous round over
the packed membership, and resolves the futures of every instance that
finished that round — so slots free the moment an instance completes
(eviction via the per-instance termination masks) and refill from the
queue before the next round, never waiting for batch-mates to drain.

Correctness is inherited, not re-argued: the stepper guarantees each
instance's outcome is bit-identical to its standalone
:func:`~repro.sim.vectorized.linial_vectorized` run under *any*
admission/eviction interleaving, so the scheduler is free to pack purely
for throughput.  A request whose crash-stop
:class:`~repro.faults.FaultPlan` exhausts its round budget resolves as
``status="halted"`` and is evicted like any other finish — its batch
siblings keep serving, which ``tests/test_serve.py`` pins explicitly.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..core.validate import validate_defective_csr
from ..obs import LatencyTracker, OccupancyTracker, OutcomeTracker, RunRecorder
from ..obs.latency import quantile
from ..sim import HaltingError, LinialBatchStepper, make_batch_instance, require
from ..sim.batch import BatchInstance
from .protocol import (
    STATUS_ERROR,
    STATUS_HALTED,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    ServeRequest,
    ServeResponse,
    error_response,
    rejected_response,
    timeout_response,
)

#: Queue-shedding policies: ``newest`` rejects the arriving request
#: (classic tail drop — FIFO latency stays honest), ``oldest`` rejects
#: the queue head to admit the newcomer (LIFO-flavored — under overload
#: the freshest requests are the ones whose clients are still waiting).
#: Either way, queued requests whose deadlines already expired are timed
#: out *first*; shedding only ever touches still-viable work.
SHED_POLICIES = ("newest", "oldest")


@dataclass(frozen=True)
class ServeConfig:
    """Scheduler knobs for a serving run.

    ``max_batch`` caps the stepper's occupancy (how many instances pack
    into one block-diagonal round); ``validate`` re-checks every served
    coloring through :mod:`repro.core.validate` before responding (the
    daemon's output contract — leave it on outside microbenchmarks);
    ``record_jsonl`` appends one per-request
    :class:`~repro.obs.RunRecord` row to that path as requests finish.
    ``backend`` must name a registry backend with ``supports_serve``
    (the batcher resolves it through :func:`repro.sim.backends.require`
    at construction, so a non-servable backend fails fast, not mid-
    traffic).

    The overload knobs: ``max_queue`` bounds the admission queue
    (``None`` keeps the historical unbounded FIFO; under overload an
    unbounded queue converts excess offered load into unbounded latency
    for *everyone*, the collapse ``benchmarks/bench_serve.py``'s
    overload cell measures).  When the bound is hit, ``shed_policy``
    picks the victim (see :data:`SHED_POLICIES`) and the shed request
    answers ``status="rejected"`` with a ``retry_after_ms`` hint derived
    from observed queue latency (floored at
    ``retry_after_floor_ms``).  ``drain_timeout_s`` bounds the graceful
    drain :meth:`ContinuousBatcher.drain` performs at shutdown before
    failing whatever is still pending with a structured error.
    """

    max_batch: int = 64
    validate: bool = True
    record_jsonl: str | Path | None = None
    backend: str = "batched"
    max_queue: int | None = None
    shed_policy: str = "newest"
    retry_after_floor_ms: float = 10.0
    drain_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_queue is not None and self.max_queue < 1:
            raise ValueError(
                f"max_queue must be >= 1 (or None for unbounded), "
                f"got {self.max_queue}"
            )
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"shed_policy must be one of {SHED_POLICIES}, "
                f"got {self.shed_policy!r}"
            )
        if self.retry_after_floor_ms <= 0:
            raise ValueError(
                f"retry_after_floor_ms must be > 0, "
                f"got {self.retry_after_floor_ms}"
            )
        if self.drain_timeout_s < 0:
            raise ValueError(
                f"drain_timeout_s must be >= 0, got {self.drain_timeout_s}"
            )


class _Ticket:
    """One in-flight request: its future, clocks, and built instance."""

    __slots__ = (
        "request",
        "future",
        "instance",
        "recipe_ms",
        "t_submitted",
        "t_admitted",
        "admitted_round",
        "deadline",
    )

    def __init__(
        self,
        request: ServeRequest,
        future: "asyncio.Future[ServeResponse]",
        instance: BatchInstance,
        t_received: float,
    ) -> None:
        self.request = request
        self.future = future
        #: Holds the request's CSR (``instance.csr``); no networkx graph.
        self.instance = instance
        self.t_submitted = time.perf_counter()
        #: Request decode through instance built; not part of ``total_ms``.
        self.recipe_ms = (self.t_submitted - t_received) * 1000.0
        self.t_admitted: float | None = None
        self.admitted_round: int | None = None
        #: Absolute ``perf_counter`` cutoff, or ``None`` for no deadline.
        self.deadline: float | None = (
            self.t_submitted + request.deadline_ms / 1000.0
            if request.deadline_ms is not None
            else None
        )

    def expired(self, now: float | None = None) -> bool:
        """Whether the request's deadline has passed."""
        if self.deadline is None:
            return False
        return (time.perf_counter() if now is None else now) >= self.deadline

    def timing(self, now: float | None = None) -> dict[str, float]:
        """Recipe/queue/total wall split at ``now`` (for timeout responses)."""
        now = time.perf_counter() if now is None else now
        t_admitted = self.t_admitted
        out = {
            "recipe_ms": self.recipe_ms,
            "total_ms": (now - self.t_submitted) * 1000.0,
        }
        if t_admitted is not None:
            out["queue_ms"] = (t_admitted - self.t_submitted) * 1000.0
            out["service_ms"] = (now - t_admitted) * 1000.0
        else:
            out["queue_ms"] = out["total_ms"]
        return out


class ContinuousBatcher:
    """FIFO queue + round-stepped batch: the continuous-batching loop.

    :meth:`submit` is the only producer API (builds the instance, parks
    a ticket, returns a future); :meth:`run` is the consumer loop the
    daemon spawns as a task — it ticks while work exists and sleeps on
    an event otherwise.  :meth:`stats` snapshots queue/batch occupancy
    and the latency dimensions (recipe build, queue wait, service,
    total) for the ``stats`` protocol op and the benchmark harness.
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.backend = require(
            self.config.backend, algorithm="linial", serve=True
        )
        self.stepper = LinialBatchStepper()
        self._queue: deque[_Ticket] = deque()
        self._resident: dict[int, _Ticket] = {}
        self._wakeup = asyncio.Event()
        self._stopping = False
        self._draining = False
        #: The exception that killed the scheduler loop, if any; set by
        #: :meth:`run` *after* every pending future was failed with a
        #: structured error (the no-hanging-awaiters contract).
        self.crashed: BaseException | None = None
        self.recipe_latency = LatencyTracker()
        self.queue_latency = LatencyTracker()
        self.service_latency = LatencyTracker()
        self.total_latency = LatencyTracker()
        self.occupancy_stats = OccupancyTracker()
        self.outcomes = OutcomeTracker()
        self.served = 0
        self.halted = 0
        self.errors = 0
        self.rejected = 0
        self.timed_out = 0

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests admitted to the queue but not yet packed."""
        return len(self._queue)

    @property
    def has_work(self) -> bool:
        """Whether a tick would do anything."""
        return bool(self._queue) or not self.stepper.drained

    # ------------------------------------------------------------------
    def submit(
        self, request: ServeRequest, *, received_at: float | None = None
    ) -> "asyncio.Future[ServeResponse]":
        """Enqueue one request; the future resolves when it finishes.

        The CSR/schedule/fault-plan are materialized here so a malformed
        request fails fast with ``status="error"`` instead of occupying a
        queue slot.  The recipe freezes straight into CSR form
        (:meth:`~repro.serve.protocol.ServeRequest.build_csr`), with no
        networkx graph for a family that has an edge emitter; the
        response's ``timing.recipe_ms`` runs from ``received_at`` (the
        ``perf_counter`` time the daemon began decoding the request
        line; by default, this call) to the built instance.  This is
        also the admission controller:
        a draining or crashed scheduler answers immediately, and with
        ``max_queue`` configured a full queue sheds per ``shed_policy``
        — the shed request resolves ``status="rejected"`` with a
        ``retry_after_ms`` hint, never parking an awaiter on work the
        server will not do.  Order matters: the shed decision runs
        *before* materialization, because rejection has to stay O(1) —
        under a real overload the daemon spends most arrivals shedding,
        and paying graph construction for a request the queue bound
        turns away would let the shed path itself starve the round loop
        (a request shed this way is never inspected, so even a
        malformed one resolves ``rejected``, not ``error``).
        """
        t_received = time.perf_counter() if received_at is None else received_at
        future: asyncio.Future[ServeResponse] = (
            asyncio.get_running_loop().create_future()
        )
        if self.crashed is not None:
            self.errors += 1
            self.outcomes.record(STATUS_ERROR)
            future.set_result(
                ServeResponse(
                    status=STATUS_ERROR,
                    request_id=request.request_id,
                    error={
                        "type": "SchedulerCrashed",
                        "message": (
                            "scheduler loop died: "
                            f"{type(self.crashed).__name__}: {self.crashed}"
                        ),
                    },
                )
            )
            return future
        if self._draining or self._stopping:
            self.rejected += 1
            self.outcomes.record(STATUS_REJECTED)
            future.set_result(
                rejected_response(
                    request.request_id,
                    retry_after_ms=self.retry_after_ms(),
                    reason="daemon is draining; not accepting new work",
                )
            )
            return future
        shed_full = False
        if (
            self.config.max_queue is not None
            and len(self._queue) >= self.config.max_queue
        ):
            # Deadline-aware first: queued requests that can no longer
            # meet their deadlines are dead weight, time them out before
            # shedding anything still viable.
            self._expire_queued()
            shed_full = len(self._queue) >= self.config.max_queue
        if shed_full and self.config.shed_policy != "oldest":
            # O(1) tail drop: the arrival is turned away un-inspected,
            # before any graph is built.
            self.rejected += 1
            self.outcomes.record(STATUS_REJECTED)
            future.set_result(
                rejected_response(
                    request.request_id,
                    retry_after_ms=self.retry_after_ms(),
                    reason="shed: queue full (newest)",
                )
            )
            return future
        try:
            recorder = None
            if self.config.record_jsonl is not None:
                recorder = RunRecorder(
                    engine=self.backend.engine,
                    algorithm="linial_vectorized",
                    jsonl_path=self.config.record_jsonl,
                )
            instance = make_batch_instance(
                csr=request.build_csr(),
                initial_colors=request.initial_colors,
                defect=request.defect,
                faults=request.fault_plan(),
                recorder=recorder,
            )
        except Exception as exc:  # noqa: BLE001 — becomes the error response
            self.errors += 1
            self.outcomes.record(STATUS_ERROR)
            future.set_result(error_response(exc, request.request_id))
            return future
        ticket = _Ticket(request, future, instance, t_received)
        self.recipe_latency.add(ticket.recipe_ms / 1000.0)
        if shed_full:
            # drop-head keeps the newcomer: the queue head paid its
            # build for nothing, but "oldest" buys freshness, not speed
            victim = self._queue.popleft()
            self._reject(victim, reason="shed: queue full (oldest)")
        self._queue.append(ticket)
        self._wakeup.set()
        return future

    # ------------------------------------------------------------------
    def retry_after_ms(self) -> float:
        """The rejection hint: how long a shed client should back off.

        Derived from observed queue latency — the median of the most
        recent admission waits (window of 256) is the best available
        estimate of how long the queue currently takes to turn over —
        floored at ``retry_after_floor_ms`` so a cold daemon never
        invites an instant retry storm.
        """
        samples = self.queue_latency.samples[-256:]
        hint = quantile(samples, 0.5) * 1000.0 if samples else 0.0
        return max(self.config.retry_after_floor_ms, hint)

    def _reject(self, ticket: _Ticket, *, reason: str) -> None:
        """Resolve a shed ticket as ``rejected`` (no work was done)."""
        self.rejected += 1
        self.outcomes.record(STATUS_REJECTED)
        if not ticket.future.done():
            ticket.future.set_result(
                rejected_response(
                    ticket.request.request_id,
                    retry_after_ms=self.retry_after_ms(),
                    reason=reason,
                )
            )

    def _timeout(self, ticket: _Ticket, *, where: str) -> None:
        """Resolve an expired ticket as ``timeout``."""
        self.timed_out += 1
        self.outcomes.record(STATUS_TIMEOUT)
        self.total_latency.add(time.perf_counter() - ticket.t_submitted)
        if not ticket.future.done():
            ticket.future.set_result(
                timeout_response(
                    ticket.request.request_id,
                    deadline_ms=ticket.request.deadline_ms or 0.0,
                    where=where,
                    timing=ticket.timing(),
                    batch=(
                        {"admitted_round": ticket.admitted_round}
                        if ticket.admitted_round is not None
                        else None
                    ),
                )
            )

    def _expire_queued(self) -> None:
        """Time out every queued ticket whose deadline already passed."""
        if not any(t.deadline is not None for t in self._queue):
            return
        now = time.perf_counter()
        keep: deque[_Ticket] = deque()
        for ticket in self._queue:
            if ticket.expired(now):
                self._timeout(ticket, where="queue")
            else:
                keep.append(ticket)
        self._queue = keep

    # ------------------------------------------------------------------
    def _admit_waiting(self) -> None:
        """Refill free batch slots from the queue head (FIFO).

        The packing-time deadline check lives here: a ticket whose
        deadline expired while it waited resolves as ``timeout`` instead
        of being packed — admitting it would burn a batch slot on an
        answer its client has already given up on.
        """
        while self._queue and self.stepper.occupancy < self.config.max_batch:
            ticket = self._queue.popleft()
            if ticket.expired():
                self._timeout(ticket, where="admission")
                continue
            ticket.t_admitted = time.perf_counter()
            ticket.admitted_round = self.stepper.round_index
            self.stepper.admit(ticket.instance)
            self._resident[ticket.instance.uid] = ticket

    def _evict_expired_residents(self) -> None:
        """Between-rounds deadline sweep over the resident set.

        An instance that finished *this* round has already been resolved
        (finish wins over a same-round deadline); anything still
        resident past its deadline is evicted from the stepper mid-run —
        the block-diagonal packing guarantees removing it cannot perturb
        a sibling — and resolved as ``timeout``.
        """
        expired = [
            t for t in self._resident.values() if t.expired()
        ]
        for ticket in expired:
            self.stepper.evict(ticket.instance)
            del self._resident[ticket.instance.uid]
            self._timeout(ticket, where="running")

    def _resolve(self, instance: BatchInstance) -> None:
        """Build and deliver the response for one finished instance."""
        ticket = self._resident.pop(instance.uid)
        t_done = time.perf_counter()
        t_admitted = ticket.t_admitted or t_done
        queue_s = t_admitted - ticket.t_submitted
        service_s = t_done - t_admitted
        total_s = t_done - ticket.t_submitted
        self.queue_latency.add(queue_s)
        self.service_latency.add(service_s)
        self.total_latency.add(total_s)
        timing = {
            "recipe_ms": ticket.recipe_ms,
            "queue_ms": queue_s * 1000.0,
            "service_ms": service_s * 1000.0,
            "total_ms": total_s * 1000.0,
        }
        batch = {
            "admitted_round": ticket.admitted_round or 0,
            "rounds_resident": instance.rounds_resident,
        }
        outcome = instance.outcome()
        if isinstance(outcome, HaltingError):
            self.halted += 1
            self.outcomes.record(STATUS_HALTED)
            response = ServeResponse(
                status=STATUS_HALTED,
                request_id=ticket.request.request_id,
                error={"type": "HaltingError", "message": str(outcome)},
                timing=timing,
                batch=batch,
            )
        elif isinstance(outcome, BaseException):
            self.errors += 1
            self.outcomes.record(STATUS_ERROR)
            response = ServeResponse(
                status=STATUS_ERROR,
                request_id=ticket.request.request_id,
                error={"type": type(outcome).__name__, "message": str(outcome)},
                timing=timing,
                batch=batch,
            )
        else:
            result, metrics, palette = outcome
            valid = None
            if self.config.validate:
                valid = validate_defective_csr(
                    instance.csr, result.assignment, ticket.request.defect
                ).ok
            self.served += 1
            self.outcomes.record(STATUS_OK)
            response = ServeResponse(
                status=STATUS_OK,
                request_id=ticket.request.request_id,
                colors={str(v): int(c) for v, c in result.assignment.items()},
                palette=int(palette),
                rounds=int(metrics.rounds),
                total_bits=int(metrics.total_bits),
                valid=valid,
                timing=timing,
                batch=batch,
            )
        if not ticket.future.done():
            ticket.future.set_result(response)

    # ------------------------------------------------------------------
    def tick(self) -> bool:
        """One scheduler beat: expire, admit, step one round, resolve.

        Returns whether any work happened (so the run loop knows when to
        park on the wakeup event instead of spinning).  Deadline order
        matters: queued expiries are timed out before packing, the round
        steps, finished instances resolve (a finish beats a same-round
        deadline), and only then are still-resident expired instances
        evicted mid-run.
        """
        self._expire_queued()
        self._admit_waiting()
        if self.stepper.drained:
            return False
        report = self.stepper.step()
        for instance in report.finished:
            self._resolve(instance)
        self._evict_expired_residents()
        self.occupancy_stats.on_round(self.queue_depth, self.stepper.occupancy)
        return True

    async def run(self) -> None:
        """The scheduler loop: tick while work exists, park otherwise.

        The ``sleep(0)`` between ticks is what makes this *continuous*
        batching under asyncio — it yields to the event loop so new
        connections can submit between rounds, letting their requests
        catch slots freed by that round's evictions.

        If a tick raises, every pending future (queued and resident) is
        failed with a structured ``SchedulerCrashed`` error response
        *before* the exception propagates — an awaiter must never hang
        on a scheduler that is no longer running.
        """
        try:
            while not self._stopping:
                if self.has_work:
                    self.tick()
                    await asyncio.sleep(0)
                else:
                    self._wakeup.clear()
                    if self._stopping:
                        break
                    await self._wakeup.wait()
        except BaseException as exc:
            self.crashed = exc
            self._fail_all_pending(
                "SchedulerCrashed",
                f"scheduler loop died: {type(exc).__name__}: {exc}",
            )
            raise

    def stop(self) -> None:
        """Ask :meth:`run` to exit after the current tick."""
        self._stopping = True
        self._wakeup.set()

    # ------------------------------------------------------------------
    async def drain(self, timeout_s: float | None = None) -> dict[str, int]:
        """Graceful shutdown: stop accepting, finish or fail in-flight work.

        Flips the batcher into draining mode (new :meth:`submit` calls
        answer ``rejected`` immediately), then waits up to ``timeout_s``
        (default ``config.drain_timeout_s``) for the scheduler loop —
        which must still be running — to work off the queue and the
        resident batch.  Whatever is still pending at the deadline is
        failed with a structured ``DrainTimeout`` error response; either
        way, no awaiter is left hanging.  Returns the drain accounting
        (``finished`` work completed during the drain, ``abandoned``
        futures failed at the deadline).
        """
        self._draining = True
        self._wakeup.set()
        if timeout_s is None:
            timeout_s = self.config.drain_timeout_s
        deadline = time.perf_counter() + timeout_s
        before = len(self._queue) + len(self._resident)
        while (
            self.has_work
            and self.crashed is None
            and time.perf_counter() < deadline
        ):
            await asyncio.sleep(0)
        abandoned = self._fail_all_pending(
            "DrainTimeout",
            f"daemon drained for {timeout_s:g}s; request abandoned",
        )
        return {"pending_at_drain": before, "abandoned": abandoned}

    def _fail_all_pending(self, error_type: str, message: str) -> int:
        """Fail every queued/resident future with a structured error.

        The no-hanging-awaiters backstop shared by the crash path and
        the drain deadline; evicts resident instances from the stepper
        so a later restart of the loop does not step zombie work.
        Returns how many futures were failed.
        """
        failed = 0
        pending = list(self._queue) + list(self._resident.values())
        self._queue.clear()
        for ticket in self._resident.values():
            self.stepper.evict(ticket.instance)
        self._resident.clear()
        for ticket in pending:
            if ticket.future.done():
                continue
            failed += 1
            self.errors += 1
            self.outcomes.record(STATUS_ERROR)
            ticket.future.set_result(
                ServeResponse(
                    status=STATUS_ERROR,
                    request_id=ticket.request.request_id,
                    error={"type": error_type, "message": message},
                    timing=ticket.timing(),
                )
            )
        return failed

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Snapshot of counters, occupancy, and latency summaries."""
        return {
            "backend": self.backend.name,
            "served": self.served,
            "halted": self.halted,
            "errors": self.errors,
            "rejected": self.rejected,
            "timed_out": self.timed_out,
            "queue_depth": self.queue_depth,
            "occupancy": self.stepper.occupancy,
            "round_index": self.stepper.round_index,
            "max_batch": self.config.max_batch,
            "max_queue": self.config.max_queue,
            "shed_policy": self.config.shed_policy,
            "draining": self._draining,
            "crashed": (
                None if self.crashed is None else type(self.crashed).__name__
            ),
            "retry_after_ms": self.retry_after_ms(),
            "outcomes": self.outcomes.summary(),
            "occupancy_stats": self.occupancy_stats.summary(),
            "latency": {
                "recipe": self.recipe_latency.summary(),
                "queue": self.queue_latency.summary(),
                "service": self.service_latency.summary(),
                "total": self.total_latency.summary(),
            },
        }
