"""Client side: connections, pinned request sets, synthetic heavy traffic.

Three layers, each used by the next:

* :class:`ServeClient` — one connection speaking the line protocol
  (``color``/``ping``/``stats``/``shutdown``);
* :func:`synth_requests` — a *pinned* deterministic request set (pure
  function of its seed), which is what makes served-vs-offline
  equivalence checkable: tests and ``benchmarks/bench_serve.py`` replay
  the same set through :func:`~repro.sim.batch.linial_vectorized_batch`
  and demand bit-identical colorings;
* :func:`fire_traffic` — the heavy-traffic generator: N concurrent
  connections each issuing a slice of a pinned request set, yielding a
  :class:`TrafficReport` with wall-clock, latency samples, and RPS.

Requests use *spread* initial colors (node ``i`` starts at color
``64 * i``) rather than the identity: identity colorings on small
graphs make ``linial_schedule`` empty (nothing to serve), while the
spread forces a large initial palette and multi-round schedules — the
same trick the fuzz harness uses to keep instances non-trivial.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Any, Mapping, Sequence

from .protocol import (
    STATUS_OK,
    STATUS_REJECTED,
    ServeRequest,
    ServeResponse,
    decode_line,
    encode_line,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Seeded-jitter exponential backoff for resubmitting shed requests.

    ``attempts`` is the *total* number of tries (first submission
    included).  The delay before retry ``k`` (0-based) is
    ``base_ms * multiplier**k``, capped at ``max_ms``, jittered by a
    uniform factor in ``[1 - jitter, 1 + jitter]`` drawn from a
    :class:`random.Random` seeded with ``seed`` — the whole delay
    sequence is a pure function of the policy, so traffic runs that
    retry are as replayable as ones that don't.  A server-provided
    ``retry_after_ms`` hint (attached to every ``rejected`` response)
    acts as a *floor*: the client never comes back sooner than the
    server asked.

    The policy retries only what is safe to retry: ``rejected``
    responses (the server did no work, by contract) and connection-level
    failures of idempotent ops — a coloring request is a pure function
    of its recipe, so re-running one cannot produce a different answer,
    only spend more compute.
    """

    attempts: int = 3
    base_ms: float = 25.0
    multiplier: float = 2.0
    max_ms: float = 2000.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_ms <= 0 or self.max_ms <= 0:
            raise ValueError("base_ms and max_ms must be > 0")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def rng(self) -> random.Random:
        """A fresh seeded jitter source (one per retried request)."""
        return random.Random(self.seed)

    def delay_ms(
        self,
        retry_index: int,
        rng: random.Random,
        retry_after_ms: float | None = None,
    ) -> float:
        """The backoff before retry ``retry_index`` (0-based), in ms."""
        if retry_index < 0:
            raise ValueError(f"retry_index must be >= 0, got {retry_index}")
        backoff = min(self.max_ms, self.base_ms * self.multiplier**retry_index)
        backoff *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        if retry_after_ms is not None:
            backoff = max(backoff, float(retry_after_ms))
        return backoff


class ServeClient:
    """One client connection to a :class:`~repro.serve.daemon.ColoringServer`.

    ``timeout`` is a per-op wall-clock bound (seconds) applied to every
    :meth:`request` round-trip via :func:`asyncio.wait_for` — with it
    set, a hung daemon costs a ``TimeoutError``, never a client that
    blocks forever.  ``None`` (the default) keeps the historical
    unbounded behavior.
    """

    def __init__(
        self, host: str, port: int, *, timeout: float | None = None
    ) -> None:
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0 or None, got {timeout}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        #: Retries performed by :meth:`color_retrying` over this
        #: client's lifetime (resubmissions, not first attempts).
        self.retries = 0

    async def connect(self) -> "ServeClient":
        """Open the connection (idempotent; returns self for chaining)."""
        if self._writer is None:
            from .daemon import MAX_LINE_BYTES

            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port, limit=MAX_LINE_BYTES
            )
        return self

    async def close(self) -> None:
        """Close the connection (safe to call twice)."""
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = None
            self._writer = None

    async def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Send one protocol line and read its one-line reply.

        Bounded by ``self.timeout`` when set; on timeout the connection
        is closed (its framing is now unknown — a late reply would be
        misread as the answer to the *next* request) and the
        ``asyncio.TimeoutError`` propagates.
        """
        if self.timeout is None:
            return await self._request(payload)
        try:
            return await asyncio.wait_for(
                self._request(payload), timeout=self.timeout
            )
        except (asyncio.TimeoutError, TimeoutError):
            await self.close()
            raise

    async def _request(self, payload: dict[str, Any]) -> dict[str, Any]:
        await self.connect()
        assert self._reader is not None and self._writer is not None
        self._writer.write(encode_line(payload))
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection mid-request")
        return decode_line(line)

    async def color(self, request: ServeRequest) -> ServeResponse:
        """Submit one coloring request and wait for its outcome."""
        reply = await self.request({"op": "color", "request": request.to_dict()})
        return ServeResponse.from_dict(reply)

    async def color_retrying(
        self, request: ServeRequest, policy: RetryPolicy
    ) -> ServeResponse:
        """Submit one coloring request, resubmitting per ``policy``.

        Retries ``rejected`` responses (honoring the server's
        ``retry_after_ms`` hint) and connection-level failures
        (``ConnectionError``/timeout — safe because a coloring request
        is a pure function of its recipe).  Returns the first
        non-rejected response, or the last ``rejected`` one once the
        attempt budget is spent; re-raises the last connection failure
        likewise.  Any other status (``ok``/``halted``/``timeout``/
        ``error``) is terminal — the server *did* the work or made a
        definitive call, so retrying would be load amplification.
        """
        rng = policy.rng()
        last_exc: Exception | None = None
        response: ServeResponse | None = None
        for attempt in range(policy.attempts):
            if attempt > 0:
                hint = (
                    response.retry_after_ms if response is not None else None
                )
                delay = policy.delay_ms(attempt - 1, rng, hint)
                await asyncio.sleep(delay / 1000.0)
                self.retries += 1
            try:
                response = await self.color(request)
                last_exc = None
            except (ConnectionError, asyncio.TimeoutError, TimeoutError) as exc:
                last_exc = exc
                response = None
                await self.close()
                continue
            if response.status != STATUS_REJECTED:
                return response
        if last_exc is not None:
            raise last_exc
        assert response is not None
        return response

    async def ping(self) -> bool:
        """Liveness check."""
        reply = await self.request({"op": "ping"})
        return bool(reply.get("ok"))

    async def stats(self) -> dict[str, Any]:
        """The daemon's scheduler statistics snapshot."""
        reply = await self.request({"op": "stats"})
        return dict(reply.get("stats") or {})

    async def shutdown(self) -> None:
        """Ask the daemon to shut down (connection closes after the ack)."""
        await self.request({"op": "shutdown"})
        await self.close()


# ----------------------------------------------------------------------
# pinned synthetic request sets
# ----------------------------------------------------------------------
#: Families the synthetic generator draws from, with size-parameter names.
_SYNTH_FAMILIES: tuple[tuple[str, dict[str, Any]], ...] = (
    ("ring", {"n": (8, 48)}),
    ("path", {"n": (8, 48)}),
    ("random_regular", {"n": (8, 40), "degree": (3, 3), "seed": "seed"}),
    ("gnp", {"n": (10, 40), "p": 0.15, "seed": "seed"}),
    ("random_tree", {"n": (8, 48), "seed": "seed"}),
    ("hypercube", {"dim": (3, 5)}),
)


@lru_cache(maxsize=64)
def _spread_colors(n: int) -> Mapping[int, int]:
    """Spread initial colors (node ``i`` -> ``64 * i``): forces a large
    initial palette so the Linial schedule is non-empty even on small
    graphs — identity colorings on tiny instances serve in zero rounds.

    One read-only mapping per size, shared by every request of that
    size: a long request stream holds a few dozen of them instead of
    one dict per request.
    """
    return MappingProxyType({v: 64 * v for v in range(n)})


def synth_requests(
    seed: int,
    count: int,
    *,
    defect_choices: Sequence[int] = (0,),
    fault_plans: Sequence[dict[str, Any] | None] = (None,),
) -> list[ServeRequest]:
    """A pinned request set: a pure function of ``(seed, count, ...)``.

    Draws graph families/sizes, defect budgets, and (optionally) fault
    plans from a private :class:`random.Random` so the same arguments
    always produce the same requests — the property the equivalence
    battery and the benchmark lean on.  Generators that need their own
    randomness get a per-request derived seed (the sentinel ``"seed"``
    in the family table), and node counts for ``random_regular`` are
    forced even to keep the family constructible.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = random.Random(seed)
    requests: list[ServeRequest] = []
    for i in range(count):
        family, spec = _SYNTH_FAMILIES[rng.randrange(len(_SYNTH_FAMILIES))]
        params: dict[str, Any] = {}
        for key, value in spec.items():
            if value == "seed":
                params[key] = rng.randrange(2**31)
            elif isinstance(value, tuple):
                params[key] = rng.randint(*value)
            else:
                params[key] = value
        if family == "random_regular" and params["n"] % 2:
            params["n"] += 1  # n*d must be even for a 3-regular graph
        if family == "hypercube":
            n = 2 ** params["dim"]
        else:
            n = params["n"]
        requests.append(
            ServeRequest(
                family=family,
                family_params=params,
                defect=defect_choices[rng.randrange(len(defect_choices))],
                initial_colors=_spread_colors(n),
                faults=fault_plans[rng.randrange(len(fault_plans))],
                request_id=f"synth-{seed}-{i}",
            )
        )
    return requests


# ----------------------------------------------------------------------
# the heavy-traffic generator
# ----------------------------------------------------------------------
@dataclass
class TrafficReport:
    """What a :func:`fire_traffic` burst measured.

    ``latencies`` holds one total-latency sample (seconds) per completed
    request; ``responses`` holds one
    :class:`~repro.serve.protocol.ServeResponse` per *completed request*
    (a list, in completion order) so callers can check every served
    coloring, not just the aggregates.  Duplicate ``request_id``\\ s are
    each kept — an earlier design keyed responses by id and silently
    dropped all but the last duplicate, which made a daemon that answers
    the same id twice look indistinguishable from a correct one.  Use
    :meth:`response_for` for the unique-id lookup and :meth:`by_id` to
    see duplication explicitly.

    ``requests`` counts *issued* requests; ``len(report.responses)``
    counts completed ones, and the two differ when connections die
    mid-burst.

    ``errors`` records per-client failures: one entry per client whose
    connection died mid-slice (``{"client": index, "type": ...,
    "message": ..., "completed": how many of its requests had already
    round-tripped}``).  A dying client used to raise through
    ``asyncio.gather`` and abort every *other* client too, losing the
    whole report — now survivors finish and the casualty list is data.
    ``retries`` counts resubmissions performed under a
    :class:`RetryPolicy` (0 without one).
    """

    clients: int
    requests: int
    wall_seconds: float
    responses: list[ServeResponse] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    errors: list[dict[str, Any]] = field(default_factory=list)
    retries: int = 0

    @property
    def completed(self) -> int:
        """Requests that round-tripped to a response, any status."""
        return len(self.responses)

    @property
    def failed_clients(self) -> int:
        """Clients whose connection died before finishing their slice."""
        return len(self.errors)

    @property
    def completed_ok(self) -> int:
        """Responses with :data:`~repro.serve.protocol.STATUS_OK`."""
        return sum(1 for r in self.responses if r.status == STATUS_OK)

    @property
    def rps(self) -> float:
        """Completed requests/second over the burst's wall-clock.

        Counts *completed* responses, not issued requests: dividing the
        issue count by the wall-clock inflates throughput whenever some
        requests error out or never complete.
        """
        return self.completed / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def ok_rps(self) -> float:
        """Successfully served (``ok``-status) requests/second."""
        return (
            self.completed_ok / self.wall_seconds if self.wall_seconds else 0.0
        )

    def by_id(self) -> dict[str, list[ServeResponse]]:
        """Responses grouped by request id (anonymous ones under ``""``)."""
        groups: dict[str, list[ServeResponse]] = {}
        for response in self.responses:
            groups.setdefault(response.request_id or "", []).append(response)
        return groups

    def response_for(self, request_id: str) -> ServeResponse:
        """The unique response for ``request_id``.

        Raises ``KeyError`` if the id never completed and ``ValueError``
        if the daemon answered it more than once — duplicate answers are
        a protocol violation the caller must see, not a dict overwrite.
        """
        matches = [r for r in self.responses if r.request_id == request_id]
        if not matches:
            raise KeyError(request_id)
        if len(matches) > 1:
            raise ValueError(
                f"{len(matches)} responses for request_id {request_id!r}"
            )
        return matches[0]

    def status_counts(self) -> dict[str, int]:
        """How many responses landed in each status."""
        counts: dict[str, int] = {}
        for response in self.responses:
            counts[response.status] = counts.get(response.status, 0) + 1
        return counts


async def fire_traffic(
    host: str,
    port: int,
    requests: Sequence[ServeRequest],
    *,
    clients: int,
    timeout: float | None = None,
    retry_policy: RetryPolicy | None = None,
) -> TrafficReport:
    """Fire a pinned request set at a daemon from ``clients`` connections.

    The request list is dealt round-robin across ``clients`` concurrent
    connections; each connection issues its slice sequentially (so
    in-flight concurrency == live connections, the standard serving-
    benchmark shape).  Latency samples are whole-request wall-clock as
    the *client* observes it — queue wait, batched service, and protocol
    overhead included; for retried requests the sample spans *all*
    attempts and backoff waits, which is what the end user experiences.

    ``timeout`` bounds each op's round-trip (see :class:`ServeClient`);
    ``retry_policy`` resubmits shed/disconnected requests with seeded-
    jitter backoff.  A client whose connection dies for good no longer
    aborts the burst: its failure is appended to ``report.errors`` and
    the surviving clients finish their slices.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    # ``clients`` reports connections that actually open: an empty
    # request set opens zero (the old ``min(...) or clients`` fallback
    # claimed N clients for zero requests).
    report = TrafficReport(
        clients=min(clients, len(requests)),
        requests=len(requests),
        wall_seconds=0.0,
    )

    async def run_client(index: int, slice_requests: list[ServeRequest]) -> None:
        client = ServeClient(host, port, timeout=timeout)
        completed = 0
        try:
            await client.connect()
            for request in slice_requests:
                t0 = time.perf_counter()
                if retry_policy is None:
                    response = await client.color(request)
                else:
                    response = await client.color_retrying(
                        request, retry_policy
                    )
                report.latencies.append(time.perf_counter() - t0)
                report.responses.append(response)
                completed += 1
        except Exception as exc:  # noqa: BLE001 — becomes report data
            report.errors.append(
                {
                    "client": index,
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "completed": completed,
                }
            )
        finally:
            report.retries += client.retries
            await client.close()

    slices: list[list[ServeRequest]] = [[] for _ in range(clients)]
    for i, request in enumerate(requests):
        slices[i % clients].append(request)
    t_start = time.perf_counter()
    await asyncio.gather(
        *(run_client(i, s) for i, s in enumerate(slices) if s)
    )
    report.wall_seconds = time.perf_counter() - t_start
    return report
