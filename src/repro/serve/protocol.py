"""The wire protocol of the coloring daemon: requests, responses, framing.

One message per line, each line one JSON object (newline-delimited JSON
— append-friendly, streamable, debuggable with ``nc``).  A client sends
``{"op": "color", ...}`` envelopes carrying a :class:`ServeRequest` and
reads back one :class:`ServeResponse` line per request; the auxiliary
ops (``ping``, ``stats``, ``shutdown``) are single-line exchanges the
daemon answers inline.

A request names its instance *by construction recipe* — graph family +
parameters + seed, optional initial colors, defect budget, optional
:class:`~repro.faults.FaultPlan` dict — never by shipping an adjacency
list.  That keeps request lines tiny under heavy traffic and makes the
served-vs-offline equivalence check exact: anyone can rebuild the same
graph from the recipe and replay the same request set through
:func:`~repro.sim.batch.linial_vectorized_batch` (which is what
``benchmarks/bench_serve.py`` and the test suite do).
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

#: Protocol version spoken by this daemon; responses echo it so clients
#: can detect a mismatched server before misreading fields.  Version 2
#: added overload protection: the ``rejected``/``timeout`` statuses, the
#: per-request ``deadline_ms`` field, and the ``retry_after_ms`` hint.
SERVE_PROTOCOL_VERSION = 2

#: Request states a response can report.
STATUS_OK = "ok"
STATUS_HALTED = "halted"
STATUS_ERROR = "error"
#: The admission controller shed the request (queue at ``max_queue``, or
#: the daemon is draining).  The server did *no* work on a rejected
#: request, so resubmitting it is always safe; the response's
#: ``retry_after_ms`` hints when.
STATUS_REJECTED = "rejected"
#: The request's ``deadline_ms`` expired before a result was produced —
#: in the queue, at packing, or mid-run (the instance is evicted rather
#: than left burning batch slots).  No coloring is attached.
STATUS_TIMEOUT = "timeout"

#: Statuses the admission/deadline machinery can legally produce; a
#: response outside this set under overload is a server bug.
OVERLOAD_STATUSES = frozenset(
    {STATUS_OK, STATUS_HALTED, STATUS_ERROR, STATUS_REJECTED, STATUS_TIMEOUT}
)


@dataclass(frozen=True)
class ServeRequest:
    """One coloring request: a graph recipe plus algorithm configuration.

    ``family``/``family_params`` name a generator in
    :mod:`repro.graphs.generators` (e.g. ``ring`` with ``{"n": 16}``);
    ``initial_colors`` optionally overrides the identity initial
    coloring (JSON object keys arrive as strings and are coerced back to
    integer node labels; any read-only mapping will do, so request sets
    can share one); ``defect`` selects the defect-``d`` schedule;
    ``faults`` is an optional :meth:`~repro.faults.FaultPlan.to_dict`
    payload — crash-stop plans are how the serving tests prove a dead
    instance cannot take its batch siblings down.  ``request_id`` is a
    client-chosen tag echoed verbatim in the response.  ``deadline_ms``
    is an optional per-request latency budget measured from the moment
    the daemon accepts the request: one it cannot honor resolves as
    :data:`STATUS_TIMEOUT` — enforced at admission, at packing, and
    between rounds, so a doomed instance is evicted instead of burning
    batch slots.
    """

    family: str
    family_params: dict[str, Any] = field(default_factory=dict)
    defect: int = 0
    initial_colors: Mapping[int, int] | None = None
    faults: dict[str, Any] | None = None
    request_id: str | None = None
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.family, str) or not self.family:
            raise ValueError("request needs a non-empty graph family name")
        if self.defect < 0:
            raise ValueError(f"defect must be >= 0, got {self.defect}")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be > 0, got {self.deadline_ms}"
            )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict; inverse of :meth:`from_dict`."""
        out: dict[str, Any] = {
            "family": self.family,
            "family_params": dict(self.family_params),
            "defect": self.defect,
        }
        if self.initial_colors is not None:
            out["initial_colors"] = {
                str(k): int(v) for k, v in self.initial_colors.items()
            }
        if self.faults is not None:
            out["faults"] = dict(self.faults)
        if self.request_id is not None:
            out["request_id"] = self.request_id
        if self.deadline_ms is not None:
            out["deadline_ms"] = float(self.deadline_ms)
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ServeRequest":
        """Parse a request payload (unknown keys rejected, keys coerced)."""
        known = {
            "family",
            "family_params",
            "defect",
            "initial_colors",
            "faults",
            "request_id",
            "deadline_ms",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown request fields: {sorted(unknown)}")
        init = data.get("initial_colors")
        return cls(
            family=data.get("family", ""),
            family_params=dict(data.get("family_params") or {}),
            defect=int(data.get("defect", 0)),
            initial_colors=(
                None
                if init is None
                else {int(k): int(v) for k, v in init.items()}
            ),
            faults=(
                None if data.get("faults") is None else dict(data["faults"])
            ),
            request_id=data.get("request_id"),
            deadline_ms=(
                None
                if data.get("deadline_ms") is None
                else float(data["deadline_ms"])
            ),
        )

    # ------------------------------------------------------------------
    def build_graph(self):
        """Materialize the request's networkx graph from its family recipe
        (the offline oracle; the daemon serves from :meth:`build_csr`)."""
        from ..graphs.generators import family as build_family

        return build_family(self.family, **self.family_params)

    def build_csr(self):
        """The request's graph frozen to a :class:`~repro.sim.engine.CSRGraph`.

        A family with an edge emitter
        (:func:`~repro.graphs.generators.family_edges`) freezes straight
        from its edges, with no networkx graph; any other family freezes
        :meth:`build_graph`.  Either way the arrays equal
        ``CSRGraph.from_networkx(self.build_graph())``.
        """
        from ..graphs.generators import family_edges
        from ..sim.engine import CSRGraph

        emitted = family_edges(self.family, **self.family_params)
        if emitted is None:
            return CSRGraph.from_networkx(self.build_graph())
        return CSRGraph.from_edges(*emitted)

    def fault_plan(self):
        """The request's :class:`~repro.faults.FaultPlan`, or ``None``."""
        if self.faults is None:
            return None
        from ..faults import FaultPlan

        return FaultPlan.from_dict(self.faults)


@dataclass(frozen=True)
class ServeResponse:
    """One request's outcome as the daemon reports it.

    ``status`` is :data:`STATUS_OK` (colors attached, validated),
    :data:`STATUS_HALTED` (the instance's crash-stop fault plan
    exhausted its round budget — the per-instance
    :class:`~repro.sim.node.HaltingError`, surfaced without disturbing
    batch siblings), :data:`STATUS_ERROR` (the request itself was
    unservable), :data:`STATUS_REJECTED` (shed by the admission
    controller before any work — ``retry_after_ms`` hints when a
    resubmission is likely to be admitted, derived from observed queue
    latency), or :data:`STATUS_TIMEOUT` (the request's ``deadline_ms``
    expired first).  ``timing`` carries ``recipe_ms`` (request decode
    through instance built, before the daemon's clock starts),
    ``queue_ms`` (admission wait), ``service_ms`` (resident rounds
    wall), and ``total_ms`` (queue plus service); ``batch``
    carries the continuous-batching provenance (round admitted,
    rounds resident, occupancy at admission).
    """

    status: str
    request_id: str | None = None
    colors: dict[str, int] | None = None
    palette: int | None = None
    rounds: int | None = None
    total_bits: int | None = None
    valid: bool | None = None
    error: dict[str, str] | None = None
    retry_after_ms: float | None = None
    timing: dict[str, float] = field(default_factory=dict)
    batch: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict; inverse of :meth:`from_dict`."""
        out: dict[str, Any] = {
            "protocol": SERVE_PROTOCOL_VERSION,
            "status": self.status,
            "request_id": self.request_id,
            "timing": dict(self.timing),
            "batch": dict(self.batch),
        }
        if self.colors is not None:
            out["colors"] = dict(self.colors)
            out["palette"] = self.palette
        if self.rounds is not None:
            out["rounds"] = self.rounds
        if self.total_bits is not None:
            out["total_bits"] = self.total_bits
        if self.valid is not None:
            out["valid"] = self.valid
        if self.error is not None:
            out["error"] = dict(self.error)
        if self.retry_after_ms is not None:
            out["retry_after_ms"] = float(self.retry_after_ms)
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ServeResponse":
        """Parse a response payload (foreign protocol versions rejected)."""
        protocol = data.get("protocol")
        if protocol != SERVE_PROTOCOL_VERSION:
            raise ValueError(
                f"response protocol {protocol!r} != supported "
                f"{SERVE_PROTOCOL_VERSION}"
            )
        return cls(
            status=str(data["status"]),
            request_id=data.get("request_id"),
            colors=(
                None
                if data.get("colors") is None
                else {str(k): int(v) for k, v in data["colors"].items()}
            ),
            palette=data.get("palette"),
            rounds=data.get("rounds"),
            total_bits=data.get("total_bits"),
            valid=data.get("valid"),
            error=(
                None if data.get("error") is None else dict(data["error"])
            ),
            retry_after_ms=(
                None
                if data.get("retry_after_ms") is None
                else float(data["retry_after_ms"])
            ),
            timing={k: float(v) for k, v in (data.get("timing") or {}).items()},
            batch={k: int(v) for k, v in (data.get("batch") or {}).items()},
        )

    def assignment(self) -> dict[int, int]:
        """The coloring with node labels coerced back to integers."""
        if self.colors is None:
            raise ValueError(f"no colors on a {self.status!r} response")
        return {int(k): int(v) for k, v in self.colors.items()}


def error_response(
    exc: BaseException, request_id: str | None = None
) -> ServeResponse:
    """The :data:`STATUS_ERROR` response for an unservable request."""
    return ServeResponse(
        status=STATUS_ERROR,
        request_id=request_id,
        error={"type": type(exc).__name__, "message": str(exc)},
    )


def rejected_response(
    request_id: str | None,
    *,
    retry_after_ms: float,
    reason: str,
) -> ServeResponse:
    """The :data:`STATUS_REJECTED` response the admission controller sheds.

    The server did no work on the request, so resubmitting after
    ``retry_after_ms`` is always safe — :class:`~repro.serve.client.RetryPolicy`
    honors the hint.
    """
    return ServeResponse(
        status=STATUS_REJECTED,
        request_id=request_id,
        error={"type": "Rejected", "message": reason},
        retry_after_ms=float(retry_after_ms),
    )


def timeout_response(
    request_id: str | None,
    *,
    deadline_ms: float,
    where: str,
    timing: dict[str, float] | None = None,
    batch: dict[str, int] | None = None,
) -> ServeResponse:
    """The :data:`STATUS_TIMEOUT` response for an expired deadline.

    ``where`` names the enforcement point (``"queue"``, ``"admission"``,
    or ``"running"``) so clients and the bench can see whether deadlines
    die waiting or mid-run.
    """
    return ServeResponse(
        status=STATUS_TIMEOUT,
        request_id=request_id,
        error={
            "type": "DeadlineExceeded",
            "message": (
                f"deadline_ms={deadline_ms:g} expired in {where}"
            ),
        },
        timing=dict(timing or {}),
        batch=dict(batch or {}),
    )


def encode_line(payload: dict[str, Any]) -> bytes:
    """One protocol message as a newline-terminated JSON line."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


def decode_line(line: bytes) -> dict[str, Any]:
    """Parse one protocol line (must be a JSON object)."""
    payload = json.loads(line.decode())
    if not isinstance(payload, dict):
        raise ValueError(f"protocol line must be a JSON object, got {payload!r}")
    return payload
