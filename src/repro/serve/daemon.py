"""The serving daemon: asyncio TCP transport over the batcher.

:class:`ColoringServer` is a long-lived ``asyncio.start_server`` loop on
a local port.  Each connection speaks the newline-delimited JSON
protocol of :mod:`repro.serve.protocol`: ``color`` ops are submitted to
the shared :class:`~repro.serve.scheduler.ContinuousBatcher` and their
futures awaited per-connection (so thousands of connections overlap
freely while the batcher packs their instances into shared rounds), and
``ping``/``stats``/``shutdown`` answer inline.  The server and the
scheduler loop run as tasks on one event loop — no threads, no shared
mutable state beyond the batcher's own queue.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any

from .protocol import (
    ServeRequest,
    decode_line,
    encode_line,
    error_response,
)
from .scheduler import ContinuousBatcher, ServeConfig

#: Upper bound on one protocol line (requests are recipes, not payloads;
#: responses carry full colorings, so reads get generous headroom).
MAX_LINE_BYTES = 16 * 1024 * 1024


class ColoringServer:
    """A long-lived coloring service on a local TCP port.

    Start with :meth:`start` (binds ``host:port``; port ``0`` picks a
    free one — read it back from :attr:`port`), stop with :meth:`stop`
    or a client ``shutdown`` op.  :meth:`serve_forever` is the blocking
    convenience for a foreground daemon process
    (``repro-cli serve``); tests instead start/stop around their
    traffic.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_line_bytes: int = MAX_LINE_BYTES,
    ) -> None:
        self.host = host
        self.port = port
        self.max_line_bytes = max_line_bytes
        self.batcher = ContinuousBatcher(config)
        self._server: asyncio.AbstractServer | None = None
        self._scheduler_task: asyncio.Task | None = None
        self._shutdown = asyncio.Event()
        #: Live connection handlers and their writers, closed by :meth:`stop`.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        #: Set when the scheduler loop died with an exception (every
        #: pending future was failed first); the daemon keeps answering
        #: protocol lines, with ``color`` ops erroring fast.
        self.scheduler_error: BaseException | None = None
        #: The :meth:`~repro.serve.scheduler.ContinuousBatcher.drain`
        #: accounting from the last :meth:`stop`.
        self.drain_report: dict[str, int] | None = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and launch the scheduler loop."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self.port,
            limit=self.max_line_bytes,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._scheduler_task = asyncio.create_task(self.batcher.run())

    async def stop(self, *, drain_s: float | None = None) -> None:
        """Graceful shutdown: stop accepting, drain, release the port.

        The ordered teardown the overload layer promises: close the
        listener (no new connections), drain the batcher (in-flight work
        finishes or times out inside ``drain_s`` — default
        ``config.drain_timeout_s`` — and anything still pending fails
        with a structured error, so no awaiter hangs), reap the
        scheduler task, then close every live connection and wait for
        its handler to exit on EOF (a handler still blocked in a read
        when the event loop tears down would be cancelled there and
        logged as an error).  A scheduler that died mid-traffic is
        *reaped*, not re-raised: its exception lands in
        :attr:`scheduler_error` and its pending futures were already
        failed by the loop itself.
        """
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        if self._scheduler_task is not None and not self._scheduler_task.done():
            self.drain_report = await self.batcher.drain(drain_s)
        self.batcher.stop()
        if self._scheduler_task is not None:
            results = await asyncio.gather(
                self._scheduler_task, return_exceptions=True
            )
            if isinstance(results[0], BaseException) and not isinstance(
                results[0], asyncio.CancelledError
            ):
                self.scheduler_error = results[0]
            self._scheduler_task = None
        handlers = list(self._connections.items())
        for _, writer in handlers:
            writer.close()
        await asyncio.gather(*(task for task, _ in handlers), return_exceptions=True)
        self._shutdown.set()

    async def serve_forever(self) -> None:
        """Start (if needed) and block until a shutdown is requested."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: request lines in, response lines out.

        Requests on a single connection are answered in order (each
        awaited before the next line is read) — concurrency comes from
        many connections, matching how the traffic generator and the
        benchmark drive the daemon.  A malformed line gets an ``error``
        response rather than killing the connection.  A line exceeding
        ``max_line_bytes`` *also* gets an ``error`` response naming the
        limit, then the connection is closed deliberately: the
        unconsumed remainder of the oversized line would otherwise be
        misparsed as new requests, so framing cannot be trusted past
        this point.  (Historically the overrun raised out of
        ``readline`` and silently dropped the connection — the client
        hung with no explanation.)  A reply line that would exceed the
        same limit (a large coloring) is replaced by an ``error``
        response that keeps the ``request_id`` and names the limit, so
        a client reading under the protocol limit never sees it.
        """
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    ValueError,  # StreamReader wraps LimitOverrunError
                    asyncio.LimitOverrunError,
                    asyncio.IncompleteReadError,
                ):
                    reply = error_response(
                        ValueError(
                            "request line exceeds the protocol limit of "
                            f"{self.max_line_bytes} bytes; closing connection"
                        )
                    ).to_dict()
                    writer.write(encode_line(reply))
                    await writer.drain()
                    break
                if not line:
                    break
                t_received = time.perf_counter()
                try:
                    payload = decode_line(line)
                    reply = await self._dispatch(payload, t_received)
                except Exception as exc:  # noqa: BLE001 — wire-level fault
                    reply = error_response(exc).to_dict()
                writer.write(self._reply_line(reply))
                await writer.drain()
                if payload_requests_shutdown(reply):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            del self._connections[task]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _reply_line(self, reply: dict[str, Any]) -> bytes:
        """``reply`` as a protocol line, or, when that line would exceed
        ``max_line_bytes``, an ``error`` line naming the limit."""
        line = encode_line(reply)
        if len(line) <= self.max_line_bytes:
            return line
        too_long = ValueError(
            f"reply of {len(line)} bytes exceeds the protocol limit of "
            f"{self.max_line_bytes} bytes"
        )
        return encode_line(
            error_response(too_long, reply.get("request_id")).to_dict()
        )

    async def _dispatch(
        self, payload: dict[str, Any], t_received: float
    ) -> dict[str, Any]:
        """Route one decoded protocol op to its handler (``t_received``:
        when the line's decode began, the start of ``recipe_ms``)."""
        op = payload.get("op")
        if op == "color":
            request = ServeRequest.from_dict(payload.get("request") or {})
            response = await self.batcher.submit(request, received_at=t_received)
            return response.to_dict()
        if op == "ping":
            return {"op": "ping", "ok": True}
        if op == "stats":
            return {"op": "stats", "stats": self.batcher.stats()}
        if op == "shutdown":
            self._shutdown.set()
            return {"op": "shutdown", "ok": True}
        raise ValueError(f"unknown protocol op {op!r}")


def payload_requests_shutdown(reply: dict[str, Any]) -> bool:
    """Whether a reply ends its connection (the shutdown acknowledgment)."""
    return reply.get("op") == "shutdown"
