"""The shared run-record schema and its JSONL serialization.

One :class:`RunRecord` describes one execution — by either engine — in a
single structured shape:

* **per-round rows** (:class:`RoundRow`): message count, total bits, max
  message bits, plus the optional activity columns an engine can supply
  (active nodes, uncolored nodes);
* **headline summary**: the flat :meth:`~repro.sim.metrics.RunMetrics.summary`
  counters (rounds, totals, bandwidth budget/violations);
* **phase timings**: wall-clock seconds per coarse stage from the
  :class:`~repro.obs.profiler.Profiler` hooks;
* **provenance**: engine (``"reference"`` or ``"vectorized"``), algorithm
  name, graph size, palette, and a ``schema`` version.

The round-level columns are the paper's own currency — round counts and
per-message bits per theorem — so "reference and vectorized runs of the
same cell produce identical per-round message counts and bit totals" is a
checkable equivalence (:func:`compare_round_accounting`), enforced by
``tests/test_obs.py`` and surfaced by ``repro-cli report``.

Records serialize as one JSON object per line (JSONL): append-friendly,
streamable, and diffable.  :class:`RunRecorder` is the collection helper
both engines feed — the reference simulator through
``SyncNetwork.run(..., recorder=...)``, the fast paths through their
``recorder=`` parameter — pairing engine-supplied activity columns with
the per-round accounting that :class:`~repro.sim.metrics.RunMetrics` now
carries natively.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from ..sim.metrics import RunMetrics
from .profiler import Profiler

#: Version of the RunRecord row/field layout.  Bump when rows gain,
#: lose, or reinterpret columns; loaders treat other versions as foreign.
#: v2: rows gained the ``faults`` column family (per-round injected fault
#: counts under a :class:`~repro.faults.FaultPlan`; ``None`` = no plan).
#: v3: rows gained the ``exchange`` column family (per-round ghost-color
#: boundary-exchange accounting from :mod:`repro.sim.partition`;
#: ``None`` = single-process execution).
OBS_SCHEMA_VERSION = 3

#: Engine labels (see :data:`repro.sim.backends.BACKENDS`; the batched
#: backend is an execution strategy and records as ``vectorized``).
ENGINE_REFERENCE = "reference"
ENGINE_VECTORIZED = "vectorized"
ENGINE_PARTITIONED = "partitioned"


@dataclass(frozen=True)
class RoundRow:
    """Accounting of one synchronous round.

    ``active`` (nodes still running at the round's start) and
    ``uncolored`` (nodes without a final color after the round) are
    optional: engines emit them when the algorithm's semantics make them
    well-defined, ``None`` otherwise.  ``faults`` is the injected-fault
    column family — per-round event counts keyed by
    :data:`repro.faults.FAULT_KINDS` when the run carried a
    :class:`~repro.faults.FaultPlan`, ``None`` otherwise; both engines
    must produce it identically (checked by
    :func:`compare_round_accounting`).  ``exchange`` is the
    boundary-exchange column family of partitioned runs
    (:meth:`repro.sim.partition.GraphPartition.exchange_row`: bytes of
    ghost colors pulled per round, ghost-replica count, cut directed
    edges); like the activity columns it is engine-optional and not part
    of the cross-engine accounting comparison.
    """

    round: int
    messages: int
    total_bits: int
    max_bits: int
    active: int | None = None
    uncolored: int | None = None
    faults: dict[str, int] | None = None
    exchange: dict[str, int] | None = None

    def to_dict(self) -> dict[str, Any]:
        """Flat JSON-ready dict of this row."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RoundRow":
        """Inverse of :meth:`to_dict` (ignores unknown keys)."""
        faults = data.get("faults")
        exchange = data.get("exchange")
        return cls(
            round=int(data["round"]),
            messages=int(data["messages"]),
            total_bits=int(data["total_bits"]),
            max_bits=int(data["max_bits"]),
            active=None if data.get("active") is None else int(data["active"]),
            uncolored=(
                None if data.get("uncolored") is None else int(data["uncolored"])
            ),
            faults=(
                None
                if faults is None
                else {str(k): int(v) for k, v in faults.items()}
            ),
            exchange=(
                None
                if exchange is None
                else {str(k): int(v) for k, v in exchange.items()}
            ),
        )


@dataclass
class RunRecord:
    """One run's complete observability record (see module docstring)."""

    engine: str
    algorithm: str
    n: int
    m: int
    summary: dict[str, Any]
    rows: list[RoundRow] = field(default_factory=list)
    palette: int | None = None
    timings: dict[str, float] = field(default_factory=dict)
    schema: int = OBS_SCHEMA_VERSION

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_metrics(
        cls,
        metrics: RunMetrics,
        *,
        engine: str,
        algorithm: str,
        n: int,
        m: int,
        active_per_round: Sequence[int] | None = None,
        uncolored_per_round: Sequence[int] | None = None,
        faults_per_round: Sequence[dict[str, int] | None] | None = None,
        exchange_per_round: Sequence[dict[str, int] | None] | None = None,
        palette: int | None = None,
        timings: dict[str, float] | None = None,
    ) -> "RunRecord":
        """Build a record from a run's :class:`RunMetrics`.

        Rows come from the metrics' native per-round lists; the optional
        activity sequences (including the per-round fault-count dicts)
        are merged in positionally (shorter sequences leave trailing rows'
        columns ``None``).  Metrics assembled by hand (e.g. parallel
        merges, where per-round data is undefined) yield a record with
        summary-only accounting and no rows.
        """
        rows: list[RoundRow] = []
        if metrics.per_round_complete:
            active = list(active_per_round or [])
            uncolored = list(uncolored_per_round or [])
            faults = list(faults_per_round or [])
            exchange = list(exchange_per_round or [])
            for r in range(metrics.rounds):
                rows.append(
                    RoundRow(
                        round=r,
                        messages=metrics.per_round_messages[r],
                        total_bits=metrics.per_round_bits[r],
                        max_bits=metrics.per_round_max_bits[r],
                        active=active[r] if r < len(active) else None,
                        uncolored=uncolored[r] if r < len(uncolored) else None,
                        faults=faults[r] if r < len(faults) else None,
                        exchange=exchange[r] if r < len(exchange) else None,
                    )
                )
        record = cls(
            engine=engine,
            algorithm=algorithm,
            n=int(n),
            m=int(m),
            summary=dict(metrics.summary()),
            rows=rows,
            palette=palette,
            timings=dict(timings or {}),
        )
        record.check_consistent()
        return record

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def check_consistent(self) -> None:
        """Raise ``ValueError`` when rows disagree with the summary.

        The guarded invariant is exactly the class of bug this layer
        exists to catch: per-round accounting silently drifting from the
        headline counters (cf. the historical ``Trace.bits_per_round``
        dropped-round bug).
        """
        if not self.rows:
            return
        problems = []
        if len(self.rows) != self.summary.get("rounds"):
            problems.append(
                f"{len(self.rows)} rows vs rounds={self.summary.get('rounds')}"
            )
        msgs = sum(r.messages for r in self.rows)
        if msgs != self.summary.get("total_messages"):
            problems.append(
                f"row messages {msgs} != total_messages "
                f"{self.summary.get('total_messages')}"
            )
        bits = sum(r.total_bits for r in self.rows)
        if bits != self.summary.get("total_bits"):
            problems.append(
                f"row bits {bits} != total_bits {self.summary.get('total_bits')}"
            )
        max_bits = max((r.max_bits for r in self.rows), default=0)
        if max_bits != self.summary.get("max_message_bits"):
            problems.append(
                f"row max bits {max_bits} != max_message_bits "
                f"{self.summary.get('max_message_bits')}"
            )
        if problems:
            raise ValueError(
                "inconsistent RunRecord: " + "; ".join(problems)
            )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict (rows flattened) — the JSONL line payload."""
        return {
            "schema": self.schema,
            "engine": self.engine,
            "algorithm": self.algorithm,
            "n": self.n,
            "m": self.m,
            "palette": self.palette,
            "summary": dict(self.summary),
            "timings": dict(self.timings),
            "rows": [r.to_dict() for r in self.rows],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunRecord":
        """Inverse of :meth:`to_dict`; raises on foreign schema versions."""
        schema = data.get("schema")
        if schema != OBS_SCHEMA_VERSION:
            raise ValueError(
                f"RunRecord schema {schema!r} != supported {OBS_SCHEMA_VERSION}"
            )
        return cls(
            engine=str(data["engine"]),
            algorithm=str(data["algorithm"]),
            n=int(data["n"]),
            m=int(data["m"]),
            summary=dict(data["summary"]),
            rows=[RoundRow.from_dict(r) for r in data.get("rows", [])],
            palette=data.get("palette"),
            timings={k: float(v) for k, v in (data.get("timings") or {}).items()},
            schema=int(schema),
        )


# ----------------------------------------------------------------------
# JSONL I/O
# ----------------------------------------------------------------------
def append_jsonl(record: RunRecord, path: Path | str) -> None:
    """Append one record as a single JSON line (creates parents/file)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")


def write_jsonl(records: Iterable[RunRecord], path: Path | str) -> None:
    """Atomically write records as JSONL, replacing any existing file.

    The payload stages through a *uniquely named* sibling temp file that
    ``os.replace``\\ s the destination only once every record is
    serialized (:func:`repro.atomic.atomic_write_text`).  A crash
    mid-write — e.g. the crash-stop flush path re-serializing a record
    set — leaves the previous file intact instead of destroying
    already-flushed records with a half-written replacement, and two
    processes replacing the same file concurrently each publish a
    complete payload (last rename wins whole) instead of interleaving
    into one shared ``.tmp``.
    """
    from ..atomic import atomic_write_text

    atomic_write_text(
        path,
        "".join(
            json.dumps(record.to_dict(), sort_keys=True) + "\n"
            for record in records
        ),
    )


def read_jsonl(path: Path | str) -> list[RunRecord]:
    """Load every record of a JSONL file (blank lines skipped).

    A final line that is not valid JSON — the signature of an append
    interrupted mid-line — is skipped with a warning rather than raised,
    so one torn append cannot make every previously flushed record
    unreadable.  Malformed JSON *before* the last line is still an
    error: that is corruption, not a torn tail.
    """
    path = Path(path)
    lines = [
        (i, line.strip())
        for i, line in enumerate(path.read_text().splitlines(), start=1)
        if line.strip()
    ]
    out = []
    for pos, (lineno, line) in enumerate(lines):
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            if pos == len(lines) - 1:
                warnings.warn(
                    f"{path}: skipping partial trailing line {lineno} "
                    f"(interrupted append?): {exc}",
                    stacklevel=2,
                )
                break
            raise ValueError(
                f"{path}: malformed JSONL at line {lineno}: {exc}"
            ) from exc
        out.append(RunRecord.from_dict(payload))
    return out


# ----------------------------------------------------------------------
# the collection helper both engines feed
# ----------------------------------------------------------------------
class RunRecorder:
    """Collects per-round activity during a run and finalizes a record.

    Engines call :meth:`on_round` once per synchronous round — in the same
    order the run's :class:`RunMetrics` observes rounds — then
    :meth:`finalize` pairs the activity columns with the metrics' native
    per-round accounting.  ``SyncNetwork.run`` finalizes automatically;
    vectorized fast paths finalize before returning.  With ``jsonl_path``
    set, every finalized record is appended to that file.
    """

    def __init__(
        self,
        engine: str = ENGINE_REFERENCE,
        algorithm: str = "",
        jsonl_path: Path | str | None = None,
    ) -> None:
        self.engine = engine
        self.algorithm = algorithm
        self.jsonl_path = Path(jsonl_path) if jsonl_path is not None else None
        self.active_per_round: list[int | None] = []
        self.uncolored_per_round: list[int | None] = []
        self.faults_per_round: list[dict[str, int] | None] = []
        self.exchange_per_round: list[dict[str, int] | None] = []
        self.profiler = Profiler()
        self.record: RunRecord | None = None

    def on_round(
        self,
        active: int | None = None,
        uncolored: int | None = None,
        faults: dict[str, int] | None = None,
        exchange: dict[str, int] | None = None,
    ) -> None:
        """Note one round's activity (any column may be unknown).

        ``faults`` is the round's injected-fault counts when the run
        carried a :class:`~repro.faults.FaultPlan` (``None`` otherwise);
        ``exchange`` is the round's ghost-color boundary-exchange
        accounting when the run executed on the partitioned backend
        (``None`` otherwise).
        """
        self.active_per_round.append(active)
        self.uncolored_per_round.append(uncolored)
        self.faults_per_round.append(faults)
        self.exchange_per_round.append(exchange)

    def finalize(
        self,
        metrics: RunMetrics,
        *,
        n: int,
        m: int,
        palette: int | None = None,
        algorithm: str | None = None,
    ) -> RunRecord:
        """Assemble (and optionally emit) the final :class:`RunRecord`."""
        record = RunRecord.from_metrics(
            metrics,
            engine=self.engine,
            algorithm=algorithm or self.algorithm or "?",
            n=n,
            m=m,
            active_per_round=[a for a in self.active_per_round],  # type: ignore[misc]
            uncolored_per_round=[u for u in self.uncolored_per_round],  # type: ignore[misc]
            faults_per_round=list(self.faults_per_round),
            exchange_per_round=list(self.exchange_per_round),
            palette=palette,
            timings=self.profiler.timings,
        )
        self.record = record
        if self.jsonl_path is not None:
            append_jsonl(record, self.jsonl_path)
        return record


# ----------------------------------------------------------------------
# cross-engine equivalence
# ----------------------------------------------------------------------
def compare_round_accounting(a: RunRecord, b: RunRecord) -> dict[str, Any]:
    """Round-level accounting comparison of two records.

    Compares the columns both engines must agree on — per-round message
    counts and bit totals (plus round count and max message bits), and the
    ``faults`` column family, which a fixed
    :class:`~repro.faults.FaultPlan` makes an engine-independent function
    of the plan — and reports the first mismatching round, if any.  A
    fault-column disagreement marks the round mismatched (the engines saw
    *different fault schedules*) and additionally clears ``faults_equal``.
    Activity columns and the partitioned backend's ``exchange`` column
    are engine-optional and deliberately not compared.
    """
    mismatches: list[int] = []
    fault_mismatches: list[int] = []
    for r in range(max(len(a.rows), len(b.rows))):
        ra = a.rows[r] if r < len(a.rows) else None
        rb = b.rows[r] if r < len(b.rows) else None
        if ra is not None and rb is not None and ra.faults != rb.faults:
            fault_mismatches.append(r)
        if (
            ra is None
            or rb is None
            or ra.messages != rb.messages
            or ra.total_bits != rb.total_bits
            or ra.max_bits != rb.max_bits
            or ra.faults != rb.faults
        ):
            mismatches.append(r)
    return {
        "rounds_equal": len(a.rows) == len(b.rows),
        "accounting_equal": not mismatches,
        "first_mismatch": mismatches[0] if mismatches else None,
        "mismatched_rounds": len(mismatches),
        "faults_equal": not fault_mismatches,
        "totals_equal": (
            a.summary.get("total_messages") == b.summary.get("total_messages")
            and a.summary.get("total_bits") == b.summary.get("total_bits")
        ),
    }
