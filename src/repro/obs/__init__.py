"""Observability: one structured run-record schema for both engines.

The paper's claims are measurements — round counts, per-message bits,
defect/color budgets per theorem — so the repo's two execution paths (the
reference simulator and the vectorized CSR engine) must be measurable in
the *same* units.  This package provides that shared vocabulary:

* :class:`RunRecord` / :class:`RoundRow` — per-round accounting rows plus
  headline summary, palette, and wall-clock phase timings;
* :class:`RunRecorder` — the collection hook threaded through
  ``SyncNetwork.run(..., recorder=...)`` and the vectorized fast paths'
  ``recorder=`` parameter;
* :class:`Profiler` — lightweight wall-clock phase timing;
* JSONL emit/load (:func:`append_jsonl`, :func:`write_jsonl`,
  :func:`read_jsonl`);
* :func:`compare_round_accounting` — the cross-engine equivalence check
  (reference vs vectorized on the same cell must produce identical
  per-round message counts and bit totals);
* :class:`LatencyTracker` / :class:`OccupancyTracker` /
  :class:`OutcomeTracker` / :func:`quantile`
  — the serving-side aggregators (:mod:`repro.serve` and
  ``benchmarks/bench_serve.py`` report p50/p99 latency, RPS, and batch
  occupancy through them).

``repro.experiments.sweep`` aggregates these records into its per-cell
cache, and ``repro-cli report`` renders them as per-round tables and
cross-engine comparisons.
"""

from .latency import LatencyTracker, OccupancyTracker, OutcomeTracker, quantile
from .profiler import Profiler
from .record import (
    ENGINE_PARTITIONED,
    ENGINE_REFERENCE,
    ENGINE_VECTORIZED,
    OBS_SCHEMA_VERSION,
    RoundRow,
    RunRecord,
    RunRecorder,
    append_jsonl,
    compare_round_accounting,
    read_jsonl,
    write_jsonl,
)

__all__ = [
    "ENGINE_PARTITIONED",
    "ENGINE_REFERENCE",
    "ENGINE_VECTORIZED",
    "LatencyTracker",
    "OBS_SCHEMA_VERSION",
    "OccupancyTracker",
    "OutcomeTracker",
    "Profiler",
    "RoundRow",
    "RunRecord",
    "RunRecorder",
    "append_jsonl",
    "compare_round_accounting",
    "quantile",
    "read_jsonl",
    "write_jsonl",
]
