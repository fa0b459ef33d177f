"""Parallel sweep runner with deterministic partitioning and a JSON cache.

The paper's experiments (E01-E16) all share one expensive shape: run an
algorithm over a grid of (graph family, size, seed, parameters) cells and
collect round/bit/color metrics per cell.  This module packages that shape
once, for every driver:

* a **cell** (:class:`SweepCell`) names a graph spec (generator family +
  parameters), an algorithm, and algorithm parameters — everything needed
  to recompute it from scratch in any process;
* :func:`run_sweep` executes a list of cells, farming the missing ones out
  to worker processes with **deterministic work partitioning** (cells are
  sorted by cache key and dealt round-robin, so a given cell always lands
  on the same worker for a given worker count) and loading the rest from
  the cache;
* the **cache** is one JSON file per cell under ``cache_dir``, named by
  :func:`cell_key` — a SHA-256 hash of the canonical JSON encoding of
  ``{family, family_params, algorithm, algo_params}``.  Re-running a sweep
  only computes missing cells; everything else is read back and marked
  ``cached``.  Delete a file (or pass ``recompute=True``) to invalidate.

Cached cell records are plain JSON::

    {"key": "<hex16>", "schema": 4, "status": "ok",
     "family": "random_regular",
     "family_params": {"n": 1000, "degree": 8, "seed": 0},
     "algorithm": "linial_vectorized", "algo_params": {},
     "n": 1000, "m": 4000, "delta": 8,
     "colors": 25, "valid": true, "palette": 25,
     "metrics": {"rounds": 4, "total_messages": ..., "total_bits": ...,
                 "max_message_bits": ..., "bandwidth_limit": ...,
                 "bandwidth_violations": 0},
     "wall_s": 0.123, "batched_with": 1,
     "timings": {"csr_build": ..., "rounds": ...},
     "run_record": {... full repro.obs.RunRecord, per-round rows ...}}

``schema`` is :data:`SWEEP_CACHE_SCHEMA`; cached files written under any
other schema (including the pre-observability records, which carried no
``schema`` field at all) are treated as cache *misses* and recomputed, so
a code change that alters the record layout can never be silently served
stale from disk.

Fault tolerance (the shape a long overnight sweep actually needs):

* **poison-cell quarantine** — a cell whose computation raises is recorded
  as a structured ``status: "failed"`` record (:func:`failed_record`)
  carrying the exception type and message; the sweep continues and the
  failure is a first-class result, not an abort;
* **per-cell checkpointing** — workers persist each record the moment it
  is computed (when a ``cache_dir`` is available), so a killed worker
  process loses at most the one cell it was on;
* **bounded batch retry** — :func:`_compute_parallel` resubmits only the
  batches whose worker died (``BrokenProcessPool``), with exponential
  backoff, and finally computes stragglers inline; checkpointed cells are
  *resumed* from the cache, never recomputed;
* **corrupt-file quarantine** — an unreadable cache file is renamed to
  ``<key>.json.corrupt`` (:func:`load_cached_detailed`) so the evidence
  survives while the cell recomputes; ``repro-cli report`` surfaces the
  count.

Every engine fast path is one runner in :data:`FAST_PATHS`, over k
cells at once: :func:`compute_cell` is its one-cell call and re-raises,
:func:`compute_cells_batched` its many-cell call and quarantines.  Both
feed the runner each cell's frozen CSR, so a cell of an emitting family
builds no networkx graph unless its path asks for one (greedy does).
Workers batch before they loop: pending cells that share a
:data:`FAST_PATHS` algorithm are packed into one block-diagonal
:class:`~repro.sim.batch.BatchCSRGraph` execution per algorithm —
identical records cell for cell, one engine invocation for the whole
group — with cached cells excluded from the packing and the per-cell
loop as fallback.

Algorithms are resolved by name: first against the engine fast paths
(``linial_vectorized``, ``classic_vectorized``, ``greedy_vectorized``,
``defective_split``, ``linial_faulty_vectorized``, ``fk24_vectorized``
on the vectorized CSR engine), then against the recorder-aware reference
paths (``linial``, ``classic``, ``greedy``, ``linial_faulty``,
``linial_resilient`` — the first three are equivalence twins of the fast
paths, the fault paths inject a :class:`~repro.faults.FaultPlan` taken
from ``algo_params["faults"]``), then against
:mod:`repro.algorithms.registry` (the remaining reference
implementations), so one sweep can mix engine runs at large n with
reference runs at small n.  Which backend owns each sweep name — and
which names batch — is declared once in :mod:`repro.sim.backends`
(:func:`~repro.sim.backends.backend_of_sweep_algorithm`,
:func:`~repro.sim.backends.batchable_sweep_algorithms`); every name a
backend declares must have a runner in this module's dispatch tables,
and the batchable names are exactly :data:`FAST_PATHS`
(``tests/test_registry.py``).  Fast-path and reference-path cells attach
a full per-round :class:`~repro.obs.RunRecord` to their cache record;
cross-engine pairs (see :data:`repro.analysis.report.REFERENCE_TWINS`)
must agree row for row — including the per-round fault columns.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from ..atomic import atomic_write_text, sweep_stale_tmp

#: Version of the cached cell-record layout.  Bump whenever the record
#: gains, loses, or reinterprets fields; :func:`load_cached` treats any
#: other version (including records from before this field existed) as a
#: cache miss, so stale layouts are recomputed instead of silently served.
#: v3: records gained ``status`` ("ok" | "failed") and, on failure, a
#: structured ``error`` — the poison-cell quarantine format.
#: v4: records gained ``batched_with`` (how many cells shared the record's
#: engine invocation) and ``wall_s`` of a batched cell changed meaning
#: from "batch wall split evenly" to "actual wall time of the whole
#: batch" — per-cell cost is ``wall_s / batched_with``.
SWEEP_CACHE_SCHEMA = 4

#: Attempts per batch before the parallel runner falls back to computing
#: the batch inline (first try + retries of batches whose worker died).
MAX_BATCH_RETRIES = 2


# ----------------------------------------------------------------------
# cells and keys
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepCell:
    """One recomputable sweep coordinate."""

    family: str
    family_params: tuple[tuple[str, Any], ...]
    algorithm: str
    algo_params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(
        cls,
        family: str,
        family_params: Mapping[str, Any],
        algorithm: str,
        algo_params: Mapping[str, Any] | None = None,
    ) -> "SweepCell":
        """Normalize mapping parameters into a hashable, ordered cell."""

        def freeze(value: Any) -> Any:
            # nested mappings (e.g. a FaultPlan spec) must hash and
            # serialize canonically, exactly like the top-level params
            if isinstance(value, Mapping):
                return tuple(sorted((k, freeze(v)) for k, v in value.items()))
            return value

        return cls(
            family=family,
            family_params=tuple(sorted(family_params.items())),
            algorithm=algorithm,
            algo_params=tuple(
                sorted((k, freeze(v)) for k, v in (algo_params or {}).items())
            ),
        )

    def spec(self) -> dict[str, Any]:
        """The canonical (JSON-ready) spec dict of this cell."""

        def thaw(value: Any) -> Any:
            if (
                isinstance(value, tuple)
                and value
                and all(isinstance(p, tuple) and len(p) == 2 for p in value)
            ):
                return {k: thaw(v) for k, v in value}
            return value

        return {
            "family": self.family,
            "family_params": dict(self.family_params),
            "algorithm": self.algorithm,
            "algo_params": {k: thaw(v) for k, v in self.algo_params},
        }


def cell_key(cell: SweepCell) -> str:
    """Stable cache key: SHA-256 of the canonical JSON spec (16 hex chars)."""
    blob = json.dumps(cell.spec(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class CellResult:
    """Outcome of one cell: the JSON record plus cache provenance.

    ``cache_status`` is the initial cache probe's verdict for this cell —
    ``hit``/``failed`` when served from disk, ``miss``/``stale``/
    ``corrupt`` when the cell went on to compute (``miss`` also covers
    disabled caching and ``recompute=True``).
    """

    cell: SweepCell
    data: dict[str, Any]
    cached: bool = False
    cache_status: str = "miss"

    @property
    def key(self) -> str:
        return self.data["key"]

    @property
    def failed(self) -> bool:
        """Whether this cell carries a quarantined failure record."""
        return self.data.get("status", "ok") == "failed"


# ----------------------------------------------------------------------
# cell graphs
# ----------------------------------------------------------------------
class _CellGraph:
    """One cell's graph: the CSR its kernels and validation read, and the
    networkx graph only for the paths that ask for it.

    A family with an edge emitter (:func:`repro.graphs.family_edges`) is
    generated as an edge array, which :meth:`freeze` turns straight into a
    :class:`~repro.sim.engine.CSRGraph`.  :attr:`graph` builds the
    networkx graph from the same edges on first use, memoizes that CSR as
    its freeze, and adds the time to ``graph_build_s``, so a cell can keep
    graph construction out of ``wall_s``.  Any other family is built as a networkx graph here.
    """

    def __init__(self, family: str, params: Mapping[str, Any]) -> None:
        from .. import graphs

        self.family = family
        self.graph_build_s = 0.0
        self._emitted = graphs.family_edges(family, **params)
        self._graph = (
            graphs.family(family, **params) if self._emitted is None else None
        )
        self._csr = None

    @property
    def graph(self):
        """The cell's networkx graph, built on first use.  One built from
        emitted edges memoizes the CSR :meth:`freeze` gives, which
        ``family_edges`` guarantees equal to its own freeze, so no later
        freeze of it walks its adjacency."""
        if self._graph is None:
            from .. import graphs
            from ..sim.engine import memoize_csr

            t0 = time.perf_counter()
            self._graph = graphs.family_from_edges(self.family, *self._emitted)
            memoize_csr(self._graph, self.freeze())
            self.graph_build_s += time.perf_counter() - t0
        return self._graph

    def freeze(self):
        """The cell's CSR, frozen on the first call."""
        if self._csr is None:
            from ..sim.engine import CSRGraph

            self._csr = (
                CSRGraph.from_networkx(self._graph)
                if self._emitted is None
                else CSRGraph.from_edges(*self._emitted)
            )
        return self._csr


# ----------------------------------------------------------------------
# algorithm dispatch
# ----------------------------------------------------------------------
def _announce_coloring_metrics(n: int, m: int, space_size: int, recorder):
    """Synthesized accounting for sequential solvers publishing a coloring.

    The sequential greedy has no distributed execution to account, so both
    the reference and vectorized sweep paths charge the *same* canonical
    cost — one round in which every node sends its final color index to
    every neighbor — making ``greedy`` vs ``greedy_vectorized`` a valid
    cross-engine equivalence pair (identical per-round rows by
    construction, same bit convention as the schedule reduction's
    announcements).  The ``recorder``, if any, is finalized on it.
    """
    from ..sim.engine import record_uniform_round, synthesized_metrics
    from ..sim.message import index_bits

    metrics = synthesized_metrics(n)
    bits = index_bits(max(2, space_size))
    record_uniform_round(metrics, recorder, 2 * m, bits, uncolored=0)
    if recorder is not None:
        recorder.finalize(metrics, n=n, m=m, palette=space_size)
    return metrics


def _fault_plan(params: Mapping[str, Any]):
    """The cell's :class:`~repro.faults.FaultPlan` from ``algo_params``."""
    from ..faults import FaultPlan

    return FaultPlan.from_dict(dict(params.get("faults") or {}))


# Fast paths: one runner per algorithm over k cells, given their
# _CellGraphs, params, recorders and fk24 configs (one each per cell).  A
# runner returns one ``(result, metrics, palette)`` or exception per cell;
# compute_cell is its one-cell call, compute_cells_batched its many-cell
# call.  The kernels read each cell's CSR; only greedy, whose instances are
# networkx-based, asks for the cell's graph too.
def _unless_failed(outs: list, adapt: Callable) -> list:
    """``adapt`` applied to every outcome that is not an exception."""
    return [o if isinstance(o, BaseException) else adapt(o) for o in outs]


def _run_linial_vectorized(cgs, params, recs, configs, *, faulty=False):
    from ..sim.batch import linial_vectorized_batch

    return linial_vectorized_batch(
        [cg.freeze() for cg in cgs],
        defect=[int(p.get("defect", 0)) for p in params],
        recorders=recs,
        faults=[_fault_plan(p) for p in params] if faulty else None,
        return_exceptions=True,
    )


def _run_linial_faulty_vectorized(cgs, params, recs, configs):
    return _run_linial_vectorized(cgs, params, recs, configs, faulty=True)


def _run_classic_vectorized(cgs, params, recs, configs):
    from ..sim.batch import classic_delta_plus_one_vectorized_batch

    outs = classic_delta_plus_one_vectorized_batch(
        [cg.freeze() for cg in cgs], recorders=recs, return_exceptions=True
    )
    return _unless_failed(outs, lambda o: (o[0], o[1], None))


def _run_greedy_vectorized(cgs, params, recs, configs):
    from ..core.instance import delta_plus_one_instance
    from ..sim.batch import greedy_list_vectorized_batch

    csrs = [cg.freeze() for cg in cgs]
    instances = [delta_plus_one_instance(cg.graph) for cg in cgs]
    outs = greedy_list_vectorized_batch(instances, return_exceptions=True)
    return [
        o
        if isinstance(o, BaseException)
        else (
            o,
            _announce_coloring_metrics(
                csr.n, csr.num_directed_edges // 2, inst.space.size, rec
            ),
            inst.space.size,
        )
        for csr, inst, rec, o in zip(csrs, instances, recs, outs)
    ]


def _run_defective_split(cgs, params, recs, configs):
    from ..core.coloring import ColoringResult
    from ..sim.batch import defective_split_vectorized_batch

    outs = defective_split_vectorized_batch(
        [cg.freeze() for cg in cgs],
        defect=[int(p.get("defect", 1)) for p in params],
        recorders=recs,
        return_exceptions=True,
    )
    return _unless_failed(outs, lambda o: (ColoringResult(o[0]), o[1], o[2]))


def _run_linial_reference(graph, params, recorder=None):
    from ..algorithms.linial import run_linial

    res, metrics, palette = run_linial(
        graph, defect=int(params.get("defect", 0)), recorder=recorder
    )
    return res, metrics, palette


def _run_classic_reference(graph, params, recorder=None):
    from ..algorithms.reduction import classic_delta_plus_one

    res, metrics = classic_delta_plus_one(graph, recorder=recorder)
    return res, metrics, None


def _run_greedy_reference(graph, params, recorder=None):
    from ..algorithms.greedy import greedy_list_coloring
    from ..core.instance import delta_plus_one_instance

    instance = delta_plus_one_instance(graph)
    res = greedy_list_coloring(instance)
    space = instance.space.size
    n, m = graph.number_of_nodes(), graph.number_of_edges()
    return res, _announce_coloring_metrics(n, m, space, recorder), space


def _run_linial_faulty_reference(graph, params, recorder=None):
    from ..algorithms.linial import run_linial

    res, metrics, palette = run_linial(
        graph,
        defect=int(params.get("defect", 0)),
        recorder=recorder,
        faults=_fault_plan(params),
    )
    return res, metrics, palette


def _run_linial_resilient(graph, params, recorder=None):
    """Wrapped Linial under faults (:func:`repro.faults.resilient_linial`).

    Metrics merge every attempt sequentially, so the recorder's record
    carries the concatenated per-round accounting of all attempts; the
    restart history lands in the cell record's ``resilience`` field via
    the info dict returned here.
    """
    from ..faults import resilient_linial

    res, metrics, palette, info = resilient_linial(
        graph,
        _fault_plan(params),
        defect=int(params.get("defect", 0)),
        retries=int(params.get("retries", 2)),
        restarts=int(params.get("restarts", 2)),
    )
    if recorder is not None:
        recorder.finalize(
            metrics,
            n=graph.number_of_nodes(),
            m=graph.number_of_edges(),
            palette=palette,
        )
    return res, metrics, palette, info


def _fk24_cell_config(graph, params):
    """The cell's (lists, space, defect) — built once per cell and shared by
    its run (fast path, reference path or batched twin, so all three run
    the identical instance) and its validation.  ``graph`` is the cell's
    networkx graph or its CSR (the lists are the same).  ``slack`` widens
    every list; ``list_seed`` switches from palette-prefix lists to
    per-node sampled (gappy) ones."""
    from ..algorithms.fk24 import fk24_lists

    defect = int(params.get("defect", 1))
    seed = params.get("list_seed")
    lists, space = fk24_lists(
        graph,
        defect,
        slack=int(params.get("slack", 0)),
        seed=None if seed is None else int(seed),
    )
    return lists, space, defect


def _run_fk24_vectorized(cgs, params, recs, configs):
    from ..sim.batch import fk24_vectorized_batch

    return fk24_vectorized_batch(
        [cg.freeze() for cg in cgs],
        lists=[c[0] for c in configs],
        space_size=[c[1] for c in configs],
        defect=[c[2] for c in configs],
        recorders=recs,
        return_exceptions=True,
    )


def _run_fk24_reference(graph, params, recorder=None, *, config):
    from ..algorithms.fk24 import run_fk24

    lists, space, defect = config
    res, metrics, palette = run_fk24(
        graph, lists=lists, space_size=space, defect=defect, recorder=recorder
    )
    return res, metrics, palette


#: The engine fast paths, each a runner over k cells.  A worker batch whose
#: pending cells share one of these algorithms runs them as one
#: block-diagonal execution (:func:`compute_cells_batched`); a lone cell
#: runs through the same runner (:func:`compute_cell`).
FAST_PATHS: dict[str, Callable] = {
    "linial_vectorized": _run_linial_vectorized,
    "classic_vectorized": _run_classic_vectorized,
    "greedy_vectorized": _run_greedy_vectorized,
    "defective_split": _run_defective_split,
    "linial_faulty_vectorized": _run_linial_faulty_vectorized,
    "fk24_vectorized": _run_fk24_vectorized,
}


#: Recorder-aware reference twins of the fast paths.  ``classic`` shadows
#: the registry entry of the same name so sweep cells get per-round
#: observability records; outputs and metrics are identical either way.
#: ``linial_faulty``/``linial_resilient`` run the fault-injected variants
#: (plan taken from ``algo_params["faults"]``).
REFERENCE_PATHS: dict[str, Callable] = {
    "linial": _run_linial_reference,
    "classic": _run_classic_reference,
    "greedy": _run_greedy_reference,
    "linial_faulty": _run_linial_faulty_reference,
    "linial_resilient": _run_linial_resilient,
    "fk24": _run_fk24_reference,
}


def algorithm_names() -> list[str]:
    """Every algorithm name a sweep cell may reference."""
    from ..algorithms.registry import algorithm_names as registry_names

    return sorted(
        set(FAST_PATHS) | set(REFERENCE_PATHS) | set(registry_names())
    )


def _is_fk24(algorithm: str) -> bool:
    return algorithm.startswith("fk24")


def _validate(csr, result, algorithm, params, config=None) -> bool:
    """Vectorized validity check appropriate to the algorithm's contract,
    on the cell's CSR.  ``config`` is an fk24 cell's
    :func:`_fk24_cell_config`, the one its run used."""
    from ..core.validate import list_arbdefective_csr_ok, validate_defective_csr

    if _is_fk24(algorithm):
        # list arbdefective contract: the defect budget counts
        # same-colored *out*-neighbors under the result's orientation
        lists, _space, defect = config
        return list_arbdefective_csr_ok(csr, result, lists, defect)

    default = 1 if algorithm.startswith("defective_split") else 0
    allowed = int(params.get("defect", default))
    return validate_defective_csr(csr, result.assignment, allowed).ok


def _ok_record(
    cell: SweepCell,
    csr,
    outcome: tuple,
    params: Mapping[str, Any],
    config,
    recorder,
    *,
    wall_s: float,
    batched_with: int,
    **extra: Any,
) -> dict[str, Any]:
    """The ``ok`` record of a computed cell, for both sweep paths.

    ``outcome`` is the run's ``(result, metrics, palette)``.  The record's
    ``n``/``m``/``delta`` come from ``csr``, the cell's one frozen
    topology, which its validation reads too.
    """
    result, metrics, palette = outcome
    run_record = recorder.record if recorder is not None else None
    record = dict(cell.spec())
    record.update(
        key=cell_key(cell),
        schema=SWEEP_CACHE_SCHEMA,
        status="ok",
        n=csr.n,
        m=csr.num_directed_edges // 2,
        delta=int(csr.degrees.max()) if csr.n else 0,
        colors=result.num_colors(),
        valid=_validate(csr, result, cell.algorithm, params, config),
        palette=palette,
        metrics=metrics.summary() if metrics is not None else None,
        wall_s=wall_s,
        batched_with=batched_with,
        timings=dict(run_record.timings) if run_record is not None else {},
        run_record=run_record.to_dict() if run_record is not None else None,
        **extra,
    )
    return record


def _run_fast(
    cells: Sequence[SweepCell], cgs: Sequence[_CellGraph], *, quarantine: bool
) -> list[dict[str, Any]]:
    """Run the cells' shared :data:`FAST_PATHS` algorithm over them in one
    call and return one record per cell.

    Each cell's CSR is frozen once, under its recorder's ``csr_build``
    phase, and serves the kernel, the record's ``n``/``m``/``delta`` and
    the validation (an fk24 cell likewise builds its lists once, for its
    run and its validation).  ``wall_s`` is the wall time of the whole
    call, less any networkx graph builds; ``batched_with`` is the cell
    count.  A cell whose run raised becomes its :func:`failed_record`
    with ``quarantine``, and otherwise the first such error is raised.
    """
    from ..obs import RunRecorder
    from ..sim.backends import backend_of_sweep_algorithm

    algorithm = cells[0].algorithm
    engine = backend_of_sweep_algorithm(algorithm).engine
    params = [dict(cell.spec()["algo_params"]) for cell in cells]
    recs = [RunRecorder(engine=engine, algorithm=algorithm) for _ in cells]
    t0 = time.perf_counter()
    for cg, rec in zip(cgs, recs):
        with rec.profiler.phase("csr_build"):
            cg.freeze()
    configs = [
        _fk24_cell_config(cg.freeze(), p) if _is_fk24(algorithm) else None
        for cg, p in zip(cgs, params)
    ]
    outcomes = FAST_PATHS[algorithm](cgs, params, recs, configs)
    wall = time.perf_counter() - t0 - sum(cg.graph_build_s for cg in cgs)
    records = []
    for cell, cg, p, config, rec, outcome in zip(
        cells, cgs, params, configs, recs, outcomes
    ):
        if not isinstance(outcome, BaseException):
            records.append(
                _ok_record(
                    cell, cg.freeze(), outcome, p, config, rec,
                    wall_s=wall, batched_with=len(cells),
                )
            )
        elif quarantine:
            records.append(
                failed_record(cell, outcome, wall_s=wall, batched_with=len(cells))
            )
        else:
            raise outcome
    return records


def compute_cell(cell: SweepCell) -> dict[str, Any]:
    """Build the cell's graph, run its algorithm, and return the record.

    A :data:`FAST_PATHS` cell is the one-cell call of its runner
    (:func:`_run_fast`).  A family with an edge emitter is frozen straight
    from its edges; its networkx graph is built only if the cell's path
    asks for one (reference, registry and greedy paths), and that build,
    like the edge generation, stays out of ``wall_s``.  Fast-path and
    reference-path cells run under a :class:`~repro.obs.RunRecorder`, so
    the record carries the full per-round :class:`~repro.obs.RunRecord`
    (``run_record``) and the profiler's phase timings (``timings``);
    registry-only algorithms set both to their empty values.  Raises
    propagate — quarantine into :func:`failed_record` is the *batch*
    layer's job, so direct callers still see real exceptions.
    """
    from ..algorithms import registry
    from ..obs import RunRecorder
    from ..sim.backends import backend_of_sweep_algorithm

    cg = _CellGraph(cell.family, dict(cell.family_params))
    if cell.algorithm in FAST_PATHS:
        (record,) = _run_fast([cell], [cg], quarantine=False)
        return record

    algo_params = dict(cell.spec()["algo_params"])
    t0 = time.perf_counter()
    palette = None
    recorder = None
    config = None
    extra: dict[str, Any] = {}
    if cell.algorithm not in REFERENCE_PATHS:
        result, metrics = registry.run(cell.algorithm, cg.graph)
    else:
        engine = backend_of_sweep_algorithm(cell.algorithm).engine
        recorder = RunRecorder(engine=engine, algorithm=cell.algorithm)
        kw = {}
        if _is_fk24(cell.algorithm):
            config = kw["config"] = _fk24_cell_config(cg.graph, algo_params)
        out = REFERENCE_PATHS[cell.algorithm](cg.graph, algo_params, recorder, **kw)
        if len(out) == 4:  # resilient path also returns restart info
            result, metrics, palette, info = out
            extra["resilience"] = info
        else:
            result, metrics, palette = out
    wall = time.perf_counter() - t0 - cg.graph_build_s

    return _ok_record(
        cell,
        cg.freeze(),
        (result, metrics, palette),
        algo_params,
        config,
        recorder,
        wall_s=wall,
        batched_with=1,
        **extra,
    )


def failed_record(
    cell: SweepCell,
    exc: BaseException,
    wall_s: float = 0.0,
    batched_with: int = 1,
) -> dict[str, Any]:
    """The quarantine record of a cell whose computation raised.

    Shape-compatible with an ``ok`` record (same spec/key/schema fields,
    analysis-facing fields nulled) plus ``status: "failed"`` and a
    structured ``error`` — enough to re-identify, report, and retry the
    cell without ever aborting the sweep that hit it.
    """
    record = dict(cell.spec())
    record.update(
        key=cell_key(cell),
        schema=SWEEP_CACHE_SCHEMA,
        status="failed",
        error={"type": type(exc).__name__, "message": str(exc)},
        n=None,
        m=None,
        delta=None,
        colors=None,
        valid=False,
        palette=None,
        metrics=None,
        wall_s=wall_s,
        batched_with=batched_with,
        timings={},
        run_record=None,
    )
    return record


def compute_cells_batched(cells: Sequence[SweepCell]) -> list[dict[str, Any]]:
    """Compute same-algorithm cells as one block-diagonal batched run.

    The many-cell call of the algorithm's :data:`FAST_PATHS` runner: the
    cells' CSRs are packed into a single
    :class:`~repro.sim.batch.BatchCSRGraph` execution, and a
    ``random_regular`` cell of any fast path but greedy builds no networkx
    graph.  Per-cell records come back identical to :func:`compute_cell`'s
    except for the clock fields: ``wall_s`` is the *actual* wall time of
    the whole batched engine invocation (not an even split — splitting
    fabricated per-cell times that no clock ever measured),
    ``batched_with`` records how many cells shared that invocation (so
    per-cell cost is ``wall_s / batched_with``), and ``timings`` are the
    shared batch phases.  Per-cell quarantine is preserved: a cell whose
    graph build or in-batch run raises (e.g. a crash-stop
    :class:`~repro.sim.node.HaltingError`) yields its
    :func:`failed_record` while sibling cells still land ``ok``.
    """
    algorithms = {cell.algorithm for cell in cells}
    if len(algorithms) != 1:
        raise ValueError(
            "compute_cells_batched needs cells sharing one algorithm, got "
            f"{sorted(algorithms)}"
        )
    (algorithm,) = algorithms
    if algorithm not in FAST_PATHS:
        raise ValueError(f"algorithm {algorithm!r} has no batched path")

    out: list[dict[str, Any] | None] = [None] * len(cells)
    built: list[tuple[int, SweepCell, _CellGraph]] = []
    for pos, cell in enumerate(cells):
        t0 = time.perf_counter()
        try:
            built.append((pos, cell, _CellGraph(cell.family, dict(cell.family_params))))
        except Exception as exc:
            out[pos] = failed_record(cell, exc, wall_s=time.perf_counter() - t0)
    if built:
        positions, built_cells, cgs = zip(*built)
        records = _run_fast(built_cells, cgs, quarantine=True)
        for pos, record in zip(positions, records):
            out[pos] = record
    return out  # type: ignore[return-value]


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
def _cache_path(cache_dir: Path, key: str) -> Path:
    return cache_dir / f"{key}.json"


def load_cached_detailed(
    cache_dir: Path | str, cell: SweepCell
) -> tuple[dict[str, Any] | None, str]:
    """The cached record of a cell plus the probe verdict.

    Returns ``(record, status)`` with status one of:

    * ``"hit"`` — a current-schema ``ok`` record;
    * ``"failed"`` — a current-schema quarantined failure record (served,
      so a poisoned cell does not re-poison every rerun; pass
      ``recompute=True`` to retry it);
    * ``"miss"`` — no file;
    * ``"stale"`` — readable JSON under another
      :data:`SWEEP_CACHE_SCHEMA` (recompute, file left to be overwritten);
    * ``"corrupt"`` — unreadable file; it is renamed to
      ``<key>.json.corrupt`` so the evidence survives while the cell
      recomputes fresh.

    ``record`` is ``None`` except for ``hit``/``failed``.
    """
    path = _cache_path(Path(cache_dir), cell_key(cell))
    if not path.exists():
        return None, "miss"
    try:
        record = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        quarantine = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, quarantine)
        except OSError:
            pass  # e.g. racing rerun already moved it; recompute regardless
        return None, "corrupt"
    if not isinstance(record, dict) or record.get("schema") != SWEEP_CACHE_SCHEMA:
        return None, "stale"
    if record.get("status", "ok") == "failed":
        return record, "failed"
    return record, "hit"


def load_cached(cache_dir: Path | str, cell: SweepCell) -> dict[str, Any] | None:
    """The cached ``ok`` record of a cell, or ``None``.

    Thin wrapper over :func:`load_cached_detailed` (which also quarantines
    unreadable files as ``.json.corrupt``); failure records, stale
    schemas, and corrupt files all read as misses here.
    """
    record, status = load_cached_detailed(cache_dir, cell)
    return record if status == "hit" else None


def store_cached(cache_dir: Path | str, record: dict[str, Any]) -> Path:
    """Atomically persist a cell record under its key.

    Delegates to :func:`repro.atomic.atomic_write_text`: the staging
    file name embeds pid + a random token, so two processes racing to
    publish the *same* cell (which under the old
    ``path.with_suffix(".tmp")`` scheme shared one staging path and
    could interleave writes before either ``os.replace``) each stage
    privately and the cache only ever sees one complete record.  A
    crash mid-write leaves a uniquely-named ``.tmp`` that
    :func:`repro.atomic.sweep_stale_tmp` reclaims on the next cache
    load instead of a torn cache entry.
    """
    cache_dir = Path(cache_dir)
    path = _cache_path(cache_dir, record["key"])
    return atomic_write_text(path, json.dumps(record, sort_keys=True, indent=1))


def corrupt_cache_files(cache_dir: Path | str) -> list[Path]:
    """Quarantined ``.json.corrupt`` files under ``cache_dir`` (sorted)."""
    cache_dir = Path(cache_dir)
    if not cache_dir.is_dir():
        return []
    return sorted(cache_dir.glob("*.json.corrupt"))


# ----------------------------------------------------------------------
# deterministic partitioning + parallel execution
# ----------------------------------------------------------------------
def partition_cells(
    cells: Sequence[SweepCell], workers: int
) -> list[list[SweepCell]]:
    """Deal cells to workers deterministically: sort by cache key, then
    round-robin.  The assignment depends only on (cell set, worker count),
    never on timing, so reruns are reproducible."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    ordered = sorted(cells, key=cell_key)
    return [ordered[w::workers] for w in range(workers)]


def _compute_batch(
    specs: list[dict[str, Any]], cache_dir: str | None = None
) -> list[dict[str, Any]]:
    """Worker entry point: compute a batch of cells from their spec dicts.

    With a ``cache_dir``, records are persisted the moment they are
    computed (per-cell checkpoint) and already-checkpointed cells are
    served from disk — so a batch re-submitted after its worker died
    resumes where the dead worker stopped instead of starting over.

    Cells that survive the cache probe and share a
    :data:`FAST_PATHS` algorithm run together as one
    block-diagonal :func:`compute_cells_batched` execution (cached cells
    are excluded from the packing — no recompute); everything else falls
    back to the per-cell loop.  Either way, a cell whose computation
    raises is quarantined as a :func:`failed_record`; the rest of the
    batch still runs.
    """
    cells = [
        SweepCell.make(
            spec["family"],
            spec["family_params"],
            spec["algorithm"],
            spec["algo_params"],
        )
        for spec in specs
    ]
    out: list[dict[str, Any] | None] = [None] * len(cells)
    pending: list[int] = []
    for i, cell in enumerate(cells):
        if cache_dir is not None:
            cached, status = load_cached_detailed(cache_dir, cell)
            if status in ("hit", "failed"):
                out[i] = cached
                continue
        pending.append(i)

    groups: dict[str, list[int]] = {}
    singles: list[int] = []
    for i in pending:
        if cells[i].algorithm in FAST_PATHS:
            groups.setdefault(cells[i].algorithm, []).append(i)
        else:
            singles.append(i)
    for algorithm in sorted(groups):
        idxs = groups[algorithm]
        if len(idxs) < 2:  # nothing to batch; the per-cell loop is simpler
            singles.extend(idxs)
            continue
        try:
            records = compute_cells_batched([cells[i] for i in idxs])
        except Exception:
            singles.extend(idxs)  # batching itself broke; per-cell fallback
            continue
        for i, record in zip(idxs, records):
            if cache_dir is not None:
                store_cached(cache_dir, record)
            out[i] = record

    for i in sorted(singles):
        t0 = time.perf_counter()
        try:
            record = compute_cell(cells[i])
        except Exception as exc:
            record = failed_record(cells[i], exc, wall_s=time.perf_counter() - t0)
        if cache_dir is not None:
            store_cached(cache_dir, record)
        out[i] = record
    return out  # type: ignore[return-value]


def run_sweep(
    cells: Sequence[SweepCell],
    cache_dir: Path | str | None = None,
    workers: int | None = None,
    recompute: bool = False,
) -> list[CellResult]:
    """Execute a sweep, computing only uncached cells.

    Parameters
    ----------
    cells:
        The grid, in caller order (results come back in the same order).
    cache_dir:
        Directory of per-cell JSON records; ``None`` disables caching.
    workers:
        Worker process count for the missing cells.  ``None`` picks
        ``min(len(missing), cpu_count)``; values <= 1 compute inline
        (no subprocesses), which is also the final fallback when worker
        processes keep dying (see :func:`_compute_parallel`).
    recompute:
        Ignore existing cache entries; their files are removed up front so
        the per-cell checkpoint layer cannot resurrect them mid-run.

    A cell that raises never aborts the sweep — it comes back as a
    ``status: "failed"`` record (see :func:`failed_record`), cached like
    any other result.
    """
    if cache_dir is not None:
        # reclaim staging litter from crashed publishers before reading;
        # age-gated so a live writer's in-flight .tmp is left alone
        sweep_stale_tmp(cache_dir)
    results: dict[str, CellResult] = {}
    statuses: dict[str, str] = {}
    missing: list[SweepCell] = []
    seen: set[str] = set()
    for cell in cells:
        key = cell_key(cell)
        if key in seen:
            continue
        seen.add(key)
        if recompute or cache_dir is None:
            cached, status = None, "miss"
        else:
            cached, status = load_cached_detailed(cache_dir, cell)
        statuses[key] = status
        if cached is not None:
            results[key] = CellResult(
                cell, cached, cached=True, cache_status=status
            )
        else:
            missing.append(cell)

    if recompute and cache_dir is not None:
        for cell in missing:
            path = _cache_path(Path(cache_dir), cell_key(cell))
            path.unlink(missing_ok=True)

    if missing:
        if workers is None:
            workers = min(len(missing), os.cpu_count() or 1)
        workers = max(1, min(workers, len(missing)))
        cache_arg = None if cache_dir is None else str(cache_dir)
        if workers == 1:
            records = _compute_batch([c.spec() for c in missing], cache_arg)
        else:
            records = _compute_parallel(missing, workers, cache_arg)
        for record in records:
            cell = SweepCell.make(
                record["family"],
                record["family_params"],
                record["algorithm"],
                record["algo_params"],
            )
            if cache_dir is not None:
                store_cached(cache_dir, record)
            results[record["key"]] = CellResult(
                cell,
                record,
                cached=False,
                cache_status=statuses.get(record["key"], "miss"),
            )

    ordered: list[CellResult] = []
    emitted: set[str] = set()
    for cell in cells:
        key = cell_key(cell)
        if key not in emitted:
            ordered.append(results[key])
            emitted.add(key)
    return ordered


def _compute_parallel(
    missing: Sequence[SweepCell],
    workers: int,
    cache_dir: str | None = None,
    max_batch_retries: int = MAX_BATCH_RETRIES,
) -> list[dict[str, Any]]:
    """Fan the missing cells out over worker processes, crash-tolerantly.

    Per-batch futures (not one ``pool.map``) so one dead worker costs one
    batch, not the whole sweep's results: batches whose future resolves
    keep their records; batches whose worker died are re-submitted on a
    fresh pool with exponential backoff, up to ``max_batch_retries``
    times, and finally computed inline.  With a ``cache_dir``, retried
    batches resume from the dead worker's per-cell checkpoints (see
    :func:`_compute_batch`), so no finished cell is ever recomputed.
    """
    import concurrent.futures as cf
    import multiprocessing as mp

    batches = [
        [c.spec() for c in batch]
        for batch in partition_cells(missing, workers)
        if batch
    ]
    try:
        ctx = mp.get_context("fork")
    except ValueError:
        ctx = mp.get_context()
    done: list[list[dict[str, Any]] | None] = [None] * len(batches)
    pending = list(range(len(batches)))
    for attempt in range(1 + max_batch_retries):
        if not pending:
            break
        if attempt:
            time.sleep(min(0.25, 0.05 * 2 ** (attempt - 1)))
        try:
            with cf.ProcessPoolExecutor(
                max_workers=min(len(pending), workers), mp_context=ctx
            ) as pool:
                futures = {
                    i: pool.submit(_compute_batch, batches[i], cache_dir)
                    for i in pending
                }
                for i, fut in futures.items():
                    try:
                        done[i] = fut.result()
                    except (OSError, cf.process.BrokenProcessPool):
                        pass  # this batch's worker died; retry below
        except (OSError, cf.process.BrokenProcessPool):
            pass  # pool-level failure; every unresolved batch retries
        pending = [i for i in pending if done[i] is None]
    for i in pending:  # last resort: no subprocess, quarantine still applies
        done[i] = _compute_batch(batches[i], cache_dir)
    return [record for chunk in done for record in chunk or []]


# ----------------------------------------------------------------------
# grid construction helper
# ----------------------------------------------------------------------
def grid(
    family: str,
    algorithms: Sequence[str],
    ns: Sequence[int],
    seeds: Sequence[int] = (0,),
    extra_family_params: Mapping[str, Any] | None = None,
    algo_params: Mapping[str, Any] | None = None,
) -> list[SweepCell]:
    """The standard experiment grid: ``algorithms x ns x seeds`` cells.

    Family parameters that the generator does not accept (``seed`` for
    deterministic families, ``n`` for fixed-size ones) are dropped, so one
    call works across families.
    """
    import inspect

    from ..graphs import generators

    fn = getattr(generators, family, None)
    if family.startswith("_") or not inspect.isfunction(fn):
        raise KeyError(
            f"unknown graph family {family!r}; try `repro-cli families`"
        )
    accepted = set(inspect.signature(fn).parameters)
    cells = []
    for algorithm in algorithms:
        for n in ns:
            for seed in seeds:
                params = {"n": n, "seed": seed, **(extra_family_params or {})}
                params = {k: v for k, v in params.items() if k in accepted}
                cells.append(
                    SweepCell.make(family, params, algorithm, algo_params)
                )
    return cells


@dataclass
class SweepSummary:
    """Headline counters of one :func:`run_sweep` invocation.

    ``corrupt``/``stale`` count cache probes that found an unreadable /
    foreign-schema file (those cells then recomputed); ``failed`` counts
    results carrying a quarantined failure record, whether freshly
    computed or served from the cache.
    """

    total: int = 0
    computed: int = 0
    cached: int = 0
    corrupt: int = 0
    stale: int = 0
    failed: int = 0
    results: list[CellResult] = field(default_factory=list)


def run_sweep_summarized(
    cells: Sequence[SweepCell],
    cache_dir: Path | str | None = None,
    workers: int | None = None,
    recompute: bool = False,
) -> SweepSummary:
    """:func:`run_sweep` plus computed-vs-cached accounting (CLI + tests)."""
    results = run_sweep(cells, cache_dir, workers, recompute)
    cached = sum(1 for r in results if r.cached)
    return SweepSummary(
        total=len(results),
        computed=len(results) - cached,
        cached=cached,
        corrupt=sum(1 for r in results if r.cache_status == "corrupt"),
        stale=sum(1 for r in results if r.cache_status == "stale"),
        failed=sum(1 for r in results if r.failed),
        results=results,
    )
