"""Single-instance entry points of the vectorized fast paths (NumPy).

The reference simulator charges every message individually — perfect for
bit accounting, too slow for n in the hundreds of thousands.  For the
schedule-driven algorithms whose per-round behavior is a pure function of
(current colors, neighbor colors), the fast paths are bit-for-bit
equivalent runs on the shared CSR execution layer in
:mod:`repro.sim.engine`:

* :func:`linial_vectorized` — Linial's coloring and the [Kuh09] defective
  variant, on the **same schedule** and with the **same tie-breaking**
  (smallest evaluation point among minimal collision counts, which equals
  NumPy's first-occurrence ``argmin``) as the reference;
* :func:`fk24_vectorized` — the [FK24] iterative list-defective coloring;
* :func:`classic_delta_plus_one_vectorized` — Linial followed by the
  classic one-class-per-round list reduction
  (:func:`schedule_reduction_vectorized`);
* :func:`defective_split_vectorized` — the defective-split decomposition
  step of :func:`repro.algorithms.defective.defective_class_partition`,
  with vectorized defect validation;
* :func:`greedy_list_vectorized` — the sequential greedy of
  :func:`repro.algorithms.greedy.greedy_list_coloring` for zero-defect
  list instances, with O(deg) array work per node.

Each algorithm has one implementation, in :mod:`repro.sim.batch`: the
functions here are the k=1 calls of its batched drivers (the schedule
reduction and the greedy scan are defined there and re-exported here).
All fast paths synthesize metrics identical to the reference run's.
Equivalence is enforced by tests (`tests/test_vectorized.py`) comparing
outputs and metrics against the reference implementations node for node.
Methodology per the HPC guides: the reference stays the readable source
of truth; the hot path is vectorized only after being measured as the
bottleneck for large-n experiments (E14).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import networkx as nx

from ..core.coloring import ColoringResult
from .batch import (
    classic_delta_plus_one_vectorized_batch,
    defective_split_vectorized_batch,
    fk24_vectorized_batch,
    greedy_list_vectorized,
    linial_vectorized_batch,
    schedule_reduction_vectorized,
)
from .engine import CSRGraph
from .metrics import RunMetrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> sim)
    from ..obs import RunRecorder

__all__ = [
    "classic_delta_plus_one_vectorized",
    "defective_split_vectorized",
    "fk24_vectorized",
    "greedy_list_vectorized",
    "linial_vectorized",
    "schedule_reduction_vectorized",
]


def linial_vectorized(
    graph: "nx.Graph | CSRGraph",
    initial_colors: dict[int, int] | None = None,
    defect: int = 0,
    recorder: "RunRecorder | None" = None,
    faults=None,
    _finalize_recorder: bool = True,
) -> tuple[ColoringResult, RunMetrics, int]:
    """Vectorized twin of :func:`repro.algorithms.linial.run_linial`.

    Returns the identical ``(coloring, metrics, palette)`` triple; see the
    module docstring for the equivalence contract.  This is the k=1 call
    of :func:`~repro.sim.batch.linial_vectorized_batch`.  ``recorder`` (a
    :class:`~repro.obs.RunRecorder`) additionally collects one
    observability row per schedule step — every node is active in every
    round, exactly as in the reference run — plus ``csr_build`` /
    ``schedule`` / ``rounds`` phase timings.  ``faults`` (a
    :class:`~repro.faults.FaultPlan`) switches to the mask-based faulty
    kernel, which replays the plan's exact message/crash schedule and is
    bit-for-bit equivalent to ``run_linial(..., faults=plan)`` — outputs,
    metrics, and the per-round fault column family all match (the
    standing cross-engine contract under fault injection); a plan that
    exhausts the round budget raises the reference's
    :class:`~repro.sim.node.HaltingError` after flushing the recorder.
    ``graph`` may be an already-frozen
    :class:`~repro.sim.engine.CSRGraph`, which a composing fast path
    passes to avoid freezing the topology twice.
    """
    (out,) = linial_vectorized_batch(
        [graph],
        initial_colors=[initial_colors],
        defect=defect,
        recorders=[recorder],
        faults=[faults],
        _finalize_recorders=_finalize_recorder,
    )
    return out


def defective_split_vectorized(
    graph: "nx.Graph | CSRGraph",
    defect: int,
    validate: bool = True,
    recorder: "RunRecorder | None" = None,
) -> tuple[dict[int, int], RunMetrics, int]:
    """Fast path for the defective-split decomposition step
    (:func:`repro.algorithms.defective.defective_class_partition`).

    Returns the identical ``(classes, metrics, palette)`` triple: the
    class index of each node under a ``defect``-defective coloring, so
    each class induces a subgraph of maximum degree <= ``defect``
    (the graph-decomposition step of the Theorem 1.3 transformation).
    Validation is vectorized (per-node same-color neighbor counts via one
    integer bincount) instead of the reference's per-edge Python scan;
    with a ``recorder`` attached it is timed as a ``validate`` phase.

    The topology is frozen into a :class:`CSRGraph` exactly once (or
    ``graph`` already is one): the same CSR drives the Linial run, the
    defect validation, and the finalized record's ``n``/``m`` (``n``
    asserted against the run's own node count), so validation can never
    silently audit a different adjacency than the one the coloring was
    computed on.
    """
    (out,) = defective_split_vectorized_batch(
        [graph], defect=defect, validate=validate, recorders=[recorder]
    )
    return out


def classic_delta_plus_one_vectorized(
    graph: "nx.Graph | CSRGraph",
    recorder: "RunRecorder | None" = None,
) -> tuple[ColoringResult, RunMetrics]:
    """Vectorized classic pipeline: Linial then the schedule reduction.

    Output-equivalent to
    :func:`repro.algorithms.reduction.classic_delta_plus_one` (tests
    compare node for node); usable at n in the hundreds of thousands.
    A ``recorder`` accumulates rows across both stages and is finalized
    once against the merged metrics.  The topology is frozen once (or
    ``graph`` already is a :class:`CSRGraph`) and shared by both stages.
    """
    (out,) = classic_delta_plus_one_vectorized_batch([graph], recorders=[recorder])
    return out


def fk24_vectorized(
    graph: "nx.Graph | CSRGraph",
    lists=None,
    space_size: int | None = None,
    defect: int = 1,
    recorder: "RunRecorder | None" = None,
    faults=None,
    _finalize_recorder: bool = True,
    adoption_out: dict | None = None,
) -> tuple[ColoringResult, RunMetrics, int]:
    """Vectorized twin of :func:`repro.algorithms.fk24.run_fk24`.

    Returns the identical ``(result, metrics, palette)`` triple —
    ``result.orientation`` orients monochromatic conflicts from later
    adopters to earlier ones, making the output a list arbdefective
    coloring — with per-round obs rows (message counts vary round to
    round as nodes adopt and halt, unlike the schedule-driven kernels).
    This is the k=1 call of :func:`~repro.sim.batch.fk24_vectorized_batch`.
    ``faults`` switches to the mask-based faulty kernel, bit-for-bit
    equivalent to ``run_fk24(..., faults=plan)`` including the fault
    column family and the (stretched) round budget, so a plan that
    livelocks the algorithm halts both engines with the identical
    :class:`~repro.sim.node.HaltingError` (raised after the recorder is
    flushed).  ``adoption_out``, if given, is filled with each node's
    adoption round.  ``graph`` may be a frozen
    :class:`~repro.sim.engine.CSRGraph`; the orientation is built from
    its arrays either way (:func:`~repro.sim.batch.adoption_orientation`).
    """
    (out,) = fk24_vectorized_batch(
        [graph],
        lists=[lists],
        space_size=space_size,
        defect=defect,
        recorders=[recorder],
        faults=[faults],
        _finalize_recorders=_finalize_recorder,
        adoption_outs=[adoption_out],
    )
    return out
