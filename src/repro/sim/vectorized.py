"""Vectorized fast paths for schedule-driven algorithms (NumPy).

The reference simulator charges every message individually — perfect for
bit accounting, too slow for n in the hundreds of thousands.  For the
schedule-driven algorithms whose per-round behavior is a pure function of
(current colors, neighbor colors), this module provides bit-for-bit
equivalent fast paths, all built on the shared CSR execution layer in
:mod:`repro.sim.engine`:

* :func:`linial_vectorized` — Linial's coloring and the [Kuh09] defective
  variant, on the **same schedule** and with the **same tie-breaking**
  (smallest evaluation point among minimal collision counts, which equals
  NumPy's first-occurrence ``argmin``) as the reference;
* :func:`fk24_vectorized` — the [FK24] iterative list-defective coloring;
* :func:`schedule_reduction_vectorized` — the classic one-class-per-round
  list reduction;
* :func:`greedy_list_vectorized` — the sequential greedy of
  :func:`repro.algorithms.greedy.greedy_list_coloring` for zero-defect
  list instances, with O(deg) array work per node;
* :func:`defective_split_vectorized` — the defective-split decomposition
  step of :func:`repro.algorithms.defective.defective_class_partition`,
  with vectorized defect validation.

:func:`linial_vectorized` and :func:`fk24_vectorized` are the k=1 calls of
the batched drivers in :mod:`repro.sim.batch`, which hold each
algorithm's round rule once, fault-free and faulty.  All fast paths
synthesize metrics identical to the reference run's.
Equivalence is enforced by tests (`tests/test_vectorized.py`) comparing
outputs and metrics against the reference implementations node for node.
Methodology per the HPC guides: the reference stays the readable source
of truth; the hot path is vectorized only after being measured as the
bottleneck for large-n experiments (E14).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING

import numpy as np
import networkx as nx

from ..core.coloring import ColoringResult
from .batch import fk24_vectorized_batch, linial_vectorized_batch
from .engine import (
    CSRGraph,
    as_csr,
    equal_neighbor_counts,
    ragged_lists,
    record_uniform_round,
    synthesized_metrics,
)
from .metrics import RunMetrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> sim)
    from ..obs import RunRecorder


def _phase(recorder: "RunRecorder | None", name: str):
    """The recorder's profiler phase, or a no-op when unobserved."""
    return recorder.profiler.phase(name) if recorder is not None else nullcontext()


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


def schedule_reduction_vectorized(
    graph: "nx.Graph | CSRGraph",
    schedule_colors: dict[int, int],
    palettes_size: int,
    recorder: "RunRecorder | None" = None,
    _finalize_recorder: bool = True,
) -> tuple[ColoringResult, RunMetrics]:
    """Vectorized twin of the one-class-per-round list reduction
    (:class:`repro.algorithms.reduction.ScheduledListColoring` with the
    shared palette ``range(palettes_size)``).

    Class ``c`` picks in round ``c`` the smallest palette color unused by
    already-finalized neighbors and announces it the following round;
    metrics are synthesized to match the reference run exactly (each node
    sends its color once to every neighbor, one round after picking).
    ``recorder`` rows carry the per-round uncolored count (nodes whose
    class has not picked yet).  ``graph`` may be a frozen
    :class:`~repro.sim.engine.CSRGraph`, as in :func:`linial_vectorized`.

    Raises ``ValueError`` with the reference's wording when two
    neighbors share a class ("schedule coloring not proper on edge",
    as :func:`~repro.algorithms.reduction.reduce_to_list_coloring`) and
    when a node finds no free palette color ("palette exhausted").
    """
    from .message import index_bits

    with _phase(recorder, "csr_build"):
        csr = as_csr(graph)
    n = csr.n
    src, dst = csr.src, csr.indices
    cls = csr.gather(schedule_colors)
    if n and int(cls.min()) < 0:
        raise ValueError("schedule colors must be >= 0")
    src_cls = cls[src]
    clash = np.flatnonzero(src_cls == cls[dst])
    if clash.size:
        u, v = csr.nodes[src[clash[0]]], csr.nodes[dst[clash[0]]]
        raise ValueError(f"schedule coloring not proper on edge {{{u},{v}}}")
    final = np.full(n, -1, dtype=np.int64)
    # column palettes_size stays free: a pick there means none was left
    taken = np.zeros((n, palettes_size + 1), dtype=bool)
    bits = index_bits(max(2, palettes_size))
    metrics = synthesized_metrics(n)

    max_cls = int(cls.max()) if n else 0
    # nodes picking *in* round r, and messages in round r: announcements
    # from the class that picked at r-1 (one per directed edge slot)
    picked_counts = np.bincount(cls, minlength=max_cls + 2)
    announce_counts = np.zeros(max_cls + 2, dtype=np.int64)
    announce_counts[1:] = np.bincount(src_cls, minlength=max_cls + 1)
    # class c's members and out-slots are contiguous runs of these orders
    node_order = np.argsort(cls, kind="stable")
    edge_order = np.argsort(src_cls, kind="stable")
    node_bounds = np.concatenate([[0], np.cumsum(picked_counts)]).tolist()
    edge_bounds = np.concatenate([[0], np.cumsum(announce_counts[1:])]).tolist()
    with _phase(recorder, "rounds"):
        for c in np.flatnonzero(picked_counts).tolist():
            members = node_order[node_bounds[c] : node_bounds[c + 1]]
            # smallest free color per member (first-occurrence argmax)
            picks = np.argmax(~taken[members], axis=1)
            if picks.max() == palettes_size:
                i = int(members[np.argmax(picks == palettes_size)])
                raise ValueError(
                    f"node {csr.nodes[i]}: palette exhausted "
                    f"(list size {palettes_size}, degree {int(csr.degrees[i])})"
                )
            final[members] = picks
            out = edge_order[edge_bounds[c] : edge_bounds[c + 1]]
            taken[dst[out], final[src[out]]] = True
        uncolored = n
        for picked, announced in zip(picked_counts.tolist(), announce_counts.tolist()):
            uncolored -= picked
            record_uniform_round(
                metrics, recorder, announced, bits, uncolored=uncolored
            )
    result = ColoringResult(csr.scatter(final))
    if recorder is not None and _finalize_recorder:
        recorder.finalize(
            metrics,
            n=n,
            m=csr.num_directed_edges // 2,
            palette=palettes_size,
            algorithm=recorder.algorithm or "schedule_reduction_vectorized",
        )
    return result, metrics


def greedy_list_vectorized(
    instance,
    order: list[int] | None = None,
    _csr: CSRGraph | None = None,
) -> ColoringResult:
    """Fast path for :func:`repro.algorithms.greedy.greedy_list_coloring`
    on **zero-defect** list instances (the (degree+1)-list case).

    Processes nodes in ``order`` (default: sorted node-label order, the
    reference greedy's default), each taking the first color of its list
    not held by an already-colored neighbor — the exact rule the reference
    greedy applies when every defect is zero, so the outputs match node
    for node (tested, including non-contiguous unsorted label regimes).
    Per-node work is O(deg) NumPy ops over the CSR arrays instead of the
    reference's repeated Python neighborhood scans.

    Raises ``ValueError`` on directed instances, on nonzero defects (the
    reference's budget semantics are inherently sequential), and when the
    greedy gets stuck.  ``_csr`` (internal) reuses an already-built CSR of
    ``instance.graph``.
    """
    if instance.directed:
        raise ValueError("greedy_list_vectorized expects an undirected instance")
    if any(d for dv in instance.defects.values() for d in dv.values()):
        raise ValueError(
            "greedy_list_vectorized handles zero-defect instances only; "
            "use repro.algorithms.greedy.greedy_list_coloring for defects"
        )
    csr = _csr if _csr is not None else CSRGraph.from_networkx(instance.graph)
    list_indptr, list_values = ragged_lists(csr, instance.lists)
    final = np.full(csr.n, -1, dtype=np.int64)
    # Default order is *sorted node labels* — the reference greedy's
    # default — mapped through the label index, never raw dense positions:
    # the two only coincide while the CSR build happens to sort labels,
    # and the equivalence contract must not depend on that coincidence.
    dense_order = [
        csr.index[v] for v in (order if order is not None else sorted(csr.nodes))
    ]
    for i in dense_order:
        neigh_colors = final[csr.neighbors_of(i)]
        neigh_colors = neigh_colors[neigh_colors >= 0]
        lst = list_values[list_indptr[i] : list_indptr[i + 1]]
        free = lst[~np.isin(lst, neigh_colors)]
        if not free.size:
            raise ValueError(f"greedy stuck at node {csr.nodes[i]}")
        final[i] = free[0]
    return ColoringResult(csr.scatter(final))


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
    if defect < 0:
        raise ValueError(f"defect must be >= 0, got {defect}")
    with _phase(recorder, "csr_build"):
        csr = as_csr(graph)
    result, metrics, palette = linial_vectorized(
        csr, defect=defect, recorder=recorder, _finalize_recorder=False
    )
    if validate:
        with _phase(recorder, "validate"):
            colors = csr.gather(result.assignment)
            same = equal_neighbor_counts(csr, colors)
            if same.size and int(same.max()) > defect:
                bad = csr.nodes[int(np.argmax(same))]
                raise ValueError(
                    f"defective split invalid: node {bad} has {int(same.max())} "
                    f"same-class neighbors (allowed {defect})"
                )
    if recorder is not None:
        n, m = csr.n, csr.num_directed_edges // 2
        assert n == len(result.assignment), (
            "defective_split_vectorized: finalize n drifted from the run's CSR"
        )
        recorder.finalize(
            metrics,
            n=n,
            m=m,
            palette=palette,
            algorithm=recorder.algorithm or "defective_split_vectorized",
        )
    return dict(result.assignment), metrics, palette


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
    with _phase(recorder, "csr_build"):
        csr = as_csr(graph)
    pre, m1, _palette = linial_vectorized(
        csr, recorder=recorder, _finalize_recorder=False
    )
    delta = int(csr.degrees.max()) if csr.n else 0
    res, m2 = schedule_reduction_vectorized(
        csr,
        pre.assignment,
        delta + 1,
        recorder=recorder,
        _finalize_recorder=False,
    )
    merged = m1.merge_sequential(m2)
    if recorder is not None:
        recorder.finalize(
            merged,
            n=csr.n,
            m=csr.num_directed_edges // 2,
            palette=delta + 1,
            algorithm=recorder.algorithm or "classic_vectorized",
        )
    return res, merged


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
