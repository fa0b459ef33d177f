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
* :func:`schedule_reduction_vectorized` — the classic one-class-per-round
  list reduction;
* :func:`greedy_list_vectorized` — the sequential greedy of
  :func:`repro.algorithms.greedy.greedy_list_coloring` for zero-defect
  list instances, with O(deg) array work per node;
* :func:`defective_split_vectorized` — the defective-split decomposition
  step of :func:`repro.algorithms.defective.defective_class_partition`,
  with vectorized defect validation.

All fast paths synthesize metrics identical to the reference run's
(per round, every node messages every neighbor one current color).
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

from ..core.coloring import ColoringResult, EdgeOrientation
from .engine import (
    CSRGraph,
    as_csr,
    collision_counts,
    equal_neighbor_counts,
    match_counts,
    pack_lists,
    poly_digits,
    poly_eval_grid,
    ragged_lists,
    record_uniform_round,
    synthesized_metrics,
)
from .message import int_bits
from .metrics import RunMetrics
from .node import HaltingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> sim)
    from ..obs import RunRecorder


def _phase(recorder: "RunRecorder | None", name: str):
    """The recorder's profiler phase, or a no-op when unobserved."""
    return recorder.profiler.phase(name) if recorder is not None else nullcontext()


def _edge_arrays(graph: nx.Graph) -> tuple[np.ndarray, np.ndarray, dict[int, int]]:
    """Directed edge arrays (both directions) over dense node indices.

    Backward-compatible wrapper over :class:`~repro.sim.engine.CSRGraph`;
    raises ``ValueError`` on directed inputs (a digraph used to be
    silently double-directed here).
    """
    csr = CSRGraph.from_networkx(graph)
    return csr.src, csr.indices, csr.index


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
    module docstring for the equivalence contract.  ``recorder`` (a
    :class:`~repro.obs.RunRecorder`) additionally collects one
    observability row per schedule step — every node is active in every
    round, exactly as in the reference run — plus ``csr_build`` /
    ``schedule`` / ``rounds`` phase timings.  ``faults`` (a
    :class:`~repro.faults.FaultPlan`) switches to the mask-based faulty
    kernel, which replays the plan's exact message/crash schedule and is
    bit-for-bit equivalent to ``run_linial(..., faults=plan)`` — outputs,
    metrics, and the per-round fault column family all match (the
    standing cross-engine contract under fault injection).  ``graph`` may
    be an already-frozen :class:`~repro.sim.engine.CSRGraph`, which a
    composing fast path passes to avoid freezing the topology twice.
    """
    from ..algorithms.linial import defective_schedule, linial_schedule

    with _phase(recorder, "csr_build"):
        csr = as_csr(graph)
    n = csr.n
    delta = int(csr.degrees.max()) if n else 0
    if initial_colors is None:
        initial_colors = {v: i for i, v in enumerate(csr.nodes)}
    m0 = max(initial_colors.values()) + 1 if initial_colors else 1
    with _phase(recorder, "schedule"):
        sched = (
            linial_schedule(m0, delta)
            if defect == 0
            else defective_schedule(m0, delta, defect)
        )
    palette = sched[-1].out_colors if sched else m0

    colors = csr.gather(initial_colors)
    # match the reference driver's default CONGEST budget
    metrics = synthesized_metrics(n)
    bits = int_bits(max(1, m0 - 1))
    per_round_messages = csr.num_directed_edges

    if faults is not None:
        try:
            with _phase(recorder, "rounds"):
                colors = _linial_faulty_rounds(
                    csr, sched, colors, bits, faults, metrics, recorder
                )
        except HaltingError:
            # flush the partial per-round record before propagating —
            # the same post-mortem contract as SyncNetwork.run's halt path
            if recorder is not None:
                recorder.finalize(
                    metrics,
                    n=n,
                    m=csr.num_directed_edges // 2,
                    palette=palette,
                    algorithm=recorder.algorithm or "linial_vectorized",
                )
            raise
    else:
        with _phase(recorder, "rounds"):
            for step in sched:
                q, deg = step.q, step.deg
                digits = poly_digits(colors, q, deg)
                evals = poly_eval_grid(digits, q)  # (q, n)
                hits = collision_counts(csr, evals)  # (q, n) int64
                best_x = np.argmin(hits, axis=0)  # first occurrence = smallest x
                colors = best_x * q + evals[best_x, np.arange(n)]
                record_uniform_round(
                    metrics, recorder, per_round_messages, bits, active=n
                )

    result = ColoringResult(csr.scatter(colors))
    if recorder is not None and _finalize_recorder:
        recorder.finalize(
            metrics,
            n=n,
            m=csr.num_directed_edges // 2,
            palette=palette,
            algorithm=recorder.algorithm or "linial_vectorized",
        )
    return result, metrics, palette


def _linial_faulty_rounds(
    csr: CSRGraph,
    sched,
    colors: np.ndarray,
    bits: int,
    faults,
    metrics: RunMetrics,
    recorder: "RunRecorder | None",
) -> np.ndarray:
    """The mask-based faulty Linial round loop (see :func:`linial_vectorized`).

    Mirrors the reference simulator's delivery semantics edge for edge:
    transmissions are drawn from active+alive senders, fates come from the
    plan's vectorized hash (pinned equal to the scalar hash), delayed and
    duplicated copies sit in a per-round pending buffer whose stale
    entries are overwritten by fresher same-edge deliveries, deliveries to
    crashed receivers are discarded, and receivers decode only payloads
    inside their step's ``q^(deg+1)`` domain.  Nodes advance one schedule
    step per round they are up, so crash outages leave step *skew* —
    distinct steps are processed group by group, exactly like the
    per-node reference receive.
    """
    from ..faults.plan import (
        FATE_CORRUPT,
        FATE_DELAY,
        FATE_DELIVER,
        FATE_DROP,
        FATE_DUPLICATE,
        node_labels_u64,
    )
    from .node import HaltingError

    n = csr.n
    total_steps = len(sched)
    steps = np.zeros(n, dtype=np.int64)
    colors = colors.copy()
    labels = node_labels_u64(csr.nodes)
    src_labels = labels[csr.src]
    dst_labels = labels[csr.indices]
    num_edges = csr.num_directed_edges
    max_rounds = faults.round_budget(total_steps)
    # deliver_round -> [(edge indices, payload snapshot), ...] in the order
    # scheduled; later writes overwrite earlier ones like the reference's
    # sender-keyed inbox.
    pending: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}

    rnd = 0
    while bool((steps < total_steps).any()):
        if rnd >= max_rounds:
            unfinished = [
                csr.nodes[i] for i in np.nonzero(steps < total_steps)[0]
            ]
            raise HaltingError(rounds=rnd, unfinished=unfinished)
        alive = ~faults.crashed_mask(rnd, labels)
        active = steps < total_steps
        transmit = (active & alive)[csr.src]
        counts = dict.fromkeys(
            ("dropped", "corrupted", "delayed", "duplicated"), 0
        )
        counts["crashed"] = int(n - alive.sum())

        delivered = np.full(num_edges, -1, dtype=np.int64)
        for edge_idx, values in pending.pop(rnd, ()):
            delivered[edge_idx] = values
        if transmit.any():
            codes, delays = faults.edge_fates(rnd, src_labels, dst_labels)
            codes = np.where(transmit, codes, -1)
            payload = colors[csr.src]
            counts["dropped"] = int((codes == FATE_DROP).sum())
            counts["corrupted"] = int((codes == FATE_CORRUPT).sum())
            counts["delayed"] = int((codes == FATE_DELAY).sum())
            counts["duplicated"] = int((codes == FATE_DUPLICATE).sum())
            for code in (FATE_DELAY, FATE_DUPLICATE):
                idx = np.nonzero(codes == code)[0]
                for d in np.unique(delays[idx]):
                    sel = idx[delays[idx] == d]
                    pending.setdefault(rnd + int(d), []).append(
                        (sel, payload[sel].copy())
                    )
            now = (codes == FATE_DELIVER) | (codes == FATE_DUPLICATE)
            delivered[now] = payload[now]
            corrupt = codes == FATE_CORRUPT
            if corrupt.any():
                delivered[corrupt] = faults.corrupt_values(
                    rnd,
                    src_labels[corrupt],
                    dst_labels[corrupt],
                    payload[corrupt],
                )
        # deliveries (stale included) to crashed receivers are discarded
        delivered[~alive[csr.indices]] = -1

        receiving = active & alive
        new_colors = colors.copy()
        for s in np.unique(steps[receiving]):
            step = sched[s]
            q, deg = step.q, step.deg
            domain = q ** (deg + 1)
            group = receiving & (steps == s)
            own_evals = poly_eval_grid(poly_digits(colors, q, deg), q)  # (q, n)
            edge_ok = (
                group[csr.indices] & (delivered >= 0) & (delivered < domain)
            )
            hits = np.zeros((q, n), dtype=np.int64)
            if edge_ok.any():
                edge_dst = csr.indices[edge_ok]
                edge_evals = poly_eval_grid(
                    poly_digits(delivered[edge_ok], q, deg), q
                )  # (q, #ok)
                hits = match_counts(edge_evals == own_evals[:, edge_dst], edge_dst, n)
            members = np.nonzero(group)[0]
            best_x = np.argmin(hits[:, members], axis=0)  # first occurrence
            new_colors[members] = best_x * q + own_evals[best_x, members]
        colors = new_colors
        steps[receiving] += 1

        record_uniform_round(
            metrics,
            recorder,
            int(transmit.sum()),
            bits,
            active=int(active.sum()),
            faults=counts,
        )
        rnd += 1
    return colors


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


# ----------------------------------------------------------------------
# FK24 simple iterative list-defective coloring
# ----------------------------------------------------------------------
#: Sentinel larger than any within-ragged-array position (first-viable scan).
_NO_CAND = np.int64(1) << np.int64(60)


def _fk24_candidates(
    counts: np.ndarray,
    owner: np.ndarray,
    list_indptr: np.ndarray,
    list_values: np.ndarray,
    defect_arr: np.ndarray,
    trying: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """First viable list color per trying node: ``(has_cand, cand_color)``.

    Position ``p`` (owned by node ``owner[p]``, carrying color
    ``list_values[p]``) is viable when at most ``defect`` known neighbors
    hold that color (``counts`` is the per-(node, color) knowledge
    matrix).  The candidate is the first viable position in the node's
    original list order — exactly the reference's ``for x in L_v`` scan.
    """
    n = list_indptr.shape[0] - 1
    total = list_values.shape[0]
    if total:
        viable = counts[owner, list_values] <= defect_arr[owner]
        masked = np.where(viable, np.arange(total, dtype=np.int64), _NO_CAND)
        # reduceat quirks: clip trailing starts into range and overwrite
        # empty segments (their reduceat slot holds a neighbor segment's
        # element) with the no-candidate sentinel
        starts = np.minimum(list_indptr[:-1], total - 1)
        first = np.minimum.reduceat(masked, starts)
        first[np.diff(list_indptr) == 0] = _NO_CAND
    else:
        first = np.full(n, _NO_CAND, dtype=np.int64)
    has_cand = trying & (first < _NO_CAND)
    cand_color = np.zeros(n, dtype=np.int64)
    cand_color[has_cand] = list_values[first[has_cand]]
    return has_cand, cand_color


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
    ``faults`` switches to the mask-based faulty kernel, bit-for-bit
    equivalent to ``run_fk24(..., faults=plan)`` including the fault
    column family and the (stretched) round budget, so a plan that
    livelocks the algorithm halts both engines with the identical
    :class:`~repro.sim.node.HaltingError`.  ``adoption_out``, if given,
    is filled with each node's adoption round.  ``graph`` may be a frozen
    :class:`~repro.sim.engine.CSRGraph`; the orientation is built from
    its arrays either way (:func:`adoption_orientation`).
    """
    from ..algorithms.fk24 import fk24_lists, fk24_round_budget

    with _phase(recorder, "csr_build"):
        csr = as_csr(graph)
    n = csr.n
    with _phase(recorder, "schedule"):
        if lists is None:
            lists, built_space = fk24_lists(csr, defect)
            if space_size is None:
                space_size = built_space
        per_node = [tuple(lists[v]) for v in csr.nodes]
        if space_size is None:
            space_size = max((max(lst) for lst in per_node if lst), default=0) + 1
        space = int(space_size)
        list_indptr, list_values = pack_lists(per_node)
        budget = fk24_round_budget(int(list_indptr[-1]), n)
    max_rounds = budget if faults is None else faults.round_budget(budget)
    bits = int_bits(max(1, 2 * space - 1))
    metrics = synthesized_metrics(n)

    try:
        with _phase(recorder, "rounds"):
            if faults is not None:
                colors, adopted = _fk24_faulty_rounds(
                    csr, list_indptr, list_values, space, int(defect),
                    bits, max_rounds, faults, metrics, recorder,
                )
            else:
                colors, adopted = _fk24_rounds(
                    csr, list_indptr, list_values, space, int(defect),
                    bits, max_rounds, metrics, recorder,
                )
    except HaltingError:
        # flush the partial per-round record before propagating — the
        # same post-mortem contract as SyncNetwork.run's halt path
        if recorder is not None:
            recorder.finalize(
                metrics,
                n=n,
                m=csr.num_directed_edges // 2,
                palette=space,
                algorithm=recorder.algorithm or "fk24_vectorized",
            )
        raise

    if adoption_out is not None:
        adoption_out.update(csr.scatter(adopted))
    result = ColoringResult(
        csr.scatter(colors), adoption_orientation(csr, adopted)
    )
    if recorder is not None and _finalize_recorder:
        recorder.finalize(
            metrics,
            n=n,
            m=csr.num_directed_edges // 2,
            palette=space,
            algorithm=recorder.algorithm or "fk24_vectorized",
        )
    return result, metrics, space


def adoption_orientation(csr: CSRGraph, adopted: np.ndarray) -> EdgeOrientation:
    """Every edge oriented from its later adopter to its earlier one, ties
    toward the larger label, from CSR arrays.

    ``adopted`` holds each dense node's adoption round.  The arc set equals
    :func:`~repro.core.coloring.orientation_from_priority` over the
    label-keyed adoption rounds: dense order is sorted label order, so for
    an edge ``u < w`` the priority ``(adopted, node)`` of ``u`` is the
    larger exactly when ``adopted[u] > adopted[w]``.
    """
    fwd = csr.src < csr.indices
    u, w = csr.src[fwd], csr.indices[fwd]
    later = adopted[u] > adopted[w]
    # the graph's own label objects, shared by the arcs
    labels = np.fromiter(csr.nodes, dtype=object, count=csr.n)
    tails = labels[np.where(later, u, w)].tolist()
    heads = labels[np.where(later, w, u)].tolist()
    return EdgeOrientation(set(zip(tails, heads)))


def _fk24_rounds(
    csr: CSRGraph,
    list_indptr: np.ndarray,
    list_values: np.ndarray,
    space: int,
    defect: int,
    bits: int,
    max_rounds: int,
    metrics: RunMetrics,
    recorder: "RunRecorder | None",
) -> tuple[np.ndarray, np.ndarray]:
    """The fault-free FK24 round loop (see :func:`fk24_vectorized`).

    Per-node knowledge is a ``(n, space)`` counts matrix updated
    incrementally — valid because fault-free every adopter announces its
    color exactly once with guaranteed delivery, so per-sender knowledge
    equals the delivered-announcement multiset.  Candidate selection uses
    the counts as of the *end of the previous round* (the reference picks
    in ``send``); adoption re-checks against counts updated with this
    round's announcements plus same-round smaller-label rivals trying the
    same color (dense index order equals sorted label order, so the index
    comparison is the reference's ``u < view.id``).
    """
    n = csr.n
    status = np.zeros(n, dtype=np.int64)  # 0 trying, 1 announcing, 2 done
    colors = np.full(n, -1, dtype=np.int64)
    adopted = np.full(n, -1, dtype=np.int64)
    counts = np.zeros((n, max(1, space)), dtype=np.int64)
    owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(list_indptr))
    defect_arr = np.full(n, defect, dtype=np.int64)
    idx = np.arange(n, dtype=np.int64)

    rnd = 0
    while bool((status < 2).any()):
        if rnd >= max_rounds:
            unfinished = [csr.nodes[i] for i in np.nonzero(status < 2)[0]]
            raise HaltingError(rounds=rnd, unfinished=unfinished)
        trying = status == 0
        announcing = status == 1
        active_n = int((status < 2).sum())
        has_cand, cand_color = _fk24_candidates(
            counts, owner, list_indptr, list_values, defect_arr, trying
        )
        sending = has_cand | announcing
        msgs = int(csr.degrees[sending].sum())
        # this round's announcements update everyone's knowledge first
        took_edge = announcing[csr.src]
        if took_edge.any():
            np.add.at(
                counts,
                (csr.indices[took_edge], colors[csr.src[took_edge]]),
                1,
            )
        taken = np.zeros(n, dtype=np.int64)
        taken[has_cand] = counts[idx[has_cand], cand_color[has_cand]]
        conflict = (
            has_cand[csr.src]
            & has_cand[csr.indices]
            & (csr.src < csr.indices)
            & (cand_color[csr.src] == cand_color[csr.indices])
        )
        stronger = np.bincount(csr.indices[conflict], minlength=n)
        adopt = has_cand & (taken + stronger <= defect_arr)
        status[announcing] = 2
        status[adopt] = 1
        colors[adopt] = cand_color[adopt]
        adopted[adopt] = rnd
        record_uniform_round(metrics, recorder, msgs, bits, active=active_n)
        rnd += 1
    return colors, adopted


def _fk24_faulty_rounds(
    csr: CSRGraph,
    list_indptr: np.ndarray,
    list_values: np.ndarray,
    space: int,
    defect: int,
    bits: int,
    max_rounds: int,
    faults,
    metrics: RunMetrics,
    recorder: "RunRecorder | None",
) -> tuple[np.ndarray, np.ndarray]:
    """The mask-based faulty FK24 round loop (see :func:`fk24_vectorized`).

    Mirrors the reference simulator's delivery semantics edge for edge
    (same machinery as :func:`_linial_faulty_rounds`): transmissions come
    from active+alive senders, fates from the plan's vectorized hash,
    delayed/duplicated copies sit in a pending buffer overwritten by
    fresher same-edge deliveries, and deliveries to crashed receivers are
    discarded.  Knowledge is per directed edge (``know[e]`` = last
    decoded ``took`` color on ``e``) because under corruption a sender's
    announcement can differ per round — the counts matrix is adjusted
    incrementally as entries change.  Payloads encode ``tag * space +
    color``; decoders discard anything outside ``[0, 2 * space)`` exactly
    like the reference's inbox filter.
    """
    from ..faults.plan import (
        FATE_CORRUPT,
        FATE_DELAY,
        FATE_DELIVER,
        FATE_DROP,
        FATE_DUPLICATE,
        node_labels_u64,
    )

    n = csr.n
    num_edges = csr.num_directed_edges
    labels = node_labels_u64(csr.nodes)
    src_labels = labels[csr.src]
    dst_labels = labels[csr.indices]
    status = np.zeros(n, dtype=np.int64)
    colors = np.full(n, -1, dtype=np.int64)
    adopted = np.full(n, -1, dtype=np.int64)
    counts2d = np.zeros((n, max(1, space)), dtype=np.int64)
    know = np.full(num_edges, -1, dtype=np.int64)
    owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(list_indptr))
    defect_arr = np.full(n, defect, dtype=np.int64)
    idx = np.arange(n, dtype=np.int64)
    pending: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}

    rnd = 0
    while bool((status < 2).any()):
        if rnd >= max_rounds:
            unfinished = [csr.nodes[i] for i in np.nonzero(status < 2)[0]]
            raise HaltingError(rounds=rnd, unfinished=unfinished)
        alive = ~faults.crashed_mask(rnd, labels)
        trying = status == 0
        announcing = status == 1
        active = status < 2
        has_cand, cand_color = _fk24_candidates(
            counts2d, owner, list_indptr, list_values, defect_arr, trying
        )
        sending = (has_cand | announcing) & alive
        transmit = sending[csr.src]
        fcounts = dict.fromkeys(
            ("dropped", "corrupted", "delayed", "duplicated"), 0
        )
        fcounts["crashed"] = int(n - alive.sum())

        delivered = np.full(num_edges, -1, dtype=np.int64)
        for edge_idx, values in pending.pop(rnd, ()):
            delivered[edge_idx] = values
        if transmit.any():
            codes, delays = faults.edge_fates(rnd, src_labels, dst_labels)
            codes = np.where(transmit, codes, -1)
            payload = np.where(
                announcing[csr.src],
                space + colors[csr.src],
                cand_color[csr.src],
            )
            fcounts["dropped"] = int((codes == FATE_DROP).sum())
            fcounts["corrupted"] = int((codes == FATE_CORRUPT).sum())
            fcounts["delayed"] = int((codes == FATE_DELAY).sum())
            fcounts["duplicated"] = int((codes == FATE_DUPLICATE).sum())
            for code in (FATE_DELAY, FATE_DUPLICATE):
                eidx = np.nonzero(codes == code)[0]
                for d in np.unique(delays[eidx]):
                    sel = eidx[delays[eidx] == d]
                    pending.setdefault(rnd + int(d), []).append(
                        (sel, payload[sel].copy())
                    )
            now = (codes == FATE_DELIVER) | (codes == FATE_DUPLICATE)
            delivered[now] = payload[now]
            corrupt = codes == FATE_CORRUPT
            if corrupt.any():
                delivered[corrupt] = faults.corrupt_values(
                    rnd,
                    src_labels[corrupt],
                    dst_labels[corrupt],
                    payload[corrupt],
                )
        # deliveries (stale included) to crashed receivers are discarded
        delivered[~alive[csr.indices]] = -1

        # decode: know updates for this round's took deliveries, with the
        # counts matrix adjusted where an edge's knowledge changed
        took = (delivered >= space) & (delivered < 2 * space)
        tk = np.nonzero(took)[0]
        if tk.size:
            newv = delivered[tk] - space
            oldv = know[tk]
            chg = oldv != newv
            tk, newv, oldv = tk[chg], newv[chg], oldv[chg]
            dec = oldv >= 0
            if dec.any():
                np.add.at(
                    counts2d, (csr.indices[tk[dec]], oldv[dec]), -1
                )
            if tk.size:
                np.add.at(counts2d, (csr.indices[tk], newv), 1)
                know[tk] = newv
        is_try = (delivered >= 0) & (delivered < space)
        taken = np.zeros(n, dtype=np.int64)
        receiver_cand = has_cand & alive
        taken[receiver_cand] = counts2d[
            idx[receiver_cand], cand_color[receiver_cand]
        ]
        conflict = (
            is_try
            & receiver_cand[csr.indices]
            & (csr.src < csr.indices)
            & (delivered == cand_color[csr.indices])
        )
        stronger = np.bincount(csr.indices[conflict], minlength=n)
        adopt = receiver_cand & (taken + stronger <= defect_arr)
        status[announcing & alive] = 2
        status[adopt] = 1
        colors[adopt] = cand_color[adopt]
        adopted[adopt] = rnd
        record_uniform_round(
            metrics,
            recorder,
            int(transmit.sum()),
            bits,
            active=int(active.sum()),
            faults=fcounts,
        )
        rnd += 1
    return colors, adopted
