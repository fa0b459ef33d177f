"""Batched multi-instance execution: k graphs, one block-diagonal CSR.

Every sweep cell, fuzz case, and benchmark row runs the vectorized CSR
engine on one graph at a time, so a grid of thousands of *small*
instances pays per-instance Python dispatch for every round.  The
schedule-driven kernels are embarrassingly parallel across instances —
no information ever crosses an instance boundary — so k instances can be
packed into a single block-diagonal :class:`BatchCSRGraph` and run
through the existing kernels as single NumPy operations spanning all
instances at once.

The packing is literal block-diagonal structure:

* member ``j``'s nodes occupy the contiguous dense range
  ``node_offsets[j]..node_offsets[j+1]`` and its directed edges the
  contiguous range ``edge_offsets[j]..edge_offsets[j+1]``;
* ``indptr``/``indices``/``src`` are the members' CSR arrays shifted by
  those offsets, so a :class:`BatchCSRGraph` duck-types as the adjacency
  argument of :func:`~repro.sim.engine.collision_counts` and
  :func:`~repro.sim.engine.equal_neighbor_counts` — the block-diagonal
  shape alone guarantees no cross-instance counting;
* ``instance_id`` maps every dense node back to its member.

**Equivalence contract** (the point of the whole module): each batched
kernel produces, per instance, the *identical* ``(output, RunMetrics,
palette)`` triple — and, with recorders attached, the identical obs
schema v2 :class:`~repro.obs.RunRecord` rows including per-round fault
columns — as its single-instance twin in :mod:`repro.sim.vectorized`.
Per-instance termination masks stop finished (or halted) instances from
contributing rounds, and the per-instance accounting is demultiplexed
through the same :func:`~repro.sim.engine.record_uniform_round`
primitive the single-instance paths charge through.  The battery in
``tests/test_batch.py`` replays the entire fuzz corpus through this
module at batch sizes 1/4/16 and asserts node-for-node equality.

Fault injection batches too: :func:`linial_vectorized_batch` accepts one
:class:`~repro.faults.FaultPlan` (or ``None``) per instance; plans are
pure functions of ``(seed, round, node labels)``, so each member of the
batch sees exactly the adversary its single-instance run would.  An
instance whose crash-stop plan exhausts its round budget raises the same
:class:`~repro.sim.node.HaltingError` (same rounds, same unfinished
list) — surfaced per instance via ``return_exceptions=True`` so sibling
instances in the batch still complete.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from ..core.coloring import ColoringResult
from .engine import (
    CSRGraph,
    _adjacency,
    _networkx_edges,
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
from .metrics import RunMetrics, congest_bandwidth
from .node import HaltingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> sim)
    from ..obs import RunRecorder

#: Sentinel larger than any within-list position (greedy first-free scan).
_NO_PICK = np.int64(1) << np.int64(60)


# ----------------------------------------------------------------------
# the block-diagonal graph
# ----------------------------------------------------------------------
class BatchCSRGraph:
    """k independent :class:`~repro.sim.engine.CSRGraph`s as one CSR.

    Attributes
    ----------
    members:
        The per-instance CSR graphs, in batch order.
    k:
        Instance count.
    node_offsets / edge_offsets:
        ``len k+1`` prefix arrays: member ``j`` owns dense nodes
        ``node_offsets[j]:node_offsets[j+1]`` and directed edge slots
        ``edge_offsets[j]:edge_offsets[j+1]``.
    indptr / indices / src:
        The members' CSR arrays concatenated with ``indices``/``src``
        shifted into the global dense range — block-diagonal adjacency,
        so every neighbor of a member's node lies inside that member's
        own node range *by construction*.
    instance_id:
        Per dense node, the owning member's batch index.
    """

    __slots__ = (
        "members",
        "k",
        "node_offsets",
        "edge_offsets",
        "indptr",
        "indices",
        "src",
        "instance_id",
    )

    def __init__(self, members: Sequence[CSRGraph]) -> None:
        self.members = tuple(members)
        k = len(self.members)
        self.k = k
        node_counts = np.array([m.n for m in self.members], dtype=np.int64)
        edge_counts = np.array(
            [m.num_directed_edges for m in self.members], dtype=np.int64
        )
        self.node_offsets = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(node_counts, out=self.node_offsets[1:])
        self.edge_offsets = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(edge_counts, out=self.edge_offsets[1:])
        n_total = int(self.node_offsets[-1])
        self.indptr = np.zeros(n_total + 1, dtype=np.int64)
        self.indices = np.empty(int(self.edge_offsets[-1]), dtype=np.int64)
        self.src = np.empty(int(self.edge_offsets[-1]), dtype=np.int64)
        for j, member in enumerate(self.members):
            ns = slice(int(self.node_offsets[j]), int(self.node_offsets[j + 1]))
            es = slice(int(self.edge_offsets[j]), int(self.edge_offsets[j + 1]))
            self.indptr[ns.start + 1 : ns.stop + 1] = (
                member.indptr[1:] + self.edge_offsets[j]
            )
            self.indices[es] = member.indices + self.node_offsets[j]
            self.src[es] = member.src + self.node_offsets[j]
        self.instance_id = np.repeat(
            np.arange(k, dtype=np.int64), node_counts
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_graphs(cls, graphs: Sequence[Any]) -> "BatchCSRGraph":
        """Freeze k ``networkx`` graphs into one block-diagonal batch.

        One pass over every member's adjacency and one global ``argsort``
        / ``bincount`` over their edges replace k per-graph freezes, so
        the fixed numpy dispatch cost of freezing amortizes across the
        whole batch — for many small instances this is where batching
        starts paying, before the first round kernel even runs.  The member
        :class:`~repro.sim.engine.CSRGraph`\\ s carved back out of the
        global arrays are value-identical to
        :meth:`CSRGraph.from_networkx` on each graph (same stable-sort
        edge order), so per-instance fallbacks and sub-batches see
        exactly what a per-graph freeze would have produced.
        """
        nodes_list, index_list, node_offsets, edges = _networkx_edges(graphs)
        k = len(nodes_list)
        node_counts = np.diff(node_offsets)
        n_total = int(node_offsets[-1])
        # _adjacency's stable sort by (global) source: member node ranges
        # are disjoint and increasing, so it both groups edges by member
        # and, within a member, gives exactly from_networkx's arrays.
        indptr, indices = _adjacency(n_total, edges)
        edge_offsets = indptr[node_offsets]

        members = []
        for j in range(k):
            n0, n1 = int(node_offsets[j]), int(node_offsets[j + 1])
            e0, e1 = int(edge_offsets[j]), int(edge_offsets[j + 1])
            members.append(
                CSRGraph(
                    n1 - n0,
                    nodes_list[j],
                    index_list[j],
                    indptr[n0 : n1 + 1] - e0,
                    indices[e0:e1] - n0,
                )
            )

        batch = cls.__new__(cls)
        batch.members = tuple(members)
        batch.k = k
        batch.node_offsets = node_offsets
        batch.edge_offsets = edge_offsets
        batch.indptr = indptr
        batch.indices = indices
        batch.src = np.repeat(np.arange(n_total, dtype=np.int64), np.diff(indptr))
        batch.instance_id = np.repeat(np.arange(k, dtype=np.int64), node_counts)
        return batch

    @classmethod
    def from_csrs(cls, csrs: Sequence[CSRGraph]) -> "BatchCSRGraph":
        """Pack already-frozen member CSRs (cheap array concatenation)."""
        return cls(csrs)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Total dense node count across all members (duck-types as
        ``CSRGraph.n`` for the shared engine kernels)."""
        return int(self.node_offsets[-1])

    @property
    def num_directed_edges(self) -> int:
        """Total directed edge slots across all members."""
        return int(self.edge_offsets[-1])

    @property
    def edge_instance_id(self) -> np.ndarray:
        """Per directed edge slot, the owning member's batch index."""
        return np.repeat(
            np.arange(self.k, dtype=np.int64), np.diff(self.edge_offsets)
        )

    def node_slice(self, j: int) -> slice:
        """Member ``j``'s contiguous dense node range."""
        return slice(int(self.node_offsets[j]), int(self.node_offsets[j + 1]))

    def edge_slice(self, j: int) -> slice:
        """Member ``j``'s contiguous directed edge range."""
        return slice(int(self.edge_offsets[j]), int(self.edge_offsets[j + 1]))

    # ------------------------------------------------------------------
    def gather(
        self, mappings: Sequence[Mapping[Any, int]], dtype: type = np.int64
    ) -> np.ndarray:
        """One dense array from k label-keyed mappings (member order)."""
        if len(mappings) != self.k:
            raise ValueError(
                f"gather expects {self.k} mappings, got {len(mappings)}"
            )
        if not self.k:
            return np.empty(0, dtype=dtype)
        return np.concatenate(
            [m.gather(mapping, dtype) for m, mapping in zip(self.members, mappings)]
        )

    def scatter(self, values: np.ndarray) -> list[dict[Any, int]]:
        """k label-keyed dicts from one dense per-node array."""
        return [
            member.scatter(values[self.node_slice(j)])
            for j, member in enumerate(self.members)
        ]

    def split(self, values: np.ndarray) -> list[np.ndarray]:
        """Per-member views of a dense per-node array (no copies)."""
        return [values[self.node_slice(j)] for j in range(self.k)]


# ----------------------------------------------------------------------
# small shared plumbing
# ----------------------------------------------------------------------
class _MultiPhase:
    """Enter the same profiler phase on every attached recorder at once."""

    def __init__(self, recorders: Sequence["RunRecorder | None"], name: str):
        self._cms = [
            r.profiler.phase(name) for r in recorders if r is not None
        ]

    def __enter__(self):
        for cm in self._cms:
            cm.__enter__()
        return None

    def __exit__(self, *exc):
        for cm in reversed(self._cms):
            cm.__exit__(*exc)
        return False


def _phase_all(recorders: Sequence["RunRecorder | None"], name: str):
    return _MultiPhase(recorders, name) if recorders else nullcontext()


def _seq_arg(value, k: int, name: str) -> list:
    """Normalize an optional per-instance sequence argument."""
    if value is None:
        return [None] * k
    out = list(value)
    if len(out) != k:
        raise ValueError(f"{name} must have one entry per instance "
                         f"({k}), got {len(out)}")
    return out


def _int_list(value, k: int, name: str) -> list[int]:
    """Normalize an int-or-sequence argument (scalar broadcasts)."""
    if isinstance(value, (list, tuple)):
        if len(value) != k:
            raise ValueError(f"{name} must have one entry per instance "
                             f"({k}), got {len(value)}")
        return [int(v) for v in value]
    return [int(value)] * k


def _sub_batch(
    batch: BatchCSRGraph, js: list[int], colors: np.ndarray
) -> tuple[BatchCSRGraph, np.ndarray]:
    """The sub-batch over members ``js`` plus their color slices."""
    if len(js) == batch.k:
        return batch, colors.copy()
    sub = BatchCSRGraph.from_csrs([batch.members[j] for j in js])
    return sub, np.concatenate([colors[batch.node_slice(j)] for j in js])


def _write_back(
    batch: BatchCSRGraph, js: list[int], colors: np.ndarray, sub_colors: np.ndarray
) -> None:
    """Scatter a sub-batch's dense values back into the full batch array."""
    off = 0
    for j in js:
        sl = batch.node_slice(j)
        cnt = sl.stop - sl.start
        colors[sl] = sub_colors[off : off + cnt]
        off += cnt


def _raise_or_return(results: list, return_exceptions: bool) -> list:
    if not return_exceptions:
        for r in results:
            if isinstance(r, BaseException):
                raise r
    return results


# ----------------------------------------------------------------------
# batched Linial (fault-free round loop)
# ----------------------------------------------------------------------
#: Node-count cap per round-kernel tile.  One monolithic (q, n_total)
#: evaluation grid falls out of cache once n_total reaches the tens of
#: thousands and goes memory-bound — measurably *slower* than the
#: per-instance loop it replaces — while tiles of a few thousand nodes
#: keep the working set cache-resident and still amortize dispatch over
#: dozens of small instances.
_TILE_NODES = 2048


def _node_tiles(
    js: list[int], node_counts: list[int], cap: int = _TILE_NODES
) -> list[tuple[int, ...]]:
    """Partition member indices into contiguous tiles of <= ``cap`` total
    nodes (a member larger than ``cap`` gets a tile of its own)."""
    tiles: list[tuple[int, ...]] = []
    cur: list[int] = []
    cur_n = 0
    for j in js:
        if cur and cur_n + node_counts[j] > cap:
            tiles.append(tuple(cur))
            cur, cur_n = [], 0
        cur.append(j)
        cur_n += node_counts[j]
    if cur:
        tiles.append(tuple(cur))
    return tiles


def _linial_rounds_batch(
    batch: BatchCSRGraph, scheds: list, colors: np.ndarray
) -> np.ndarray:
    """Run every member's schedule, one global round at a time.

    Members whose current step shares ``(q, deg)`` are processed in
    cache-sized tiles (:data:`_TILE_NODES`), each tile one grid
    evaluation + collision count over the concatenated node/edge ranges;
    members whose schedule is exhausted simply drop out of the round's
    groups (per-instance termination masks).  Per member, the computed
    colors match :func:`~repro.sim.vectorized.linial_vectorized` value
    for value — same digits, same evaluations, same integer bincount
    collisions, same first-occurrence ``argmin`` tie-break.
    """
    if not batch.k:
        return colors
    max_len = max(len(s) for s in scheds)
    node_counts = [m.n for m in batch.members]
    sub_memo: dict[tuple[int, ...], BatchCSRGraph] = {}
    for r in range(max_len):
        groups: dict[tuple[int, int], list[int]] = {}
        for j, sched in enumerate(scheds):
            if r < len(sched):
                step = sched[r]
                groups.setdefault((step.q, step.deg), []).append(j)
        for (q, deg), js in sorted(groups.items()):
            for tile in _node_tiles(js, node_counts):
                if len(tile) == batch.k:
                    evals = poly_eval_grid(poly_digits(colors, q, deg), q)
                    hits = collision_counts(batch, evals)
                    best_x = np.argmin(hits, axis=0)
                    colors = best_x * q + evals[best_x, np.arange(batch.n)]
                    continue
                sub = sub_memo.get(tile)
                if sub is None:
                    sub = BatchCSRGraph.from_csrs(
                        [batch.members[j] for j in tile]
                    )
                    sub_memo[tile] = sub
                sub_colors = np.concatenate(
                    [colors[batch.node_slice(j)] for j in tile]
                )
                evals = poly_eval_grid(poly_digits(sub_colors, q, deg), q)
                hits = collision_counts(sub, evals)
                best_x = np.argmin(hits, axis=0)
                _write_back(
                    batch,
                    list(tile),
                    colors,
                    best_x * q + evals[best_x, np.arange(sub.n)],
                )
    return colors


# ----------------------------------------------------------------------
# batched Linial (faulty round loop)
# ----------------------------------------------------------------------
def _linial_faulty_rounds_batch(
    sub: BatchCSRGraph,
    scheds: list,
    colors: np.ndarray,
    bits_list: list[int],
    plans: list,
    metrics_list: list[RunMetrics],
    recorders: list,
) -> tuple[np.ndarray, list[BaseException | None]]:
    """Batched twin of :func:`repro.sim.vectorized._linial_faulty_rounds`.

    All instances share one global round clock (every single-instance run
    starts at round 0, so global round == per-instance round for as long
    as the instance is live).  Per round, fates/crashes/corruptions are
    drawn per instance from that instance's plan over its own label
    arrays — bit-identical to the single-instance queries — while the
    delivery buffer, step-skew grouping, and color update run over the
    whole batch at once.  An instance stops contributing rounds the
    moment all its nodes finish; an instance that exhausts its plan's
    round budget is halted with the identical
    :class:`~repro.sim.node.HaltingError` (returned per instance, not
    raised, so siblings keep running).
    """
    from ..faults.plan import (
        FATE_CORRUPT,
        FATE_DELAY,
        FATE_DELIVER,
        FATE_DROP,
        FATE_DUPLICATE,
        node_labels_u64,
    )

    k = sub.k
    n_tot = sub.n
    labels = np.concatenate([node_labels_u64(m.nodes) for m in sub.members])
    src_lab = labels[sub.src]
    dst_lab = labels[sub.indices]
    colors = colors.copy()
    steps = np.zeros(n_tot, dtype=np.int64)
    totals = np.concatenate(
        [
            np.full(m.n, len(s), dtype=np.int64)
            for m, s in zip(sub.members, scheds)
        ]
    )
    sched_q = [np.array([st.q for st in s], dtype=np.int64) for s in scheds]
    sched_deg = [np.array([st.deg for st in s], dtype=np.int64) for s in scheds]
    budgets = [plans[j].round_budget(len(scheds[j])) for j in range(k)]
    participating = np.ones(n_tot, dtype=bool)
    halted = [False] * k
    errors: list[BaseException | None] = [None] * k
    pending: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}

    rnd = 0
    while True:
        live = [
            j
            for j in range(k)
            if not halted[j]
            and bool((steps[sub.node_slice(j)] < totals[sub.node_slice(j)]).any())
        ]
        if not live:
            break
        for j in list(live):
            if rnd >= budgets[j]:
                sl = sub.node_slice(j)
                unfinished = [
                    sub.members[j].nodes[i]
                    for i in np.nonzero(steps[sl] < totals[sl])[0]
                ]
                errors[j] = HaltingError(rounds=rnd, unfinished=unfinished)
                halted[j] = True
                participating[sl] = False
                live.remove(j)
        if not live:
            break

        alive = np.ones(n_tot, dtype=bool)
        for j in live:
            sl = sub.node_slice(j)
            alive[sl] = ~plans[j].crashed_mask(rnd, labels[sl])
        active = (steps < totals) & participating
        transmit = (active & alive)[sub.src]

        delivered = np.full(sub.num_directed_edges, -1, dtype=np.int64)
        for edge_idx, values in pending.pop(rnd, ()):
            delivered[edge_idx] = values
        per_counts: dict[int, dict[str, int]] = {}
        for j in live:
            sl = sub.node_slice(j)
            esl = sub.edge_slice(j)
            counts = dict.fromkeys(
                ("dropped", "corrupted", "delayed", "duplicated"), 0
            )
            counts["crashed"] = int(sub.members[j].n - alive[sl].sum())
            tr = transmit[esl]
            if tr.any():
                codes, delays = plans[j].edge_fates(
                    rnd, src_lab[esl], dst_lab[esl]
                )
                codes = np.where(tr, codes, -1)
                payload = colors[sub.src[esl]]
                counts["dropped"] = int((codes == FATE_DROP).sum())
                counts["corrupted"] = int((codes == FATE_CORRUPT).sum())
                counts["delayed"] = int((codes == FATE_DELAY).sum())
                counts["duplicated"] = int((codes == FATE_DUPLICATE).sum())
                for code in (FATE_DELAY, FATE_DUPLICATE):
                    idx = np.nonzero(codes == code)[0]
                    for d in np.unique(delays[idx]):
                        sel = idx[delays[idx] == d]
                        pending.setdefault(rnd + int(d), []).append(
                            (sel + sub.edge_offsets[j], payload[sel].copy())
                        )
                dlv = delivered[esl]  # slice view: writes land in `delivered`
                now = (codes == FATE_DELIVER) | (codes == FATE_DUPLICATE)
                dlv[now] = payload[now]
                corrupt = codes == FATE_CORRUPT
                if corrupt.any():
                    dlv[corrupt] = plans[j].corrupt_values(
                        rnd,
                        src_lab[esl][corrupt],
                        dst_lab[esl][corrupt],
                        payload[corrupt],
                    )
            per_counts[j] = counts
        delivered[~alive[sub.indices]] = -1

        receiving = active & alive
        q_arr = np.zeros(n_tot, dtype=np.int64)
        deg_arr = np.zeros(n_tot, dtype=np.int64)
        for j in live:
            sl = sub.node_slice(j)
            ids = np.nonzero(receiving[sl])[0]
            if ids.size:
                gids = ids + sl.start
                st = steps[gids]
                q_arr[gids] = sched_q[j][st]
                deg_arr[gids] = sched_deg[j][st]
        new_colors = colors.copy()
        recv_idx = np.nonzero(receiving)[0]
        if recv_idx.size:
            step_pairs = sorted(
                set(zip(q_arr[recv_idx].tolist(), deg_arr[recv_idx].tolist()))
            )
            for q, deg in step_pairs:
                group = receiving & (q_arr == q) & (deg_arr == deg)
                members_idx = np.nonzero(group)[0]
                g = members_idx.size
                domain = q ** (deg + 1)
                local = np.full(n_tot, -1, dtype=np.int64)
                local[members_idx] = np.arange(g, dtype=np.int64)
                own_evals = poly_eval_grid(
                    poly_digits(colors[members_idx], q, deg), q
                )  # (q, g)
                edge_ok = (
                    group[sub.indices] & (delivered >= 0) & (delivered < domain)
                )
                hits = np.zeros((q, g), dtype=np.int64)
                if edge_ok.any():
                    dst_l = local[sub.indices[edge_ok]]
                    edge_evals = poly_eval_grid(
                        poly_digits(delivered[edge_ok], q, deg), q
                    )
                    hits = match_counts(edge_evals == own_evals[:, dst_l], dst_l, g)
                best_x = np.argmin(hits, axis=0)  # first occurrence
                new_colors[members_idx] = (
                    best_x * q + own_evals[best_x, np.arange(g)]
                )
        colors = new_colors
        steps[receiving] += 1

        for j in live:
            sl = sub.node_slice(j)
            esl = sub.edge_slice(j)
            record_uniform_round(
                metrics_list[j],
                recorders[j],
                int(transmit[esl].sum()),
                bits_list[j],
                active=int(active[sl].sum()),
                faults=per_counts[j],
            )
        rnd += 1
    return colors, errors


# ----------------------------------------------------------------------
# public batched kernels
# ----------------------------------------------------------------------
def linial_vectorized_batch(
    graphs: Sequence[Any],
    initial_colors: Sequence[dict[int, int] | None] | None = None,
    defect: int | Sequence[int] = 0,
    recorders: Sequence["RunRecorder | None"] | None = None,
    faults: Sequence[Any] | None = None,
    return_exceptions: bool = False,
    _batch: BatchCSRGraph | None = None,
    _finalize_recorders: bool = True,
) -> list:
    """Batched twin of :func:`repro.sim.vectorized.linial_vectorized`.

    Returns one ``(ColoringResult, RunMetrics, palette)`` triple per
    instance, identical to k independent single-instance runs (outputs,
    palettes, metrics, and — with ``recorders`` — obs rows including
    fault columns).  ``initial_colors``/``recorders``/``faults`` are
    per-instance sequences (``None`` entries use the single-instance
    defaults); ``defect`` broadcasts a scalar or takes one value per
    instance.  With ``return_exceptions=True`` an instance that raises
    (a crash-stop :class:`~repro.sim.node.HaltingError`) yields the
    exception object in its slot instead of aborting the batch;
    otherwise the first error is raised after all instances finish.
    Identical ``(m0, delta, defect)`` parameters share one schedule
    computation — a real batching win on homogeneous grids.
    """
    from ..algorithms.linial import defective_schedule, linial_schedule

    k = _batch.k if _batch is not None else len(graphs)
    recs = _seq_arg(recorders, k, "recorders")
    plans = _seq_arg(faults, k, "faults")
    inits = _seq_arg(initial_colors, k, "initial_colors")
    defects = _int_list(defect, k, "defect")

    with _phase_all(recs, "csr_build"):
        batch = _batch if _batch is not None else BatchCSRGraph.from_graphs(graphs)

    sched_memo: dict[tuple[int, int, int], Any] = {}
    scheds: list = []
    palettes: list[int] = []
    bits_list: list[int] = []
    colors_parts: list[np.ndarray] = []
    with _phase_all(recs, "schedule"):
        for j in range(k):
            member = batch.members[j]
            delta_j = int(member.degrees.max()) if member.n else 0
            init = inits[j]
            if init is None:
                # Identity init: gather({v: i}) is arange by construction,
                # so skip the dict build on the hot default path.
                m0 = member.n if member.n else 1
                colors_parts.append(np.arange(member.n, dtype=np.int64))
            else:
                m0 = max(init.values()) + 1 if init else 1
                colors_parts.append(member.gather(init))
            key = (m0, delta_j, defects[j])
            sched = sched_memo.get(key)
            if sched is None:
                sched = (
                    linial_schedule(m0, delta_j)
                    if defects[j] == 0
                    else defective_schedule(m0, delta_j, defects[j])
                )
                sched_memo[key] = sched
            scheds.append(sched)
            palettes.append(sched[-1].out_colors if sched else m0)
            bits_list.append(int_bits(max(1, m0 - 1)))
    colors = (
        np.concatenate(colors_parts) if colors_parts else np.empty(0, np.int64)
    )

    metrics_list = [synthesized_metrics(batch.members[j].n) for j in range(k)]
    errors: list[BaseException | None] = [None] * k

    plain = [j for j in range(k) if plans[j] is None]
    faulty = [j for j in range(k) if plans[j] is not None]

    if plain:
        with _phase_all([recs[j] for j in plain], "rounds"):
            sub, sub_colors = _sub_batch(batch, plain, colors)
            sub_colors = _linial_rounds_batch(
                sub, [scheds[j] for j in plain], sub_colors
            )
            _write_back(batch, plain, colors, sub_colors)
            for j in plain:
                member = batch.members[j]
                msgs = member.num_directed_edges
                for _ in range(len(scheds[j])):
                    record_uniform_round(
                        metrics_list[j], recs[j], msgs, bits_list[j],
                        active=member.n,
                    )
    if faulty:
        with _phase_all([recs[j] for j in faulty], "rounds"):
            sub, sub_colors = _sub_batch(batch, faulty, colors)
            sub_colors, sub_errors = _linial_faulty_rounds_batch(
                sub,
                [scheds[j] for j in faulty],
                sub_colors,
                [bits_list[j] for j in faulty],
                [plans[j] for j in faulty],
                [metrics_list[j] for j in faulty],
                [recs[j] for j in faulty],
            )
            _write_back(batch, faulty, colors, sub_colors)
        for pos, j in enumerate(faulty):
            errors[j] = sub_errors[pos]

    results: list = [None] * k
    for j in range(k):
        member = batch.members[j]
        if errors[j] is not None:
            # flush the partial per-round record before surfacing the
            # halt — the single-instance path's post-mortem contract
            if recs[j] is not None:
                recs[j].finalize(
                    metrics_list[j],
                    n=member.n,
                    m=member.num_directed_edges // 2,
                    palette=palettes[j],
                    algorithm=recs[j].algorithm or "linial_vectorized",
                )
            results[j] = errors[j]
            continue
        res = ColoringResult(member.scatter(colors[batch.node_slice(j)]))
        if recs[j] is not None and _finalize_recorders:
            recs[j].finalize(
                metrics_list[j],
                n=member.n,
                m=member.num_directed_edges // 2,
                palette=palettes[j],
                algorithm=recs[j].algorithm or "linial_vectorized",
            )
        results[j] = (res, metrics_list[j], palettes[j])
    return _raise_or_return(results, return_exceptions)


def _segments(
    starts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten ragged per-segment ranges: (flat indices, segment id,
    within-segment position)."""
    total = int(counts.sum())
    if not total:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    seg = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)
    offs = np.zeros(counts.shape[0], dtype=np.int64)
    np.cumsum(counts[:-1], out=offs[1:])
    within = np.arange(total, dtype=np.int64) - offs[seg]
    return np.repeat(starts, counts) + within, seg, within


# ----------------------------------------------------------------------
# batched FK24 simple iterative list-defective coloring
# ----------------------------------------------------------------------
def _fk24_rounds_batch(
    sub: BatchCSRGraph,
    list_indptr: np.ndarray,
    list_values: np.ndarray,
    space_arr: np.ndarray,
    defect_arr: np.ndarray,
    budgets: list[int],
    bits_list: list[int],
    metrics_list: list[RunMetrics],
    recorders: list,
) -> tuple[np.ndarray, np.ndarray, list[BaseException | None]]:
    """Batched twin of :func:`repro.sim.vectorized._fk24_rounds`.

    All instances share one global round clock (every single-instance
    run starts at round 0), and the block-diagonal adjacency keeps the
    try/took exchanges instance-local by construction.  FK24's per-round
    message and active counts *vary* as nodes adopt and halt, so — unlike
    the schedule-driven Linial batch — accounting is demultiplexed per
    live instance inside the loop, not replayed afterwards.  An instance
    whose (invalid) instance idles past its round budget is halted with
    the identical :class:`~repro.sim.node.HaltingError`, returned per
    instance so siblings keep running.
    """
    from .vectorized import _fk24_candidates

    k = sub.k
    n_tot = sub.n
    degrees = np.diff(sub.indptr)
    status = np.zeros(n_tot, dtype=np.int64)
    colors = np.full(n_tot, -1, dtype=np.int64)
    adopted = np.full(n_tot, -1, dtype=np.int64)
    counts = np.zeros(
        (n_tot, max(1, int(space_arr.max()) if n_tot else 1)), dtype=np.int64
    )
    owner = np.repeat(np.arange(n_tot, dtype=np.int64), np.diff(list_indptr))
    idx = np.arange(n_tot, dtype=np.int64)
    participating = np.ones(n_tot, dtype=bool)
    halted = [False] * k
    errors: list[BaseException | None] = [None] * k

    rnd = 0
    while True:
        live = [
            j
            for j in range(k)
            if not halted[j] and bool((status[sub.node_slice(j)] < 2).any())
        ]
        if not live:
            break
        for j in list(live):
            if rnd >= budgets[j]:
                sl = sub.node_slice(j)
                unfinished = [
                    sub.members[j].nodes[i]
                    for i in np.nonzero(status[sl] < 2)[0]
                ]
                errors[j] = HaltingError(rounds=rnd, unfinished=unfinished)
                halted[j] = True
                participating[sl] = False
                live.remove(j)
        if not live:
            break
        trying = (status == 0) & participating
        announcing = (status == 1) & participating
        active = (status < 2) & participating
        has_cand, cand_color = _fk24_candidates(
            counts, owner, list_indptr, list_values, defect_arr, trying
        )
        sending = has_cand | announcing
        took_edge = announcing[sub.src]
        if took_edge.any():
            np.add.at(
                counts,
                (sub.indices[took_edge], colors[sub.src[took_edge]]),
                1,
            )
        taken = np.zeros(n_tot, dtype=np.int64)
        taken[has_cand] = counts[idx[has_cand], cand_color[has_cand]]
        conflict = (
            has_cand[sub.src]
            & has_cand[sub.indices]
            & (sub.src < sub.indices)
            & (cand_color[sub.src] == cand_color[sub.indices])
        )
        stronger = np.bincount(sub.indices[conflict], minlength=n_tot)
        adopt = has_cand & (taken + stronger <= defect_arr)
        status[announcing] = 2
        status[adopt] = 1
        colors[adopt] = cand_color[adopt]
        adopted[adopt] = rnd
        for j in live:
            sl = sub.node_slice(j)
            record_uniform_round(
                metrics_list[j],
                recorders[j],
                int(degrees[sl][sending[sl]].sum()),
                bits_list[j],
                active=int(active[sl].sum()),
            )
        rnd += 1
    return colors, adopted, errors


def _fk24_faulty_rounds_batch(
    sub: BatchCSRGraph,
    list_indptr: np.ndarray,
    list_values: np.ndarray,
    space_arr: np.ndarray,
    defect_arr: np.ndarray,
    budgets: list[int],
    bits_list: list[int],
    plans: list,
    metrics_list: list[RunMetrics],
    recorders: list,
) -> tuple[np.ndarray, np.ndarray, list[BaseException | None]]:
    """Batched twin of :func:`repro.sim.vectorized._fk24_faulty_rounds`.

    Per round, fates/crashes/corruptions are drawn per instance from
    that instance's plan over its own label and edge slices —
    bit-identical to the single-instance queries — while candidate
    selection, delivery decoding, and the adoption rule run over the
    whole batch at once.  ``space`` varies per instance, so payload
    encoding and the ``[0, 2 * space)`` decode window use per-node /
    per-edge space arrays.
    """
    from ..faults.plan import (
        FATE_CORRUPT,
        FATE_DELAY,
        FATE_DELIVER,
        FATE_DROP,
        FATE_DUPLICATE,
        node_labels_u64,
    )
    from .vectorized import _fk24_candidates

    k = sub.k
    n_tot = sub.n
    num_edges = sub.num_directed_edges
    labels = np.concatenate(
        [node_labels_u64(m.nodes) for m in sub.members]
    ) if k else np.empty(0, dtype=np.uint64)
    src_lab = labels[sub.src]
    dst_lab = labels[sub.indices]
    space_dst = space_arr[sub.indices]
    degrees = np.diff(sub.indptr)
    status = np.zeros(n_tot, dtype=np.int64)
    colors = np.full(n_tot, -1, dtype=np.int64)
    adopted = np.full(n_tot, -1, dtype=np.int64)
    counts2d = np.zeros(
        (n_tot, max(1, int(space_arr.max()) if n_tot else 1)), dtype=np.int64
    )
    know = np.full(num_edges, -1, dtype=np.int64)
    owner = np.repeat(np.arange(n_tot, dtype=np.int64), np.diff(list_indptr))
    idx = np.arange(n_tot, dtype=np.int64)
    participating = np.ones(n_tot, dtype=bool)
    halted = [False] * k
    errors: list[BaseException | None] = [None] * k
    pending: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}

    rnd = 0
    while True:
        live = [
            j
            for j in range(k)
            if not halted[j] and bool((status[sub.node_slice(j)] < 2).any())
        ]
        if not live:
            break
        for j in list(live):
            if rnd >= budgets[j]:
                sl = sub.node_slice(j)
                unfinished = [
                    sub.members[j].nodes[i]
                    for i in np.nonzero(status[sl] < 2)[0]
                ]
                errors[j] = HaltingError(rounds=rnd, unfinished=unfinished)
                halted[j] = True
                participating[sl] = False
                live.remove(j)
        if not live:
            break

        alive = np.ones(n_tot, dtype=bool)
        for j in live:
            sl = sub.node_slice(j)
            alive[sl] = ~plans[j].crashed_mask(rnd, labels[sl])
        trying = (status == 0) & participating
        announcing = (status == 1) & participating
        active = (status < 2) & participating
        has_cand, cand_color = _fk24_candidates(
            counts2d, owner, list_indptr, list_values, defect_arr, trying
        )
        sending = (has_cand | announcing) & alive
        transmit = sending[sub.src]

        delivered = np.full(num_edges, -1, dtype=np.int64)
        for edge_idx, values in pending.pop(rnd, ()):
            delivered[edge_idx] = values
        per_counts: dict[int, dict[str, int]] = {}
        for j in live:
            sl = sub.node_slice(j)
            esl = sub.edge_slice(j)
            fcounts = dict.fromkeys(
                ("dropped", "corrupted", "delayed", "duplicated"), 0
            )
            fcounts["crashed"] = int(sub.members[j].n - alive[sl].sum())
            tr = transmit[esl]
            if tr.any():
                codes, delays = plans[j].edge_fates(
                    rnd, src_lab[esl], dst_lab[esl]
                )
                codes = np.where(tr, codes, -1)
                payload = np.where(
                    announcing[sub.src[esl]],
                    space_arr[sub.src[esl]] + colors[sub.src[esl]],
                    cand_color[sub.src[esl]],
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
                            (sel + sub.edge_offsets[j], payload[sel].copy())
                        )
                dlv = delivered[esl]  # slice view: writes land in `delivered`
                now = (codes == FATE_DELIVER) | (codes == FATE_DUPLICATE)
                dlv[now] = payload[now]
                corrupt = codes == FATE_CORRUPT
                if corrupt.any():
                    dlv[corrupt] = plans[j].corrupt_values(
                        rnd,
                        src_lab[esl][corrupt],
                        dst_lab[esl][corrupt],
                        payload[corrupt],
                    )
            per_counts[j] = fcounts
        delivered[~alive[sub.indices]] = -1

        took = (delivered >= space_dst) & (delivered < 2 * space_dst)
        tk = np.nonzero(took)[0]
        if tk.size:
            newv = delivered[tk] - space_dst[tk]
            oldv = know[tk]
            chg = oldv != newv
            tk, newv, oldv = tk[chg], newv[chg], oldv[chg]
            dec = oldv >= 0
            if dec.any():
                np.add.at(counts2d, (sub.indices[tk[dec]], oldv[dec]), -1)
            if tk.size:
                np.add.at(counts2d, (sub.indices[tk], newv), 1)
                know[tk] = newv
        is_try = (delivered >= 0) & (delivered < space_dst)
        taken = np.zeros(n_tot, dtype=np.int64)
        receiver_cand = has_cand & alive
        taken[receiver_cand] = counts2d[
            idx[receiver_cand], cand_color[receiver_cand]
        ]
        conflict = (
            is_try
            & receiver_cand[sub.indices]
            & (sub.src < sub.indices)
            & (delivered == cand_color[sub.indices])
        )
        stronger = np.bincount(sub.indices[conflict], minlength=n_tot)
        adopt = receiver_cand & (taken + stronger <= defect_arr)
        status[announcing & alive] = 2
        status[adopt] = 1
        colors[adopt] = cand_color[adopt]
        adopted[adopt] = rnd
        for j in live:
            sl = sub.node_slice(j)
            esl = sub.edge_slice(j)
            record_uniform_round(
                metrics_list[j],
                recorders[j],
                int(transmit[esl].sum()),
                bits_list[j],
                active=int(active[sl].sum()),
                faults=per_counts[j],
            )
        rnd += 1
    return colors, adopted, errors


def fk24_vectorized_batch(
    graphs: Sequence[Any],
    lists: Sequence[Mapping[Any, Any] | None] | None = None,
    space_size: int | Sequence[int | None] | None = None,
    defect: int | Sequence[int] = 1,
    recorders: Sequence["RunRecorder | None"] | None = None,
    faults: Sequence[Any] | None = None,
    return_exceptions: bool = False,
    _finalize_recorders: bool = True,
    adoption_outs: Sequence[dict | None] | None = None,
) -> list:
    """Batched twin of :func:`repro.sim.vectorized.fk24_vectorized`.

    Returns one ``(ColoringResult, RunMetrics, palette)`` triple per
    instance — including the later-to-earlier adoption orientation on
    each result — identical to k independent single-instance runs
    (outputs, palettes, metrics, obs rows incl. fault columns).
    ``lists``/``recorders``/``faults``/``adoption_outs`` are per-instance
    sequences (``None`` entries use single-instance defaults);
    ``space_size``/``defect`` broadcast scalars or take one value per
    instance.  With ``return_exceptions=True`` an instance that halts
    (round-budget exhaustion under an adversarial plan) yields its
    :class:`~repro.sim.node.HaltingError` in place, siblings unaffected.
    """
    from ..algorithms.fk24 import fk24_lists, fk24_round_budget
    from .vectorized import adoption_orientation

    gs = list(graphs)
    k = len(gs)
    recs = _seq_arg(recorders, k, "recorders")
    plans = _seq_arg(faults, k, "faults")
    lists_seq = _seq_arg(lists, k, "lists")
    outs_seq = _seq_arg(adoption_outs, k, "adoption_outs")
    defects = _int_list(defect, k, "defect")
    if isinstance(space_size, (list, tuple)):
        if len(space_size) != k:
            raise ValueError(
                f"space_size must have one entry per instance ({k}), "
                f"got {len(space_size)}"
            )
        spaces: list[int | None] = [
            None if s is None else int(s) for s in space_size
        ]
    else:
        spaces = [None if space_size is None else int(space_size)] * k

    with _phase_all(recs, "csr_build"):
        batch = BatchCSRGraph.from_graphs(gs)

    ragged: list[tuple[np.ndarray, np.ndarray]] = []
    budgets: list[int] = []
    bits_list: list[int] = []
    with _phase_all(recs, "schedule"):
        for j in range(k):
            member = batch.members[j]
            lst = lists_seq[j]
            if lst is None:
                lst, built_space = fk24_lists(gs[j], defects[j])
                if spaces[j] is None:
                    spaces[j] = built_space
            per_node = [tuple(lst[v]) for v in member.nodes]
            if spaces[j] is None:
                spaces[j] = max((max(t) for t in per_node if t), default=0) + 1
            list_indptr, list_values = pack_lists(per_node)
            ragged.append((list_indptr, list_values))
            base = fk24_round_budget(int(list_indptr[-1]), member.n)
            budgets.append(
                base if plans[j] is None else plans[j].round_budget(base)
            )
            bits_list.append(int_bits(max(1, 2 * spaces[j] - 1)))

    def _assemble(js: list[int]) -> tuple[
        BatchCSRGraph, np.ndarray, np.ndarray, np.ndarray, np.ndarray
    ]:
        """Sub-batch over members ``js`` plus its ragged/space/defect
        arrays (concatenated in ``js`` order, matching the sub CSR)."""
        if len(js) == k:
            sub = batch
        else:
            sub = BatchCSRGraph.from_csrs([batch.members[j] for j in js])
        indptr_parts = [np.zeros(1, dtype=np.int64)]
        value_parts: list[np.ndarray] = []
        off = 0
        for j in js:
            ip, vals = ragged[j]
            indptr_parts.append(ip[1:] + off)
            value_parts.append(vals)
            off += int(vals.shape[0])
        list_indptr = np.concatenate(indptr_parts)
        list_values = (
            np.concatenate(value_parts)
            if value_parts
            else np.empty(0, dtype=np.int64)
        )
        space_arr = np.concatenate(
            [np.full(batch.members[j].n, spaces[j], dtype=np.int64) for j in js]
        ) if js else np.empty(0, dtype=np.int64)
        defect_arr = np.concatenate(
            [np.full(batch.members[j].n, defects[j], dtype=np.int64) for j in js]
        ) if js else np.empty(0, dtype=np.int64)
        return sub, list_indptr, list_values, space_arr, defect_arr

    metrics_list = [synthesized_metrics(batch.members[j].n) for j in range(k)]
    colors = np.full(batch.n, -1, dtype=np.int64)
    adopted = np.full(batch.n, -1, dtype=np.int64)
    errors: list[BaseException | None] = [None] * k

    plain = [j for j in range(k) if plans[j] is None]
    faulty = [j for j in range(k) if plans[j] is not None]

    if plain:
        with _phase_all([recs[j] for j in plain], "rounds"):
            sub, li, lv, sa, da = _assemble(plain)
            sub_colors, sub_adopted, sub_errors = _fk24_rounds_batch(
                sub, li, lv, sa, da,
                [budgets[j] for j in plain],
                [bits_list[j] for j in plain],
                [metrics_list[j] for j in plain],
                [recs[j] for j in plain],
            )
            _write_back(batch, plain, colors, sub_colors)
            _write_back(batch, plain, adopted, sub_adopted)
        for pos, j in enumerate(plain):
            errors[j] = sub_errors[pos]
    if faulty:
        with _phase_all([recs[j] for j in faulty], "rounds"):
            sub, li, lv, sa, da = _assemble(faulty)
            sub_colors, sub_adopted, sub_errors = _fk24_faulty_rounds_batch(
                sub, li, lv, sa, da,
                [budgets[j] for j in faulty],
                [bits_list[j] for j in faulty],
                [plans[j] for j in faulty],
                [metrics_list[j] for j in faulty],
                [recs[j] for j in faulty],
            )
            _write_back(batch, faulty, colors, sub_colors)
            _write_back(batch, faulty, adopted, sub_adopted)
        for pos, j in enumerate(faulty):
            errors[j] = sub_errors[pos]

    results: list = [None] * k
    for j in range(k):
        member = batch.members[j]
        if errors[j] is not None:
            # flush the partial per-round record before surfacing the
            # halt — the single-instance path's post-mortem contract
            if recs[j] is not None:
                recs[j].finalize(
                    metrics_list[j],
                    n=member.n,
                    m=member.num_directed_edges // 2,
                    palette=spaces[j],
                    algorithm=recs[j].algorithm or "fk24_vectorized",
                )
            results[j] = errors[j]
            continue
        sl = batch.node_slice(j)
        if outs_seq[j] is not None:
            outs_seq[j].update(member.scatter(adopted[sl]))
        res = ColoringResult(
            member.scatter(colors[sl]),
            adoption_orientation(member, adopted[sl]),
        )
        if recs[j] is not None and _finalize_recorders:
            recs[j].finalize(
                metrics_list[j],
                n=member.n,
                m=member.num_directed_edges // 2,
                palette=spaces[j],
                algorithm=recs[j].algorithm or "fk24_vectorized",
            )
        results[j] = (res, metrics_list[j], spaces[j])
    return _raise_or_return(results, return_exceptions)


def greedy_list_vectorized_batch(
    instances: Sequence[Any],
    return_exceptions: bool = False,
) -> list:
    """Batched twin of :func:`repro.sim.vectorized.greedy_list_vectorized`
    (zero-defect list instances, default sorted-label order).

    The sequential greedy is order-dependent *within* an instance but
    independent *across* instances, so the batch runs in waves: wave
    ``t`` colors the ``t``-th node (in sorted label order — dense index
    ``t``, since CSR node labels are sorted) of every still-running
    instance in one vectorized first-free-color scan.  Within an
    instance the waves replay the exact sequential order, so outputs
    match the single-instance path node for node.  A stuck instance
    fails with the identical ``ValueError`` and stops; siblings keep
    coloring.  Returns one :class:`~repro.core.coloring.ColoringResult`
    per instance (or the exception, with ``return_exceptions=True``).
    """
    k = len(instances)
    errors: list[BaseException | None] = [None] * k
    for j, inst in enumerate(instances):
        if inst.directed:
            errors[j] = ValueError(
                "greedy_list_vectorized expects an undirected instance"
            )
        elif any(d for dv in inst.defects.values() for d in dv.values()):
            errors[j] = ValueError(
                "greedy_list_vectorized handles zero-defect instances only; "
                "use repro.algorithms.greedy.greedy_list_coloring for defects"
            )
    valid = [j for j in range(k) if errors[j] is None]
    results: list = [None] * k

    if valid:
        batch = BatchCSRGraph.from_graphs([instances[j].graph for j in valid])
        list_indptr = np.zeros(batch.n + 1, dtype=np.int64)
        value_parts: list[np.ndarray] = []
        offset = 0
        for pos, j in enumerate(valid):
            lp, lv = ragged_lists(batch.members[pos], instances[j].lists)
            sl = batch.node_slice(pos)
            list_indptr[sl.start + 1 : sl.stop + 1] = lp[1:] + offset
            offset += int(lv.shape[0])
            value_parts.append(lv)
        list_values = (
            np.concatenate(value_parts) if value_parts else np.empty(0, np.int64)
        )
        space = int(list_values.max()) + 1 if list_values.size else 1
        final = np.full(batch.n, -1, dtype=np.int64)
        failed = np.zeros(len(valid), dtype=bool)
        max_n = max(m.n for m in batch.members) if batch.k else 0

        for t in range(max_n):
            wave = [
                p
                for p in range(len(valid))
                if not failed[p] and t < batch.members[p].n
            ]
            if not wave:
                continue
            wave_nodes = np.array(
                [batch.node_offsets[p] + t for p in wave], dtype=np.int64
            )
            nstarts = batch.indptr[wave_nodes]
            ncounts = batch.indptr[wave_nodes + 1] - nstarts
            npos, nseg, _ = _segments(nstarts, ncounts)
            ncol = final[batch.indices[npos]]
            seen = ncol >= 0
            taken_keys = nseg[seen] * space + ncol[seen]

            lstarts = list_indptr[wave_nodes]
            lcounts = list_indptr[wave_nodes + 1] - lstarts
            lpos, lseg, lwithin = _segments(lstarts, lcounts)
            cand = list_values[lpos]
            free = ~np.isin(lseg * space + cand, taken_keys)
            pos_masked = np.where(free, lwithin, _NO_PICK)
            loffs = np.zeros(len(wave), dtype=np.int64)
            np.cumsum(lcounts[:-1], out=loffs[1:])
            firsts = np.full(len(wave), _NO_PICK, dtype=np.int64)
            nonempty = lcounts > 0
            if pos_masked.size:
                firsts[nonempty] = np.minimum.reduceat(
                    pos_masked, loffs[nonempty]
                )
            good = firsts < _NO_PICK
            if good.any():
                gsel = np.nonzero(good)[0]
                final[wave_nodes[gsel]] = list_values[
                    lstarts[gsel] + firsts[gsel]
                ]
            for p_idx in np.nonzero(~good)[0]:
                p = wave[p_idx]
                errors[valid[p]] = ValueError(
                    f"greedy stuck at node {batch.members[p].nodes[t]}"
                )
                failed[p] = True

        for pos, j in enumerate(valid):
            if errors[j] is None:
                results[j] = ColoringResult(
                    batch.members[pos].scatter(final[batch.node_slice(pos)])
                )

    for j in range(k):
        if errors[j] is not None:
            results[j] = errors[j]
    return _raise_or_return(results, return_exceptions)


def defective_split_vectorized_batch(
    graphs: Sequence[Any],
    defect: int | Sequence[int] = 1,
    validate: bool = True,
    recorders: Sequence["RunRecorder | None"] | None = None,
    return_exceptions: bool = False,
) -> list:
    """Batched twin of :func:`repro.sim.vectorized.defective_split_vectorized`.

    One block-diagonal Linial run followed by one batch-wide defect
    validation (a single integer bincount across all instances, judged
    per instance against that instance's budget).  Returns one
    ``(classes, metrics, palette)`` triple per instance, identical to
    the single-instance path; a member failing validation yields the
    identical ``ValueError``.
    """
    k = len(graphs)
    recs = _seq_arg(recorders, k, "recorders")
    defects = _int_list(defect, k, "defect")
    errors: list[BaseException | None] = [None] * k
    for j, d in enumerate(defects):
        if d < 0:
            errors[j] = ValueError(f"defect must be >= 0, got {d}")
    valid = [j for j in range(k) if errors[j] is None]
    results: list = [None] * k

    if valid:
        valid_recs = [recs[j] for j in valid]
        with _phase_all(valid_recs, "csr_build"):
            batch = BatchCSRGraph.from_graphs([graphs[j] for j in valid])
        inner = linial_vectorized_batch(
            [graphs[j] for j in valid],
            defect=[defects[j] for j in valid],
            recorders=valid_recs,
            return_exceptions=True,
            _batch=batch,
            _finalize_recorders=False,
        )
        if validate:
            with _phase_all(valid_recs, "validate"):
                colors = np.full(batch.n, -1, dtype=np.int64)
                for pos, out in enumerate(inner):
                    if isinstance(out, BaseException):
                        continue
                    colors[batch.node_slice(pos)] = batch.members[pos].gather(
                        out[0].assignment
                    )
                same = equal_neighbor_counts(batch, colors)
                for pos, j in enumerate(valid):
                    if isinstance(inner[pos], BaseException):
                        continue
                    seg = same[batch.node_slice(pos)]
                    if seg.size and int(seg.max()) > defects[j]:
                        bad = batch.members[pos].nodes[int(np.argmax(seg))]
                        errors[j] = ValueError(
                            f"defective split invalid: node {bad} has "
                            f"{int(seg.max())} same-class neighbors "
                            f"(allowed {defects[j]})"
                        )
        for pos, j in enumerate(valid):
            out = inner[pos]
            if isinstance(out, BaseException):
                errors[j] = out
                continue
            if errors[j] is not None:
                continue  # validation failure: no finalize, like the single path
            res, metrics, palette = out
            member = batch.members[pos]
            if recs[j] is not None:
                recs[j].finalize(
                    metrics,
                    n=member.n,
                    m=member.num_directed_edges // 2,
                    palette=palette,
                    algorithm=recs[j].algorithm or "defective_split_vectorized",
                )
            results[j] = (dict(res.assignment), metrics, palette)

    for j in range(k):
        if errors[j] is not None:
            results[j] = errors[j]
    return _raise_or_return(results, return_exceptions)


def classic_delta_plus_one_vectorized_batch(
    graphs: Sequence[Any],
    recorders: Sequence["RunRecorder | None"] | None = None,
    return_exceptions: bool = False,
) -> list:
    """Batched twin of
    :func:`repro.sim.vectorized.classic_delta_plus_one_vectorized`.

    The Linial stage runs block-diagonal; the per-class schedule
    reduction runs per instance (its round structure is data-dependent);
    metrics merge through :func:`merge_sequential_batch` with each
    instance's **own** CONGEST budget stated explicitly as the budget of
    record — never a silently unified scalar.  Returns one
    ``(ColoringResult, RunMetrics)`` pair per instance.
    """
    from .vectorized import schedule_reduction_vectorized

    k = len(graphs)
    recs = _seq_arg(recorders, k, "recorders")
    inner = linial_vectorized_batch(
        graphs,
        recorders=recs,
        return_exceptions=True,
        _finalize_recorders=False,
    )
    results: list = [None] * k
    firsts: list[RunMetrics] = []
    seconds: list[RunMetrics] = []
    limits: list[int] = []
    staged: list[tuple[int, ColoringResult, int]] = []
    for j in range(k):
        out = inner[j]
        if isinstance(out, BaseException):
            results[j] = out
            continue
        pre, m1, _palette = out
        graph = graphs[j]
        delta = max((d for _, d in graph.degree), default=0)
        res, m2 = schedule_reduction_vectorized(
            graph,
            pre.assignment,
            delta + 1,
            recorder=recs[j],
            _finalize_recorder=False,
        )
        firsts.append(m1)
        seconds.append(m2)
        limits.append(congest_bandwidth(graph.number_of_nodes()))
        staged.append((j, res, delta))
    merged_list = merge_sequential_batch(firsts, seconds, bandwidth_limits=limits)
    for (j, res, delta), merged in zip(staged, merged_list):
        graph = graphs[j]
        if recs[j] is not None:
            recs[j].finalize(
                merged,
                n=graph.number_of_nodes(),
                m=graph.number_of_edges(),
                palette=delta + 1,
                algorithm=recs[j].algorithm or "classic_vectorized",
            )
        results[j] = (res, merged)
    return _raise_or_return(results, return_exceptions)


# ----------------------------------------------------------------------
# round-stepped driver (continuous batching substrate)
# ----------------------------------------------------------------------
class BatchInstance:
    """One Linial instance's complete state inside a round-stepped run.

    The batched kernels above are *drain* drivers: they take k instances,
    loop rounds internally, and return k results.  A serving scheduler
    needs the inverse control flow — *it* owns the round loop, so it can
    evict finished instances and admit queued ones between rounds
    (continuous batching).  A ``BatchInstance`` is therefore one
    instance's progress made explicit and portable: its CSR, schedule,
    current colors, per-node step counters, metrics, and (optionally) the
    :class:`~repro.faults.FaultPlan` adversary with its local round
    clock and pending-delivery buffer.  Because a Linial run is a pure
    function of ``(colors, schedule[, plan])`` and the block-diagonal
    packing never lets information cross instance boundaries, an
    instance computes the *identical* result no matter which batch
    composition — or admission round — each of its steps executed under.

    Build instances with :func:`make_batch_instance`; drive them with
    :class:`LinialBatchStepper`.
    """

    _next_uid = 0

    def __init__(
        self,
        csr: CSRGraph,
        sched: list,
        colors: np.ndarray,
        *,
        palette: int,
        bits: int,
        plan=None,
        recorder: "RunRecorder | None" = None,
    ) -> None:
        BatchInstance._next_uid += 1
        #: Stable identity across repacks (assigned at construction).
        self.uid = BatchInstance._next_uid
        self.csr = csr
        self.sched = sched
        self.colors = colors
        self.palette = palette
        self.bits = bits
        self.plan = plan
        self.recorder = recorder
        self.metrics = synthesized_metrics(csr.n)
        self.step = 0
        self.rounds_resident = 0
        self.error: BaseException | None = None
        self.result: tuple | None = None
        if plan is not None:
            from ..faults.plan import node_labels_u64

            self._steps = np.zeros(csr.n, dtype=np.int64)
            self._labels = node_labels_u64(csr.nodes)
            self._src_labels = self._labels[csr.src]
            self._dst_labels = self._labels[csr.indices]
            self._budget = plan.round_budget(len(sched))
            self._pending: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
            self._rnd = 0

    # ------------------------------------------------------------------
    @property
    def complete(self) -> bool:
        """True once the instance needs no further rounds (done or halted)."""
        if self.error is not None:
            return True
        if self.plan is None:
            return self.step >= len(self.sched)
        return not bool((self._steps < len(self.sched)).any())

    @property
    def finished(self) -> bool:
        """True once :meth:`finalize` sealed the instance's outcome."""
        return self.result is not None or self.error is not None

    def current_step(self):
        """The schedule step this instance executes next (plain path)."""
        return self.sched[self.step]

    # ------------------------------------------------------------------
    def finalize(self, algorithm: str = "linial_vectorized") -> None:
        """Seal the outcome: build the result triple (or flush the halt).

        Mirrors :func:`linial_vectorized_batch`'s finish path — a halted
        instance flushes its partial per-round record before the error
        is surfaced; a completed one produces the same ``(ColoringResult,
        RunMetrics, palette)`` triple as its single-instance twin.
        """
        if self.finished:
            return
        if self.recorder is not None:
            self.recorder.finalize(
                self.metrics,
                n=self.csr.n,
                m=self.csr.num_directed_edges // 2,
                palette=self.palette,
                algorithm=self.recorder.algorithm or algorithm,
            )
        if self.error is None:
            self.result = (
                ColoringResult(self.csr.scatter(self.colors)),
                self.metrics,
                self.palette,
            )

    def outcome(self):
        """The finished result triple, or the per-instance exception."""
        if not self.finished:
            raise RuntimeError("instance has not finished; step it first")
        return self.error if self.error is not None else self.result

    # ------------------------------------------------------------------
    def _faulty_round(self) -> None:
        """One faulty round on this instance's *local* clock.

        A verbatim single-iteration transliteration of
        :func:`repro.sim.vectorized._linial_faulty_rounds` — plan queries
        use the instance's own round counter and label arrays, so an
        instance admitted at any global round replays exactly the
        adversary its standalone run would, and the per-round fault
        columns stay the cross-engine invariant.
        """
        from ..faults.plan import (
            FATE_CORRUPT,
            FATE_DELAY,
            FATE_DELIVER,
            FATE_DROP,
            FATE_DUPLICATE,
        )

        csr, plan = self.csr, self.plan
        n = csr.n
        total = len(self.sched)
        rnd = self._rnd
        if rnd >= self._budget:
            unfinished = [
                csr.nodes[i] for i in np.nonzero(self._steps < total)[0]
            ]
            self.error = HaltingError(rounds=rnd, unfinished=unfinished)
            return
        alive = ~plan.crashed_mask(rnd, self._labels)
        active = self._steps < total
        transmit = (active & alive)[csr.src]
        counts = dict.fromkeys(
            ("dropped", "corrupted", "delayed", "duplicated"), 0
        )
        counts["crashed"] = int(n - alive.sum())

        delivered = np.full(csr.num_directed_edges, -1, dtype=np.int64)
        for edge_idx, values in self._pending.pop(rnd, ()):
            delivered[edge_idx] = values
        if transmit.any():
            codes, delays = plan.edge_fates(
                rnd, self._src_labels, self._dst_labels
            )
            codes = np.where(transmit, codes, -1)
            payload = self.colors[csr.src]
            counts["dropped"] = int((codes == FATE_DROP).sum())
            counts["corrupted"] = int((codes == FATE_CORRUPT).sum())
            counts["delayed"] = int((codes == FATE_DELAY).sum())
            counts["duplicated"] = int((codes == FATE_DUPLICATE).sum())
            for code in (FATE_DELAY, FATE_DUPLICATE):
                idx = np.nonzero(codes == code)[0]
                for d in np.unique(delays[idx]):
                    sel = idx[delays[idx] == d]
                    self._pending.setdefault(rnd + int(d), []).append(
                        (sel, payload[sel].copy())
                    )
            now = (codes == FATE_DELIVER) | (codes == FATE_DUPLICATE)
            delivered[now] = payload[now]
            corrupt = codes == FATE_CORRUPT
            if corrupt.any():
                delivered[corrupt] = plan.corrupt_values(
                    rnd,
                    self._src_labels[corrupt],
                    self._dst_labels[corrupt],
                    payload[corrupt],
                )
        delivered[~alive[csr.indices]] = -1

        receiving = active & alive
        new_colors = self.colors.copy()
        for s in np.unique(self._steps[receiving]):
            step = self.sched[s]
            q, deg = step.q, step.deg
            domain = q ** (deg + 1)
            group = receiving & (self._steps == s)
            own_evals = poly_eval_grid(poly_digits(self.colors, q, deg), q)
            edge_ok = (
                group[csr.indices] & (delivered >= 0) & (delivered < domain)
            )
            hits = np.zeros((q, n), dtype=np.int64)
            if edge_ok.any():
                edge_dst = csr.indices[edge_ok]
                edge_evals = poly_eval_grid(
                    poly_digits(delivered[edge_ok], q, deg), q
                )
                hits = match_counts(edge_evals == own_evals[:, edge_dst], edge_dst, n)
            members = np.nonzero(group)[0]
            best_x = np.argmin(hits[:, members], axis=0)
            new_colors[members] = best_x * q + own_evals[best_x, members]
        self.colors = new_colors
        self._steps[receiving] += 1

        record_uniform_round(
            self.metrics,
            self.recorder,
            int(transmit.sum()),
            self.bits,
            active=int(active.sum()),
            faults=counts,
        )
        self._rnd += 1


def make_batch_instance(
    graph: Any = None,
    *,
    csr: CSRGraph | None = None,
    initial_colors: dict[Any, int] | None = None,
    defect: int = 0,
    faults=None,
    recorder: "RunRecorder | None" = None,
) -> BatchInstance:
    """Freeze one Linial request into a steppable :class:`BatchInstance`.

    Mirrors :func:`~repro.sim.vectorized.linial_vectorized`'s setup
    exactly — identity initial colors by default, the zero-defect
    :func:`~repro.algorithms.linial.linial_schedule` or the
    defect-``d`` :func:`~repro.algorithms.linial.defective_schedule`,
    the same palette and per-message bit width — so stepping the
    instance to completion (under any batch composition) reproduces the
    single-instance triple bit for bit.  ``csr`` lets a caller that
    already froze the topology skip the second freeze.
    """
    from ..algorithms.linial import defective_schedule, linial_schedule

    if csr is None:
        if graph is None:
            raise ValueError("make_batch_instance needs a graph or a csr")
        csr = CSRGraph.from_networkx(graph)
    n = csr.n
    delta = int(csr.degrees.max()) if n else 0
    if initial_colors is None:
        m0 = n if n else 1
        colors = np.arange(n, dtype=np.int64)
    else:
        m0 = max(initial_colors.values()) + 1 if initial_colors else 1
        colors = csr.gather(initial_colors)
    sched = (
        linial_schedule(m0, delta)
        if defect == 0
        else defective_schedule(m0, delta, defect)
    )
    palette = sched[-1].out_colors if sched else m0
    return BatchInstance(
        csr,
        sched,
        colors,
        palette=palette,
        bits=int_bits(max(1, m0 - 1)),
        plan=faults,
        recorder=recorder,
    )


class StepReport:
    """What one :meth:`LinialBatchStepper.step` round did.

    ``finished`` is the round's newly sealed instances (completed *or*
    halted — check :attr:`BatchInstance.error`), already evicted from the
    stepper's live set; ``live`` counts the instances that participated,
    ``groups`` the distinct ``(q, deg)`` kernel groups the plain cohort
    packed into, and ``round_index`` the stepper's global round clock.
    """

    __slots__ = ("round_index", "live", "groups", "finished")

    def __init__(
        self,
        round_index: int,
        live: int,
        groups: int,
        finished: tuple[BatchInstance, ...],
    ) -> None:
        self.round_index = round_index
        self.live = live
        self.groups = groups
        self.finished = finished


class LinialBatchStepper:
    """Round-stepped block-diagonal execution with mid-run repacking.

    The continuous-batching substrate :mod:`repro.serve` schedules on:
    the caller owns the round loop — :meth:`admit` new instances between
    rounds, :meth:`step` one synchronous round over the current
    membership, and collect the step's ``finished`` instances (their
    slots are free immediately; per-instance termination masks are
    literal here, a finished instance simply leaves the membership).

    Each round, live fault-free instances are grouped by their current
    schedule step's ``(q, deg)`` and each group runs through the shared
    grid-evaluation/collision kernels in cache-sized tiles
    (:data:`_TILE_NODES`), exactly like :func:`_linial_rounds_batch`;
    faulty instances run their own local-clock round via
    :meth:`BatchInstance._faulty_round`.  Because no kernel ever reads
    across an instance boundary, every instance's final triple is
    bit-identical to its single-instance
    :func:`~repro.sim.vectorized.linial_vectorized` run regardless of
    when it was admitted or which siblings shared its rounds — the
    property ``tests/test_serve.py`` pins and ``benchmarks/bench_serve.py``
    re-asserts end to end against the offline batched engine.
    """

    def __init__(self, instances: Sequence[BatchInstance] = ()) -> None:
        self._live: list[BatchInstance] = []
        self._sealed_at_admit: list[BatchInstance] = []
        self._round = 0
        for inst in instances:
            self.admit(inst)

    # ------------------------------------------------------------------
    @property
    def round_index(self) -> int:
        """Global rounds stepped so far."""
        return self._round

    @property
    def occupancy(self) -> int:
        """Live instances currently packed (the batch's fill level)."""
        return len(self._live)

    @property
    def live(self) -> tuple[BatchInstance, ...]:
        """The current membership, admission order (per-round view)."""
        return tuple(self._live)

    @property
    def drained(self) -> bool:
        """True when a :meth:`step` would have nothing to do or report.

        Covers both live instances and instances sealed at admission
        that still await delivery through a step's ``finished`` list.
        """
        return not self._live and not self._sealed_at_admit

    # ------------------------------------------------------------------
    def admit(self, inst: BatchInstance) -> BatchInstance:
        """Add an instance to the membership, effective next round.

        An instance that needs no rounds at all (empty schedule) is
        sealed immediately and reported in the next step's ``finished``
        — it never occupies a slot.
        """
        if inst.finished:
            raise ValueError("cannot admit an already-finished instance")
        if inst.complete:
            inst.finalize()
            self._sealed_at_admit.append(inst)
        else:
            self._live.append(inst)
        return inst

    def evict(self, inst: BatchInstance) -> bool:
        """Remove an instance from the membership without finishing it.

        The deadline-enforcement hook for serving schedulers: an
        instance whose request can no longer meet its latency budget
        leaves the batch immediately — its slot refills next admission
        — instead of burning rounds on an answer nobody is waiting for.
        Its partial state is abandoned (no :meth:`BatchInstance.finalize`),
        so it never appears in a later step's ``finished`` list.  Because
        the block-diagonal kernels never read across instance
        boundaries, removing a member mid-run cannot perturb any
        sibling's colors.  Returns whether the instance was resident.
        """
        for members in (self._live, self._sealed_at_admit):
            try:
                members.remove(inst)
                return True
            except ValueError:
                continue
        return False

    def step(self) -> StepReport:
        """Run one synchronous round over the current membership.

        Finished instances (including any sealed at admission since the
        last step) are evicted from the membership and returned in the
        report; the freed slots are available to :meth:`admit` before
        the next round — which is all continuous batching is.
        """
        finished: list[BatchInstance] = self._sealed_at_admit
        self._sealed_at_admit = []
        live = list(self._live)
        plain = [i for i in live if i.plan is None]
        faulty = [i for i in live if i.plan is not None]

        groups: dict[tuple[int, int], list[BatchInstance]] = {}
        for inst in plain:
            step = inst.current_step()
            groups.setdefault((step.q, step.deg), []).append(inst)
        for (q, deg), members in sorted(groups.items()):
            node_counts = [m.csr.n for m in members]
            for tile in _node_tiles(list(range(len(members))), node_counts):
                tile_members = [members[p] for p in tile]
                if len(tile_members) == 1:
                    m = tile_members[0]
                    evals = poly_eval_grid(poly_digits(m.colors, q, deg), q)
                    hits = collision_counts(m.csr, evals)
                    best_x = np.argmin(hits, axis=0)
                    m.colors = best_x * q + evals[best_x, np.arange(m.csr.n)]
                    continue
                sub = BatchCSRGraph.from_csrs([m.csr for m in tile_members])
                colors = np.concatenate([m.colors for m in tile_members])
                evals = poly_eval_grid(poly_digits(colors, q, deg), q)
                hits = collision_counts(sub, evals)
                best_x = np.argmin(hits, axis=0)
                colors = best_x * q + evals[best_x, np.arange(sub.n)]
                for j, m in enumerate(tile_members):
                    m.colors = colors[sub.node_slice(j)].copy()
        for inst in plain:
            record_uniform_round(
                inst.metrics,
                inst.recorder,
                inst.csr.num_directed_edges,
                inst.bits,
                active=inst.csr.n,
            )
            inst.step += 1

        for inst in faulty:
            inst._faulty_round()

        still_live: list[BatchInstance] = []
        for inst in live:
            inst.rounds_resident += 1
            if inst.complete:
                inst.finalize()
                finished.append(inst)
            else:
                still_live.append(inst)
        self._live = still_live
        self._round += 1
        return StepReport(
            round_index=self._round - 1,
            live=len(live),
            groups=len(groups) + len(faulty),
            finished=tuple(finished),
        )

    def run_to_completion(self) -> list[BatchInstance]:
        """Step until the membership drains (static batch-and-drain mode).

        The offline counterpart of a serving loop — used by tests to pin
        stepper-vs-:func:`linial_vectorized_batch` equivalence.
        """
        done: list[BatchInstance] = []
        while self._live or self._sealed_at_admit:
            done.extend(self.step().finished)
        return done


def merge_sequential_batch(
    firsts: Sequence[RunMetrics],
    seconds: Sequence[RunMetrics],
    *,
    bandwidth_limits: Sequence[int | None] | int | None,
) -> list[RunMetrics]:
    """Per-instance :meth:`~repro.sim.metrics.RunMetrics.merge_sequential`
    with an **explicit budget of record per instance**.

    ``bandwidth_limits`` is normally one limit per instance (each
    instance's own CONGEST budget).  A scalar is accepted only when it
    matches every instance's native limit — a batch mixing budgets (e.g.
    cells of different ``n``) raises ``ValueError`` instead of silently
    unifying the budgets under one number, which would misattribute
    bandwidth violations across instances.
    """
    firsts = list(firsts)
    seconds = list(seconds)
    if len(firsts) != len(seconds):
        raise ValueError(
            f"merge_sequential_batch: {len(firsts)} first-phase vs "
            f"{len(seconds)} second-phase metrics"
        )
    k = len(firsts)
    if bandwidth_limits is None or isinstance(bandwidth_limits, int):
        native = {
            m.bandwidth_limit
            for m in [*firsts, *seconds]
            if m.bandwidth_limit is not None
        }
        if native - ({bandwidth_limits} if bandwidth_limits is not None else set()):
            raise ValueError(
                "merge_sequential_batch: mixed-budget batch — instances "
                f"carry bandwidth limits {sorted(native)} but a single "
                f"limit {bandwidth_limits!r} was given; pass one explicit "
                "bandwidth limit per instance (the budget of record is "
                "per-instance, never silently unified)"
            )
        limits: list[int | None] = [bandwidth_limits] * k
    else:
        limits = list(bandwidth_limits)
        if len(limits) != k:
            raise ValueError(
                f"merge_sequential_batch: {len(limits)} bandwidth limits "
                f"for {k} instances"
            )
    return [
        first.merge_sequential(second, bandwidth_limit=limit)
        for first, second, limit in zip(firsts, seconds, limits)
    ]
