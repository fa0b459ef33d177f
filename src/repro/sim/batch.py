"""Every vectorized algorithm, run over k graphs at once.

Each fast algorithm is implemented exactly once, here.  The round rules
of Linial and the [FK24] list-defective algorithm are held once each:

* :func:`linial_step` — one fault-free Linial step (digits → evaluation
  grid → collision count → first-occurrence ``argmin``), called by the
  batched driver, the serving stepper and the partitioned shard worker;
* :func:`_linial_receive` — the faulty Linial receive over delivered
  payloads, shared by the batched faulty loop and
  :meth:`BatchInstance._faulty_round`;
* :func:`_deliver` — one instance's round of faulty delivery (fates,
  the pending buffer, corruption, fault counts), shared by every faulty
  loop;
* the FK24 round loops (:func:`_fk24_rounds_batch`,
  :func:`_fk24_faulty_rounds_batch`) with their candidate rule
  (:class:`_CandidateScan`) and the adoption orientation
  (:func:`adoption_orientation`).

The pipelines built on them live here too: the classic (Δ+1) pipeline
(Linial, then :func:`schedule_reduction_vectorized`, the one-class-per-
round list reduction), the defective split, and the sequential greedy
(:func:`greedy_list_vectorized` and its wave-batched twin).

Every engine is an executor around these rules.  The drivers
(:func:`linial_vectorized_batch`, :func:`fk24_vectorized_batch`,
:func:`classic_delta_plus_one_vectorized_batch`,
:func:`defective_split_vectorized_batch`,
:func:`greedy_list_vectorized_batch`) run k instances packed into one
block-diagonal :class:`BatchCSRGraph`; the single-instance functions of
:mod:`repro.sim.vectorized` are their k=1 calls.  The kernels are
embarrassingly parallel across instances — no information ever crosses
an instance boundary — so a grid of thousands of *small* instances pays
Python dispatch once per round, not once per instance per round.

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

**Equivalence contract** (the point of the whole module): each driver
produces, per instance, the *identical* ``(output, RunMetrics,
palette)`` triple — and, with recorders attached, the identical obs
schema v2 :class:`~repro.obs.RunRecord` rows including per-round fault
columns — as a run of that instance alone, which in turn equals the
reference simulator's run.  Per-instance termination masks stop finished
(or halted) instances from contributing rounds, and the per-instance
accounting is demultiplexed through
:func:`~repro.sim.engine.record_uniform_round`.  The battery in
``tests/test_batch.py`` replays the entire fuzz corpus through this
module at batch sizes 1/4/16 and asserts node-for-node equality.

Fault injection batches too: the drivers accept one
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
from itertools import accumulate
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from ..core.coloring import ColoringResult, EdgeOrientation
from .engine import (
    CSRGraph,
    _adjacency,
    _networkx_edges,
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
from .message import index_bits, int_bits
from .metrics import RunMetrics
from .node import HaltingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> sim)
    from ..obs import RunRecorder

#: Sentinel larger than any within-list position (the greedy first-free
#: and FK24 first-viable scans).
_NO_POS = np.int64(1) << np.int64(60)


# ----------------------------------------------------------------------
# the block-diagonal graph
# ----------------------------------------------------------------------
def _shift(a: np.ndarray, by: int) -> np.ndarray:
    """``a + by``, or ``a`` itself when ``by`` is 0: frozen CSR arrays are
    never written, so a batch may share them with its members."""
    return a + by if by else a


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    """``np.concatenate(parts)``, sharing a lone part rather than copying it."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _join_indptrs(indptrs: Sequence[np.ndarray], starts) -> np.ndarray:
    """One prefix array from per-part prefix arrays (CSR ``indptr``\\ s or
    ragged-list ``list_indptr``\\ s), part ``p`` shifted by ``starts[p]``."""
    return _concat(
        [
            _shift(ip[1 if p else 0 :], start)
            for p, (ip, start) in enumerate(zip(indptrs, starts))
        ]
        or [np.zeros(1, dtype=np.int64)]
    )


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
        own node range *by construction*.  Concatenated on first use: a
        driver that runs its members tile by tile never packs the whole
        batch.
    instance_id:
        Per dense node, the owning member's batch index.
    """

    __slots__ = ("members", "k", "_node_bounds", "_edge_bounds", "_arrays")

    def __init__(self, members: Sequence[CSRGraph]) -> None:
        self.members = tuple(members)
        self.k = len(self.members)
        # plain-int prefix lists: slicing by them is the per-round hot path
        self._node_bounds = [0, *accumulate(m.n for m in self.members)]
        self._edge_bounds = [
            0, *accumulate(m.num_directed_edges for m in self.members)
        ]
        self._arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def _packed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, src)``: each member's arrays shifted into
        the global ranges, concatenated on the first call."""
        if self._arrays is None:
            shifted = list(zip(self.members, self._node_bounds))
            empty = [np.zeros(0, dtype=np.int64)]
            self._arrays = (
                _join_indptrs([m.indptr for m in self.members], self._edge_bounds),
                _concat([_shift(m.indices, o) for m, o in shifted] or empty),
                _concat([_shift(m.src, o) for m, o in shifted] or empty),
            )
        return self._arrays

    @property
    def indptr(self) -> np.ndarray:
        """The concatenated ``indptr`` (``len n + 1``)."""
        return self._packed()[0]

    @property
    def indices(self) -> np.ndarray:
        """The concatenated neighbor ids, in the global dense range."""
        return self._packed()[1]

    @property
    def src(self) -> np.ndarray:
        """The concatenated source ids, in the global dense range."""
        return self._packed()[2]

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
        exactly what a per-graph freeze would have produced.  Members that
        are already frozen :class:`~repro.sim.engine.CSRGraph`\\ s are used
        as they are: a batch holding any is packed member by member
        (:meth:`from_csrs`), freezing only its networkx members.
        """
        if any(isinstance(g, CSRGraph) for g in graphs):
            return cls([as_csr(g) for g in graphs])
        nodes_list, index_list, node_offsets, edges = _networkx_edges(graphs)
        k = len(nodes_list)
        n_total = int(node_offsets[-1])
        # _adjacency's stable sort by (global) source: member node ranges
        # are disjoint and increasing, so it both groups edges by member
        # and, within a member, gives exactly from_networkx's arrays.
        indptr, indices = _adjacency(n_total, edges)
        src = np.repeat(np.arange(n_total, dtype=np.int64), indptr[1:] - indptr[:-1])
        node_bounds = node_offsets.tolist()
        edge_bounds = indptr[node_offsets].tolist()

        members = []
        for j in range(k):
            n0, n1 = node_bounds[j], node_bounds[j + 1]
            e0, e1 = edge_bounds[j], edge_bounds[j + 1]
            members.append(
                CSRGraph(
                    n1 - n0,
                    nodes_list[j],
                    index_list[j],
                    _shift(indptr[n0 : n1 + 1], -e0),
                    _shift(indices[e0:e1], -n0),
                    src=_shift(src[e0:e1], -n0),
                )
            )

        batch = cls(members)
        batch._arrays = (indptr, indices, src)
        return batch

    @classmethod
    def from_csrs(cls, csrs: Sequence[CSRGraph]) -> "BatchCSRGraph":
        """Pack already-frozen member CSRs (arrays concatenated on first use)."""
        return cls(csrs)

    def __len__(self) -> int:
        return self.k

    # ------------------------------------------------------------------
    @property
    def node_offsets(self) -> np.ndarray:
        """``len k+1`` prefix array of member node counts."""
        return np.array(self._node_bounds, dtype=np.int64)

    @property
    def edge_offsets(self) -> np.ndarray:
        """``len k+1`` prefix array of member directed edge counts."""
        return np.array(self._edge_bounds, dtype=np.int64)

    @property
    def n(self) -> int:
        """Total dense node count across all members (duck-types as
        ``CSRGraph.n`` for the shared engine kernels)."""
        return self._node_bounds[-1]

    @property
    def num_directed_edges(self) -> int:
        """Total directed edge slots across all members."""
        return self._edge_bounds[-1]

    @property
    def instance_id(self) -> np.ndarray:
        """Per dense node, the owning member's batch index."""
        return np.repeat(
            np.arange(self.k, dtype=np.int64), np.diff(self.node_offsets)
        )

    @property
    def edge_instance_id(self) -> np.ndarray:
        """Per directed edge slot, the owning member's batch index."""
        return np.repeat(
            np.arange(self.k, dtype=np.int64), np.diff(self.edge_offsets)
        )

    def node_slice(self, j: int) -> slice:
        """Member ``j``'s contiguous dense node range."""
        return slice(self._node_bounds[j], self._node_bounds[j + 1])

    def edge_slice(self, j: int) -> slice:
        """Member ``j``'s contiguous directed edge range."""
        return slice(self._edge_bounds[j], self._edge_bounds[j + 1])

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
    if recorders.count(None) < len(recorders):
        return _MultiPhase(recorders, name)
    return nullcontext()


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
    if len(js) == batch.k:
        colors[:] = sub_colors
        return
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
# the round rules: one Linial step, one faulty delivery, one faulty receive
# ----------------------------------------------------------------------
def linial_step(
    csr: Any, colors: np.ndarray, q: int, deg: int, owned: int | None = None
) -> np.ndarray:
    """One fault-free Linial color reduction step over ``csr``.

    Each node reads its color as a degree-``deg`` polynomial over
    ``F_q`` (base-``q`` digits), counts per evaluation point how many
    neighbors agree with it (:func:`~repro.sim.engine.collision_counts`)
    and moves to ``x * q + p(x)`` at the first point ``x`` of fewest
    collisions (NumPy's first-occurrence ``argmin``: the smallest point
    among the minima, the reference's tie-break).  ``csr`` is a
    :class:`~repro.sim.engine.CSRGraph`, a :class:`BatchCSRGraph` or a
    shard's local adjacency.  With ``owned``, only the first ``owned``
    columns are updated and returned; columns are independent, so the cut
    keeps the full graph's tie-break (the partitioned shard worker's
    ghost columns).
    """
    evals = poly_eval_grid(poly_digits(colors, q, deg), q)
    hits = collision_counts(csr, evals)
    if owned is not None:
        hits = hits[:, :owned]
    best_x = np.argmin(hits, axis=0)
    return best_x * q + evals[best_x, np.arange(best_x.shape[0])]


#: The per-round fault columns a faulty run records, in row order.
_FAULT_COLUMNS = ("dropped", "corrupted", "delayed", "duplicated")


def _deliver(
    plan,
    rnd: int,
    transmit: np.ndarray,
    payload: np.ndarray,
    src_labels: np.ndarray,
    dst_labels: np.ndarray,
    pending: dict[int, list[tuple[np.ndarray, np.ndarray]]],
    delivered: np.ndarray,
    offset: int,
    crashed: int,
) -> dict[str, int]:
    """One instance's round of faulty delivery, mirroring the reference
    simulator edge for edge; returns the round's fault counts.

    The arrays are the instance's directed-edge slices: ``transmit``
    marks the slots whose sender speaks this round, ``payload`` what it
    sends.  Fates come from the plan's vectorized hash over the label
    slices (pinned equal to the scalar hash).  Delivered and corrupted
    payloads are written into ``delivered`` (a view into the round's
    delivery array); delayed and duplicated copies are queued in
    ``pending`` under their delivery round, keyed by edge slot plus
    ``offset`` (the instance's first slot in that array), where a later
    write overwrites an earlier one like the reference's sender-keyed
    inbox.  ``crashed`` is the round's count of crashed nodes.
    """
    from ..faults.plan import (
        FATE_CORRUPT,
        FATE_DELAY,
        FATE_DELIVER,
        FATE_DROP,
        FATE_DUPLICATE,
    )

    counts = dict.fromkeys(_FAULT_COLUMNS, 0)
    counts["crashed"] = crashed
    if not transmit.any():
        return counts
    codes, delays = plan.edge_fates(rnd, src_labels, dst_labels)
    codes = np.where(transmit, codes, -1)
    for name, code in zip(
        _FAULT_COLUMNS, (FATE_DROP, FATE_CORRUPT, FATE_DELAY, FATE_DUPLICATE)
    ):
        counts[name] = int((codes == code).sum())
    for code in (FATE_DELAY, FATE_DUPLICATE):
        idx = np.flatnonzero(codes == code)
        for d in np.unique(delays[idx]):
            sel = idx[delays[idx] == d]
            pending.setdefault(rnd + int(d), []).append(
                (sel + offset, payload[sel].copy())
            )
    now = (codes == FATE_DELIVER) | (codes == FATE_DUPLICATE)
    delivered[now] = payload[now]
    corrupt = codes == FATE_CORRUPT
    if corrupt.any():
        delivered[corrupt] = plan.corrupt_values(
            rnd, src_labels[corrupt], dst_labels[corrupt], payload[corrupt]
        )
    return counts


def _linial_receive(
    csr: Any,
    colors: np.ndarray,
    delivered: np.ndarray,
    receiving: np.ndarray,
    q_of: np.ndarray,
    deg_of: np.ndarray,
) -> np.ndarray:
    """The faulty Linial receive: new colors after one round's deliveries.

    A receiving node ``i`` at schedule step ``(q_of[i], deg_of[i])``
    counts, per evaluation point, the deliveries it got (``delivered`` per
    directed edge slot, ``-1`` for none) that decode inside its step's
    ``q^(deg+1)`` domain and agree with its own polynomial, then moves
    like :func:`linial_step`.  Delivery is per direction, so matches are
    counted at the receiver only (:func:`~repro.sim.engine.match_counts`).
    Nodes are processed in ``(q, deg)`` groups; each node's update reads
    only its own color and its own deliveries, so the grouping never
    changes a color.  Non-receiving nodes keep theirs.
    """
    new_colors = colors.copy()
    recv = np.flatnonzero(receiving)
    if not recv.size:
        return new_colors
    local = np.full(csr.n, -1, dtype=np.int64)
    for q, deg in sorted(set(zip(q_of[recv].tolist(), deg_of[recv].tolist()))):
        group = receiving & (q_of == q) & (deg_of == deg)
        members = np.flatnonzero(group)
        g = members.size
        local[members] = np.arange(g, dtype=np.int64)
        own_evals = poly_eval_grid(poly_digits(colors[members], q, deg), q)
        edge_ok = group[csr.indices] & (delivered >= 0) & (delivered < q ** (deg + 1))
        dst = local[csr.indices[edge_ok]]
        edge_evals = poly_eval_grid(poly_digits(delivered[edge_ok], q, deg), q)
        hits = match_counts(edge_evals == own_evals[:, dst], dst, g)
        best_x = np.argmin(hits, axis=0)  # first occurrence
        new_colors[members] = best_x * q + own_evals[best_x, np.arange(g)]
    return new_colors


# ----------------------------------------------------------------------
# batched Linial
# ----------------------------------------------------------------------
#: Node-count cap per round-kernel tile.  One monolithic (q, n_total)
#: evaluation grid falls out of cache once n_total reaches the tens of
#: thousands and goes memory-bound — measurably *slower* than the
#: per-instance loop it replaces — while tiles of a few thousand nodes
#: keep the working set cache-resident and still amortize dispatch over
#: dozens of small instances.  The FK24 driver runs one round loop per
#: tile for the same reason: random_regular d=8 with FK24 lists at
#: defect 1, one process, one k-member call cost 1.37x the k one-member
#: calls untiled at n=5000 k=6 and 1.01x tiled; at n=64 k=64 it costs
#: 0.39x tiled (0.41x untiled).
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


def _live_members(
    sub: BatchCSRGraph,
    unfinished: np.ndarray,
    rnd: int,
    budgets: list[int],
    errors: list[BaseException | None],
) -> tuple[list[int], list[slice]]:
    """The members that run round ``rnd``, and the node ranges of those
    halted at it.

    A member runs while it is not halted, has an ``unfinished`` node, and
    is within its round budget.  One that has used up its budget is
    halted here with the reference's :class:`~repro.sim.node.HaltingError`
    (stored in ``errors``, not raised, so siblings keep running); the
    caller retires its nodes.
    """
    live: list[int] = []
    halted: list[slice] = []
    for j in range(sub.k):
        if errors[j] is not None:
            continue
        sl = sub.node_slice(j)
        if not unfinished[sl].any():
            continue
        if rnd < budgets[j]:
            live.append(j)
            continue
        nodes = sub.members[j].nodes
        errors[j] = HaltingError(
            rounds=rnd,
            unfinished=[nodes[i] for i in np.flatnonzero(unfinished[sl]).tolist()],
        )
        halted.append(sl)
    return live, halted


def _fault_labels(sub: BatchCSRGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node fault-plan labels, and their per-edge source/receiver
    gathers, over the whole batch."""
    from ..faults.plan import node_labels_u64

    labels = (
        np.concatenate([node_labels_u64(m.nodes) for m in sub.members])
        if sub.k
        else np.empty(0, dtype=np.uint64)
    )
    return labels, labels[sub.src], labels[sub.indices]


def _linial_rounds_batch(
    batch: BatchCSRGraph, scheds: list, colors: np.ndarray, js: list[int]
) -> np.ndarray:
    """Run members ``js``' schedules (``scheds[j]`` is member ``j``'s),
    one global round at a time; returns the colors, which may also have
    been updated in place.

    Members whose current step shares ``(q, deg)`` take one
    :func:`linial_step` per cache-sized tile (:data:`_TILE_NODES`) over
    their concatenated node/edge ranges; members whose schedule is
    exhausted simply drop out of the round's groups (per-instance
    termination masks).  The block-diagonal adjacency keeps every count
    inside its member, so each member's colors are exactly its own run's.
    """
    node_counts = [m.n for m in batch.members]
    sub_memo: dict[tuple[int, ...], BatchCSRGraph] = {}
    for r in range(max((len(scheds[j]) for j in js), default=0)):
        groups: dict[tuple[int, int], list[int]] = {}
        for j in js:
            if r < len(scheds[j]):
                step = scheds[j][r]
                groups.setdefault((step.q, step.deg), []).append(j)
        for (q, deg), members in sorted(groups.items()):
            for tile in _node_tiles(members, node_counts):
                if len(tile) == batch.k:
                    colors = linial_step(batch, colors, q, deg)
                    continue
                sub = sub_memo.get(tile)
                if sub is None:
                    sub = sub_memo[tile] = BatchCSRGraph.from_csrs(
                        [batch.members[j] for j in tile]
                    )
                sub_colors = np.concatenate(
                    [colors[batch.node_slice(j)] for j in tile]
                )
                _write_back(
                    batch, tile, colors, linial_step(sub, sub_colors, q, deg)
                )
    return colors


def _linial_faulty_rounds_batch(
    sub: BatchCSRGraph,
    scheds: list,
    colors: np.ndarray,
    bits_list: list[int],
    plans: list,
    metrics_list: list[RunMetrics],
    recorders: list,
) -> tuple[np.ndarray, list[BaseException | None]]:
    """The mask-based faulty Linial round loop over a batch.

    All instances share one global round clock (every instance starts at
    round 0, so global round == per-instance round for as long as the
    instance is live).  Per round, crashes and fates are drawn per
    instance from that instance's plan over its own label arrays
    (:func:`_deliver`), bit-identical to a run of that instance alone;
    transmissions come from active, alive senders, deliveries (stale
    included) to crashed receivers are discarded, and the receive
    (:func:`_linial_receive`) runs over the whole batch at once.  Nodes
    advance one schedule step per round they are up, so crash outages
    leave step *skew* inside an instance.  An instance stops contributing
    rounds the moment all its nodes finish; one that exhausts its plan's
    round budget is halted with the reference's
    :class:`~repro.sim.node.HaltingError` (returned per instance, not
    raised, so siblings keep running).
    """
    k = sub.k
    n_tot = sub.n
    labels, src_lab, dst_lab = _fault_labels(sub)
    colors = colors.copy()
    steps = np.zeros(n_tot, dtype=np.int64)
    totals = np.repeat(
        np.array([len(s) for s in scheds], dtype=np.int64),
        np.diff(sub.node_offsets),
    )
    sched_q = [np.array([st.q for st in s], dtype=np.int64) for s in scheds]
    sched_deg = [np.array([st.deg for st in s], dtype=np.int64) for s in scheds]
    budgets = [plans[j].round_budget(len(scheds[j])) for j in range(k)]
    errors: list[BaseException | None] = [None] * k
    pending: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}

    rnd = 0
    while True:
        live, halted = _live_members(sub, steps < totals, rnd, budgets, errors)
        for sl in halted:
            steps[sl] = totals[sl]
        if not live:
            break
        alive = np.ones(n_tot, dtype=bool)
        for j in live:
            sl = sub.node_slice(j)
            alive[sl] = ~plans[j].crashed_mask(rnd, labels[sl])
        active = steps < totals
        transmit = (active & alive)[sub.src]
        payload = colors[sub.src]

        delivered = np.full(sub.num_directed_edges, -1, dtype=np.int64)
        for edge_idx, values in pending.pop(rnd, ()):
            delivered[edge_idx] = values
        fault_counts: dict[int, dict[str, int]] = {}
        for j in live:
            sl, esl = sub.node_slice(j), sub.edge_slice(j)
            fault_counts[j] = _deliver(
                plans[j], rnd, transmit[esl], payload[esl], src_lab[esl],
                dst_lab[esl], pending, delivered[esl], esl.start,
                int(sub.members[j].n - alive[sl].sum()),
            )
        delivered[~alive[sub.indices]] = -1

        receiving = active & alive
        q_of = np.zeros(n_tot, dtype=np.int64)
        deg_of = np.zeros(n_tot, dtype=np.int64)
        for j in live:
            sl = sub.node_slice(j)
            ids = np.flatnonzero(receiving[sl]) + sl.start
            q_of[ids] = sched_q[j][steps[ids]]
            deg_of[ids] = sched_deg[j][steps[ids]]
        colors = _linial_receive(sub, colors, delivered, receiving, q_of, deg_of)
        steps[receiving] += 1

        for j in live:
            sl, esl = sub.node_slice(j), sub.edge_slice(j)
            record_uniform_round(
                metrics_list[j],
                recorders[j],
                int(transmit[esl].sum()),
                bits_list[j],
                active=int(active[sl].sum()),
                faults=fault_counts[j],
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
    _finalize_recorders: bool = True,
) -> list:
    """Linial's coloring (or the [Kuh09] defective variant) on k graphs.

    Returns one ``(ColoringResult, RunMetrics, palette)`` triple per
    instance, identical to k independent runs of
    :func:`repro.algorithms.linial.run_linial` (outputs, palettes,
    metrics, and — with ``recorders`` — obs rows including fault
    columns); :func:`repro.sim.vectorized.linial_vectorized` is the k=1
    call.  ``graphs`` may hold networkx graphs or frozen
    :class:`~repro.sim.engine.CSRGraph`\\ s, used as they are, or be an
    already-packed :class:`BatchCSRGraph`.
    ``initial_colors``/``recorders``/``faults`` are
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

    k = len(graphs)
    recs = _seq_arg(recorders, k, "recorders")
    plans = _seq_arg(faults, k, "faults")
    inits = _seq_arg(initial_colors, k, "initial_colors")
    defects = _int_list(defect, k, "defect")

    with _phase_all(recs, "csr_build"):
        batch = (
            graphs
            if isinstance(graphs, BatchCSRGraph)
            else BatchCSRGraph.from_graphs(graphs)
        )

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
    colors = _concat(colors_parts or [np.empty(0, np.int64)])

    metrics_list = [synthesized_metrics(batch.members[j].n) for j in range(k)]
    errors: list[BaseException | None] = [None] * k

    plain = [j for j in range(k) if plans[j] is None]
    faulty = [j for j in range(k) if plans[j] is not None]

    if plain:
        with _phase_all([recs[j] for j in plain], "rounds"):
            colors = _linial_rounds_batch(batch, scheds, colors, plain)
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
class _CandidateScan:
    """FK24's candidate rule over packed lists: each trying node's first
    list color with at most ``defect`` known takers.

    Built once per run from the ragged lists (``list_indptr`` /
    ``list_values``, dense node order) and the per-node defects, so the
    per-round call does only the scan.  Position ``p`` (owned by node
    ``owner[p]``, carrying color ``list_values[p]``) is viable when at most
    ``defect`` known neighbors hold that color; the candidate is the first
    viable position in the node's original list order — exactly the
    reference's ``for x in L_v`` scan.
    """

    def __init__(
        self, list_indptr: np.ndarray, list_values: np.ndarray, defect_arr: np.ndarray
    ) -> None:
        sizes = list_indptr[1:] - list_indptr[:-1]
        self.n = sizes.shape[0]
        self.values = list_values
        self.owner = np.repeat(np.arange(self.n, dtype=np.int64), sizes)
        self.limit = defect_arr[self.owner]
        self.positions = np.arange(list_values.shape[0], dtype=np.int64)
        # reduceat quirks: clip trailing starts into range and overwrite
        # empty segments (their reduceat slot holds a neighbor segment's
        # element) with the no-candidate sentinel
        self.starts = np.minimum(list_indptr[:-1], max(list_values.shape[0] - 1, 0))
        self.empty = sizes == 0

    def __call__(
        self, counts: np.ndarray, trying: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(has_cand, cand_color)`` under the per-(node, color) knowledge
        matrix ``counts``; ``cand_color`` is 0 where there is none."""
        if self.values.shape[0]:
            viable = counts[self.owner, self.values] <= self.limit
            first = np.minimum.reduceat(
                np.where(viable, self.positions, _NO_POS), self.starts
            )
            first[self.empty] = _NO_POS
        else:
            first = np.full(self.n, _NO_POS, dtype=np.int64)
        has_cand = trying & (first < _NO_POS)
        cand_color = np.zeros(self.n, dtype=np.int64)
        cand_color[has_cand] = self.values[first[has_cand]]
        return has_cand, cand_color


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
    """The fault-free FK24 round loop over a batch.

    Per-node knowledge is a ``(n, space)`` counts matrix updated
    incrementally — valid because fault-free every adopter announces its
    color exactly once with guaranteed delivery, so per-sender knowledge
    equals the delivered-announcement multiset.  Candidate selection uses
    the counts as of the *end of the previous round* (the reference picks
    in ``send``); adoption re-checks against counts updated with this
    round's announcements plus same-round smaller-label rivals trying the
    same color (dense index order equals sorted label order, so the index
    comparison is the reference's ``u < view.id``).

    All instances share one global round clock (every instance starts at
    round 0), and the block-diagonal adjacency keeps the try/took
    exchanges instance-local by construction.  FK24's per-round message
    and active counts *vary* as nodes adopt and halt, so accounting is
    demultiplexed per live instance inside the loop.  An instance that
    idles past its round budget is halted with the reference's
    :class:`~repro.sim.node.HaltingError`, returned per instance so
    siblings keep running.
    """
    n_tot = sub.n
    degrees = np.diff(sub.indptr)
    status = np.zeros(n_tot, dtype=np.int64)  # 0 trying, 1 announcing, 2 done
    colors = np.full(n_tot, -1, dtype=np.int64)
    adopted = np.full(n_tot, -1, dtype=np.int64)
    counts = np.zeros(
        (n_tot, max(1, int(space_arr.max()) if n_tot else 1)), dtype=np.int64
    )
    candidates = _CandidateScan(list_indptr, list_values, defect_arr)
    idx = np.arange(n_tot, dtype=np.int64)
    fwd = sub.src < sub.indices
    errors: list[BaseException | None] = [None] * sub.k

    rnd = 0
    while True:
        active = status < 2
        live, halted = _live_members(sub, active, rnd, budgets, errors)
        for sl in halted:
            status[sl] = 2
            active[sl] = False
        if not live:
            break
        trying = status == 0
        announcing = status == 1
        has_cand, cand_color = candidates(counts, trying)
        sent = np.where(has_cand | announcing, degrees, 0)
        # this round's announcements update everyone's knowledge first
        took_edge = announcing[sub.src]
        if took_edge.any():
            np.add.at(
                counts,
                (sub.indices[took_edge], colors[sub.src[took_edge]]),
                1,
            )
        conflict = (
            fwd
            & has_cand[sub.src]
            & has_cand[sub.indices]
            & (cand_color[sub.src] == cand_color[sub.indices])
        )
        stronger = np.bincount(sub.indices[conflict], minlength=n_tot)
        # a non-candidate's cand_color is 0, a valid column it never adopts
        taken = counts[idx, cand_color]
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
                int(sent[sl].sum()),
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
    """The mask-based faulty FK24 round loop over a batch.

    Delivery is :func:`_deliver`'s, per instance and from that instance's
    own plan, as in :func:`_linial_faulty_rounds_batch`: transmissions
    come from active, alive senders and deliveries to crashed receivers
    are discarded.  Knowledge is per directed edge (``know[e]`` = last
    decoded ``took`` color on ``e``) because under corruption a sender's
    announcement can differ per round — the counts matrix is adjusted
    incrementally as entries change.  Payloads encode ``tag * space +
    color``; decoders discard anything outside ``[0, 2 * space)`` exactly
    like the reference's inbox filter.  ``space`` varies per instance, so
    the encoding and the decode window use per-node / per-edge space
    arrays.
    """
    n_tot = sub.n
    labels, src_lab, dst_lab = _fault_labels(sub)
    space_src = space_arr[sub.src]
    space_dst = space_arr[sub.indices]
    status = np.zeros(n_tot, dtype=np.int64)
    colors = np.full(n_tot, -1, dtype=np.int64)
    adopted = np.full(n_tot, -1, dtype=np.int64)
    counts2d = np.zeros(
        (n_tot, max(1, int(space_arr.max()) if n_tot else 1)), dtype=np.int64
    )
    know = np.full(sub.num_directed_edges, -1, dtype=np.int64)
    candidates = _CandidateScan(list_indptr, list_values, defect_arr)
    idx = np.arange(n_tot, dtype=np.int64)
    fwd = sub.src < sub.indices
    errors: list[BaseException | None] = [None] * sub.k
    pending: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}

    rnd = 0
    while True:
        active = status < 2
        live, halted = _live_members(sub, active, rnd, budgets, errors)
        for sl in halted:
            status[sl] = 2
            active[sl] = False
        if not live:
            break
        alive = np.ones(n_tot, dtype=bool)
        for j in live:
            sl = sub.node_slice(j)
            alive[sl] = ~plans[j].crashed_mask(rnd, labels[sl])
        trying = status == 0
        announcing = status == 1
        has_cand, cand_color = candidates(counts2d, trying)
        sending = (has_cand | announcing) & alive
        transmit = sending[sub.src]
        payload = np.where(
            announcing[sub.src],
            space_src + colors[sub.src],
            cand_color[sub.src],
        )

        delivered = np.full(sub.num_directed_edges, -1, dtype=np.int64)
        for edge_idx, values in pending.pop(rnd, ()):
            delivered[edge_idx] = values
        fault_counts: dict[int, dict[str, int]] = {}
        for j in live:
            sl, esl = sub.node_slice(j), sub.edge_slice(j)
            fault_counts[j] = _deliver(
                plans[j], rnd, transmit[esl], payload[esl], src_lab[esl],
                dst_lab[esl], pending, delivered[esl], esl.start,
                int(sub.members[j].n - alive[sl].sum()),
            )
        delivered[~alive[sub.indices]] = -1

        # decode: know updates for this round's took deliveries, with the
        # counts matrix adjusted where an edge's knowledge changed
        took = (delivered >= space_dst) & (delivered < 2 * space_dst)
        tk = np.flatnonzero(took)
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
        receiver_cand = has_cand & alive
        conflict = (
            fwd
            & is_try
            & receiver_cand[sub.indices]
            & (delivered == cand_color[sub.indices])
        )
        stronger = np.bincount(sub.indices[conflict], minlength=n_tot)
        taken = counts2d[idx, cand_color]
        adopt = receiver_cand & (taken + stronger <= defect_arr)
        status[announcing & alive] = 2
        status[adopt] = 1
        colors[adopt] = cand_color[adopt]
        adopted[adopt] = rnd
        for j in live:
            sl, esl = sub.node_slice(j), sub.edge_slice(j)
            record_uniform_round(
                metrics_list[j],
                recorders[j],
                int(transmit[esl].sum()),
                bits_list[j],
                active=int(active[sl].sum()),
                faults=fault_counts[j],
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
    """The [FK24] list-defective coloring on k graphs.

    Returns one ``(ColoringResult, RunMetrics, palette)`` triple per
    instance — including the later-to-earlier adoption orientation on
    each result (:func:`adoption_orientation`) — identical to k
    independent runs of :func:`repro.algorithms.fk24.run_fk24` (outputs,
    palettes, metrics, obs rows incl. fault columns);
    :func:`repro.sim.vectorized.fk24_vectorized` is the k=1 call.
    ``graphs`` may hold networkx graphs or frozen
    :class:`~repro.sim.engine.CSRGraph`\\ s, used as they are.
    ``lists``/``recorders``/``faults``/``adoption_outs`` are per-instance
    sequences (``None`` entries use single-instance defaults);
    ``space_size``/``defect`` broadcast scalars or take one value per
    instance.  With ``return_exceptions=True`` an instance that halts
    (round-budget exhaustion under an adversarial plan) yields its
    :class:`~repro.sim.node.HaltingError` in place, siblings unaffected.
    Members run in cache-sized tiles (:data:`_TILE_NODES`), one round
    loop per tile, so a large member runs as it would alone.
    """
    from ..algorithms.fk24 import fk24_lists, fk24_round_budget

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
                lst, built_space = fk24_lists(member, defects[j])
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

    metrics_list = [synthesized_metrics(batch.members[j].n) for j in range(k)]
    colors = np.full(batch.n, -1, dtype=np.int64)
    adopted = np.full(batch.n, -1, dtype=np.int64)
    errors: list[BaseException | None] = [None] * k

    def run(js: list[int], rounds, *plan_arg) -> None:
        """Run members ``js`` through one round loop, packed in ``js``
        order with their ragged lists and per-node space/defect arrays."""
        sub = batch if len(js) == k else BatchCSRGraph.from_csrs(
            [batch.members[j] for j in js]
        )
        starts = accumulate((len(ragged[j][1]) for j in js), initial=0)
        sizes = [batch.members[j].n for j in js]
        with _phase_all([recs[j] for j in js], "rounds"):
            sub_colors, sub_adopted, sub_errors = rounds(
                sub,
                _join_indptrs([ragged[j][0] for j in js], starts),
                _concat([ragged[j][1] for j in js]),
                np.repeat(np.array([spaces[j] for j in js], dtype=np.int64), sizes),
                np.repeat(np.array([defects[j] for j in js], dtype=np.int64), sizes),
                [budgets[j] for j in js],
                [bits_list[j] for j in js],
                *plan_arg,
                [metrics_list[j] for j in js],
                [recs[j] for j in js],
            )
            _write_back(batch, js, colors, sub_colors)
            _write_back(batch, js, adopted, sub_adopted)
        for j, error in zip(js, sub_errors):
            errors[j] = error

    plain = [j for j in range(k) if plans[j] is None]
    faulty = [j for j in range(k) if plans[j] is not None]
    node_counts = [m.n for m in batch.members]
    for tile in _node_tiles(plain, node_counts):
        run(list(tile), _fk24_rounds_batch)
    for tile in _node_tiles(faulty, node_counts):
        run(list(tile), _fk24_faulty_rounds_batch, [plans[j] for j in tile])

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


def _greedy_refusal(instance) -> ValueError | None:
    """Why the greedy fast path refuses ``instance``, or ``None``."""
    if instance.directed:
        return ValueError("greedy_list_vectorized expects an undirected instance")
    if any(d for dv in instance.defects.values() for d in dv.values()):
        return ValueError(
            "greedy_list_vectorized handles zero-defect instances only; "
            "use repro.algorithms.greedy.greedy_list_coloring for defects"
        )
    return None


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
    refusal = _greedy_refusal(instance)
    if refusal is not None:
        raise refusal
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


def greedy_list_vectorized_batch(
    instances: Sequence[Any],
    return_exceptions: bool = False,
    _csrs: Sequence[CSRGraph] | None = None,
) -> list:
    """Batched twin of :func:`greedy_list_vectorized` (zero-defect list
    instances, default sorted-label order).

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
    ``_csrs`` (internal) are already-built CSRs of the instances' graphs.
    """
    k = len(instances)
    csrs = _seq_arg(_csrs, k, "_csrs")
    if k == 1:
        # One instance runs the plain per-node scan: a wave pays several
        # times the numpy calls of one scan step, and a lone instance has
        # no siblings to share them with.  random_regular d=8, one
        # process: at n=5000 the waves took 612 ms and the scan 221 ms;
        # at k=48 n=64 the waves win, 0.50 against 2.67 ms per instance.
        # The cost depends on n as well as k, and the crossover for k >= 2
        # at large n is unmeasured: this boundary covers only the k=1
        # case these numbers show.
        try:
            results: list = [greedy_list_vectorized(instances[0], _csr=csrs[0])]
        except ValueError as exc:
            results = [exc]
        return _raise_or_return(results, return_exceptions)
    errors: list[BaseException | None] = [_greedy_refusal(i) for i in instances]
    valid = [j for j in range(k) if errors[j] is None]
    results = [None] * k

    if valid:
        batch = BatchCSRGraph.from_graphs(
            [instances[j].graph if csrs[j] is None else csrs[j] for j in valid]
        )
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
                [batch.node_slice(p).start + t for p in wave], dtype=np.int64
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
            pos_masked = np.where(free, lwithin, _NO_POS)
            loffs = np.zeros(len(wave), dtype=np.int64)
            np.cumsum(lcounts[:-1], out=loffs[1:])
            firsts = np.full(len(wave), _NO_POS, dtype=np.int64)
            nonempty = lcounts > 0
            if pos_masked.size:
                firsts[nonempty] = np.minimum.reduceat(
                    pos_masked, loffs[nonempty]
                )
            good = firsts < _NO_POS
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
    """The defective-split decomposition step on k graphs;
    :func:`repro.sim.vectorized.defective_split_vectorized` is the k=1 call.

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
            batch,
            defect=[defects[j] for j in valid],
            recorders=valid_recs,
            return_exceptions=True,
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


def schedule_reduction_vectorized(
    graph: Any,
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
    class has not picked yet).  ``graph`` may be a networkx graph or a
    frozen :class:`~repro.sim.engine.CSRGraph`, used as it is.

    Raises ``ValueError`` with the reference's wording when two
    neighbors share a class ("schedule coloring not proper on edge",
    as :func:`~repro.algorithms.reduction.reduce_to_list_coloring`) and
    when a node finds no free palette color ("palette exhausted").
    """
    with _phase_all([recorder], "csr_build"):
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
    with _phase_all([recorder], "rounds"):
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


def classic_delta_plus_one_vectorized_batch(
    graphs: Sequence[Any],
    recorders: Sequence["RunRecorder | None"] | None = None,
    return_exceptions: bool = False,
) -> list:
    """The classic (Δ+1) pipeline — Linial, then the schedule reduction —
    on k graphs; :func:`repro.sim.vectorized.classic_delta_plus_one_vectorized`
    is the k=1 call.

    Output-equivalent to
    :func:`repro.algorithms.reduction.classic_delta_plus_one` per instance
    (tests compare node for node).  Each member is frozen once (or
    already is a :class:`~repro.sim.engine.CSRGraph`) and both stages read
    that CSR: the Linial stage runs block-diagonal, the per-class schedule
    reduction per instance (its round structure is data-dependent).  Both
    stages charge the member's own CONGEST budget, so their metrics merge
    with :meth:`~repro.sim.metrics.RunMetrics.merge_sequential` and a
    recorder is finalized once against the merged metrics.  Returns one
    ``(ColoringResult, RunMetrics)`` pair per instance.
    """
    k = len(graphs)
    recs = _seq_arg(recorders, k, "recorders")
    with _phase_all(recs, "csr_build"):
        batch = BatchCSRGraph.from_graphs(graphs)
    inner = linial_vectorized_batch(
        batch,
        recorders=recs,
        return_exceptions=True,
        _finalize_recorders=False,
    )
    results: list = []
    for csr, rec, out in zip(batch.members, recs, inner):
        if isinstance(out, BaseException):
            results.append(out)
            continue
        pre, first, _palette = out
        delta = int(csr.degrees.max()) if csr.n else 0
        res, second = schedule_reduction_vectorized(
            csr, pre.assignment, delta + 1, recorder=rec, _finalize_recorder=False
        )
        merged = first.merge_sequential(second)
        if rec is not None:
            rec.finalize(
                merged,
                n=csr.n,
                m=csr.num_directed_edges // 2,
                palette=delta + 1,
                algorithm=rec.algorithm or "classic_vectorized",
            )
        results.append((res, merged))
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
            self._sched_q = np.array([st.q for st in sched], dtype=np.int64)
            self._sched_deg = np.array([st.deg for st in sched], dtype=np.int64)
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

        The round of :func:`_linial_faulty_rounds_batch` for one instance:
        the same :func:`_deliver` and :func:`_linial_receive`, with plan
        queries on the instance's own round counter and label arrays, so
        an instance admitted at any global round replays exactly the
        adversary its standalone run would, and the per-round fault
        columns stay the cross-engine invariant.
        """
        csr, plan = self.csr, self.plan
        total = len(self.sched)
        rnd = self._rnd
        if rnd >= self._budget:
            unfinished = [
                csr.nodes[i] for i in np.flatnonzero(self._steps < total)
            ]
            self.error = HaltingError(rounds=rnd, unfinished=unfinished)
            return
        alive = ~plan.crashed_mask(rnd, self._labels)
        active = self._steps < total
        transmit = (active & alive)[csr.src]

        delivered = np.full(csr.num_directed_edges, -1, dtype=np.int64)
        for edge_idx, values in self._pending.pop(rnd, ()):
            delivered[edge_idx] = values
        counts = _deliver(
            plan, rnd, transmit, self.colors[csr.src], self._src_labels,
            self._dst_labels, self._pending, delivered, 0,
            int(csr.n - alive.sum()),
        )
        delivered[~alive[csr.indices]] = -1

        receiving = active & alive
        steps = np.minimum(self._steps, total - 1)
        self.colors = _linial_receive(
            csr, self.colors, delivered, receiving,
            self._sched_q[steps], self._sched_deg[steps],
        )
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
    schedule step's ``(q, deg)`` and each group takes one
    :func:`linial_step` per cache-sized tile (:data:`_TILE_NODES`),
    exactly like :func:`_linial_rounds_batch`;
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
                packed = [members[p] for p in tile]
                if len(packed) == 1:
                    m = packed[0]
                    m.colors = linial_step(m.csr, m.colors, q, deg)
                    continue
                sub = BatchCSRGraph.from_csrs([m.csr for m in packed])
                colors = linial_step(
                    sub, np.concatenate([m.colors for m in packed]), q, deg
                )
                for m, part in zip(packed, sub.split(colors)):
                    m.colors = part
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
