"""Edge-cut partitioned execution with ghost nodes (multiprocess).

The single-CSR engine (:mod:`repro.sim.engine`) holds the whole graph —
adjacency, per-step ``(q, n)`` evaluation grids, collision counts — in
one process.  At ~10M nodes that is workable but uncomfortable: the
per-step temporaries alone reach gigabytes, and one Python process can
use only one core.  The LOCAL/CONGEST algorithms this repo reproduces
shard naturally, exactly like the exemplar partitioned colorers (an MPI
``V_local``/ghost-color-map strategy and a Spark GraphX colorer): each
round's color update is a pure function of *(own color, neighbor
colors)*, so a shard that owns a subset of nodes only needs the current
colors of its **ghosts** — off-shard neighbors of owned nodes — to run
the round locally.

This module provides that move in three layers:

* **partitioner** — :func:`partition_arrays` / :func:`partition_graph`
  split the dense node ids ``0..n-1`` into per-shard
  :class:`ShardPlan`\\ s under one of :data:`PARTITION_STRATEGIES`
  (``contiguous``: near-equal sorted ranges, the default;
  ``hash``: seeded splitmix64 of the node id).  Each plan carries the
  owned-node ids, the ghost-node ids, a local CSR over
  ``[owned..., ghosts...]`` (ghost rows empty — ghosts are read, never
  updated), and the owner→ghost **send lists** (which of its owned
  nodes every other shard reads);
* **round driver** — :func:`run_partitioned_dense` executes a Linial
  schedule shard-parallel: one worker process per shard, all current
  colors in one ``multiprocessing.shared_memory`` block, and a
  two-barrier exchange per round (snapshot barrier after every shard has
  pulled its ghost colors, publish barrier after every shard has written
  its owned colors).  **Shared memory over pipes**: the boundary
  exchange is then two fancy-indexed array copies per shard per round
  with zero serialization, and the published colors are the final result
  in place — pipes would pickle every cut's colors through the kernel
  each round and need explicit gather/scatter routing.  The price is
  POSIX shm lifecycle care (the parent owns create/unlink; workers
  attach/close) and no backpressure, which barrier-synchronous rounds do
  not need.  Workers default to the ``spawn`` start method so each
  shard's ``ru_maxrss`` is an honest per-shard figure (``fork`` children
  inherit the parent's full-graph pages in their peak-RSS accounting);
  tests may pass ``mp_context="fork"`` for startup speed;
* **equivalence twin** — :func:`run_partitioned_linial` mirrors
  :func:`repro.sim.vectorized.linial_vectorized` (same schedule, same
  tie-breaking, same synthesized accounting) and is registered as the
  ``partitioned`` backend with ``bit_identical_to="vectorized"``.  The
  bit-identity argument: every owned node's local neighbor multiset
  equals its global one by construction, the round kernel is
  pure-integer, and ``np.argmin``'s first-occurrence tie-break is
  columnwise — so each round's colors match the single-CSR run's
  exactly, for any shard count.

Observability: partitioned rounds carry the ``exchange`` column family
(:meth:`GraphPartition.exchange_row` — ghost-color bytes pulled per
round, ghost-replica count, cut directed edges) through
:func:`repro.sim.engine.record_uniform_round`; the message/bit columns
stay the *global* CONGEST accounting, so
:func:`repro.obs.compare_round_accounting` against a vectorized run of
the same cell passes unchanged.

Failure semantics: a worker that dies mid-run (crash, OOM kill) breaks
the round barrier within ``barrier_timeout`` seconds; surviving workers
exit on the broken barrier and the parent raises a structured
:class:`PartitionWorkerError` naming the first failed shard — never a
hang, never a silent partial result.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import signal
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from ..core.coloring import ColoringResult
from .batch import linial_step
from .engine import (
    CSRGraph,
    as_csr,
    record_uniform_round,
    synthesized_metrics,
)
from .message import int_bits
from .metrics import RunMetrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> sim)
    import networkx as nx

    from ..obs import RunRecorder

#: Node-assignment strategies :func:`partition_arrays` accepts.
PARTITION_STRATEGIES = ("contiguous", "hash")

#: Dtype of the shared color array (and of every CSR color array).
COLOR_DTYPE = np.int64

#: Bytes one ghost color occupies in the per-round boundary exchange.
COLOR_BYTES = 8

#: Default seconds a worker waits on a round barrier before concluding a
#: sibling shard died; also paces the parent's liveness polling.
DEFAULT_BARRIER_TIMEOUT = 60.0


class PartitionWorkerError(RuntimeError):
    """A shard worker died (or stalled) during a partitioned run.

    ``shard`` is the first shard observed failing, ``exitcode`` its
    process exit code (negative = killed by that signal number, ``None``
    when the failure was a timeout or a structured worker report).
    """

    def __init__(self, shard: int, detail: str, exitcode: int | None = None):
        self.shard = shard
        self.exitcode = exitcode
        super().__init__(f"partition shard {shard} failed: {detail}")


# ----------------------------------------------------------------------
# the partitioner
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardPlan:
    """One shard's slice of a :class:`GraphPartition`.

    ``owned`` and ``ghosts`` are sorted global dense node ids; the local
    CSR (``indptr``/``indices``) is over local ids ``[owned...,
    ghosts...]`` in that order, with ghost rows empty (ghosts contribute
    colors, not updates).  ``send_to`` maps a destination shard to the
    sorted global ids of *this shard's owned nodes* that the destination
    reads as ghosts each round — the owner→ghost send lists; under the
    shared-memory transport they are accounting (and the mirror of the
    destinations' ``ghosts`` arrays), under a pipe transport they would
    be the literal per-round payloads.
    """

    shard: int
    owned: np.ndarray
    ghosts: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    send_to: Mapping[int, np.ndarray]
    cut_directed_edges: int

    @property
    def n_owned(self) -> int:
        """Nodes this shard updates."""
        return int(self.owned.shape[0])

    @property
    def n_ghost(self) -> int:
        """Off-shard neighbor colors this shard pulls each round."""
        return int(self.ghosts.shape[0])

    @property
    def n_local(self) -> int:
        """Local id-space size (owned + ghosts)."""
        return self.n_owned + self.n_ghost

    @property
    def num_local_directed_edges(self) -> int:
        """Directed edges stored locally (one per owned-node neighbor)."""
        return int(self.indices.shape[0])


@dataclass(frozen=True)
class GraphPartition:
    """A deterministic edge-cut partition of a dense-id graph.

    ``owner[i]`` is the shard owning global dense node ``i``; ``plans``
    hold each shard's local structure.  The partition is a pure function
    of ``(n, adjacency, shards, strategy, seed)`` — no RNG state, no
    timing — so reruns shard identically.
    """

    n: int
    num_directed_edges: int
    shards: int
    strategy: str
    seed: int
    owner: np.ndarray
    plans: tuple[ShardPlan, ...]

    @property
    def cut_directed_edges(self) -> int:
        """Directed edges whose endpoints live on different shards."""
        return sum(p.cut_directed_edges for p in self.plans)

    @property
    def cut_edge_fraction(self) -> float:
        """Fraction of (directed) edges crossing shards."""
        if not self.num_directed_edges:
            return 0.0
        return self.cut_directed_edges / self.num_directed_edges

    @property
    def total_ghosts(self) -> int:
        """Ghost replicas across all shards (a node ghosted by k shards
        counts k times)."""
        return sum(p.n_ghost for p in self.plans)

    @property
    def ghost_fraction(self) -> float:
        """Ghost replicas per node (can exceed 1 at high shard counts)."""
        return self.total_ghosts / self.n if self.n else 0.0

    @property
    def exchange_bytes_per_round(self) -> int:
        """Ghost-color bytes crossing shard boundaries each round."""
        return self.total_ghosts * COLOR_BYTES

    def exchange_row(self) -> dict[str, int]:
        """The per-round ``exchange`` column family for the obs layer.

        Static per round by construction: the partition (hence the ghost
        set) is fixed for the whole run, and every round pulls every
        ghost color once.
        """
        return {
            "bytes": self.exchange_bytes_per_round,
            "ghosts": self.total_ghosts,
            "cut_directed_edges": self.cut_directed_edges,
        }


def _assign_owners(
    n: int, shards: int, strategy: str, seed: int
) -> np.ndarray:
    """Global dense id -> owning shard, per the chosen strategy."""
    if strategy == "contiguous":
        # near-equal sorted ranges: shard s owns a contiguous id block
        base, rem = divmod(n, shards)
        sizes = np.full(shards, base, dtype=np.int64)
        sizes[:rem] += 1
        return np.repeat(np.arange(shards, dtype=np.int64), sizes)
    if strategy == "hash":
        from ..faults.plan import splitmix64, splitmix64_array

        mixed = splitmix64_array(
            np.arange(n, dtype=np.uint64) ^ np.uint64(splitmix64(seed))
        )
        return (mixed % np.uint64(shards)).astype(np.int64)
    raise ValueError(
        f"unknown partition strategy {strategy!r}; "
        f"options: {', '.join(PARTITION_STRATEGIES)}"
    )


def partition_arrays(
    n: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    shards: int,
    *,
    strategy: str = "contiguous",
    seed: int = 0,
) -> GraphPartition:
    """Edge-cut partition a dense-id CSR adjacency into ``shards`` plans.

    ``indptr``/``indices`` are the standard CSR arrays over dense ids
    ``0..n-1`` with every undirected edge stored in both directions
    (:class:`~repro.sim.engine.CSRGraph` layout).  Empty shards are legal
    (``shards > n`` included); ``shards < 1`` raises ``ValueError``.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    owner = _assign_owners(n, shards, strategy, seed)
    lengths = np.diff(indptr)
    edge_owner = np.repeat(owner, lengths)

    owned_by: list[np.ndarray] = []
    ghosts_by: list[np.ndarray] = []
    local_csr: list[tuple[np.ndarray, np.ndarray]] = []
    cuts: list[int] = []
    for s in range(shards):
        owned = np.nonzero(owner == s)[0]
        dst_global = indices[edge_owner == s]
        foreign = owner[dst_global] != s
        ghosts = np.unique(dst_global[foreign])
        # global -> local id translation (owned first, ghosts after)
        lookup = np.full(n, -1, dtype=np.int64)
        lookup[owned] = np.arange(owned.size, dtype=np.int64)
        lookup[ghosts] = owned.size + np.arange(ghosts.size, dtype=np.int64)
        local_indices = lookup[dst_global]
        n_local = owned.size + ghosts.size
        local_indptr = np.zeros(n_local + 1, dtype=np.int64)
        np.cumsum(lengths[owned], out=local_indptr[1 : owned.size + 1])
        local_indptr[owned.size + 1 :] = local_indptr[owned.size]
        owned_by.append(owned)
        ghosts_by.append(ghosts)
        local_csr.append((local_indptr, local_indices))
        cuts.append(int(foreign.sum()))

    plans = []
    for s in range(shards):
        send_to: dict[int, np.ndarray] = {}
        for t in range(shards):
            if t == s:
                continue
            mine = ghosts_by[t][owner[ghosts_by[t]] == s]
            if mine.size:
                send_to[t] = mine
        indptr_s, indices_s = local_csr[s]
        plans.append(
            ShardPlan(
                shard=s,
                owned=owned_by[s],
                ghosts=ghosts_by[s],
                indptr=indptr_s,
                indices=indices_s,
                send_to=send_to,
                cut_directed_edges=cuts[s],
            )
        )
    return GraphPartition(
        n=n,
        num_directed_edges=int(indices.shape[0]),
        shards=shards,
        strategy=strategy,
        seed=seed,
        owner=owner,
        plans=tuple(plans),
    )


def partition_graph(
    graph: "nx.Graph | CSRGraph",
    shards: int,
    *,
    strategy: str = "contiguous",
    seed: int = 0,
) -> tuple[CSRGraph, GraphPartition]:
    """Freeze ``graph`` to CSR (if needed) and partition its dense ids.

    The partition is over *dense* indices, so gappy/unsorted node labels
    shard exactly like the contiguous relabeling the CSR build performs —
    the label world only reappears at gather/scatter time.
    """
    csr = as_csr(graph)
    return csr, partition_arrays(
        csr.n, csr.indptr, csr.indices, shards, strategy=strategy, seed=seed
    )


# ----------------------------------------------------------------------
# the shard worker (module-level: spawn requires an importable target)
# ----------------------------------------------------------------------
class _ShardCSR:
    """Duck-typed stand-in for :class:`CSRGraph` over a shard's local ids.

    Carries exactly what :func:`~repro.sim.batch.linial_step`
    reads (``n``/``src``/``indices``/``num_directed_edges``) without the
    label machinery (``nodes`` tuple, ``index`` dict) that would cost
    hundreds of MB per shard at 10M nodes.
    """

    __slots__ = ("n", "indptr", "indices", "src")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray):
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))

    @property
    def num_directed_edges(self) -> int:
        return int(self.indices.shape[0])


def _attach_shared_colors(shm_name: str, n: int):
    """Attach the parent's shared color block (worker side).

    The parent owns the segment's lifecycle.  Workers deliberately do
    *not* ``resource_tracker.unregister`` their attachment: parent and
    children share one tracker process (its fd is inherited under both
    ``fork`` and ``spawn``), so the attach-side re-register is a set
    no-op there, while an unregister would strip the *parent's* entry
    and make the parent's ``unlink`` bookkeeping fail.
    """
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=shm_name)
    colors = np.ndarray((n,), dtype=COLOR_DTYPE, buffer=shm.buf)
    return shm, colors


def _shard_worker(
    shard: int,
    shm_name: str,
    n_total: int,
    owned: np.ndarray,
    ghosts: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    sched: tuple[tuple[int, int], ...],
    barrier,
    result_queue,
    barrier_timeout: float,
    crash_round: int | None,
) -> None:
    """One shard's round loop (child-process entry point).

    Per round: pull ghost colors from shared memory, hit the snapshot
    barrier (now every shard has read the previous round's state),
    compute the Linial step on the local CSR, publish owned colors back
    into shared memory, hit the publish barrier (now every write of this
    round is visible).  ``crash_round`` is the worker-death test hook: a
    SIGKILL to self right before that round's snapshot barrier, which is
    exactly the mid-run death mode the parent must surface structurally.
    """
    shm = None
    try:
        shm, colors_global = _attach_shared_colors(shm_name, n_total)
        n_own = int(owned.shape[0])
        local = _ShardCSR(n_own + int(ghosts.shape[0]), indptr, indices)
        own = colors_global[owned].copy()
        round_walls: list[float] = []
        for rnd, (q, deg) in enumerate(sched):
            if crash_round is not None and rnd == crash_round:
                os.kill(os.getpid(), signal.SIGKILL)
            t0 = time.perf_counter()
            ghost_colors = colors_global[ghosts]
            barrier.wait(timeout=barrier_timeout)  # all reads snapshotted
            if n_own:
                colors_local = np.concatenate([own, ghost_colors])
                own = linial_step(local, colors_local, q, deg, owned=n_own)
                colors_global[owned] = own
            barrier.wait(timeout=barrier_timeout)  # all writes published
            round_walls.append(time.perf_counter() - t0)
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result_queue.put(
            {
                "shard": shard,
                "ok": True,
                "peak_rss_kb": int(peak),
                "round_walls": round_walls,
            }
        )
    except BaseException as exc:  # noqa: BLE001 - report, then die loudly
        try:
            result_queue.put(
                {
                    "shard": shard,
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
        except Exception:  # pragma: no cover - queue already torn down
            pass
        os._exit(4)
    finally:
        if shm is not None:
            shm.close()


# ----------------------------------------------------------------------
# the multiprocess round driver
# ----------------------------------------------------------------------
@dataclass
class ShardRunStats:
    """One shard worker's self-reported execution figures."""

    shard: int
    n_owned: int
    n_ghost: int
    peak_rss_kb: int
    round_walls: list[float] = field(default_factory=list)


@dataclass
class PartitionRunStats:
    """What one partitioned run measured (parent-side aggregate)."""

    shards: int
    strategy: str
    rounds: int
    wall_s: float
    cut_edge_fraction: float
    ghost_fraction: float
    exchange_bytes_per_round: int
    shard_stats: list[ShardRunStats] = field(default_factory=list)

    @property
    def max_peak_rss_kb(self) -> int:
        """The heaviest shard's peak RSS (the sharding headline figure)."""
        return max((s.peak_rss_kb for s in self.shard_stats), default=0)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready summary (benchmark/CLI artifact payload)."""
        return {
            "shards": self.shards,
            "strategy": self.strategy,
            "rounds": self.rounds,
            "wall_s": self.wall_s,
            "cut_edge_fraction": self.cut_edge_fraction,
            "ghost_fraction": self.ghost_fraction,
            "exchange_bytes_per_round": self.exchange_bytes_per_round,
            "max_peak_rss_kb": self.max_peak_rss_kb,
            "peak_rss_kb_per_shard": [
                s.peak_rss_kb for s in sorted(self.shard_stats, key=lambda x: x.shard)
            ],
        }


def _terminate_all(procs: list) -> None:
    for p in procs:
        if p.is_alive():
            p.terminate()
    for p in procs:
        p.join(timeout=5.0)
        if p.is_alive():  # pragma: no cover - terminate refused
            p.kill()
            p.join(timeout=5.0)


def run_partitioned_dense(
    n: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    colors: np.ndarray,
    sched: list[tuple[int, int]],
    *,
    shards: int,
    strategy: str = "contiguous",
    seed: int = 0,
    partition: GraphPartition | None = None,
    mp_context: str = "spawn",
    barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT,
    _crash: Mapping[int, int] | None = None,
) -> tuple[np.ndarray, PartitionRunStats, GraphPartition]:
    """Run a Linial schedule shard-parallel over dense arrays.

    The array-native core under :func:`run_partitioned_linial` — and the
    entry point for graphs too large to pass through ``networkx``
    (``benchmarks/bench_partition.py`` feeds 10M-node adjacency built
    directly as numpy arrays).  ``sched`` is a list of ``(q, deg)``
    schedule steps (see :func:`repro.algorithms.linial.linial_schedule`);
    ``partition`` reuses a prebuilt partition (it must match ``n``/
    ``shards``).  Returns ``(final colors, run stats, partition)``.

    ``_crash`` (test hook) maps shard → round at which that shard's
    worker SIGKILLs itself; see :class:`PartitionWorkerError`.
    """
    part = partition
    if part is None:
        part = partition_arrays(
            n, indptr, indices, shards, strategy=strategy, seed=seed
        )
    elif part.n != n or part.shards != shards:
        raise ValueError(
            f"partition mismatch: partition has n={part.n}, "
            f"shards={part.shards}; run requested n={n}, shards={shards}"
        )
    colors = np.asarray(colors, dtype=COLOR_DTYPE)
    stats = PartitionRunStats(
        shards=part.shards,
        strategy=part.strategy,
        rounds=len(sched),
        wall_s=0.0,
        cut_edge_fraction=part.cut_edge_fraction,
        ghost_fraction=part.ghost_fraction,
        exchange_bytes_per_round=part.exchange_bytes_per_round,
    )
    if not sched or n == 0:
        # zero rounds: nothing to execute, nothing to exchange
        stats.shard_stats = [
            ShardRunStats(p.shard, p.n_owned, p.n_ghost, 0) for p in part.plans
        ]
        return colors.copy(), stats, part

    from multiprocessing import shared_memory

    ctx = mp.get_context(mp_context)
    t_start = time.perf_counter()
    shm = shared_memory.SharedMemory(create=True, size=n * COLOR_BYTES)
    procs: list = []
    try:
        shared = np.ndarray((n,), dtype=COLOR_DTYPE, buffer=shm.buf)
        shared[:] = colors
        barrier = ctx.Barrier(part.shards)
        results: "queue_mod.Queue | Any" = ctx.Queue()
        sched_tuple = tuple((int(q), int(deg)) for q, deg in sched)
        crash = dict(_crash or {})
        for plan in part.plans:
            procs.append(
                ctx.Process(
                    target=_shard_worker,
                    args=(
                        plan.shard,
                        shm.name,
                        n,
                        plan.owned,
                        plan.ghosts,
                        plan.indptr,
                        plan.indices,
                        sched_tuple,
                        barrier,
                        results,
                        barrier_timeout,
                        crash.get(plan.shard),
                    ),
                    daemon=True,
                )
            )
        for p in procs:
            p.start()

        reports: dict[int, dict] = {}
        # generous hard deadline: every round costs at most two barrier
        # waits, plus startup/teardown slack — a stalled worker is caught
        # by the barrier timeout long before this trips
        allowed_s = barrier_timeout * (2 * len(sched) + 4)
        deadline = time.monotonic() + allowed_s
        failure: tuple[int, str, int | None] | None = None
        while len(reports) < part.shards:
            try:
                msg = results.get(timeout=0.05)
                if not msg.get("ok"):
                    failure = (int(msg["shard"]), str(msg["error"]), None)
                    break
                reports[int(msg["shard"])] = msg
                continue
            except queue_mod.Empty:
                pass
            for plan, p in zip(part.plans, procs):
                code = p.exitcode
                if code not in (0, None) and plan.shard not in reports:
                    detail = (
                        f"killed by signal {-code}"
                        if code < 0
                        else f"exited with code {code}"
                    )
                    failure = (plan.shard, detail, code)
                    break
            if failure is not None:
                break
            if time.monotonic() > deadline:
                missing = sorted(
                    p.shard for p in part.plans if p.shard not in reports
                )
                failure = (
                    missing[0],
                    f"no result within {allowed_s:.0f}s "
                    f"(shards still pending: {missing})",
                    None,
                )
                break
        if failure is not None:
            _terminate_all(procs)
            shard_id, detail, code = failure
            raise PartitionWorkerError(shard_id, detail, exitcode=code)
        for p in procs:
            p.join(timeout=barrier_timeout)
        out = shared.copy()
    finally:
        if procs:
            _terminate_all(procs)
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already reaped
            pass
    stats.wall_s = time.perf_counter() - t_start
    stats.shard_stats = [
        ShardRunStats(
            shard=plan.shard,
            n_owned=plan.n_owned,
            n_ghost=plan.n_ghost,
            peak_rss_kb=int(reports[plan.shard]["peak_rss_kb"]),
            round_walls=list(reports[plan.shard]["round_walls"]),
        )
        for plan in part.plans
    ]
    return out, stats, part


# ----------------------------------------------------------------------
# the equivalence twin (backend entry point)
# ----------------------------------------------------------------------
def run_partitioned_linial(
    graph: "nx.Graph",
    initial_colors: dict[int, int] | None = None,
    defect: int = 0,
    recorder: "RunRecorder | None" = None,
    *,
    shards: int = 2,
    strategy: str = "contiguous",
    seed: int = 0,
    mp_context: str = "spawn",
    barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT,
    stats_out: list[PartitionRunStats] | None = None,
    _crash: Mapping[int, int] | None = None,
) -> tuple[ColoringResult, RunMetrics, int]:
    """Shard-parallel twin of :func:`repro.sim.vectorized.linial_vectorized`.

    Same ``(coloring, metrics, palette)`` triple, same schedule, same
    smallest-evaluation-point tie-break, same synthesized global CONGEST
    accounting — bit-identical to the vectorized run for any ``shards``
    (the ``partitioned`` backend contract, enforced by the equivalence
    battery in ``tests/test_partition.py`` and the fuzz corpus replay).
    ``defect`` selects the [Kuh09] defective schedule exactly as in the
    single-CSR path (the defect changes the schedule, never the round
    kernel).  Recorder rows additionally carry the per-round ``exchange``
    column (:meth:`GraphPartition.exchange_row`); ``stats_out``, when a
    list, receives the run's :class:`PartitionRunStats`.
    """
    from ..algorithms.linial import defective_schedule, linial_schedule

    csr = CSRGraph.from_networkx(graph)
    n = csr.n
    delta = int(csr.degrees.max()) if n else 0
    if initial_colors is None:
        initial_colors = {v: i for i, v in enumerate(csr.nodes)}
    m0 = max(initial_colors.values()) + 1 if initial_colors else 1
    steps = (
        linial_schedule(m0, delta)
        if defect == 0
        else defective_schedule(m0, delta, defect)
    )
    palette = steps[-1].out_colors if steps else m0
    sched = [(step.q, step.deg) for step in steps]

    colors = csr.gather(initial_colors)
    out, stats, part = run_partitioned_dense(
        n,
        csr.indptr,
        csr.indices,
        colors,
        sched,
        shards=shards,
        strategy=strategy,
        seed=seed,
        mp_context=mp_context,
        barrier_timeout=barrier_timeout,
        _crash=_crash,
    )
    if stats_out is not None:
        stats_out.append(stats)

    metrics = synthesized_metrics(n)
    bits = int_bits(max(1, m0 - 1))
    exchange = part.exchange_row()
    for _ in sched:
        record_uniform_round(
            metrics,
            recorder,
            csr.num_directed_edges,
            bits,
            active=n,
            exchange=exchange,
        )
    result = ColoringResult(csr.scatter(out))
    if recorder is not None:
        recorder.finalize(
            metrics,
            n=n,
            m=csr.num_directed_edges // 2,
            palette=palette,
            algorithm=recorder.algorithm or "linial_partitioned",
        )
    return result, metrics, palette


__all__ = [
    "COLOR_BYTES",
    "COLOR_DTYPE",
    "DEFAULT_BARRIER_TIMEOUT",
    "GraphPartition",
    "PARTITION_STRATEGIES",
    "PartitionRunStats",
    "PartitionWorkerError",
    "ShardPlan",
    "ShardRunStats",
    "partition_arrays",
    "partition_graph",
    "run_partitioned_dense",
    "run_partitioned_linial",
]
