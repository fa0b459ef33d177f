"""CSR-based vectorized execution layer shared by all fast paths.

The reference simulator (:mod:`repro.sim.network`) charges every message
individually — perfect for bit accounting, too slow past n ~ 10^4.  The
schedule-driven algorithms the paper builds on (Linial's coloring, the
[Kuh09] defective variant, the classic color-class reduction, sequential
greedy) all share one structural property emphasized by Maus–Tonoyan and
Fuchs–Kuhn: each round's color update is a *pure function* of (own color,
neighbor colors).  That makes the whole round expressible as a handful of
array operations over a fixed adjacency structure.

This module provides that structure and the primitives every fast path in
:mod:`repro.sim.vectorized` is written against:

* :class:`CSRGraph` — the topology as compressed-sparse-row arrays
  (``indptr``/``indices``) over dense node indices ``0..n-1``, plus the
  expanded per-directed-edge ``src`` array for scatter/bincount patterns.
  Node labels are mapped through a sorted dense index so fast paths and
  the reference simulator agree on iteration order.  A ``networkx``
  graph is frozen from ``graph.adjacency()`` with one ``np.fromiter``
  per array and no per-edge Python (:meth:`CSRGraph.from_networkx`), and
  its CSR is memoized in the graph's own ``__networkx_cache__``, which
  networkx clears on every mutation, so an unchanged graph freezes once
  (:func:`memoize_csr`); an edge array over labels ``0..n-1`` freezes
  directly (:meth:`CSRGraph.from_edges`), with no networkx graph at all.
* ``gather`` / ``scatter`` — move per-node values between the label world
  (dicts keyed by node id) and the dense array world.
* :func:`collision_counts` / :func:`equal_neighbor_counts` — the
  "how many neighbors agree with me" kernels of Linial-style steps,
  counted with **integer** bincounts (never float accumulation).
  ``collision_counts`` compares each undirected edge once, since
  agreement across an edge is symmetric, and two distinct polynomials
  of degree <= deg agree at no more than deg points (Maus–Tonoyan), so
  its matches are sparse.
* :func:`poly_digits` / :func:`poly_eval_grid` — the base-``q`` polynomial
  machinery of Linial steps, vectorized over all nodes and all evaluation
  points at once.
* :func:`synthesized_metrics` — a :class:`~repro.sim.metrics.RunMetrics`
  preconfigured with the same default CONGEST budget the reference driver
  uses, so synthesized accounting is comparable number-for-number.

Every fast path built on this layer carries an *equivalence contract*:
tests compare its output node for node (and its synthesized metrics
counter for counter) against the reference simulator on a shared graph
set — see ``tests/test_vectorized.py`` and ``tests/test_engine.py``.

Directed graphs, multigraphs and self-loops are rejected explicitly: a
``nx.DiGraph`` would silently double-direct in the CSR build (each arc
would also be mirrored), and a multigraph's parallel edges and a
self-loop have no place in the simple graphs the paper colors, so
:meth:`CSRGraph.from_networkx` and :meth:`CSRGraph.from_edges` raise
``ValueError`` instead.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Iterable, Mapping, Sequence

import numpy as np
import networkx as nx

from .metrics import RunMetrics, congest_bandwidth


def _adjacency(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the undirected ``(m, 2)`` dense edge rows.

    Each node's neighbors are listed in row order: first the rows where
    it is the first endpoint, then those where it is the second.
    """
    eu, ev = edges[:, 0], edges[:, 1]
    src_all = np.concatenate([eu, ev])
    dst_all = np.concatenate([ev, eu])
    order = np.argsort(src_all, kind="stable")
    indices = dst_all[order]
    counts = (
        np.bincount(src_all, minlength=n) if edges.size else np.zeros(n, dtype=np.int64)
    )
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, indices


#: The CSR boundary's self-loop error, formatted with the node's label.
_SELF_LOOP = (
    "CSRGraph (and the vectorized fast paths) support simple graphs only; "
    "got a self-loop at node {!r}. Remove it explicitly "
    "(graph.remove_edges_from(nx.selfloop_edges(graph))) if that is intended."
)


def _networkx_edges(
    graphs: Sequence[nx.Graph],
) -> tuple[list[tuple], list[dict[Any, int]], np.ndarray, np.ndarray]:
    """Labels, indexes and edge rows of k undirected graphs laid end to end.

    Returns ``(nodes_list, index_list, node_offsets, edges)``: per graph
    its sorted labels and ``label -> dense index`` map (local, from 0);
    the ``k+1`` prefix array of node counts; and the ``(m, 2)`` rows of
    every graph's edges in ``graph.edges`` order, over global dense ids
    (graph ``j``'s ids shifted by ``node_offsets[j]``).

    The rows are read off ``graph.adjacency()`` with one ``np.fromiter``
    per array: ``graph.edges`` lists, node by node in insertion order,
    the neighbors not met earlier in that order, so one mask (keep a
    neighbor whose insertion position is after the node's own) recovers
    its rows with no per-edge Python.  Raises ``ValueError`` for a
    directed graph, a multigraph or a self-loop.
    """
    nodes_list: list[tuple] = []
    index_list: list[dict[Any, int]] = []
    adjs: list[dict] = []
    for graph in graphs:
        if graph.is_directed():
            raise ValueError(
                "CSRGraph (and the vectorized fast paths) support undirected "
                "graphs only; got a directed graph. Convert explicitly with "
                "graph.to_undirected() if that is intended."
            )
        if graph.is_multigraph():
            raise ValueError(
                "CSRGraph (and the vectorized fast paths) support simple "
                "graphs only; got a multigraph. Convert explicitly with "
                "nx.Graph(graph) if collapsing parallel edges is intended."
            )
        nodes = tuple(sorted(graph))
        nodes_list.append(nodes)
        index_list.append(dict(zip(nodes, range(len(nodes)))))
        adjs.append(dict(graph.adjacency()))
    counts = np.fromiter(map(len, nodes_list), dtype=np.int64, count=len(adjs))
    node_offsets = np.zeros(len(adjs) + 1, dtype=np.int64)
    np.cumsum(counts, out=node_offsets[1:])
    n = int(node_offsets[-1])
    # per insertion position: its node's dense id and its degree
    dense = np.fromiter(
        chain.from_iterable(
            map(index.__getitem__, adj) for index, adj in zip(index_list, adjs)
        ),
        dtype=np.int64,
        count=n,
    )
    degree = np.fromiter(
        chain.from_iterable(map(len, adj.values()) for adj in adjs),
        dtype=np.int64,
        count=n,
    )
    nbrs = np.fromiter(
        chain.from_iterable(
            map(index.__getitem__, chain.from_iterable(adj.values()))
            for index, adj in zip(index_list, adjs)
        ),
        dtype=np.int64,
        count=int(degree.sum()),
    )
    shift = np.repeat(node_offsets[:-1], counts)
    dense += shift
    src_pos = np.repeat(np.arange(n, dtype=np.int64), degree)
    nbrs += shift[src_pos]
    position = np.empty(n, dtype=np.int64)
    position[dense] = np.arange(n, dtype=np.int64)
    keep = position[nbrs] > src_pos
    edges = np.column_stack([dense[src_pos[keep]], nbrs[keep]])
    # every edge is listed from both ends and kept once; a self-loop is
    # listed once and never kept
    if 2 * edges.shape[0] != nbrs.shape[0]:
        node = int(nbrs[np.flatnonzero(dense[src_pos] == nbrs)[0]])
        j = int(np.searchsorted(node_offsets, node, side="right")) - 1
        raise ValueError(_SELF_LOOP.format(nodes_list[j][node - node_offsets[j]]))
    return nodes_list, index_list, node_offsets, edges


class CSRGraph:
    """An undirected graph frozen into CSR adjacency arrays.

    Attributes
    ----------
    n:
        Node count.
    nodes:
        Node labels in sorted order; label of dense index ``i`` is
        ``nodes[i]``.
    index:
        ``label -> dense index`` mapping (inverse of ``nodes``).
    indptr, indices:
        CSR adjacency: the neighbors of dense node ``i`` are
        ``indices[indptr[i]:indptr[i+1]]``.  Every undirected edge appears
        twice (once per direction), so ``indices`` has ``2m`` entries.
    src:
        The expanded row index: ``src[k]`` is the source of directed edge
        ``k`` (i.e. ``indices[k]`` is a neighbor of ``src[k]``).  Useful
        for ``np.bincount`` scatter patterns over directed edges.  Derived
        from ``indptr`` unless the constructor is handed it.
    """

    __slots__ = ("n", "nodes", "index", "indptr", "indices", "src")

    def __init__(
        self,
        n: int,
        nodes: tuple,
        index: dict[Any, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        src: np.ndarray | None = None,
    ) -> None:
        self.n = n
        self.nodes = nodes
        self.index = index
        self.indptr = indptr
        self.indices = indices
        if src is None:
            src = np.repeat(np.arange(n, dtype=np.int64), indptr[1:] - indptr[:-1])
        self.src = src

    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, n: int, edges: np.ndarray) -> "CSRGraph":
        """Freeze an undirected edge list over dense labels ``0..n-1``.

        ``edges`` is an ``(m, 2)`` integer array, one row per edge.  Rows
        in ``graph.edges`` order give exactly :meth:`from_networkx`'s
        arrays (see :func:`_adjacency`).  A self-loop row raises
        ``ValueError``, as in :meth:`from_networkx`.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (int(edges.min()) < 0 or int(edges.max()) >= n):
            raise ValueError(f"edge endpoints must lie in 0..{n - 1}")
        loops = np.flatnonzero(edges[:, 0] == edges[:, 1])
        if loops.size:
            raise ValueError(_SELF_LOOP.format(int(edges[loops[0], 0])))
        nodes = tuple(range(n))
        return cls(n, nodes, dict(zip(nodes, range(n))), *_adjacency(n, edges))

    @classmethod
    def from_networkx(cls, graph: nx.Graph) -> "CSRGraph":
        """Freeze a ``networkx`` graph into CSR form, once per topology.

        Labels are sorted and mapped to dense indices; the edges, read
        off ``graph.adjacency()`` in ``graph.edges`` order (see
        :func:`_networkx_edges`), are frozen by the same
        :func:`_adjacency` as :meth:`from_edges`.  The CSR is memoized in
        the graph's own networkx cache (:func:`memoize_csr`), so a second
        freeze of an unchanged graph returns the first one's CSR.

        Raises ``ValueError`` for directed graphs, multigraphs and
        self-loops: mirroring each arc would silently treat a digraph as
        its underlying undirected graph, which is almost never what a
        caller meant.  Convert explicitly (``graph.to_undirected()``, or
        ``nx.Graph(graph)`` for a multigraph) if that *is* the intent.
        """
        csr = memoized_csr(graph)
        if csr is None:
            (nodes,), (index,), _, edges = _networkx_edges([graph])
            n = len(nodes)
            csr = cls(n, nodes, index, *_adjacency(n, edges))
            memoize_csr(graph, csr)
        return csr

    # ------------------------------------------------------------------
    @property
    def num_directed_edges(self) -> int:
        """Number of directed edge slots (``2m`` for an undirected graph)."""
        return int(self.indices.shape[0])

    @property
    def degrees(self) -> np.ndarray:
        """Per-node degree, dense order."""
        return self.indptr[1:] - self.indptr[:-1]

    def neighbors_of(self, i: int) -> np.ndarray:
        """Dense neighbor indices of dense node ``i``."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    # ------------------------------------------------------------------
    def gather(
        self, mapping: Mapping[Any, int], dtype: type = np.int64
    ) -> np.ndarray:
        """Dense array of per-node values from a label-keyed mapping."""
        return np.fromiter(
            map(mapping.__getitem__, self.nodes), dtype=dtype, count=self.n
        )

    def scatter(self, values: np.ndarray) -> dict[Any, int]:
        """Label-keyed dict from a dense per-node array (values as ints)."""
        return dict(zip(self.nodes, values.tolist()))


# ----------------------------------------------------------------------
# the freeze memo
# ----------------------------------------------------------------------
#: The key of a graph's CSR in its ``__networkx_cache__``.
_MEMO_KEY = "repro.sim.engine.CSRGraph"


def _memo_of(graph: Any) -> dict | None:
    """The dict a graph's CSR may be memoized in, or ``None``.

    That dict is the graph's ``__networkx_cache__``, which networkx 3.3+
    clears in every mutating method, so a memo there lives exactly as
    long as the topology it froze.  networkx below 3.3 has no such cache,
    and a view (``graph._graph`` set) gets none: mutating the view's
    parent leaves the view's cache in place.
    """
    if getattr(graph, "_graph", None) is not None:
        return None
    return getattr(graph, "__networkx_cache__", None)


def _read_only(csr: CSRGraph) -> CSRGraph:
    """``csr`` with its ``indptr``/``indices``/``src`` marked read-only."""
    for a in (csr.indptr, csr.indices, csr.src):
        a.flags.writeable = False
    return csr


def memoized_csr(graph: Any) -> CSRGraph | None:
    """The CSR memoized for ``graph`` by :func:`memoize_csr`, or ``None``.

    The arrays are marked read-only again on every hit: a graph that was
    pickled or deep-copied carries its memo, but not the arrays' flags.
    """
    memo = _memo_of(graph)
    csr = None if memo is None else memo.get(_MEMO_KEY)
    return None if csr is None else _read_only(csr)


def memoize_csr(graph: Any, csr: CSRGraph) -> None:
    """Memoize ``csr`` as the freeze of networkx ``graph``.

    ``csr`` must equal what :meth:`CSRGraph.from_networkx` gives for
    ``graph``.  Its ``indptr``/``indices``/``src`` become read-only, as
    every later freeze of ``graph`` shares them: a caller writing into one
    raises instead of corrupting later runs.  A graph :func:`_memo_of`
    refuses keeps no memo.
    """
    memo = _memo_of(graph)
    if memo is not None:
        memo[_MEMO_KEY] = _read_only(csr)


def as_csr(graph: "nx.Graph | CSRGraph") -> CSRGraph:
    """``graph`` itself when already frozen, else its :class:`CSRGraph`.

    Every kernel that takes a graph accepts either form through this, so
    a caller holding a frozen topology never pays a second freeze.
    """
    return graph if isinstance(graph, CSRGraph) else CSRGraph.from_networkx(graph)


# ----------------------------------------------------------------------
# metrics synthesis
# ----------------------------------------------------------------------
def synthesized_metrics(n: int) -> RunMetrics:
    """A fresh :class:`RunMetrics` with the reference driver's default
    CONGEST budget, so vectorized runs account like reference runs."""
    return RunMetrics(bandwidth_limit=congest_bandwidth(n))


def record_uniform_round(
    metrics: RunMetrics,
    recorder,
    count: int,
    bits: int,
    *,
    active: int | None = None,
    uncolored: int | None = None,
    faults: dict[str, int] | None = None,
    exchange: dict[str, int] | None = None,
) -> None:
    """Observe one synthesized uniform round in metrics *and* recorder.

    The single primitive every fast path charges its rounds through: it
    keeps the accounting (:meth:`RunMetrics.observe_uniform_round`) and
    the observability row (:meth:`repro.obs.RunRecorder.on_round`) in
    lockstep, so a fast path cannot desynchronize the two.  ``recorder``
    is duck-typed (anything with ``on_round``) and may be ``None``;
    ``faults`` carries the round's injected-fault counts when the fast
    path ran under a :class:`~repro.faults.FaultPlan`; ``exchange``
    carries the round's ghost-color boundary-exchange accounting when it
    ran on the partitioned backend (:mod:`repro.sim.partition`).
    """
    metrics.observe_uniform_round(count, bits)
    if recorder is not None:
        recorder.on_round(
            active=active, uncolored=uncolored, faults=faults, exchange=exchange
        )


# ----------------------------------------------------------------------
# neighbor-agreement kernels
# ----------------------------------------------------------------------
def equal_neighbor_counts(csr: CSRGraph, values: np.ndarray) -> np.ndarray:
    """Per-node count of neighbors holding an equal value (int64).

    The vectorized form of "how many neighbors share my color" — the
    validation kernel of defective colorings.
    """
    if not csr.num_directed_edges:
        return np.zeros(csr.n, dtype=np.int64)
    agree = values[csr.src] == values[csr.indices]
    return np.bincount(csr.src[agree], minlength=csr.n)


def _match_indices(match: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.nonzero`` of a 2-D boolean matrix, as ``(rows, cols)``.

    One flat scan plus a ``divmod`` beats ``np.nonzero``'s 2-D walk on
    the (q, m) match matrices of the agreement kernels (0.43 against
    0.72 ms at random_regular n=4000 d=8 q=17) and costs about 2 µs more
    at n=16.
    """
    return np.divmod(np.flatnonzero(match), match.shape[1])


def collision_counts(csr: CSRGraph, evals: np.ndarray) -> np.ndarray:
    """Per (evaluation point, node) neighbor-agreement counts, int64.

    ``evals`` has shape ``(q, n)`` — row ``x`` holds every node's
    polynomial evaluation at point ``x``.  Returns ``hits`` of the same
    shape where ``hits[x, i]`` counts neighbors ``j`` of ``i`` with
    ``evals[x, j] == evals[x, i]``.

    Agreement across an edge is symmetric, so each undirected edge is
    compared once, on its ``src < indices`` slot, with ``evals`` cast to
    the narrowest unsigned dtype holding ``q - 1`` (``evals`` lies in
    ``0..q-1``).  Two distinct polynomials of degree <= deg agree at no
    more than deg points, so matches are sparse: both endpoints of every
    match are counted by one integer ``np.bincount`` over
    ``x * n + endpoint``, never a float-weighted sum (which accumulates in
    float64 and loses exactness past 2^53).  A graph whose rows hold only
    some slots (the partitioned backend's empty ghost rows) counts each
    owned column exactly as long as every owned-to-ghost slot has
    ``src < indices``.
    """
    q, n = evals.shape[0], csr.n
    if not csr.num_directed_edges:
        return np.zeros((q, n), dtype=np.int64)
    src, dst = csr.src, csr.indices
    half = src < dst
    u, v = src[half], dst[half]
    narrow = evals.astype(np.min_scalar_type(max(q - 1, 0)), copy=False)
    xs, ks = _match_indices(narrow[:, u] == narrow[:, v])
    base = xs * n
    return np.bincount(
        np.concatenate([base + u[ks], base + v[ks]]), minlength=q * n
    ).reshape(q, n)


def match_counts(match: np.ndarray, receivers: np.ndarray, n: int) -> np.ndarray:
    """Per (evaluation point, node) count of matching deliveries, int64.

    ``match`` has shape ``(q, k)``: ``match[x, e]`` says whether delivery
    ``e`` agrees with its receiver ``receivers[e]`` (a node in ``0..n-1``)
    at point ``x``.  Returns ``hits`` of shape ``(q, n)`` where
    ``hits[x, i]`` counts the deliveries to ``i`` that match at ``x``.
    Delivery is per direction (a payload may be dropped one way and not
    the other), so each match is counted at its receiver only, with one
    integer ``np.bincount`` over ``x * n + receiver``.
    """
    xs, ks = _match_indices(match)
    return np.bincount(
        xs * n + receivers[ks], minlength=match.shape[0] * n
    ).reshape(match.shape[0], n)


# ----------------------------------------------------------------------
# polynomial machinery (Linial steps)
# ----------------------------------------------------------------------
def poly_digits(colors: np.ndarray, q: int, degree: int) -> np.ndarray:
    """Base-q digit matrix, shape (n, degree+1) — coefficient i in col i.

    ``colors`` must be non-negative."""
    out = np.empty((colors.shape[0], degree + 1), dtype=np.int64)
    c = colors
    for i in range(degree + 1):
        c, out[:, i] = np.divmod(c, q)
    return out


def poly_eval_grid(digits: np.ndarray, q: int) -> np.ndarray:
    """Evaluations at every x in F_q; shape (q, n).  Horner, vectorized.

    ``digits`` must lie in ``0..q-1`` (as :func:`poly_digits` gives), so
    the leading coefficient needs no reduction."""
    xs = np.arange(q, dtype=np.int64)[:, None]  # (q, 1)
    acc = np.repeat(digits[None, :, -1], q, axis=0)
    for i in range(digits.shape[1] - 2, -1, -1):
        acc *= xs
        acc += digits[:, i]
        acc %= q
    return acc


# ----------------------------------------------------------------------
# ragged per-node lists (greedy fast path)
# ----------------------------------------------------------------------
def ragged_lists(
    csr: CSRGraph, lists: Mapping[Any, Iterable[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate label-keyed per-node lists into (list_indptr, list_values).

    Dense node ``i``'s list is ``list_values[list_indptr[i]:list_indptr[i+1]]``
    in its original (preference) order.
    """
    return pack_lists([tuple(lists[v]) for v in csr.nodes])


def pack_lists(per_node: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Pack dense-ordered lists (node ``i``'s at ``per_node[i]``) into
    ``(list_indptr, list_values)``, the layout of :func:`ragged_lists`."""
    n = len(per_node)
    list_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter(map(len, per_node), dtype=np.int64, count=n),
        out=list_indptr[1:],
    )
    list_values = np.fromiter(
        chain.from_iterable(per_node), dtype=np.int64, count=int(list_indptr[-1])
    )
    return list_indptr, list_values
