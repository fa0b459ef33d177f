"""Deterministic, seeded graph family generators.

Every generator returns a ``networkx.Graph`` (or ``DiGraph``) with integer
node labels ``0..n-1`` and — when seeded — is fully deterministic, so every
experiment and test in the repository is reproducible bit-for-bit.

The families cover what the paper's algorithms are sensitive to:

* **rings / paths** — Linial's lower-bound topology, minimum degree;
* **cliques** — tightness of the existence conditions (Lemmas A.1/A.2);
* **random regular** — uniform-degree stress for the gamma-class machinery;
* **G(n, p)** — heterogeneous degrees (per-node conditions matter);
* **trees / hypercubes / tori** — structured sparse instances;
* **book / blow-up graphs** — high-degree hubs next to low-degree fringes,
  the regime where per-color defects (list defective coloring) pay off.

:func:`random_regular` is a port of networkx's Steger–Wormald pairing
algorithm rather than a call into it, so its graphs no longer depend on
the installed networkx version: the same ``(n, degree, seed)`` yields the
same nodes, edges and adjacency order everywhere.

Six families can also emit their edges as an array, in the networkx
graph's ``graph.edges`` order (:func:`ring_edges`, :func:`path_edges`,
:func:`random_regular_edges`, :func:`gnp_edges`, :func:`random_tree_edges`,
:func:`hypercube_edges`; by family name through :func:`family_edges`), for
callers that freeze straight into CSR form and never need the networkx
graph.  For a graph built by inserting nodes and then edges in order,
``graph.edges`` runs over the edges sorted by (insertion position of the
endpoint inserted first, edge insertion index), each oriented from that
endpoint; ``_relabel`` keeps that order and only maps the labels.
"""

from __future__ import annotations

import random
from collections import defaultdict
from functools import lru_cache
from itertools import chain

import networkx as nx
import numpy as np


def _repr_rank(labels) -> dict:
    """``label -> rank`` of each label in ``repr`` order (so 10 ranks before 2)."""
    return {v: i for i, v in enumerate(sorted(labels, key=repr))}


def _relabel(g: nx.Graph) -> nx.Graph:
    """Relabel nodes to 0..n-1 deterministically: each node becomes the rank
    of its original label sorted by ``repr`` (not by value, so 10 ranks
    before 2)."""
    return nx.relabel_nodes(g, _repr_rank(g.nodes))


def _at_least(what: str, name: str, value: int, low: int) -> None:
    """The size check a generator and its edge emitter share."""
    if value < low:
        raise ValueError(f"{what} needs {name} >= {low}, got {value}")


def ring(n: int) -> nx.Graph:
    """Cycle on ``n`` nodes (``n >= 3``)."""
    _at_least("ring", "n", n, 3)
    return nx.cycle_graph(n)


def ring_edges(n: int) -> np.ndarray:
    """Edges of :func:`ring` in its ``graph.edges`` order.

    ``cycle_graph`` adds ``(0, 1), (1, 2), ..., (n - 1, 0)``, so node
    ``0`` emits ``(0, 1), (0, n - 1)`` and every later node ``i`` emits
    ``(i, i + 1)`` up to ``n - 2``.
    """
    _at_least("ring", "n", n, 3)
    return np.insert(path_edges(n), 1, (0, n - 1), axis=0)


def path(n: int) -> nx.Graph:
    """Path on ``n`` nodes (``n - 1`` edges)."""
    _at_least("path", "n", n, 1)
    return nx.path_graph(n)


def path_edges(n: int) -> np.ndarray:
    """Edges of :func:`path` in its ``graph.edges`` order: ``(i, i + 1)``."""
    _at_least("path", "n", n, 1)
    tails = np.arange(n - 1, dtype=np.int64)
    return np.stack([tails, tails + 1], axis=1)


def clique(n: int) -> nx.Graph:
    """Complete graph K_n; K_{Delta+1} witnesses tightness of Eq. (1)/(2)."""
    if n < 1:
        raise ValueError(f"clique needs n >= 1, got {n}")
    return nx.complete_graph(n)


def star(n: int) -> nx.Graph:
    """Star with one hub and ``n - 1`` leaves."""
    if n < 2:
        raise ValueError(f"star needs n >= 2, got {n}")
    return nx.star_graph(n - 1)


def _pairing_edges(n: int, degree: int, rng: random.Random) -> set[tuple[int, int]]:
    """Edge set of a random ``degree``-regular graph on ``0..n-1``.

    The Steger–Wormald pairing loop of networkx 3.x's
    ``random_regular_graph`` (its ``_try_creation``/``_suitable``
    helpers), ported line for line under networkx's BSD-3-Clause license
    (Copyright (c) 2004-2025, NetworkX Developers).  It draws from ``rng``
    in the same order and fills the set by the same sequence of ``add``
    calls, so the set, and hence its iteration order, is identical.

    A. Steger and N. Wormald, Generating random regular graphs quickly,
    Combinatorics, Probability and Computing 8 (1999), 377-396.
    """

    def suitable(edges, potential_edges):
        # whether an unused pair is left among the unmatched stubs; the
        # in-loop swap of s1 is networkx's and is kept for parity
        if not potential_edges:
            return True
        for s1 in potential_edges:
            for s2 in potential_edges:
                if s1 == s2:
                    break
                if s1 > s2:
                    s1, s2 = s2, s1
                if (s1, s2) not in edges:
                    return True
        return False

    def try_creation():
        edges = set()
        stubs = list(range(n)) * degree
        while stubs:
            potential_edges = defaultdict(int)
            rng.shuffle(stubs)
            stubiter = iter(stubs)
            for s1, s2 in zip(stubiter, stubiter):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and ((s1, s2) not in edges):
                    edges.add((s1, s2))
                else:
                    potential_edges[s1] += 1
                    potential_edges[s2] += 1
            if not suitable(edges, potential_edges):
                return None
            stubs = [
                node
                for node, potential in potential_edges.items()
                for _ in range(potential)
            ]
        return edges

    edges = try_creation()
    while edges is None:
        edges = try_creation()
    return edges


def random_regular_edges(n: int, degree: int, seed: int) -> np.ndarray:
    """Edges of :func:`random_regular` as an ``int64`` array of shape ``(m, 2)``.

    Row ``k`` is the graph's ``k``-th edge in ``random_regular(n, degree,
    seed).edges`` order, with the same endpoint order, so freezing these
    rows into CSR form gives the same arrays as freezing the graph.  The
    graph equals ``_relabel(nx.random_regular_graph(degree, n,
    seed=seed))``: the pairing (:func:`_pairing_edges`) runs on
    ``0..n-1``, ``_relabel`` then copies each edge ``(u, w)`` with ``u <
    w``, ``u`` ascending and ``w`` in ``u``'s adjacency order (the pairing
    set's order), and maps every label to its ``repr`` rank.  So the rows
    are the set's edges stably sorted by their smaller end, then ranked.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if degree >= n:
        raise ValueError(f"degree {degree} must be < n {n}")
    if (n * degree) % 2:
        raise ValueError("n * degree must be even")
    if not degree:
        return np.empty((0, 2), dtype=np.int64)
    pairs = _pairing_edges(n, degree, random.Random(seed))
    flat = np.fromiter(chain.from_iterable(pairs), dtype=np.int64, count=2 * len(pairs))
    edges = flat.reshape(-1, 2)
    edges = edges[np.argsort(edges[:, 0], kind="stable")]
    return _repr_ranks(n)[edges]


@lru_cache(maxsize=64)
def _repr_ranks(n: int) -> np.ndarray:
    """``ranks[v]``: the rank of label ``v`` among ``0..n-1`` in ``repr``
    order, as :func:`_repr_rank` gives it (cached read-only: the emitter
    and the graph builder of one graph both need it, and served requests
    repeat a few dozen small sizes)."""
    ranks = np.empty(n, dtype=np.int64)
    ranks[sorted(range(n), key=repr)] = np.arange(n, dtype=np.int64)
    ranks.flags.writeable = False
    return ranks


def _graph_from_rows(n: int, order: np.ndarray, edges: np.ndarray) -> nx.Graph:
    """Nodes ``order`` inserted in that order, then ``edges`` in row order.

    Every node is one shared ``int`` object, so the graph holds ``n``
    labels rather than one per edge endpoint; indexing an object array of
    them creates no other ints, not even short-lived ones.
    """
    labels = np.arange(n).astype(object)
    g = nx.Graph()
    g.add_nodes_from(labels[order])
    g.add_edges_from(zip(labels[edges[:, 0]], labels[edges[:, 1]]))
    return g


def _ranked_graph(n: int, edges: np.ndarray) -> nx.Graph:
    """A ``_relabel``-ed family's graph from its emitted edges: nodes go in
    as ``_relabel`` inserts them (the rank of ``0``, of ``1``, ...)."""
    return _graph_from_rows(n, _repr_ranks(n), edges)


def _ordered_graph(n: int, edges: np.ndarray) -> nx.Graph:
    """A family's graph from its emitted edges, nodes inserted ``0..n-1``."""
    return _graph_from_rows(n, np.arange(n), edges)


def random_regular(n: int, degree: int, seed: int) -> nx.Graph:
    """Random ``degree``-regular graph on ``n`` nodes (``n * degree`` even).

    Equals ``_relabel(nx.random_regular_graph(degree, n, seed=seed))`` in
    node order, per-node adjacency order and edge order, but is built
    once instead of twice, from :func:`random_regular_edges`.
    """
    return _ranked_graph(n, random_regular_edges(n, degree, seed))


def _check_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")


def gnp(n: int, p: float, seed: int) -> nx.Graph:
    """Erdos-Renyi G(n, p)."""
    _check_p(p)
    return _relabel(nx.gnp_random_graph(n, p, seed=seed))


def gnp_edges(n: int, p: float, seed: int) -> np.ndarray:
    """Edges of :func:`gnp` in its ``graph.edges`` order.

    ``gnp_random_graph`` draws one ``random.Random(seed).random()`` per
    pair of ``combinations(range(n), 2)`` and adds the pair when the draw
    is below ``p`` (for ``p <= 0`` it adds none and for ``p >= 1`` it
    builds the complete graph, drawing nothing; the draws here are then
    not made either).  Those pairs, in that order, are already the
    graph's edge order; ``_relabel`` maps each label to its ``repr``
    rank.  The draws go in chunks, so memory stays linear in the edges.
    """
    _check_p(p)
    pairs = n * (n - 1) // 2
    if p <= 0.0 or not pairs:
        kept = np.empty(0, dtype=np.int64)
    elif p >= 1.0:
        kept = np.arange(pairs, dtype=np.int64)
    else:
        draw = random.Random(seed).random
        kept = np.concatenate([
            lo + np.flatnonzero(
                np.array([draw() for _ in range(min(_GNP_CHUNK, pairs - lo))]) < p
            )
            for lo in range(0, pairs, _GNP_CHUNK)
        ])
    # pair k is (u, w): u's pairs (u, u + 1), ..., (u, n - 1) start at k = first[u]
    u = np.arange(n, dtype=np.int64)
    first = u * (2 * n - u - 1) // 2
    tails = np.searchsorted(first, kept, side="right") - 1
    heads = kept - first[tails] + tails + 1
    return _repr_ranks(n)[np.stack([tails, heads], axis=1)]


#: Pairs drawn per chunk by :func:`gnp_edges`.
_GNP_CHUNK = 1 << 16


def random_tree(n: int, seed: int) -> nx.Graph:
    """Uniform-attachment random tree on ``n`` nodes (seeded)."""
    _at_least("tree", "n", n, 1)
    if n == 1:
        g = nx.Graph()
        g.add_node(0)
        return g
    rng = random.Random(seed)
    g = nx.Graph()
    g.add_node(0)
    for v in range(1, n):
        g.add_edge(v, rng.randrange(v))
    return g


def random_tree_edges(n: int, seed: int) -> np.ndarray:
    """Edges of :func:`random_tree` in its ``graph.edges`` order.

    Node ``v`` joins by the edge ``(v, parent)``, drawn as in the
    generator; the parent was inserted first, so the rows are the
    ``(parent, v)`` pairs stably sorted by parent.
    """
    _at_least("tree", "n", n, 1)
    randrange = random.Random(seed).randrange
    children = np.arange(1, n, dtype=np.int64)
    parents = np.array([randrange(v) for v in range(1, n)], dtype=np.int64)
    order = np.argsort(parents, kind="stable")
    return np.stack([parents[order], children[order]], axis=1)


def hypercube(dim: int) -> nx.Graph:
    """The ``dim``-dimensional hypercube (2^dim nodes, degree dim)."""
    _at_least("hypercube", "dim", dim, 1)
    return _relabel(nx.hypercube_graph(dim))


def hypercube_edges(dim: int) -> np.ndarray:
    """Edges of :func:`hypercube` (``2**dim`` nodes) in its ``graph.edges``
    order.

    A node's ``repr`` rank is its bit tuple read as a binary number, and
    the graph's order is ``u`` ascending, then for each bit of ``u``
    from high to low that is 0, the row ``(u, u | 1 << bit)``.
    """
    _at_least("hypercube", "dim", dim, 1)
    nodes = np.arange(2**dim, dtype=np.int64)[:, None]
    flips = np.int64(1) << np.arange(dim - 1, -1, -1, dtype=np.int64)
    up = (nodes & flips) == 0
    tails = np.broadcast_to(nodes, up.shape)[up]
    return np.stack([tails, (nodes | flips)[up]], axis=1)


def torus(rows: int, cols: int) -> nx.Graph:
    """2D torus grid (4-regular for rows, cols >= 3)."""
    if rows < 2 or cols < 2:
        raise ValueError("torus needs rows, cols >= 2")
    return _relabel(nx.grid_2d_graph(rows, cols, periodic=True))


def hub_and_fringe(hub_degree: int, fringe_cliques: int, clique_size: int) -> nx.Graph:
    """A high-degree hub attached to many small cliques.

    Degrees are strongly heterogeneous: the hub has degree
    ``hub_degree`` while fringe nodes have degree ``clique_size``.  List
    defective colorings shine here because the hub can trade a large defect
    on a few colors against the fringe's strict lists.
    """
    if fringe_cliques * clique_size < hub_degree:
        raise ValueError("not enough fringe nodes to realize hub degree")
    g = nx.Graph()
    hub = 0
    g.add_node(hub)
    nxt = 1
    attached = 0
    for _ in range(fringe_cliques):
        members = list(range(nxt, nxt + clique_size))
        nxt += clique_size
        for i, u in enumerate(members):
            for w in members[i + 1 :]:
                g.add_edge(u, w)
        for u in members:
            if attached < hub_degree:
                g.add_edge(hub, u)
                attached += 1
    return g


def blowup(base: nx.Graph, k: int) -> nx.Graph:
    """Replace each node by an independent set of ``k`` copies.

    The ``k``-blow-up of ``G`` multiplies all degrees by ``k`` while keeping
    the structure; a convenient way to scale Delta without changing shape.
    """
    if k < 1:
        raise ValueError(f"blow-up factor must be >= 1, got {k}")
    g = nx.Graph()
    for v in base.nodes:
        for i in range(k):
            g.add_node(v * k + i)
    for u, v in base.edges:
        for i in range(k):
            for j in range(k):
                g.add_edge(u * k + i, v * k + j)
    return g


def disjoint_cliques(count: int, size: int) -> nx.Graph:
    """``count`` disjoint copies of K_size (existence tightness experiments)."""
    g = nx.Graph()
    nxt = 0
    for _ in range(count):
        members = list(range(nxt, nxt + size))
        nxt += size
        g.add_nodes_from(members)
        for i, u in enumerate(members):
            for w in members[i + 1 :]:
                g.add_edge(u, w)
    return g


def family(name: str, **kwargs) -> nx.Graph:
    """Dispatch a generator by name — used by the experiment harness."""
    table = {
        "ring": ring,
        "path": path,
        "clique": clique,
        "star": star,
        "random_regular": random_regular,
        "gnp": gnp,
        "random_tree": random_tree,
        "hypercube": hypercube,
        "torus": torus,
        "hub_and_fringe": hub_and_fringe,
        "blowup": blowup,
        "disjoint_cliques": disjoint_cliques,
    }
    if name not in table:
        raise KeyError(f"unknown graph family {name!r}; options: {sorted(table)}")
    return table[name](**kwargs)


def _sized(edges_of):
    """The ``(n, edges)`` emitter of a family sized by its ``n`` argument."""

    def emit(n: int, **kwargs) -> tuple[int, np.ndarray]:
        return n, edges_of(n, **kwargs)

    return emit


def _hypercube_emit(dim: int) -> tuple[int, np.ndarray]:
    return 2**dim, hypercube_edges(dim)


#: Families that can emit their edges without building a networkx graph:
#: ``name -> (emitter, builder)``.  ``emitter(**kwargs)`` returns ``(n,
#: edges)``, the ``(m, 2)`` edge array over ``0..n-1`` in the family
#: graph's edge order; ``builder(n, edges)`` turns it into the family's
#: networkx graph, equal in node, edge and per-node adjacency order.  A
#: ring's adjacency order is not its edge order (node ``n - 1`` meets
#: ``n - 2`` before ``0``), so its builder runs the generator.
_EDGE_EMITTERS = {
    "ring": (_sized(ring_edges), lambda n, _edges: ring(n)),
    "path": (_sized(path_edges), _ordered_graph),
    "random_regular": (_sized(random_regular_edges), _ranked_graph),
    "gnp": (_sized(gnp_edges), _ranked_graph),
    "random_tree": (_sized(random_tree_edges), _ordered_graph),
    "hypercube": (_hypercube_emit, _ordered_graph),
}


def family_edges(name: str, **kwargs) -> tuple[int, np.ndarray] | None:
    """``(n, edges)`` of ``family(name, **kwargs)`` without building it, or
    ``None`` when the family has no edge emitter.

    ``CSRGraph.from_edges(n, edges)`` equals
    ``CSRGraph.from_networkx(family(name, **kwargs))`` array for array, and
    :func:`family_from_edges` builds the networkx graph itself.
    """
    if name not in _EDGE_EMITTERS:
        return None
    emitter, _builder = _EDGE_EMITTERS[name]
    return emitter(**kwargs)


def family_from_edges(name: str, n: int, edges: np.ndarray) -> nx.Graph:
    """The networkx graph of a family from its :func:`family_edges` output."""
    _emitter, builder = _EDGE_EMITTERS[name]
    return builder(n, edges)


def max_degree(g: nx.Graph) -> int:
    """Delta of ``g`` (0 for the empty graph)."""
    return max((d for _, d in g.degree), default=0)
