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
same nodes, edges and adjacency order everywhere.  Its edges can also be
emitted as an array (:func:`random_regular_edges`, reached by family name
through :func:`family_edges`) for callers that freeze straight into CSR
form and never need the networkx graph.
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


def ring(n: int) -> nx.Graph:
    """Cycle on ``n`` nodes (``n >= 3``)."""
    if n < 3:
        raise ValueError(f"ring needs n >= 3, got {n}")
    return nx.cycle_graph(n)


def path(n: int) -> nx.Graph:
    """Path on ``n`` nodes (``n - 1`` edges)."""
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return nx.path_graph(n)


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


@lru_cache(maxsize=8)
def _repr_ranks(n: int) -> np.ndarray:
    """``ranks[v]``: the rank of label ``v`` among ``0..n-1`` in ``repr``
    order, as :func:`_repr_rank` gives it (cached read-only: the emitter
    and the graph builder of one graph both need it)."""
    ranks = np.empty(n, dtype=np.int64)
    ranks[sorted(range(n), key=repr)] = np.arange(n, dtype=np.int64)
    ranks.flags.writeable = False
    return ranks


def _regular_graph(n: int, edges: np.ndarray) -> nx.Graph:
    """The networkx graph of :func:`random_regular` from its emitted edges.

    Nodes go in as ``_relabel`` inserts them (the rank of ``0``, of ``1``,
    ...), edges in row order.  Every node is one shared ``int`` object,
    so the graph holds ``n`` labels rather than one per edge endpoint;
    indexing an object array of them creates no other ints, not even
    short-lived ones.
    """
    labels = np.arange(n).astype(object)
    g = nx.Graph()
    g.add_nodes_from(labels[_repr_ranks(n)])
    g.add_edges_from(zip(labels[edges[:, 0]], labels[edges[:, 1]]))
    return g


def random_regular(n: int, degree: int, seed: int) -> nx.Graph:
    """Random ``degree``-regular graph on ``n`` nodes (``n * degree`` even).

    Equals ``_relabel(nx.random_regular_graph(degree, n, seed=seed))`` in
    node order, per-node adjacency order and edge order, but is built
    once instead of twice, from :func:`random_regular_edges`.
    """
    return _regular_graph(n, random_regular_edges(n, degree, seed))


def gnp(n: int, p: float, seed: int) -> nx.Graph:
    """Erdos-Renyi G(n, p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    return _relabel(nx.gnp_random_graph(n, p, seed=seed))


def random_tree(n: int, seed: int) -> nx.Graph:
    """Uniform-attachment random tree on ``n`` nodes (seeded)."""
    if n < 1:
        raise ValueError(f"tree needs n >= 1, got {n}")
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


def hypercube(dim: int) -> nx.Graph:
    """The ``dim``-dimensional hypercube (2^dim nodes, degree dim)."""
    if dim < 1:
        raise ValueError(f"hypercube needs dim >= 1, got {dim}")
    return _relabel(nx.hypercube_graph(dim))


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


#: Families that can emit their edges without building a networkx graph:
#: ``name -> (emitter, builder)``.  ``emitter(**kwargs)`` returns the
#: ``(m, 2)`` edge array over ``0..n-1`` in the family graph's edge order;
#: ``builder(n, edges)`` turns it into the family's networkx graph.
_EDGE_EMITTERS = {"random_regular": (random_regular_edges, _regular_graph)}


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
    return kwargs["n"], emitter(**kwargs)


def family_from_edges(name: str, n: int, edges: np.ndarray) -> nx.Graph:
    """The networkx graph of a family from its :func:`family_edges` output."""
    _emitter, builder = _EDGE_EMITTERS[name]
    return builder(n, edges)


def max_degree(g: nx.Graph) -> int:
    """Delta of ``g`` (0 for the empty graph)."""
    return max((d for _, d in g.degree), default=0)
