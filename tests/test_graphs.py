"""Unit + property tests for graph generators and orientations."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coloring import EdgeOrientation
from repro.graphs import (
    balanced_orientation,
    bidirect,
    blowup,
    clique,
    disjoint_cliques,
    family,
    family_edges,
    family_from_edges,
    gnp,
    hub_and_fringe,
    hypercube,
    max_degree,
    max_outdegree,
    orientation_by_id,
    path,
    random_low_outdegree_digraph,
    random_regular,
    random_regular_edges,
    random_tree,
    ring,
    star,
    torus,
)
from repro.graphs.generators import _EDGE_EMITTERS, _relabel
from repro.sim.engine import CSRGraph


class TestGenerators:
    def test_ring(self):
        g = ring(7)
        assert g.number_of_nodes() == 7
        assert all(d == 2 for _, d in g.degree)
        with pytest.raises(ValueError):
            ring(2)

    def test_path(self):
        g = path(5)
        assert g.number_of_edges() == 4

    def test_clique(self):
        g = clique(6)
        assert g.number_of_edges() == 15
        assert max_degree(g) == 5

    def test_star(self):
        g = star(8)
        assert max_degree(g) == 7
        assert sorted(d for _, d in g.degree).count(1) == 7

    def test_random_regular_degree(self):
        g = random_regular(20, 4, seed=0)
        assert all(d == 4 for _, d in g.degree)
        assert sorted(g.nodes) == list(range(20))

    def test_random_regular_parity(self):
        # odd n * degree, degree >= n, and degree < 0 (which networkx
        # would reject with its own NetworkXError) all raise ValueError
        for n, degree in [(5, 3), (1001, 3), (4, 4), (3, 7), (6, -1), (6, -2)]:
            with pytest.raises(ValueError):
                random_regular(n, degree, seed=0)

    def test_gnp_bounds(self):
        g = gnp(30, 0.2, seed=1)
        assert g.number_of_nodes() == 30
        with pytest.raises(ValueError):
            gnp(5, 1.5, seed=0)

    def test_gnp_deterministic(self):
        assert sorted(gnp(20, 0.3, seed=5).edges) == sorted(gnp(20, 0.3, seed=5).edges)

    def test_random_tree(self):
        g = random_tree(15, seed=2)
        assert nx.is_tree(g)
        assert random_tree(1, seed=0).number_of_nodes() == 1

    def test_hypercube(self):
        g = hypercube(4)
        assert g.number_of_nodes() == 16
        assert all(d == 4 for _, d in g.degree)

    def test_torus(self):
        g = torus(4, 5)
        assert g.number_of_nodes() == 20
        assert all(d == 4 for _, d in g.degree)

    def test_hub_and_fringe(self):
        g = hub_and_fringe(hub_degree=6, fringe_cliques=3, clique_size=3)
        assert g.degree(0) == 6
        with pytest.raises(ValueError):
            hub_and_fringe(hub_degree=10, fringe_cliques=1, clique_size=2)

    def test_blowup_scales_degree(self):
        g = blowup(ring(4), 3)
        assert g.number_of_nodes() == 12
        assert all(d == 6 for _, d in g.degree)

    def test_disjoint_cliques(self):
        g = disjoint_cliques(3, 4)
        assert g.number_of_nodes() == 12
        assert nx.number_connected_components(g) == 3

    def test_family_dispatch(self):
        g = family("ring", n=5)
        assert g.number_of_nodes() == 5
        with pytest.raises(KeyError):
            family("nope")

    def test_family_edges_only_for_emitting_families(self):
        assert family_edges("clique", n=5) is None
        n, edges = family_edges("random_regular", n=10, degree=3, seed=2)
        assert n == 10 and edges.shape == (15, 2) and edges.dtype == np.int64


def _same_graph(a: nx.Graph, b: nx.Graph) -> bool:
    """Equal node order, edge order and per-node adjacency order."""
    return (
        list(a.nodes) == list(b.nodes)
        and list(a.edges) == list(b.edges)
        and all(list(a.adj[v]) == list(b.adj[v]) for v in b)
    )


def _same_csr(a: CSRGraph, b: CSRGraph) -> bool:
    """Array-for-array equal CSR freezes (labels and index included)."""
    return (
        a.n == b.n
        and a.nodes == b.nodes
        and a.index == b.index
        and all(
            np.array_equal(getattr(a, k), getattr(b, k))
            for k in ("indptr", "indices", "src")
        )
    )


def _networkx_regular(n: int, degree: int, seed: int) -> nx.Graph:
    """The networkx builder ``random_regular`` ports, relabeled as before."""
    return _relabel(nx.random_regular_graph(degree, n, seed=seed))


class TestRandomRegularPort:
    """``random_regular`` reproduces networkx's pairing graph exactly."""

    @pytest.mark.parametrize(
        "n", [*range(2, 18), 31, 32, 33, 64, 101, 256, 500, 1001]
    )
    def test_matches_networkx_builder(self, n):
        # every degree up to 11 (d = n - 1 included: complete graphs, the
        # retry-heavy end of the pairing loop) and six seeds
        for degree in range(min(n - 1, 11) + 1):
            if n * degree % 2:
                continue
            for seed in range(6):
                assert _same_graph(
                    random_regular(n, degree, seed),
                    _networkx_regular(n, degree, seed),
                ), (n, degree, seed)

    def test_matches_networkx_builder_at_sweep_size(self):
        assert _same_graph(random_regular(5000, 8, 1), _networkx_regular(5000, 8, 1))

    def test_does_not_call_networkx_builder(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("nx.random_regular_graph called")

        monkeypatch.setattr(nx, "random_regular_graph", refuse)
        assert random_regular(30, 4, seed=2).number_of_edges() == 60

    @pytest.mark.parametrize(
        "n", [*range(2, 18), 31, 32, 33, 64, 101, 256, 500, 1001]
    )
    def test_emitted_edges_freeze_like_the_graph(self, n):
        for degree in range(min(n - 1, 11) + 1):
            if n * degree % 2:
                continue
            for seed in range(6):
                assert _same_csr(
                    CSRGraph.from_edges(n, random_regular_edges(n, degree, seed)),
                    CSRGraph.from_networkx(random_regular(n, degree, seed)),
                ), (n, degree, seed)

    def test_emitted_edges_at_sweep_size(self):
        emitted = family_edges("random_regular", n=5000, degree=8, seed=1)
        assert emitted[0] == 5000
        assert _same_csr(
            CSRGraph.from_edges(*emitted),
            CSRGraph.from_networkx(_networkx_regular(5000, 8, 1)),
        )
        assert _same_graph(
            family_from_edges("random_regular", *emitted), random_regular(5000, 8, 1)
        )

    def test_emitter_validates_like_the_builder(self):
        for bad in [(5, 3, 0), (4, 4, 0), (6, -1, 0)]:
            with pytest.raises(ValueError):
                random_regular_edges(*bad)
        assert random_regular_edges(7, 0, 1).shape == (0, 2)

    def test_relabel_ranks_by_repr(self):
        # "10" sorts before "2", so label 10 gets rank 1 and label 2 rank 2
        g = nx.Graph([(2, 10), (10, 1)])
        assert dict(zip(g.nodes, _relabel(g).nodes)) == {2: 2, 10: 1, 1: 0}


#: ``(family, params)`` of every emitting family other than
#: ``random_regular`` (pinned by :class:`TestRandomRegularPort`), over the
#: sizes each emitter's order has to hold for: ``gnp`` from ``n = 10`` on
#: permutes its labels by ``repr`` rank, and ``p`` in ``{0, 1}`` takes the
#: generator's draw-free branches.
EMITTER_CASES = [
    *(("ring", {"n": n}) for n in range(3, 65)),
    *(("path", {"n": n}) for n in range(1, 65)),
    *(
        ("gnp", {"n": n, "p": p, "seed": seed})
        for n in range(1, 61)
        for p in (0.0, 0.15, 0.5, 1.0)
        for seed in range(6)
    ),
    *(("random_tree", {"n": n, "seed": seed}) for n in range(1, 65) for seed in range(6)),
    *(("hypercube", {"dim": dim}) for dim in range(1, 8)),
]


#: One ``(family, params)`` per emitting family.
EDGE_FREEZE_CASES = [
    ("ring", {"n": 12}),
    ("path", {"n": 7}),
    ("random_regular", {"n": 30, "degree": 3, "seed": 1}),
    ("gnp", {"n": 25, "p": 0.3, "seed": 2}),
    ("random_tree", {"n": 20, "seed": 3}),
    ("hypercube", {"dim": 4}),
]


class TestEdgeEmitters:
    """Each family's emitted edges freeze like its networkx graph, and its
    builder rebuilds that graph in node, edge and adjacency order."""

    @pytest.mark.parametrize("name", ["ring", "path", "gnp", "random_tree", "hypercube"])
    def test_matches_networkx_generator(self, name):
        cases = [params for family_name, params in EMITTER_CASES if family_name == name]
        assert cases
        for params in cases:
            graph = family(name, **params)
            n, edges = family_edges(name, **params)
            assert edges.dtype == np.int64 and edges.shape == (graph.number_of_edges(), 2)
            assert _same_csr(
                CSRGraph.from_edges(n, edges), CSRGraph.from_networkx(graph)
            ), (name, params)
            assert _same_graph(family_from_edges(name, n, edges), graph), (name, params)

    @pytest.mark.parametrize("name, params", EDGE_FREEZE_CASES)
    def test_edge_freeze_is_the_built_graphs_freeze(self, name, params):
        """The sweep memoizes ``from_edges`` of a family's emitted edges as
        the freeze of the graph :func:`family_from_edges` builds from them,
        so the two must agree array for array, for every emitting family."""
        n, edges = family_edges(name, **params)
        built = family_from_edges(name, n, edges)
        assert _same_csr(CSRGraph.from_edges(n, edges), CSRGraph.from_networkx(built))

    def test_edge_freeze_cases_cover_every_emitter(self):
        assert {name for name, _ in EDGE_FREEZE_CASES} == set(_EDGE_EMITTERS)

    def test_emitters_validate_like_the_generators(self):
        for name, params in [
            ("ring", {"n": 2}),
            ("path", {"n": 0}),
            ("gnp", {"n": 5, "p": 1.5, "seed": 0}),
            ("random_tree", {"n": 0, "seed": 0}),
            ("hypercube", {"dim": 0}),
        ]:
            with pytest.raises(ValueError) as built:
                family(name, **params)
            with pytest.raises(ValueError) as emitted:
                family_edges(name, **params)
            assert str(emitted.value) == str(built.value)

    def test_emitters_build_no_networkx_graph(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("networkx graph built")

        monkeypatch.setattr(nx.Graph, "__init__", refuse)
        for name, params in EMITTER_CASES:
            family_edges(name, **params)


class TestBalancedOrientation:
    def check_balanced(self, g):
        ori = balanced_orientation(g)
        assert ori.covers(g)
        for v in g.nodes:
            assert ori.out_degree(v) <= -(-g.degree(v) // 2), (
                f"node {v}: out {ori.out_degree(v)} > ceil({g.degree(v)}/2)"
            )

    def test_ring(self):
        self.check_balanced(ring(9))

    def test_clique_even(self):
        self.check_balanced(clique(6))

    def test_clique_odd(self):
        self.check_balanced(clique(7))

    def test_star(self):
        self.check_balanced(star(9))

    def test_disconnected(self):
        self.check_balanced(disjoint_cliques(3, 4))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 24), st.integers(0, 10_000))
    def test_random_graphs_balanced(self, n, seed):
        g = gnp(n, 0.4, seed=seed)
        self.check_balanced(g)


class TestOtherOrientations:
    def test_by_id_acyclic(self):
        g = clique(5)
        ori = orientation_by_id(g)
        dg = ori.as_digraph(g)
        assert nx.is_directed_acyclic_graph(dg)

    def test_bidirect(self):
        dg = bidirect(ring(4))
        assert dg.number_of_edges() == 8
        assert max_outdegree(dg) == 2

    def test_max_outdegree_clamp(self):
        dg = nx.DiGraph()
        dg.add_node(0)
        assert max_outdegree(dg) == 1

    def test_random_low_outdegree(self):
        g = gnp(25, 0.3, seed=4)
        dg = random_low_outdegree_digraph(g, seed=9)
        assert dg.to_undirected().number_of_edges() == g.number_of_edges()
        for v in dg.nodes:
            assert dg.out_degree(v) <= -(-g.degree(v) // 2)

    def test_random_low_outdegree_deterministic(self):
        g = gnp(20, 0.3, seed=4)
        a = sorted(random_low_outdegree_digraph(g, seed=9).edges)
        b = sorted(random_low_outdegree_digraph(g, seed=9).edges)
        assert a == b

    def test_edge_orientation_api(self):
        ori = EdgeOrientation()
        ori.orient(0, 1)
        assert ori.points_from(0, 1)
        assert not ori.points_from(1, 0)
        assert ori.is_oriented(1, 0)
        with pytest.raises(ValueError):
            ori.orient(1, 0)
        assert len(ori) == 1

    def test_as_digraph_requires_cover(self):
        g = path(3)
        ori = EdgeOrientation()
        ori.orient(0, 1)
        with pytest.raises(ValueError):
            ori.as_digraph(g)
