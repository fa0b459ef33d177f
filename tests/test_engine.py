"""Tests for the CSR execution layer (repro.sim.engine)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import gnp, ring, star
from repro.sim.engine import (
    CSRGraph,
    as_csr,
    collision_counts,
    equal_neighbor_counts,
    poly_digits,
    poly_eval_grid,
    ragged_lists,
    synthesized_metrics,
)
from repro.sim.metrics import congest_bandwidth


class TestCSRConstruction:
    def test_matches_networkx_adjacency(self):
        g = gnp(40, 0.2, seed=11)
        csr = CSRGraph.from_networkx(g)
        assert csr.n == 40
        assert csr.num_directed_edges == 2 * g.number_of_edges()
        for i, v in enumerate(csr.nodes):
            neigh = sorted(csr.nodes[j] for j in csr.neighbors_of(i))
            assert neigh == sorted(g.neighbors(v))

    def test_non_contiguous_labels(self):
        g = nx.Graph()
        g.add_edges_from([(10, 3), (3, 7), (7, 10)])
        csr = CSRGraph.from_networkx(g)
        assert csr.nodes == (3, 7, 10)
        assert csr.index == {3: 0, 7: 1, 10: 2}
        assert sorted(csr.degrees.tolist()) == [2, 2, 2]

    def test_src_expansion_consistent_with_indptr(self):
        csr = CSRGraph.from_networkx(star(6))
        for k in range(csr.num_directed_edges):
            i = csr.src[k]
            assert csr.indptr[i] <= k < csr.indptr[i + 1]

    def test_edgeless_and_empty(self):
        g = nx.Graph()
        g.add_nodes_from(range(4))
        csr = CSRGraph.from_networkx(g)
        assert csr.num_directed_edges == 0
        assert csr.degrees.tolist() == [0, 0, 0, 0]
        empty = CSRGraph.from_networkx(nx.Graph())
        assert empty.n == 0

    def test_directed_graph_rejected(self):
        dg = nx.DiGraph()
        dg.add_edge(0, 1)
        with pytest.raises(ValueError, match="undirected"):
            CSRGraph.from_networkx(dg)

    def test_multigraph_rejected(self):
        from repro.sim.batch import BatchCSRGraph

        mg = nx.MultiGraph()
        mg.add_edges_from([(0, 1), (0, 1)])
        with pytest.raises(ValueError, match="multigraph"):
            CSRGraph.from_networkx(mg)
        with pytest.raises(ValueError, match="multigraph"):
            BatchCSRGraph.from_graphs([ring(4), mg])

    def test_self_loop_rejected(self):
        from repro.sim.batch import BatchCSRGraph

        g = ring(4)
        g.add_edge(2, 2)
        with pytest.raises(ValueError, match="self-loop at node 2"):
            CSRGraph.from_networkx(g)
        with pytest.raises(ValueError, match="self-loop at node 2"):
            BatchCSRGraph.from_graphs([ring(3), g])
        with pytest.raises(ValueError, match="self-loop at node 1"):
            CSRGraph.from_edges(3, np.array([[0, 1], [1, 1]]))

    def test_from_edges_matches_dense_graph(self):
        g = gnp(40, 0.2, seed=11)
        edges = np.array(list(g.edges), dtype=np.int64)
        a, b = CSRGraph.from_edges(40, edges), CSRGraph.from_networkx(g)
        assert a.nodes == b.nodes == tuple(range(40)) and a.index == b.index
        for k in ("indptr", "indices", "src"):
            assert np.array_equal(getattr(a, k), getattr(b, k))

    def test_from_edges_isolated_nodes_and_range_check(self):
        csr = CSRGraph.from_edges(5, np.array([[0, 3]]))
        assert csr.degrees.tolist() == [1, 0, 0, 1, 0]
        assert CSRGraph.from_edges(3, np.empty((0, 2), dtype=np.int64)).n == 3
        with pytest.raises(ValueError, match="0..2"):
            CSRGraph.from_edges(3, np.array([[0, 3]]))

    def test_as_csr_passes_a_frozen_graph_through(self):
        csr = CSRGraph.from_networkx(ring(6))
        assert as_csr(csr) is csr
        assert as_csr(ring(6)).nodes == csr.nodes

    def test_gather_scatter_roundtrip(self):
        g = ring(12)
        csr = CSRGraph.from_networkx(g)
        values = {v: (v * 7) % 5 for v in g.nodes}
        dense = csr.gather(values)
        assert csr.scatter(dense) == values


class TestKernels:
    def test_equal_neighbor_counts_brute_force(self):
        g = gnp(30, 0.3, seed=5)
        csr = CSRGraph.from_networkx(g)
        colors = np.array([v % 3 for v in csr.nodes], dtype=np.int64)
        counts = equal_neighbor_counts(csr, colors)
        for i, v in enumerate(csr.nodes):
            expect = sum(1 for u in g.neighbors(v) if u % 3 == v % 3)
            assert counts[i] == expect
        assert counts.dtype == np.int64

    def test_collision_counts_matches_per_point_scan(self):
        g = gnp(25, 0.3, seed=6)
        csr = CSRGraph.from_networkx(g)
        q = 5
        evals = np.array(
            [[(3 * x + v) % q for v in range(csr.n)] for x in range(q)],
            dtype=np.int64,
        )
        hits = collision_counts(csr, evals)
        assert hits.dtype == np.int64
        for x in range(q):
            assert np.array_equal(hits[x], equal_neighbor_counts(csr, evals[x]))

    def test_collision_counts_integer_on_2pow20_directed_edges(self):
        # Regression for the silent float64 accumulation: a ring with 2^19
        # undirected edges has exactly 2^20 directed edge slots; the counts
        # must come out of integer bincounts and equal the float-weighted
        # formulation exactly.
        g = ring(2**19)
        csr = CSRGraph.from_networkx(g)
        assert csr.num_directed_edges == 2**20
        colors = np.arange(csr.n, dtype=np.int64)
        digits = poly_digits(colors, q=23, degree=4)
        evals = poly_eval_grid(digits, q=23)
        hits = collision_counts(csr, evals)
        assert hits.dtype == np.int64
        matches = evals[:, csr.src] == evals[:, csr.indices]
        for x in (0, 11, 22):
            via_weights = np.bincount(
                csr.src, weights=matches[x], minlength=csr.n
            )
            assert np.array_equal(hits[x], via_weights.astype(np.int64))

    def test_poly_grid_matches_reference_machinery(self):
        from repro.algorithms.linial import poly_coeffs, poly_eval

        q, deg = 7, 2
        colors = np.arange(q ** (deg + 1), dtype=np.int64)
        digits = poly_digits(colors, q, deg)
        evals = poly_eval_grid(digits, q)
        for c in (0, 5, 48, 100, 342):
            coeffs = poly_coeffs(int(c), q, deg)
            assert tuple(digits[c]) == coeffs
            for x in range(q):
                assert evals[x, c] == poly_eval(coeffs, x, q)

    @pytest.mark.parametrize("q, deg", [(2, 0), (3, 1), (17, 4), (257, 2)])
    def test_poly_grid_matches_reference_at_other_degrees(self, q, deg):
        from repro.algorithms.linial import poly_coeffs, poly_eval

        colors = np.random.default_rng(q).integers(0, q ** (deg + 1), size=40)
        digits = poly_digits(colors, q, deg)
        evals = poly_eval_grid(digits, q)
        for i, c in enumerate(colors.tolist()):
            coeffs = poly_coeffs(c, q, deg)
            assert tuple(digits[i]) == coeffs
            assert evals[:, i].tolist() == [poly_eval(coeffs, x, q) for x in range(q)]


class TestHelpers:
    def test_synthesized_metrics_budget(self):
        m = synthesized_metrics(1000)
        assert m.bandwidth_limit == congest_bandwidth(1000)
        assert m.rounds == 0

    def test_ragged_lists(self):
        g = nx.Graph()
        g.add_nodes_from([2, 5, 9])
        csr = CSRGraph.from_networkx(g)
        indptr, values = ragged_lists(
            csr, {2: [4, 1], 5: [], 9: [7, 7, 0]}
        )
        assert indptr.tolist() == [0, 2, 2, 5]
        assert values.tolist() == [4, 1, 7, 7, 0]


# ----------------------------------------------------------------------
# property-based round trips on adversarial label sets
# ----------------------------------------------------------------------
def _graph_from(labels, edge_picks):
    """Graph whose nodes are ``labels`` verbatim (unsorted, gappy)."""
    g = nx.Graph()
    g.add_nodes_from(labels)
    n = len(labels)
    for a, b in edge_picks:
        u, v = labels[a % n], labels[b % n]
        if u != v:
            g.add_edge(u, v)
    return g


_labels = st.lists(
    st.integers(min_value=0, max_value=10_000), min_size=1, max_size=30,
    unique=True,
).map(list)
_edge_picks = st.lists(
    st.tuples(st.integers(0, 100), st.integers(0, 100)), max_size=60
)


class TestRoundTripProperties:
    """gather/scatter and ragged_lists must be exact inverses for *any*
    label set — non-contiguous, unsorted, and gappy included."""

    @given(labels=_labels, edge_picks=_edge_picks)
    @settings(max_examples=60, deadline=None)
    def test_gather_scatter_round_trip(self, labels, edge_picks):
        csr = CSRGraph.from_networkx(_graph_from(labels, edge_picks))
        mapping = {v: (v * 7 + 3) % 101 for v in labels}
        dense = csr.gather(mapping)
        assert csr.scatter(dense) == mapping

    @given(labels=_labels, edge_picks=_edge_picks)
    @settings(max_examples=60, deadline=None)
    def test_scatter_gather_round_trip(self, labels, edge_picks):
        csr = CSRGraph.from_networkx(_graph_from(labels, edge_picks))
        dense = np.arange(csr.n, dtype=np.int64) * 13 % 29
        assert np.array_equal(csr.gather(csr.scatter(dense)), dense)

    @given(labels=_labels, edge_picks=_edge_picks, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_ragged_lists_round_trip(self, labels, edge_picks, data):
        csr = CSRGraph.from_networkx(_graph_from(labels, edge_picks))
        lists = {
            v: data.draw(
                st.lists(st.integers(0, 50), max_size=6), label=f"list[{v}]"
            )
            for v in labels
        }
        indptr, values = ragged_lists(csr, lists)
        assert indptr[0] == 0 and indptr[-1] == len(values)
        assert np.all(np.diff(indptr) >= 0)
        for i, v in enumerate(csr.nodes):
            segment = values[indptr[i] : indptr[i + 1]].tolist()
            assert segment == list(lists[v])  # preference order preserved


# ----------------------------------------------------------------------
# the adjacency freeze and the half-edge collision count
# ----------------------------------------------------------------------
def _edge_list_freeze(graph):
    """The freeze as one dense row per ``graph.edges`` entry: the arrays
    :meth:`CSRGraph.from_networkx` must reproduce."""
    nodes = tuple(sorted(graph.nodes))
    index = {v: i for i, v in enumerate(nodes)}
    rows = [(index[u], index[v]) for u, v in graph.edges]
    csr = CSRGraph.from_edges(len(nodes), np.array(rows, dtype=np.int64))
    return nodes, index, csr


def _same_csr(got, nodes, index, want):
    assert (got.n, got.nodes, got.index) == (want.n, nodes, index)
    for name in ("indptr", "indices", "src"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@st.composite
def _scrambled_graphs(draw):
    """Gappy, unsorted labels inserted in scrambled order: edges first
    (self-loops dropped: the CSR boundary rejects them), then every label
    again, so isolated nodes come last in an order of their own."""
    labels = draw(_labels)
    node = st.sampled_from(labels)
    g = nx.Graph()
    pairs = draw(st.lists(st.tuples(node, node), max_size=60))
    g.add_edges_from((u, v) for u, v in pairs if u != v)
    g.add_nodes_from(draw(st.permutations(labels)))
    return g


class TestAdjacencyFreeze:
    @given(g=_scrambled_graphs())
    @settings(max_examples=80, deadline=None)
    def test_from_networkx_equals_edge_list_freeze(self, g):
        _same_csr(CSRGraph.from_networkx(g), *_edge_list_freeze(g))

    @given(gs=st.lists(_scrambled_graphs(), max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_from_graphs_equals_per_graph_freezes(self, gs):
        from repro.sim.batch import BatchCSRGraph

        got = BatchCSRGraph.from_graphs(gs)
        frozen = [_edge_list_freeze(g) for g in gs]
        for member, want in zip(got.members, frozen, strict=True):
            _same_csr(member, *want)
        packed = BatchCSRGraph.from_csrs([csr for _, _, csr in frozen])
        for name in (
            "node_offsets", "edge_offsets", "indptr", "indices", "src", "instance_id"
        ):
            assert np.array_equal(getattr(got, name), getattr(packed, name)), name


def _per_point_counts(csr, evals):
    return np.stack([equal_neighbor_counts(csr, row) for row in evals])


class TestHalfEdgeCollisions:
    @given(g=_scrambled_graphs(), q=st.sampled_from([2, 3, 7, 256, 257, 300]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_point_scan(self, g, q, seed):
        csr = CSRGraph.from_networkx(g)
        evals = np.random.default_rng(seed).integers(0, q, size=(q, csr.n))
        hits = collision_counts(csr, evals)
        assert hits.dtype == np.int64
        assert np.array_equal(hits, _per_point_counts(csr, evals))

    @given(g=_scrambled_graphs(), shards=st.integers(1, 4),
           strategy=st.sampled_from(["contiguous", "hash"]),
           q=st.sampled_from([3, 11, 300]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_shard_owned_columns_exact(self, g, shards, strategy, q, seed):
        from repro.sim.partition import _ShardCSR, partition_arrays

        csr = CSRGraph.from_networkx(g)
        evals = np.random.default_rng(seed).integers(0, q, size=(q, csr.n))
        want = _per_point_counts(csr, evals)
        part = partition_arrays(
            csr.n, csr.indptr, csr.indices, shards, strategy=strategy, seed=seed
        )
        for plan in part.plans:
            local = _ShardCSR(plan.n_local, plan.indptr, plan.indices)
            ids = np.concatenate([plan.owned, plan.ghosts])
            hits = collision_counts(local, evals[:, ids])
            assert np.array_equal(hits[:, : plan.n_owned], want[:, plan.owned])
