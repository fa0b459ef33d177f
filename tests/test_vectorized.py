"""Equivalence tests: vectorized Linial engine vs the reference simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.bounds import log_star
from repro.core.validate import validate_defective_coloring, validate_proper_coloring
from repro.graphs import clique, gnp, hypercube, random_regular, ring, star, torus
from repro.algorithms.linial import run_linial
from repro.sim.vectorized import linial_vectorized


class TestEquivalence:
    @pytest.mark.parametrize(
        "g",
        [
            ring(80),
            clique(9),
            star(15),
            hypercube(4),
            torus(6, 6),
            gnp(60, 0.2, seed=7),
            random_regular(80, 6, seed=8),
        ],
        ids=["ring", "clique", "star", "hypercube", "torus", "gnp", "regular"],
    )
    def test_identical_output_and_metrics(self, g):
        ref, m_ref, p_ref = run_linial(g)
        vec, m_vec, p_vec = linial_vectorized(g)
        assert ref.assignment == vec.assignment
        assert m_ref.summary() == m_vec.summary()
        assert p_ref == p_vec

    def test_identical_with_custom_initial_coloring(self):
        g = ring(60)
        init = {v: (v % 3) * 211 + v for v in g.nodes}
        ref, _mr, _pr = run_linial(g, initial_colors=init)
        vec, _mv, _pv = linial_vectorized(g, initial_colors=init)
        assert ref.assignment == vec.assignment

    @pytest.mark.parametrize("defect", [1, 3, 5])
    def test_identical_defective(self, defect):
        g = random_regular(400, 8, seed=9)
        ref, m_ref, p_ref = run_linial(g, defect=defect)
        vec, m_vec, p_vec = linial_vectorized(g, defect=defect)
        assert ref.assignment == vec.assignment
        assert m_ref.summary() == m_vec.summary()
        assert validate_defective_coloring(g, vec, defect).ok

    @settings(max_examples=12, deadline=None)
    @given(st.integers(6, 40), st.integers(0, 10_000))
    def test_identical_random_graphs(self, n, seed):
        g = gnp(n, 0.3, seed=seed)
        ref, m_ref, _pr = run_linial(g)
        vec, m_vec, _pv = linial_vectorized(g)
        assert ref.assignment == vec.assignment
        assert m_ref.summary() == m_vec.summary()


class TestScale:
    def test_large_ring_logstar_rounds(self):
        g = ring(60_000)
        res, metrics, palette = linial_vectorized(g)
        assert metrics.rounds <= log_star(60_000) + 1
        assert palette <= 25

    def test_large_ring_proper_sampled(self):
        g = ring(20_000)
        res, _m, _p = linial_vectorized(g)
        validate_proper_coloring(g, res).raise_if_invalid()

    def test_empty_and_trivial_graphs(self):
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(3))
        res, metrics, _p = linial_vectorized(g)
        assert set(res.assignment) == {0, 1, 2}


class TestDirectedRejected:
    def test_linial_vectorized_rejects_digraph(self):
        import networkx as nx

        dg = nx.DiGraph()
        dg.add_edges_from([(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="undirected"):
            linial_vectorized(dg)


class TestGreedyVectorized:
    @pytest.mark.parametrize(
        "g",
        [ring(50), clique(8), star(11), gnp(40, 0.25, seed=2),
         random_regular(60, 6, seed=3)],
        ids=["ring", "clique", "star", "gnp", "regular"],
    )
    def test_identical_to_reference_greedy(self, g):
        import random

        from repro.algorithms.greedy import greedy_list_coloring
        from repro.core.instance import degree_plus_one_instance
        from repro.sim.vectorized import greedy_list_vectorized

        inst = degree_plus_one_instance(g, rng=random.Random(7))
        ref = greedy_list_coloring(inst)
        vec = greedy_list_vectorized(inst)
        assert ref.assignment == vec.assignment

    def test_custom_order_matches_reference(self):
        import random

        from repro.algorithms.greedy import (
            greedy_list_coloring,
            sequential_color_order_by_degree,
        )
        from repro.core.instance import degree_plus_one_instance
        from repro.sim.vectorized import greedy_list_vectorized

        g = gnp(45, 0.2, seed=9)
        inst = degree_plus_one_instance(g, rng=random.Random(1))
        order = sequential_color_order_by_degree(g)
        ref = greedy_list_coloring(inst, order=order)
        vec = greedy_list_vectorized(inst, order=order)
        assert ref.assignment == vec.assignment

    def test_default_order_is_sorted_labels_on_shuffled_graph(self):
        # Regression for the dense-position default: on a graph whose node
        # labels are non-contiguous and inserted unsorted, the vectorized
        # default processing order must still be sorted *labels* (the
        # reference default), not raw CSR row positions.
        import random

        import networkx as nx

        from repro.algorithms.greedy import greedy_list_coloring
        from repro.core.instance import degree_plus_one_instance
        from repro.sim.vectorized import greedy_list_vectorized

        rng = random.Random(13)
        base = gnp(30, 0.25, seed=13)
        labels = rng.sample(range(500), base.number_of_nodes())
        g = nx.relabel_nodes(base, dict(zip(sorted(base.nodes), labels)))
        shuffled = nx.Graph()
        order = list(g.nodes)
        rng.shuffle(order)
        shuffled.add_nodes_from(order)
        shuffled.add_edges_from(g.edges)

        inst = degree_plus_one_instance(shuffled, rng=random.Random(4))
        ref = greedy_list_coloring(inst)
        vec = greedy_list_vectorized(inst)
        assert ref.assignment == vec.assignment
        # and the default really is the sorted-label schedule
        explicit = greedy_list_vectorized(inst, order=sorted(shuffled.nodes))
        assert vec.assignment == explicit.assignment

    def test_rejects_nonzero_defects(self):
        from repro.core.colorspace import ColorSpace
        from repro.core.instance import uniform_instance
        from repro.sim.vectorized import greedy_list_vectorized

        g = ring(10)
        inst = uniform_instance(g, ColorSpace(3), [0, 1, 2], defect=1)
        with pytest.raises(ValueError, match="zero-defect"):
            greedy_list_vectorized(inst)

    def test_large_instance_proper(self):
        from repro.core.instance import delta_plus_one_instance
        from repro.sim.vectorized import greedy_list_vectorized

        g = random_regular(20_000, 6, seed=12)
        res = greedy_list_vectorized(delta_plus_one_instance(g))
        validate_proper_coloring(g, res).raise_if_invalid()


class TestDefectiveSplitVectorized:
    @pytest.mark.parametrize("defect", [1, 2, 4])
    def test_identical_to_reference_partition(self, defect):
        from repro.algorithms.defective import defective_class_partition
        from repro.sim.vectorized import defective_split_vectorized

        g = random_regular(120, 8, seed=6)
        ref_classes, ref_m, ref_p = defective_class_partition(g, defect)
        vec_classes, vec_m, vec_p = defective_split_vectorized(g, defect)
        assert ref_classes == vec_classes
        assert ref_m.summary() == vec_m.summary()
        assert ref_p == vec_p

    def test_classes_have_bounded_internal_degree_at_scale(self):
        from repro.sim.vectorized import defective_split_vectorized

        g = random_regular(20_000, 10, seed=2)
        classes, _m, _p = defective_split_vectorized(g, defect=3)
        # vectorized validation already ran; spot-check a node by hand
        v = next(iter(classes))
        same = sum(1 for u in g.neighbors(v) if classes[u] == classes[v])
        assert same <= 3

    def test_negative_defect_rejected(self):
        from repro.sim.vectorized import defective_split_vectorized

        with pytest.raises(ValueError):
            defective_split_vectorized(ring(10), defect=-1)

    def test_builds_csr_exactly_once(self, monkeypatch):
        # Regression: the split used to rebuild a second CSRGraph just to
        # validate, so the validation could silently diverge from the graph
        # the run actually used.  One build, threaded everywhere.
        from repro.sim import vectorized as vec_mod
        from repro.sim.batch import BatchCSRGraph
        from repro.sim.engine import CSRGraph

        real = CSRGraph.from_networkx
        real_batch = BatchCSRGraph.from_graphs.__func__
        calls = []

        def counting(graph):
            calls.append(graph)
            return real(graph)

        def counting_batch(cls, graphs):
            # a one-pass batch freeze builds its members without from_networkx
            if not any(isinstance(g, CSRGraph) for g in graphs):
                calls.extend(graphs)
            return real_batch(cls, graphs)

        monkeypatch.setattr(CSRGraph, "from_networkx", staticmethod(counting))
        monkeypatch.setattr(BatchCSRGraph, "from_graphs", classmethod(counting_batch))
        g = random_regular(60, 6, seed=5)
        classes, metrics, palette = vec_mod.defective_split_vectorized(g, defect=2)
        assert len(calls) == 1
        assert set(classes) == set(g.nodes)

    def test_finalize_counts_match_run_csr(self):
        from repro.obs import RunRecorder
        from repro.sim.vectorized import defective_split_vectorized

        g = gnp(50, 0.15, seed=8)
        rec = RunRecorder(engine="vectorized")
        defective_split_vectorized(g, defect=1, recorder=rec)
        assert rec.record is not None
        assert rec.record.n == g.number_of_nodes()
        assert rec.record.m == g.number_of_edges()


class TestClassicPipelineVectorized:
    @pytest.mark.parametrize(
        "g",
        [ring(60), gnp(50, 0.2, seed=3), random_regular(80, 8, seed=4), star(12)],
        ids=["ring", "gnp", "regular", "star"],
    )
    def test_identical_to_reference(self, g):
        from repro.algorithms.reduction import classic_delta_plus_one
        from repro.sim.vectorized import classic_delta_plus_one_vectorized

        ref, m_ref = classic_delta_plus_one(g)
        vec, m_vec = classic_delta_plus_one_vectorized(g)
        assert ref.assignment == vec.assignment
        assert m_ref.summary() == m_vec.summary()

    def test_large_scale_delta_plus_one(self):
        from repro.sim.vectorized import classic_delta_plus_one_vectorized

        g = random_regular(30_000, 6, seed=5)
        res, metrics = classic_delta_plus_one_vectorized(g)
        assert res.num_colors() <= 7
        # spot-check properness on a sample of edges
        import itertools

        for u, v in itertools.islice(iter(g.edges), 5000):
            assert res.assignment[u] != res.assignment[v]

    @settings(max_examples=10, deadline=None)
    @given(st.integers(6, 30), st.integers(0, 10_000))
    def test_random_graphs_identical(self, n, seed):
        from repro.algorithms.reduction import classic_delta_plus_one
        from repro.sim.vectorized import classic_delta_plus_one_vectorized

        g = gnp(n, 0.3, seed=seed)
        if max((d for _, d in g.degree), default=0) == 0:
            return
        ref, m_ref = classic_delta_plus_one(g)
        vec, m_vec = classic_delta_plus_one_vectorized(g)
        assert ref.assignment == vec.assignment
        assert m_ref.summary() == m_vec.summary()


class TestScheduleReductionErrors:
    """Inputs the reference reduction refuses raise the same ValueError
    here, instead of returning an improper coloring."""

    def test_palette_exhausted_like_the_reference(self):
        from repro.algorithms.reduction import ScheduledListColoring
        from repro.sim.network import SyncNetwork
        from repro.sim.vectorized import schedule_reduction_vectorized

        g = ring(6)
        with pytest.raises(ValueError, match="palette exhausted") as ref:
            SyncNetwork(g).run(
                ScheduledListColoring(),
                {v: {"schedule_color": v, "palette": [0]} for v in g},
                shared={"num_classes": 6, "space_size": 1},
                max_rounds=8,
            )
        with pytest.raises(ValueError) as vec:
            schedule_reduction_vectorized(g, {v: v for v in g}, 1)
        assert str(vec.value) == str(ref.value)

    def test_improper_schedule_coloring_like_the_reference(self):
        from repro.algorithms.reduction import reduce_to_list_coloring
        from repro.core.instance import delta_plus_one_instance
        from repro.sim.vectorized import schedule_reduction_vectorized

        g = ring(6)
        with pytest.raises(ValueError, match="not proper") as ref:
            reduce_to_list_coloring(delta_plus_one_instance(g), {v: 0 for v in g})
        with pytest.raises(ValueError) as vec:
            schedule_reduction_vectorized(g, {v: 0 for v in g}, 3)
        assert str(vec.value) == str(ref.value)

    def test_negative_schedule_color_rejected(self):
        from repro.sim.vectorized import schedule_reduction_vectorized

        with pytest.raises(ValueError, match=">= 0"):
            schedule_reduction_vectorized(ring(6), {v: v - 1 for v in range(6)}, 3)
