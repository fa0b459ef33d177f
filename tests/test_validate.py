"""Unit tests for all validators (each has pass and fail cases)."""

import networkx as nx
import pytest

from repro.core import ColorSpace
from repro.core.coloring import ColoringResult, EdgeOrientation
from repro.core.instance import ListDefectiveInstance, uniform_instance
from repro.core.validate import (
    validate_arbdefective,
    validate_arbdefective_plain,
    validate_defective_coloring,
    validate_defective_csr,
    validate_generalized_oldc,
    validate_ldc,
    validate_oldc,
    validate_proper_coloring,
)
from repro.graphs import gnp, path, ring
from repro.sim.engine import CSRGraph
from repro.sim.vectorized import linial_vectorized


def triangle_instance(defect=0, colors=3):
    g = nx.complete_graph(3)
    return uniform_instance(g, ColorSpace(colors), range(colors), defect)


class TestProper:
    def test_valid(self):
        g = path(3)
        rep = validate_proper_coloring(g, ColoringResult({0: 0, 1: 1, 2: 0}))
        assert rep.ok

    def test_monochromatic_edge(self):
        g = path(3)
        rep = validate_proper_coloring(g, ColoringResult({0: 0, 1: 0, 2: 1}))
        assert not rep.ok
        assert "monochromatic" in rep.violations[0]

    def test_uncolored_node(self):
        g = path(2)
        rep = validate_proper_coloring(g, ColoringResult({0: 0}))
        assert not rep.ok


class TestLDC:
    def test_defect_respected(self):
        inst = triangle_instance(defect=1, colors=2)
        rep = validate_ldc(inst, ColoringResult({0: 0, 1: 0, 2: 1}))
        assert rep.ok
        assert rep.max_defect_seen == 1

    def test_defect_exceeded(self):
        inst = triangle_instance(defect=0, colors=2)
        rep = validate_ldc(inst, ColoringResult({0: 0, 1: 0, 2: 1}))
        assert not rep.ok

    def test_color_outside_list(self):
        inst = triangle_instance(defect=2, colors=2)
        rep = validate_ldc(inst, ColoringResult({0: 5, 1: 0, 2: 1}))
        assert not rep.ok
        assert any("not in its list" in v for v in rep.violations)

    def test_raise_if_invalid(self):
        inst = triangle_instance(defect=0, colors=2)
        rep = validate_ldc(inst, ColoringResult({0: 0, 1: 0, 2: 1}))
        with pytest.raises(AssertionError):
            rep.raise_if_invalid()

    def test_bool_protocol(self):
        inst = triangle_instance(defect=1, colors=2)
        assert bool(validate_ldc(inst, ColoringResult({0: 0, 1: 0, 2: 1})))


class TestOLDC:
    def dg_path(self):
        dg = nx.DiGraph()
        dg.add_edge(0, 1)
        dg.add_edge(1, 2)
        return ListDefectiveInstance(
            dg,
            ColorSpace(2),
            {v: (0, 1) for v in dg.nodes},
            {v: {0: 0, 1: 0} for v in dg.nodes},
        )

    def test_requires_directed(self):
        inst = triangle_instance()
        with pytest.raises(ValueError):
            validate_oldc(inst, ColoringResult({0: 0, 1: 1, 2: 2}))

    def test_out_neighbors_only(self):
        inst = self.dg_path()
        # 1 -> 2 share a color: node 1 violates; 0 -> 1 differ
        rep = validate_oldc(inst, ColoringResult({0: 0, 1: 1, 2: 1}))
        assert not rep.ok
        # but 0 and 2 sharing is fine (no arc between them)
        rep2 = validate_oldc(inst, ColoringResult({0: 1, 1: 0, 2: 1}))
        assert rep2.ok

    def test_defect_budget_on_out_edges(self):
        dg = nx.DiGraph()
        dg.add_edge(0, 1)
        dg.add_edge(0, 2)
        inst = ListDefectiveInstance(
            dg,
            ColorSpace(2),
            {v: (0,) for v in dg.nodes},
            {0: {0: 1}, 1: {0: 0}, 2: {0: 0}},
        )
        rep = validate_oldc(inst, ColoringResult({0: 0, 1: 0, 2: 0}))
        assert not rep.ok  # node 0 has two same-colored out-neighbors > 1


class TestArbdefective:
    def test_orientation_required(self):
        inst = triangle_instance(defect=1, colors=2)
        rep = validate_arbdefective(inst, ColoringResult({0: 0, 1: 0, 2: 1}))
        assert not rep.ok
        assert "no edge orientation" in rep.violations[0]

    def test_unoriented_edge_detected(self):
        inst = triangle_instance(defect=1, colors=2)
        ori = EdgeOrientation()
        ori.orient(0, 1)
        rep = validate_arbdefective(inst, ColoringResult({0: 0, 1: 0, 2: 1}, ori))
        assert not rep.ok

    def test_valid_orientation_splits_defect(self):
        inst = triangle_instance(defect=1, colors=1)
        # all same color on a triangle: orient cyclically, each node has
        # exactly one same-colored out-neighbor
        ori = EdgeOrientation()
        ori.orient(0, 1)
        ori.orient(1, 2)
        ori.orient(2, 0)
        rep = validate_arbdefective(inst, ColoringResult({0: 0, 1: 0, 2: 0}, ori))
        assert rep.ok

    def test_bad_orientation_fails(self):
        inst = triangle_instance(defect=1, colors=1)
        ori = EdgeOrientation()
        ori.orient(0, 1)
        ori.orient(0, 2)
        ori.orient(1, 2)
        rep = validate_arbdefective(inst, ColoringResult({0: 0, 1: 0, 2: 0}, ori))
        assert not rep.ok  # node 0 has two same-colored out-neighbors

    def test_rejects_directed_instance(self):
        inst = triangle_instance().to_oriented()
        with pytest.raises(ValueError):
            validate_arbdefective(inst, ColoringResult({}))


class TestDefectivePlain:
    def test_valid(self):
        g = ring(4)
        res = ColoringResult({0: 0, 1: 0, 2: 1, 3: 1})
        assert validate_defective_coloring(g, res, defect=1).ok

    def test_exceeded(self):
        g = ring(4)
        res = ColoringResult({v: 0 for v in g.nodes})
        rep = validate_defective_coloring(g, res, defect=1)
        assert not rep.ok
        assert rep.max_defect_seen == 2


class TestDefectiveCSR:
    """The CSR validator agrees with the networkx ones it stands in for."""

    @staticmethod
    def oracle(g, result, defect):
        if defect == 0:
            return validate_proper_coloring(g, result)
        return validate_defective_coloring(g, result, defect)

    @pytest.mark.parametrize("defect", [0, 1, 2])
    def test_agrees_on_served_outputs(self, defect):
        for seed in range(4):
            g = gnp(30, 0.3, seed=seed)
            colors = {v: 64 * v for v in g.nodes}
            result, _metrics, _palette = linial_vectorized(
                g, initial_colors=colors, defect=defect
            )
            rep = validate_defective_csr(
                CSRGraph.from_networkx(g), result.assignment, defect
            )
            assert rep.ok and self.oracle(g, result, defect).ok
            assert rep.max_defect_seen <= defect

    @pytest.mark.parametrize("defect", [0, 1])
    def test_agrees_on_a_monochromatic_edge(self, defect):
        g = path(4)
        csr = CSRGraph.from_networkx(g)
        # node 1 has two same-colored neighbors: too many for either budget
        result = ColoringResult({0: 5, 1: 5, 2: 5, 3: 0})
        rep = validate_defective_csr(csr, result.assignment, defect)
        assert not rep.ok and not self.oracle(g, result, defect).ok
        assert rep.max_defect_seen == 2
        # one monochromatic edge fits a defect-1 budget only
        result = ColoringResult({0: 5, 1: 5, 2: 0, 3: 1})
        rep = validate_defective_csr(csr, result.assignment, defect)
        assert rep.ok == self.oracle(g, result, defect).ok == (defect == 1)

    def test_uncolored_node_is_invalid(self):
        csr = CSRGraph.from_networkx(path(3))
        rep = validate_defective_csr(csr, {0: 0, 2: 0}, 0)
        assert not rep.ok
        assert rep.violations == ["node 1 is uncolored"]

    def test_unreadable_coloring_is_invalid_not_raised(self):
        csr = CSRGraph.from_networkx(path(2))
        rep = validate_defective_csr(csr, {0: "red", 1: 2**80}, 0)
        assert not rep.ok

    def test_edgeless_and_empty_graphs(self):
        assert validate_defective_csr(CSRGraph.from_edges(3, []), {0: 0, 1: 0, 2: 0}, 0)
        assert validate_defective_csr(CSRGraph.from_edges(0, []), {}, 0)


class TestArbdefectivePlain:
    def test_valid_cycle_orientation(self):
        g = ring(3)
        ori = EdgeOrientation()
        ori.orient(0, 1)
        ori.orient(1, 2)
        ori.orient(2, 0)
        res = ColoringResult({0: 0, 1: 0, 2: 0}, ori)
        assert validate_arbdefective_plain(g, res, arbdefect=1).ok
        assert not validate_arbdefective_plain(g, res, arbdefect=0).ok


class TestGeneralizedOLDC:
    def make(self, g_param):
        dg = nx.DiGraph()
        dg.add_edge(0, 1)
        return (
            ListDefectiveInstance(
                dg,
                ColorSpace(10),
                {0: (0, 5), 1: (2, 7)},
                {0: {0: 0, 5: 0}, 1: {2: 0, 7: 0}},
            ),
            g_param,
        )

    def test_g_zero_matches_oldc(self):
        inst, _ = self.make(0)
        res = ColoringResult({0: 0, 1: 2})
        assert validate_generalized_oldc(inst, res, 0).ok

    def test_g_window_violation(self):
        inst, _ = self.make(2)
        res = ColoringResult({0: 0, 1: 2})  # |0 - 2| <= 2 counts
        assert not validate_generalized_oldc(inst, res, 2).ok

    def test_g_window_ok_when_far(self):
        inst, _ = self.make(2)
        res = ColoringResult({0: 5, 1: 2})
        assert validate_generalized_oldc(inst, res, 2).ok

    def test_negative_g_rejected(self):
        inst, _ = self.make(0)
        with pytest.raises(ValueError):
            validate_generalized_oldc(inst, ColoringResult({0: 0, 1: 2}), -1)
