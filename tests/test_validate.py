"""Unit tests for all validators (each has pass and fail cases)."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ColorSpace
from repro.core.coloring import ColoringResult, EdgeOrientation
from repro.core.instance import ListDefectiveInstance, uniform_instance
from repro.core.validate import (
    ValidationReport,
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


# ----------------------------------------------------------------------
# Parity: the single-pass validators against the per-edge spec
# ----------------------------------------------------------------------
# The spec is the plain per-edge / per-neighbor loop each validator used to
# be, kept here verbatim except for one rule both arbdefective specs gained
# with the single-pass rewrite: an edge {u, v}, u != v, oriented both ways
# is a violation.  Every report must equal the spec's field for field.


def spec_proper(graph, result):
    violations = [f"node {v} is uncolored" for v in graph.nodes if v not in result.assignment]
    for u, v in graph.edges:
        cu, cv = result.assignment.get(u), result.assignment.get(v)
        if cu is not None and cu == cv:
            violations.append(f"monochromatic edge {{{u},{v}}} color {cu}")
    return ValidationReport(not violations, violations)


def spec_membership(instance, result):
    out = []
    for v in instance.graph.nodes:
        if v not in result.assignment:
            out.append(f"node {v} is uncolored")
            continue
        x = result.assignment[v]
        if x not in instance.lists[v]:
            out.append(f"node {v}: color {x} not in its list")
    return out


def spec_ldc(instance, result):
    violations = spec_membership(instance, result)
    max_seen = 0
    max_allowed = 0
    g = instance.graph
    for v in g.nodes:
        if v not in result.assignment or result.assignment[v] not in instance.lists[v]:
            continue
        x = result.assignment[v]
        if instance.directed:
            neigh = set(g.predecessors(v)) | set(g.successors(v))
        else:
            neigh = set(g.neighbors(v))
        same = sum(1 for u in neigh if result.assignment.get(u) == x)
        allowed = instance.defects[v][x]
        max_seen = max(max_seen, same)
        max_allowed = max(max_allowed, allowed)
        if same > allowed:
            violations.append(
                f"node {v}: {same} same-colored neighbors > allowed defect {allowed}"
            )
    return ValidationReport(not violations, violations, max_seen, max_allowed)


def spec_oldc(instance, result):
    violations = spec_membership(instance, result)
    max_seen = 0
    max_allowed = 0
    for v in instance.graph.nodes:
        if v not in result.assignment or result.assignment[v] not in instance.lists[v]:
            continue
        x = result.assignment[v]
        same = sum(
            1 for u in instance.graph.successors(v) if result.assignment.get(u) == x
        )
        allowed = instance.defects[v][x]
        max_seen = max(max_seen, same)
        max_allowed = max(max_allowed, allowed)
        if same > allowed:
            violations.append(
                f"node {v}: {same} same-colored out-neighbors > allowed {allowed}"
            )
    return ValidationReport(not violations, violations, max_seen, max_allowed)


def spec_generalized_oldc(instance, result, g):
    violations = spec_membership(instance, result)
    max_seen = 0
    max_allowed = 0
    for v in instance.graph.nodes:
        if v not in result.assignment or result.assignment[v] not in instance.lists[v]:
            continue
        x = result.assignment[v]
        close = sum(
            1
            for u in instance.graph.successors(v)
            if u in result.assignment and abs(result.assignment[u] - x) <= g
        )
        allowed = instance.defects[v][x]
        max_seen = max(max_seen, close)
        max_allowed = max(max_allowed, allowed)
        if close > allowed:
            violations.append(
                f"node {v}: {close} g-close out-neighbors > allowed {allowed}"
            )
    return ValidationReport(not violations, violations, max_seen, max_allowed)


def spec_edge_orientation(graph, ori):
    violations = []
    for u, v in graph.edges:
        if not ori.is_oriented(u, v):
            violations.append(f"edge {{{u},{v}}} is unoriented")
        elif u != v and ori.points_from(u, v) and ori.points_from(v, u):
            violations.append(f"edge {{{u},{v}}} is oriented both ways")
    return violations


def spec_arbdefective(instance, result):
    if result.orientation is None:
        return ValidationReport(False, ["no edge orientation in result"])
    violations = spec_membership(instance, result)
    ori = result.orientation
    violations += spec_edge_orientation(instance.graph, ori)
    if violations:
        return ValidationReport(False, violations)
    max_seen = 0
    max_allowed = 0
    for v in instance.graph.nodes:
        x = result.assignment[v]
        out_same = sum(
            1
            for u in instance.graph.neighbors(v)
            if ori.points_from(v, u) and result.assignment.get(u) == x
        )
        allowed = instance.defects[v][x]
        max_seen = max(max_seen, out_same)
        max_allowed = max(max_allowed, allowed)
        if out_same > allowed:
            violations.append(
                f"node {v}: {out_same} same-colored out-neighbors > allowed {allowed}"
            )
    return ValidationReport(not violations, violations, max_seen, max_allowed)


def spec_arbdefective_plain(graph, result, arbdefect):
    if result.orientation is None:
        return ValidationReport(False, ["no edge orientation in result"])
    violations = [
        f"node {v} is uncolored" for v in graph.nodes if v not in result.assignment
    ]
    ori = result.orientation
    violations += spec_edge_orientation(graph, ori)
    if violations:
        return ValidationReport(False, violations)
    max_seen = 0
    for v in graph.nodes:
        x = result.assignment[v]
        out_same = sum(
            1
            for u in graph.neighbors(v)
            if ori.points_from(v, u) and result.assignment.get(u) == x
        )
        max_seen = max(max_seen, out_same)
        if out_same > arbdefect:
            violations.append(f"node {v}: arbdefect {out_same} > {arbdefect}")
    return ValidationReport(not violations, violations, max_seen, arbdefect)


def spec_defective(graph, result, defect):
    violations = [
        f"node {v} is uncolored" for v in graph.nodes if v not in result.assignment
    ]
    max_seen = 0
    for v in graph.nodes:
        if v not in result.assignment:
            continue
        x = result.assignment[v]
        same = sum(1 for u in graph.neighbors(v) if result.assignment.get(u) == x)
        max_seen = max(max_seen, same)
        if same > defect:
            violations.append(f"node {v}: defect {same} > {defect}")
    return ValidationReport(not violations, violations, max_seen, defect)


def _scrambled(graph, rng, labels=None):
    """``graph`` rebuilt in a shuffled insertion order, optionally relabeled."""
    nodes = list(graph.nodes)
    edges = list(graph.edges)
    rng.shuffle(nodes)
    rng.shuffle(edges)
    h = graph.__class__()
    relabel = labels or (lambda v: v)
    h.add_nodes_from(relabel(v) for v in nodes)
    h.add_edges_from((relabel(u), relabel(v)) for u, v in edges)
    return h


def _random_graphs(seed, directed=False):
    """Seeded random graphs: sparse and dense, scrambled insertion order,
    string labels, self-loops and isolated nodes."""
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 24)
    base = nx.gnp_random_graph(n, rng.choice([0.1, 0.3, 0.6]), seed=seed, directed=directed)
    out = [base, _scrambled(base, rng)]
    out.append(_scrambled(base, rng, labels=lambda v: f"v{v}"))
    looped = base.copy()
    looped.add_edges_from((v, v) for v in rng.sample(range(n), min(n, 3)))
    looped.add_node(n)  # isolated
    out.append(looped)
    return rng, out


def _corrupted_colorings(g, rng, palette):
    """A random coloring, then the same with nodes recolored, uncolored and
    colored outside ``palette``."""
    nodes = list(g.nodes)
    base = {v: rng.randrange(palette) for v in nodes}
    yield base
    recolored = dict(base)
    for v in rng.sample(nodes, min(len(nodes), 3)):
        recolored[v] = rng.randrange(palette)
    yield recolored
    if nodes:
        uncolored = dict(base)
        del uncolored[rng.choice(nodes)]
        yield uncolored
        outside = dict(base)
        outside[rng.choice(nodes)] = palette + 5
        yield outside


def _corrupted_orientations(g, rng, arcs=None):
    """A well-formed orientation (``arcs``, or a random acyclic one), then
    dropped, both-way, flipped and off-graph arcs."""
    order = list(g.nodes)
    rng.shuffle(order)
    if arcs is None:
        rank = {v: i for i, v in enumerate(order)}
        arcs = {(u, v) if rank[u] <= rank[v] else (v, u) for u, v in g.edges}
    yield arcs
    edges = sorted(arcs, key=repr)
    if edges:
        picked = rng.sample(edges, min(len(edges), 2))
        yield arcs - set(picked)
        yield arcs | {(b, a) for a, b in picked}
        yield (arcs - set(picked)) | {(b, a) for a, b in picked}
        # one edge both ways and one unoriented: still m arcs on edges
        yield (arcs | {(b, a) for a, b in picked[:1]}) - set(picked[1:])
    yield arcs | {("ghost", v) for v in order[:2]}


class TestSinglePassParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_proper_and_defective(self, seed):
        rng, gs = _random_graphs(seed)
        for g in gs:
            for assignment in _corrupted_colorings(g, rng, palette=3):
                res = ColoringResult(assignment)
                assert validate_proper_coloring(g, res) == spec_proper(g, res)
                for d in (0, 1, 2):
                    assert validate_defective_coloring(g, res, d) == spec_defective(g, res, d)

    @pytest.mark.parametrize("seed", range(6))
    def test_proper_and_defective_on_digraphs(self, seed):
        rng, gs = _random_graphs(seed, directed=True)
        for g in gs:
            for assignment in _corrupted_colorings(g, rng, palette=3):
                res = ColoringResult(assignment)
                assert validate_proper_coloring(g, res) == spec_proper(g, res)
                assert validate_defective_coloring(g, res, 1) == spec_defective(g, res, 1)

    @pytest.mark.parametrize("seed", range(12))
    def test_arbdefective(self, seed):
        rng, gs = _random_graphs(seed)
        for g in gs:
            inst = uniform_instance(g, ColorSpace(3), range(3), rng.randint(0, 2))
            colorings = list(_corrupted_colorings(g, rng, palette=3))
            for arcs in _corrupted_orientations(g, rng):
                for assignment in colorings:
                    res = ColoringResult(assignment, EdgeOrientation(set(arcs)))
                    assert validate_arbdefective(inst, res) == spec_arbdefective(inst, res)
                    for d in (0, 1, 2):
                        assert validate_arbdefective_plain(
                            g, res, d
                        ) == spec_arbdefective_plain(g, res, d)

    @pytest.mark.parametrize("seed", range(12))
    def test_ldc(self, seed):
        rng, gs = _random_graphs(seed)
        for g in gs:
            inst = _random_list_instance(g, rng)
            for assignment in _corrupted_colorings(g, rng, palette=4):
                res = ColoringResult(assignment)
                assert validate_ldc(inst, res) == spec_ldc(inst, res)

    @pytest.mark.parametrize("seed", range(12))
    def test_directed_ldc_oldc_and_generalized(self, seed):
        rng, gs = _random_graphs(seed, directed=True)
        for g in gs:
            inst = _random_list_instance(g, rng)
            for assignment in _corrupted_colorings(g, rng, palette=4):
                res = ColoringResult(assignment)
                assert validate_ldc(inst, res) == spec_ldc(inst, res)
                assert validate_oldc(inst, res) == spec_oldc(inst, res)
                for gap in (0, 1, 3):
                    assert validate_generalized_oldc(
                        inst, res, gap
                    ) == spec_generalized_oldc(inst, res, gap)

    @pytest.mark.parametrize("seed", range(4))
    def test_kernel_outputs(self, seed):
        from repro.algorithms.fk24 import fk24_lists
        from repro.sim.vectorized import fk24_vectorized

        g = gnp(60, 0.15, seed=seed)
        res = linial_vectorized(g)[0]
        assert validate_proper_coloring(g, res) == spec_proper(g, res)
        assert validate_proper_coloring(g, res).ok
        lists, space = fk24_lists(g, 1)
        fk = fk24_vectorized(g, lists=lists, space_size=space, defect=1)[0]
        assert validate_arbdefective_plain(g, fk, 1) == spec_arbdefective_plain(g, fk, 1)
        assert validate_arbdefective_plain(g, fk, 1).ok

    def test_bool_colors_compare_by_equality(self):
        # 1 == True: a monochromatic edge even though the types differ
        g = path(3)
        res = ColoringResult({0: 1, 1: True, 2: 0})
        assert validate_proper_coloring(g, res) == spec_proper(g, res)
        assert not validate_proper_coloring(g, res).ok


def _random_list_instance(g, rng):
    lists = {v: tuple(rng.sample(range(4), rng.randint(1, 4))) for v in g.nodes}
    defects = {v: {x: rng.randint(0, 2) for x in lst} for v, lst in lists.items()}
    return ListDefectiveInstance(g, ColorSpace(4), lists, defects)


@st.composite
def _loop_free_graphs(draw):
    """Loop-free graphs on gappy, unsorted integer labels; labels no drawn
    edge touches stay isolated."""
    labels = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=30, unique=True))
    node = st.sampled_from(labels)
    pairs = draw(st.lists(st.tuples(node, node), max_size=80))
    g = nx.Graph()
    g.add_nodes_from(labels)
    g.add_edges_from((u, v) for u, v in pairs if u != v)
    return g


class TestBothWays:
    """An edge oriented both ways is not a list arbdefective orientation."""

    def test_path_with_a_doubled_edge(self):
        from repro.core.validate import list_arbdefective_csr_ok

        g = path(3)
        ori = EdgeOrientation({(0, 1), (1, 0), (1, 2)})
        res = ColoringResult({0: 0, 1: 1, 2: 0}, ori)
        inst = uniform_instance(g, ColorSpace(2), range(2), 1)
        for rep in (validate_arbdefective_plain(g, res, 1), validate_arbdefective(inst, res)):
            assert not rep.ok
            assert rep.violations == ["edge {0,1} is oriented both ways"]
        lists = {v: (0, 1) for v in g.nodes}
        assert not list_arbdefective_csr_ok(CSRGraph.from_networkx(g), res, lists, 1)

    def test_oriented_self_loop_is_not_both_ways(self):
        g = path(2)
        g.add_edge(1, 1)
        res = ColoringResult({0: 0, 1: 1}, EdgeOrientation({(0, 1), (1, 1)}))
        assert validate_arbdefective_plain(g, res, 1).ok
        assert not validate_arbdefective_plain(g, res, 0).ok  # the loop is same-colored

    @pytest.mark.parametrize("seed", range(10))
    @settings(max_examples=25, deadline=None)
    @given(g=_loop_free_graphs())
    def test_validators_agree_with_the_sweep_check(self, seed, g):
        import random

        from repro.algorithms.fk24 import fk24_lists
        from repro.core.validate import list_arbdefective_csr_ok
        from repro.sim.vectorized import fk24_vectorized

        rng = random.Random(seed)
        defect = rng.randint(0, 2)
        csr = CSRGraph.from_networkx(g)
        lists, space = fk24_lists(g, defect, seed=seed)
        inst = ListDefectiveInstance(
            g,
            ColorSpace(space),
            dict(lists),
            {v: {x: defect for x in lst} for v, lst in lists.items()},
        )
        out = fk24_vectorized(g, lists=lists, space_size=space, defect=defect)[0]
        assignments = [out.assignment]
        recolored = dict(out.assignment)
        for v in rng.sample(list(g.nodes), min(3, g.number_of_nodes())):
            recolored[v] = rng.choice(lists[v])
        assignments.append(recolored)
        verdicts = set()
        for arcs in _corrupted_orientations(g, rng, out.orientation.arcs):
            for assignment in assignments:
                res = ColoringResult(assignment, EdgeOrientation(set(arcs)))
                sweep = list_arbdefective_csr_ok(csr, res, lists, defect)
                assert validate_arbdefective(inst, res).ok == sweep
                assert validate_arbdefective_plain(g, res, defect).ok == sweep
                verdicts.add(sweep)
        assert True in verdicts  # the kernel's own output passes

        # the defective check: a Linial run's own output, then recolored
        own = linial_vectorized(g, defect=defect)[0].assignment
        recolored = dict(own)
        for v in rng.sample(list(g.nodes), min(3, g.number_of_nodes())):
            recolored[v] = own[rng.choice(list(g.nodes))]
        for assignment in (own, recolored):
            got = validate_defective_csr(csr, assignment, defect)
            want = validate_defective_coloring(g, ColoringResult(assignment), defect)
            assert (got.ok, got.max_defect_seen) == (want.ok, want.max_defect_seen)
            assert sorted(got.violations) == sorted(want.violations)
        assert validate_defective_csr(csr, own, defect).ok


class TestIndependentOfEngines:
    """The networkx validators never reach into repro.sim."""

    def test_pass_and_fail_with_engine_helpers_broken(self, monkeypatch):
        import repro.sim.engine as engine

        def broken(*_a, **_k):
            raise AssertionError("networkx validator called into repro.sim")

        g = ring(5)
        colors = ColoringResult({0: 0, 1: 1, 2: 0, 3: 1, 4: 2})
        clash = ColoringResult({0: 0, 1: 0, 2: 1, 3: 0, 4: 1})
        ori = EdgeOrientation({(v, (v + 1) % 5) for v in range(5)})
        inst = uniform_instance(g, ColorSpace(3), range(3), 0)
        monkeypatch.setattr(engine.CSRGraph, "from_networkx", broken)
        monkeypatch.setattr(engine, "equal_neighbor_counts", broken)
        assert validate_proper_coloring(g, colors).ok
        assert not validate_proper_coloring(g, clash).ok
        assert validate_defective_coloring(g, clash, 1).ok
        assert not validate_defective_coloring(g, clash, 0).ok
        assert validate_ldc(inst, colors).ok
        assert not validate_ldc(inst, clash).ok
        oriented_clash = ColoringResult(clash.assignment, ori)
        assert validate_arbdefective(
            uniform_instance(g, ColorSpace(3), range(3), 1), oriented_clash
        ).ok
        assert not validate_arbdefective(inst, oriented_clash).ok
        assert not validate_arbdefective_plain(
            g, ColoringResult(colors.assignment, EdgeOrientation({(0, 1)})), 0
        ).ok
        oinst = inst.to_oriented()
        assert validate_oldc(oinst, colors).ok
        assert not validate_oldc(oinst, clash).ok
        assert validate_generalized_oldc(oinst, colors, 0).ok
        assert not validate_generalized_oldc(oinst, colors, 2).ok
