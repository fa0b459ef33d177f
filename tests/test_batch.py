"""Batched multi-instance execution (:mod:`repro.sim.batch`).

The batched path's entire value rests on one claim: packing k instances
into a :class:`~repro.sim.batch.BatchCSRGraph` changes *nothing* about
any instance's result — outputs, palettes, metrics, per-round
accounting, fault behavior, even the exact exception a failing instance
raises.  This suite attacks the claim from three directions:

* structural properties of the container itself (hypothesis: pack/unpack
  round-trips on gappy unsorted labels, gather/scatter never crossing an
  instance boundary, degenerate batches);
* the fuzz corpus replayed through the batched path in groups of
  1/4/16, node-for-node against the per-case results;
* fault batteries — every fault class plus crash-stop halting, batched
  runs compared to per-instance runs down to the per-round fault
  columns of :func:`repro.obs.compare_round_accounting`.
"""

import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import graphs
from repro.faults import FaultPlan
from repro.fuzz import load_corpus, run_case, run_cases_batched
from repro.obs import ENGINE_VECTORIZED, RunRecorder, compare_round_accounting
from repro.sim.batch import BatchCSRGraph, linial_vectorized_batch
from repro.sim.engine import CSRGraph
from repro.sim.vectorized import linial_vectorized

CORPUS = "tests/corpus"


# ----------------------------------------------------------------------
# hypothesis: the container itself
# ----------------------------------------------------------------------
def _fresh_freeze(g: nx.Graph) -> CSRGraph:
    """``CSRGraph.from_networkx(g)`` computed anew, not read from the memo
    a batch freeze leaves in ``g``'s networkx cache."""
    g.__networkx_cache__.clear()
    return CSRGraph.from_networkx(g)


_BATCH_ARRAYS = (
    "node_offsets", "edge_offsets", "indptr", "indices", "src", "instance_id"
)


@st.composite
def labeled_graphs(draw):
    """A small graph with gappy, unsorted integer labels."""
    n = draw(st.integers(0, 12))
    labels = draw(
        st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True)
    )
    g = nx.Graph()
    g.add_nodes_from(labels)
    if n >= 2:
        m = draw(st.integers(0, min(16, n * (n - 1) // 2)))
        rng = random.Random(draw(st.integers(0, 2**31)))
        for _ in range(m):
            u, v = rng.sample(labels, 2)
            g.add_edge(u, v)
    return g


batch_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestBatchCSRGraphProperties:
    @batch_settings
    @given(st.lists(labeled_graphs(), min_size=0, max_size=5))
    def test_members_bit_identical_to_per_graph_freeze(self, gs):
        """The batched freeze must be invisible: every member carved out
        of the global arrays equals ``CSRGraph.from_networkx``."""
        batch = BatchCSRGraph.from_graphs(gs)
        assert batch.k == len(gs)
        for j, g in enumerate(gs):
            ref = _fresh_freeze(g)
            member = batch.members[j]
            assert member.n == ref.n
            assert member.nodes == ref.nodes
            assert member.index == ref.index
            assert np.array_equal(member.indptr, ref.indptr)
            assert np.array_equal(member.indices, ref.indices)
            assert np.array_equal(member.src, ref.src)

    @batch_settings
    @given(st.lists(labeled_graphs(), min_size=0, max_size=5))
    def test_gather_scatter_round_trip(self, gs):
        batch = BatchCSRGraph.from_graphs(gs)
        rng = random.Random(13)
        mappings = [
            {v: rng.randrange(10**9) for v in g.nodes} for g in gs
        ]
        dense = batch.gather(mappings)
        assert dense.shape == (batch.n,)
        assert batch.scatter(dense) == mappings
        # split returns the same per-member values as scatter, as views
        for j, part in enumerate(batch.split(dense)):
            assert np.array_equal(
                part, batch.members[j].gather(mappings[j])
            )

    @batch_settings
    @given(st.lists(labeled_graphs(), min_size=1, max_size=5))
    def test_adjacency_never_crosses_instance_boundaries(self, gs):
        """Block-diagonality: every neighbor (and edge source) of a
        member's dense nodes lies inside that member's own node range."""
        batch = BatchCSRGraph.from_graphs(gs)
        for j in range(batch.k):
            nsl, esl = batch.node_slice(j), batch.edge_slice(j)
            for arr in (batch.indices[esl], batch.src[esl]):
                if arr.size:
                    assert arr.min() >= nsl.start
                    assert arr.max() < nsl.stop
            assert (batch.instance_id[nsl] == j).all()
        # offsets tile the global ranges exactly
        assert batch.node_offsets[-1] == batch.n
        assert batch.edge_offsets[-1] == batch.num_directed_edges
        assert batch.indptr[batch.node_offsets].tolist() == (
            batch.edge_offsets.tolist()
        )

    def test_degenerate_batches(self):
        # k=1 wraps a single instance unchanged
        g = graphs.random_regular(10, 3, seed=1)
        one = BatchCSRGraph.from_graphs([g])
        assert one.k == 1 and one.n == 10
        (res,) = linial_vectorized_batch([g])
        single = linial_vectorized(g)
        assert res[0].assignment == single[0].assignment
        assert res[2] == single[2]

        # an empty member and an all-isolated member among real ones
        empty = nx.Graph()
        isolated = nx.Graph()
        isolated.add_nodes_from([7, 3, 99])
        batch = BatchCSRGraph.from_graphs([g, empty, isolated])
        assert batch.members[1].n == 0
        assert batch.members[2].n == 3
        assert batch.members[2].num_directed_edges == 0
        outs = linial_vectorized_batch([g, empty, isolated])
        for graph, out in zip([g, empty, isolated], outs):
            ref = linial_vectorized(graph)
            assert out[0].assignment == ref[0].assignment
            assert out[1].summary() == ref[1].summary()
            assert out[2] == ref[2]

    def test_batch_spanning_multiple_tiles(self):
        """A batch whose dense node count exceeds one 2048-node tile must
        still match the per-instance runs: members 0-1 and 2-3 share a
        tile, and a mixed defect splits the (q, deg) groups."""
        gs = [graphs.random_regular(n, 6, seed=s)
              for s, n in enumerate((900, 900, 900, 600))]
        defects = [0, 1, 0, 0]
        outs = linial_vectorized_batch(gs, defect=defects)
        for g, d, (res, metrics, palette) in zip(gs, defects, outs):
            sres, sm, spal = linial_vectorized(g, defect=d)
            assert res.assignment == sres.assignment
            assert (metrics.summary(), palette) == (sm.summary(), spal)

    def test_fk24_batch_spanning_multiple_tiles(self):
        """FK24 runs one round loop per tile: plain and faulty members
        split across tiles must still match their one-member runs."""
        from repro.algorithms.fk24 import fk24_lists
        from repro.sim.batch import fk24_vectorized_batch

        gs = [graphs.random_regular(n, 6, seed=s)
              for s, n in enumerate((900, 900, 900, 600, 1200))]
        cfgs = [fk24_lists(g, 1, seed=7 + s) for s, g in enumerate(gs)]
        plans = [None, FaultPlan(seed=3, p_drop=0.2), None, None,
                 FaultPlan(seed=4, p_corrupt=0.1)]

        def run(js):
            return fk24_vectorized_batch(
                [gs[j] for j in js],
                lists=[cfgs[j][0] for j in js],
                space_size=[cfgs[j][1] for j in js],
                defect=1,
                faults=[plans[j] for j in js],
                return_exceptions=True,
            )

        for j, out in enumerate(run(range(len(gs)))):
            (single,) = run([j])
            if isinstance(single, BaseException):
                assert repr(out) == repr(single)
                continue
            assert out[0].assignment == single[0].assignment
            assert out[0].orientation.arcs == single[0].orientation.arcs
            assert (out[1].summary(), out[2]) == (single[1].summary(), single[2])

    def test_members_are_packed_once_at_most(self, monkeypatch):
        """A batch concatenates its members' arrays only when a kernel
        reads the whole batch: members larger than a tile run alone and
        are never packed together, and the classic pipeline's Linial stage
        reuses the batch its one-pass freeze already packed."""
        from repro.sim import batch as batch_mod

        packed = []
        real = BatchCSRGraph._packed

        def spy(self):
            if self._arrays is None:
                packed.append(self.k)
            return real(self)

        monkeypatch.setattr(BatchCSRGraph, "_packed", spy)
        big = [CSRGraph.from_networkx(graphs.ring(batch_mod._TILE_NODES + 1 + j))
               for j in range(2)]
        linial_vectorized_batch(big)
        batch_mod.classic_delta_plus_one_vectorized_batch(big)
        batch_mod.fk24_vectorized_batch(big, defect=1)
        assert set(packed) <= {1}
        packed.clear()
        batch_mod.classic_delta_plus_one_vectorized_batch(
            [graphs.ring(60), graphs.ring(70)]
        )
        assert packed == []

    @pytest.mark.parametrize("mix", ["none", "all", "some", "csr"])
    def test_from_graphs_with_memoized_members(self, mix):
        """Memoized members are used as they are, the rest are frozen
        jointly and memoized, and the packed arrays never depend on which
        members were already frozen."""
        def make():
            return [graphs.gnp(12 + 3 * j, 0.3, seed=j) for j in range(5)]

        want = BatchCSRGraph.from_csrs([_fresh_freeze(g) for g in make()])
        gs = make()
        memo = {
            j: CSRGraph.from_networkx(gs[j])
            for j in {"none": [], "all": range(5), "some": [1, 3], "csr": [0, 2]}[mix]
        }
        args = [memo[j] if mix == "csr" and j in memo else g for j, g in enumerate(gs)]
        got = BatchCSRGraph.from_graphs(args)
        for name in _BATCH_ARRAYS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        for j, g in enumerate(gs):
            assert CSRGraph.from_networkx(g) is got.members[j]
            if j in memo:
                assert got.members[j] is memo[j]

    def test_k_zero(self):
        batch = BatchCSRGraph.from_graphs([])
        assert batch.k == 0 and batch.n == 0
        assert linial_vectorized_batch([]) == []

    def test_directed_graph_rejected(self):
        with pytest.raises(ValueError, match="undirected"):
            BatchCSRGraph.from_graphs([nx.DiGraph([(1, 2)])])


# ----------------------------------------------------------------------
# the corpus, replayed through the batched path
# ----------------------------------------------------------------------
class TestCorpusBatchedReplay:
    @pytest.fixture(scope="class")
    def corpus_outcomes(self):
        entries = load_corpus(CORPUS)
        assert entries, "fuzz corpus is empty"
        cases = [case for _, case in entries]
        return cases, [run_case(case) for case in cases]

    @pytest.mark.parametrize("group_size", [1, 4, 16])
    def test_batched_outcomes_match_per_case(self, corpus_outcomes, group_size):
        """Every corpus entry, replayed in random groups: the batched
        outcome must equal the per-case outcome field for field."""
        cases, single = corpus_outcomes
        order = list(range(len(cases)))
        random.Random(group_size).shuffle(order)
        outcomes: dict[int, object] = {}
        for start in range(0, len(order), group_size):
            group = order[start : start + group_size]
            for idx, outcome in zip(
                group, run_cases_batched([cases[i] for i in group])
            ):
                outcomes[idx] = outcome
        for i in range(len(cases)):
            a, b = single[i], outcomes[i]
            assert a.ok == b.ok, cases[i].describe()
            assert a.failures == b.failures, cases[i].describe()


# ----------------------------------------------------------------------
# fault batteries
# ----------------------------------------------------------------------
def _spread_init(g: nx.Graph) -> dict[int, int]:
    """Distinct, widely spread initial colors — m0 large enough that the
    Linial schedule has real rounds to batch."""
    return {
        v: (j * 66667) % (10**7)
        for j, v in enumerate(sorted(g.nodes()))
    }


class TestBatchedFaults:
    def _battery(self, plans, n=150, degree=4):
        gs = [
            graphs.random_regular(n, degree, seed=900 + i)
            for i in range(len(plans))
        ]
        inits = [_spread_init(g) for g in gs]
        recs_b = [
            RunRecorder(engine=ENGINE_VECTORIZED, algorithm="linial_faulty")
            for _ in gs
        ]
        batched = linial_vectorized_batch(
            gs,
            initial_colors=inits,
            faults=plans,
            recorders=recs_b,
            return_exceptions=True,
        )
        for j, g in enumerate(gs):
            rec_s = RunRecorder(
                engine=ENGINE_VECTORIZED, algorithm="linial_faulty"
            )
            try:
                ref = linial_vectorized(
                    g,
                    initial_colors=inits[j],
                    faults=plans[j],
                    recorder=rec_s,
                )
                ref_err = None
            except Exception as exc:  # noqa: BLE001 - comparing verbatim
                ref, ref_err = None, exc
            out = batched[j]
            if isinstance(out, BaseException):
                assert ref_err is not None, f"instance {j} halted only batched"
                assert type(out) is type(ref_err)
                assert str(out) == str(ref_err)
            else:
                assert ref_err is None, f"instance {j} halted only single"
                assert ref[0].assignment == out[0].assignment
                assert ref[1].summary() == out[1].summary()
                assert ref[2] == out[2]
            cmp = compare_round_accounting(rec_s.record, recs_b[j].record)
            assert cmp["rounds_equal"], (j, cmp)
            assert cmp["accounting_equal"], (j, cmp)
            assert cmp["faults_equal"], (j, cmp)
            assert cmp["totals_equal"], (j, cmp)

    def test_every_fault_class_matches_per_instance(self):
        self._battery(
            [
                FaultPlan(seed=1, p_drop=0.3),
                FaultPlan(seed=2, p_corrupt=0.25),
                FaultPlan(seed=3, p_delay=0.3),
                FaultPlan(seed=4, p_duplicate=0.3),
                FaultPlan(seed=6, p_drop=0.15, p_delay=0.15, p_corrupt=0.1),
                None,  # a fault-free sibling rides in the same batch
            ]
        )

    def test_crash_stop_halts_identically(self):
        """A crash-stop member records the same HaltingError (verbatim
        message) while siblings complete normally."""
        self._battery(
            [
                FaultPlan(
                    seed=5, p_crash=0.8, crash_horizon=4, recovery_rounds=None
                ),
                FaultPlan(seed=1, p_drop=0.3),
                None,
            ]
        )

    def test_with_offset_plans_match(self):
        """Offset plans (the restart-wrapper idiom) batch like any other:
        the shifted fault schedule is honored per instance."""
        base = FaultPlan(seed=9, p_drop=0.35, p_corrupt=0.1)
        self._battery([base, base.with_offset(3), base.with_offset(11)])
