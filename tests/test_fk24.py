"""The [FK24] engine battery: validity oracles, tri-engine equality, faults.

Three layers of pinning for the simple iterative list-defective coloring
(arXiv 2405.04648, Section 3):

* **Semantic oracles** — on twelve graph families and under hypothesis-
  driven random instances, the output is a valid list arbdefective
  coloring (list membership + per-color defect budget, validated by
  :func:`repro.core.validate.validate_arbdefective`) within the declared
  palette.
* **Tri-engine equality** — reference, vectorized, and batched runs of
  the same instance agree on assignments, orientation priorities,
  metrics, palette, *and* per-round observability rows
  (:func:`repro.obs.compare_round_accounting`).
* **Fault battery** — drop / corrupt / crash plans produce identical
  outcomes on both engines, including the case where the adversary
  livelocks the protocol: both sides must raise the same
  :class:`~repro.sim.node.HaltingError` (rounds and unfinished set).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algorithms.fk24 import (
    fk24_list_size,
    fk24_lists,
    fk24_round_budget,
    run_fk24,
)
from repro.core import ColorSpace
from repro.core.instance import ListDefectiveInstance
from repro.core.validate import validate_arbdefective
from repro.faults import FaultPlan
from repro.graphs import (
    blowup,
    clique,
    disjoint_cliques,
    gnp,
    hub_and_fringe,
    hypercube,
    path,
    random_regular,
    random_tree,
    ring,
    star,
    torus,
)
from repro.obs import RunRecorder, compare_round_accounting
from repro.sim.batch import fk24_vectorized_batch
from repro.sim.node import HaltingError
from repro.sim.vectorized import fk24_vectorized

FAMILIES = {
    "ring": lambda: ring(16),
    "path": lambda: path(15),
    "star": lambda: star(9),
    "clique": lambda: clique(7),
    "torus": lambda: torus(4, 4),
    "hypercube": lambda: hypercube(4),
    "gnp": lambda: gnp(24, 0.2, seed=3),
    "regular": lambda: random_regular(24, 4, seed=4),
    "tree": lambda: random_tree(20, seed=5),
    "blowup": lambda: blowup(ring(5), 2),
    "hub": lambda: hub_and_fringe(hub_degree=6, fringe_cliques=2, clique_size=3),
    "cliques": lambda: disjoint_cliques(3, 4),
}


def _instance(g, lists, space, defect):
    return ListDefectiveInstance(
        g,
        ColorSpace(space),
        {v: tuple(lists[v]) for v in g.nodes},
        {v: {x: defect for x in lists[v]} for v in g.nodes},
    )


def _assert_valid(g, lists, space, defect, result, palette):
    report = validate_arbdefective(_instance(g, lists, space, defect), result)
    assert report.ok, report.violations
    assert palette == space
    assert all(0 <= c < space for c in result.assignment.values())
    assert set(result.assignment) == set(g.nodes)


# ----------------------------------------------------------------------
# semantic oracles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("defect", [0, 1, 2])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_grid_is_valid_arbdefective(family, defect):
    g = FAMILIES[family]()
    lists, space = fk24_lists(g, defect=defect, slack=1, seed=9)
    result, _metrics, palette = run_fk24(
        g, lists=lists, space_size=space, defect=defect
    )
    _assert_valid(g, lists, space, defect, result, palette)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_grid_vectorized_matches_reference(family):
    g = FAMILIES[family]()
    lists, space = fk24_lists(g, defect=1, slack=1, seed=9)
    ref, _m1, _p1 = run_fk24(g, lists=lists, space_size=space, defect=1)
    vec, _m2, _p2 = fk24_vectorized(g, lists=lists, space_size=space, defect=1)
    assert ref.assignment == vec.assignment


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.data_too_large],
)
@given(
    n=st.integers(2, 28),
    p=st.floats(0.05, 0.6),
    defect=st.integers(0, 3),
    slack=st.integers(0, 2),
    seed=st.integers(0, 10**6),
)
def test_random_instances_satisfy_both_oracles(n, p, defect, slack, seed):
    """List-validity and defect-budget oracles on random instances.

    Lists are the minimal ``floor(deg/(d+1)) + 1`` size plus ``slack``,
    drawn from a shuffled color space — the regime where both the list
    membership and the budget constraint actually bind.
    """
    g = gnp(n, p, seed=seed % 997)
    lists, space = fk24_lists(g, defect=defect, slack=slack, seed=seed)
    result, _metrics, palette = run_fk24(
        g, lists=lists, space_size=space, defect=defect
    )
    _assert_valid(g, lists, space, defect, result, palette)
    # list membership, stated directly as well (not only via the report)
    for v, c in result.assignment.items():
        assert c in lists[v]


@settings(max_examples=50, deadline=None)
@given(deg=st.integers(0, 500), defect=st.integers(0, 20))
def test_list_size_bound(deg, defect):
    size = fk24_list_size(deg, defect)
    assert size == deg // (defect + 1) + 1
    assert size >= 1
    # more defect budget never needs longer lists
    assert fk24_list_size(deg, defect + 1) <= size


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 20),
    defect=st.integers(0, 3),
    seed=st.integers(0, 10**6),
)
def test_generated_lists_meet_the_size_floor(n, defect, seed):
    g = gnp(n, 0.4, seed=seed % 997)
    lists, space = fk24_lists(g, defect=defect, seed=seed)
    degrees = dict(g.degree)
    for v, lst in lists.items():
        assert len(lst) == len(set(lst))
        assert len(lst) >= fk24_list_size(degrees[v], defect)
        assert all(0 <= x < space for x in lst)
    budget = fk24_round_budget(lists.values(), g.number_of_nodes())
    assert budget == sum(len(lst) for lst in lists.values()) + 2 * n + 4
    # the packed form the vectorized entries pass: the lists' total length
    packed = sum(len(lst) for lst in lists.values())
    assert fk24_round_budget(packed, g.number_of_nodes()) == budget


# ----------------------------------------------------------------------
# tri-engine equality, down to per-round obs rows
# ----------------------------------------------------------------------
def _accounting_equal(ref_record, vec_record):
    report = compare_round_accounting(ref_record, vec_record)
    return (
        report["rounds_equal"]
        and report["accounting_equal"]
        and report["faults_equal"]
        and report["totals_equal"]
    ), report


@pytest.mark.parametrize("family", ["ring", "gnp", "regular", "hub"])
def test_tri_engine_equality(family):
    g = FAMILIES[family]()
    lists, space = fk24_lists(g, defect=1, slack=1, seed=23)

    ref_rec, vec_rec = RunRecorder(), RunRecorder()
    ref_adopt, vec_adopt = {}, {}
    ref, ref_m, ref_p = run_fk24(
        g, lists=lists, space_size=space, defect=1,
        recorder=ref_rec, adoption_out=ref_adopt,
    )
    vec, vec_m, vec_p = fk24_vectorized(
        g, lists=lists, space_size=space, defect=1,
        recorder=vec_rec, adoption_out=vec_adopt,
    )
    assert ref.assignment == vec.assignment
    assert ref_adopt == vec_adopt
    assert ref_p == vec_p
    assert ref_m.summary() == vec_m.summary()
    equal, report = _accounting_equal(ref_rec.record, vec_rec.record)
    assert equal, report

    # batched twin: the same instance inside a heterogeneous group
    other = FAMILIES["path"]()
    other_lists, other_space = fk24_lists(other, defect=2, slack=0, seed=24)
    batch_recs = [RunRecorder(), RunRecorder()]
    (b_res, b_m, b_p), _other = fk24_vectorized_batch(
        [g, other],
        lists=[lists, other_lists],
        space_size=[space, other_space],
        defect=[1, 2],
        recorders=batch_recs,
    )
    assert b_res.assignment == ref.assignment
    assert b_p == ref_p
    assert b_m.summary() == ref_m.summary()
    equal, report = _accounting_equal(ref_rec.record, batch_recs[0].record)
    assert equal, report


def test_orientation_priorities_match_adoption_rounds():
    g = FAMILIES["gnp"]()
    lists, space = fk24_lists(g, defect=2, slack=1, seed=31)
    adoption = {}
    result, _m, _p = run_fk24(
        g, lists=lists, space_size=space, defect=2, adoption_out=adoption
    )
    assert set(adoption) == set(g.nodes)
    ori = result.orientation
    assert ori is not None
    for u, v in g.edges:
        assert ori.is_oriented(u, v)
        if result.assignment[u] == result.assignment[v]:
            # monochromatic edges point from later adopters to earlier
            src = u if ori.points_from(u, v) else v
            dst = v if src == u else u
            assert (adoption[src], src) > (adoption[dst], dst) or (
                adoption[src] == adoption[dst] and src > dst
            )


def _gappy_labels(g, seed):
    """``g`` relabeled to unsorted, non-contiguous integer labels."""
    import random

    import networkx as nx

    labels = random.Random(seed).sample(range(10, 100_000), g.number_of_nodes())
    return nx.relabel_nodes(g, dict(zip(g.nodes, labels)))


@pytest.mark.parametrize("family", ["gnp", "regular", "hub", "cliques", "star"])
def test_vectorized_orientation_equals_priority_orientation(family):
    from repro.core.coloring import orientation_from_priority
    from repro.sim.engine import CSRGraph

    g = _gappy_labels(FAMILIES[family](), seed=len(family))
    assert set(g.nodes) != set(range(g.number_of_nodes()))
    lists, space = fk24_lists(g, defect=1, slack=1, seed=41)
    adoption = {}
    result, _m, _p = fk24_vectorized(
        g, lists=lists, space_size=space, defect=1, adoption_out=adoption
    )
    want = orientation_from_priority(g, adoption).arcs
    assert result.orientation.arcs == want
    from_csr, _m, _p = fk24_vectorized(
        CSRGraph.from_networkx(g), lists=lists, space_size=space, defect=1
    )
    assert from_csr.orientation.arcs == want
    (batched, _m, _p), = fk24_vectorized_batch(
        [g], lists=[lists], space_size=[space], defect=[1]
    )
    assert batched.orientation.arcs == want


@pytest.mark.parametrize("seed", [None, 7])
def test_lists_from_csr_equal_lists_from_graph(seed):
    from repro.sim.engine import CSRGraph

    g = _gappy_labels(FAMILIES["hub"](), seed=3)
    csr = CSRGraph.from_networkx(g)
    assert fk24_lists(csr, 1, slack=2, seed=seed) == fk24_lists(
        g, 1, slack=2, seed=seed
    )
    # no lists given: the kernel derives them from the CSR it runs on
    assert fk24_vectorized(csr)[0].assignment == fk24_vectorized(g)[0].assignment


# ----------------------------------------------------------------------
# fault battery: both engines, identical outcome — success or halt
# ----------------------------------------------------------------------
FAULT_PLANS = {
    "drop": FaultPlan(seed=11, p_drop=0.25),
    "corrupt": FaultPlan(seed=12, p_corrupt=0.2, corrupt_space=40),
    "crash-recover": FaultPlan(
        seed=13, p_crash=0.1, crash_horizon=6, recovery_rounds=2
    ),
    "crash-stop": FaultPlan(
        seed=14, p_crash=0.6, crash_horizon=2, recovery_rounds=None
    ),
    "mixed": FaultPlan(
        seed=15, p_drop=0.15, p_corrupt=0.1, corrupt_space=25,
        p_crash=0.05, crash_horizon=4, recovery_rounds=3,
    ),
}


def _run_faulty(runner, g, lists, space, plan):
    recorder = RunRecorder()
    adoption = {}
    try:
        result, metrics, palette = runner(
            g, lists=lists, space_size=space, defect=1,
            recorder=recorder, faults=plan, adoption_out=adoption,
        )
    except HaltingError as exc:
        halt = (int(exc.rounds), tuple(sorted(exc.unfinished)))
        return {"halt": halt, "record": recorder.record}
    return {
        "halt": None,
        "assignment": result.assignment,
        "adoption": adoption,
        "palette": palette,
        "summary": metrics.summary(),
        "record": recorder.record,
    }


@pytest.mark.parametrize("family", ["ring", "gnp", "regular"])
@pytest.mark.parametrize("plan_name", sorted(FAULT_PLANS))
def test_fault_battery_engines_agree(plan_name, family):
    g = FAMILIES[family]()
    plan = FAULT_PLANS[plan_name]
    lists, space = fk24_lists(g, defect=1, slack=1, seed=37)
    ref = _run_faulty(run_fk24, g, lists, space, plan)
    vec = _run_faulty(fk24_vectorized, g, lists, space, plan)
    assert ref["halt"] == vec["halt"]
    if ref["halt"] is None:
        assert ref["assignment"] == vec["assignment"]
        assert ref["adoption"] == vec["adoption"]
        assert ref["palette"] == vec["palette"]
        assert ref["summary"] == vec["summary"]
    equal, report = _accounting_equal(ref["record"], vec["record"])
    assert equal, report


def test_crash_stop_livelock_halts_both_engines_identically():
    """A crash-stop majority must livelock fk24 on *both* engines.

    Crashed nodes never announce, so their neighbors' knowledge stops
    growing and the round budget runs out: the reference simulator and
    the vectorized kernel must raise the same
    :class:`~repro.sim.node.HaltingError` — same round count, same
    unfinished set.
    """
    g = FAMILIES["regular"]()
    plan = FaultPlan(seed=99, p_crash=0.9, crash_horizon=1, recovery_rounds=None)
    lists, space = fk24_lists(g, defect=1, seed=41)
    ref = _run_faulty(run_fk24, g, lists, space, plan)
    vec = _run_faulty(fk24_vectorized, g, lists, space, plan)
    assert ref["halt"] is not None, "plan did not livelock the protocol"
    assert ref["halt"] == vec["halt"]
    equal, report = _accounting_equal(ref["record"], vec["record"])
    assert equal, report

    # the batched engine reports the same halt as a HaltingError result
    outs = fk24_vectorized_batch(
        [g],
        lists=[lists],
        space_size=[space],
        defect=[1],
        faults=[plan],
        return_exceptions=True,
    )
    assert isinstance(outs[0], HaltingError)
    assert (int(outs[0].rounds), tuple(sorted(outs[0].unfinished))) == ref["halt"]


def test_faulty_batch_matches_per_instance_runs():
    gs = [FAMILIES["ring"](), FAMILIES["gnp"]()]
    plans = [FAULT_PLANS["drop"], FAULT_PLANS["corrupt"]]
    cfgs = [fk24_lists(g, defect=1, slack=1, seed=43 + i) for i, g in enumerate(gs)]
    singles = [
        _run_faulty(fk24_vectorized, g, lists, space, plan)
        for g, (lists, space), plan in zip(gs, cfgs, plans)
    ]
    recs = [RunRecorder(), RunRecorder()]
    outs = fk24_vectorized_batch(
        gs,
        lists=[c[0] for c in cfgs],
        space_size=[c[1] for c in cfgs],
        defect=[1, 1],
        faults=plans,
        recorders=recs,
        return_exceptions=True,
    )
    for single, out, rec in zip(singles, outs, recs):
        if single["halt"] is not None:
            assert isinstance(out, HaltingError)
            assert (int(out.rounds), tuple(sorted(out.unfinished))) == single["halt"]
        else:
            res, metrics, palette = out
            assert res.assignment == single["assignment"]
            assert palette == single["palette"]
            assert metrics.summary() == single["summary"]
        equal, report = _accounting_equal(single["record"], rec.record)
        assert equal, report
