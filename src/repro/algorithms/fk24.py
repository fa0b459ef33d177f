"""Fuchs-Kuhn 2024 simple iterative list (arb)defective coloring [FK24].

The follow-up paper "Simpler and More General Distributed Coloring Based
on Simple List Defective Coloring Algorithms" (arXiv 2405.04648, Section 3)
replaces the SPAA'23 brief announcement's polynomial constructions with a
strikingly simple iterative scheme: every uncolored node repeatedly *tries*
a candidate color from its list and keeps it unless too many stronger
neighbors compete for (or already hold) the same color.

Protocol (one try/announce cycle per synchronous round):

* every node ``v`` holds a color list ``L_v`` from a common space ``C``
  and a defect budget ``d``;
* a *trying* node picks as candidate the first ``x`` in ``L_v`` such that,
  among the neighbors whose adopted color ``v`` has heard of, at most ``d``
  hold ``x``; it broadcasts ``try(x)`` (nothing, if no viable color);
* on receive, ``v`` first records this round's ``took`` announcements,
  then *adopts* its candidate ``x`` iff the known takers of ``x`` plus the
  same-round triers of ``x`` with a smaller label still number at most
  ``d``;
* an adopter broadcasts ``took(x)`` once in the next round, then halts.

Smaller label wins ties, so the node with the globally smallest label
among the active triers always either adopts or permanently kills its
candidate — giving termination within ``sum(|L_v|) + 2n`` progress events.
Orienting each monochromatic edge from the *later* adopter to the earlier
one (ties toward the larger label) makes the counted set a superset of the
out-neighborhood, hence the output is a **list arbdefective coloring**:
every node has at most ``d`` same-colored out-neighbors
(:func:`~repro.core.validate.validate_arbdefective`).  Any list sizes with
``|L_v| >= floor(deg(v) / (d + 1)) + 1`` guarantee a viable candidate
always exists, matching the [FK24] list-size requirement ``p_v`` with
per-color defects ``d`` (their Theorem 1.2 instantiated uniformly).

Each message encodes ``tag * |C| + color`` (tag 0 = try, 1 = took) in
``ceil(log2(2|C|))`` bits, so the algorithm is CONGEST-compliant whenever
``|C|`` is polynomial in ``n``.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Mapping

import networkx as nx

from ..core.coloring import ColoringResult, orientation_from_priority
from ..sim.engine import CSRGraph
from ..sim.message import Message, int_bits
from ..sim.metrics import RunMetrics
from ..sim.network import SyncNetwork
from ..sim.node import DistributedAlgorithm, NodeView

# Node phases (also the vectorized kernels' status codes).
TRYING = 0
ANNOUNCING = 1
DONE = 2


def fk24_list_size(degree: int, defect: int) -> int:
    """Minimum list length guaranteeing a viable candidate always exists.

    A dead color needs ``d + 1`` distinct known takers, so at most
    ``floor(deg / (d + 1))`` colors of ``L_v`` can ever die.
    """
    return degree // (defect + 1) + 1


def fk24_round_budget(lists: Iterable[Iterable[int]] | int, n: int) -> int:
    """Fault-free round budget: every round with an unfinished node either
    kills a candidate permanently (at most ``sum |L_v|`` times) or moves a
    node through adopt -> announce (at most ``2n`` times); the slack covers
    the final announce/halt tail and empty graphs.

    ``lists`` is the per-node lists, or their total length ``sum |L_v|``
    when they are already packed (a ragged ``list_indptr[-1]``)."""
    total = lists if isinstance(lists, int) else sum(len(tuple(lst)) for lst in lists)
    return total + 2 * n + 4


def fk24_lists(
    graph: "nx.Graph | CSRGraph",
    defect: int = 1,
    slack: int = 0,
    space_size: int | None = None,
    seed: int | None = None,
) -> tuple[dict[int, tuple[int, ...]], int]:
    """Deterministic valid instance builder: ``(lists, space_size)``.

    Every node gets ``fk24_list_size(deg, defect) + slack`` colors.  With
    ``seed=None`` the lists are palette prefixes (the densest packing);
    otherwise each node samples its list from the space with a per-node
    seeded RNG, which is what the sweeps use to exercise gappy lists.
    ``graph`` may be a frozen :class:`~repro.sim.engine.CSRGraph`; the
    lists depend only on its nodes and degrees, so both forms give the same.
    """
    if isinstance(graph, CSRGraph):
        degrees = dict(zip(graph.nodes, graph.degrees.tolist()))
    else:
        degrees = dict(graph.degree)
    need = {v: fk24_list_size(d, defect) + slack for v, d in degrees.items()}
    space = max(need.values(), default=1) if space_size is None else space_size
    if space < max(need.values(), default=1):
        raise ValueError(
            f"space_size={space} smaller than the largest required list "
            f"({max(need.values())})"
        )
    lists: dict[int, tuple[int, ...]] = {}
    for idx, v in enumerate(sorted(degrees)):
        k = need[v]
        if seed is None:
            lists[v] = tuple(range(k))
        else:
            rng = random.Random((seed << 20) ^ idx)
            lists[v] = tuple(sorted(rng.sample(range(space), k)))
    return lists, space


class FK24Algorithm(DistributedAlgorithm):
    """The [FK24] iterative list-defective algorithm as a per-node program.

    Inputs per node: ``list`` — the color list (sorted tuple).  Shared:
    ``space`` — ``|C|``; ``defect`` — the uniform per-color defect ``d``.

    State machine: ``TRYING`` (broadcast a candidate, adopt on success) ->
    ``ANNOUNCING`` (broadcast ``took`` once) -> ``DONE``.  A trying node
    with no viable candidate idles (stays active, sends nothing) — on a
    valid instance this never happens, and on an invalid one both engines
    idle to the same :class:`~repro.sim.node.HaltingError`.
    """

    name = "fk24"

    def init_state(self, view: NodeView) -> dict[str, Any]:
        return {
            "status": TRYING,
            "color": None,
            "cand": None,
            "know": {},  # neighbor id -> last heard adopted color
            "adopted": None,  # round index of our own adoption
        }

    def _bits(self, view: NodeView) -> int:
        return int_bits(max(1, 2 * view.globals["space"] - 1))

    def send(self, view: NodeView, state, rnd: int) -> dict[int, Message]:
        space = view.globals["space"]
        bits = self._bits(view)
        if state["status"] == ANNOUNCING:
            msg = Message(space + state["color"], bits=bits)
            return {u: msg for u in view.neighbors}
        # trying: first list color with at most d *known* takers, using
        # knowledge as of the end of the previous round
        defect = view.globals["defect"]
        known = list(state["know"].values())
        cand = None
        for x in view.inputs["list"]:
            if sum(1 for c in known if c == x) <= defect:
                cand = x
                break
        state["cand"] = cand
        if cand is None:
            return {}
        msg = Message(cand, bits=bits)
        return {u: msg for u in view.neighbors}

    def receive(self, view: NodeView, state, rnd: int, inbox) -> None:
        if state["status"] == ANNOUNCING:
            # the one announce round is over (we were alive to send it)
            state["status"] = DONE
            return
        space = view.globals["space"]
        # Decoder filtering: corrupt payloads outside [0, 2|C|) or of a
        # foreign type are discarded, exactly as the vectorized kernel
        # masks out-of-domain deliveries.
        tries: list[tuple[int, int]] = []
        for u, m in inbox.items():
            p = m.payload
            if isinstance(p, int) and not isinstance(p, bool) and 0 <= p < 2 * space:
                if p >= space:
                    state["know"][u] = p - space  # took
                else:
                    tries.append((u, p))  # try
        cand = state["cand"]
        if cand is None:
            return
        defect = view.globals["defect"]
        taken = sum(1 for c in state["know"].values() if c == cand)
        stronger = sum(1 for u, x in tries if x == cand and u < view.id)
        if taken + stronger <= defect:
            state["color"] = cand
            state["status"] = ANNOUNCING
            state["adopted"] = rnd

    def is_done(self, view: NodeView, state) -> bool:
        return state["status"] == DONE

    def output(self, view: NodeView, state) -> tuple[int, int]:
        return state["color"], state["adopted"]


def run_fk24(
    graph: nx.Graph,
    lists: Mapping[int, Iterable[int]] | None = None,
    space_size: int | None = None,
    defect: int = 1,
    model: str = "CONGEST",
    recorder=None,
    _finalize_recorder: bool = True,
    wrap=None,
    faults=None,
    adoption_out: dict[int, int] | None = None,
) -> tuple[ColoringResult, RunMetrics, int]:
    """Run [FK24] on ``graph``; returns ``(result, metrics, palette_size)``.

    ``result.orientation`` orients every edge from the later adopter to the
    earlier one (ties toward the larger label), under which the coloring is
    ``d``-arbdefective with colors from the lists.  ``lists`` defaults to
    :func:`fk24_lists`; ``palette_size`` is ``|C|``.  ``adoption_out``, if
    given, is filled with each node's adoption round — the differential
    harness compares it across engines.  ``wrap`` / ``faults`` /
    ``recorder`` behave as in :func:`~repro.algorithms.linial.run_linial`.
    """
    n = graph.number_of_nodes()
    if lists is None:
        lists, built_space = fk24_lists(graph, defect)
        if space_size is None:
            space_size = built_space
    lists = {v: tuple(lists[v]) for v in graph.nodes}
    if space_size is None:
        space_size = max((max(lst) for lst in lists.values() if lst), default=0) + 1
    budget = fk24_round_budget(lists.values(), n)
    max_rounds = budget if faults is None else faults.round_budget(budget)
    net = SyncNetwork(graph, model=model)
    inputs = {v: {"list": lists[v]} for v in graph.nodes}
    algorithm = FK24Algorithm()
    if wrap is not None:
        algorithm = wrap(algorithm)
    outputs, metrics = net.run(
        algorithm,
        inputs,
        shared={"space": space_size, "defect": int(defect)},
        max_rounds=max_rounds,
        recorder=recorder,
        faults=faults,
        _finalize_recorder=False,
    )
    assignment = {v: color for v, (color, _) in outputs.items()}
    adoption = {v: rnd for v, (_, rnd) in outputs.items()}
    if adoption_out is not None:
        adoption_out.update(adoption)
    result = ColoringResult(
        assignment, orientation_from_priority(graph, adoption)
    )
    if recorder is not None and _finalize_recorder:
        recorder.finalize(
            metrics,
            n=n,
            m=graph.number_of_edges(),
            palette=space_size,
            algorithm=recorder.algorithm or FK24Algorithm.name,
        )
    return result, metrics, space_size
