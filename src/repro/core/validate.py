"""Validators for every coloring variant in the paper.

All algorithms in this library are checked against these validators, which
are written independently of the algorithms so an algorithm bug cannot hide
behind a matching validator bug.  The networkx validators quantify directly
over edges and neighborhoods in one pass, with plain dict and set lookups
and no per-edge method calls: over ``graph.adjacency()``, or, for the
arbdefective ones, over the orientation's arcs.  None calls into
:mod:`repro.sim` or builds a CSR.  Only :func:`validate_defective_csr`
and :func:`list_arbdefective_csr_ok`, which check the serving and sweep
paths on a graph that is already frozen, read the engine's arrays.

Each validator returns a :class:`ValidationReport` rather than a bare bool,
so the experiments can report *measured* defects against *allowed* defects
(the "paper vs measured" columns of EXPERIMENTS.md).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain, repeat

import networkx as nx
import numpy as np

from .coloring import ColoringResult
from .instance import ListDefectiveInstance


@dataclass
class ValidationReport:
    """Outcome of validating a coloring against an instance."""

    ok: bool
    violations: list[str] = field(default_factory=list)
    max_defect_seen: int = 0
    max_defect_allowed: int = 0

    def __bool__(self) -> bool:
        return self.ok

    def raise_if_invalid(self) -> None:
        if not self.ok:
            preview = "; ".join(self.violations[:5])
            raise AssertionError(
                f"invalid coloring ({len(self.violations)} violations): {preview}"
            )


def _list_membership_violations(
    instance: ListDefectiveInstance, result: ColoringResult
) -> list[str]:
    out: list[str] = []
    for v in instance.graph.nodes:
        if v not in result.assignment:
            out.append(f"node {v} is uncolored")
            continue
        x = result.assignment[v]
        if x not in instance.lists[v]:
            out.append(f"node {v}: color {x} not in its list")
    return out


def validate_proper_coloring(graph: nx.Graph, result: ColoringResult) -> ValidationReport:
    """Plain proper coloring: no two adjacent nodes share a color.

    One adjacency walk decides: a node conflicts when a neighbor sits in
    its color class (a set lookup per adjacency slot, no color compared).
    Colors group as dict keys do, so two colors that compare equal share
    a class.  Only on a conflict are the monochromatic edges (``cu == cv``)
    named, in ``graph.edges`` order.
    """
    assignment = result.assignment
    get = assignment.get
    violations = [f"node {v} is uncolored" for v in graph.nodes if v not in assignment]
    classes = defaultdict(set)
    for v, c in assignment.items():
        classes[c].add(v)
    for u, nbrs in graph.adjacency():
        cu = get(u)
        if cu is not None and not classes[cu].isdisjoint(nbrs):
            violations.extend(
                f"monochromatic edge {{{a},{b}}} color {ca}"
                for a, b in graph.edges
                if (ca := get(a)) is not None and ca == get(b)
            )
            break
    return ValidationReport(not violations, violations)


def validate_ldc(
    instance: ListDefectiveInstance, result: ColoringResult
) -> ValidationReport:
    """List defective coloring (Definition 1.1, first bullet).

    Every node ``v`` has at most ``d_v(phi(v))`` *neighbors* of color
    ``phi(v)``.  Works on the underlying undirected adjacency even if the
    instance graph is directed (a directed instance validated here is
    treated as its undirected support).
    """
    violations = _list_membership_violations(instance, result)
    max_seen = 0
    max_allowed = 0
    g = instance.graph
    assignment = result.assignment
    get = assignment.get
    pred = g.pred if instance.directed else None
    for v, nbrs in g.adjacency():
        if v not in assignment or assignment[v] not in instance.lists[v]:
            continue
        x = assignment[v]
        neigh = nbrs if pred is None else nbrs.keys() | pred[v].keys()
        same = len([u for u in neigh if get(u) == x])
        allowed = instance.defects[v][x]
        max_seen = max(max_seen, same)
        max_allowed = max(max_allowed, allowed)
        if same > allowed:
            violations.append(
                f"node {v}: {same} same-colored neighbors > allowed defect {allowed}"
            )
    return ValidationReport(not violations, violations, max_seen, max_allowed)


def validate_oldc(
    instance: ListDefectiveInstance, result: ColoringResult
) -> ValidationReport:
    """Oriented list defective coloring (Definition 1.1, second bullet).

    Every node ``v`` has at most ``d_v(phi(v))`` *out-neighbors* of color
    ``phi(v)`` in the instance's directed graph.
    """
    if not instance.directed:
        raise ValueError("OLDC validation requires a directed instance")
    violations = _list_membership_violations(instance, result)
    max_seen = 0
    max_allowed = 0
    assignment = result.assignment
    get = assignment.get
    for v, succ in instance.graph.adjacency():
        if v not in assignment or assignment[v] not in instance.lists[v]:
            continue
        x = assignment[v]
        same = len([u for u in succ if get(u) == x])
        allowed = instance.defects[v][x]
        max_seen = max(max_seen, same)
        max_allowed = max(max_allowed, allowed)
        if same > allowed:
            violations.append(
                f"node {v}: {same} same-colored out-neighbors > allowed {allowed}"
            )
    return ValidationReport(not violations, violations, max_seen, max_allowed)


def _orientation_check(
    graph: nx.Graph, assignment: Mapping, arcs: set
) -> tuple[list[str], dict]:
    """Check ``arcs`` against ``graph``: ``(edge_violations, out_same)``.

    ``edge_violations`` names every edge that is unoriented or, with
    distinct endpoints, oriented both ways, in ``graph.edges`` order.
    ``out_same`` maps a node to its number of out-neighbors sharing its
    color (absent: none; meaningful only when every node is colored).

    Each arc is one edge, so one pass over ``arcs`` (``m`` set lookups,
    not one per adjacency slot) both counts and decides the common case:
    when exactly ``m`` arcs lie on edges and none has its reverse, every
    edge is oriented exactly once.  Otherwise the edges are walked in
    order to name the offenders.
    """
    adj = dict(graph.adjacency())
    get = assignment.get
    on_edges = 0
    both_ways = False
    out_same: dict = {}
    for a, b in arcs:
        nbrs = adj.get(a)
        if nbrs is None or b not in nbrs:
            continue  # an arc off the graph orients none of its edges
        on_edges += 1
        if a != b and (b, a) in arcs:
            both_ways = True
        if get(b) == get(a):
            out_same[a] = out_same.get(a, 0) + 1
    if on_edges == graph.number_of_edges() and not both_ways:
        return [], out_same
    edge_violations = []
    for u, v in graph.edges:
        forward, backward = (u, v) in arcs, (v, u) in arcs
        if not (forward or backward):
            edge_violations.append(f"edge {{{u},{v}}} is unoriented")
        elif forward and backward and u != v:
            edge_violations.append(f"edge {{{u},{v}}} is oriented both ways")
    return edge_violations, out_same


def validate_arbdefective(
    instance: ListDefectiveInstance, result: ColoringResult
) -> ValidationReport:
    """List arbdefective coloring (Definition 1.1, third bullet).

    Requires ``result.orientation`` orienting every edge of the graph
    exactly once (an edge ``{u, v}``, ``u != v``, oriented both ways is a
    violation); the OLDC condition must hold with respect to that
    orientation.
    """
    if instance.directed:
        raise ValueError("arbdefective validation expects an undirected instance")
    if result.orientation is None:
        return ValidationReport(False, ["no edge orientation in result"])
    violations = _list_membership_violations(instance, result)
    edge_violations, out_same = _orientation_check(
        instance.graph, result.assignment, result.orientation.arcs
    )
    violations += edge_violations
    if violations:
        return ValidationReport(False, violations)
    max_seen = 0
    max_allowed = 0
    for v in instance.graph.nodes:
        same = out_same.get(v, 0)
        allowed = instance.defects[v][result.assignment[v]]
        max_seen = max(max_seen, same)
        max_allowed = max(max_allowed, allowed)
        if same > allowed:
            violations.append(
                f"node {v}: {same} same-colored out-neighbors > allowed {allowed}"
            )
    return ValidationReport(not violations, violations, max_seen, max_allowed)


def validate_defective_coloring(
    graph: nx.Graph, result: ColoringResult, defect: int
) -> ValidationReport:
    """Classic ``d``-defective coloring: each color class induces max degree <= d."""
    assignment = result.assignment
    get = assignment.get
    violations = [
        f"node {v} is uncolored" for v in graph.nodes if v not in assignment
    ]
    max_seen = 0
    for v, nbrs in graph.adjacency():
        if v not in assignment:
            continue
        x = assignment[v]
        same = len([u for u in nbrs if get(u) == x])
        max_seen = max(max_seen, same)
        if same > defect:
            violations.append(f"node {v}: defect {same} > {defect}")
    return ValidationReport(not violations, violations, max_seen, defect)


def validate_defective_csr(csr, assignment: Mapping, defect: int) -> ValidationReport:
    """Classic ``d``-defective coloring (``defect=0``: proper) on a frozen
    :class:`~repro.sim.engine.CSRGraph`.

    Every node of ``csr`` must be colored, and no node may have more than
    ``defect`` neighbors of its own color: what
    :func:`validate_defective_coloring` (and, for ``defect=0``,
    :func:`validate_proper_coloring`) checks on the networkx graph, with
    one vectorized neighbor count.  Never raises: a coloring it cannot
    read is reported invalid, so a serving loop can call it inline.
    """
    from ..sim.engine import equal_neighbor_counts

    try:
        colors = csr.gather(assignment)
    except KeyError:
        violations = [
            f"node {v} is uncolored" for v in csr.nodes if v not in assignment
        ]
        return ValidationReport(False, violations, 0, defect)
    except (TypeError, ValueError, OverflowError) as exc:
        return ValidationReport(False, [f"unreadable coloring: {exc}"], 0, defect)
    same = equal_neighbor_counts(csr, colors)
    violations = [
        f"node {csr.nodes[i]}: defect {same[i]} > {defect}"
        for i in np.flatnonzero(same > defect)
    ]
    max_seen = int(same.max()) if same.size else 0
    return ValidationReport(not violations, violations, max_seen, defect)


def list_arbdefective_csr_ok(
    csr, result: ColoringResult, lists: Mapping, defect: int
) -> bool:
    """The list arbdefective contract on a frozen
    :class:`~repro.sim.engine.CSRGraph`, as one bool.

    What :func:`validate_arbdefective_plain` checks, plus list
    membership: every node is colored from its own list, the result's
    ``orientation`` orients every edge exactly once, and no node has more
    than ``defect`` out-neighbors of its own color.  The sweep checks its
    fk24 cells with it.
    """
    assignment, ori = result.assignment, result.orientation
    if ori is None:
        return False
    try:
        colors = csr.gather(assignment)
    except KeyError:  # an uncolored node
        return False
    if not all(assignment[v] in lists[v] for v in csr.nodes):
        return False
    # arcs over dense ids; an arc with an endpoint outside the graph
    # orients none of its edges
    ends = np.fromiter(
        map(csr.index.get, chain.from_iterable(ori.arcs), repeat(-1)),
        dtype=np.int64,
        count=2 * len(ori.arcs),
    ).reshape(-1, 2)
    ends = ends[(ends >= 0).all(axis=1)]
    arcs = np.sort(ends[:, 0] * csr.n + ends[:, 1])

    def oriented(tails, heads):
        keys = tails * csr.n + heads
        if not arcs.size:
            return np.zeros(keys.shape, dtype=bool)
        pos = np.minimum(np.searchsorted(arcs, keys), arcs.size - 1)
        return arcs[pos] == keys

    fwd = csr.src < csr.indices
    u, w = csr.src[fwd], csr.indices[fwd]
    u_to_w, w_to_u = oriented(u, w), oriented(w, u)
    if not (u_to_w ^ w_to_u).all():
        return False
    same = colors[u] == colors[w]
    out_same = np.bincount(u[same & u_to_w], minlength=csr.n) + np.bincount(
        w[same & w_to_u], minlength=csr.n
    )
    return not csr.n or int(out_same.max()) <= defect


def validate_arbdefective_plain(
    graph: nx.Graph,
    result: ColoringResult,
    arbdefect: int,
) -> ValidationReport:
    """Classic ``d``-arbdefective coloring with an explicit orientation.

    ``result.orientation`` must orient every edge exactly once (an edge
    ``{u, v}``, ``u != v``, oriented both ways is a violation), and no node
    may have more than ``arbdefect`` same-colored out-neighbors.
    """
    if result.orientation is None:
        return ValidationReport(False, ["no edge orientation in result"])
    violations = [
        f"node {v} is uncolored" for v in graph.nodes if v not in result.assignment
    ]
    edge_violations, out_same = _orientation_check(
        graph, result.assignment, result.orientation.arcs
    )
    violations += edge_violations
    if violations:
        return ValidationReport(False, violations)
    max_seen = 0
    for v in graph.nodes:
        same = out_same.get(v, 0)
        max_seen = max(max_seen, same)
        if same > arbdefect:
            violations.append(f"node {v}: arbdefect {same} > {arbdefect}")
    return ValidationReport(not violations, violations, max_seen, arbdefect)


def validate_generalized_oldc(
    instance: ListDefectiveInstance,
    result: ColoringResult,
    g: int,
) -> ValidationReport:
    """The g-generalized OLDC of Section 3.2.

    Node ``v`` with color ``x_v`` may have at most ``d_v(x_v)`` out-neighbors
    ``w`` whose color satisfies ``|x_v - x_w| <= g``.  For ``g = 0`` this is
    exactly the OLDC condition.
    """
    if not instance.directed:
        raise ValueError("generalized OLDC requires a directed instance")
    if g < 0:
        raise ValueError(f"g must be >= 0, got {g}")
    violations = _list_membership_violations(instance, result)
    max_seen = 0
    max_allowed = 0
    assignment = result.assignment
    for v, succ in instance.graph.adjacency():
        if v not in assignment or assignment[v] not in instance.lists[v]:
            continue
        x = assignment[v]
        close = len(
            [u for u in succ if u in assignment and abs(assignment[u] - x) <= g]
        )
        allowed = instance.defects[v][x]
        max_seen = max(max_seen, close)
        max_allowed = max(max_allowed, allowed)
        if close > allowed:
            violations.append(
                f"node {v}: {close} g-close out-neighbors > allowed {allowed}"
            )
    return ValidationReport(not violations, violations, max_seen, max_allowed)
