"""Validators for every coloring variant in the paper.

All algorithms in this library are checked against these validators, which
are written independently of the algorithms (direct quantification over
edges / neighborhoods) so an algorithm bug cannot hide behind a matching
validator bug.

Each validator returns a :class:`ValidationReport` rather than a bare bool,
so the experiments can report *measured* defects against *allowed* defects
(the "paper vs measured" columns of EXPERIMENTS.md).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

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
    """Plain proper coloring: no two adjacent nodes share a color."""
    violations = [f"node {v} is uncolored" for v in graph.nodes if v not in result.assignment]
    for u, v in graph.edges:
        cu, cv = result.assignment.get(u), result.assignment.get(v)
        if cu is not None and cu == cv:
            violations.append(f"monochromatic edge {{{u},{v}}} color {cu}")
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
    for v in instance.graph.nodes:
        if v not in result.assignment or result.assignment[v] not in instance.lists[v]:
            continue
        x = result.assignment[v]
        same = sum(
            1
            for u in instance.graph.successors(v)
            if result.assignment.get(u) == x
        )
        allowed = instance.defects[v][x]
        max_seen = max(max_seen, same)
        max_allowed = max(max_allowed, allowed)
        if same > allowed:
            violations.append(
                f"node {v}: {same} same-colored out-neighbors > allowed {allowed}"
            )
    return ValidationReport(not violations, violations, max_seen, max_allowed)


def validate_arbdefective(
    instance: ListDefectiveInstance, result: ColoringResult
) -> ValidationReport:
    """List arbdefective coloring (Definition 1.1, third bullet).

    Requires ``result.orientation`` covering every edge of the graph; the
    OLDC condition must hold with respect to that orientation.
    """
    if instance.directed:
        raise ValueError("arbdefective validation expects an undirected instance")
    if result.orientation is None:
        return ValidationReport(False, ["no edge orientation in result"])
    violations = _list_membership_violations(instance, result)
    ori = result.orientation
    for u, v in instance.graph.edges:
        if not ori.is_oriented(u, v):
            violations.append(f"edge {{{u},{v}}} is unoriented")
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


def validate_defective_coloring(
    graph: nx.Graph, result: ColoringResult, defect: int
) -> ValidationReport:
    """Classic ``d``-defective coloring: each color class induces max degree <= d."""
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


def validate_arbdefective_plain(
    graph: nx.Graph,
    result: ColoringResult,
    arbdefect: int,
) -> ValidationReport:
    """Classic ``d``-arbdefective coloring with an explicit orientation."""
    if result.orientation is None:
        return ValidationReport(False, ["no edge orientation in result"])
    violations = [
        f"node {v} is uncolored" for v in graph.nodes if v not in result.assignment
    ]
    ori = result.orientation
    for u, v in graph.edges:
        if not ori.is_oriented(u, v):
            violations.append(f"edge {{{u},{v}}} is unoriented")
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
