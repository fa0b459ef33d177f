"""Linial's O(Delta^2)-coloring in O(log* n) rounds [Lin87], and the
defective generalization of [Kuh09].

Construction (the standard polynomial / cover-free-family instantiation):
interpret a node's current color ``c < q^(deg+1)`` as a polynomial ``p_c``
of degree <= ``deg`` over ``F_q`` via base-``q`` digits.  After one exchange
of current colors, node ``v`` picks an evaluation point ``x`` such that
``p_v(x) != p_u(x)`` for every neighbor ``u`` (possible whenever
``q > deg * Delta``, since two distinct degree-<=deg polynomials agree on at
most ``deg`` points) and adopts the new color ``x * q + p_v(x)`` — one of
``q^2`` colors.  Iterating with a precomputed schedule shrinks ``m``
colors to ``O(Delta^2)`` in ``O(log* m)`` rounds.

The defective step [Kuh09] relaxes "no agreement" to "at most ``b``
agreements": ``v`` picks the ``x`` minimizing the number of neighbors whose
polynomial agrees at ``x``; by averaging this is at most
``floor(deg * Delta / q)``, so ``q ~ deg * Delta / b`` colors-per-axis
suffice for defect ``b``.  Crucially, a pair of neighbors *already sharing a
color* agree everywhere, so defects persist across iterations and the
schedule must split a total defect budget among its steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

import networkx as nx

from ..analysis.bounds import smallest_prime_above
from ..core.coloring import ColoringResult
from ..sim.message import Message, int_bits
from ..sim.network import SyncNetwork
from ..sim.metrics import RunMetrics
from ..sim.node import DistributedAlgorithm, NodeView


# ----------------------------------------------------------------------
# polynomial machinery over F_q
# ----------------------------------------------------------------------
def poly_coeffs(color: int, q: int, degree: int) -> tuple[int, ...]:
    """Base-q digits of ``color`` as coefficients (length ``degree + 1``)."""
    if color < 0 or color >= q ** (degree + 1):
        raise ValueError(f"color {color} not representable with q={q}, deg={degree}")
    out = []
    c = color
    for _ in range(degree + 1):
        out.append(c % q)
        c //= q
    return tuple(out)


def poly_eval(coeffs: tuple[int, ...], x: int, q: int) -> int:
    """Evaluate the polynomial with the given coefficients at ``x`` mod q."""
    acc = 0
    for a in reversed(coeffs):
        acc = (acc * x + a) % q
    return acc


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LinialStep:
    """One reduction step: field size ``q``, polynomial degree ``deg``,
    allowed per-step defect ``budget`` (0 for the proper variant)."""

    q: int
    deg: int
    budget: int

    @property
    def out_colors(self) -> int:
        return self.q * self.q


@lru_cache(maxsize=4096)
def _best_step(m: int, delta: int, budget: int) -> LinialStep | None:
    """The step minimizing the output color count ``q^2`` for current ``m``.

    Requires ``q^(deg+1) >= m`` (representability) and, for budget ``b``,
    ``floor(deg * Delta / q) <= b`` — i.e. ``q > deg * Delta`` when ``b = 0``.
    Returns ``None`` if no admissible step shrinks the palette.

    Memoized: it is a pure function of three ints returning a frozen
    step, and every served request and sweep cell asks again for the
    same few ``(m, Delta)`` pairs.  The schedules stay uncached, since
    :func:`defective_schedule` extends the list it gets.
    """
    delta = max(1, int(delta))
    best: LinialStep | None = None
    max_deg = max(2, math.ceil(math.log2(max(2, m))))
    for deg in range(1, max_deg + 1):
        need_repr = math.ceil(m ** (1.0 / (deg + 1))) - 1
        if budget == 0:
            need_collision = deg * delta
        else:
            need_collision = math.ceil(deg * delta / budget) - 1
        q = smallest_prime_above(max(need_repr, need_collision, 1))
        while q ** (deg + 1) < m:
            q = smallest_prime_above(q)
        step = LinialStep(q, deg, budget)
        if best is None or step.out_colors < best.out_colors:
            best = step
    if best is not None and best.out_colors < m:
        return best
    return None


def linial_schedule(m: int, delta: int) -> list[LinialStep]:
    """The proper-coloring schedule from ``m`` initial colors to the fixed
    point ``O(Delta^2)``; length is ``O(log* m)``."""
    steps: list[LinialStep] = []
    cur = m
    while True:
        step = _best_step(cur, delta, budget=0)
        if step is None:
            break
        steps.append(step)
        cur = step.out_colors
    return steps


def defective_schedule(m: int, delta: int, defect: int) -> list[LinialStep]:
    """[Kuh09]: proper steps down to O(Delta^2), then defective steps.

    Because defects accumulate across steps (neighbors already sharing a
    color agree everywhere), the per-step budgets must sum to at most
    ``defect``.  Each round we greedily pick the share/step pair that
    minimizes the output palette, breaking ties toward spending *less*
    budget (saving it for later steps); candidate shares are the remaining
    budget and its halvings.
    """
    steps = linial_schedule(m, delta)
    cur = steps[-1].out_colors if steps else m
    remaining = defect
    while remaining >= 1:
        shares = []
        s = remaining
        while s >= 1:
            shares.append(s)
            s //= 2
        best: tuple[int, int, LinialStep] | None = None
        for share in shares:
            step = _best_step(cur, delta, budget=share)
            if step is None:
                continue
            key = (step.out_colors, share)
            if best is None or key < (best[0], best[1]):
                best = (step.out_colors, share, step)
        if best is None:
            break
        _, share, step = best
        steps.append(step)
        cur = step.out_colors
        remaining -= share
    return steps


# ----------------------------------------------------------------------
# the distributed algorithm
# ----------------------------------------------------------------------
class LinialColoringAlgorithm(DistributedAlgorithm):
    """Runs a precomputed (shared-knowledge) schedule of Linial steps.

    Inputs per node: ``color`` — the initial proper color (defaults to the
    node id).  Shared: ``schedule`` — list of :class:`LinialStep`;
    ``m0`` — the initial palette size (for message sizing).

    Each step costs exactly one round: send the current color, then locally
    pick the evaluation point.  The proper variant picks an ``x`` with zero
    agreements (guaranteed to exist); the defective variant picks the
    minimizing ``x``.
    """

    name = "linial"

    def init_state(self, view: NodeView) -> dict[str, Any]:
        return {
            "color": int(view.inputs.get("color", view.id)),
            "step": 0,
        }

    def _schedule(self, view: NodeView) -> list[LinialStep]:
        return view.globals["schedule"]

    def send(self, view: NodeView, state, rnd: int) -> dict[int, Message]:
        sched = self._schedule(view)
        if state["step"] >= len(sched):
            return {}
        bits = int_bits(max(1, view.globals.get("m0", view.globals["n"]) - 1))
        msg = Message(state["color"], bits=bits)
        return {u: msg for u in view.neighbors}

    def receive(self, view: NodeView, state, rnd: int, inbox) -> None:
        sched = self._schedule(view)
        if state["step"] >= len(sched):
            return
        step = sched[state["step"]]
        q, deg = step.q, step.deg
        my = poly_coeffs(state["color"], q, deg)
        # Decoder filtering: under fault injection a frame can be stale
        # (sender at a different step) or corrupted out of domain; anything
        # not a valid base-q encoding for *this* step is discarded, exactly
        # as the vectorized kernel masks out-of-domain deliveries.
        domain = q ** (deg + 1)
        neigh = [
            poly_coeffs(m.payload, q, deg)
            for m in inbox.values()
            if isinstance(m.payload, int)
            and not isinstance(m.payload, bool)
            and 0 <= m.payload < domain
        ]
        best_x, best_hits = 0, None
        for x in range(q):
            mine = poly_eval(my, x, q)
            hits = sum(1 for nc in neigh if poly_eval(nc, x, q) == mine)
            if best_hits is None or hits < best_hits:
                best_x, best_hits = x, hits
                if hits == 0:
                    break
        state["color"] = best_x * q + poly_eval(my, best_x, q)
        state["step"] += 1

    def is_done(self, view: NodeView, state) -> bool:
        return state["step"] >= len(self._schedule(view))

    def output(self, view: NodeView, state) -> int:
        return state["color"]


def run_linial(
    graph: nx.Graph,
    model: str = "CONGEST",
    initial_colors: dict[int, int] | None = None,
    defect: int = 0,
    recorder=None,
    _finalize_recorder: bool = True,
    wrap=None,
    faults=None,
) -> tuple[ColoringResult, RunMetrics, int]:
    """Convenience wrapper: run Linial (or the [Kuh09] defective variant).

    Returns ``(coloring, metrics, palette_size)`` where ``palette_size`` is
    the final schedule palette ``q^2`` (an upper bound on colors used).
    ``recorder`` (a :class:`~repro.obs.RunRecorder`) is threaded into the
    underlying :meth:`~repro.sim.network.SyncNetwork.run`.  ``wrap`` is an
    optional algorithm decorator (e.g.
    :class:`~repro.sim.referee.RefereedAlgorithm`) applied to the
    algorithm instance before the run — the differential fuzz harness uses
    it to referee every reference execution.  ``faults`` (a
    :class:`~repro.faults.FaultPlan`) injects the plan's message/crash
    schedule; the round budget then stretches to the plan's
    :meth:`~repro.faults.FaultPlan.round_budget` — the same bound the
    vectorized twin uses, so a crash-stop plan halts both engines
    identically.
    """
    n = graph.number_of_nodes()
    delta = max((d for _, d in graph.degree), default=0)
    if initial_colors is None:
        initial_colors = {v: i for i, v in enumerate(sorted(graph.nodes))}
    m0 = max(initial_colors.values()) + 1 if initial_colors else 1
    if defect == 0:
        sched = linial_schedule(m0, delta)
    else:
        sched = defective_schedule(m0, delta, defect)
    palette = sched[-1].out_colors if sched else m0
    net = SyncNetwork(graph, model=model)
    inputs = {v: {"color": c} for v, c in initial_colors.items()}
    algorithm = LinialColoringAlgorithm()
    if wrap is not None:
        algorithm = wrap(algorithm)
    max_rounds = (
        len(sched) + 1 if faults is None else faults.round_budget(len(sched))
    )
    outputs, metrics = net.run(
        algorithm,
        inputs,
        shared={"schedule": sched, "m0": m0},
        max_rounds=max_rounds,
        recorder=recorder,
        faults=faults,
        _finalize_recorder=False,
    )
    if recorder is not None and _finalize_recorder:
        recorder.finalize(
            metrics,
            n=n,
            m=graph.number_of_edges(),
            palette=palette,
            algorithm=recorder.algorithm or LinialColoringAlgorithm().name,
        )
    return ColoringResult(dict(outputs)), metrics, palette
