"""Seeded random case generation: graph family × labels × configuration.

Every case is a pure function of its seed, so a fuzz run is replayable
from its command line alone (``repro-cli fuzz --seed S --iterations K``)
and a failure report can name the exact seed that produced it.

The sampled space follows what the engine pairs are *sensitive to*:

* **family** — the seeded generators of :mod:`repro.graphs.generators`,
  weighted toward the heterogeneous families (G(n,p), trees, hubs) where
  per-node degrees differ and scheduling bugs surface;
* **labels** — identity, shifted, strided, or fully shuffled
  non-contiguous relabelings.  Maus–Tonoyan's "Linial for Lists" shows
  how sensitive these schedules are to tie-breaking and encoding details,
  and label order is the tie-breaker both engines must agree on;
* **configuration** — defect budgets for the defective pairs, explicit
  (gappy, unsorted) initial colorings for Linial, random
  ``(degree+1)``-and-larger color lists for the greedy pair, shorter
  defect-scaled lists for the fk24 pair, and seeded fault plans
  (drop/corrupt/delay/duplicate/crash) for a fraction of the
  fault-capable pairs' cases (``linial``, ``fk24``), exercising the
  fault kernels of both engines against each other.

Sizes stay small (n <= ~24): the reference engine is the bottleneck, and
small instances shrink and replay fast.  Scale testing is the sweep
runner's job; *coverage* of the configuration space is the fuzzer's.
"""

from __future__ import annotations

import random

import networkx as nx

from ..graphs import generators as gen
from .case import FuzzCase
from .differential import ENGINE_PAIRS

#: Engine-pair names the generator can target: the keys of
#: :data:`repro.fuzz.differential.ENGINE_PAIRS`, in its order.
#: :func:`generate_case` draws from this tuple with ``rng.choice``, so
#: reordering the registry would change every seed's cases.
GENERATABLE_PAIRS = tuple(ENGINE_PAIRS)

#: Label-regime names (documentation + test introspection).
LABEL_SCHEMES = ("identity", "shifted", "strided", "shuffled")

#: Graph-family names sampled by :func:`generate_case`.
FAMILY_SPACE = (
    "ring",
    "path",
    "clique",
    "star",
    "gnp",
    "gnp",  # twice: heterogeneous degrees earn extra weight
    "random_regular",
    "random_tree",
    "torus",
    "hypercube",
    "disjoint_cliques",
    "hub_and_fringe",
)


def _draw_graph(rng: random.Random) -> nx.Graph:
    """One small graph from the weighted family space."""
    family = rng.choice(FAMILY_SPACE)
    if family == "ring":
        return gen.ring(rng.randint(3, 20))
    if family == "path":
        return gen.path(rng.randint(2, 20))
    if family == "clique":
        return gen.clique(rng.randint(2, 8))
    if family == "star":
        return gen.star(rng.randint(2, 16))
    if family == "gnp":
        return gen.gnp(rng.randint(4, 24), rng.choice([0.1, 0.2, 0.35, 0.5]),
                       seed=rng.randrange(1 << 30))
    if family == "random_regular":
        n = rng.randint(6, 20)
        degree = rng.randint(2, min(5, n - 1))
        if (n * degree) % 2:
            n += 1
        return gen.random_regular(n, degree, seed=rng.randrange(1 << 30))
    if family == "random_tree":
        return gen.random_tree(rng.randint(2, 20), seed=rng.randrange(1 << 30))
    if family == "torus":
        return gen.torus(rng.randint(2, 4), rng.randint(2, 5))
    if family == "hypercube":
        return gen.hypercube(rng.randint(2, 4))
    if family == "disjoint_cliques":
        return gen.disjoint_cliques(rng.randint(2, 4), rng.randint(2, 4))
    if family == "hub_and_fringe":
        cliques = rng.randint(2, 4)
        size = rng.randint(2, 3)
        hub_degree = rng.randint(1, cliques * size)
        return gen.hub_and_fringe(hub_degree, cliques, size)
    raise AssertionError(f"unhandled family {family!r}")  # pragma: no cover


def _relabel(g: nx.Graph, rng: random.Random) -> nx.Graph:
    """Apply one of the label regimes; labels stay distinct integers."""
    scheme = rng.choice(LABEL_SCHEMES)
    old = sorted(g.nodes)
    if scheme == "identity":
        return g
    if scheme == "shifted":
        offset = rng.randint(1, 1000)
        mapping = {v: v + offset for v in old}
    elif scheme == "strided":
        stride = rng.randint(2, 7)
        offset = rng.randint(0, 50)
        mapping = {v: offset + stride * i for i, v in enumerate(old)}
    else:  # shuffled: non-contiguous AND unsorted relative to structure
        labels = rng.sample(range(10 * len(old) + 10), len(old))
        mapping = {v: labels[i] for i, v in enumerate(old)}
    return nx.relabel_nodes(g, mapping)


#: Fault modes :func:`_draw_fault` samples (matches FaultPlan's rates).
FAULT_MODES = ("drop", "corrupt", "delay", "duplicate", "crash")


def _draw_fault(rng: random.Random) -> dict[str, object]:
    """One seeded fault-plan spec with 1-3 active modes.

    Crashes always come with ``recovery_rounds`` set: a crash-stop plan
    can leave nodes permanently dead, and the differential contract
    (both engines halt identically) is already covered by dedicated
    tests — the fuzzer wants runs that terminate.
    """
    fault: dict[str, object] = {"seed": rng.randrange(1 << 30)}
    for mode in rng.sample(FAULT_MODES, rng.randint(1, 3)):
        fault[f"p_{mode}"] = rng.choice([0.05, 0.1, 0.2, 0.3, 0.5])
    if "p_delay" in fault:
        fault["max_delay"] = rng.randint(1, 3)
    if "p_crash" in fault:
        fault["crash_horizon"] = rng.randint(2, 5)
        fault["recovery_rounds"] = rng.randint(1, 2)
    return fault


def _degrees(nodes: list[int], edges: list[tuple[int, int]]) -> dict[int, int]:
    deg = {v: 0 for v in nodes}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def generate_case(
    seed: int | str,
    pair: str | None = None,
    rng: random.Random | None = None,
) -> FuzzCase:
    """One concrete differential case, a pure function of ``seed``.

    ``pair`` pins the engine pair (default: drawn from
    :data:`GENERATABLE_PAIRS`).  Passing an explicit ``rng`` continues an
    existing stream (the runner derives one stream per iteration).
    """
    rng = rng if rng is not None else random.Random(seed)
    pair = pair if pair is not None else rng.choice(GENERATABLE_PAIRS)
    if pair not in GENERATABLE_PAIRS:
        raise ValueError(
            f"unknown pair {pair!r}; options: {', '.join(GENERATABLE_PAIRS)}"
        )
    g = _relabel(_draw_graph(rng), rng)
    nodes = list(g.nodes)
    rng.shuffle(nodes)  # serialized node order must not leak sortedness
    edges = [(int(u), int(v)) for u, v in g.edges]
    degrees = _degrees(nodes, edges)
    max_degree = max(degrees.values(), default=0)

    defect = 0
    initial_colors: dict[int, int] | None = None
    lists: dict[int, list[int]] | None = None
    space_size: int | None = None
    fault: dict[str, object] | None = None

    if pair == "linial":
        defect = rng.choice([0, 0, 0, 1, 2, 3])
        # The Linial schedule is empty when the initial color space sits
        # at or below its fixed point — which it does for most small fuzz
        # graphs — and a fault plan only bites when rounds actually run.
        # Explicit initial colors are spread far past the fixed point so
        # those cases exercise nonempty schedules.
        span = 40 * (len(nodes) + 1)
        if rng.random() < 0.5:
            # explicit proper input coloring with gaps, unsorted values
            palette = rng.sample(range(span), len(nodes))
            initial_colors = {v: palette[i] for i, v in enumerate(nodes)}
        if rng.random() < 0.4:
            fault = _draw_fault(rng)
            palette = rng.sample(range(span), len(nodes))
            initial_colors = {v: palette[i] for i, v in enumerate(nodes)}
    elif pair == "defective_split":
        defect = rng.randint(0, 3)
    elif pair == "greedy":
        space_size = max_degree + 1 + rng.randint(0, 4)
        lists = {}
        for v in nodes:
            size = min(space_size, degrees[v] + 1 + rng.randint(0, 2))
            lists[v] = sorted(rng.sample(range(space_size), size))
    elif pair == "fk24":
        # the defect budget shrinks the lists: floor(deg/(d+1)) + 1
        # colors suffice, plus a little slack so tie-breaking at the
        # viability boundary gets exercised from both sides
        defect = rng.choice([0, 0, 1, 1, 2, 3])
        space_size = max_degree + 1 + rng.randint(0, 4)
        lists = {}
        for v in nodes:
            need = degrees[v] // (defect + 1) + 1
            size = min(space_size, need + rng.randint(0, 2))
            lists[v] = sorted(rng.sample(range(space_size), size))
        if rng.random() < 0.4:
            fault = _draw_fault(rng)
    # pair == "classic": the graph is the whole configuration

    case = FuzzCase(
        pair=pair,
        nodes=[int(v) for v in nodes],
        edges=edges,
        defect=defect,
        initial_colors=initial_colors,
        lists=lists,
        space_size=space_size,
        fault=fault,
        seed=seed,
    )
    case.check_valid()
    return case
