"""Compiled (numba) round kernels with a bit-identical numpy fallback.

The vectorized fast paths in :mod:`repro.sim.vectorized` spend their
time in a handful of round kernels — the Linial collision count, the
sequential greedy scan, the defective-split validation — all pure
integer loops over CSR arrays.  This module provides compiled twins of
those kernels behind the ``compiled`` backend of
:mod:`repro.sim.backends`:

* with **numba** installed, the Linial round runs as a single
  ``@njit(parallel=True)`` kernel — per-node digit extraction, Horner
  evaluation over all of F_q, neighbor-scan collision counting, and the
  argmin tie-break fused into one pass, thread-parallel across nodes
  (and, in the batched path, across the existing
  :data:`~repro.sim.batch._TILE_NODES` tiles);
* without numba, every entry point degrades to a **numpy fallback**
  built from the same :mod:`repro.sim.engine` primitives the vectorized
  paths use, so behavior is identical in both modes and CI (where numba
  is absent) still exercises the full driver, accounting, and
  equivalence battery.

**Equivalence contract**: every function here is bit-identical to its
vectorized twin — same outputs, same synthesized metrics, same
per-round :class:`~repro.obs.RunRecord` rows.  The compiled argmin uses
a strict ``<`` comparison so ties resolve to the smallest evaluation
point, exactly like numpy's first-occurrence ``argmin`` (the reference
tie-break).  The contract is enforced by ``tests/test_compiled.py`` and
the differential fuzz pairs of
:func:`repro.fuzz.differential.pairs_for_backend`.

Fault injection is **not** supported (the mask-based faulty kernel's
delivery buffers do not map onto the per-node loop); a ``faults=`` plan
raises :class:`~repro.sim.backends.CapabilityError` so callers fail
fast instead of silently running fault-free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import networkx as nx

from ..core.coloring import ColoringResult
from .engine import (
    CSRGraph,
    as_csr,
    collision_counts,
    equal_neighbor_counts,
    poly_digits,
    poly_eval_grid,
    ragged_lists,
    record_uniform_round,
    synthesized_metrics,
)
from .message import int_bits
from .metrics import RunMetrics
from .vectorized import _phase

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> sim)
    from ..obs import RunRecorder

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit, prange

    NUMBA_AVAILABLE = True
    NUMBA_UNAVAILABLE_REASON: str | None = None
except ImportError:  # numpy fallback: same math, no compilation
    NUMBA_AVAILABLE = False
    NUMBA_UNAVAILABLE_REASON = (
        "numba is not installed; the compiled backend runs its "
        "bit-identical numpy fallback"
    )

    def njit(*args, **kwargs):  # noqa: ANN001 - decorator shim
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap

    prange = range


def _capability_error(what: str):
    from .backends import CapabilityError

    return CapabilityError(what)


# ----------------------------------------------------------------------
# the Linial round kernel
# ----------------------------------------------------------------------
@njit(parallel=True, cache=True)
def _linial_round_kernel(indptr, indices, colors, q, deg):  # pragma: no cover
    """One Linial step over a CSR adjacency, thread-parallel per node.

    Phase 1 evaluates every node's base-``q`` polynomial at every x in
    F_q (per-node digits + Horner, matching
    :func:`~repro.sim.engine.poly_eval_grid` value for value); phase 2
    counts, per node and evaluation point, the neighbors whose
    evaluation agrees, then takes the argmin with a strict ``<``
    comparison — first occurrence, i.e. the smallest evaluation point
    among minimal collision counts, numpy's ``argmin`` tie-break.
    """
    n = colors.shape[0]
    evals = np.empty((n, q), dtype=np.int64)
    for i in prange(n):
        digits = np.empty(deg + 1, dtype=np.int64)
        c = colors[i]
        for t in range(deg + 1):
            digits[t] = c % q
            c //= q
        for x in range(q):
            acc = np.int64(0)
            for t in range(deg, -1, -1):
                acc = (acc * x + digits[t]) % q
            evals[i, x] = acc
    out = np.empty(n, dtype=np.int64)
    for i in prange(n):
        best_x = 0
        best_hits = np.int64(np.iinfo(np.int64).max)
        for x in range(q):
            own = evals[i, x]
            hits = np.int64(0)
            for p in range(indptr[i], indptr[i + 1]):
                if evals[indices[p], x] == own:
                    hits += 1
            if hits < best_hits:  # strict: first occurrence wins ties
                best_hits = hits
                best_x = x
        out[i] = best_x * q + evals[i, best_x]
    return out


def _linial_round_numpy(csr, colors: np.ndarray, q: int, deg: int) -> np.ndarray:
    """The fallback round: the vectorized loop body, verbatim math.

    ``csr`` duck-types as the adjacency of
    :func:`~repro.sim.engine.collision_counts` (a
    :class:`~repro.sim.engine.CSRGraph` or
    :class:`~repro.sim.batch.BatchCSRGraph`).
    """
    evals = poly_eval_grid(poly_digits(colors, q, deg), q)  # (q, n)
    hits = collision_counts(csr, evals)  # (q, n) int64
    best_x = np.argmin(hits, axis=0)  # first occurrence = smallest x
    return best_x * q + evals[best_x, np.arange(colors.shape[0])]


def linial_round_compiled(csr, colors: np.ndarray, q: int, deg: int) -> np.ndarray:
    """One Linial ``(q, deg)`` step: compiled kernel or numpy fallback."""
    if NUMBA_AVAILABLE:
        return _linial_round_kernel(csr.indptr, csr.indices, colors, q, deg)
    return _linial_round_numpy(csr, colors, q, deg)


# ----------------------------------------------------------------------
# drivers (compiled twins of the vectorized fast paths)
# ----------------------------------------------------------------------
def linial_compiled(
    graph: "nx.Graph | CSRGraph",
    initial_colors: dict[int, int] | None = None,
    defect: int = 0,
    recorder: "RunRecorder | None" = None,
    faults=None,
    _finalize_recorder: bool = True,
) -> tuple[ColoringResult, RunMetrics, int]:
    """Compiled twin of :func:`repro.sim.vectorized.linial_vectorized`.

    Identical ``(coloring, metrics, palette)`` triple and identical
    per-round recorder rows; the only difference is the round kernel
    (:func:`linial_round_compiled`).  The driver loop, schedule, and
    accounting are plain Python in both modes, so CI without numba still
    exercises everything but the jitted inner loop.  ``graph`` may be a
    frozen :class:`~repro.sim.engine.CSRGraph`.  ``faults`` raises
    :class:`~repro.sim.backends.CapabilityError` — the compiled backend
    declares ``supports_faults=False``.
    """
    if faults is not None:
        raise _capability_error(
            "backend 'compiled' does not support fault injection "
            "(supports_faults=False); run faulty cells on the "
            "'vectorized' backend"
        )
    from ..algorithms.linial import defective_schedule, linial_schedule

    with _phase(recorder, "csr_build"):
        csr = as_csr(graph)
    n = csr.n
    delta = int(csr.degrees.max()) if n else 0
    if initial_colors is None:
        initial_colors = {v: i for i, v in enumerate(csr.nodes)}
    m0 = max(initial_colors.values()) + 1 if initial_colors else 1
    with _phase(recorder, "schedule"):
        sched = (
            linial_schedule(m0, delta)
            if defect == 0
            else defective_schedule(m0, delta, defect)
        )
    palette = sched[-1].out_colors if sched else m0

    colors = csr.gather(initial_colors)
    metrics = synthesized_metrics(n)
    bits = int_bits(max(1, m0 - 1))
    per_round_messages = csr.num_directed_edges

    with _phase(recorder, "rounds"):
        for step in sched:
            colors = linial_round_compiled(csr, colors, step.q, step.deg)
            record_uniform_round(
                metrics, recorder, per_round_messages, bits, active=n
            )

    result = ColoringResult(csr.scatter(colors))
    if recorder is not None and _finalize_recorder:
        recorder.finalize(
            metrics,
            n=n,
            m=csr.num_directed_edges // 2,
            palette=palette,
            algorithm=recorder.algorithm or "linial_compiled",
        )
    return result, metrics, palette


@njit(cache=True)
def _greedy_kernel(
    indptr, indices, list_indptr, list_values, order, final
):  # pragma: no cover - compiled only where numba is installed
    """Sequential greedy scan: first list color no colored neighbor holds.

    Returns the dense index of the first stuck node, or -1.  Sequential
    by contract (node ``order`` is the algorithm), so no ``prange``.
    """
    for oi in range(order.shape[0]):
        i = order[oi]
        picked = np.int64(-1)
        for p in range(list_indptr[i], list_indptr[i + 1]):
            c = list_values[p]
            free = True
            for e in range(indptr[i], indptr[i + 1]):
                if final[indices[e]] == c:
                    free = False
                    break
            if free:
                picked = c
                break
        if picked < 0:
            return i
        final[i] = picked
    return np.int64(-1)


def greedy_list_compiled(
    instance,
    order: list[int] | None = None,
    _csr: CSRGraph | None = None,
) -> ColoringResult:
    """Compiled twin of :func:`repro.sim.vectorized.greedy_list_vectorized`.

    Same contract — zero-defect list instances, sorted-label default
    order, first-free-color rule — with the per-node scan jitted when
    numba is available and run as the vectorized per-node numpy loop
    otherwise.  Outputs match the vectorized (and hence the reference)
    greedy node for node.  ``_csr`` (internal) reuses an already-built
    CSR of ``instance.graph``.
    """
    if instance.directed:
        raise ValueError("greedy_list_compiled expects an undirected instance")
    if any(d for dv in instance.defects.values() for d in dv.values()):
        raise ValueError(
            "greedy_list_compiled handles zero-defect instances only; "
            "use repro.algorithms.greedy.greedy_list_coloring for defects"
        )
    csr = _csr if _csr is not None else CSRGraph.from_networkx(instance.graph)
    list_indptr, list_values = ragged_lists(csr, instance.lists)
    final = np.full(csr.n, -1, dtype=np.int64)
    dense_order = np.array(
        [
            csr.index[v]
            for v in (order if order is not None else sorted(csr.nodes))
        ],
        dtype=np.int64,
    )
    if NUMBA_AVAILABLE:
        stuck = int(
            _greedy_kernel(
                csr.indptr, csr.indices, list_indptr, list_values,
                dense_order, final,
            )
        )
        if stuck >= 0:
            raise ValueError(f"greedy stuck at node {csr.nodes[stuck]}")
    else:
        for i in dense_order:
            neigh_colors = final[csr.neighbors_of(i)]
            neigh_colors = neigh_colors[neigh_colors >= 0]
            lst = list_values[list_indptr[i] : list_indptr[i + 1]]
            free = lst[~np.isin(lst, neigh_colors)]
            if not free.size:
                raise ValueError(f"greedy stuck at node {csr.nodes[i]}")
            final[i] = free[0]
    return ColoringResult(csr.scatter(final))


def defective_split_compiled(
    graph: "nx.Graph | CSRGraph",
    defect: int,
    validate: bool = True,
    recorder: "RunRecorder | None" = None,
) -> tuple[dict[int, int], RunMetrics, int]:
    """Compiled twin of
    :func:`repro.sim.vectorized.defective_split_vectorized`: the Linial
    stage runs through :func:`linial_compiled`, the defect validation
    through the shared integer-bincount kernel, with the identical
    error message and finalize contract (a frozen ``graph`` included).
    """
    if defect < 0:
        raise ValueError(f"defect must be >= 0, got {defect}")
    with _phase(recorder, "csr_build"):
        csr = as_csr(graph)
    result, metrics, palette = linial_compiled(
        csr, defect=defect, recorder=recorder, _finalize_recorder=False
    )
    if validate:
        with _phase(recorder, "validate"):
            colors = csr.gather(result.assignment)
            same = equal_neighbor_counts(csr, colors)
            if same.size and int(same.max()) > defect:
                bad = csr.nodes[int(np.argmax(same))]
                raise ValueError(
                    f"defective split invalid: node {bad} has {int(same.max())} "
                    f"same-class neighbors (allowed {defect})"
                )
    if recorder is not None:
        recorder.finalize(
            metrics,
            n=csr.n,
            m=csr.num_directed_edges // 2,
            palette=palette,
            algorithm=recorder.algorithm or "defective_split_compiled",
        )
    return dict(result.assignment), metrics, palette


# ----------------------------------------------------------------------
# batched execution
# ----------------------------------------------------------------------
def _compiled_rounds_batch(batch, scheds: list, colors: np.ndarray) -> np.ndarray:
    """Compiled rounds hook for
    :func:`repro.sim.batch.linial_vectorized_batch`: the same
    round-major / ``(q, deg)``-group / :data:`~repro.sim.batch._TILE_NODES`
    tiling as :func:`~repro.sim.batch._linial_rounds_batch`, with each
    tile's grid evaluation + collision count replaced by one
    thread-parallel :func:`_linial_round_kernel` launch over the tile's
    concatenated CSR.
    """
    from .batch import BatchCSRGraph, _node_tiles, _write_back

    if not batch.k:
        return colors
    max_len = max(len(s) for s in scheds)
    node_counts = [m.n for m in batch.members]
    sub_memo: dict[tuple[int, ...], BatchCSRGraph] = {}
    for r in range(max_len):
        groups: dict[tuple[int, int], list[int]] = {}
        for j, sched in enumerate(scheds):
            if r < len(sched):
                step = sched[r]
                groups.setdefault((step.q, step.deg), []).append(j)
        for (q, deg), js in sorted(groups.items()):
            for tile in _node_tiles(js, node_counts):
                if len(tile) == batch.k:
                    colors = linial_round_compiled(batch, colors, q, deg)
                    continue
                sub = sub_memo.get(tile)
                if sub is None:
                    sub = BatchCSRGraph.from_csrs(
                        [batch.members[j] for j in tile]
                    )
                    sub_memo[tile] = sub
                sub_colors = np.concatenate(
                    [colors[batch.node_slice(j)] for j in tile]
                )
                _write_back(
                    batch,
                    list(tile),
                    colors,
                    linial_round_compiled(sub, sub_colors, q, deg),
                )
    return colors


def linial_compiled_batch(
    graphs,
    initial_colors=None,
    defect=0,
    recorders=None,
    faults=None,
    return_exceptions: bool = False,
) -> list:
    """Batched twin of :func:`linial_compiled` (one
    ``(ColoringResult, RunMetrics, palette)`` triple per instance).

    Delegates to :func:`~repro.sim.batch.linial_vectorized_batch` with
    the compiled rounds hook substituted, so the packing, per-instance
    termination, accounting, and quarantine semantics are literally the
    batched vectorized path's; only the fault-free round kernel differs
    (and, without numba, not even that — the hook's fallback is the
    vectorized math).  ``faults`` plans raise
    :class:`~repro.sim.backends.CapabilityError`.
    """
    from .batch import linial_vectorized_batch

    if faults is not None and any(p is not None for p in faults):
        raise _capability_error(
            "backend 'compiled' does not support fault injection "
            "(supports_faults=False); run faulty batches on the "
            "'vectorized' backend"
        )
    return linial_vectorized_batch(
        graphs,
        initial_colors=initial_colors,
        defect=defect,
        recorders=recorders,
        return_exceptions=return_exceptions,
        _rounds=_compiled_rounds_batch,
    )
