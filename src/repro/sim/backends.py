"""The explicit engine-backend registry.

Engine selection used to be implicit: string matching in
``repro.fuzz.differential.ENGINE_PAIRS``, a hand-maintained
``BATCHABLE_ALGORITHMS`` tuple in ``repro.experiments.sweep``, and an
identity check picking the batched fuzz path.  Each new backend widened
that scattered dispatch surface.  This module replaces it with one
declaration: every backend is a :class:`BackendSpec` naming its
capabilities (``supports_faults``, ``supports_batch``,
``bit_identical_to``) and, per canonical algorithm, an
:class:`AlgorithmSupport` entry — supported or explicitly not, with the
sweep algorithm names and batchability it provides.  Consumers resolve
through the registry:

* the sweep picks each cell's recorder engine label via
  :func:`backend_of_sweep_algorithm`, and the registry tests hold
  :func:`batchable_sweep_algorithms` equal to the sweep's
  :data:`~repro.experiments.sweep.FAST_PATHS`;
* the fuzz runner resolves its pair registry per backend through
  :func:`repro.fuzz.differential.pairs_for_backend` and its batched
  dispatch by name + value equality (never identity);
* ``repro-cli backends`` renders the table.

Errors are structured, never bare ``KeyError``:
:class:`UnknownBackendError` for names outside the registry,
:class:`CapabilityError` for requests a known backend cannot serve
(faults on a backend without ``supports_faults``, an algorithm it
declares unsupported).  The tests that loop over the registry
(``tests/test_registry.py``, ``tests/test_conformance_grid.py``) fail
the suite when a backend forgets to declare itself or a declared sweep
name has no runner — not a user's sweep.

The five canonical algorithms are :data:`ALGORITHMS`; every backend
must declare an entry for each (``supported=False`` with a ``note`` is
a declaration too — silence is what the registry tests forbid).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

#: The canonical algorithm families every backend must declare.
ALGORITHMS: tuple[str, ...] = (
    "classic",
    "defective_split",
    "fk24",
    "greedy",
    "linial",
)


class BackendError(Exception):
    """Base of every registry-resolution error (never a bare KeyError)."""


class UnknownBackendError(BackendError):
    """The requested backend name is not in the registry."""


class CapabilityError(BackendError):
    """A known backend cannot serve the requested capability."""


@dataclass(frozen=True)
class AlgorithmSupport:
    """One backend's declaration for one canonical algorithm.

    ``sweep_names`` are the :mod:`repro.experiments.sweep` algorithm
    names this backend serves for the family; ``batched`` marks the
    names as batchable (block-diagonal execution).  ``supported=False``
    entries carry a ``note`` saying why — an explicit refusal, so the
    registry tests can tell "declared unsupported" from "forgotten".
    """

    supported: bool = True
    batched: bool = False
    sweep_names: tuple[str, ...] = ()
    note: str = ""


@dataclass(frozen=True)
class BackendSpec:
    """One execution backend and its capability surface.

    ``engine`` is the :class:`~repro.obs.RunRecorder` engine label runs
    on this backend carry; ``bit_identical_to`` names the backend whose
    outputs, metrics, and per-round records this one must reproduce
    exactly (the standing equivalence contract).  ``supports_serve``
    marks a backend whose kernels the :mod:`repro.serve` continuous-
    batching daemon can schedule on — it requires round-stepped
    execution with mid-run membership changes, which drain-style
    drivers (reference, partitioned) do not expose.
    """

    name: str
    description: str
    engine: str
    supports_faults: bool
    supports_batch: bool
    supports_serve: bool
    bit_identical_to: str | None
    algorithms: Mapping[str, AlgorithmSupport] = field(default_factory=dict)

    def algorithm_support(self, algorithm: str) -> AlgorithmSupport:
        """The declared entry for ``algorithm`` (structured errors)."""
        entry = self.algorithms.get(algorithm)
        if entry is None:
            raise CapabilityError(
                f"backend {self.name!r} declares no entry for algorithm "
                f"{algorithm!r}; known algorithms: {', '.join(ALGORITHMS)}"
            )
        return entry


def _spec(name, description, engine, *, faults, batch, serve=False,
          identical_to, algorithms) -> BackendSpec:
    return BackendSpec(
        name=name,
        description=description,
        engine=engine,
        supports_faults=faults,
        supports_batch=batch,
        supports_serve=serve,
        bit_identical_to=identical_to,
        algorithms=MappingProxyType(dict(algorithms)),
    )


#: The registry.  Insertion order is the canonical display order.
BACKENDS: dict[str, BackendSpec] = {
    "reference": _spec(
        "reference",
        "per-message reference simulator (SyncNetwork); the baseline "
        "every other backend must reproduce",
        "reference",
        faults=True,
        batch=False,
        identical_to=None,
        algorithms={
            "classic": AlgorithmSupport(sweep_names=("classic",)),
            "defective_split": AlgorithmSupport(),
            "fk24": AlgorithmSupport(sweep_names=("fk24",)),
            "greedy": AlgorithmSupport(sweep_names=("greedy",)),
            "linial": AlgorithmSupport(
                sweep_names=("linial", "linial_faulty", "linial_resilient"),
            ),
        },
    ),
    "vectorized": _spec(
        "vectorized",
        "numpy CSR fast paths (repro.sim.vectorized)",
        "vectorized",
        faults=True,
        batch=True,
        serve=True,
        identical_to="reference",
        algorithms={
            "classic": AlgorithmSupport(
                batched=True, sweep_names=("classic_vectorized",)
            ),
            "defective_split": AlgorithmSupport(
                batched=True, sweep_names=("defective_split",)
            ),
            "fk24": AlgorithmSupport(
                batched=True, sweep_names=("fk24_vectorized",)
            ),
            "greedy": AlgorithmSupport(
                batched=True, sweep_names=("greedy_vectorized",)
            ),
            "linial": AlgorithmSupport(
                batched=True,
                sweep_names=("linial_vectorized", "linial_faulty_vectorized"),
            ),
        },
    ),
    "batched": _spec(
        "batched",
        "block-diagonal multi-instance execution (repro.sim.batch); an "
        "execution strategy over the vectorized kernels, not a separate "
        "sweep algorithm namespace",
        "vectorized",
        faults=True,
        batch=True,
        serve=True,
        identical_to="vectorized",
        algorithms={
            "classic": AlgorithmSupport(batched=True),
            "defective_split": AlgorithmSupport(batched=True),
            "fk24": AlgorithmSupport(batched=True),
            "greedy": AlgorithmSupport(batched=True),
            "linial": AlgorithmSupport(batched=True),
        },
    ),
    "partitioned": _spec(
        "partitioned",
        "edge-cut sharded multiprocess execution with per-round ghost-"
        "color exchange over shared memory (repro.sim.partition)",
        "partitioned",
        faults=False,
        batch=False,
        identical_to="vectorized",
        algorithms={
            "classic": AlgorithmSupport(
                supported=False,
                note="the classic pipeline's schedule reduction finalizes "
                "one color class per round — a global sequential order the "
                "shard-parallel driver does not yet express; run it on the "
                "vectorized backend",
            ),
            "defective_split": AlgorithmSupport(
                supported=False,
                note="the split's Linial core runs partitioned, but the "
                "pipeline wrapper (validation + class relabeling) is not "
                "yet sharded; run it on the vectorized backend",
            ),
            "fk24": AlgorithmSupport(
                supported=False,
                note="adoption depends on same-round cross-shard tries, so "
                "the ghost exchange would need a second sub-round per "
                "round; run it on the vectorized backend",
            ),
            "greedy": AlgorithmSupport(
                supported=False,
                note="sequential greedy is an inherently global node order; "
                "sharding it would change the algorithm",
            ),
            # no sweep names yet: the backend targets single huge
            # instances (repro-cli partition-run / bench_partition),
            # not the many-small-cells sweep grid
            "linial": AlgorithmSupport(),
        },
    ),
}


# ----------------------------------------------------------------------
# resolution
# ----------------------------------------------------------------------
def backend_names() -> tuple[str, ...]:
    """The registered backend names, display order."""
    return tuple(BACKENDS)


def get_backend(name: str) -> BackendSpec:
    """The spec of a registered backend (:class:`UnknownBackendError`
    otherwise — never a bare ``KeyError``)."""
    spec = BACKENDS.get(name)
    if spec is None:
        raise UnknownBackendError(
            f"unknown backend {name!r}; options: {', '.join(BACKENDS)}"
        )
    return spec


def require(
    name: str,
    algorithm: str | None = None,
    faults: bool = False,
    batch: bool = False,
    serve: bool = False,
) -> BackendSpec:
    """Resolve a backend and fail fast on capability mismatches.

    Raises :class:`UnknownBackendError` for unregistered names and
    :class:`CapabilityError` when the backend declares the requested
    ``algorithm`` unsupported, lacks ``supports_faults`` for a faulty
    request, lacks ``supports_batch`` for a batched one, or lacks
    ``supports_serve`` for the continuous-batching daemon.
    """
    spec = get_backend(name)
    if algorithm is not None:
        entry = spec.algorithm_support(algorithm)
        if not entry.supported:
            note = f": {entry.note}" if entry.note else ""
            raise CapabilityError(
                f"backend {name!r} does not support algorithm "
                f"{algorithm!r}{note}"
            )
    if faults and not spec.supports_faults:
        raise CapabilityError(
            f"backend {name!r} does not support fault injection "
            f"(supports_faults=False); fault-capable backends: "
            f"{', '.join(b for b, s in BACKENDS.items() if s.supports_faults)}"
        )
    if batch and not spec.supports_batch:
        raise CapabilityError(
            f"backend {name!r} does not support batched execution "
            f"(supports_batch=False); batch-capable backends: "
            f"{', '.join(b for b, s in BACKENDS.items() if s.supports_batch)}"
        )
    if serve and not spec.supports_serve:
        raise CapabilityError(
            f"backend {name!r} cannot back the serving daemon "
            f"(supports_serve=False); serve-capable backends: "
            f"{', '.join(b for b, s in BACKENDS.items() if s.supports_serve)}"
        )
    return spec


def batchable_sweep_algorithms() -> tuple[str, ...]:
    """Every sweep algorithm name some backend declares batchable.

    Every one has a runner in :data:`repro.experiments.sweep.FAST_PATHS`,
    which batches them (``tests/test_registry.py`` holds the two equal);
    order follows registry declaration order, deduplicated.
    """
    out: list[str] = []
    for spec in BACKENDS.values():
        for algorithm in ALGORITHMS:
            entry = spec.algorithms.get(algorithm)
            if entry is None or not entry.batched:
                continue
            for sweep_name in entry.sweep_names:
                if sweep_name not in out:
                    out.append(sweep_name)
    return tuple(out)


def backend_of_sweep_algorithm(sweep_name: str) -> BackendSpec:
    """The unique backend declaring ``sweep_name`` as a sweep algorithm.

    Raises :class:`UnknownBackendError` when no backend declares it (the
    algorithm is registry-only or mistyped) — and fails loudly on a
    duplicate declaration, which would make the engine label ambiguous.
    """
    owners = [
        spec
        for spec in BACKENDS.values()
        if any(
            sweep_name in entry.sweep_names
            for entry in spec.algorithms.values()
        )
    ]
    if not owners:
        raise UnknownBackendError(
            f"no backend declares sweep algorithm {sweep_name!r}"
        )
    if len(owners) > 1:
        raise CapabilityError(
            f"sweep algorithm {sweep_name!r} is declared by multiple "
            f"backends ({', '.join(s.name for s in owners)}); the engine "
            "label would be ambiguous"
        )
    return owners[0]


def describe() -> str:
    """Human-readable registry table (``repro-cli backends``)."""
    lines = []
    for spec in BACKENDS.values():
        lines.append(f"{spec.name}:")
        lines.append(f"  {spec.description}")
        caps = [
            f"engine={spec.engine}",
            f"supports_faults={spec.supports_faults}",
            f"supports_batch={spec.supports_batch}",
            f"supports_serve={spec.supports_serve}",
            f"bit_identical_to={spec.bit_identical_to or '-'}",
        ]
        lines.append("  " + " ".join(caps))
        for algorithm in ALGORITHMS:
            entry = spec.algorithms.get(algorithm)
            if entry is None:
                lines.append(f"    {algorithm}: UNDECLARED")
                continue
            if not entry.supported:
                lines.append(f"    {algorithm}: unsupported — {entry.note}")
                continue
            detail = ", ".join(entry.sweep_names) or "(no sweep name)"
            if entry.batched:
                detail += " [batched]"
            lines.append(f"    {algorithm}: {detail}")
    return "\n".join(lines)
