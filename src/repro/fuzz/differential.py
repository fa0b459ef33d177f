"""Differential execution: reference vs vectorized, plus semantic oracles.

Each :class:`EnginePair` names the two implementations of one algorithm
and how to judge a trial.  :func:`run_case` executes both sides on the
same materialized graph and collects *every* failed check (not just the
first): a divergence report that says "outputs differ AND round 3's bit
totals differ" localizes a bug far better than either alone.

Checked per trial:

1. **no crashes** — either engine raising (including a
   :class:`~repro.sim.referee.RefereeViolation` from the refereed
   reference run) is a failure, with the exception recorded;
2. **output equality** — node-for-node identical assignments;
3. **metrics equality** — identical :meth:`~repro.sim.metrics.RunMetrics.summary`
   counters (rounds, messages, bits, bandwidth budget/violations);
4. **round accounting** — :func:`~repro.obs.compare_round_accounting`
   over the two :class:`~repro.obs.RunRecord`s must report equal rounds,
   equal per-round accounting, equal totals, and equal per-round fault
   counts;
5. **semantic oracles** — the output must actually *be* what the
   algorithm promises, judged by the independent validators of
   :mod:`repro.core.validate`: properness / defect budgets / list
   membership per pair, plus CONGEST bandwidth compliance (zero
   violations against the default budget at fuzz sizes).

The oracles matter because output equality alone would bless two engines
that share a bug; an independent validator cannot.

Cases carrying a fault plan (``case.fault``) run both engines of the
fault-capable pairs (``linial``, ``fk24``) under the identical seeded
adversary.  There the semantic oracle is skipped — a dropped or
corrupted color message can legitimately break properness — and the
trial's contract tightens to pure engine equality, including the
injected fault schedule itself (checks 2-4).  The ``fk24`` pair adds one
wrinkle: corruption can poison its taker knowledge into a legitimate
livelock, so a :class:`~repro.sim.node.HaltingError` on *both* sides
with the same shape is agreement (encoded via ``EngineRun.extra``),
while a halt on one side only is a divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..algorithms.defective import defective_class_partition
from ..algorithms.greedy import greedy_list_coloring
from ..algorithms.linial import run_linial
from ..algorithms.reduction import classic_delta_plus_one
from ..core.instance import delta_plus_one_instance
from ..core.validate import (
    validate_defective_coloring,
    validate_ldc,
    validate_proper_coloring,
)
from ..obs import (
    ENGINE_REFERENCE,
    ENGINE_VECTORIZED,
    RunRecord,
    RunRecorder,
    compare_round_accounting,
)
from ..sim.metrics import RunMetrics
from ..sim.referee import RefereedAlgorithm
from ..sim.vectorized import (
    classic_delta_plus_one_vectorized,
    defective_split_vectorized,
    greedy_list_vectorized,
    linial_vectorized,
)
from .case import FuzzCase


@dataclass
class EngineRun:
    """One engine's view of a trial: assignment + optional accounting.

    ``extra`` carries pair-specific payload the judge must also see
    equal across engines — the ``fk24`` pair stores each node's
    adoption round (the priority its orientation derives from) there,
    or a ``halted`` marker when the run ended in a
    :class:`~repro.sim.node.HaltingError` (an adversary can legitimately
    livelock fk24; *identical* halts on both sides are agreement, a halt
    on one side only is a divergence).
    """

    assignment: dict[int, int]
    metrics: RunMetrics | None = None
    record: RunRecord | None = None
    palette: int | None = None
    extra: dict[str, Any] | None = None


@dataclass(frozen=True)
class EnginePair:
    """Two implementations of one algorithm plus the trial's oracles.

    ``run_reference`` / ``run_vectorized`` take a materialized case and
    return an :class:`EngineRun`; ``oracle`` validates the (agreed)
    output semantically and returns a list of violation strings.
    """

    name: str
    run_reference: Callable[[FuzzCase], EngineRun]
    run_vectorized: Callable[[FuzzCase], EngineRun]
    oracle: Callable[[FuzzCase, EngineRun], list[str]]


@dataclass
class CaseOutcome:
    """Everything :func:`run_case` learned about one trial."""

    case: FuzzCase
    ok: bool
    failures: list[str] = field(default_factory=list)
    reference: EngineRun | None = None
    vectorized: EngineRun | None = None
    accounting: dict[str, Any] | None = None

    def describe(self) -> str:
        head = "OK" if self.ok else "FAIL"
        out = f"{head} {self.case.describe()}"
        for f in self.failures:
            out += f"\n  - {f}"
        return out


# ----------------------------------------------------------------------
# pair definitions
# ----------------------------------------------------------------------
def _case_plan(case: FuzzCase):
    from ..faults import FaultPlan

    return None if case.fault is None else FaultPlan.from_dict(case.fault)


def _ref_linial(case: FuzzCase) -> EngineRun:
    recorder = RunRecorder(engine=ENGINE_REFERENCE)
    result, metrics, palette = run_linial(
        case.graph(),
        initial_colors=case.initial_colors,
        defect=case.defect,
        recorder=recorder,
        wrap=RefereedAlgorithm,
        faults=_case_plan(case),
    )
    return EngineRun(dict(result.assignment), metrics, recorder.record, palette)


def _vec_linial(case: FuzzCase) -> EngineRun:
    recorder = RunRecorder(engine=ENGINE_VECTORIZED)
    result, metrics, palette = linial_vectorized(
        case.graph(),
        initial_colors=case.initial_colors,
        defect=case.defect,
        recorder=recorder,
        faults=_case_plan(case),
    )
    return EngineRun(dict(result.assignment), metrics, recorder.record, palette)


def _oracle_linial(case: FuzzCase, run: EngineRun) -> list[str]:
    from ..core.coloring import ColoringResult

    if case.fault is not None:
        # Under an injected adversary the output has no validity
        # promise (drops/corruptions legitimately break properness);
        # the contract is engine equality, checked by run_case itself.
        return []

    result = ColoringResult(run.assignment)
    g = case.graph()
    if case.defect == 0:
        report = validate_proper_coloring(g, result)
    else:
        report = validate_defective_coloring(g, result, case.defect)
    problems = list(report.violations)
    if run.palette is not None:
        over = [v for v, c in run.assignment.items() if c >= run.palette or c < 0]
        if over:
            problems.append(
                f"colors outside palette {run.palette} at nodes {sorted(over)[:5]}"
            )
    return problems


def _ref_classic(case: FuzzCase) -> EngineRun:
    recorder = RunRecorder(engine=ENGINE_REFERENCE)
    result, metrics = classic_delta_plus_one(
        case.graph(), recorder=recorder, wrap=RefereedAlgorithm
    )
    return EngineRun(dict(result.assignment), metrics, recorder.record)


def _vec_classic(case: FuzzCase) -> EngineRun:
    recorder = RunRecorder(engine=ENGINE_VECTORIZED)
    result, metrics = classic_delta_plus_one_vectorized(
        case.graph(), recorder=recorder
    )
    return EngineRun(dict(result.assignment), metrics, recorder.record)


def _oracle_classic(case: FuzzCase, run: EngineRun) -> list[str]:
    from ..core.coloring import ColoringResult

    g = case.graph()
    instance = delta_plus_one_instance(g)
    # validate_ldc covers list membership (colors within the Delta+1
    # space) and, with all defects zero, properness.
    return list(validate_ldc(instance, ColoringResult(run.assignment)).violations)


def _ref_greedy(case: FuzzCase) -> EngineRun:
    result = greedy_list_coloring(case.instance())
    return EngineRun(dict(result.assignment))


def _vec_greedy(case: FuzzCase) -> EngineRun:
    result = greedy_list_vectorized(case.instance())
    return EngineRun(dict(result.assignment))


def _oracle_greedy(case: FuzzCase, run: EngineRun) -> list[str]:
    from ..core.coloring import ColoringResult

    # list membership + the zero defect budget of every list color
    return list(validate_ldc(case.instance(), ColoringResult(run.assignment)).violations)


def _ref_defective_split(case: FuzzCase) -> EngineRun:
    recorder = RunRecorder(engine=ENGINE_REFERENCE)
    classes, metrics, palette = defective_class_partition(
        case.graph(), case.defect, recorder=recorder, wrap=RefereedAlgorithm
    )
    return EngineRun(dict(classes), metrics, recorder.record, palette)


def _vec_defective_split(case: FuzzCase) -> EngineRun:
    recorder = RunRecorder(engine=ENGINE_VECTORIZED)
    classes, metrics, palette = defective_split_vectorized(
        case.graph(), case.defect, recorder=recorder
    )
    return EngineRun(dict(classes), metrics, recorder.record, palette)


def _oracle_defective_split(case: FuzzCase, run: EngineRun) -> list[str]:
    from ..core.coloring import ColoringResult

    report = validate_defective_coloring(
        case.graph(), ColoringResult(run.assignment), case.defect
    )
    return list(report.violations)


def _halted_fk24(exc, recorder: RunRecorder) -> EngineRun:
    """Encode a legitimate fk24 livelock as a comparable run.

    Corruption can poison a node's taker knowledge so no list color ever
    looks viable again; both engines then idle to the same round budget.
    The halt's shape (round count + unfinished set) and the full
    per-round record stay under differential comparison via ``extra``.
    """
    return EngineRun(
        {},
        None,
        recorder.record,
        None,
        extra={
            "halted": {
                "rounds": int(exc.rounds),
                "unfinished": tuple(sorted(exc.unfinished)),
            }
        },
    )


def _ref_fk24(case: FuzzCase) -> EngineRun:
    from ..algorithms.fk24 import run_fk24
    from ..sim.node import HaltingError

    recorder = RunRecorder(engine=ENGINE_REFERENCE)
    adoption: dict[int, int] = {}
    try:
        result, metrics, palette = run_fk24(
            case.graph(),
            lists=case.lists,
            space_size=case.space_size,
            defect=case.defect,
            recorder=recorder,
            wrap=RefereedAlgorithm,
            faults=_case_plan(case),
            adoption_out=adoption,
        )
    except HaltingError as exc:
        return _halted_fk24(exc, recorder)
    return EngineRun(
        dict(result.assignment),
        metrics,
        recorder.record,
        palette,
        extra={"adoption": adoption},
    )


def _vec_fk24(case: FuzzCase) -> EngineRun:
    from ..sim.node import HaltingError
    from ..sim.vectorized import fk24_vectorized

    recorder = RunRecorder(engine=ENGINE_VECTORIZED)
    adoption: dict[int, int] = {}
    try:
        result, metrics, palette = fk24_vectorized(
            case.graph(),
            lists=case.lists,
            space_size=case.space_size,
            defect=case.defect,
            recorder=recorder,
            faults=_case_plan(case),
            adoption_out=adoption,
        )
    except HaltingError as exc:
        return _halted_fk24(exc, recorder)
    return EngineRun(
        dict(result.assignment),
        metrics,
        recorder.record,
        palette,
        extra={"adoption": adoption},
    )


def _oracle_fk24(case: FuzzCase, run: EngineRun) -> list[str]:
    from ..core.coloring import ColoringResult, orientation_from_priority
    from ..core.validate import validate_arbdefective

    if case.fault is not None:
        # engine equality only — the adversary voids validity promises
        return []
    if run.extra is not None and "halted" in run.extra:
        return [
            "fk24 halted without faults: "
            f"{run.extra['halted']['rounds']} round(s), unfinished "
            f"{list(run.extra['halted']['unfinished'])[:5]}"
        ]
    adoption = (run.extra or {}).get("adoption")
    if adoption is None:
        return ["fk24 run carries no adoption rounds to orient by"]
    g = case.graph()
    result = ColoringResult(
        dict(run.assignment), orientation_from_priority(g, adoption)
    )
    report = validate_arbdefective(case.fk24_instance(), result)
    problems = list(report.violations)
    if run.palette is not None:
        over = [v for v, c in run.assignment.items() if c >= run.palette or c < 0]
        if over:
            problems.append(
                f"colors outside palette {run.palette} at nodes {sorted(over)[:5]}"
            )
    return problems


#: The engine pairs under differential test — every vectorized fast path
#: in :mod:`repro.sim.vectorized` paired with its reference twin.
ENGINE_PAIRS: dict[str, EnginePair] = {
    "linial": EnginePair("linial", _ref_linial, _vec_linial, _oracle_linial),
    "classic": EnginePair("classic", _ref_classic, _vec_classic, _oracle_classic),
    "greedy": EnginePair("greedy", _ref_greedy, _vec_greedy, _oracle_greedy),
    "defective_split": EnginePair(
        "defective_split",
        _ref_defective_split,
        _vec_defective_split,
        _oracle_defective_split,
    ),
    "fk24": EnginePair("fk24", _ref_fk24, _vec_fk24, _oracle_fk24),
}


def _par_linial(case: FuzzCase) -> EngineRun:
    from ..obs import ENGINE_PARTITIONED
    from ..sim.partition import run_partitioned_linial

    recorder = RunRecorder(engine=ENGINE_PARTITIONED)
    # two shards, fork context: the cheapest configuration that still
    # exercises a real boundary exchange per case (differential replay
    # spawns many short runs; fork skips the per-case interpreter boot,
    # while the RSS-honest spawn default stays for benchmarks)
    result, metrics, palette = run_partitioned_linial(
        case.graph(),
        initial_colors=case.initial_colors,
        defect=case.defect,
        recorder=recorder,
        shards=2,
        mp_context="fork",
    )
    return EngineRun(dict(result.assignment), metrics, recorder.record, palette)


#: Reference-vs-**partitioned** pairs: the same reference side and
#: oracle as :data:`ENGINE_PAIRS`' ``linial`` entry with the shard-
#: parallel driver on the fast side.  Linial only — the backend declares
#: the other algorithms unsupported (see
#: :data:`repro.sim.backends.BACKENDS`) — and fault cases must be
#: filtered by the caller (``supports_faults=False``).
PARTITIONED_PAIRS: dict[str, EnginePair] = {
    "linial": EnginePair("linial", _ref_linial, _par_linial, _oracle_linial),
}


def pairs_for_backend(backend: str = "vectorized") -> dict[str, EnginePair]:
    """The engine-pair registry whose fast side runs on ``backend``.

    Resolves through :mod:`repro.sim.backends`, so unknown names raise
    :class:`~repro.sim.backends.UnknownBackendError` and the reference
    backend — the baseline side of every pair, with nothing to compare
    itself against — raises
    :class:`~repro.sim.backends.CapabilityError`.  The ``batched``
    backend shares the vectorized registry (batching is the execution
    strategy selected by ``batch_size``/:func:`run_cases_batched`, not a
    different fast side).
    """
    from ..sim.backends import CapabilityError, get_backend

    spec = get_backend(backend)
    if spec.name in ("vectorized", "batched"):
        return ENGINE_PAIRS
    if spec.name == "partitioned":
        return PARTITIONED_PAIRS
    raise CapabilityError(
        f"backend {backend!r} has no differential pairs: it is the "
        "baseline every pair compares against"
    )


def pair_names() -> tuple[str, ...]:
    """The registered engine-pair names, stable order."""
    return tuple(ENGINE_PAIRS)


# ----------------------------------------------------------------------
# the differential check
# ----------------------------------------------------------------------
def _run_side(
    label: str, fn: Callable[[FuzzCase], EngineRun], case: FuzzCase
) -> tuple[EngineRun | None, str | None]:
    try:
        return fn(case), None
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        return None, f"{label} engine raised {type(exc).__name__}: {exc}"


def _judge_case(
    case: FuzzCase,
    pair: EnginePair,
    ref: EngineRun | None,
    vec: EngineRun | None,
    failures: list[str],
) -> dict[str, Any] | None:
    """The trial's verdict: checks 2-5, appended to ``failures``.

    Shared between :func:`run_case` and :func:`run_cases_batched` so the
    batched path judges with literally the same code (same messages, same
    ordering) as the per-case path.  Returns the round-accounting
    comparison when both records exist.
    """
    accounting: dict[str, Any] | None = None
    if ref is not None and vec is not None:
        if ref.assignment != vec.assignment:
            diff = [
                v
                for v in case.nodes
                if ref.assignment.get(v) != vec.assignment.get(v)
            ]
            failures.append(
                f"outputs differ at {len(diff)} node(s), first "
                f"{sorted(diff)[:5]}: reference "
                f"{[ref.assignment.get(v) for v in sorted(diff)[:5]]} vs "
                f"vectorized {[vec.assignment.get(v) for v in sorted(diff)[:5]]}"
            )
        if ref.palette is not None and vec.palette is not None:
            if ref.palette != vec.palette:
                failures.append(
                    f"palettes differ: {ref.palette} vs {vec.palette}"
                )
        if ref.metrics is not None and vec.metrics is not None:
            sa, sb = ref.metrics.summary(), vec.metrics.summary()
            if sa != sb:
                keys = [k for k in sa if sa[k] != sb.get(k)]
                failures.append(f"metrics summaries differ on {keys}: {sa} vs {sb}")
        if ref.extra is not None or vec.extra is not None:
            if ref.extra != vec.extra:
                failures.append(
                    f"engine extras differ: reference {ref.extra} vs "
                    f"vectorized {vec.extra}"
                )
        if ref.record is not None and vec.record is not None:
            accounting = compare_round_accounting(ref.record, vec.record)
            if not (
                accounting["rounds_equal"]
                and accounting["accounting_equal"]
                and accounting["totals_equal"]
                and accounting["faults_equal"]
            ):
                failures.append(
                    "round accounting diverges: first mismatch at round "
                    f"{accounting['first_mismatch']} "
                    f"({accounting['mismatched_rounds']} mismatched round(s))"
                )
    # semantic oracles judge the vectorized output (the reference output,
    # when present and equal, is covered transitively; when outputs
    # differ both already failed above)
    judged = vec if vec is not None else ref
    if judged is not None:
        for problem in pair.oracle(case, judged):
            failures.append(f"oracle: {problem}")
        if judged.metrics is not None:
            if judged.metrics.bandwidth_violations:
                failures.append(
                    f"oracle: {judged.metrics.bandwidth_violations} bandwidth "
                    f"violation(s) against budget {judged.metrics.bandwidth_limit}"
                )
    return accounting


def run_case(
    case: FuzzCase,
    pairs: dict[str, EnginePair] | None = None,
) -> CaseOutcome:
    """Execute one differential trial; collect every failed check.

    ``pairs`` overrides the registry — the mutation tests inject
    deliberately-broken pairs this way to prove the harness catches,
    shrinks, and serializes real divergences.
    """
    registry = pairs if pairs is not None else ENGINE_PAIRS
    if case.pair not in registry:
        raise KeyError(
            f"unknown engine pair {case.pair!r}; options: {', '.join(registry)}"
        )
    case.check_valid()
    pair = registry[case.pair]
    failures: list[str] = []

    ref, err = _run_side("reference", pair.run_reference, case)
    if err:
        failures.append(err)
    vec, err = _run_side("vectorized", pair.run_vectorized, case)
    if err:
        failures.append(err)
    accounting = _judge_case(case, pair, ref, vec, failures)
    return CaseOutcome(
        case=case,
        ok=not failures,
        failures=failures,
        reference=ref,
        vectorized=vec,
        accounting=accounting,
    )


# ----------------------------------------------------------------------
# the batched differential check
# ----------------------------------------------------------------------
def _vec_linial_batch(cases: list[FuzzCase]) -> list:
    from ..obs import RunRecorder as _RR
    from ..sim.batch import linial_vectorized_batch

    recs = [_RR(engine=ENGINE_VECTORIZED) for _ in cases]
    outs = linial_vectorized_batch(
        [c.graph() for c in cases],
        initial_colors=[c.initial_colors for c in cases],
        defect=[c.defect for c in cases],
        recorders=recs,
        faults=[_case_plan(c) for c in cases],
        return_exceptions=True,
    )
    return [
        out
        if isinstance(out, BaseException)
        else EngineRun(dict(out[0].assignment), out[1], rec.record, out[2])
        for out, rec in zip(outs, recs)
    ]


def _vec_classic_batch(cases: list[FuzzCase]) -> list:
    from ..obs import RunRecorder as _RR
    from ..sim.batch import classic_delta_plus_one_vectorized_batch

    recs = [_RR(engine=ENGINE_VECTORIZED) for _ in cases]
    outs = classic_delta_plus_one_vectorized_batch(
        [c.graph() for c in cases], recorders=recs, return_exceptions=True
    )
    return [
        out
        if isinstance(out, BaseException)
        else EngineRun(dict(out[0].assignment), out[1], rec.record)
        for out, rec in zip(outs, recs)
    ]


def _vec_greedy_batch(cases: list[FuzzCase]) -> list:
    from ..sim.batch import greedy_list_vectorized_batch

    outs = greedy_list_vectorized_batch(
        [c.instance() for c in cases], return_exceptions=True
    )
    return [
        out
        if isinstance(out, BaseException)
        else EngineRun(dict(out.assignment))
        for out in outs
    ]


def _vec_defective_split_batch(cases: list[FuzzCase]) -> list:
    from ..obs import RunRecorder as _RR
    from ..sim.batch import defective_split_vectorized_batch

    recs = [_RR(engine=ENGINE_VECTORIZED) for _ in cases]
    outs = defective_split_vectorized_batch(
        [c.graph() for c in cases],
        defect=[c.defect for c in cases],
        recorders=recs,
        return_exceptions=True,
    )
    return [
        out
        if isinstance(out, BaseException)
        else EngineRun(dict(out[0]), out[1], rec.record, out[2])
        for out, rec in zip(outs, recs)
    ]


def _vec_fk24_batch(cases: list[FuzzCase]) -> list:
    from ..obs import RunRecorder as _RR
    from ..sim.batch import fk24_vectorized_batch
    from ..sim.node import HaltingError

    recs = [_RR(engine=ENGINE_VECTORIZED) for _ in cases]
    outs_adoption: list[dict[int, int]] = [{} for _ in cases]
    outs = fk24_vectorized_batch(
        [c.graph() for c in cases],
        lists=[c.lists for c in cases],
        space_size=[c.space_size for c in cases],
        defect=[c.defect for c in cases],
        recorders=recs,
        faults=[_case_plan(c) for c in cases],
        return_exceptions=True,
        adoption_outs=outs_adoption,
    )
    sides = []
    for out, rec, adoption in zip(outs, recs, outs_adoption):
        if isinstance(out, HaltingError):
            # identical-halt agreement, as in the per-case runners
            sides.append(_halted_fk24(out, rec))
        elif isinstance(out, BaseException):
            sides.append(out)
        else:
            sides.append(
                EngineRun(
                    dict(out[0].assignment),
                    out[1],
                    rec.record,
                    out[2],
                    extra={"adoption": adoption},
                )
            )
    return sides


#: Batched vectorized twins of the default pairs' ``run_vectorized``
#: sides; a registry entry must *equal* the default pair for its batched
#: side to apply (mutated pairs always run per-case).
_VEC_BATCH: dict[str, Callable[[list[FuzzCase]], list]] = {
    "linial": _vec_linial_batch,
    "classic": _vec_classic_batch,
    "greedy": _vec_greedy_batch,
    "defective_split": _vec_defective_split_batch,
    "fk24": _vec_fk24_batch,
}


def _batched_runner(
    name: str, pair: EnginePair
) -> Callable[[list[FuzzCase]], list] | None:
    """The batched fast side for ``pair``, or ``None`` to run per-case.

    Dispatch is by *value* equality against the stock registry:
    ``dataclasses.replace`` copies of a stock pair (e.g. a caller-built
    ``pairs=`` dict) keep their batched path, while genuinely mutated
    pairs — different callables or oracles — fall back to per-case
    execution, where their overridden ``run_vectorized`` actually runs.
    """
    if pair == ENGINE_PAIRS.get(name):
        return _VEC_BATCH.get(name)
    return None


def run_cases_batched(
    cases: list[FuzzCase],
    pairs: dict[str, EnginePair] | None = None,
) -> list[CaseOutcome]:
    """Differential trials with the vectorized side batched per pair.

    All cases of one stock pair run as a single block-diagonal
    :mod:`repro.sim.batch` execution; the reference side, the judge, and
    the oracles are per-case, so each :class:`CaseOutcome` — messages,
    ordering, accounting — is identical to :func:`run_case`'s.  Batching
    is resolved by :func:`_batched_runner` *value* equality, so a
    ``pairs=`` registry holding copies of stock pairs keeps the batched
    path; genuinely mutated pairs and singleton groups fall back to
    :func:`run_case`.
    """
    registry = pairs if pairs is not None else ENGINE_PAIRS
    outcomes: list[CaseOutcome | None] = [None] * len(cases)
    by_pair: dict[str, list[int]] = {}
    for i, case in enumerate(cases):
        if case.pair not in registry:
            raise KeyError(
                f"unknown engine pair {case.pair!r}; options: "
                f"{', '.join(registry)}"
            )
        case.check_valid()
        by_pair.setdefault(case.pair, []).append(i)
    for name, idxs in by_pair.items():
        pair = registry[name]
        batch_fn = _batched_runner(name, pair)
        if batch_fn is None or len(idxs) < 2:
            for i in idxs:
                outcomes[i] = run_case(cases[i], pairs=registry)
            continue
        vec_sides = batch_fn([cases[i] for i in idxs])
        for i, side in zip(idxs, vec_sides):
            case = cases[i]
            failures: list[str] = []
            ref, err = _run_side("reference", pair.run_reference, case)
            if err:
                failures.append(err)
            if isinstance(side, BaseException):
                vec = None
                failures.append(
                    f"vectorized engine raised {type(side).__name__}: {side}"
                )
            else:
                vec = side
            accounting = _judge_case(case, pair, ref, vec, failures)
            outcomes[i] = CaseOutcome(
                case=case,
                ok=not failures,
                failures=failures,
                reference=ref,
                vectorized=vec,
                accounting=accounting,
            )
    return outcomes  # type: ignore[return-value]
