"""The differential fuzz harness: generator, runner, shrinker, corpus.

The mutation tests are the subsystem's own acceptance criteria: a
deliberately injected engine divergence must be *caught* by
``run_case``, *shrunk* to a tiny instance, and *serialized* into a
corpus entry that replays green once the (injected) bug is gone.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.fuzz import (
    ENGINE_PAIRS,
    PARTITIONED_PAIRS,
    FuzzCase,
    case_filename,
    fuzz_run,
    generate_case,
    load_case,
    load_corpus,
    pair_names,
    replay_corpus,
    run_case,
    save_case,
    shrink_case,
)
from repro.fuzz.differential import EngineRun
from repro.fuzz.generator import GENERATABLE_PAIRS
from repro.fuzz.shrink import default_predicate

CORPUS_DIR = Path(__file__).parent / "corpus"


class TestGenerator:
    def test_deterministic(self):
        for seed in ("0:0:linial", "3:9:greedy", 42):
            a, b = generate_case(seed), generate_case(seed)
            assert a.to_dict() == b.to_dict()

    def test_seeds_diversify(self):
        dicts = {json.dumps(generate_case(s).to_dict(), sort_keys=True)
                 for s in range(20)}
        assert len(dicts) > 10

    def test_cases_valid_across_pairs_and_seeds(self):
        for pair in pair_names():
            for seed in range(15):
                case = generate_case(f"{seed}:0:{pair}", pair=pair)
                case.check_valid()  # raises on inconsistency
                assert case.pair == pair
                assert case.n >= 1

    def test_covers_unsorted_noncontiguous_labels(self):
        shuffled = 0
        for seed in range(40):
            case = generate_case(f"lbl:{seed}", pair="linial")
            labels = case.nodes
            if sorted(labels) != list(range(len(labels))):
                shuffled += 1
        assert shuffled > 10  # label regimes beyond 0..n-1 are actually hit

    def test_generatable_pairs_match_registry(self):
        """``generate_case`` draws the pair with ``rng.choice`` over this
        tuple, so its order is part of every seed's case (the corpus and
        the CI fuzz smokes replay by seed)."""
        assert GENERATABLE_PAIRS == tuple(ENGINE_PAIRS) == (
            "linial", "classic", "greedy", "defective_split", "fk24"
        )

    def test_unknown_pair_rejected(self):
        with pytest.raises(ValueError, match="unknown pair"):
            generate_case(0, pair="nope")


class TestDifferentialGreen:
    """The real engines pass the differential check across the space."""

    @pytest.mark.parametrize("pair", sorted(ENGINE_PAIRS))
    def test_pairs_green_on_seed_range(self, pair):
        for seed in range(6):
            case = generate_case(f"green:{seed}:{pair}", pair=pair)
            outcome = run_case(case)
            assert outcome.ok, outcome.describe()

    def test_accounting_populated_for_recorded_pairs(self):
        case = generate_case("acct:0", pair="linial")
        outcome = run_case(case)
        assert outcome.accounting is not None
        assert outcome.accounting["accounting_equal"]
        assert outcome.reference.record.engine == "reference"
        assert outcome.vectorized.record.engine == "vectorized"

    def test_unknown_pair_rejected(self):
        case = generate_case("x:0", pair="linial").replace(pair="bogus")
        with pytest.raises(KeyError, match="bogus"):
            run_case(case)


def _broken_registry(pair_name, mutate):
    """Registry with one pair's vectorized side wrapped by ``mutate``."""
    real = ENGINE_PAIRS[pair_name]

    def broken(case):
        return mutate(case, real.run_vectorized(case))

    return {**ENGINE_PAIRS, pair_name: dataclasses.replace(real, run_vectorized=broken)}


def _perturb_max_label(case, run: EngineRun) -> EngineRun:
    victim = max(run.assignment)
    run.assignment[victim] += 1
    return run


class TestInjectedDivergence:
    """Mutation testing: the harness must catch what we deliberately break."""

    def test_output_perturbation_caught_shrunk_and_pinned(self, tmp_path):
        broken = _broken_registry("linial", _perturb_max_label)
        report = fuzz_run(
            seed=11,
            iterations=3,
            pair_names=["linial"],
            corpus_dir=tmp_path,
            pairs=broken,
            max_failures=1,
        )
        assert not report.ok and len(report.failures) == 1
        failure = report.failures[0]
        assert any("outputs differ" in f for f in failure.outcome.failures)
        # shrunk to a tiny witness, still failing on the broken engines
        assert failure.shrunk is not None and failure.shrunk.n <= 12
        assert not failure.shrunk_outcome.ok
        # serialized into the corpus, and the pinned entry replays green
        # against the *real* engines (the regression-pin workflow)
        assert failure.saved_to is not None and failure.saved_to.exists()
        replayed = replay_corpus(tmp_path)
        assert len(replayed) == 1
        assert replayed[0][1].ok, replayed[0][1].describe()

    def test_order_bug_in_greedy_caught(self):
        """A processing-order bug (reversed greedy) — subtle, input-dependent."""
        from repro.sim.vectorized import greedy_list_vectorized

        def reversed_greedy(case, _run):
            inst = case.instance()
            res = greedy_list_vectorized(
                inst, order=sorted(inst.graph.nodes, reverse=True)
            )
            return EngineRun(dict(res.assignment))

        broken = _broken_registry("greedy", reversed_greedy)
        report = fuzz_run(
            seed=0,
            iterations=25,
            pair_names=["greedy"],
            pairs=broken,
            shrink=False,
            max_failures=1,
        )
        assert not report.ok, "fuzzer failed to flush out a reversed-order greedy"

    def test_metrics_divergence_caught(self):
        """Accounting bugs (not just outputs) trip the harness too."""

        def drop_a_message(case, run: EngineRun) -> EngineRun:
            run.metrics.total_messages -= 1
            if run.metrics.per_round_messages:
                run.metrics.per_round_messages[0] -= 1
            run.record = None  # a record would fail its own consistency check
            return run

        broken = _broken_registry("classic", drop_a_message)
        for seed in range(5):
            case = generate_case(f"m:{seed}", pair="classic")
            if case.m == 0:
                continue
            outcome = run_case(case, pairs=broken)
            assert not outcome.ok
            assert any("metrics summaries differ" in f for f in outcome.failures)
            break
        else:  # pragma: no cover
            pytest.fail("no case with edges generated")

    def test_oracle_catches_shared_bug(self):
        """Both engines agreeing on a *wrong* answer is still a failure."""

        def clobber(case, run: EngineRun) -> EngineRun:
            run.assignment = {v: 0 for v in run.assignment}
            return run

        real = ENGINE_PAIRS["greedy"]
        broken_pair = dataclasses.replace(
            real,
            run_reference=lambda c: clobber(c, real.run_reference(c)),
            run_vectorized=lambda c: clobber(c, real.run_vectorized(c)),
        )
        registry = {**ENGINE_PAIRS, "greedy": broken_pair}
        for seed in range(6):
            case = generate_case(f"o:{seed}", pair="greedy")
            if case.m == 0:
                continue
            outcome = run_case(case, pairs=registry)
            assert not outcome.ok
            assert any(f.startswith("oracle:") for f in outcome.failures)
            break
        else:  # pragma: no cover
            pytest.fail("no case with edges generated")


class TestShrinker:
    def test_shrinks_to_minimal_witness(self):
        broken = _broken_registry("linial", _perturb_max_label)
        case = generate_case("s:0", pair="linial")
        assert not run_case(case, pairs=broken).ok
        shrunk = shrink_case(case, predicate=default_predicate(pairs=broken))
        shrunk.check_valid()
        assert shrunk.n <= 3  # unconditional perturbation pins on ~1 node
        assert not run_case(shrunk, pairs=broken).ok

    def test_respects_attempt_budget(self):
        calls = []

        def pred(candidate):
            calls.append(1)
            return True  # "always still failing" — worst case for the budget

        case = generate_case("s:1", pair="classic")
        shrink_case(case, predicate=pred, max_attempts=17)
        assert len(calls) <= 17

    def test_preserves_greedy_list_validity(self):
        case = generate_case("s:2", pair="greedy")
        # force shrinking pressure with a predicate that accepts everything
        shrunk = shrink_case(case, predicate=lambda c: True, max_attempts=200)
        shrunk.check_valid()
        assert shrunk.n >= 1

    def test_returns_original_when_failure_needs_everything(self):
        case = generate_case("s:3", pair="linial")
        shrunk = shrink_case(case, predicate=lambda c: False, max_attempts=100)
        assert shrunk.nodes == case.nodes and shrunk.edges == case.edges


class TestCorpusSerialization:
    def test_round_trip(self, tmp_path):
        for pair in pair_names():
            case = generate_case(f"rt:{pair}", pair=pair)
            path = save_case(case, tmp_path)
            loaded = load_case(path)
            assert loaded.to_dict() == case.to_dict()

    def test_filenames_stable_and_content_addressed(self, tmp_path):
        case = generate_case("fn:0", pair="greedy")
        assert case_filename(case) == case_filename(case.replace(note="renamed"))
        p1 = save_case(case, tmp_path)
        p2 = save_case(case.replace(note="again"), tmp_path)
        assert p1 == p2  # idempotent pinning
        assert len(load_corpus(tmp_path)) == 1

    def test_foreign_schema_rejected(self, tmp_path):
        case = generate_case("fs:0", pair="classic")
        payload = case.to_dict()
        payload["schema"] = 99
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="schema"):
            load_case(path)

    def test_invalid_case_rejected_on_load(self, tmp_path):
        case = generate_case("iv:0", pair="linial")
        payload = case.to_dict()
        payload["edges"].append([10**9, 10**9 + 1])  # unknown endpoints
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_case(path)

    def test_missing_corpus_dir_is_empty(self, tmp_path):
        assert load_corpus(tmp_path / "nope") == []
        assert replay_corpus(tmp_path / "nope") == []


class TestFuzzRun:
    def test_green_report_counts(self):
        report = fuzz_run(seed=2, iterations=2)
        assert report.ok
        assert report.cases_run == 2 * len(ENGINE_PAIRS)
        assert set(report.per_pair) == set(ENGINE_PAIRS)
        assert "0 failure(s)" in report.describe()

    def test_pair_subset_and_unknown_pair(self):
        report = fuzz_run(seed=2, iterations=1, pair_names=["greedy"])
        assert set(report.per_pair) == {"greedy"}
        with pytest.raises(KeyError, match="nope"):
            fuzz_run(seed=2, iterations=1, pair_names=["nope"])

    def test_stops_at_max_failures(self):
        broken = _broken_registry("linial", _perturb_max_label)
        report = fuzz_run(
            seed=3,
            iterations=10,
            pair_names=["linial"],
            pairs=broken,
            shrink=False,
            max_failures=2,
        )
        assert len(report.failures) == 2

    def test_fuzz_run_vectorized_never_skips(self):
        report = fuzz_run(seed=7, iterations=4, shrink=False)
        assert report.skipped == 0
        assert report.backend == "vectorized"

    @pytest.mark.parametrize("batch_size", [0, 8])
    def test_fuzz_run_partitioned_backend(self, batch_size):
        report = fuzz_run(
            seed=7,
            iterations=6,
            backend="partitioned",
            shrink=False,
            batch_size=batch_size,
        )
        assert report.ok, report.describe()
        assert report.backend == "partitioned"
        assert set(report.per_pair) <= set(PARTITIONED_PAIRS)
        # every generated trial is either run or skipped-for-faults, and
        # the linial stream does generate fault cases at these seeds
        assert report.cases_run + report.skipped == 6 * len(PARTITIONED_PAIRS)
        assert report.skipped > 0
        assert "skipped" in report.describe()

    def test_corpus_replays_clean_through_partitioned_pairs(self):
        replayed = 0
        for path, case in load_corpus(CORPUS_DIR):
            if case.pair not in PARTITIONED_PAIRS or case.fault is not None:
                continue
            outcome = run_case(case, pairs=PARTITIONED_PAIRS)
            assert outcome.ok, f"{path}: {outcome.describe()}"
            replayed += 1
        assert replayed > 0, "corpus has no partitioned-replayable entries"


class TestBatchedDispatchByValue:
    """Regression: the batched fast side used to be selected by *identity*
    (``pair is ENGINE_PAIRS.get(name)``), so an equal-but-not-identical
    pair in a caller-built ``pairs=`` registry silently lost the batched
    path — the run still passed, it just never executed the code under
    test.  Dispatch is now by value equality (:func:`_batched_runner`)."""

    def _cases(self, pair, count=4):
        return [
            generate_case(f"bd:{i}:{pair}", pair=pair) for i in range(count)
        ]

    def _spied_vec_batch(self, monkeypatch, name):
        from repro.fuzz import differential

        calls = []
        real = differential._VEC_BATCH[name]

        def spy(cases):
            calls.append(len(cases))
            return real(cases)

        monkeypatch.setitem(differential._VEC_BATCH, name, spy)
        return calls

    @pytest.mark.parametrize("name", sorted(ENGINE_PAIRS))
    def test_equal_copy_keeps_batched_path(self, monkeypatch, name):
        from repro.fuzz import run_cases_batched

        calls = self._spied_vec_batch(monkeypatch, name)
        registry = {**ENGINE_PAIRS, name: dataclasses.replace(ENGINE_PAIRS[name])}
        assert registry[name] is not ENGINE_PAIRS[name]
        outcomes = run_cases_batched(self._cases(name), pairs=registry)
        assert calls == [4]
        assert all(o.ok for o in outcomes)

    def test_mutated_pair_falls_back_to_per_case(self, monkeypatch):
        from repro.fuzz import run_cases_batched

        calls = self._spied_vec_batch(monkeypatch, "linial")
        broken = _broken_registry("linial", _perturb_max_label)
        outcomes = run_cases_batched(self._cases("linial"), pairs=broken)
        assert calls == []  # per-case, so the mutated fast side actually ran
        assert all(not o.ok for o in outcomes)


class TestCaseValidation:
    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FuzzCase("linial", [1, 1], []).check_valid()

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            FuzzCase("linial", [1, 2], [(1, 1)]).check_valid()

    def test_undersized_list_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            FuzzCase(
                "greedy", [1, 2], [(1, 2)],
                lists={1: [0], 2: [0, 1]}, space_size=3,
            ).check_valid()

    def test_duplicate_initial_colors_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            FuzzCase(
                "linial", [1, 2], [(1, 2)], initial_colors={1: 5, 2: 5}
            ).check_valid()
