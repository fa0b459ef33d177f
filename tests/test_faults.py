"""The fault-injection subsystem: plan, engines, wrappers, sweep, fuzz.

Four contracts under test:

1. a :class:`~repro.faults.FaultPlan` is a pure function of
   ``(seed, round, edge)`` — deterministic, offset-shiftable, and
   identical between its scalar (reference) and array (vectorized)
   evaluation paths;
2. both engines driven by the same plan stay in lockstep: identical
   outputs, metrics, per-round accounting, *and* per-round fault
   counts — including identical :class:`~repro.sim.node.HaltingError`
   behavior under crash-stop plans (the max-rounds exhaustion path);
3. the resilience wrappers actually buy validity back: retransmission
   absorbs drops that break the raw run, restarts escape crash windows,
   and the overhead stays on the books;
4. the sweep and fuzz layers treat faults as first-class coordinates:
   poisoned cells quarantine as ``status: "failed"`` records, corrupt
   cache files quarantine as ``.json.corrupt``, dead worker pools retry
   from per-cell checkpoints, and fault-axis fuzz cases replay green.
"""

import json
import random

import numpy as np
import pytest

from repro.algorithms.linial import linial_schedule, run_linial
from repro.core.coloring import ColoringResult
from repro.core.validate import validate_proper_coloring
from repro.experiments.sweep import (
    SWEEP_CACHE_SCHEMA,
    SweepCell,
    _cache_path,
    _compute_batch,
    cell_key,
    corrupt_cache_files,
    failed_record,
    load_cached,
    load_cached_detailed,
    run_sweep,
    run_sweep_summarized,
)
from repro.faults import (
    FAULT_KINDS,
    FaultPlan,
    RetransmitAlgorithm,
    resilient_linial,
    run_with_restarts,
)
from repro.faults.plan import FATE_DELIVER, node_labels_u64
from repro.graphs import path, random_regular
from repro.obs import (
    ENGINE_REFERENCE,
    ENGINE_VECTORIZED,
    RunRecord,
    RunRecorder,
    compare_round_accounting,
)
from repro.sim.network import SyncNetwork
from repro.sim.node import HaltingError
from repro.sim.trace import Trace
from repro.sim.vectorized import linial_vectorized


def _spread_colors(graph, seed=5, span=300):
    """Explicit initial colors far past the Linial fixed point, so the
    schedule is nonempty even on small graphs (empty schedules make every
    fault assertion vacuous)."""
    nodes = sorted(graph.nodes)
    return dict(zip(nodes, random.Random(seed).sample(range(span), len(nodes))))


#: Named plans covering each fault mode plus a mixed adversary; every one
#: verifiably fires on the 8-node path with ``_spread_colors`` (asserted
#: in ``test_engines_agree_per_plan``).
PLANS = {
    "drop": FaultPlan(seed=11, p_drop=0.3),
    "corrupt": FaultPlan(seed=12, p_corrupt=0.3),
    "delay": FaultPlan(seed=13, p_delay=0.3, max_delay=2),
    "duplicate": FaultPlan(seed=14, p_duplicate=0.3),
    "crash": FaultPlan(seed=0, p_crash=0.6, crash_horizon=3, recovery_rounds=2),
    "mixed": FaultPlan(
        seed=16, p_drop=0.15, p_corrupt=0.15, p_delay=0.1, p_duplicate=0.1
    ),
}


class TestFaultPlan:
    def test_fate_is_deterministic(self):
        plan = FaultPlan(seed=7, p_drop=0.2, p_corrupt=0.2, p_delay=0.2)
        fates = [plan.message_fate(r, 3, 9) for r in range(20)]
        again = [plan.message_fate(r, 3, 9) for r in range(20)]
        assert fates == again
        other = FaultPlan(seed=8, p_drop=0.2, p_corrupt=0.2, p_delay=0.2)
        assert fates != [other.message_fate(r, 3, 9) for r in range(20)]

    def test_scalar_and_array_paths_agree(self):
        plan = FaultPlan(
            seed=9, p_drop=0.2, p_corrupt=0.2, p_delay=0.15, p_duplicate=0.15
        )
        src = np.array([1, 1, 2, 40, 7], dtype=np.int64)
        dst = np.array([2, 40, 1, 7, 40], dtype=np.int64)
        for rnd in range(6):
            kinds, delays = plan.edge_fates(
                rnd, node_labels_u64(src), node_labels_u64(dst)
            )
            for i in range(len(src)):
                fate = plan.message_fate(rnd, int(src[i]), int(dst[i]))
                assert fate.kind == int(kinds[i])
                if fate.kind != FATE_DELIVER:
                    assert fate.delay == int(delays[i])

    def test_crash_mask_matches_scalar(self):
        plan = FaultPlan(seed=3, p_crash=0.5, crash_horizon=4, recovery_rounds=2)
        labels = np.arange(30, dtype=np.int64)
        for rnd in range(8):
            mask = plan.crashed_mask(rnd, node_labels_u64(labels))
            for v in range(30):
                assert bool(mask[v]) == plan.crashed(rnd, v)

    def test_with_offset_shifts_the_clock(self):
        plan = FaultPlan(seed=4, p_drop=0.4, p_crash=0.3, crash_horizon=5,
                         recovery_rounds=1)
        shifted = plan.with_offset(3)
        for rnd in range(10):
            assert (
                shifted.message_fate(rnd, 1, 2).kind
                == plan.message_fate(rnd + 3, 1, 2).kind
            )
            assert shifted.crashed(rnd, 6) == plan.crashed(rnd + 3, 6)

    def test_dict_round_trip_and_unknown_key(self):
        plan = PLANS["mixed"]
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        with pytest.raises((KeyError, TypeError, ValueError)):
            FaultPlan.from_dict({"seed": 1, "p_teleport": 0.5})

    def test_null_plan_and_round_budget(self):
        assert FaultPlan(seed=1).is_null
        assert not PLANS["drop"].is_null
        assert FaultPlan(seed=1).round_budget(5) >= 5
        crash = PLANS["crash"]
        # the budget must cover the whole crash-recovery horizon
        assert crash.round_budget(2) >= crash.crash_horizon


class TestEngineLockstep:
    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_engines_agree_per_plan(self, name):
        plan = PLANS[name]
        g = path(8)
        colors = _spread_colors(g)
        rec_r = RunRecorder(engine=ENGINE_REFERENCE)
        res_r, met_r, pal_r = run_linial(
            g, initial_colors=colors, recorder=rec_r, faults=plan
        )
        rec_v = RunRecorder(engine=ENGINE_VECTORIZED)
        res_v, met_v, pal_v = linial_vectorized(
            g, initial_colors=colors, recorder=rec_v, faults=plan
        )
        assert met_r.rounds > 0, "empty schedule makes this test vacuous"
        assert dict(res_r.assignment) == dict(res_v.assignment)
        assert pal_r == pal_v
        assert met_r.summary() == met_v.summary()
        verdict = compare_round_accounting(rec_r.record, rec_v.record)
        assert verdict["rounds_equal"]
        assert verdict["accounting_equal"]
        assert verdict["totals_equal"]
        assert verdict["faults_equal"]
        fired = sum(
            sum((row.faults or {}).values()) for row in rec_r.record.rows
        )
        assert fired > 0, f"plan {name} never fired; test is vacuous"

    def test_different_seeds_mean_different_schedules(self):
        g = path(8)
        colors = _spread_colors(g)
        records = []
        for seed in (11, 47):
            rec = RunRecorder(engine=ENGINE_REFERENCE)
            run_linial(
                g,
                initial_colors=colors,
                recorder=rec,
                faults=FaultPlan(seed=seed, p_drop=0.5),
            )
            records.append(rec.record)
        assert not compare_round_accounting(*records)["faults_equal"]

    def test_crash_stop_halts_both_engines_identically(self):
        g = random_regular(150, 4, seed=1)
        plan = FaultPlan(seed=5, p_crash=0.8, crash_horizon=4,
                         recovery_rounds=None)
        with pytest.raises(HaltingError) as ref_err:
            run_linial(g, faults=plan)
        with pytest.raises(HaltingError) as vec_err:
            linial_vectorized(g, faults=plan)
        assert ref_err.value.rounds == vec_err.value.rounds
        assert sorted(ref_err.value.unfinished) == sorted(vec_err.value.unfinished)
        assert ref_err.value.unfinished  # typed error carries the victims

    def test_halted_run_still_flushes_partial_record(self):
        g = random_regular(150, 4, seed=1)
        plan = FaultPlan(seed=5, p_crash=0.8, crash_horizon=4,
                         recovery_rounds=None)
        for engine, runner in (
            (ENGINE_REFERENCE, run_linial),
            (ENGINE_VECTORIZED, linial_vectorized),
        ):
            recorder = RunRecorder(engine=engine)
            with pytest.raises(HaltingError) as err:
                runner(g, recorder=recorder, faults=plan)
            record = recorder.record
            assert record is not None
            assert len(record.rows) == err.value.rounds
            assert all(row.faults is not None for row in record.rows)

    def test_fault_columns_survive_record_serialization(self):
        g = path(8)
        rec = RunRecorder(engine=ENGINE_REFERENCE)
        run_linial(
            g, initial_colors=_spread_colors(g), recorder=rec,
            faults=PLANS["mixed"],
        )
        restored = RunRecord.from_dict(rec.record.to_dict())
        assert [row.faults for row in restored.rows] == [
            row.faults for row in rec.record.rows
        ]
        assert all(
            set(row.faults) == set(FAULT_KINDS) for row in restored.rows
        )

    def test_trace_records_fault_events(self):
        g = path(8)
        colors = _spread_colors(g)
        m0 = max(colors.values()) + 1
        sched = linial_schedule(m0, 2)
        from repro.algorithms.linial import LinialColoringAlgorithm

        trace = Trace()
        SyncNetwork(g).run(
            LinialColoringAlgorithm(),
            {v: {"color": c} for v, c in colors.items()},
            shared={"schedule": sched, "m0": m0},
            trace=trace,
            faults=PLANS["drop"],
        )
        counts = trace.fault_counts()
        assert counts["dropped"] > 0
        assert trace.summary()["faults"] == sum(counts.values())


class TestResilienceWrappers:
    def test_raw_run_breaks_but_retransmit_recovers(self):
        g = random_regular(150, 4, seed=1)
        plan = FaultPlan(seed=21, p_drop=0.3)
        raw, raw_metrics, _ = run_linial(g, faults=plan)
        assert not validate_proper_coloring(
            g, ColoringResult(dict(raw.assignment))
        ).ok
        res, metrics, palette, info = resilient_linial(
            g, plan, retries=2, restarts=0
        )
        assert validate_proper_coloring(g, res).ok
        assert info["valid"] and info["attempts"] == 1
        # resilience is paid for in rounds, and the price is recorded
        assert metrics.rounds > raw_metrics.rounds

    def test_retransmit_period_and_validation(self):
        class _Null:
            name = "null"

            def init_state(self, view):
                return {}

            def send(self, view, state, rnd):
                return {}

            def receive(self, view, state, rnd, inbox):
                pass

            def is_done(self, view, state):
                return True

            def output(self, view, state):
                return None

        assert RetransmitAlgorithm(_Null(), retries=3).period == 7
        with pytest.raises(ValueError):
            RetransmitAlgorithm(_Null(), retries=-1)

    def test_restart_escapes_crash_recovery_window(self):
        g = random_regular(150, 4, seed=1)
        plan = FaultPlan(seed=0, p_crash=0.5, crash_horizon=3,
                         recovery_rounds=2)
        res, metrics, palette, info = resilient_linial(
            g, plan, retries=1, restarts=2
        )
        history = info["history"]
        assert not history[0]["valid"], "seed pinned so attempt 0 fails"
        assert history[1]["valid"], "the shifted plan escapes the window"
        assert validate_proper_coloring(g, res).ok
        # merged metrics keep every attempt's rounds on the books
        assert metrics.rounds == sum(h["rounds"] for h in history)

    def test_crash_stop_exhausts_restarts_with_typed_error(self):
        g = random_regular(150, 4, seed=1)
        plan = FaultPlan(seed=5, p_crash=0.8, crash_horizon=4,
                         recovery_rounds=None)
        with pytest.raises(HaltingError):
            resilient_linial(g, plan, retries=1, restarts=1)

    def test_run_with_restarts_merges_history(self):
        from repro.sim.metrics import RunMetrics

        calls = []

        def attempt(plan, index):
            calls.append(plan.round_offset)
            metrics = RunMetrics()
            metrics.observe_round({})
            return {"winner": index}, metrics

        outputs, metrics, info = run_with_restarts(
            attempt,
            oracle=lambda out: out["winner"] >= 2,
            plan=FaultPlan(seed=1, p_drop=0.1),
            restarts=3,
        )
        assert outputs == {"winner": 2}
        assert info["attempts"] == 3 and info["valid"]
        # each retry faces the continuation of the adversary, never round 0
        assert calls == [0, 1, 2]


class TestSweepFaultTolerance:
    def _cells(self, algorithm, faults, n=150):
        return [
            SweepCell.make(
                "random_regular",
                {"n": n, "degree": 4, "seed": 1},
                algorithm,
                {"defect": 0, "faults": faults},
            )
        ]

    def test_fault_cells_agree_across_engines(self, tmp_path):
        faults = {"seed": 21, "p_drop": 0.2}
        cells = self._cells("linial_faulty", faults) + self._cells(
            "linial_faulty_vectorized", faults
        )
        results = run_sweep(cells, cache_dir=tmp_path, workers=1)
        ref, vec = (RunRecord.from_dict(r.data["run_record"]) for r in results)
        verdict = compare_round_accounting(ref, vec)
        assert verdict["accounting_equal"] and verdict["faults_equal"]
        assert results[0].data["metrics"] == results[1].data["metrics"]

    def test_poison_cell_quarantines_not_aborts(self, tmp_path):
        # degree >= n is impossible: the generator raises, the sweep must not
        poison = SweepCell.make(
            "random_regular", {"n": 10, "degree": 11, "seed": 0},
            "linial_vectorized",
        )
        good = SweepCell.make("path", {"n": 8}, "linial_vectorized")
        summary = run_sweep_summarized(
            [poison, good], cache_dir=tmp_path, workers=1
        )
        assert summary.failed == 1 and summary.total == 2
        bad, ok = summary.results[0], summary.results[1]
        assert bad.failed and bad.data["error"]["type"]
        assert not ok.failed and ok.data["valid"]
        # the failure record is served from cache on rerun, not re-raised
        again = run_sweep_summarized([poison], cache_dir=tmp_path, workers=1)
        assert again.cached == 1 and again.results[0].cache_status == "failed"

    def test_round_exhaustion_becomes_structured_failure(self, tmp_path):
        cells = self._cells(
            "linial_faulty",
            {"seed": 5, "p_crash": 0.8, "crash_horizon": 4,
             "recovery_rounds": None},
        )
        summary = run_sweep_summarized(cells, cache_dir=tmp_path, workers=1)
        record = summary.results[0].data
        assert record["status"] == "failed"
        assert record["error"]["type"] == "HaltingError"
        assert "unfinished" in record["error"]["message"]

    def test_corrupt_cache_file_is_renamed_and_recomputed(self, tmp_path):
        cell = SweepCell.make("path", {"n": 8}, "linial_vectorized")
        run_sweep([cell], cache_dir=tmp_path, workers=1)
        cache_file = _cache_path(tmp_path, cell_key(cell))
        cache_file.write_text("{ truncated nonsense")
        record, status = load_cached_detailed(tmp_path, cell)
        assert record is None and status == "corrupt"
        assert corrupt_cache_files(tmp_path) == [
            cache_file.with_name(cache_file.name + ".corrupt")
        ]
        cache_file.write_text("{ truncated nonsense")
        summary = run_sweep_summarized([cell], cache_dir=tmp_path, workers=1)
        assert summary.corrupt == 1 and summary.computed == 1
        assert load_cached(tmp_path, cell) is not None

    def test_stale_schema_is_recomputed_and_counted(self, tmp_path):
        cell = SweepCell.make("path", {"n": 8}, "linial_vectorized")
        run_sweep([cell], cache_dir=tmp_path, workers=1)
        cache_file = _cache_path(tmp_path, cell_key(cell))
        old = json.loads(cache_file.read_text())
        old["schema"] = SWEEP_CACHE_SCHEMA - 1
        cache_file.write_text(json.dumps(old))
        summary = run_sweep_summarized([cell], cache_dir=tmp_path, workers=1)
        assert summary.stale == 1 and summary.computed == 1

    def test_failed_record_is_shape_compatible(self):
        cell = SweepCell.make("path", {"n": 8}, "linial_vectorized")
        record = failed_record(cell, RuntimeError("boom"), wall_s=0.5)
        assert record["status"] == "failed"
        assert record["error"] == {"type": "RuntimeError", "message": "boom"}
        assert record["key"] == cell_key(cell)
        assert record["schema"] == SWEEP_CACHE_SCHEMA
        assert record["valid"] is False and record["metrics"] is None

    def test_batch_resumes_from_per_cell_checkpoints(self, tmp_path, monkeypatch):
        import repro.experiments.sweep as sweep_mod

        cells = [
            SweepCell.make("path", {"n": n}, "linial_vectorized")
            for n in (6, 8, 10)
        ]
        # checkpoint the first cell, as a dead worker would have left it
        _compute_batch([cells[0].spec()], str(tmp_path))
        computed = []
        real_cell = sweep_mod.compute_cell
        real_batched = sweep_mod.compute_cells_batched
        monkeypatch.setattr(
            sweep_mod,
            "compute_cell",
            lambda cell: computed.append(cell_key(cell)) or real_cell(cell),
        )
        monkeypatch.setattr(
            sweep_mod,
            "compute_cells_batched",
            lambda batch: computed.extend(cell_key(c) for c in batch)
            or real_batched(batch),
        )
        records = _compute_batch([c.spec() for c in cells], str(tmp_path))
        assert [r["key"] for r in records] == [cell_key(c) for c in cells]
        # the checkpointed cell was served, never recomputed (batched or not)
        assert sorted(computed) == sorted(cell_key(c) for c in cells[1:])

    def test_worker_sigkill_loses_at_most_one_inflight_cell(
        self, tmp_path, monkeypatch
    ):
        import multiprocessing as mp

        try:
            mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            pytest.skip("requires fork start method")
        import repro.graphs as graphs_mod

        sentinel = tmp_path / "kill-once"
        sentinel.write_text("")
        # path cells are built from their emitted edges
        real_family_edges = graphs_mod.family_edges

        def family_edges_with_kill(name, **params):
            if params.get("n") == 10 and sentinel.exists():
                import os
                import signal

                sentinel.unlink()
                os.kill(os.getpid(), signal.SIGKILL)
            return real_family_edges(name, **params)

        monkeypatch.setattr(graphs_mod, "family_edges", family_edges_with_kill)
        cells = [
            SweepCell.make("path", {"n": n}, "linial_vectorized")
            for n in (6, 8, 10, 12, 14, 16)
        ]
        summary = run_sweep_summarized(
            cells, cache_dir=tmp_path / "cache", workers=2
        )
        assert summary.total == 6 and summary.failed == 0
        assert all(r.data["valid"] for r in summary.results)
        assert not sentinel.exists(), "the kill must actually have fired"


class TestFuzzFaultAxis:
    def test_generator_attaches_deterministic_fault_plans(self):
        from repro.fuzz import generate_case

        cases = [generate_case(f"fa:{i}", pair="linial") for i in range(60)]
        again = [generate_case(f"fa:{i}", pair="linial") for i in range(60)]
        assert [c.to_dict() for c in cases] == [c.to_dict() for c in again]
        faulted = [c for c in cases if c.fault is not None]
        assert faulted, "fault axis never sampled in 60 cases"
        for c in faulted:
            FaultPlan.from_dict(c.fault)  # validates
            assert c.initial_colors is not None, (
                "fault cases must force spread initial colors so the "
                "schedule is nonempty"
            )
            if "p_crash" in c.fault:
                assert c.fault.get("recovery_rounds"), (
                    "fuzz crash plans must guarantee recovery/termination"
                )

    def test_fault_case_runs_green_and_round_trips(self, tmp_path):
        from repro.fuzz import FuzzCase, load_case, run_case, save_case

        case = FuzzCase(
            pair="linial",
            nodes=[5, 210, 41, 88, 163, 19, 132, 74],
            edges=[(5, 210), (210, 41), (41, 88), (88, 163), (163, 19),
                   (19, 132), (132, 74)],
            initial_colors=dict(
                zip([5, 210, 41, 88, 163, 19, 132, 74],
                    random.Random(7).sample(range(320), 8))
            ),
            fault={"seed": 99, "p_drop": 0.2, "p_corrupt": 0.2,
                   "p_delay": 0.1, "max_delay": 2},
        )
        outcome = run_case(case)
        assert outcome.ok, outcome.failures
        assert outcome.accounting["faults_equal"]
        rows = outcome.vectorized.record.rows
        assert sum(sum((r.faults or {}).values()) for r in rows) > 0
        restored = load_case(save_case(case, tmp_path))
        assert restored.fault == case.fault

    def test_oracle_skipped_under_faults(self):
        from repro.fuzz.differential import EngineRun, _oracle_linial
        from repro.fuzz import FuzzCase

        # two adjacent nodes share a color: invalid without faults,
        # uncheckable (engine equality only) with them
        base = dict(
            pair="linial", nodes=[1, 2], edges=[(1, 2)],
        )
        run = EngineRun({1: 0, 2: 0})
        assert _oracle_linial(FuzzCase(**base), run)
        assert not _oracle_linial(
            FuzzCase(**base, fault={"seed": 1, "p_drop": 0.5}), run
        )

    def test_shrinker_minimizes_the_fault_plan(self):
        from repro.fuzz import generate_case, shrink_case

        case = generate_case("fa:pass5", pair="linial").replace(
            fault={"seed": 3, "p_drop": 0.3, "p_corrupt": 0.2,
                   "p_delay": 0.2, "max_delay": 3}
        )
        small = shrink_case(
            case,
            predicate=lambda c: c.fault is not None and "p_drop" in c.fault,
            max_attempts=300,
        )
        assert small.fault is not None and "p_drop" in small.fault
        assert "p_corrupt" not in small.fault
        assert "p_delay" not in small.fault
        assert small.n == 1 and small.m == 0

    def test_shrinker_drops_fault_independent_plans(self):
        from repro.fuzz import generate_case, shrink_case

        case = generate_case("fa:pass5", pair="linial").replace(
            fault={"seed": 3, "p_drop": 0.3}
        )
        small = shrink_case(case, predicate=lambda c: True, max_attempts=200)
        assert small.fault is None
