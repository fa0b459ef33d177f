"""Tests for the observability layer (repro.obs).

Covers the RunRecord schema and its JSONL round-trip, the recorder
integration of both engines, and the standing cross-engine equivalence
check: reference and vectorized runs of the same sweep cell must emit
identical per-round message counts and bit totals.
"""

import json

import pytest

from repro.experiments.sweep import SweepCell, compute_cell, run_sweep
from repro.graphs import ring
from repro.obs import (
    ENGINE_REFERENCE,
    ENGINE_VECTORIZED,
    OBS_SCHEMA_VERSION,
    Profiler,
    RoundRow,
    RunRecord,
    RunRecorder,
    append_jsonl,
    compare_round_accounting,
    read_jsonl,
    write_jsonl,
)
from repro.sim import SyncNetwork, linial_vectorized
from repro.sim.metrics import RunMetrics


def make_metrics(rounds=3, count=4, bits=8):
    m = RunMetrics(bandwidth_limit=64)
    for _ in range(rounds):
        m.observe_uniform_round(count, bits)
    return m


class TestProfiler:
    def test_phases_accumulate(self):
        p = Profiler()
        with p.phase("a"):
            pass
        with p.phase("a"):
            pass
        p.add("b", 1.5)
        assert set(p.timings) == {"a", "b"}
        assert p.timings["a"] >= 0
        assert p.timings["b"] == 1.5
        assert p.total() == pytest.approx(p.timings["a"] + 1.5)

    def test_exception_still_recorded(self):
        p = Profiler()
        with pytest.raises(RuntimeError):
            with p.phase("x"):
                raise RuntimeError("boom")
        assert "x" in p.timings


class TestRunRecord:
    def test_from_metrics_builds_rows(self):
        rec = RunRecord.from_metrics(
            make_metrics(),
            engine=ENGINE_VECTORIZED,
            algorithm="demo",
            n=10,
            m=20,
            active_per_round=[10, 8],
            palette=5,
        )
        assert len(rec.rows) == 3
        assert rec.rows[0] == RoundRow(0, 4, 32, 8, active=10)
        assert rec.rows[2].active is None  # shorter activity sequence
        assert rec.summary["total_bits"] == 96
        assert rec.palette == 5

    def test_incomplete_metrics_yield_summary_only(self):
        m = RunMetrics(rounds=2, total_messages=5, total_bits=40)
        rec = RunRecord.from_metrics(
            m, engine=ENGINE_REFERENCE, algorithm="merged", n=4, m=4
        )
        assert rec.rows == []
        assert rec.summary["rounds"] == 2

    def test_check_consistent_raises_on_drift(self):
        rec = RunRecord.from_metrics(
            make_metrics(), engine=ENGINE_VECTORIZED, algorithm="demo", n=4, m=4
        )
        rec.summary["total_bits"] += 1
        with pytest.raises(ValueError, match="inconsistent RunRecord"):
            rec.check_consistent()

    def test_dict_roundtrip(self):
        rec = RunRecord.from_metrics(
            make_metrics(),
            engine=ENGINE_VECTORIZED,
            algorithm="demo",
            n=10,
            m=20,
            uncolored_per_round=[5, 3, 0],
            timings={"rounds": 0.25},
        )
        again = RunRecord.from_dict(rec.to_dict())
        assert again == rec

    def test_exchange_column_roundtrips(self):
        # schema v3: the partitioned backend's per-round exchange column
        row = {"bytes": 1112, "ghosts": 139, "cut_directed_edges": 164}
        rec = RunRecord.from_metrics(
            make_metrics(),
            engine=ENGINE_VECTORIZED,
            algorithm="demo",
            n=10,
            m=20,
            exchange_per_round=[row, row, None],
        )
        assert rec.rows[0].exchange == row
        assert rec.rows[2].exchange is None
        again = RunRecord.from_dict(rec.to_dict())
        assert again == rec
        assert again.rows[1].exchange == row

    def test_compare_ignores_exchange_column(self):
        # exchange is engine-optional (partitioned-only): two records
        # that differ only there must still compare as equal accounting
        row = {"bytes": 64, "ghosts": 8, "cut_directed_edges": 12}
        with_exchange = RunRecord.from_metrics(
            make_metrics(),
            engine=ENGINE_VECTORIZED,
            algorithm="demo",
            n=4,
            m=4,
            exchange_per_round=[row, row, row],
        )
        without = RunRecord.from_metrics(
            make_metrics(),
            engine=ENGINE_REFERENCE,
            algorithm="demo",
            n=4,
            m=4,
        )
        verdict = compare_round_accounting(with_exchange, without)
        assert verdict["accounting_equal"] and verdict["rounds_equal"]

    def test_foreign_schema_rejected(self):
        data = RunRecord.from_metrics(
            make_metrics(), engine=ENGINE_VECTORIZED, algorithm="demo", n=4, m=4
        ).to_dict()
        data["schema"] = OBS_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema"):
            RunRecord.from_dict(data)


class TestJsonl:
    def records(self):
        return [
            RunRecord.from_metrics(
                make_metrics(rounds=r),
                engine=ENGINE_VECTORIZED,
                algorithm=f"demo{r}",
                n=4,
                m=4,
            )
            for r in (1, 2)
        ]

    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        write_jsonl(self.records(), path)
        loaded = read_jsonl(path)
        assert loaded == self.records()
        assert len(path.read_text().splitlines()) == 2

    def test_append_accumulates(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        for rec in self.records():
            append_jsonl(rec, path)
        assert [r.algorithm for r in read_jsonl(path)] == ["demo1", "demo2"]


class TestRecorderIntegration:
    def test_sync_network_finalizes_record(self, tmp_path):
        from .test_sim import EchoOnce

        path = tmp_path / "runs.jsonl"
        recorder = RunRecorder(engine=ENGINE_REFERENCE, jsonl_path=path)
        net = SyncNetwork(ring(6), model="CONGEST")
        _outputs, metrics = net.run(EchoOnce(), recorder=recorder)
        rec = recorder.record
        assert rec is not None
        assert rec.engine == ENGINE_REFERENCE
        assert rec.n == 6 and rec.m == 6
        assert len(rec.rows) == metrics.rounds
        assert sum(r.messages for r in rec.rows) == metrics.total_messages
        assert all(r.active is not None for r in rec.rows)
        assert read_jsonl(path) == [rec]

    def test_vectorized_path_finalizes_record(self):
        recorder = RunRecorder(engine=ENGINE_VECTORIZED)
        _res, metrics, palette = linial_vectorized(ring(12), recorder=recorder)
        rec = recorder.record
        assert rec is not None
        assert rec.palette == palette
        assert len(rec.rows) == metrics.rounds
        assert sum(r.total_bits for r in rec.rows) == metrics.total_bits
        assert {"csr_build", "schedule", "rounds"} <= set(rec.timings)

    def test_compare_detects_mismatch(self):
        a = RunRecord.from_metrics(
            make_metrics(rounds=2),
            engine=ENGINE_REFERENCE,
            algorithm="a",
            n=4,
            m=4,
        )
        b = RunRecord.from_metrics(
            make_metrics(rounds=2, bits=9),
            engine=ENGINE_VECTORIZED,
            algorithm="b",
            n=4,
            m=4,
        )
        verdict = compare_round_accounting(a, b)
        assert not verdict["accounting_equal"]
        assert verdict["first_mismatch"] == 0
        assert verdict["mismatched_rounds"] == 2
        assert verdict["rounds_equal"]
        same = compare_round_accounting(a, a)
        assert same["accounting_equal"] and same["totals_equal"]


# the standing cross-engine check: same cell, identical per-round accounting
EQUIVALENCE_CELLS = [
    ("linial", "linial_vectorized"),
    ("greedy", "greedy_vectorized"),
    ("classic", "classic_vectorized"),
]


class TestCrossEngineEquivalence:
    @pytest.mark.parametrize("reference,vectorized", EQUIVALENCE_CELLS)
    def test_ring_cell(self, reference, vectorized):
        self.check_cell("ring", {"n": 30}, reference, vectorized)

    @pytest.mark.parametrize("reference,vectorized", EQUIVALENCE_CELLS)
    def test_random_regular_cell(self, reference, vectorized):
        # large enough that Linial's schedule is non-trivial (rounds >= 1)
        self.check_cell(
            "random_regular",
            {"n": 150, "degree": 5, "seed": 1},
            reference,
            vectorized,
        )

    def check_cell(self, family, family_params, reference, vectorized):
        ref = compute_cell(SweepCell.make(family, family_params, reference))
        vec = compute_cell(SweepCell.make(family, family_params, vectorized))
        ra = RunRecord.from_dict(ref["run_record"])
        rb = RunRecord.from_dict(vec["run_record"])
        assert ra.engine == ENGINE_REFERENCE and rb.engine == ENGINE_VECTORIZED
        verdict = compare_round_accounting(ra, rb)
        assert verdict["accounting_equal"], verdict
        assert verdict["rounds_equal"] and verdict["totals_equal"]
        assert ref["metrics"]["total_bits"] == vec["metrics"]["total_bits"]
        assert ref["metrics"]["rounds"] == vec["metrics"]["rounds"]

    def test_linial_pair_has_traffic(self):
        # guard against the equivalence passing vacuously (0 rounds)
        rec = compute_cell(
            SweepCell.make(
                "random_regular", {"n": 150, "degree": 5, "seed": 1}, "linial"
            )
        )
        assert rec["metrics"]["rounds"] >= 1
        assert rec["metrics"]["total_messages"] > 0


class TestReportRendering:
    def sweep_cache(self, tmp_path):
        cells = [
            SweepCell.make("ring", {"n": 30}, alg)
            for pair in EQUIVALENCE_CELLS
            for alg in pair
        ]
        run_sweep(cells, cache_dir=tmp_path, workers=1)
        return tmp_path

    def test_report_renders_from_cache_dir(self, tmp_path):
        from repro.analysis.report import (
            load_cache_run_records,
            pair_cross_engine,
            render_obs_report,
        )

        cache = self.sweep_cache(tmp_path)
        records = load_cache_run_records(cache)
        assert len(records) == 6
        pairs = pair_cross_engine(records)
        assert len(pairs) == 3
        text = render_obs_report(records)
        assert "cross-engine equivalence" in text
        assert "EQUAL" in text and "MISMATCH" not in text
        assert "round  messages  total_bits" in text

    def test_render_flags_mismatch(self):
        from repro.analysis.report import render_engine_comparison

        a = RunRecord.from_metrics(
            make_metrics(rounds=2),
            engine=ENGINE_REFERENCE,
            algorithm="linial",
            n=4,
            m=4,
        )
        b = RunRecord.from_metrics(
            make_metrics(rounds=2, count=5),
            engine=ENGINE_VECTORIZED,
            algorithm="linial_vectorized",
            n=4,
            m=4,
        )
        text = render_engine_comparison(a, b)
        assert "MISMATCH" in text
        assert "first mismatch at round 0" in text

    def test_cli_report_cache_dir(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        cache = self.sweep_cache(tmp_path)
        assert cli_main(["report", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "cross-engine equivalence" in out
        assert "EQUAL" in out

    def test_cli_report_cache_dir_mismatch_fails(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        cache = self.sweep_cache(tmp_path)
        tampered = 0
        for path in sorted(cache.glob("*.json")):
            cell = json.loads(path.read_text())
            if cell["algorithm"] == "linial_vectorized":
                cell["run_record"]["rows"][0]["messages"] += 1
                path.write_text(json.dumps(cell))
                tampered += 1
        assert tampered == 1
        assert cli_main(["report", "--cache-dir", str(cache)]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH" in out

    def test_cli_report_renders_retired_engine_unpaired(self, tmp_path, capsys):
        """A cache written by a backend the registry no longer has (the
        ``compiled`` engine and its ``linial_<engine>`` sweep name)
        renders that record, but pairs it with nothing — its tampered
        rows would MISMATCH if it were compared."""
        from repro.analysis.report import load_cache_run_records, pair_cross_engine
        from repro.cli import main as cli_main

        engine = "compiled"
        algorithm = f"linial_{engine}"
        cache = self.sweep_cache(tmp_path)
        for path in sorted(cache.glob("*.json")):
            cell = json.loads(path.read_text())
            if cell["algorithm"] == "linial_vectorized":
                cell["algorithm"] = algorithm
                cell["run_record"]["algorithm"] = algorithm
                cell["run_record"]["engine"] = engine
                cell["run_record"]["rows"][0]["messages"] += 1
                path.write_text(json.dumps(cell))
        records = load_cache_run_records(cache)
        assert len(records) == 6
        assert len(pair_cross_engine(records)) == 2
        assert cli_main(["report", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert f"{algorithm} [{engine}]" in out
        assert "MISMATCH" not in out

    def test_cli_report_runs_jsonl(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        path = tmp_path / "runs.jsonl"
        recorder = RunRecorder(engine=ENGINE_VECTORIZED, jsonl_path=path)
        linial_vectorized(ring(12), recorder=recorder)
        assert cli_main(["report", "--runs", str(path)]) == 0
        out = capsys.readouterr().out
        assert "linial_vectorized" in out

    def test_cli_report_empty_sources_fail(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["report", "--cache-dir", str(tmp_path)]) == 1
        assert "(no run records)" in capsys.readouterr().out
