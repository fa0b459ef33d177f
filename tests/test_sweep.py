"""Tests for the parallel sweep runner and its on-disk cache."""

import json

import pytest

from repro.cli import main as cli_main
from repro.experiments.sweep import (
    FAST_PATHS,
    SweepCell,
    cell_key,
    compute_cell,
    compute_cells_batched,
    grid,
    partition_cells,
    run_sweep,
    run_sweep_summarized,
)


def small_cells():
    return grid(
        "random_regular",
        ["linial_vectorized", "classic_vectorized", "greedy_vectorized"],
        [48, 72],
        seeds=[0],
        extra_family_params={"degree": 4},
    )


class TestCells:
    def test_key_is_stable_and_param_order_independent(self):
        a = SweepCell.make("ring", {"n": 10}, "linial_vectorized", {"defect": 1})
        b = SweepCell.make("ring", {"n": 10}, "linial_vectorized", {"defect": 1})
        assert cell_key(a) == cell_key(b)
        c = SweepCell(
            family="ring",
            family_params=(("n", 10),),
            algorithm="linial_vectorized",
            algo_params=(("defect", 1),),
        )
        assert cell_key(c) == cell_key(a)

    def test_key_separates_specs(self):
        base = SweepCell.make("ring", {"n": 10}, "linial_vectorized")
        keys = {
            cell_key(base),
            cell_key(SweepCell.make("ring", {"n": 11}, "linial_vectorized")),
            cell_key(SweepCell.make("ring", {"n": 10}, "classic_vectorized")),
            cell_key(SweepCell.make("path", {"n": 10}, "linial_vectorized")),
        }
        assert len(keys) == 4

    def test_compute_cell_record_shape(self):
        rec = compute_cell(SweepCell.make("ring", {"n": 30}, "linial_vectorized"))
        assert rec["n"] == 30 and rec["m"] == 30 and rec["delta"] == 2
        assert rec["valid"] is True
        assert rec["metrics"]["rounds"] >= 1
        assert rec["key"] == cell_key(
            SweepCell.make("ring", {"n": 30}, "linial_vectorized")
        )

    def test_reference_algorithms_run_too(self):
        rec = compute_cell(
            SweepCell.make("random_regular", {"n": 24, "degree": 3, "seed": 1}, "thm14")
        )
        assert rec["valid"] is True and rec["metrics"] is not None

    def test_defective_split_validates_against_its_defect(self):
        rec = compute_cell(
            SweepCell.make(
                "random_regular",
                {"n": 48, "degree": 6, "seed": 3},
                "defective_split",
                {"defect": 2},
            )
        )
        assert rec["valid"] is True and rec["palette"] is not None


def _count_freezes(monkeypatch) -> list:
    """Record every CSR build from now on: by either constructor
    (``CSRGraph.from_networkx`` or ``CSRGraph.from_edges``), and one
    ``from_graphs`` entry per member that ``BatchCSRGraph.from_graphs``
    freezes in one pass.  A graph whose CSR is memoized is not frozen
    again, so it counts for neither."""
    from repro.sim.batch import BatchCSRGraph
    from repro.sim.engine import CSRGraph, memoized_csr

    def unfrozen(graph) -> bool:
        return not isinstance(graph, CSRGraph) and memoized_csr(graph) is None

    calls = []

    def spy_on(owner, name, count):
        real = getattr(owner, name).__func__

        def spy(cls, *args):
            calls.extend([name] * count(*args))
            return real(cls, *args)

        monkeypatch.setattr(owner, name, classmethod(spy))

    spy_on(CSRGraph, "from_networkx", unfrozen)
    spy_on(CSRGraph, "from_edges", lambda *_: 1)
    spy_on(BatchCSRGraph, "from_graphs", lambda graphs: sum(map(unfrozen, graphs)))
    return calls


def _count_networkx_graphs(monkeypatch) -> list:
    """Record every networkx graph constructed from now on."""
    import networkx as nx

    calls = []
    real = nx.Graph.__init__

    def spy(self, *args, **kwargs):
        calls.append(type(self).__name__)
        real(self, *args, **kwargs)

    monkeypatch.setattr(nx.Graph, "__init__", spy)
    return calls


def _old_path_record(cell) -> dict:
    """The analysis fields of ``compute_cell``'s record as the code before
    the single freeze computed them: the graph from networkx's builder,
    every kernel stage freezing its own CSR, and the coloring checked by
    the :mod:`repro.core.validate` oracles."""
    import networkx as nx

    from repro.algorithms.fk24 import fk24_lists
    from repro.core.validate import (
        validate_arbdefective_plain,
        validate_proper_coloring,
    )
    from repro.graphs.generators import _relabel
    from repro.obs import RunRecorder
    from repro.sim.backends import backend_of_sweep_algorithm
    from repro.sim.vectorized import (
        fk24_vectorized,
        linial_vectorized,
        schedule_reduction_vectorized,
    )

    p = dict(cell.family_params)
    graph = _relabel(nx.random_regular_graph(p["degree"], p["n"], seed=p["seed"]))
    delta = max(d for _, d in graph.degree)
    rec = RunRecorder(
        engine=backend_of_sweep_algorithm(cell.algorithm).engine,
        algorithm=cell.algorithm,
    )
    if cell.algorithm == "fk24_vectorized":
        lists, space = fk24_lists(graph, 1)
        result, metrics, palette = fk24_vectorized(
            graph, lists=lists, space_size=space, defect=1, recorder=rec
        )
        valid = validate_arbdefective_plain(graph, result, 1).ok and all(
            result.assignment[v] in lists[v] for v in graph
        )
    else:
        classic = cell.algorithm == "classic_vectorized"
        result, metrics, palette = linial_vectorized(
            graph, recorder=rec, _finalize_recorder=not classic
        )
        if classic:
            result, m2 = schedule_reduction_vectorized(
                graph, result.assignment, delta + 1, recorder=rec,
                _finalize_recorder=False,
            )
            metrics = metrics.merge_sequential(m2)
            palette = None
            rec.finalize(
                metrics,
                n=graph.number_of_nodes(),
                m=graph.number_of_edges(),
                palette=delta + 1,
                algorithm=cell.algorithm,
            )
        valid = validate_proper_coloring(graph, result).ok
    return {
        "n": graph.number_of_nodes(),
        "m": graph.number_of_edges(),
        "delta": delta,
        "colors": result.num_colors(),
        "valid": valid,
        "palette": palette,
        "metrics": metrics.summary(),
        "run_record": rec.record.to_dict(),
    }


class TestSingleFreeze:
    """A fast-path cell builds its graph once and freezes its CSR once."""

    @pytest.mark.parametrize("algorithm", sorted(FAST_PATHS))
    def test_compute_cell_freezes_once(self, monkeypatch, algorithm):
        cell = SweepCell.make(
            "random_regular", {"n": 300, "degree": 8, "seed": 4}, algorithm
        )
        calls = _count_freezes(monkeypatch)
        compute_cell(cell)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "algorithm", ["linial_vectorized", "classic_vectorized", "fk24_vectorized"]
    )
    def test_random_regular_cell_builds_no_networkx_graph(
        self, monkeypatch, algorithm
    ):
        cell = SweepCell.make(
            "random_regular", {"n": 300, "degree": 8, "seed": 4}, algorithm
        )
        graphs = _count_networkx_graphs(monkeypatch)
        freezes = _count_freezes(monkeypatch)
        assert compute_cell(cell)["valid"] is True
        assert graphs == []
        assert freezes == ["from_edges"]

    @pytest.mark.parametrize("seeds", [[4], [4, 5, 6]])
    def test_greedy_cell_reads_no_networkx_adjacency(self, monkeypatch, seeds):
        """A greedy cell of an emitting family builds its networkx graph
        for the instance's lists, but the kernel reads the CSR frozen from
        the edges, memoized on that graph: no adjacency walk."""
        from repro.sim import batch as batch_mod
        from repro.sim import engine as engine_mod

        walks = []

        def refuse(graphs):
            walks.append(len(graphs))
            raise AssertionError("networkx adjacency walked")

        monkeypatch.setattr(engine_mod, "_networkx_edges", refuse)
        monkeypatch.setattr(batch_mod, "_networkx_edges", refuse)
        cells = [
            SweepCell.make(
                "random_regular", {"n": 300, "degree": 8, "seed": s}, "greedy_vectorized"
            )
            for s in seeds
        ]
        records = (
            [compute_cell(cells[0])] if len(cells) == 1 else compute_cells_batched(cells)
        )
        assert [r["valid"] for r in records] == [True] * len(cells)
        assert walks == []

    def test_family_without_emitter_freezes_its_graph(self, monkeypatch):
        calls = _count_freezes(monkeypatch)
        compute_cell(SweepCell.make("clique", {"n": 12}, "linial_vectorized"))
        assert calls == ["from_networkx"]

    @pytest.mark.parametrize(
        "algorithm", ["linial_vectorized", "classic_vectorized", "fk24_vectorized"]
    )
    def test_record_matches_old_path(self, algorithm):
        cell = SweepCell.make(
            "random_regular", {"n": 300, "degree": 8, "seed": 4}, algorithm
        )
        record = compute_cell(cell)
        want = _old_path_record(cell)
        got = {k: record[k] for k in want}
        for r in (got["run_record"], want["run_record"]):
            r.pop("timings")  # clock fields, like wall_s
        assert got == want

    def test_classic_pipeline_freezes_once(self, monkeypatch):
        from repro.graphs import random_regular
        from repro.sim.vectorized import classic_delta_plus_one_vectorized

        graph = random_regular(300, 8, seed=4)
        calls = _count_freezes(monkeypatch)
        classic_delta_plus_one_vectorized(graph)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "algorithm",
        [
            "linial_vectorized",
            "linial_faulty_vectorized",
            "classic_vectorized",
            "fk24_vectorized",
            "defective_split",
        ],
    )
    def test_batched_random_regular_cells_build_no_networkx_graph(
        self, monkeypatch, algorithm
    ):
        from repro.experiments.sweep import compute_cells_batched

        params = {"faults": {"seed": 3, "p_drop": 0.2}} if "faulty" in algorithm else {}
        cells = [
            SweepCell.make(
                "random_regular", {"n": 120, "degree": 6, "seed": s}, algorithm, params
            )
            for s in range(3)
        ]
        graphs = _count_networkx_graphs(monkeypatch)
        freezes = _count_freezes(monkeypatch)
        records = compute_cells_batched(cells)
        assert [r["valid"] for r in records] == [True] * 3
        assert graphs == []
        assert freezes == ["from_edges"] * 3

    def test_classic_batch_takes_frozen_members(self):
        from repro.graphs import ring
        from repro.sim.batch import classic_delta_plus_one_vectorized_batch
        from repro.sim.engine import CSRGraph

        (frozen,) = classic_delta_plus_one_vectorized_batch(
            [CSRGraph.from_networkx(ring(6))]
        )
        (plain,) = classic_delta_plus_one_vectorized_batch([ring(6)])
        assert frozen[0].assignment == plain[0].assignment
        assert frozen[1].summary() == plain[1].summary()


def _tamper_first_node(result, lists):
    """``result`` with its first node recolored to a fresh color outside
    its list; no neighbor shares it, so the arbdefect budget still holds."""
    from repro.core.coloring import ColoringResult

    assignment = dict(result.assignment)
    v = next(iter(assignment))
    assignment[v] = 1 + max(c for lst in lists.values() for c in lst)
    return ColoringResult(assignment, result.orientation)


class TestFk24ListMembership:
    """An fk24 cell whose coloring leaves a node's list is not ``valid``."""

    CELL = {"n": 60, "degree": 4, "seed": 2}

    @staticmethod
    def _tamper_driver(monkeypatch):
        """Patch the fk24 batched driver, which every fk24 fast-path cell
        runs through, to recolor the first instance's first node."""
        import repro.sim.batch as batch

        real = batch.fk24_vectorized_batch

        def tampered(graphs, lists, **kwargs):
            outs = real(graphs, lists=lists, **kwargs)
            res, metrics, palette = outs[0]
            outs[0] = (_tamper_first_node(res, lists[0]), metrics, palette)
            return outs

        monkeypatch.setattr(batch, "fk24_vectorized_batch", tampered)

    def test_compute_cell_rejects_off_list_color(self, monkeypatch):
        cell = SweepCell.make("random_regular", self.CELL, "fk24_vectorized")
        assert compute_cell(cell)["valid"] is True
        self._tamper_driver(monkeypatch)
        assert compute_cell(cell)["valid"] is False

    def test_batched_cells_reject_off_list_color(self, monkeypatch):
        from repro.experiments.sweep import compute_cells_batched

        cells = [
            SweepCell.make("random_regular", dict(self.CELL, seed=s), "fk24_vectorized")
            for s in (2, 3)
        ]
        self._tamper_driver(monkeypatch)
        records = compute_cells_batched(cells)
        assert [r["valid"] for r in records] == [False, True]


def _fk24_outputs():
    """``(graph, lists, defect, result)`` of valid fk24 runs, labels gappy
    on one graph."""
    import networkx as nx

    from repro.algorithms.fk24 import fk24_lists
    from repro.graphs import gnp, hub_and_fringe, random_regular
    from repro.sim.vectorized import fk24_vectorized

    gappy = nx.relabel_nodes(gnp(30, 0.25, seed=2), lambda v: 1000 - 7 * v)
    cases = [
        (random_regular(40, 5, seed=1), 0, None),
        (random_regular(60, 6, seed=2), 1, 5),
        (gappy, 1, None),
        (hub_and_fringe(hub_degree=6, fringe_cliques=2, clique_size=3), 2, 9),
    ]
    for g, defect, seed in cases:
        lists, space = fk24_lists(g, defect, slack=1, seed=seed)
        result, _m, _p = fk24_vectorized(
            g, lists=lists, space_size=space, defect=defect
        )
        yield g, lists, space, defect, result


def _fk24_tamperings(g, lists, defect, result):
    """The four tampered outputs: one arc flipped, one arc dropped, a node
    recolored to a neighbor's color, and a color outside a node's list."""
    from collections import Counter

    from repro.core.coloring import ColoringResult, EdgeOrientation

    color = result.assignment
    arcs = result.orientation.arcs
    mono = sorted((a, b) for a, b in arcs if color[a] == color[b])
    out_same = Counter(a for a, _ in mono)
    # flip a monochromatic arc into a node whose own budget is spent, so
    # the flip breaks it; any arc when there is no such one
    over = [(a, b) for a, b in mono if out_same[b] == defect]
    u, v = (over or mono or sorted(arcs))[0]
    flipped = (arcs - {(u, v)}) | {(v, u)}
    yield "flip", ColoringResult(result.assignment, EdgeOrientation(flipped))
    yield "drop", ColoringResult(result.assignment, EdgeOrientation(arcs - {(u, v)}))
    hub = max(g.nodes, key=g.degree)
    w = next(x for x in g.neighbors(hub))
    recolored = dict(result.assignment)
    recolored[hub] = result.assignment[w]
    yield "neighbor", ColoringResult(recolored, result.orientation)
    off = dict(result.assignment)
    off[hub] = 1 + max(c for lst in lists.values() for c in lst)
    yield "off_list", ColoringResult(off, result.orientation)


class TestFk24CsrValidation:
    """The sweep's CSR fk24 check agrees with
    ``validate_arbdefective_plain`` plus the list check."""

    @staticmethod
    def _oracle(g, lists, defect, result) -> bool:
        from repro.core.validate import validate_arbdefective_plain

        return validate_arbdefective_plain(g, result, defect).ok and all(
            result.assignment.get(v) in lists[v] for v in g.nodes
        )

    @staticmethod
    def _csr_check(g, lists, space, defect, result) -> bool:
        from repro.experiments.sweep import _validate
        from repro.sim.engine import CSRGraph

        return _validate(
            CSRGraph.from_networkx(g),
            result,
            "fk24_vectorized",
            {"defect": defect},
            (lists, space, defect),
        )

    def test_agrees_on_valid_and_tampered_outputs(self):
        verdicts = {}
        for g, lists, space, defect, result in _fk24_outputs():
            assert self._csr_check(g, lists, space, defect, result) is True
            assert self._oracle(g, lists, defect, result)
            for name, tampered in _fk24_tamperings(g, lists, defect, result):
                got = self._csr_check(g, lists, space, defect, tampered)
                assert got == self._oracle(g, lists, defect, tampered), name
                verdicts.setdefault(name, set()).add(got)
        # every tampering is caught somewhere; dropping an arc and leaving
        # the list always are
        assert all(False in seen for seen in verdicts.values()), verdicts
        assert verdicts["drop"] == verdicts["off_list"] == {False}

    def test_rejects_a_missing_orientation_or_node(self):
        from repro.core.coloring import ColoringResult

        g, lists, space, defect, result = next(_fk24_outputs())
        bare = ColoringResult(result.assignment)
        assert self._csr_check(g, lists, space, defect, bare) is False
        partial = dict(result.assignment)
        partial.pop(next(iter(partial)))
        short = ColoringResult(partial, result.orientation)
        assert self._csr_check(g, lists, space, defect, short) is False


class TestPartitioning:
    def test_deterministic_round_robin(self):
        cells = small_cells()
        p1 = partition_cells(cells, 3)
        p2 = partition_cells(list(reversed(cells)), 3)
        assert p1 == p2  # order of input never changes the assignment
        flat = [c for batch in p1 for c in batch]
        assert sorted(map(cell_key, flat)) == sorted(map(cell_key, cells))

    def test_more_workers_than_cells(self):
        cells = small_cells()[:2]
        parts = partition_cells(cells, 5)
        assert sum(len(p) for p in parts) == 2

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            partition_cells(small_cells(), 0)


class TestRunSweep:
    def test_second_invocation_skips_cached_cells(self, tmp_path):
        cells = small_cells()
        first = run_sweep_summarized(cells, cache_dir=tmp_path, workers=1)
        assert first.computed == len(cells) and first.cached == 0
        second = run_sweep_summarized(cells, cache_dir=tmp_path, workers=1)
        assert second.computed == 0 and second.cached == len(cells)
        # cached records are byte-identical reads of what was stored
        for a, b in zip(first.results, second.results):
            assert a.data == b.data

    def test_partial_cache_only_computes_missing(self, tmp_path):
        cells = small_cells()
        run_sweep(cells[:3], cache_dir=tmp_path, workers=1)
        summary = run_sweep_summarized(cells, cache_dir=tmp_path, workers=1)
        assert summary.cached == 3
        assert summary.computed == len(cells) - 3

    def test_recompute_overrides_cache(self, tmp_path):
        cells = small_cells()[:2]
        run_sweep(cells, cache_dir=tmp_path, workers=1)
        summary = run_sweep_summarized(
            cells, cache_dir=tmp_path, workers=1, recompute=True
        )
        assert summary.computed == 2 and summary.cached == 0

    def test_results_in_caller_order(self, tmp_path):
        cells = small_cells()
        results = run_sweep(cells, cache_dir=tmp_path, workers=1)
        assert [r.cell for r in results] == cells

    def test_parallel_equals_inline(self, tmp_path):
        def strip_clock(data):
            # wall-clock and batching-provenance fields legitimately
            # differ between runs / worker counts
            out = {
                k: v
                for k, v in data.items()
                if k not in ("wall_s", "timings", "batched_with")
            }
            if out.get("run_record") is not None:
                out["run_record"] = {
                    k: v for k, v in out["run_record"].items() if k != "timings"
                }
            return out

        cells = small_cells()
        inline = run_sweep(cells, cache_dir=None, workers=1)
        parallel = run_sweep(cells, cache_dir=None, workers=2)
        for a, b in zip(inline, parallel):
            assert strip_clock(a.data) == strip_clock(b.data)

    def test_no_cache_dir_always_computes(self):
        cells = small_cells()[:2]
        s1 = run_sweep_summarized(cells, cache_dir=None, workers=1)
        s2 = run_sweep_summarized(cells, cache_dir=None, workers=1)
        assert s1.computed == 2 and s2.computed == 2

    def test_duplicate_cells_computed_once(self, tmp_path):
        cell = SweepCell.make("ring", {"n": 24}, "linial_vectorized")
        results = run_sweep([cell, cell], cache_dir=tmp_path, workers=1)
        assert len(results) == 1


class TestCacheSchema:
    def test_records_carry_current_schema(self, tmp_path):
        from repro.experiments.sweep import SWEEP_CACHE_SCHEMA, load_cached

        cell = SweepCell.make("ring", {"n": 24}, "linial_vectorized")
        run_sweep([cell], cache_dir=tmp_path, workers=1)
        cached = load_cached(tmp_path, cell)
        assert cached is not None
        assert cached["schema"] == SWEEP_CACHE_SCHEMA

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        from repro.experiments.sweep import SWEEP_CACHE_SCHEMA, load_cached

        cell = SweepCell.make("ring", {"n": 24}, "linial_vectorized")
        run_sweep([cell], cache_dir=tmp_path, workers=1)
        path = tmp_path / f"{cell_key(cell)}.json"
        record = json.loads(path.read_text())
        record["schema"] = SWEEP_CACHE_SCHEMA + 1  # simulate a code bump
        path.write_text(json.dumps(record))
        assert load_cached(tmp_path, cell) is None
        # the sweep recomputes (and rewrites) rather than serving stale data
        summary = run_sweep_summarized([cell], cache_dir=tmp_path, workers=1)
        assert summary.computed == 1 and summary.cached == 0
        assert load_cached(tmp_path, cell) is not None

    def test_pre_versioning_record_is_a_miss(self, tmp_path):
        from repro.experiments.sweep import load_cached

        cell = SweepCell.make("ring", {"n": 24}, "linial_vectorized")
        run_sweep([cell], cache_dir=tmp_path, workers=1)
        path = tmp_path / f"{cell_key(cell)}.json"
        record = json.loads(path.read_text())
        del record["schema"]  # records from before the field existed
        path.write_text(json.dumps(record))
        assert load_cached(tmp_path, cell) is None

    def test_run_record_attached_for_observable_paths(self, tmp_path):
        from repro.obs import OBS_SCHEMA_VERSION

        rec = compute_cell(SweepCell.make("ring", {"n": 24}, "linial_vectorized"))
        assert rec["run_record"] is not None
        assert rec["run_record"]["schema"] == OBS_SCHEMA_VERSION
        assert rec["run_record"]["engine"] == "vectorized"
        assert set(rec["timings"]) >= {"csr_build", "rounds"}
        # registry-only algorithms attach no record
        rec = compute_cell(
            SweepCell.make("random_regular", {"n": 24, "degree": 3, "seed": 1}, "thm14")
        )
        assert rec["run_record"] is None and rec["timings"] == {}


class TestAnalysisBridge:
    def test_sweep_result_from_cells(self, tmp_path):
        from repro.analysis.sweeps import sweep_result_from_cells

        cells = grid("ring", ["linial_vectorized"], [32, 64], seeds=[0])
        records = [r.data for r in run_sweep(cells, cache_dir=tmp_path, workers=1)]
        res = sweep_result_from_cells(records, x_param="n", metric="rounds")
        assert res.xs() == [32.0, 64.0]
        assert res.complete()
        colors = sweep_result_from_cells(records, x_param="n", metric="colors")
        assert all(p.samples for p in colors.points)


class TestCLI:
    def test_sweep_command_caches_across_invocations(self, tmp_path, capsys):
        argv = [
            "sweep",
            "--family", "ring",
            "--n", "40,80",
            "--algorithms", "linial_vectorized,classic_vectorized",
            "--cache-dir", str(tmp_path / "cache"),
            "--workers", "1",
            "--output", str(tmp_path / "sweep.json"),
        ]
        assert cli_main(argv) == 0
        out1 = capsys.readouterr().out
        assert "4 cells (4 computed, 0 cached)" in out1
        assert cli_main(argv) == 0
        out2 = capsys.readouterr().out
        assert "4 cells (0 computed, 4 cached)" in out2
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert payload["cached"] == 4 and len(payload["cells"]) == 4
        assert all(c["valid"] for c in payload["cells"])
