"""Sweep-runner batching (:func:`repro.experiments.sweep.compute_cells_batched`).

The sweep's batched default path has to be invisible in the artifact:
records must match :func:`compute_cell`'s field for field (only the
clock fields may differ), a poison cell must quarantine exactly itself
with the same ``status: "failed"`` record the per-cell path would have
produced, and the cache must keep its contract — cached cells are
served, not repacked into a batch.
"""

import pytest

from repro.experiments import sweep as sweep_mod
from repro.experiments.sweep import (
    FAST_PATHS,
    SweepCell,
    _compute_batch,
    compute_cell,
    compute_cells_batched,
    load_cached_detailed,
    run_sweep,
)

CLOCK_FIELDS = {
    "wall_s",
    "timings",
    "phase_s",
    "started_at",
    "finished_at",
    "batched_with",
}


def strip_clock(record):
    """Deep-copy a record with every timing/batching-provenance field
    removed (those legitimately differ between execution strategies)."""
    if isinstance(record, dict):
        return {
            key: strip_clock(value)
            for key, value in record.items()
            if key not in CLOCK_FIELDS
        }
    if isinstance(record, list):
        return [strip_clock(item) for item in record]
    return record


def cells_for(algorithm, count=3):
    out = []
    for i in range(count):
        algo_params = {}
        if algorithm == "defective_split":
            algo_params = {"defect": 1}
        elif algorithm == "linial_faulty_vectorized":
            algo_params = {"faults": {"seed": 3, "p_drop": 0.2}}
        out.append(
            SweepCell.make(
                "random_regular",
                {"n": 24 + 6 * i, "degree": 3, "seed": 50 + i},
                algorithm,
                algo_params,
            )
        )
    return out


def crash_stop_cell():
    """A cell whose run halts: crash-stop faults (no recovery) on a graph
    large enough that the Linial schedule has a real round to crash in."""
    return SweepCell.make(
        "random_regular",
        {"n": 900, "degree": 14, "seed": 5},
        "linial_faulty_vectorized",
        {
            "faults": {
                "seed": 5,
                "p_crash": 0.8,
                "crash_horizon": 4,
                "recovery_rounds": None,
            }
        },
    )


class TestBatchedRecordsMatchPerCell:
    @pytest.mark.parametrize("algorithm", sorted(FAST_PATHS))
    def test_record_equality_modulo_clock(self, algorithm):
        cells = cells_for(algorithm)
        batched = compute_cells_batched(cells)
        for cell, record in zip(cells, batched):
            assert strip_clock(record) == strip_clock(compute_cell(cell))

    def test_batched_wall_attribution(self):
        """Batched cells report the *actual* batch wall time (shared by
        every record of the group) plus the group size — not a fabricated
        per-cell split; per-cell records carry ``batched_with == 1``."""
        cells = cells_for("linial_vectorized")
        records = compute_cells_batched(cells)
        assert len({r["wall_s"] for r in records}) == 1
        assert all(r["batched_with"] == len(cells) for r in records)
        assert compute_cell(cells[0])["batched_with"] == 1

    def test_mixed_algorithms_rejected(self):
        cells = cells_for("linial_vectorized") + cells_for("greedy_vectorized")
        with pytest.raises(ValueError, match="one algorithm"):
            compute_cells_batched(cells)

    def test_unbatchable_algorithm_rejected(self):
        cell = SweepCell.make(
            "random_regular",
            {"n": 24, "degree": 3, "seed": 1},
            "linial_reference",
        )
        with pytest.raises(ValueError, match="no batched path"):
            compute_cells_batched([cell, cell])


class TestPoisonCellQuarantine:
    def test_poison_cell_fails_alone_with_per_cell_error(self):
        """The crash-stop cell lands ``status: "failed"`` with the exact
        error the per-cell path reports; siblings in the same batch land
        ``ok`` with unchanged records."""
        poison = crash_stop_cell()
        siblings = cells_for("linial_faulty_vectorized")
        cells = [siblings[0], poison, siblings[1], siblings[2]]
        records = compute_cells_batched(cells)

        statuses = [r["status"] for r in records]
        assert statuses == ["ok", "failed", "ok", "ok"]

        try:
            compute_cell(poison)
        except Exception as exc:  # noqa: BLE001 - exact-message contract
            solo_type = type(exc).__name__
            solo_msg = str(exc)
        else:
            pytest.fail("poison cell unexpectedly succeeded per-cell")
        assert records[1]["error"]["type"] == solo_type
        assert records[1]["error"]["message"] == solo_msg

        for cell, record in zip(
            [siblings[0], siblings[1], siblings[2]],
            [records[0], records[2], records[3]],
        ):
            assert strip_clock(record) == strip_clock(compute_cell(cell))

    def test_quarantine_persists_in_cache(self, tmp_path):
        """Through the worker entry point with a cache: the poison cell
        checkpoints as a ``failed`` record, siblings as hits."""
        poison = crash_stop_cell()
        siblings = cells_for("linial_faulty_vectorized")
        cells = [poison, *siblings]
        _compute_batch([c.spec() for c in cells], cache_dir=str(tmp_path))
        _, status = load_cached_detailed(tmp_path, poison)
        assert status == "failed"
        for cell in siblings:
            _, status = load_cached_detailed(tmp_path, cell)
            assert status == "hit"


class TestCacheExcludesFromPacking:
    def test_cached_cells_never_repacked(self, tmp_path, monkeypatch):
        """Pre-cached cells are served from disk; only the uncached
        remainder reaches the batched computation."""
        cells = cells_for("linial_vectorized", count=4)
        run_sweep(cells[:2], cache_dir=tmp_path, workers=1)

        seen = []
        real = sweep_mod.compute_cells_batched

        def spy(batch_cells):
            seen.append([sweep_mod.cell_key(c) for c in batch_cells])
            return real(batch_cells)

        monkeypatch.setattr(sweep_mod, "compute_cells_batched", spy)
        records = _compute_batch(
            [c.spec() for c in cells], cache_dir=str(tmp_path)
        )
        assert [r["status"] for r in records] == ["ok"] * 4
        packed = {key for group in seen for key in group}
        assert packed == {sweep_mod.cell_key(c) for c in cells[2:]}

    def test_single_uncached_cell_skips_batching(self, tmp_path, monkeypatch):
        """A lone uncached cell takes the per-cell loop (batching one
        instance buys nothing)."""
        cells = cells_for("linial_vectorized", count=3)
        run_sweep(cells[:2], cache_dir=tmp_path, workers=1)
        monkeypatch.setattr(
            sweep_mod,
            "compute_cells_batched",
            lambda _: pytest.fail("batched path used for a single cell"),
        )
        records = _compute_batch(
            [c.spec() for c in cells], cache_dir=str(tmp_path)
        )
        assert [r["status"] for r in records] == ["ok"] * 3

    def test_batched_and_looped_sweeps_share_cache_entries(self, tmp_path):
        """A sweep computed batched then reloaded from cache equals the
        records the per-cell path computes for the same cells."""
        cells = cells_for("classic_vectorized")
        first = [r.data for r in run_sweep(cells, cache_dir=tmp_path, workers=1)]
        again = [r.data for r in run_sweep(cells, cache_dir=tmp_path, workers=1)]
        assert [strip_clock(r) for r in first] == [strip_clock(r) for r in again]
        for cell, record in zip(cells, first):
            assert strip_clock(record) == strip_clock(compute_cell(cell))
