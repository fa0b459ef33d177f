"""Tests for the algorithm registry, the engine-backend registry
(:mod:`repro.sim.backends`), and their CLI integration."""

import pytest

from repro.core import validate_proper_coloring
from repro.graphs import gnp, random_regular
from repro.algorithms.registry import algorithm_names, get, run


class TestRegistry:
    def test_names_sorted(self):
        names = algorithm_names()
        assert names == sorted(names)
        assert "thm14" in names and "classic" in names

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            get("quantum")

    @pytest.mark.parametrize("name", algorithm_names())
    def test_every_entry_runs_and_is_proper(self, name):
        g = random_regular(24, 4, seed=601)
        res, metrics = run(name, g)
        validate_proper_coloring(g, res).raise_if_invalid()
        assert metrics.rounds >= 0

    @pytest.mark.parametrize("name", algorithm_names())
    def test_palette_guarantee_honored(self, name):
        g = gnp(30, 0.25, seed=602)
        delta = max(d for _, d in g.degree)
        res, _m = run(name, g)
        info = get(name)
        bound = delta + 1 if info.palette == "Delta+1" else 2 * delta + 1
        assert res.num_colors() <= bound

    def test_deterministic_flags_accurate(self):
        g = gnp(24, 0.3, seed=603)
        for name in algorithm_names():
            info = get(name)
            if info.deterministic:
                a = run(name, g)[0].assignment
                b = run(name, g)[0].assignment
                assert a == b, f"{name} flagged deterministic but differs"


class TestBackendRegistry:
    def test_unknown_backend_is_structured_error(self):
        from repro.sim.backends import (
            BackendError,
            UnknownBackendError,
            get_backend,
        )

        with pytest.raises(UnknownBackendError, match="unknown backend"):
            get_backend("quantum")
        # structured, never a bare KeyError
        assert not issubclass(UnknownBackendError, KeyError)
        assert issubclass(UnknownBackendError, BackendError)

    def test_every_backend_declares_every_algorithm(self):
        from repro.sim.backends import ALGORITHMS, BACKENDS

        for spec in BACKENDS.values():
            for algorithm in ALGORITHMS:
                spec.algorithm_support(algorithm)  # must not raise

    def test_require_rejects_unsupported_algorithm(self):
        from repro.sim.backends import CapabilityError, require

        with pytest.raises(CapabilityError, match="does not support algorithm"):
            require("partitioned", algorithm="greedy")
        assert require("partitioned", algorithm="linial").name == "partitioned"

    def test_require_rejects_capability_mismatches(self):
        from repro.sim.backends import CapabilityError, require

        with pytest.raises(CapabilityError, match="fault injection"):
            require("partitioned", faults=True)
        with pytest.raises(CapabilityError, match="batched execution"):
            require("reference", batch=True)
        assert require("vectorized", faults=True, batch=True).name == "vectorized"

    def test_sweep_algorithm_ownership(self):
        from repro.sim.backends import (
            UnknownBackendError,
            backend_of_sweep_algorithm,
        )

        assert backend_of_sweep_algorithm("linial_vectorized").name == "vectorized"
        assert backend_of_sweep_algorithm("linial").name == "reference"
        with pytest.raises(UnknownBackendError, match="no backend declares"):
            backend_of_sweep_algorithm("linial_quantum")

    def test_batchable_sweep_algorithms_drive_sweep(self):
        from repro.experiments.sweep import FAST_PATHS
        from repro.sim.backends import batchable_sweep_algorithms

        derived = batchable_sweep_algorithms()
        assert set(derived) == set(FAST_PATHS)
        assert "linial_vectorized" in derived

    def test_describe_reports_availability(self):
        """Every registered backend is listed with its capability line,
        and every algorithm is declared for it."""
        from repro.sim.backends import BACKENDS, describe

        text = describe()
        for name, spec in BACKENDS.items():
            assert f"{name}:" in text
            assert f"engine={spec.engine}" in text
        assert "UNDECLARED" not in text

    def test_every_declared_sweep_name_has_a_runner(self):
        """A sweep name a backend declares but no dispatch table runs
        would fail a user's sweep cell; the report's twin table may only
        pair declared names."""
        from repro.analysis.report import REFERENCE_TWINS
        from repro.experiments.sweep import FAST_PATHS, REFERENCE_PATHS
        from repro.sim.backends import BACKENDS

        declared = {
            name
            for spec in BACKENDS.values()
            for entry in spec.algorithms.values()
            for name in entry.sweep_names
        }
        assert declared <= set(FAST_PATHS) | set(REFERENCE_PATHS)
        assert set(REFERENCE_TWINS) | set(REFERENCE_TWINS.values()) <= declared

    def test_pairs_for_backend_resolution(self):
        from repro.fuzz import (
            ENGINE_PAIRS,
            PARTITIONED_PAIRS,
            pairs_for_backend,
        )
        from repro.sim.backends import CapabilityError, UnknownBackendError

        assert pairs_for_backend("vectorized") is ENGINE_PAIRS
        assert pairs_for_backend("batched") is ENGINE_PAIRS
        assert pairs_for_backend("partitioned") is PARTITIONED_PAIRS
        with pytest.raises(CapabilityError, match="baseline"):
            pairs_for_backend("reference")
        with pytest.raises(UnknownBackendError):
            pairs_for_backend("quantum")

    def test_partitioned_backend_capabilities(self):
        from repro.sim.backends import CapabilityError, get_backend, require

        spec = get_backend("partitioned")
        assert spec.bit_identical_to == "vectorized"
        assert require("partitioned", algorithm="linial") is spec
        with pytest.raises(CapabilityError, match="does not support algorithm"):
            require("partitioned", algorithm="classic")
        with pytest.raises(CapabilityError, match="fault injection"):
            require("partitioned", faults=True)
        with pytest.raises(CapabilityError, match="batched execution"):
            require("partitioned", batch=True)

    def test_cli_backends_subcommand(self, capsys):
        from repro.cli import main

        rc = main(["backends"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("reference", "vectorized", "batched", "partitioned"):
            assert f"{name}:" in out

    def test_cli_fuzz_rejects_unknown_backend(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown backend"):
            main(["fuzz", "--backend", "quantum", "--iterations", "1"])


class TestCLIAlgorithmFlag:
    @pytest.mark.parametrize("name", ["thm14", "classic", "bar16", "linear"])
    def test_color_with_algorithm(self, name, capsys):
        from repro.cli import main

        rc = main(["color", "--family", "ring", "--n", "10", "--algorithm", name])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"algorithm={name}" in out
        assert "valid=True" in out

    def test_invalid_algorithm_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["color", "--family", "ring", "--n", "10", "--algorithm", "nope"])
