"""Tests for the documentation tooling and repo-level doc invariants."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_gen_api_docs():
    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", REPO / "tools" / "gen_api_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestApiDocGenerator:
    def test_generates_all_packages(self, tmp_path):
        gen = load_gen_api_docs()
        out = tmp_path / "API.md"
        rc = gen.main(["gen_api_docs.py", str(out)])
        assert rc == 0
        text = out.read_text()
        for pkg in gen.PACKAGES:
            assert f"## `{pkg}`" in text

    def test_deterministic(self, tmp_path):
        gen = load_gen_api_docs()
        a, b = tmp_path / "a.md", tmp_path / "b.md"
        gen.main(["x", str(a)])
        gen.main(["x", str(b)])
        assert a.read_text() == b.read_text()

    def test_first_paragraph_helper(self):
        gen = load_gen_api_docs()
        assert gen.first_paragraph(None) == "(undocumented)"
        assert gen.first_paragraph("One.\n\nTwo.") == "One."
        assert gen.first_paragraph("  spread\n  over lines\n\nrest") == (
            "spread over lines"
        )

    def test_committed_docs_match_generator(self, tmp_path):
        """docs/API.md is exactly what the generator writes today:
        regenerate it with ``python tools/gen_api_docs.py`` after an API
        change."""
        gen = load_gen_api_docs()
        out = tmp_path / "API.md"
        assert gen.main(["gen_api_docs.py", str(out)]) == 0
        assert out.read_text() == (REPO / "docs" / "API.md").read_text(), (
            "docs/API.md is stale: run python tools/gen_api_docs.py"
        )

    def test_committed_docs_fresh_enough(self):
        """docs/API.md must exist and mention the main entry points."""
        text = (REPO / "docs" / "API.md").read_text()
        for needle in (
            "congest_delta_plus_one",
            "solve_oldc_main",
            "solve_list_arbdefective",
            "ListDefectiveInstance",
        ):
            assert needle in text, f"{needle} missing from docs/API.md"


class TestRepoDocs:
    def test_design_lists_all_experiments(self):
        text = (REPO / "DESIGN.md").read_text()
        from repro.experiments import EXPERIMENTS

        for eid in EXPERIMENTS:
            assert eid in text, f"{eid} missing from DESIGN.md"

    def test_experiments_md_covers_ids(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        from repro.experiments import EXPERIMENTS

        for eid in EXPERIMENTS:
            assert f"## {eid}" in text or f"| {eid}" in text, (
                f"{eid} missing from EXPERIMENTS.md"
            )

    def test_readme_quickstart_runs(self):
        """The README quickstart snippet must stay executable."""
        import repro

        g = repro.graphs.gnp(20, 0.3, seed=1)
        coloring, metrics, report = repro.algorithms.congest_delta_plus_one(g)
        inst = repro.degree_plus_one_instance(g)
        assert repro.validate_ldc(inst, coloring)
