"""Differential fuzzing: the engine-equivalence contract, enforced.

PR 1 and PR 2 established a standing contract — every vectorized fast
path must be node-for-node and round-for-round equivalent to the
reference :class:`~repro.sim.network.SyncNetwork` run — but hand-picked
test graphs only sample that contract.  The paper's reductions
(Theorems 1.2–1.4) chain many stages, so a silent divergence in one
stage corrupts every downstream measurement.  This package turns the
contract into a machine:

* :mod:`repro.fuzz.case` — :class:`FuzzCase`, the concrete, serializable
  description of one differential trial (graph, label regime, lists,
  defects, initial colors);
* :mod:`repro.fuzz.generator` — the seeded random instance generator
  over the graph families of :mod:`repro.graphs.generators` and the
  instance builders of :mod:`repro.core.instance`, including the
  non-contiguous / unsorted node-label regimes hand-written tests never
  cover;
* :mod:`repro.fuzz.differential` — the engine-pair registry and
  :func:`run_case`, which executes a case on the reference engine
  (wrapped in :class:`~repro.sim.referee.RefereedAlgorithm`) and the
  matching vectorized fast path, then checks output equality,
  :func:`~repro.obs.compare_round_accounting` equivalence, and the
  semantic oracles of :mod:`repro.core.validate`;
* :mod:`repro.fuzz.shrink` — a greedy shrinker that minimizes failing
  cases by deleting nodes/edges and shrinking lists while the failure
  reproduces;
* :mod:`repro.fuzz.corpus` — the JSON failure corpus under
  ``tests/corpus/``, replayed as regression tests;
* :mod:`repro.fuzz.runner` — :func:`fuzz_run`, the
  generate → run → shrink → serialize loop behind ``repro-cli fuzz``.

See ``docs/FUZZING.md`` for the workflow.
"""

from .case import CORPUS_SCHEMA_VERSION, FuzzCase
from .corpus import (
    case_filename,
    corrupt_corpus_files,
    load_case,
    load_corpus,
    replay_corpus,
    save_case,
)
from .differential import (
    ENGINE_PAIRS,
    PARTITIONED_PAIRS,
    CaseOutcome,
    EnginePair,
    pair_names,
    pairs_for_backend,
    run_case,
    run_cases_batched,
)
from .generator import FAMILY_SPACE, LABEL_SCHEMES, generate_case
from .runner import FuzzFailure, FuzzReport, fuzz_run
from .shrink import shrink_case

__all__ = [
    "PARTITIONED_PAIRS",
    "CORPUS_SCHEMA_VERSION",
    "ENGINE_PAIRS",
    "FAMILY_SPACE",
    "LABEL_SCHEMES",
    "CaseOutcome",
    "EnginePair",
    "FuzzCase",
    "FuzzFailure",
    "FuzzReport",
    "case_filename",
    "corrupt_corpus_files",
    "fuzz_run",
    "generate_case",
    "load_case",
    "load_corpus",
    "pair_names",
    "pairs_for_backend",
    "replay_corpus",
    "run_case",
    "run_cases_batched",
    "save_case",
    "shrink_case",
]
