"""Ground-truth oracles: the subsystem that checks the checker.

Most of this repo is tested against itself — one code path against
another.  This package provides *independent* references to test
against:

- :mod:`repro.oracle.explorer` — a bounded exhaustive interleaving
  explorer for tiny N-thread CTs (thread count, IRQ injection, and the
  TSO weak-memory model are all explorable axes).  Enumerating every
  schedule (with optional partial-order / sleep-set pruning) yields
  ground-truth coverage sets, race universes, and bug-manifestation
  verdicts that any single observed execution must be contained in.
- :mod:`repro.oracle.quality` — a model-quality regression gate:
  golden pinned pipeline, measured metrics, stored baselines with
  tolerance bands, surfaced as ``repro quality`` in the CLI.

See ``docs/TESTING.md`` for how the oracle suite is run in CI.
"""

from repro.oracle.explorer import (
    DEFAULT_MAX_THREADS,
    PRUNING_MODES,
    ExhaustiveExplorer,
    GroundTruth,
    conflicting_pairs,
    explore_interleavings,
    reference_alias_pairs,
    reference_potential_races,
)
from repro.oracle.quality import (
    DEFAULT_TOLERANCES,
    GOLDEN_CONFIG,
    GOLDEN_KERNEL_CONFIG,
    Baseline,
    MetricCheck,
    QualityConfig,
    QualityReport,
    build_golden,
    check_against_baseline,
    default_baseline_path,
    load_baseline,
    measure_quality,
    run_quality_gate,
    write_baseline,
)

__all__ = [
    # explorer
    "PRUNING_MODES",
    "DEFAULT_MAX_THREADS",
    "ExhaustiveExplorer",
    "GroundTruth",
    "explore_interleavings",
    "conflicting_pairs",
    "reference_potential_races",
    "reference_alias_pairs",
    # quality
    "QualityConfig",
    "GOLDEN_CONFIG",
    "GOLDEN_KERNEL_CONFIG",
    "DEFAULT_TOLERANCES",
    "Baseline",
    "MetricCheck",
    "QualityReport",
    "build_golden",
    "measure_quality",
    "load_baseline",
    "write_baseline",
    "check_against_baseline",
    "run_quality_gate",
    "default_baseline_path",
]
