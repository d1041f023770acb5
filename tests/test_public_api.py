"""The public API surface: everything README/TUTORIAL references imports."""

import importlib

import pytest


PUBLIC_SYMBOLS = {
    "repro": ["ReproError", "__version__"],
    "repro.kernel": [
        "KernelConfig",
        "build_kernel",
        "EvolutionConfig",
        "evolve_kernel",
        "save_kernel",
        "load_kernel",
        "Kernel",
        "BugKind",
        "BugSpec",
    ],
    "repro.execution": [
        "run_sequential",
        "run_concurrent",
        "ScheduleHint",
        "PctScheduler",
        "propose_hint_pairs",
        "RaceDetector",
        "find_potential_races",
        "alias_coverage",
        "Machine",
    ],
    "repro.fuzz": ["STI", "SyscallCall", "StiGenerator", "Corpus"],
    "repro.analysis": ["build_kernel_cfg", "find_urbs", "urb_frontier"],
    "repro.graphs": [
        "CTGraph",
        "CTIGraphTemplate",
        "build_ct_graph",
        "build_ct_template",
        "GraphDatasetBuilder",
        "CTExample",
        "Vocabulary",
    ],
    "repro.ml": [
        "PICModel",
        "PICConfig",
        "train_pic",
        "fine_tune_pic",
        "AllPositive",
        "FairCoin",
        "BiasedCoin",
        "average_precision",
        "tune_threshold",
        "Adam",
        "Tensor",
    ],
    "repro.core": [
        "Snowcat",
        "SnowcatConfig",
        "MLPCTExplorer",
        "PCTExplorer",
        "run_campaign",
        "make_strategy",
        "FilterModel",
        "DirectedScheduleSearch",
        "CostLedger",
        "OverlapPrioritizedGenerator",
    ],
    "repro.integrations": ["RazzerHarness", "RazzerVariant", "SnowboardHarness"],
    "repro.oracle": [
        "ExhaustiveExplorer",
        "GroundTruth",
        "explore_interleavings",
        "DifferentialRunner",
        "ConformanceReport",
        "QualityConfig",
        "run_quality_gate",
        "measure_quality",
    ],
    "repro.run": ["RunSpec", "execute"],
    "repro.reporting": [
        "format_table",
        "format_series",
        "format_timeline",
        "downsample_history",
    ],
}


@pytest.mark.parametrize("module_name", sorted(PUBLIC_SYMBOLS))
def test_module_exports(module_name):
    module = importlib.import_module(module_name)
    for symbol in PUBLIC_SYMBOLS[module_name]:
        assert hasattr(module, symbol), f"{module_name}.{symbol} missing"


def test_all_lists_are_accurate():
    """Every name in __all__ must actually exist."""
    for module_name in PUBLIC_SYMBOLS:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists {name}"


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(part.isdigit() for part in parts)
