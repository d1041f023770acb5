"""Shared fixtures for the benchmark harness.

Every bench reproduces one table or figure of the paper (see DESIGN.md's
experiment index). The heavyweight artefacts — the v5.12 kernel and its
trained PIC model, the evolved v5.13/v6.1 kernels and their fine-tuned /
from-scratch model variants — are built once per session here.

Bench output (the paper-style tables and series) is printed and also
written to ``benchmarks/results/`` so it survives pytest's capture —
except under ``REPRO_BENCH_SMOKE=1``, whose shrunken runs are echoed
only: the committed tables are full runs and CI must not clobber them.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro.core import ExplorationConfig, Snowcat, SnowcatConfig
from repro.kernel import EvolutionConfig, KernelConfig, build_kernel, evolve_kernel

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: The v5.12 stand-in every experiment starts from.
PAPER_KERNEL_CONFIG = KernelConfig(version="v5.12")

#: Exploration budgets used by campaign benches: the paper's 50-execution
#: budget with a reduced inference cap (scaled to the substrate).
CAMPAIGN_EXPLORATION = ExplorationConfig(
    execution_budget=40, inference_cap=400, proposal_pool=400
)

SNOWCAT_CONFIG = SnowcatConfig(
    seed=7,
    corpus_rounds=300,
    dataset_ctis=56,
    train_interleavings=6,
    evaluation_interleavings=8,
    epochs=8,
    hidden_dim=64,
    num_layers=4,
    exploration=CAMPAIGN_EXPLORATION,
)


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def report(results_dir):
    """Write a bench's rendered output to results/<name>.txt and echo it.

    Writes are atomic (temp+fsync+rename): an interrupted bench leaves
    the previous result file intact instead of a truncated one. A smoke
    run (``REPRO_BENCH_SMOKE=1``) only echoes: its numbers come from
    shrunken sizes and must never replace a committed full run.
    """
    from repro.resilience.atomic import atomic_write_text

    def write(name: str, text: str) -> None:
        path = os.path.join(results_dir, f"{name}.txt")
        if os.environ.get("REPRO_BENCH_SMOKE") == "1":
            print(f"\n{text}\n[smoke run: {path} left untouched]")
            return
        atomic_write_text(path, text + "\n")
        print(f"\n{text}\n[written to {path}]")

    return write


@pytest.fixture(scope="session")
def kernel512():
    return build_kernel(PAPER_KERNEL_CONFIG, seed=42)


@pytest.fixture(scope="session")
def snowcat512(kernel512):
    """Snowcat trained on v5.12: the PIC-5 stand-in."""
    instance = Snowcat(kernel512, SNOWCAT_CONFIG)
    instance.train("PIC-5")
    return instance


@pytest.fixture(scope="session")
def kernel513(kernel512):
    """v5.13: released ~2 months after 5.12 — a small evolution step."""
    return evolve_kernel(
        kernel512,
        EvolutionConfig(
            version="v5.13",
            rebuild_fraction=0.15,
            new_helpers_per_subsystem=0,
            new_syscalls_per_subsystem=1,
        ),
        seed=13,
    )


@pytest.fixture(scope="session")
def kernel61(kernel512):
    """v6.1: ~18 months of churn — heavier rebuild, new APIs, new bugs."""
    return evolve_kernel(
        kernel512,
        EvolutionConfig(
            version="v6.1",
            rebuild_fraction=0.4,
            new_helpers_per_subsystem=1,
            new_syscalls_per_subsystem=1,
            new_atomicity_bugs=2,
            new_order_bugs=1,
            new_data_races=1,
        ),
        seed=61,
    )


@pytest.fixture(scope="session")
def pic6_ft_sml(snowcat512, kernel61):
    """PIC-6.ft.sml: fine-tuned on a small v6.1 dataset."""
    return snowcat512.adapt_to(kernel61, dataset_ctis=6, epochs=2, name="PIC-6.ft.sml")


@pytest.fixture(scope="session")
def pic6_ft_med(snowcat512, kernel61):
    """PIC-6.ft.med: fine-tuned on a medium v6.1 dataset."""
    return snowcat512.adapt_to(kernel61, dataset_ctis=14, epochs=3, name="PIC-6.ft.med")


def _scratch_snowcat(kernel, dataset_ctis, epochs, seed, name):
    config = replace(
        SNOWCAT_CONFIG, dataset_ctis=dataset_ctis, epochs=epochs, seed=seed
    )
    instance = Snowcat(kernel, config)
    instance.train(name)
    return instance


@pytest.fixture(scope="session")
def pic6_scratch_sml(kernel61):
    """PIC-6.scratch.sml: fresh model, small v6.1 dataset."""
    return _scratch_snowcat(kernel61, 6, 2, 23, "PIC-6.scratch.sml")


@pytest.fixture(scope="session")
def pic6_scratch_med(kernel61):
    """PIC-6.scratch.med: fresh model, medium v6.1 dataset."""
    return _scratch_snowcat(kernel61, 14, 3, 29, "PIC-6.scratch.med")


@pytest.fixture(scope="session")
def pic513_ft_sml(snowcat512, kernel513):
    """PIC-5.13.ft.sml: fine-tuned on a small v5.13 dataset."""
    return snowcat512.adapt_to(
        kernel513, dataset_ctis=6, epochs=2, name="PIC-5.13.ft.sml"
    )
