"""Subprocess driver for the fleet kill-and-resume tests.

Run as ``python tests/_fleet_driver.py JOURNAL [--fault-spec SPEC]``:
builds a small deterministic kernel + corpus + (untrained, seeded) PIC
model, then runs a journaled MLPCT *fleet* campaign. A ``die@j`` fault
spec makes the coordinator ``os._exit`` at dispatch of job ``j`` —
exactly what SIGKILL looks like to the journal — so the parent test can
resume the journal in-process (without the die spec, the established
journal-driver pattern) and assert the aggregate is byte-identical to
the fault-free single-process campaign.

The tests also import :func:`build_fleet_campaign` to reconstruct the
*exact same* explorer + CTI stream in-process.
"""

from __future__ import annotations

import argparse
import sys

from repro import rng as rngmod
from repro.core.mlpct import (
    ExplorationConfig,
    MLPCTExplorer,
    PCTExplorer,
)
from repro.core.strategies import make_strategy
from repro.graphs.dataset import GraphDatasetBuilder
from repro.kernel import KernelConfig, build_kernel
from repro.ml.pic import PICConfig, PICModel

SEED = 7
NUM_CTIS = 5
EXECUTION_BUDGET = 3
INFERENCE_CAP = 8

KERNEL_CONFIG = KernelConfig(
    num_subsystems=2,
    functions_per_subsystem=3,
    syscalls_per_subsystem=3,
    vars_per_subsystem=6,
    segments_per_function=(2, 3),
    num_atomicity_bugs=1,
    num_order_bugs=1,
    num_data_races=1,
    version="v5.12",
)


def build_fleet_campaign(mlpct: bool = True):
    """The canonical fleet test campaign: explorer + CTI stream.

    Deterministic and cheap: the PIC model is seeded but untrained —
    byte-identity only needs the *same* predictor on both sides, not a
    good one.
    """
    kernel = build_kernel(KERNEL_CONFIG, seed=SEED)
    graphs = GraphDatasetBuilder(kernel, seed=SEED)
    graphs.grow_corpus(rounds=60)
    config = ExplorationConfig(
        execution_budget=EXECUTION_BUDGET,
        proposal_pool=6,
        inference_cap=INFERENCE_CAP,
    )
    if mlpct:
        model = PICModel(
            PICConfig(
                vocab_size=len(graphs.vocabulary),
                pad_id=graphs.vocabulary.pad_id,
                token_dim=8,
                hidden_dim=12,
                num_layers=2,
            ),
            seed=SEED,
        )
        explorer = MLPCTExplorer(
            graphs,
            predictor=model,
            strategy=make_strategy("S1"),
            config=config,
            seed=SEED,
        )
    else:
        explorer = PCTExplorer(graphs, config=config, seed=SEED)
    ctis = graphs.corpus.sample_pairs(
        rngmod.split(SEED, "ctis:fleet-driver"), NUM_CTIS
    )
    return explorer, ctis


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("journal")
    parser.add_argument("--fault-spec", default=None)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--pct", action="store_true")
    parser.add_argument("--receipts", default=None)
    args = parser.parse_args(argv)
    from repro.fleet import FleetConfig, run_fleet
    from repro.resilience.journal import CampaignJournal

    explorer, ctis = build_fleet_campaign(mlpct=not args.pct)
    journal = CampaignJournal(args.journal)
    config = FleetConfig(
        workers=args.workers,
        lease_seconds=5.0,
        fault_spec=args.fault_spec,
        receipts_dir=args.receipts,
    )
    try:
        run_fleet(explorer, ctis, config=config, journal=journal)
    finally:
        journal.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
