"""Fault-tolerant distributed campaign fleet (see ``docs/FLEET.md``).

A coordinator shards a campaign's CTIs into pure score/execute jobs,
hands them to forked workers under a per-job deadline, rides out
worker crashes, hangs, and serve-server restarts, journals its own
progress for crash-exact resume, and folds the results into a
:class:`~repro.core.mlpct.CampaignResult` byte-identical to the
single-process campaign — with a provenance receipt for every job.
"""

from repro.fleet.coordinator import FleetConfig, FleetCoordinator, run_fleet
from repro.fleet.receipts import (
    RECEIPT_SCHEMA,
    load_receipt,
    receipt_path,
    verify_receipts,
    write_receipt,
)
from repro.fleet.report import FleetReport, render_fleet_report

__all__ = [
    "FleetConfig",
    "FleetCoordinator",
    "run_fleet",
    "RECEIPT_SCHEMA",
    "receipt_path",
    "write_receipt",
    "load_receipt",
    "verify_receipts",
    "FleetReport",
    "render_fleet_report",
]
