"""Aggregated fleet report: what the fleet did, and what it survived.

The campaign result itself is byte-identical to the single-process run
and carries no fleet fingerprints — so everything operational
(reassignments, worker deaths, lease expirations, serve reconnects,
receipts) lives here, in a separate report the coordinator
returns next to the :class:`CampaignResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.reporting.tables import format_table

__all__ = ["FleetReport", "render_fleet_report"]


@dataclass
class FleetReport:
    """Operational summary of one fleet campaign."""

    campaign: str
    workers: int
    ctis: int
    resumed_ctis: int = 0
    score_jobs: int = 0
    execute_jobs: int = 0
    jobs_completed: int = 0
    reassignments: int = 0
    worker_deaths: int = 0
    lease_expirations: int = 0
    transient_errors: int = 0
    serve_reconnects: int = 0
    receipts: int = 0
    receipts_dir: Optional[str] = None
    elapsed_seconds: float = 0.0
    per_worker_jobs: Dict[int, int] = field(default_factory=dict)

    @property
    def jobs_total(self) -> int:
        return self.score_jobs + self.execute_jobs

    def to_dict(self) -> Dict[str, object]:
        return {
            "campaign": self.campaign,
            "workers": self.workers,
            "ctis": self.ctis,
            "resumed_ctis": self.resumed_ctis,
            "score_jobs": self.score_jobs,
            "execute_jobs": self.execute_jobs,
            "jobs_completed": self.jobs_completed,
            "reassignments": self.reassignments,
            "worker_deaths": self.worker_deaths,
            "lease_expirations": self.lease_expirations,
            "transient_errors": self.transient_errors,
            "serve_reconnects": self.serve_reconnects,
            "receipts": self.receipts,
            "receipts_dir": self.receipts_dir,
            "elapsed_seconds": self.elapsed_seconds,
            "per_worker_jobs": {
                str(worker): jobs
                for worker, jobs in sorted(self.per_worker_jobs.items())
            },
        }


def render_fleet_report(reports: List[FleetReport]) -> str:
    """Render one aligned table over any number of fleet campaigns."""
    rows = []
    for report in reports:
        rows.append(
            {
                "campaign": report.campaign,
                "workers": report.workers,
                "ctis": f"{report.ctis - report.resumed_ctis}+{report.resumed_ctis}r"
                if report.resumed_ctis
                else report.ctis,
                "jobs": f"{report.jobs_completed}/{report.jobs_total}",
                "reassigned": report.reassignments,
                "deaths": report.worker_deaths,
                "leases_lost": report.lease_expirations,
                "reconnects": report.serve_reconnects,
                "receipts": report.receipts,
                "seconds": round(report.elapsed_seconds, 2),
            }
        )
    return format_table(rows, title="fleet report")
