"""Crash-safety machinery for long-running testing campaigns.

Snowcat's value proposition is *long-running* campaigns (§5.4's
continuous-testing steady state), on a substrate where individual
executions routinely hang, crash, or wedge a worker. This package makes
the campaign engine survive all of that:

- :mod:`repro.resilience.atomic` — temp-file + fsync + rename writes, so
  a crash never leaves a truncated artifact;
- :mod:`repro.resilience.log` — the one durable-log primitive: sealed
  JSON-lines log, sealed document, header → units → checkpoint journal;
- :mod:`repro.resilience.journal` — the campaign and continuous-testing
  journals as record schemas over it; an interrupted-then-resumed
  campaign is byte-identical to an uninterrupted one;
- :mod:`repro.resilience.faults` — deterministic seeded fault plans
  (worker crashes, hangs, transient errors) for recovery tests and
  ``--inject-faults`` soak runs;
- :mod:`repro.resilience.supervisor` — supervised CT execution with
  per-CT timeouts, bounded retries, quarantine of poison CTs, and
  automatic pool→serial fallback after repeated worker deaths.

See ``docs/ROBUSTNESS.md`` for the journal format, resume semantics,
fault-spec grammar, and degradation policy.
"""

from repro.resilience.atomic import (
    atomic_write_bytes,
    atomic_write_text,
    probe_writable,
    sha256_hex,
)
from repro.resilience.faults import FaultPlan, InjectedFault
from repro.resilience.journal import (
    CampaignJournal,
    ContinuousJournal,
    campaign_result_from_dict,
    campaign_result_to_dict,
    reset_journal,
)
from repro.resilience.supervisor import SupervisedRunner, SupervisionPolicy

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "probe_writable",
    "sha256_hex",
    "FaultPlan",
    "InjectedFault",
    "CampaignJournal",
    "ContinuousJournal",
    "campaign_result_to_dict",
    "campaign_result_from_dict",
    "reset_journal",
    "SupervisedRunner",
    "SupervisionPolicy",
]
