"""Dynamic execution engine: the SKI stand-in.

Interprets the synthetic ISA with a serializing (uni-processor) scheduler,
enforces scheduling hints the way SKI does (skipping missed switch points,
forcing switches when a thread blocks), implements PCT, and collects the
traces everything downstream consumes: block coverage, memory accesses,
bug events, and potential data races.
"""

from repro.execution.trace import (
    BugEvent,
    ConcurrentResult,
    MemoryAccess,
    SequentialTrace,
)
from repro.execution.machine import Machine, ThreadContext, ThreadStatus
from repro.execution.sequential import run_sequential
from repro.execution.concurrent import ScheduleHint, run_concurrent
from repro.execution.pct import PctScheduler, propose_hint_pairs, run_concurrent_pct
from repro.execution.races import PotentialRace, RaceDetector, find_potential_races
from repro.execution.alias import AliasCoverageTracker, AliasPair, alias_coverage
from repro.execution.parallel import CTTask, WorkerPool, WorkerProcess, worker_main

__all__ = [
    "BugEvent",
    "ConcurrentResult",
    "MemoryAccess",
    "SequentialTrace",
    "Machine",
    "ThreadContext",
    "ThreadStatus",
    "run_sequential",
    "ScheduleHint",
    "run_concurrent",
    "PctScheduler",
    "propose_hint_pairs",
    "run_concurrent_pct",
    "PotentialRace",
    "RaceDetector",
    "find_potential_races",
    "AliasPair",
    "alias_coverage",
    "AliasCoverageTracker",
    "CTTask",
    "WorkerPool",
    "WorkerProcess",
    "worker_main",
]
