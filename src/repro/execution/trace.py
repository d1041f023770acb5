"""Execution trace records.

These are the artefacts dynamic tests produce and everything else consumes:
the graph builder turns sequential traces into CT-graph vertices and edges,
the dataset builder labels vertices from concurrent coverage, and the race
detector scans the serialized access stream. The interpreter
(:class:`~repro.execution.machine.Machine`) records accesses, bug events
and per-thread coverage itself; the executors only package them.

:class:`MemoryAccess` is a named tuple because one is recorded per
shared-memory access (hundreds of thousands per PCT campaign): the
interpreter loop builds it by plain tuple construction, the race detector
reads its columns in one transpose, and it pickles compactly when workers
ship results back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

__all__ = ["MemoryAccess", "BugEvent", "SequentialTrace", "ConcurrentResult"]


class MemoryAccess(NamedTuple):
    """One dynamic shared-memory access."""

    step: int
    thread: int
    iid: int
    block_id: int
    address: int
    is_write: bool
    locks_held: FrozenSet[str]
    #: Scheduling epoch: number of context switches before this access.
    epoch: int = 0


@dataclass(frozen=True)
class BugEvent:
    """A fired CHECK/DEREF assertion (a manifested concurrency bug)."""

    step: int
    thread: int
    iid: int
    block_id: int
    kind: str  # "check" or "deref"


@dataclass
class SequentialTrace:
    """Everything recorded from a single-threaded STI execution."""

    sti_id: int
    covered_blocks: Set[int] = field(default_factory=set)
    #: Blocks in first-entry order (the SCB control-flow path).
    block_sequence: List[int] = field(default_factory=list)
    #: Consecutive-entry pairs, i.e. dynamic control-flow edges.
    flow_edges: List[Tuple[int, int]] = field(default_factory=list)
    #: Full dynamic instruction-id stream (source of scheduling hints).
    iid_trace: List[int] = field(default_factory=list)
    accesses: List[MemoryAccess] = field(default_factory=list)
    bug_events: List[BugEvent] = field(default_factory=list)
    completed: bool = True

    @property
    def num_steps(self) -> int:
        return len(self.iid_trace)

    def written_addresses(self) -> Set[int]:
        return {a.address for a in self.accesses if a.is_write}

    def read_addresses(self) -> Set[int]:
        return {a.address for a in self.accesses if not a.is_write}

    def accessed_addresses(self) -> Set[int]:
        return {a.address for a in self.accesses}

    def dataflow_edges(self) -> List[Tuple[int, int]]:
        """Intra-thread dataflow: (writer block → reader block) pairs.

        For every read, an edge from the block holding the most recent
        prior write to the same address within this trace.
        """
        last_writer: Dict[int, int] = {}
        edges: List[Tuple[int, int]] = []
        seen: Set[Tuple[int, int]] = set()
        for access in self.accesses:
            if access.is_write:
                last_writer[access.address] = access.block_id
            else:
                writer_block = last_writer.get(access.address)
                if writer_block is not None and writer_block != access.block_id:
                    edge = (writer_block, access.block_id)
                    if edge not in seen:
                        seen.add(edge)
                        edges.append(edge)
        return edges


@dataclass
class ConcurrentResult:
    """Everything recorded from one concurrent test execution."""

    #: Blocks covered per thread during the concurrent run (one set per
    #: thread; two-thread CTs are the paper's configuration but campaigns
    #: may run any N).
    covered_blocks: Tuple[Set[int], ...]
    accesses: List[MemoryAccess] = field(default_factory=list)
    bug_events: List[BugEvent] = field(default_factory=list)
    #: Number of context switches that actually happened.
    num_switches: int = 0
    #: Scheduling hints that were actually enforced (vs skipped).
    hints_enforced: int = 0
    steps: int = 0
    #: Interrupts injected during the run (§6 extension).
    irqs_fired: int = 0
    #: Why the run did not complete: ``None`` (completed), ``"hang"``
    #: (instruction budget exceeded — the recorded outcome for a CT that
    #: would wedge a real worker), ``"deadlock"``, or ``"quarantined"``
    #: (the supervisor gave up after repeated failures and recorded a
    #: failed-but-counted result).
    failure: Optional[str] = None

    @property
    def completed(self) -> bool:
        return self.failure is None

    @property
    def deadlocked(self) -> bool:
        return self.failure == "deadlock"

    @property
    def hung(self) -> bool:
        """Whether the run was cut off by the instruction budget."""
        return self.failure == "hang"

    def all_covered(self) -> Set[int]:
        return set().union(*self.covered_blocks)

    def schedule_dependent_blocks(self, scbs: Set[int]) -> Set[int]:
        """Concurrently covered blocks outside the sequential coverage.

        This is the paper's "schedule-dependent block coverage" metric
        (§5.3): blocks covered concurrently but by neither constituent STI
        when run single-threaded.
        """
        return self.all_covered() - scbs

    def manifested_bug_blocks(self) -> Set[int]:
        return {event.block_id for event in self.bug_events}
