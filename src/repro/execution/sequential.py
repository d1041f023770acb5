"""Single-threaded STI execution.

Step 2 of the paper's workflow (§3): run each sequential test input alone
and record the information that primes the CT generator — the covered
blocks (SCBs), the dynamic control-flow path, the memory footprint (used
for potential inter-thread dataflow edges), and the dynamic instruction
stream (the population scheduling hints are drawn from).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.errors import ExecutionLimitExceeded
from repro.execution.machine import (
    DEFAULT_MAX_STEPS,
    Machine,
    RecordingSink,
    ThreadContext,
)
from repro.execution.trace import SequentialTrace
from repro.kernel.code import Kernel

__all__ = ["run_sequential"]


class _SequentialSink(RecordingSink):
    def __init__(self, trace: SequentialTrace) -> None:
        super().__init__(trace.accesses, trace.bug_events)
        self.trace = trace
        self.iid_trace = trace.iid_trace
        self._previous_block: Optional[int] = None

    def on_block_entry(self, thread: ThreadContext, block_id: int) -> None:
        trace = self.trace
        if self._previous_block is not None:
            trace.flow_edges.append((self._previous_block, block_id))
        self._previous_block = block_id
        if block_id not in trace.covered_blocks:
            trace.covered_blocks.add(block_id)
            trace.block_sequence.append(block_id)


def run_sequential(
    kernel: Kernel,
    syscalls: Sequence[Tuple[str, Sequence[int]]],
    sti_id: int = -1,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> SequentialTrace:
    """Execute ``syscalls`` on a single thread against a fresh kernel state.

    Returns the full :class:`SequentialTrace`; an exceeded step budget marks
    the trace ``completed=False`` instead of propagating, since a fuzzing
    campaign must survive pathological inputs.
    """
    trace = SequentialTrace(sti_id=sti_id)
    sink = _SequentialSink(trace)
    machine = Machine(kernel, sink, max_steps=max_steps)
    thread = machine.create_thread(syscalls)
    try:
        while machine.runnable(thread):
            machine.run(thread)
    except ExecutionLimitExceeded:
        trace.completed = False
    return trace
