"""Single-threaded STI execution.

Step 2 of the paper's workflow (§3): run each sequential test input alone
and record the information that primes the CT generator — the covered
blocks (SCBs), the dynamic control-flow path, the memory footprint (used
for potential inter-thread dataflow edges), and the dynamic instruction
stream (the population scheduling hints are drawn from).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.errors import ExecutionLimitExceeded
from repro.execution.machine import DEFAULT_MAX_STEPS, Machine
from repro.execution.trace import SequentialTrace
from repro.kernel.code import Kernel

__all__ = ["run_sequential"]


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
    machine = Machine(kernel, max_steps=max_steps)
    machine.iid_trace, machine.block_trace = [], []
    thread = machine.create_thread(syscalls)
    completed = True
    try:
        while machine.runnable(thread):
            machine.run(thread)
    except ExecutionLimitExceeded:
        completed = False
    entries = machine.block_trace
    return SequentialTrace(
        sti_id=sti_id,
        covered_blocks=set(entries),
        block_sequence=list(dict.fromkeys(entries)),
        flow_edges=list(zip(entries, entries[1:])),
        iid_trace=machine.iid_trace,
        accesses=machine.accesses,
        bug_events=machine.bug_events,
        completed=completed,
    )
