"""PCT interleaving exploration and scheduling-hint proposal.

Two related facilities live here:

- :class:`PctScheduler` / :func:`run_concurrent_pct`: a faithful
  implementation of the PCT algorithm (Burckhardt et al. [6]) driving the
  machine directly — random distinct thread priorities plus ``depth - 1``
  priority-change points sampled over the expected step count. This is the
  exploration algorithm SKI uses, i.e. the paper's baseline.

- :func:`propose_hint_pairs`: the candidate-schedule generator used by both
  PCT-as-a-proposer and MLPCT. It samples pairs of scheduling hints
  ``(A.x, B.y)`` from the threads' *sequential* instruction streams, which
  is exactly the population of candidates the paper's CT graphs encode
  (§3.1, "two scheduling hints per CT").

Keeping the proposal distribution shared between the baseline and MLPCT
means coverage comparisons isolate the contribution of the learned filter,
the quantity the paper evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ExecutionLimitExceeded
from repro.execution.concurrent import ScheduleHint
from repro.execution.machine import DEFAULT_MAX_STEPS, Machine
from repro.execution.trace import ConcurrentResult, SequentialTrace
from repro.kernel.code import Kernel

__all__ = [
    "PctScheduler",
    "run_concurrent_pct",
    "propose_hint_pairs",
    "propose_hint_tuples",
    "iter_hint_tuples",
    "ATTEMPTS_PER_PROPOSAL",
]

#: Draws allowed per requested proposal before a proposer gives up on a
#: small trace product (repeats are skipped, not retried forever).
ATTEMPTS_PER_PROPOSAL = 5


@dataclass
class PctScheduler:
    """State of one PCT run: thread priorities and change points.

    ``priorities[t]`` is thread ``t``'s current priority (higher runs
    first); ``change_points`` are global step indices at which the running
    thread's priority is dropped below every initial priority.
    """

    priorities: List[float]
    change_points: List[int]
    depth: int

    @staticmethod
    def sample(
        rng: np.random.Generator,
        num_threads: int,
        expected_steps: int,
        depth: int = 3,
    ) -> "PctScheduler":
        """Sample a PCT schedule: random priorities + d-1 change points."""
        if depth < 1:
            raise ValueError("PCT depth must be >= 1")
        priorities = list(rng.permutation(num_threads).astype(float) + float(depth))
        count = max(depth - 1, 0)
        horizon = max(expected_steps, 1)
        change_points = sorted(int(p) for p in rng.integers(1, horizon + 1, size=count))
        return PctScheduler(
            priorities=priorities, change_points=change_points, depth=depth
        )

    def next_thread(self, runnable: Sequence[bool]) -> Optional[int]:
        best: Optional[int] = None
        for tid, ok in enumerate(runnable):
            if ok and (best is None or self.priorities[tid] > self.priorities[best]):
                best = tid
        return best

    def on_step(self, step: int, running: int) -> None:
        """Apply a priority change if ``step`` is a change point."""
        while self.change_points and self.change_points[0] <= step:
            index = len(self.change_points)
            self.change_points.pop(0)
            # The i-th change point (from the end) drops priority to i-1,
            # keeping later drops below earlier ones, as in the paper.
            self.priorities[running] = float(index - 1) - self.depth


def run_concurrent_pct(
    kernel: Kernel,
    stis: Sequence[Sequence],
    scheduler: PctScheduler,
    max_steps: int = DEFAULT_MAX_STEPS,
    memory_model: str = "sc",
) -> ConcurrentResult:
    """Execute N STIs under a sampled PCT schedule."""
    machine = Machine(kernel, max_steps=max_steps, memory_model=memory_model)
    threads = [machine.create_thread(sti) for sti in stis]
    num_switches = 0
    previous: Optional[int] = None
    deadlocked = False
    limit_hit = False
    try:
        # One iteration per scheduling event: the highest-priority runnable
        # thread changes only when a thread blocks, finishes or releases a
        # lock (``machine.run`` returns) or at the next change point.
        while not machine.all_done():
            runnable = [machine.runnable(t) for t in threads]
            tid = scheduler.next_thread(runnable)
            if tid is None:
                deadlocked = True
                break
            if previous is not None and previous != tid:
                num_switches += 1
                machine.epoch += 1
            previous = tid
            change_points = scheduler.change_points
            machine.run(
                threads[tid],
                until_total=change_points[0] if change_points else None,
            )
            scheduler.on_step(machine.total_steps, tid)
    except ExecutionLimitExceeded:
        limit_hit = True
    return ConcurrentResult(
        covered_blocks=tuple(machine.covered),
        accesses=machine.accesses,
        bug_events=machine.bug_events,
        num_switches=num_switches,
        steps=machine.steps,
        failure="hang" if limit_hit else ("deadlock" if deadlocked else None),
    )


def propose_hint_pairs(
    rng: np.random.Generator,
    trace_a: SequentialTrace,
    trace_b: SequentialTrace,
    count: int,
) -> List[Tuple[ScheduleHint, ScheduleHint]]:
    """Propose up to ``count`` distinct scheduling-hint pairs.

    Each pair is ``(switch after A executes x, switch after B executes y)``
    with ``x``/``y`` drawn uniformly from the sequential instruction streams
    — the same two-hints-per-CT setup the paper configures Snowcat with.
    Duplicates are dropped; fewer than ``count`` pairs may be returned when
    the trace product is small.
    """
    return propose_hint_tuples(  # type: ignore[return-value]
        rng, (trace_a, trace_b), count
    )


def iter_hint_tuples(
    rng: np.random.Generator,
    traces: Sequence[SequentialTrace],
    max_attempts: int,
) -> Iterator[Tuple[ScheduleHint, ...]]:
    """Distinct per-thread hint vectors, drawn lazily.

    Each draw takes one hint per thread, uniformly from that thread's
    sequential instruction stream, in thread order; repeats of an earlier
    draw are skipped. At most ``max_attempts`` draws are made, and none
    before the consumer asks for the next vector, so a consumer that stops
    early leaves the rest of ``rng``'s stream undrawn.
    """
    if any(not trace.iid_trace for trace in traces):
        return
    seen: Set[Tuple[int, ...]] = set()
    for _ in range(max_attempts):
        key = tuple(
            int(trace.iid_trace[int(rng.integers(len(trace.iid_trace)))])
            for trace in traces
        )
        if key in seen:
            continue
        seen.add(key)
        yield tuple(ScheduleHint(thread=tid, iid=iid) for tid, iid in enumerate(key))


def propose_hint_tuples(
    rng: np.random.Generator,
    traces: Sequence[SequentialTrace],
    count: int,
) -> List[Tuple[ScheduleHint, ...]]:
    """Propose up to ``count`` distinct per-thread hint vectors.

    The N-thread generalization of :func:`propose_hint_pairs`: the first
    ``count`` vectors of :func:`iter_hint_tuples` within
    ``count * ATTEMPTS_PER_PROPOSAL`` draws. At two threads the consumed RNG
    stream and the returned pairs are exactly those of the original pair
    proposer. Because draws are lazy, a shorter ``count`` under the same
    attempt limit returns a prefix of the longer one's list.
    """
    return list(
        islice(iter_hint_tuples(rng, traces, count * ATTEMPTS_PER_PROPOSAL), count)
    )
