"""Concurrent test execution under scheduling hints.

Implements the SKI-style serializing scheduler of §3.1: given threads
A and B and hints ``A.x`` / ``B.y``, run A up to (and including) instruction
``x``, yield to B, run B up to ``y``, yield back, then let threads run to
completion. N-thread CTs generalize this with blind round-robin hand-offs
(the two-thread schedule is unchanged). Faithfully reproduces SKI's
deviations:

- a hint whose instruction is never reached is *skipped* (the thread runs
  to completion and the scheduler moves on);
- a thread blocking on a lock forces an extra switch;
- both threads blocked would be a deadlock; the run is marked as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro import obs
from repro.errors import ExecutionLimitExceeded, ScheduleError
from repro.execution.machine import DEFAULT_MAX_STEPS, Machine, ThreadStatus
from repro.execution.trace import ConcurrentResult
from repro.kernel.code import Kernel

__all__ = ["ScheduleHint", "run_concurrent"]


@dataclass(frozen=True)
class ScheduleHint:
    """Yield after ``thread`` executes the instruction with id ``iid``."""

    thread: int
    iid: int


def run_concurrent(
    kernel: Kernel,
    stis: Sequence[Sequence[Tuple[str, Sequence[int]]]],
    hints: Sequence[ScheduleHint] = (),
    max_steps: int = DEFAULT_MAX_STEPS,
    memory_model: str = "sc",
    irq_plan: Sequence[Tuple[int, str]] = (),
) -> ConcurrentResult:
    """Execute N STIs concurrently under ``hints``.

    ``hints`` is an ordered sequence of switch points; two threads with two
    hints per CT is the paper's configuration, but any thread count and any
    number of hints (including zero) is accepted.
    ``memory_model="tso"`` runs with per-thread store buffers (§6).
    ``irq_plan`` is a step-ordered sequence of ``(global step, handler
    name)`` interrupt injections; each fires atomically on whichever
    thread is running when the step count passes the mark (§6's
    interrupt-handler coverage).
    """
    num_threads = len(stis)
    for hint in hints:
        if not 0 <= hint.thread < num_threads:
            raise ScheduleError(f"hint references unknown thread {hint.thread}")

    started = obs.tick()
    machine = Machine(kernel, max_steps=max_steps, memory_model=memory_model)
    threads = [machine.create_thread(sti) for sti in stis]

    pending_hints = list(hints)
    pending_irqs = sorted(irq_plan, key=lambda entry: entry[0])
    current = pending_hints[0].thread if pending_hints else 0
    num_switches = 0
    hints_enforced = 0
    irqs_fired = 0
    deadlocked = False
    limit_hit = False
    forced_away_from: Optional[int] = None

    def switch_to(target: int) -> None:
        nonlocal current, num_switches
        current = target
        num_switches += 1
        machine.epoch += 1

    def switch_away() -> None:
        # Blind round-robin hand-off: the next thread in tid order. At two
        # threads this is exactly "the other thread".
        switch_to((current + 1) % num_threads)

    done = ThreadStatus.DONE
    try:
        # One iteration per scheduling event: ``machine.run`` comes back
        # exactly when one of the conditions below can change.
        while not machine.all_done():
            if forced_away_from == current:
                forced_away_from = None
            if (
                forced_away_from is not None
                and forced_away_from != current
                and machine.runnable(threads[forced_away_from])
            ):
                # The thread we force-preempted (lock contention) can run
                # again: hand control back so its hints stay meaningful.
                switch_to(forced_away_from)
                forced_away_from = None
                continue
            thread = threads[current]
            if not machine.runnable(thread):
                runnable_offset = next(
                    (
                        offset
                        for offset in range(1, num_threads)
                        if machine.runnable(threads[(current + offset) % num_threads])
                    ),
                    None,
                )
                if runnable_offset is not None:
                    # Forced switch (SKI's deadlock-avoidance switch) to the
                    # next runnable thread in round-robin order. A pending
                    # hint for the blocked thread stays pending.
                    forced_away_from = current
                    switch_to((current + runnable_offset) % num_threads)
                    continue
                deadlocked = True
                break
            # Hints targeting the current thread are only actionable ones.
            stop_iid = None
            if pending_hints:
                active_hint = pending_hints[0]
                if active_hint.thread == current:
                    stop_iid = active_hint.iid
                elif threads[active_hint.thread].status is done:
                    # The scheduler is already past this hint's thread turn
                    # only when that thread finished; otherwise we simply
                    # run the current thread until its own hint or
                    # completion.
                    pending_hints.pop(0)
                    continue
            while (
                pending_irqs
                and machine.total_steps >= pending_irqs[0][0]
                and thread.status is not done
            ):
                _, handler_name = pending_irqs.pop(0)
                machine.fire_irq(thread, handler_name)
                irqs_fired += 1
            machine.run(
                thread, stop_iid, pending_irqs[0][0] if pending_irqs else None
            )
            if thread.status is done:
                if stop_iid is not None:
                    # The hint's switch point was never reached: skip it.
                    pending_hints.pop(0)
                if not machine.all_done():
                    switch_away()
            elif (
                stop_iid is not None
                and machine.last_thread == current
                and machine.last_iid == stop_iid
            ):
                pending_hints.pop(0)
                hints_enforced += 1
                switch_away()
    except ExecutionLimitExceeded:
        limit_hit = True

    if started is not None:
        obs.tock("execution.run_seconds", started)
        obs.add("execution.runs")
        obs.add("execution.steps", machine.steps)
        if deadlocked:
            obs.add("execution.deadlocks")
    return ConcurrentResult(
        covered_blocks=tuple(machine.covered),
        accesses=machine.accesses,
        bug_events=machine.bug_events,
        num_switches=num_switches,
        hints_enforced=hints_enforced,
        steps=machine.steps,
        irqs_fired=irqs_fired,
        failure="hang" if limit_hit else ("deadlock" if deadlocked else None),
    )
