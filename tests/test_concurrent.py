"""Tests for hint-driven concurrent execution (the SKI scheduler)."""

import hashlib
import json

import pytest

from repro.errors import ScheduleError
from repro.execution import ScheduleHint, run_concurrent, run_sequential


@pytest.fixture(scope="module")
def stis(kernel):
    names = kernel.syscall_names()
    sti_a = [(names[0], [1, 2]), (names[1], [0])]
    sti_b = [(names[2], [3]), (names[3], [1, 1])]
    return sti_a, sti_b


@pytest.fixture(scope="module")
def traces(kernel, stis):
    return (
        run_sequential(kernel, stis[0], sti_id=0),
        run_sequential(kernel, stis[1], sti_id=1),
    )


class TestBasicExecution:
    def test_no_hints_runs_to_completion(self, kernel, stis):
        result = run_concurrent(kernel, stis)
        assert result.completed
        assert not result.deadlocked
        assert result.covered_blocks[0]
        assert result.covered_blocks[1]

    def test_unknown_thread_in_hint_rejected(self, kernel, stis):
        with pytest.raises(ScheduleError):
            run_concurrent(kernel, stis, hints=[ScheduleHint(thread=2, iid=0)])

    def test_hints_enforced_when_reachable(self, kernel, stis, traces):
        hints = [
            ScheduleHint(0, traces[0].iid_trace[len(traces[0].iid_trace) // 2]),
            ScheduleHint(1, traces[1].iid_trace[len(traces[1].iid_trace) // 3]),
        ]
        result = run_concurrent(kernel, stis, hints=hints)
        assert result.hints_enforced >= 1
        assert result.num_switches >= result.hints_enforced

    def test_unreachable_hint_skipped(self, kernel, stis):
        # iid 10**6 does not exist in any trace: SKI skips the switch.
        result = run_concurrent(
            kernel, stis, hints=[ScheduleHint(0, 10**6), ScheduleHint(1, 10**6)]
        )
        assert result.completed
        assert result.hints_enforced == 0

    def test_determinism_given_hints(self, kernel, stis, traces):
        hints = [
            ScheduleHint(0, traces[0].iid_trace[5]),
            ScheduleHint(1, traces[1].iid_trace[5]),
        ]
        r1 = run_concurrent(kernel, stis, hints=hints)
        r2 = run_concurrent(kernel, stis, hints=hints)
        assert r1.covered_blocks == r2.covered_blocks
        assert len(r1.accesses) == len(r2.accesses)


class TestCoverageProperties:
    def test_concurrent_coverage_supersets_are_plausible(
        self, kernel, stis, traces
    ):
        """Concurrent per-thread coverage stays within the kernel and
        includes each thread's entry block."""
        result = run_concurrent(kernel, stis)
        for thread in (0, 1):
            assert result.covered_blocks[thread] <= set(kernel.blocks)
            assert traces[thread].block_sequence[0] in result.covered_blocks[thread]

    def test_schedule_dependent_blocks_excludes_scbs(self, kernel, stis, traces):
        result = run_concurrent(kernel, stis)
        scbs = traces[0].covered_blocks | traces[1].covered_blocks
        assert result.schedule_dependent_blocks(scbs) & scbs == set()

    def test_different_hints_can_change_coverage(self, kernel):
        """Somewhere in the kernel, the interleaving changes coverage."""
        names = kernel.syscall_names()
        found_sensitive_cti = False
        for offset in range(6):
            sti_a = [(names[offset], [1, 2]), (names[offset + 1], [0])]
            sti_b = [(names[offset + 2], [3]), (names[offset + 3], [1, 1])]
            trace_a = run_sequential(kernel, sti_a)
            trace_b = run_sequential(kernel, sti_b)
            coverages = set()
            for pos_a in range(0, len(trace_a.iid_trace), 11):
                for pos_b in range(0, len(trace_b.iid_trace), 17):
                    hints = [
                        ScheduleHint(0, trace_a.iid_trace[pos_a]),
                        ScheduleHint(1, trace_b.iid_trace[pos_b]),
                    ]
                    result = run_concurrent(kernel, (sti_a, sti_b), hints=hints)
                    coverages.add(frozenset(result.all_covered()))
            if len(coverages) > 1:
                found_sensitive_cti = True
                break
        assert found_sensitive_cti


class TestSwitchAccounting:
    def test_epochs_increase_with_switches(self, kernel, stis, traces):
        hints = [
            ScheduleHint(0, traces[0].iid_trace[3]),
            ScheduleHint(1, traces[1].iid_trace[3]),
        ]
        result = run_concurrent(kernel, stis, hints=hints)
        max_epoch = max((a.epoch for a in result.accesses), default=0)
        assert max_epoch <= result.num_switches
        assert result.num_switches >= 1


def record_digest(result):
    """sha256 of everything an execution records: every access field
    (locksets sorted), the bug events, per-thread coverage, steps and the
    outcome. ``result_digest`` hashes only the access count."""
    record = {
        "accesses": [
            [*access[:6], sorted(access.locks_held), access.epoch]
            for access in result.accesses
        ],
        "bugs": [
            [event.step, event.thread, event.iid, event.block_id, event.kind]
            for event in result.bug_events
        ],
        "covered": [sorted(blocks) for blocks in result.covered_blocks],
        "steps": result.steps,
        "failure": result.failure,
    }
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class TestRecordContent:
    """The full record of three executions, pinned: a field-order, step
    or epoch slip in the machine's recorder changes these digests."""

    def test_two_thread_sc_with_hints(self, kernel):
        spec = kernel.bugs[0]
        writer = [(spec.trigger_syscalls[0], [spec.trigger_args[0]])]
        reader = [(spec.trigger_syscalls[1], [spec.trigger_args[1]])]
        reader_iids = run_sequential(kernel, reader).iid_trace
        hints = [ScheduleHint(0, spec.write_iid), ScheduleHint(1, reader_iids[3])]
        result = run_concurrent(kernel, (writer, reader), hints=hints)
        assert result.bug_events and result.hints_enforced == 2
        assert any(a.locks_held for a in result.accesses)
        assert record_digest(result) == (
            "becd0174fb6a6097754582f895ccdbc097d6f0735183ffc686d34a47c19072a2"
        )

    def test_three_threads(self, kernel):
        names = kernel.syscall_names()
        stis = [
            [(names[3], [1, 2]), (names[4], [0])],
            [(names[4], [3])],
            [(names[1], [1, 1]), (names[6], [2])],
        ]
        hints = [
            ScheduleHint(tid, trace.iid_trace[len(trace.iid_trace) // 2])
            for tid, trace in enumerate(run_sequential(kernel, s) for s in stis)
        ]
        result = run_concurrent(kernel, stis, hints=hints)
        assert len(result.covered_blocks) == 3 and result.num_switches >= 3
        assert record_digest(result) == (
            "b5e8fcf1173a1623d7831e25d8e340754e5201e71a07c39634e6a2453f3c0d2f"
        )

    def test_tso_with_irq_plan(self, kernel):
        names = kernel.syscall_names()
        stis = ([(names[0], [1, 2]), (names[4], [0])], [(names[4], [3])])
        trace = run_sequential(kernel, stis[0])
        result = run_concurrent(
            kernel,
            stis,
            hints=[ScheduleHint(0, trace.iid_trace[len(trace.iid_trace) // 3])],
            memory_model="tso",
            irq_plan=[(5, kernel.irq_handlers[0]), (60, kernel.irq_handlers[2])],
        )
        assert result.irqs_fired == 2
        assert record_digest(result) == (
            "948851de19d7b9645fde931dccb3619b670bbb91dcc0ee1ac73df321c8a4e8a8"
        )
