"""Tests for potential-data-race detection."""

import pickle
import random

import pytest
from hypothesis import given, strategies as st

from repro.execution.machine import RecordingSink, ThreadContext
from repro.execution.races import (
    PotentialRace,
    RaceDetector,
    find_potential_races,
)
from repro.execution.trace import ConcurrentResult, MemoryAccess
from repro.kernel.isa import Instruction, Opcode
from repro.oracle.explorer import reference_potential_races


def access(step, thread, iid, address, is_write, locks=(), epoch=0):
    return MemoryAccess(
        step=step,
        thread=thread,
        iid=iid,
        block_id=0,
        address=address,
        is_write=is_write,
        locks_held=frozenset(locks),
        epoch=epoch,
    )


class TestPairDetection:
    def test_write_read_conflict_detected(self):
        races = find_potential_races(
            [access(1, 0, 10, 5, True), access(2, 1, 20, 5, False)]
        )
        assert races == {PotentialRace.of(10, 20, 5)}

    def test_write_write_conflict_detected(self):
        races = find_potential_races(
            [access(1, 0, 10, 5, True), access(2, 1, 20, 5, True)]
        )
        assert len(races) == 1

    def test_read_read_not_a_race(self):
        races = find_potential_races(
            [access(1, 0, 10, 5, False), access(2, 1, 20, 5, False)]
        )
        assert races == set()

    def test_same_thread_not_a_race(self):
        races = find_potential_races(
            [access(1, 0, 10, 5, True), access(2, 0, 20, 5, False)]
        )
        assert races == set()

    def test_different_addresses_not_a_race(self):
        races = find_potential_races(
            [access(1, 0, 10, 5, True), access(2, 1, 20, 6, False)]
        )
        assert races == set()

    def test_common_lock_suppresses(self):
        races = find_potential_races(
            [
                access(1, 0, 10, 5, True, locks=("L",)),
                access(2, 1, 20, 5, False, locks=("L", "M")),
            ]
        )
        assert races == set()

    def test_disjoint_locks_do_not_suppress(self):
        races = find_potential_races(
            [
                access(1, 0, 10, 5, True, locks=("L",)),
                access(2, 1, 20, 5, False, locks=("M",)),
            ]
        )
        assert len(races) == 1

    def test_window_excludes_distant_pairs(self):
        stream = [access(1, 0, 10, 5, True), access(500, 1, 20, 5, False)]
        assert find_potential_races(stream, proximity_window=100) == set()
        assert len(find_potential_races(stream, proximity_window=1000)) == 1

    def test_race_identity_is_unordered(self):
        assert PotentialRace.of(10, 20, 5) == PotentialRace.of(20, 10, 5)


class TestRecordForm:
    """Access records are named tuples the sink builds positionally."""

    def test_pickle_round_trip(self):
        record = access(3, 1, 40, 7, True, locks=("L",), epoch=2)
        restored = pickle.loads(pickle.dumps(record))
        assert restored == record and type(restored) is MemoryAccess
        assert restored.locks_held == frozenset({"L"}) and restored.epoch == 2

    def test_sink_records_the_keyword_built_record(self):
        accesses = []
        sink = RecordingSink(accesses, [])
        sink.step, sink.epoch = 17, 2
        thread = ThreadContext(
            tid=1, pending_syscalls=[], block_id=4, locks_held=frozenset({"L"})
        )
        sink.on_memory_access(thread, Instruction(Opcode.STORE, iid=33), 0x40, True)
        assert accesses == [
            MemoryAccess(
                step=17,
                thread=1,
                iid=33,
                block_id=4,
                address=0x40,
                is_write=True,
                locks_held=frozenset({"L"}),
                epoch=2,
            )
        ]
        assert type(accesses[0]) is MemoryAccess and accesses[0].address == 0x40

    def test_equal_locksets_in_distinct_objects(self):
        """Locksets are compared by value: a stream whose equal locksets
        are distinct objects finds what the pure-Python reference finds."""
        rng = random.Random(5)
        stream = [
            access(
                step,
                rng.randrange(2),
                100 + rng.randrange(12),
                rng.randrange(4),
                rng.random() < 0.5,
                locks=rng.choice([(), ("L",), ("M",), ("L", "M")]),
                epoch=step // 10,
            )
            for step in range(80)
        ]
        held = [a.locks_held for a in stream if a.locks_held]
        assert len({id(locks) for locks in held}) == len(held) > len(set(held))
        races = find_potential_races(stream, proximity_window=15)
        assert races and races == reference_potential_races(
            stream, proximity_window=15
        )


class TestWindowMonotonicity:
    @given(st.integers(min_value=1, max_value=50))
    def test_wider_window_never_finds_fewer(self, window):
        stream = [
            access(i, i % 2, 100 + i, i % 3, i % 2 == 0) for i in range(30)
        ]
        small = find_potential_races(stream, proximity_window=window)
        large = find_potential_races(stream, proximity_window=window + 10)
        assert small <= large


class TestRaceDetector:
    def test_accumulates_unique(self):
        detector = RaceDetector()
        result = ConcurrentResult(
            covered_blocks=(set(), set()),
            accesses=[access(1, 0, 10, 5, True), access(2, 1, 20, 5, False)],
        )
        fresh1 = detector.observe(result)
        fresh2 = detector.observe(result)
        assert len(fresh1) == 1
        assert fresh2 == set()
        assert detector.total == 1

    def test_has_pair(self):
        detector = RaceDetector()
        result = ConcurrentResult(
            covered_blocks=(set(), set()),
            accesses=[access(1, 0, 10, 5, True), access(2, 1, 20, 5, False)],
        )
        detector.observe(result)
        assert detector.has_pair(10, 20)
        assert detector.has_pair(20, 10)
        assert not detector.has_pair(10, 21)

    def test_restored_detector_answers_like_the_observer(self):
        """``has_address``/``has_pair`` read indexes that ``observe`` and
        ``load_state`` both maintain."""
        observer = RaceDetector()
        for base in (0, 100):
            observer.observe(
                ConcurrentResult(
                    covered_blocks=(set(), set()),
                    accesses=[
                        access(1, 0, base + 10, base + 5, True),
                        access(2, 1, base + 20, base + 5, False),
                        access(3, 0, base + 30, base + 6, True),
                        access(4, 1, base + 40, base + 6, True),
                    ],
                )
            )
        restored = RaceDetector()
        restored.observe(  # state a load must replace, not merge with
            ConcurrentResult(
                covered_blocks=(set(), set()),
                accesses=[access(1, 0, 7, 9, True), access(2, 1, 8, 9, True)],
            )
        )
        restored.load_state(observer.state_dict())
        assert restored.races == observer.races and restored.total == 4
        for address in range(0, 120):
            assert restored.has_address(address) == observer.has_address(address)
        assert {a for a in range(120) if restored.has_address(a)} == {5, 6, 105, 106}
        for first in range(0, 150, 10):
            for second in range(0, 150, 10):
                assert restored.has_pair(first, second) == observer.has_pair(
                    first, second
                )
        assert restored.has_pair(140, 130) and not restored.has_pair(7, 8)
        # Both keep deduplicating against what they hold.
        again = ConcurrentResult(
            covered_blocks=(set(), set()),
            accesses=[access(1, 0, 10, 5, True), access(2, 1, 20, 5, False)],
        )
        assert restored.observe(again) == observer.observe(again) == set()

    def test_detects_races_in_real_execution(self, kernel):
        from repro.execution import ScheduleHint, run_concurrent, run_sequential

        names = kernel.syscall_names()
        detector = RaceDetector()
        for i in range(3):
            # Pair syscalls of the same subsystem so they share state.
            sti_a = [(names[i], [1])]
            sti_b = [(names[i + 1], [2])]
            trace_a = run_sequential(kernel, sti_a)
            # Interleave mid-way so conflicting accesses are adjacent.
            hint = ScheduleHint(0, trace_a.iid_trace[len(trace_a.iid_trace) // 2])
            result = run_concurrent(kernel, (sti_a, sti_b), hints=[hint])
            detector.observe(result)
        # The synthetic kernel has abundant unsynchronised shared traffic.
        assert detector.total > 0
