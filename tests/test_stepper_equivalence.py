"""Differential tests: event-driven schedulers vs per-step references.

``Machine.run`` returns to its scheduler only at scheduling events. The
references below are the per-instruction loops the schedulers used to be:
they call ``Machine.step`` once per iteration and re-evaluate *every*
scheduler condition after every step. A scheduler that skips a decision
point — an event ``run`` fails to return at — diverges from its
reference here. (Instruction semantics are not what this file checks:
``step`` is ``run`` with a budget of one, so both sides share the
interpreter loop; ``test_machine.py`` and friends own that.)

The example budget comes from the hypothesis profile: CI's ``oracle`` job
runs this file with ``--hypothesis-profile ci`` (see ``conftest.py``).
"""

import copy
from contextlib import contextmanager
from dataclasses import replace
from functools import lru_cache

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionLimitExceeded
from repro.execution import concurrent as concurrent_module
from repro.execution import pct as pct_module
from repro.execution import (
    PctScheduler,
    ScheduleHint,
    run_concurrent,
    run_concurrent_pct,
    run_sequential,
)
from repro.execution.machine import (
    Machine,
    ThreadStatus,
    _decode_block,
    decode_program,
)
from repro.execution.trace import ConcurrentResult, SequentialTrace
from repro.kernel import EvolutionConfig, build_kernel, evolve_kernel
from repro.kernel.isa import Opcode, Operand
from repro.kernel.memory import MemoryImage
from repro.kernel.serialize import kernel_from_dict, kernel_to_dict

from tests._oracle_kernels import (
    cross_lock_kernel,
    instr,
    n_thread_kernel,
    random_tiny_kernel,
)
from tests.conftest import SMALL_KERNEL_CONFIG

# -- the references: one Machine.step per iteration ----------------------------


def reference_run_concurrent(
    kernel, stis, hints=(), max_steps=200_000, memory_model="sc", irq_plan=()
):
    """The per-instruction SKI scheduling loop. Returns (result, machine)."""
    num_threads = len(stis)
    machine = Machine(kernel, max_steps=max_steps, memory_model=memory_model)
    threads = [machine.create_thread(sti) for sti in stis]
    pending_hints = list(hints)
    pending_irqs = sorted(irq_plan, key=lambda entry: entry[0])
    current = pending_hints[0].thread if pending_hints else 0
    num_switches = hints_enforced = irqs_fired = 0
    deadlocked = limit_hit = False
    forced_away_from = None

    def switch_to(target):
        nonlocal current, num_switches
        current = target
        num_switches += 1
        machine.epoch += 1

    try:
        while not machine.all_done():
            if forced_away_from == current:
                forced_away_from = None
            if (
                forced_away_from is not None
                and forced_away_from != current
                and machine.runnable(threads[forced_away_from])
            ):
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
                    forced_away_from = current
                    switch_to((current + runnable_offset) % num_threads)
                    continue
                deadlocked = True
                break
            active_hint = pending_hints[0] if pending_hints else None
            if active_hint is not None and active_hint.thread != current:
                if threads[active_hint.thread].status is ThreadStatus.DONE:
                    pending_hints.pop(0)
                    continue
            while (
                pending_irqs
                and machine.total_steps >= pending_irqs[0][0]
                and thread.status is not ThreadStatus.DONE
            ):
                _, handler_name = pending_irqs.pop(0)
                machine.fire_irq(thread, handler_name)
                irqs_fired += 1
            machine.step(thread)
            if thread.status is ThreadStatus.DONE:
                if pending_hints and pending_hints[0].thread == current:
                    pending_hints.pop(0)
                if not machine.all_done():
                    switch_to((current + 1) % num_threads)
                continue
            if (
                pending_hints
                and pending_hints[0].thread == current
                and machine.last_thread == current
                and machine.last_iid == pending_hints[0].iid
            ):
                pending_hints.pop(0)
                hints_enforced += 1
                switch_to((current + 1) % num_threads)
    except ExecutionLimitExceeded:
        limit_hit = True
    result = ConcurrentResult(
        covered_blocks=tuple(machine.covered),
        accesses=machine.accesses,
        bug_events=machine.bug_events,
        num_switches=num_switches,
        hints_enforced=hints_enforced,
        steps=machine.steps,
        irqs_fired=irqs_fired,
        failure="hang" if limit_hit else ("deadlock" if deadlocked else None),
    )
    return result, machine


def reference_run_concurrent_pct(
    kernel, stis, scheduler, max_steps=200_000, memory_model="sc"
):
    """PCT deciding the running thread before every single step."""
    machine = Machine(kernel, max_steps=max_steps, memory_model=memory_model)
    threads = [machine.create_thread(sti) for sti in stis]
    num_switches = 0
    previous = None
    deadlocked = limit_hit = False
    try:
        while not machine.all_done():
            tid = scheduler.next_thread([machine.runnable(t) for t in threads])
            if tid is None:
                deadlocked = True
                break
            if previous is not None and previous != tid:
                num_switches += 1
                machine.epoch += 1
            previous = tid
            machine.step(threads[tid])
            scheduler.on_step(machine.total_steps, tid)
    except ExecutionLimitExceeded:
        limit_hit = True
    result = ConcurrentResult(
        covered_blocks=tuple(machine.covered),
        accesses=machine.accesses,
        bug_events=machine.bug_events,
        num_switches=num_switches,
        steps=machine.steps,
        failure="hang" if limit_hit else ("deadlock" if deadlocked else None),
    )
    return result, machine


def reference_run_sequential(kernel, syscalls, sti_id=-1, max_steps=200_000):
    """One step per iteration; the trace is built per block entry, as a
    recorder called at each entry would build it."""
    trace = SequentialTrace(sti_id=sti_id)
    machine = Machine(kernel, max_steps=max_steps)
    machine.iid_trace, machine.block_trace = trace.iid_trace, []
    thread = machine.create_thread(syscalls)
    seen = 0
    previous = None

    def fold_entries():
        nonlocal seen, previous
        for block_id in machine.block_trace[seen:]:
            if previous is not None:
                trace.flow_edges.append((previous, block_id))
            previous = block_id
            if block_id not in trace.covered_blocks:
                trace.covered_blocks.add(block_id)
                trace.block_sequence.append(block_id)
        seen = len(machine.block_trace)

    try:
        while machine.runnable(thread):
            machine.step(thread)
            fold_entries()
    except ExecutionLimitExceeded:
        trace.completed = False
    trace.accesses, trace.bug_events = machine.accesses, machine.bug_events
    return trace


@contextmanager
def captured_machines(module):
    """The ``Machine``s ``module``'s scheduler builds (for final memory)."""
    made = []

    class Capturing(Machine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    original, module.Machine = module.Machine, Capturing
    try:
        yield made
    finally:
        module.Machine = original


def assert_concurrent_equivalent(kernel, stis, **kwargs):
    expected, reference_machine = reference_run_concurrent(kernel, stis, **kwargs)
    with captured_machines(concurrent_module) as made:
        actual = run_concurrent(kernel, stis, **kwargs)
    # Dataclass equality: coverage, accesses (step, epoch, locks_held, ...),
    # bug events, num_switches, hints_enforced, irqs_fired, steps, failure.
    assert actual == expected
    (machine,) = made
    assert machine.memory.snapshot() == reference_machine.memory.snapshot()
    assert machine.total_steps == reference_machine.total_steps
    assert [t.steps for t in machine.threads] == [
        t.steps for t in reference_machine.threads
    ]
    return actual


# -- generated kernels ------------------------------------------------------------


@lru_cache(maxsize=None)
def generated_kernel(seed, loopy=False):
    config = replace(SMALL_KERNEL_CONFIG, loop_prob=0.2 if loopy else 0.0)
    return build_kernel(config, seed=seed)


@lru_cache(maxsize=None)
def iids_by_opcode(kernel):
    table = {}
    for instruction in kernel.iter_instructions():
        table.setdefault(instruction.opcode, []).append(instruction.iid)
    return table


@st.composite
def concurrent_cases(draw):
    kernel = generated_kernel(draw(st.integers(0, 5)), draw(st.booleans()))
    names = kernel.syscall_names()
    program = st.lists(
        st.tuples(st.sampled_from(names), st.lists(st.integers(0, 7), max_size=3)),
        min_size=0,
        max_size=3,
    )
    stis = draw(st.lists(program, min_size=2, max_size=3))
    traces = [run_sequential(kernel, sti).iid_trace for sti in stis]
    by_opcode = iids_by_opcode(kernel)

    def hint_for(tid):
        pools = [
            st.integers(0, kernel.num_instructions + 5),  # often never reached
            st.sampled_from(by_opcode[Opcode.RET]),
            st.sampled_from(by_opcode[Opcode.LOCK]),
            st.sampled_from(by_opcode[Opcode.UNLOCK]),
        ]
        if traces[tid]:
            pools.append(st.sampled_from(traces[tid]))
            pools.append(st.just(traces[tid][-1]))  # a syscall's final RET
        return st.builds(ScheduleHint, st.just(tid), st.one_of(*pools))

    hints = draw(
        st.lists(
            st.integers(0, len(stis) - 1).flatmap(hint_for), max_size=5
        )
    )
    irq_plan = draw(
        st.lists(
            st.tuples(st.integers(0, 250), st.sampled_from(kernel.irq_handlers)),
            max_size=3,
        )
    )
    return dict(
        kernel=kernel,
        stis=stis,
        hints=hints,
        irq_plan=irq_plan,
        memory_model=draw(st.sampled_from(["sc", "tso"])),
        max_steps=draw(st.sampled_from([200_000, 200_000, 150, 40])),
    )


class TestRunConcurrent:
    @given(case=concurrent_cases())
    @settings(deadline=None)
    def test_generated_kernels(self, case):
        assert_concurrent_equivalent(case.pop("kernel"), case.pop("stis"), **case)

    @given(
        seed=st.integers(0, 300),
        hint_picks=st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 40)), max_size=4
        ),
        memory_model=st.sampled_from(["sc", "tso"]),
    )
    @settings(deadline=None)
    def test_contended_lock_kernels(self, seed, hint_picks, memory_model):
        kernel, programs = random_tiny_kernel(seed)
        hints = [
            ScheduleHint(thread, iid % kernel.num_instructions)
            for thread, iid in hint_picks
        ]
        assert_concurrent_equivalent(
            kernel, programs, hints=hints, memory_model=memory_model
        )

    @given(
        hint_picks=st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 13)), max_size=4
        )
    )
    @settings(deadline=None)
    def test_deadlocking_kernel(self, hint_picks):
        kernel, programs = cross_lock_kernel()
        hints = [ScheduleHint(thread, iid) for thread, iid in hint_picks]
        assert_concurrent_equivalent(kernel, programs, hints=hints)

    def test_deadlock_is_reached(self):
        kernel, programs = cross_lock_kernel()
        nop_iid = kernel.blocks[0].instructions[1].iid
        result = assert_concurrent_equivalent(
            kernel, programs, hints=[ScheduleHint(0, nop_iid)]
        )
        assert result.deadlocked and result.failure == "deadlock"

    def test_stale_match_after_final_ret(self):
        """The hint test reads the *last executed instruction*, which a
        syscall dispatch does not change. Thread 0's first syscall ends in
        ``ret``; thread 1 has nothing to run (its one step executes
        nothing); so when control returns to thread 0 its dispatch step
        still "matches" the second, identical hint."""
        kernel, _ = n_thread_kernel(
            [[instr(Opcode.NOP), instr(Opcode.RET)], [instr(Opcode.RET)]]
        )
        ret_iid = kernel.blocks[0].instructions[1].iid
        stis = [[("s0", [1]), ("s0", [1])], []]
        hints = [ScheduleHint(0, ret_iid), ScheduleHint(0, ret_iid)]
        result = assert_concurrent_equivalent(kernel, stis, hints=hints)
        assert result.hints_enforced == 2

    def test_irq_mark_lands_on_the_hint_step(self):
        """An IRQ due exactly when the hinted instruction executes: the
        hint switches first, so the handler runs on the *other* thread."""
        image = MemoryImage()
        flag = image.allocate("flag", 0)
        body = [
            instr(Opcode.NOP),
            instr(Opcode.STOREI, Operand.make_addr(flag), Operand.make_imm(1)),
            instr(Opcode.RET),
        ]
        irq_body = [
            instr(Opcode.LOAD, Operand.make_reg(1), Operand.make_addr(flag)),
            instr(Opcode.RET),
        ]
        kernel, programs = n_thread_kernel(
            [body, body], memory=image, irq_bodies=[irq_body]
        )
        nop_iid = kernel.blocks[0].instructions[0].iid
        # Thread 0: dispatch (total 1), NOP (total 2) = the hint step.
        for mark in (1, 2, 3):
            result = assert_concurrent_equivalent(
                kernel,
                programs,
                hints=[ScheduleHint(0, nop_iid)],
                irq_plan=[(mark, "irq0")],
            )
            assert result.hints_enforced == 1 and result.irqs_fired == 1
            handler_thread = result.accesses[0].thread
            assert handler_thread == (0 if mark == 1 else 1)


class TestStepAccounting:
    """What each counter counts; both sides of the differentials share
    ``fire_irq`` and the dispatch step, so these are pinned directly."""

    def test_dispatch_and_irq_steps(self):
        kernel, programs = n_thread_kernel(
            [[instr(Opcode.NOP), instr(Opcode.RET)]],
            irq_bodies=[[instr(Opcode.NOP), instr(Opcode.NOP), instr(Opcode.RET)]],
        )
        machine = Machine(kernel)
        thread = machine.create_thread(programs[0])
        machine.step(thread)  # syscall dispatch: a step, not an instruction
        assert (machine.total_steps, machine.steps, thread.steps) == (1, 0, 0)
        assert machine.last_iid is None
        machine.step(thread)
        assert (machine.total_steps, machine.steps, thread.steps) == (2, 1, 1)
        machine.fire_irq(thread, "irq0")  # handler steps are not the thread's
        assert (machine.total_steps, machine.steps, thread.steps) == (5, 4, 1)
        assert machine.last_iid == kernel.blocks[1].instructions[2].iid
        machine.run(thread)
        assert thread.status is ThreadStatus.DONE
        assert (machine.total_steps, machine.steps, thread.steps) == (6, 5, 2)

    def test_blocked_step_is_free_and_lock_retry_is_not(self):
        def body():
            return [
                instr(Opcode.LOCK, Operand.make_lock("L")),
                instr(Opcode.NOP),
                instr(Opcode.UNLOCK, Operand.make_lock("L")),
                instr(Opcode.RET),
            ]

        kernel, programs = n_thread_kernel([body(), body()], locks=["L"])
        machine = Machine(kernel)
        holder, waiter = (machine.create_thread(program) for program in programs)
        machine.run(holder, until_total=3)  # dispatch, LOCK, NOP
        machine.run(waiter)  # dispatch, LOCK: blocks
        assert waiter.status is ThreadStatus.BLOCKED and machine.total_steps == 5
        machine.run(waiter)
        machine.step(waiter)
        assert machine.total_steps == 5 and waiter.waiting_lock == "L"
        machine.run(holder)  # comes back at the UNLOCK, not at its RET
        assert machine.total_steps == 6 and holder.status is ThreadStatus.READY
        assert machine.runnable(waiter)
        machine.step(waiter)  # the LOCK retries, and counts again
        assert machine.total_steps == 7 and waiter.steps == 2
        assert waiter.waiting_lock is None and waiter.locks_held == {"L"}


class TestRunConcurrentPct:
    @given(
        kernel_seed=st.integers(0, 5),
        loopy=st.booleans(),
        picks=st.lists(
            st.lists(st.tuples(st.integers(0, 11), st.integers(0, 7)), max_size=3),
            min_size=2,
            max_size=3,
        ),
        schedule_seed=st.integers(0, 10_000),
        depth=st.integers(1, 5),
        memory_model=st.sampled_from(["sc", "tso"]),
        max_steps=st.sampled_from([200_000, 200_000, 60]),
    )
    @settings(deadline=None)
    def test_matches_per_step_reference(
        self, kernel_seed, loopy, picks, schedule_seed, depth, memory_model, max_steps
    ):
        kernel = generated_kernel(kernel_seed, loopy)
        names = kernel.syscall_names()
        stis = [[(names[i % len(names)], [arg]) for i, arg in sti] for sti in picks]
        scheduler = PctScheduler.sample(
            np.random.default_rng(schedule_seed), len(stis), 120, depth=depth
        )
        expected, reference_machine = reference_run_concurrent_pct(
            kernel, stis, copy.deepcopy(scheduler), max_steps, memory_model
        )
        with captured_machines(pct_module) as made:
            actual = run_concurrent_pct(
                kernel, stis, scheduler, max_steps, memory_model
            )
        assert actual == expected
        assert made[0].memory.snapshot() == reference_machine.memory.snapshot()

    def test_step_limit_is_a_hang(self):
        kernel = generated_kernel(0)
        names = kernel.syscall_names()
        result = run_concurrent_pct(
            kernel,
            ([(names[0], [1])], [(names[1], [2])]),
            PctScheduler(priorities=[2.0, 1.0], change_points=[], depth=1),
            max_steps=10,
        )
        assert not result.completed
        assert result.failure == "hang" and result.hung

    def test_deadlock_sets_failure(self):
        kernel, programs = cross_lock_kernel()
        # Thread 0 runs first and is demoted right after taking L1
        # (dispatch, LOCK: total_steps 2); thread 1 takes L2 and blocks on
        # L1; thread 0 then blocks on L2.
        result = run_concurrent_pct(
            kernel,
            programs,
            PctScheduler(priorities=[3.0, 2.0], change_points=[2], depth=2),
        )
        assert result.deadlocked and not result.completed
        assert result.failure == "deadlock" and not result.hung


class TestRunSequential:
    @given(
        kernel_seed=st.integers(0, 5),
        loopy=st.booleans(),
        picks=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 7)), max_size=4),
        max_steps=st.sampled_from([200_000, 200_000, 25]),
    )
    @settings(deadline=None)
    def test_matches_per_step_reference(self, kernel_seed, loopy, picks, max_steps):
        kernel = generated_kernel(kernel_seed, loopy)
        names = kernel.syscall_names()
        syscalls = [(names[i % len(names)], [arg]) for i, arg in picks]
        assert run_sequential(
            kernel, syscalls, sti_id=3, max_steps=max_steps
        ) == reference_run_sequential(kernel, syscalls, sti_id=3, max_steps=max_steps)


class TestDecodedProgram:
    """The decoded program is cached per ``Kernel`` object: a kernel
    derived from another one must decode its own instructions."""

    @staticmethod
    def assert_decodes_own_instructions(kernel):
        program = decode_program(kernel)
        assert decode_program(kernel) is program
        assert set(program) == set(kernel.blocks)
        for block_id, block in kernel.blocks.items():
            assert program[block_id] == _decode_block(kernel, block)
            *code, sentinel = program[block_id]
            assert sentinel[3] == -1
            assert len(code) == len(block.instructions)
            for (_, _, _, iid), instruction in zip(code, block.instructions):
                assert iid == instruction.iid

    def test_serialize_round_trip_decodes_afresh(self):
        kernel = generated_kernel(1)
        decode_program(kernel)
        restored = kernel_from_dict(kernel_to_dict(kernel))
        assert restored.decoded is None
        self.assert_decodes_own_instructions(restored)
        assert decode_program(restored) is not decode_program(kernel)
        names = kernel.syscall_names()
        stis = ([(names[0], [1, 2])], [(names[3], [2])])
        assert run_concurrent(restored, stis) == run_concurrent(kernel, stis)

    def test_evolved_kernel_decodes_afresh(self):
        kernel = generated_kernel(2)
        decode_program(kernel)
        evolved = evolve_kernel(kernel, EvolutionConfig(version="v-next"), seed=4)
        assert evolved.decoded is None
        self.assert_decodes_own_instructions(evolved)
        self.assert_decodes_own_instructions(kernel)
        names = evolved.syscall_names()
        assert_concurrent_equivalent(
            evolved, ([(names[0], [1])], [(names[-1], [2])]), memory_model="tso"
        )
