"""Tests for interrupt injection (§6: interrupt-handler coverage)."""

import pytest

from repro.errors import ExecutionError
from repro.execution import run_concurrent, run_sequential
from repro.execution.machine import Machine
from repro.execution.races import find_potential_races


class TestKernelIrqHandlers:
    def test_handlers_generated(self, kernel):
        assert kernel.irq_handlers
        for name in kernel.irq_handlers:
            assert name in kernel.functions

    def test_handlers_are_lock_and_call_free(self, kernel):
        from repro.kernel.isa import Opcode

        for name in kernel.irq_handlers:
            for block in kernel.blocks_of_function(name):
                for instruction in block.instructions:
                    assert instruction.opcode not in (
                        Opcode.LOCK,
                        Opcode.UNLOCK,
                        Opcode.CALL,
                    )

    def test_handlers_not_called_by_other_code(self, kernel):
        from repro.kernel.isa import Opcode

        irq_names = set(kernel.irq_handlers)
        for block in kernel.blocks.values():
            for instruction in block.instructions:
                if instruction.opcode is Opcode.CALL:
                    assert instruction.operand(0).name not in irq_names

    def test_handlers_survive_evolution(self, kernel):
        from repro.kernel import EvolutionConfig, evolve_kernel

        evolved = evolve_kernel(kernel, EvolutionConfig(version="vI"), seed=4)
        assert evolved.irq_handlers == kernel.irq_handlers


class TestFireIrq:
    def test_state_saved_and_restored(self, kernel):
        machine = Machine(kernel)
        name = kernel.syscall_names()[0]
        thread = machine.create_thread([(name, [1, 2])])
        for _ in range(10):
            machine.step(thread)
        saved = (
            list(thread.registers),
            thread.block_id,
            thread.index,
            list(thread.call_stack),
        )
        machine.fire_irq(thread, kernel.irq_handlers[0])
        assert list(thread.registers) == saved[0]
        assert thread.block_id == saved[1]
        assert thread.index == saved[2]
        assert list(thread.call_stack) == saved[3]
        # The interrupted thread still runs to completion afterwards.
        while machine.runnable(thread):
            machine.step(thread)

    def test_irq_coverage_recorded(self, kernel):
        machine = Machine(kernel)
        thread = machine.create_thread([(kernel.syscall_names()[0], [1])])
        for _ in range(5):
            machine.step(thread)
        handler = kernel.irq_handlers[0]
        entry = kernel.functions[handler].entry_block
        assert entry not in machine.covered[0]
        machine.fire_irq(thread, handler)
        # Handler code is credited to the interrupted thread.
        assert entry in machine.covered[0]

    def test_unknown_handler_rejected(self, kernel):
        machine = Machine(kernel)
        thread = machine.create_thread([(kernel.syscall_names()[0], [1])])
        machine.step(thread)
        with pytest.raises(ExecutionError):
            machine.fire_irq(thread, "no_such_handler")


class TestIrqPlans:
    def test_plan_fires_and_adds_coverage(self, kernel):
        names = kernel.syscall_names()
        stis = ([(names[0], [1])], [(names[1], [2])])
        plain = run_concurrent(kernel, stis)
        handler = kernel.irq_handlers[0]
        with_irq = run_concurrent(kernel, stis, irq_plan=[(5, handler)])
        assert with_irq.irqs_fired == 1
        entry = kernel.functions[handler].entry_block
        assert entry in with_irq.all_covered()
        assert entry not in plain.all_covered()

    def test_plan_determinism(self, kernel):
        names = kernel.syscall_names()
        stis = ([(names[0], [1])], [(names[1], [2])])
        plan = [(5, kernel.irq_handlers[0]), (40, kernel.irq_handlers[-1])]
        a = run_concurrent(kernel, stis, irq_plan=plan)
        b = run_concurrent(kernel, stis, irq_plan=plan)
        assert a.covered_blocks == b.covered_blocks
        assert a.irqs_fired == b.irqs_fired == 2

    def test_irq_code_can_race_with_threads(self, kernel):
        """IRQ accesses attribute to the interrupted thread's id, so IRQ
        writes can race with the *other* thread's accesses."""
        names = kernel.syscall_names()
        # Same-subsystem syscalls + that subsystem's IRQ handler.
        sub = kernel.syscalls[names[0]].subsystem
        handler = next(
            h for h in kernel.irq_handlers
            if kernel.functions[h].subsystem == sub
        )
        stis = ([(names[0], [1])], [(names[1], [2])])
        base = run_concurrent(kernel, stis)
        base_races = find_potential_races(base.accesses)
        boosted = run_concurrent(
            kernel, stis, irq_plan=[(step, handler) for step in (5, 25, 45)]
        )
        boosted_races = find_potential_races(boosted.accesses)
        # IRQ traffic can only add potential communication; counting both
        # runs' unique races, the IRQ run contributes pairs of its own.
        assert boosted.irqs_fired == 3
        assert len(boosted_races | base_races) >= len(base_races)
