"""Tests for the interpreter: instruction semantics, locks, dispatch."""

import pytest

from repro.errors import ExecutionError, ExecutionLimitExceeded
from repro.kernel.code import BasicBlock, Function, Kernel
from repro.kernel.isa import Instruction, Opcode, Operand
from repro.kernel.memory import MemoryImage
from repro.kernel.syscalls import SyscallSpec
from repro.execution.machine import Machine, ThreadStatus


def _instr(opcode, *operands):
    return Instruction(opcode=opcode, operands=tuple(operands))


def micro_kernel(body, extra_blocks=(), memory=None, locks=(), num_args=2):
    """One-syscall kernel: entry block `body` plus `extra_blocks`."""
    blocks = {}
    entry = BasicBlock(block_id=0, function="f", instructions=list(body))
    blocks[0] = entry
    for block in extra_blocks:
        block.function = "f"
        blocks[block.block_id] = block
    functions = {"f": Function(name="f", subsystem="s", entry_block=0,
                               block_ids=sorted(blocks))}
    syscalls = {
        "sys": SyscallSpec(
            name="sys", handler="f", subsystem="s",
            arg_ranges=tuple((0, 7) for _ in range(num_args)),
        )
    }
    image = memory or MemoryImage()
    return Kernel(
        version="t", blocks=blocks, functions=functions, syscalls=syscalls,
        memory=image, locks=list(locks), bugs=[],
    )


def run_to_completion(kernel, args=(1, 2), max_steps=10_000):
    machine = Machine(kernel, max_steps=max_steps)
    thread = machine.create_thread([("sys", list(args))])
    while machine.runnable(thread):
        machine.step(thread)
    return machine, thread


class TestArithmetic:
    def test_movi_mov_add(self):
        kernel = micro_kernel([
            _instr(Opcode.MOVI, Operand.make_reg(3), Operand.make_imm(5)),
            _instr(Opcode.MOV, Operand.make_reg(4), Operand.make_reg(3)),
            _instr(Opcode.ADD, Operand.make_reg(4), Operand.make_reg(3)),
            _instr(Opcode.RET),
        ])
        _, thread = run_to_completion(kernel)
        assert thread.registers[4] == 10

    def test_sub_and_xor(self):
        kernel = micro_kernel([
            _instr(Opcode.MOVI, Operand.make_reg(3), Operand.make_imm(12)),
            _instr(Opcode.MOVI, Operand.make_reg(4), Operand.make_imm(5)),
            _instr(Opcode.SUB, Operand.make_reg(3), Operand.make_reg(4)),
            _instr(Opcode.XOR, Operand.make_reg(4), Operand.make_reg(4)),
            _instr(Opcode.RET),
        ])
        _, thread = run_to_completion(kernel)
        assert thread.registers[3] == 7
        assert thread.registers[4] == 0

    def test_args_arrive_in_registers(self):
        kernel = micro_kernel([_instr(Opcode.RET)])
        _, thread = run_to_completion(kernel, args=(6, 3))
        assert thread.registers[0] == 6
        assert thread.registers[1] == 3


class TestMemory:
    def test_store_then_load(self):
        image = MemoryImage()
        addr = image.allocate("v", 0)
        kernel = micro_kernel([
            _instr(Opcode.STOREI, Operand.make_addr(addr), Operand.make_imm(9)),
            _instr(Opcode.LOAD, Operand.make_reg(5), Operand.make_addr(addr)),
            _instr(Opcode.RET),
        ], memory=image)
        machine, thread = run_to_completion(kernel)
        assert thread.registers[5] == 9
        assert [(a.address, a.is_write) for a in machine.accesses] == [
            (addr, True),
            (addr, False),
        ]

    def test_initial_memory_value_visible(self):
        image = MemoryImage()
        addr = image.allocate("v", 7)
        kernel = micro_kernel([
            _instr(Opcode.LOAD, Operand.make_reg(5), Operand.make_addr(addr)),
            _instr(Opcode.RET),
        ], memory=image)
        _, thread = run_to_completion(kernel)
        assert thread.registers[5] == 7

    def test_fresh_state_per_machine(self):
        image = MemoryImage()
        addr = image.allocate("v", 0)
        kernel = micro_kernel([
            _instr(Opcode.STOREI, Operand.make_addr(addr), Operand.make_imm(1)),
            _instr(Opcode.RET),
        ], memory=image)
        run_to_completion(kernel)
        machine2, _ = run_to_completion(kernel)
        # The second machine started from the boot image, not the mutated
        # state: its final value is its own store, and the image is intact.
        assert image.initial[addr] == 0


class TestBranches:
    def _branch_kernel(self, opcode):
        then_block = BasicBlock(block_id=1, function="f", instructions=[
            _instr(Opcode.MOVI, Operand.make_reg(6), Operand.make_imm(1)),
            _instr(Opcode.RET),
        ])
        else_block = BasicBlock(block_id=2, function="f", instructions=[
            _instr(Opcode.MOVI, Operand.make_reg(6), Operand.make_imm(2)),
            _instr(Opcode.RET),
        ])
        entry = [
            _instr(opcode, Operand.make_reg(0), Operand.make_label(1)),
        ]
        kernel = micro_kernel(entry, extra_blocks=[then_block, else_block])
        kernel.blocks[0].successors = [1, 2]
        return kernel

    def test_jz_taken_on_zero(self):
        kernel = self._branch_kernel(Opcode.JZ)
        _, thread = run_to_completion(kernel, args=(0,))
        assert thread.registers[6] == 1

    def test_jz_falls_through_on_nonzero(self):
        kernel = self._branch_kernel(Opcode.JZ)
        _, thread = run_to_completion(kernel, args=(3,))
        assert thread.registers[6] == 2

    def test_jnz_taken_on_nonzero(self):
        kernel = self._branch_kernel(Opcode.JNZ)
        _, thread = run_to_completion(kernel, args=(3,))
        assert thread.registers[6] == 1


class TestCalls:
    def test_call_and_return(self):
        callee_entry = BasicBlock(block_id=1, function="g", instructions=[
            _instr(Opcode.MOVI, Operand.make_reg(7), Operand.make_imm(9)),
            _instr(Opcode.RET),
        ])
        body = [
            _instr(Opcode.CALL, Operand.make_fn("g")),
            _instr(Opcode.MOVI, Operand.make_reg(6), Operand.make_imm(1)),
            _instr(Opcode.RET),
        ]
        kernel = micro_kernel(body)
        kernel.blocks[1] = callee_entry
        kernel.functions["g"] = Function(
            name="g", subsystem="s", entry_block=1, block_ids=[1]
        )
        kernel._finalize()
        _, thread = run_to_completion(kernel)
        assert thread.registers[7] == 9  # callee ran
        assert thread.registers[6] == 1  # caller resumed


class TestBugInstructions:
    def test_check_fires_on_equality(self):
        kernel = micro_kernel([
            _instr(Opcode.MOVI, Operand.make_reg(3), Operand.make_imm(0)),
            _instr(Opcode.CHECK, Operand.make_reg(3), Operand.make_imm(0)),
            _instr(Opcode.RET),
        ])
        machine, _ = run_to_completion(kernel)
        assert [event.kind for event in machine.bug_events] == ["check"]

    def test_check_silent_on_mismatch(self):
        kernel = micro_kernel([
            _instr(Opcode.MOVI, Operand.make_reg(3), Operand.make_imm(1)),
            _instr(Opcode.CHECK, Operand.make_reg(3), Operand.make_imm(0)),
            _instr(Opcode.RET),
        ])
        machine, _ = run_to_completion(kernel)
        assert [event.kind for event in machine.bug_events] == []

    def test_deref_fires_on_null(self):
        kernel = micro_kernel([
            _instr(Opcode.MOVI, Operand.make_reg(3), Operand.make_imm(0)),
            _instr(Opcode.DEREF, Operand.make_reg(3)),
            _instr(Opcode.RET),
        ])
        machine, _ = run_to_completion(kernel)
        assert [event.kind for event in machine.bug_events] == ["deref"]


class TestLocks:
    def _lock_kernel(self):
        return micro_kernel([
            _instr(Opcode.LOCK, Operand.make_lock("L")),
            _instr(Opcode.NOP),
            _instr(Opcode.UNLOCK, Operand.make_lock("L")),
            _instr(Opcode.RET),
        ], locks=["L"])

    def test_lock_blocks_second_thread(self):
        kernel = self._lock_kernel()
        machine = Machine(kernel)
        t0 = machine.create_thread([("sys", [0, 0])])
        t1 = machine.create_thread([("sys", [0, 0])])
        # t0: dispatch + LOCK.
        machine.step(t0)
        machine.step(t0)
        assert machine.lock_owners["L"] == 0
        # t1: dispatch + attempted LOCK -> blocked.
        machine.step(t1)
        machine.step(t1)
        assert t1.status is ThreadStatus.BLOCKED
        assert not machine.runnable(t1)
        # t0 finishes, releasing the lock; t1 becomes runnable.
        while machine.runnable(t0):
            machine.step(t0)
        assert machine.runnable(t1)
        while machine.runnable(t1):
            machine.step(t1)
        assert t1.status is ThreadStatus.DONE

    def test_unlock_without_hold_is_error(self):
        kernel = micro_kernel([
            _instr(Opcode.UNLOCK, Operand.make_lock("L")),
            _instr(Opcode.RET),
        ], locks=["L"])
        machine = Machine(kernel)
        thread = machine.create_thread([("sys", [0, 0])])
        machine.step(thread)  # dispatch
        with pytest.raises(ExecutionError):
            machine.step(thread)


class TestDispatchAndLimits:
    def test_multiple_syscalls_run_in_order(self):
        kernel = micro_kernel([_instr(Opcode.RET)])
        machine = Machine(kernel)
        thread = machine.create_thread([("sys", [1, 0]), ("sys", [2, 0])])
        seen_args = []
        while machine.runnable(thread):
            machine.step(thread)
            if thread.block_id == 0 and thread.index == 0:
                seen_args.append(thread.registers[0])
        assert thread.status is ThreadStatus.DONE

    def test_unknown_syscall_rejected(self):
        kernel = micro_kernel([_instr(Opcode.RET)])
        machine = Machine(kernel)
        with pytest.raises(ExecutionError):
            machine.create_thread([("nope", [])])

    def test_step_budget_enforced(self):
        # A self-loop block would run forever without the budget.
        loop = [_instr(Opcode.JMP, Operand.make_label(0))]
        kernel = micro_kernel(loop)
        kernel.blocks[0].successors = [0]
        machine = Machine(kernel, max_steps=50)
        thread = machine.create_thread([("sys", [0, 0])])
        with pytest.raises(ExecutionLimitExceeded):
            while machine.runnable(thread):
                machine.step(thread)
