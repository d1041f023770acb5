"""Failure-injection tests: the framework must survive pathological
kernels and inputs rather than crash a testing campaign."""

import pytest

from repro.errors import ExecutionError, ExecutionLimitExceeded
from repro.execution import run_concurrent, run_sequential
from repro.execution.machine import Machine
from repro.kernel.code import BasicBlock, Function, Kernel
from repro.kernel.isa import Instruction, Opcode, Operand
from repro.kernel.memory import MemoryImage
from repro.kernel.syscalls import SyscallSpec

pytestmark = pytest.mark.slow  # CI recovery suite: run via `-m slow`


def _instr(opcode, *operands):
    return Instruction(opcode=opcode, operands=tuple(operands))


def _looping_kernel():
    """A kernel whose single syscall spins forever."""
    block = BasicBlock(
        block_id=0,
        function="spin",
        instructions=[_instr(Opcode.JMP, Operand.make_label(0))],
        successors=[0],
    )
    return Kernel(
        version="evil",
        blocks={0: block},
        functions={"spin": Function("spin", "s", 0, [0])},
        syscalls={"sys_spin": SyscallSpec("sys_spin", "spin", "s", ((0, 1),))},
        memory=MemoryImage(),
        locks=[],
        bugs=[],
    )


def _deadlock_kernel():
    """Two syscalls acquiring two locks in opposite order across blocks."""

    def handler(name, first, second, bid0, bid1):
        b0 = BasicBlock(
            block_id=bid0,
            function=name,
            instructions=[
                _instr(Opcode.LOCK, Operand.make_lock(first)),
                _instr(Opcode.NOP),
                _instr(Opcode.JMP, Operand.make_label(bid1)),
            ],
            successors=[bid1],
        )
        b1 = BasicBlock(
            block_id=bid1,
            function=name,
            instructions=[
                _instr(Opcode.LOCK, Operand.make_lock(second)),
                _instr(Opcode.UNLOCK, Operand.make_lock(second)),
                _instr(Opcode.UNLOCK, Operand.make_lock(first)),
                _instr(Opcode.RET),
            ],
            successors=[],
        )
        return b0, b1

    a0, a1 = handler("fa", "L1", "L2", 0, 1)
    b0, b1 = handler("fb", "L2", "L1", 2, 3)
    return Kernel(
        version="deadlock",
        blocks={0: a0, 1: a1, 2: b0, 3: b1},
        functions={
            "fa": Function("fa", "s", 0, [0, 1]),
            "fb": Function("fb", "s", 2, [2, 3]),
        },
        syscalls={
            "sys_a": SyscallSpec("sys_a", "fa", "s", ()),
            "sys_b": SyscallSpec("sys_b", "fb", "s", ()),
        },
        memory=MemoryImage(),
        locks=["L1", "L2"],
        bugs=[],
    )


class TestRunawayExecutions:
    def test_sequential_survives_infinite_loop(self):
        kernel = _looping_kernel()
        trace = run_sequential(kernel, [("sys_spin", [0])], max_steps=500)
        assert not trace.completed
        assert trace.covered_blocks == {0}

    def test_concurrent_survives_infinite_loop(self):
        kernel = _looping_kernel()
        result = run_concurrent(
            kernel,
            ([("sys_spin", [0])], [("sys_spin", [0])]),
            max_steps=500,
        )
        assert not result.completed
        assert not result.deadlocked


class TestDeadlocks:
    def test_cross_lock_deadlock_detected(self):
        """Interleave so each thread holds one lock and wants the other."""
        kernel = _deadlock_kernel()
        from repro.execution import ScheduleHint

        # Thread A yields right after acquiring L1 (iid of its NOP);
        # thread B then grabs L2 and blocks on L1; A blocks on L2.
        nop_iid = kernel.blocks[0].instructions[1].iid
        result = run_concurrent(
            kernel,
            ([("sys_a", [])], [("sys_b", [])]),
            hints=[ScheduleHint(0, nop_iid)],
            max_steps=10_000,
        )
        assert result.deadlocked
        assert not result.completed

    def test_no_deadlock_without_interleaving(self):
        kernel = _deadlock_kernel()
        result = run_concurrent(kernel, ([("sys_a", [])], [("sys_b", [])]))
        assert not result.deadlocked
        assert result.completed


class TestPoolHangContract:
    def test_pool_worker_hang_returns_recorded_result(self):
        """A CT that blows its step budget inside a pool worker comes back
        as a recorded hang outcome — it must not poison the pool or raise
        into the campaign."""
        from repro.execution.parallel import CTTask
        from repro.resilience.supervisor import SupervisedRunner

        kernel = _looping_kernel()
        program = (("sys_spin", (0,)),)
        tasks = [
            CTTask(programs=(program, program), max_steps=300, seed=index)
            for index in range(3)
        ]
        runner = SupervisedRunner(2)
        try:
            results = runner.run_many(kernel, tasks)
            assert len(results) == 3
            for result in results:
                assert not result.completed
                assert result.hung
            # the pool survived and is reusable for another batch
            again = runner.run_many(kernel, tasks[:1])
            assert again[0].hung
        finally:
            runner.close()

    def test_pool_and_serial_agree_on_hang_classification(self):
        from repro.execution.parallel import CTTask, _run_task
        from repro.resilience.supervisor import SupervisedRunner

        kernel = _looping_kernel()
        program = (("sys_spin", (0,)),)
        task = CTTask(programs=(program, program), max_steps=300)
        serial = [_run_task(kernel, task)]
        pool = SupervisedRunner(2)
        try:
            pooled = pool.run_many(kernel, [task])
        finally:
            pool.close()
        assert serial[0].failure == pooled[0].failure
        assert serial[0].steps == pooled[0].steps


class TestCampaignRobustness:
    def test_explorer_survives_limit_exceeding_ctis(self, dataset_builder):
        """A CTI whose executions blow the step budget is recorded as a
        failed run, not a crashed campaign."""
        from repro.core.mlpct import ExplorationConfig, PCTExplorer

        explorer = PCTExplorer(
            dataset_builder,
            config=ExplorationConfig(execution_budget=2, proposal_pool=4),
            seed=0,
        )
        entry_a, entry_b = dataset_builder.corpus.entries[:2]
        stats = explorer.explore_cti(entry_a, entry_b)
        assert stats.executions <= 2
