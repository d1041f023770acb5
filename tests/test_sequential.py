"""Tests for single-threaded STI execution and trace recording."""

import pytest

from repro.execution import run_sequential
from repro.kernel.code import BasicBlock, Function, Kernel
from repro.kernel.isa import Instruction, Opcode, Operand
from repro.kernel.memory import MemoryImage
from repro.kernel.syscalls import SyscallSpec


@pytest.fixture(scope="module")
def trace(kernel):
    names = kernel.syscall_names()
    return run_sequential(kernel, [(names[0], [1, 2]), (names[1], [0])], sti_id=1)


class TestTraceBasics:
    def test_completes(self, trace):
        assert trace.completed

    def test_sti_id_recorded(self, trace):
        assert trace.sti_id == 1

    def test_covered_matches_sequence(self, trace):
        assert trace.covered_blocks == set(trace.block_sequence)

    def test_sequence_has_no_duplicates(self, trace):
        assert len(trace.block_sequence) == len(set(trace.block_sequence))

    def test_iid_trace_nonempty(self, trace):
        assert trace.num_steps > 0

    def test_flow_edges_connect_covered_blocks(self, trace):
        for src, dst in trace.flow_edges:
            assert src in trace.covered_blocks
            assert dst in trace.covered_blocks

    def test_accesses_reference_covered_blocks(self, trace):
        for access in trace.accesses:
            assert access.block_id in trace.covered_blocks

    def test_handler_entry_is_first_block(self, kernel, trace):
        names = kernel.syscall_names()
        handler = kernel.syscalls[names[0]].handler
        assert trace.block_sequence[0] == kernel.functions[handler].entry_block


class TestDeterminism:
    def test_same_input_same_trace(self, kernel):
        names = kernel.syscall_names()
        sti = [(names[2], [3, 1])]
        t1 = run_sequential(kernel, sti)
        t2 = run_sequential(kernel, sti)
        assert t1.iid_trace == t2.iid_trace
        assert t1.block_sequence == t2.block_sequence

    def test_different_args_can_change_path(self, kernel):
        names = kernel.syscall_names()
        paths = {
            tuple(run_sequential(kernel, [(name, [a, a, a])]).block_sequence)
            for name in names[:4]
            for a in range(4)
        }
        assert len(paths) > 4  # args influence control flow somewhere


class TestDataflowEdges:
    def test_dataflow_edges_are_write_to_read(self, trace):
        edges = trace.dataflow_edges()
        for writer_block, reader_block in edges:
            assert writer_block != reader_block

    def test_dataflow_edges_deduplicated(self, trace):
        edges = trace.dataflow_edges()
        assert len(edges) == len(set(edges))

    def test_footprint_queries(self, trace):
        assert trace.written_addresses() <= trace.accessed_addresses()
        assert trace.read_addresses() <= trace.accessed_addresses()


def _instr(opcode, *operands):
    return Instruction(opcode=opcode, operands=tuple(operands))


def loop_and_call_kernel(iterations):
    """One syscall: block 0 calls ``g`` (block 3) and jumps to block 1,
    which loops on itself ``iterations`` times and then falls through to
    block 2's RET."""
    blocks = {
        0: BasicBlock(block_id=0, function="f", instructions=[
            _instr(Opcode.MOVI, Operand.make_reg(3), Operand.make_imm(iterations)),
            _instr(Opcode.CALL, Operand.make_fn("g")),
            _instr(Opcode.JMP, Operand.make_label(1)),
        ], successors=[1]),
        1: BasicBlock(block_id=1, function="f", instructions=[
            _instr(Opcode.ADDI, Operand.make_reg(3), Operand.make_imm(-1)),
            _instr(Opcode.JNZ, Operand.make_reg(3), Operand.make_label(1)),
        ], successors=[1, 2]),
        2: BasicBlock(block_id=2, function="f", instructions=[_instr(Opcode.RET)]),
        3: BasicBlock(block_id=3, function="g", instructions=[
            _instr(Opcode.NOP),
            _instr(Opcode.RET),
        ]),
    }
    functions = {
        "f": Function(name="f", subsystem="s", entry_block=0, block_ids=[0, 1, 2]),
        "g": Function(name="g", subsystem="s", entry_block=3, block_ids=[3]),
    }
    syscalls = {
        "sys": SyscallSpec(name="sys", handler="f", subsystem="s", arg_ranges=())
    }
    return Kernel(
        version="t", blocks=blocks, functions=functions, syscalls=syscalls,
        memory=MemoryImage(), locks=[], bugs=[],
    )


class TestExactPath:
    """The recorded path, entry by entry, on a hand-built kernel."""

    @pytest.fixture(scope="class")
    def path_trace(self):
        return run_sequential(loop_and_call_kernel(3), [("sys", []), ("sys", [])])

    def test_flow_edges_are_every_consecutive_entry_pair(self, path_trace):
        # Per syscall the entries are 0, 3 (the call), 1, 1, 1 (the loop)
        # and 2; the RET out of g resumes block 0 without entering it.
        one_syscall = [(0, 3), (3, 1), (1, 1), (1, 1), (1, 2)]
        assert path_trace.flow_edges == one_syscall + [(2, 0)] + one_syscall

    def test_block_sequence_is_first_entry_order(self, path_trace):
        assert path_trace.block_sequence == [0, 3, 1, 2]
        assert path_trace.covered_blocks == {0, 1, 2, 3}

    def test_call_return_does_not_reenter_the_caller(self, path_trace):
        assert (3, 0) not in path_trace.flow_edges
        # MOVI CALL | NOP RET | JMP | 3 x (ADDI JNZ) | RET, twice.
        assert path_trace.num_steps == 2 * 12
        assert path_trace.completed
