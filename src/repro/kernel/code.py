"""Code objects: basic blocks, functions, and the kernel container.

A :class:`Kernel` is the unit everything else operates on: the fuzzer draws
syscalls from its syscall table, the executors interpret its blocks, the
static analyser builds its whole-kernel CFG, and the graph builder renders
its blocks' assembly into model features.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import KernelBuildError
from repro.kernel.isa import Instruction, Opcode, asm_text
from repro.kernel.memory import MemoryImage
from repro.kernel.bugs import BugSpec
from repro.kernel.syscalls import SyscallSpec

__all__ = ["BasicBlock", "Function", "Kernel"]


@dataclass
class BasicBlock:
    """A basic block: a straight-line instruction sequence.

    ``block_id`` is globally unique within a kernel. ``successors`` lists the
    statically known successor block ids (branch targets and fallthrough),
    which is what the whole-kernel CFG is built from.
    """

    block_id: int
    function: str
    instructions: List[Instruction] = field(default_factory=list)
    successors: List[int] = field(default_factory=list)

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def asm(self) -> str:
        """Assembly text of the block (the vertex feature in CT graphs)."""
        return asm_text(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass
class Function:
    """A kernel function: an entry block plus a set of blocks."""

    name: str
    subsystem: str
    entry_block: int
    block_ids: List[int] = field(default_factory=list)


class Kernel:
    """A fully built synthetic kernel.

    Construction happens through :func:`repro.kernel.builder.build_kernel`;
    the constructor here only wires together already-built parts and
    finalises instruction ids.
    """

    def __init__(
        self,
        version: str,
        blocks: Dict[int, BasicBlock],
        functions: Dict[str, Function],
        syscalls: Dict[str, SyscallSpec],
        memory: MemoryImage,
        locks: List[str],
        bugs: List[BugSpec],
        irq_handlers: Optional[List[str]] = None,
    ) -> None:
        self.version = version
        self.blocks = blocks
        self.functions = functions
        self.syscalls = syscalls
        self.memory = memory
        self.locks = list(locks)
        self.bugs = list(bugs)
        self.irq_handlers = list(irq_handlers or [])
        self._instructions: Dict[int, Tuple[int, int]] = {}
        #: The interpreter's pre-decoded program, built on first execution
        #: (:func:`repro.execution.machine.decode_program`): block id →
        #: ``(op, a, b, iid)`` tuples, no ``Instruction`` objects. A kernel
        #: is not modified once it has been executed.
        self.decoded: Optional[Dict[int, tuple]] = None
        self._finalize()

    def _finalize(self) -> None:
        """Assign globally unique instruction ids in block order."""
        next_iid = 0
        for block_id in sorted(self.blocks):
            block = self.blocks[block_id]
            for index, instruction in enumerate(block.instructions):
                instruction.iid = next_iid
                self._instructions[next_iid] = (block_id, index)
                next_iid += 1
        self._validate()

    def _validate(self) -> None:
        for block in self.blocks.values():
            for successor in block.successors:
                if successor not in self.blocks:
                    raise KernelBuildError(
                        f"block {block.block_id} has unknown successor {successor}"
                    )
        for function in self.functions.values():
            if function.entry_block not in self.blocks:
                raise KernelBuildError(
                    f"function {function.name} has unknown entry block"
                )
        for syscall in self.syscalls.values():
            if syscall.handler not in self.functions:
                raise KernelBuildError(
                    f"syscall {syscall.name} references unknown handler "
                    f"{syscall.handler}"
                )

    # -- lookups ---------------------------------------------------------

    def block(self, block_id: int) -> BasicBlock:
        return self.blocks[block_id]

    def function(self, name: str) -> Function:
        return self.functions[name]

    def locate(self, iid: int) -> Tuple[int, int]:
        """Map a global instruction id to ``(block_id, index)``."""
        return self._instructions[iid]

    def instruction(self, iid: int) -> Instruction:
        block_id, index = self._instructions[iid]
        return self.blocks[block_id].instructions[index]

    def block_of_instruction(self, iid: int) -> int:
        return self._instructions[iid][0]

    def iter_instructions(self) -> Iterator[Instruction]:
        for block_id in sorted(self.blocks):
            yield from self.blocks[block_id].instructions

    # -- stats -----------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def num_instructions(self) -> int:
        return len(self._instructions)

    def syscall_names(self) -> List[str]:
        return sorted(self.syscalls)

    def blocks_of_function(self, name: str) -> List[BasicBlock]:
        return [self.blocks[bid] for bid in self.functions[name].block_ids]

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"kernel {self.version}: {len(self.functions)} functions, "
            f"{self.num_blocks} blocks, {self.num_instructions} instructions, "
            f"{len(self.syscalls)} syscalls, {len(self.bugs)} injected bugs"
        )
