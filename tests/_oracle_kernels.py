"""Tiny hand-rolled kernels for the oracle test suite.

The exhaustive explorer only tractably enumerates *small* schedule
spaces, so these builders produce kernels far below the synthetic
builder's floor: single-block syscalls, a couple of shared variables,
optionally a lock and a data-dependent CHECK bug.  Besides the original
two-thread shapes there are N-thread, IRQ-handler, and store-buffering
(TSO litmus) kernels for the scenario-axis conformance suites.  Shared
by ``test_oracle_explorer.py`` and ``test_oracle_conformance.py`` (the
same pattern as ``tests/_journal_driver.py``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.kernel.code import BasicBlock, Function, Kernel
from repro.kernel.isa import Instruction, Opcode, Operand
from repro.kernel.memory import MemoryImage
from repro.kernel.syscalls import SyscallSpec

#: The two-program shape every helper returns alongside its kernel.
Programs = Tuple[List[Tuple[str, List[int]]], List[Tuple[str, List[int]]]]


def instr(opcode: Opcode, *operands: Operand) -> Instruction:
    return Instruction(opcode=opcode, operands=tuple(operands))


def two_thread_kernel(
    body_a: Sequence[Instruction],
    body_b: Sequence[Instruction],
    memory: Optional[MemoryImage] = None,
    locks: Sequence[str] = (),
) -> Tuple[Kernel, Programs]:
    """One kernel with two single-block syscalls ``sa``/``sb``."""
    blocks = {
        0: BasicBlock(block_id=0, function="fa", instructions=list(body_a)),
        1: BasicBlock(block_id=1, function="fb", instructions=list(body_b)),
    }
    functions = {
        "fa": Function(name="fa", subsystem="s", entry_block=0, block_ids=[0]),
        "fb": Function(name="fb", subsystem="s", entry_block=1, block_ids=[1]),
    }
    syscalls = {
        "sa": SyscallSpec(
            name="sa", handler="fa", subsystem="s", arg_ranges=((0, 7),)
        ),
        "sb": SyscallSpec(
            name="sb", handler="fb", subsystem="s", arg_ranges=((0, 7),)
        ),
    }
    kernel = Kernel(
        version="tiny",
        blocks=blocks,
        functions=functions,
        syscalls=syscalls,
        memory=memory or MemoryImage(),
        locks=list(locks),
        bugs=[],
    )
    return kernel, ([("sa", [1])], [("sb", [1])])


def straightline_nops(nops_a: int, nops_b: int) -> Tuple[Kernel, Programs]:
    """Two straight-line threads of ``n`` NOPs each (plus RET).

    The unpruned schedule space of such a pair has a closed form (see
    ``test_oracle_explorer.py``), which pins the explorer's enumeration
    against combinatorics instead of against itself.
    """
    body_a = [instr(Opcode.NOP)] * nops_a + [instr(Opcode.RET)]
    body_b = [instr(Opcode.NOP)] * nops_b + [instr(Opcode.RET)]
    return two_thread_kernel(body_a, body_b)


def _thread_body(
    rng: np.random.Generator,
    addresses: Sequence[int],
    lock: Optional[str],
    max_visible: int,
) -> List[Instruction]:
    """One random straight-line thread: loads, stores, maybe a lock
    around the middle, maybe a data-dependent CHECK after a load."""
    body: List[Instruction] = []
    visible_budget = int(rng.integers(1, max_visible + 1))
    if lock is not None:
        visible_budget = max(1, visible_budget - 2)  # LOCK/UNLOCK are visible
        body.append(instr(Opcode.LOCK, Operand.make_lock(lock)))
    loaded_register: Optional[int] = None
    for _ in range(visible_budget):
        address = int(addresses[int(rng.integers(0, len(addresses)))])
        roll = rng.random()
        if roll < 0.45:
            body.append(
                instr(
                    Opcode.STOREI,
                    Operand.make_addr(address),
                    Operand.make_imm(int(rng.integers(1, 4))),
                )
            )
        else:
            register = int(rng.integers(2, 6))
            body.append(
                instr(Opcode.LOAD, Operand.make_reg(register), Operand.make_addr(address))
            )
            loaded_register = register
        if rng.random() < 0.3:  # sprinkle invisible thread-local work
            body.append(
                instr(
                    Opcode.MOVI,
                    Operand.make_reg(7),
                    Operand.make_imm(int(rng.integers(0, 8))),
                )
            )
    if loaded_register is not None and rng.random() < 0.6:
        # Bug event iff the loaded value equals the other thread's store:
        # manifestation is genuinely schedule-dependent.
        body.append(
            instr(
                Opcode.CHECK,
                Operand.make_reg(loaded_register),
                Operand.make_imm(int(rng.integers(1, 4))),
            )
        )
    if lock is not None:
        body.append(instr(Opcode.UNLOCK, Operand.make_lock(lock)))
    body.append(instr(Opcode.RET))
    return body


def n_thread_kernel(
    bodies: Sequence[Sequence[Instruction]],
    memory: Optional[MemoryImage] = None,
    locks: Sequence[str] = (),
    irq_bodies: Sequence[Sequence[Instruction]] = (),
) -> Tuple[Kernel, List[List[Tuple[str, List[int]]]]]:
    """One kernel with one single-block syscall ``s{i}`` per body.

    ``irq_bodies`` adds lock-free single-block IRQ handler functions
    named ``irq{j}`` (callable via ``Machine.fire_irq`` / the explorer's
    ``irq_handlers`` axis, not reachable from any syscall).
    """
    blocks = {}
    functions = {}
    syscalls = {}
    for tid, body in enumerate(bodies):
        blocks[tid] = BasicBlock(
            block_id=tid, function=f"f{tid}", instructions=list(body)
        )
        functions[f"f{tid}"] = Function(
            name=f"f{tid}", subsystem="s", entry_block=tid, block_ids=[tid]
        )
        syscalls[f"s{tid}"] = SyscallSpec(
            name=f"s{tid}", handler=f"f{tid}", subsystem="s", arg_ranges=((0, 7),)
        )
    for j, body in enumerate(irq_bodies):
        block_id = len(bodies) + j
        blocks[block_id] = BasicBlock(
            block_id=block_id, function=f"irq{j}", instructions=list(body)
        )
        functions[f"irq{j}"] = Function(
            name=f"irq{j}", subsystem="s", entry_block=block_id,
            block_ids=[block_id],
        )
    kernel = Kernel(
        version="tiny",
        blocks=blocks,
        functions=functions,
        syscalls=syscalls,
        memory=memory or MemoryImage(),
        locks=list(locks),
        bugs=[],
        irq_handlers=[f"irq{j}" for j in range(len(irq_bodies))],
    )
    programs = [[(f"s{tid}", [1])] for tid in range(len(bodies))]
    return kernel, programs


def straightline_nops_n(nop_counts: Sequence[int]) -> Tuple[Kernel, List]:
    """N straight-line threads of ``nop_counts[i]`` NOPs each (plus RET).

    The unpruned schedule space has the multinomial closed form
    ``(sum steps)! / prod(steps_i!)`` with ``steps_i = nops_i + 2``
    (syscall dispatch and RET are machine steps too), which pins the
    N-thread enumeration against combinatorics.
    """
    bodies = [
        [instr(Opcode.NOP)] * count + [instr(Opcode.RET)]
        for count in nop_counts
    ]
    return n_thread_kernel(bodies)


def three_thread_racy_kernel() -> Tuple[Kernel, List, MemoryImage]:
    """Three threads sharing one variable: store / store / load+CHECK.

    Small enough for exhaustive three-thread enumeration, racy enough
    that coverage and bug manifestation are schedule-dependent.
    """
    image = MemoryImage()
    g = image.allocate("g", 0)
    bodies = [
        [instr(Opcode.STOREI, Operand.make_addr(g), Operand.make_imm(1)),
         instr(Opcode.RET)],
        [instr(Opcode.STOREI, Operand.make_addr(g), Operand.make_imm(2)),
         instr(Opcode.RET)],
        [instr(Opcode.LOAD, Operand.make_reg(2), Operand.make_addr(g)),
         instr(Opcode.CHECK, Operand.make_reg(2), Operand.make_imm(2)),
         instr(Opcode.RET)],
    ]
    kernel, programs = n_thread_kernel(bodies, memory=image)
    return kernel, programs, image


def irq_kernel() -> Tuple[Kernel, List, str]:
    """Two threads plus an IRQ handler racing on a shared flag.

    Thread 0 stores ``flag=1``; thread 1 loads it and CHECKs for ``2``;
    the handler stores ``flag=2`` — so the CHECK can only fire through
    an interrupt landing between thread 1's dispatch and its load.
    Returns ``(kernel, programs, handler_name)``.
    """
    image = MemoryImage()
    flag = image.allocate("flag", 0)
    bodies = [
        [instr(Opcode.STOREI, Operand.make_addr(flag), Operand.make_imm(1)),
         instr(Opcode.RET)],
        [instr(Opcode.LOAD, Operand.make_reg(2), Operand.make_addr(flag)),
         instr(Opcode.CHECK, Operand.make_reg(2), Operand.make_imm(2)),
         instr(Opcode.RET)],
    ]
    irq_body = [
        instr(Opcode.STOREI, Operand.make_addr(flag), Operand.make_imm(2)),
        instr(Opcode.RET),
    ]
    kernel, programs = n_thread_kernel(
        bodies, memory=image, irq_bodies=[irq_body]
    )
    return kernel, programs, "irq0"


def store_buffering_kernel() -> Tuple[Kernel, List]:
    """The classic TSO store-buffering litmus (SB), made set-observable.

    Thread 0: ``x := 1; r := load y; z := r``;
    thread 1: ``y := 1; r := load x; w := r``.
    Each thread records its loaded value in a private out-cell, so the
    relaxed outcome — both loads reading 0 — shows up as the final
    state ``z = w = 0``, which no SC interleaving produces. The
    weak-memory axis therefore *strictly* grows
    ``final_memory_states``.
    """
    image = MemoryImage()
    x = image.allocate("x", 0)
    y = image.allocate("y", 0)
    z = image.allocate("z", 0)
    w = image.allocate("w", 0)
    bodies = [
        [instr(Opcode.STOREI, Operand.make_addr(x), Operand.make_imm(1)),
         instr(Opcode.LOAD, Operand.make_reg(2), Operand.make_addr(y)),
         instr(Opcode.STORE, Operand.make_addr(z), Operand.make_reg(2)),
         instr(Opcode.RET)],
        [instr(Opcode.STOREI, Operand.make_addr(y), Operand.make_imm(1)),
         instr(Opcode.LOAD, Operand.make_reg(2), Operand.make_addr(x)),
         instr(Opcode.STORE, Operand.make_addr(w), Operand.make_reg(2)),
         instr(Opcode.RET)],
    ]
    return n_thread_kernel(bodies, memory=image)


def cross_lock_kernel() -> Tuple[Kernel, List]:
    """Two threads taking locks ``L1``/``L2`` in opposite order, a NOP in
    between: run to completion they do not interfere, but a switch inside
    either critical section deadlocks the pair."""

    def body(first: str, second: str) -> List[Instruction]:
        return [
            instr(Opcode.LOCK, Operand.make_lock(first)),
            instr(Opcode.NOP),
            instr(Opcode.LOCK, Operand.make_lock(second)),
            instr(Opcode.UNLOCK, Operand.make_lock(second)),
            instr(Opcode.UNLOCK, Operand.make_lock(first)),
            instr(Opcode.RET),
        ]

    return n_thread_kernel(
        [body("L1", "L2"), body("L2", "L1")], locks=["L1", "L2"]
    )


def random_tiny_kernel_n(
    seed: int, num_threads: int = 3
) -> Tuple[Kernel, List[List[Tuple[str, List[int]]]]]:
    """A random N-thread kernel small enough to enumerate exhaustively.

    One visible op per thread plus optional invisible work, so the
    sleep-set schedule space stays enumerable even at three threads.
    """
    rng = np.random.default_rng(seed)
    image = MemoryImage()
    addresses = [
        image.allocate(f"g{i}", 0) for i in range(int(rng.integers(1, 3)))
    ]
    bodies = [
        _thread_body(rng, addresses, None, max_visible=1)
        for _ in range(num_threads)
    ]
    return n_thread_kernel(bodies, memory=image)


def random_tiny_kernel(seed: int) -> Tuple[Kernel, Programs]:
    """A random two-thread kernel small enough to enumerate exhaustively.

    Visible operations are capped at ~5 per thread, so sleep-set
    exploration stays in the hundreds of schedules.
    """
    rng = np.random.default_rng(seed)
    image = MemoryImage()
    addresses = [
        image.allocate(f"g{i}", 0) for i in range(int(rng.integers(1, 3)))
    ]
    locks = ["la"]
    lock_a = "la" if rng.random() < 0.35 else None
    lock_b = "la" if rng.random() < 0.35 else None
    body_a = _thread_body(rng, addresses, lock_a, max_visible=3)
    body_b = _thread_body(rng, addresses, lock_b, max_visible=3)
    return two_thread_kernel(body_a, body_b, memory=image, locks=locks)
