"""The instruction-level interpreter.

One :class:`Machine` hosts one dynamic test: a fresh memory state, a lock
table, and one :class:`ThreadContext` per test thread. Schedulers (the
sequential executor, the hint-driven concurrent executor, PCT) decide which
thread runs next; the machine itself is policy-free.

There is one execution core. Each kernel is decoded once
(:func:`decode_program`, cached on the ``Kernel``): per block a tuple of
``(op, a, b, iid)`` with the opcode as a small int and
registers, immediates, addresses, branch targets, the fall-through
successor, the callee's entry block and the lock name already resolved.
:meth:`Machine.run` interprets that program in a single loop over plain
locals and comes back to the scheduler only at the events a scheduler can
act on:

- the thread left ``READY`` (it blocked on a lock, or is done) or returned
  from a syscall (its next step is a dispatch);
- an ``UNLOCK`` executed (the only way another thread becomes runnable);
- the last executed instruction is ``(thread, stop_iid)`` (a scheduling
  hint was reached);
- ``total_steps`` reached ``until_total`` (the next IRQ mark or PCT change
  point) or the step budget.

:meth:`Machine.step` is ``run`` with a budget of one step, for callers that
decide per step (the oracle explorer). The machine records its own trace
as it runs: the blocks each thread entered, one :class:`MemoryAccess` per
shared-memory access and one :class:`BugEvent` per fired assertion, each
stamped with the executed-instruction count and the scheduler's ``epoch``.
Schedulers read those fields when the run is over.

Memory models (§6's "predict concurrent executions on weak memory
models"): the default is sequential consistency, matching the paper's
training traces. ``memory_model="tso"`` adds per-thread store buffers —
stores become globally visible only when the buffer drains (on lock/unlock
fences, at syscall exit, or when the buffer overflows), while the issuing
thread forwards from its own buffer. Classic store-buffering outcomes that
no SC interleaving produces become reachable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import ExecutionError, ExecutionLimitExceeded
from repro.execution.trace import BugEvent, MemoryAccess
from repro.kernel.code import BasicBlock, Kernel
from repro.kernel.isa import NUM_REGISTERS, Opcode

__all__ = [
    "ThreadStatus",
    "ThreadContext",
    "Machine",
    "decode_program",
]

#: Default per-execution instruction budget. Generated CFGs are acyclic so
#: executions are finite, but the budget guards against builder regressions.
DEFAULT_MAX_STEPS = 200_000

#: Store-buffer capacity under TSO; the oldest entry drains on overflow.
DEFAULT_STORE_BUFFER_CAPACITY = 8

# Decoded opcodes, numbered by dynamic frequency on the default kernel so
# the interpreter's if-chain tests the common ones first (_JMP.._CALL, the
# ops that enter a block, share one arm). JZ and JNZ both decode to _BRANCH.
(
    _LOAD, _MOVI, _STOREI, _STORE, _JMP, _BRANCH, _CALL, _ADD, _XOR, _ADDI,
    _MOV, _LOCK, _UNLOCK, _RET, _NOP, _CHECK, _DEREF, _SUB, _AND, _FELL_OFF,
) = range(20)  # fmt: skip

#: Opcode → (decoded op, the operand fields that become ``a`` and ``b``).
_DECODE = {
    Opcode.LOAD: (_LOAD, "reg", "addr"),
    Opcode.MOVI: (_MOVI, "reg", "imm"),
    Opcode.STOREI: (_STOREI, "addr", "imm"),
    Opcode.STORE: (_STORE, "addr", "reg"),
    Opcode.JMP: (_JMP, "label", None),
    Opcode.JZ: (_BRANCH, "reg", "label"),
    Opcode.JNZ: (_BRANCH, "reg", "label"),
    Opcode.CALL: (_CALL, "name", None),
    Opcode.ADD: (_ADD, "reg", "reg"),
    Opcode.XOR: (_XOR, "reg", "reg"),
    Opcode.ADDI: (_ADDI, "reg", "imm"),
    Opcode.MOV: (_MOV, "reg", "reg"),
    Opcode.LOCK: (_LOCK, "name", None),
    Opcode.UNLOCK: (_UNLOCK, "name", None),
    Opcode.RET: (_RET, None, None),
    Opcode.NOP: (_NOP, None, None),
    Opcode.CHECK: (_CHECK, "reg", "imm"),
    Opcode.DEREF: (_DEREF, "reg", None),
    Opcode.SUB: (_SUB, "reg", "reg"),
    Opcode.AND: (_AND, "reg", "reg"),
}


def _decode_block(kernel: Kernel, block: BasicBlock) -> tuple:
    code = []
    for instruction in block.instructions:
        op, field_a, field_b = _DECODE[instruction.opcode]
        a = field_a and getattr(instruction.operands[0], field_a)
        b = field_b and getattr(instruction.operands[1], field_b)
        if op == _BRANCH:
            # b: (block entered if the register is zero, block if not);
            # a missing fall-through successor is an error only if taken.
            fall = block.successors[1] if len(block.successors) > 1 else None
            b = (b, fall) if instruction.opcode is Opcode.JZ else (fall, b)
        elif op == _CALL:
            a = kernel.functions[a].entry_block
        code.append((op, a, b, instruction.iid))
    # Running past the last instruction lands on this sentinel, which saves
    # a bounds check per step.
    code.append((_FELL_OFF, None, None, -1))
    return tuple(code)


def decode_program(kernel: Kernel) -> Dict[int, tuple]:
    """The kernel's pre-decoded program: block id → tuple of
    ``(op, a, b, iid)``, built once per ``Kernel`` object."""
    if kernel.decoded is None:
        kernel.decoded = {
            block_id: _decode_block(kernel, block)
            for block_id, block in kernel.blocks.items()
        }
    return kernel.decoded


class ThreadStatus(enum.Enum):
    READY = "ready"
    BLOCKED = "blocked"  # waiting on a lock
    DONE = "done"


@dataclass
class ThreadContext:
    """Architectural state of one test thread."""

    tid: int
    #: Remaining syscall invocations: (syscall name, args).
    pending_syscalls: List[Tuple[str, List[int]]]
    registers: List[int] = field(default_factory=lambda: [0] * NUM_REGISTERS)
    #: (block_id, index) return frames.
    call_stack: List[Tuple[int, int]] = field(default_factory=list)
    block_id: Optional[int] = None
    index: int = 0
    status: ThreadStatus = ThreadStatus.READY
    waiting_lock: Optional[str] = None
    #: Replaced (never mutated) by LOCK/UNLOCK, so every access inside one
    #: critical section records the same object.
    locks_held: FrozenSet[str] = frozenset()
    steps: int = 0


class Machine:
    """Interpreter for one dynamic test."""

    def __init__(
        self,
        kernel: Kernel,
        max_steps: int = DEFAULT_MAX_STEPS,
        memory_model: str = "sc",
        store_buffer_capacity: int = DEFAULT_STORE_BUFFER_CAPACITY,
    ) -> None:
        if memory_model not in ("sc", "tso"):
            raise ExecutionError(f"unknown memory model {memory_model!r}")
        self.kernel = kernel
        self.program = decode_program(kernel)
        self.max_steps = max_steps
        self.memory = kernel.memory.fresh_state()
        self.lock_owners: Dict[str, int] = {}
        self.threads: List[ThreadContext] = []
        #: Steps taken, syscall dispatches included (``steps`` counts
        #: executed instructions only). IRQ marks, PCT change points and
        #: the step budget all compare against this.
        self.total_steps = 0
        #: Instructions executed so far, IRQ handlers included: the
        #: ``step`` stamped on every record.
        self.steps = 0
        #: Scheduling epoch stamped on every access: the scheduler
        #: advances it at each context switch, between ``run`` calls.
        self.epoch = 0
        self.accesses: List[MemoryAccess] = []
        self.bug_events: List[BugEvent] = []
        #: Blocks entered, one set per created thread; IRQ handler blocks
        #: count for the interrupted thread.
        self.covered: List[Set[int]] = []
        #: Opt-in (the sequential executor): lists that receive the id of
        #: every executed instruction and of every entered block. With
        #: ``block_trace`` set, block entries go there and not to
        #: ``covered``.
        self.iid_trace: Optional[List[int]] = None
        self.block_trace: Optional[List[int]] = None
        #: The last executed instruction, what a scheduling hint is tested
        #: against. A step that executes nothing (a dispatch) leaves it.
        self.last_thread: Optional[int] = None
        self.last_iid: Optional[int] = None
        self.memory_model = memory_model
        self.store_buffer_capacity = store_buffer_capacity
        #: Per-thread FIFO store buffers (TSO only): list of (addr, value).
        self.store_buffers: Dict[int, List[Tuple[int, int]]] = {}

    # -- weak-memory plumbing ------------------------------------------------

    def drain_store_buffer(self, thread: ThreadContext) -> int:
        """Flush the thread's buffered stores to memory, in order.

        Returns the number of entries drained. A fence under TSO; a no-op
        under SC.
        """
        buffer = self.store_buffers.get(thread.tid)
        if not buffer:
            return 0
        count = len(buffer)
        for address, value in buffer:
            self.memory.store(address, value)
        buffer.clear()
        return count

    def drain_oldest(self, thread: ThreadContext) -> bool:
        """Flush only the *oldest* buffered store of ``thread`` to memory.

        Returns whether anything was drained. This is the oracle's
        voluntary-drain scheduling choice under TSO: hardware may commit a
        buffered store at any point, so the explorer models each single
        commit as a distinct branch (draining oldest-first preserves TSO's
        per-thread store order).
        """
        buffer = self.store_buffers.get(thread.tid)
        if not buffer:
            return False
        address, value = buffer.pop(0)
        self.memory.store(address, value)
        return True

    # -- interrupt injection (§6: interrupt-handler coverage) -----------------

    def fire_irq(
        self, thread: ThreadContext, handler_name: str, max_steps: int = 5_000
    ) -> None:
        """Run an interrupt handler to completion on ``thread``'s CPU.

        The handler executes atomically (interrupts-disabled semantics):
        the interrupted thread's registers and control state are saved, a
        fresh register file runs the handler, and everything is restored
        afterwards. Coverage, memory accesses and bug events are emitted
        under the interrupted thread's id — IRQ code genuinely races with
        whatever the other thread is doing. Handler instructions advance
        ``total_steps`` but not ``thread.steps``.
        """
        if handler_name not in self.kernel.functions:
            raise ExecutionError(f"unknown IRQ handler {handler_name!r}")
        saved = (thread.registers, thread.call_stack, thread.block_id, thread.index)
        thread.registers = [0] * NUM_REGISTERS
        thread.call_stack = []
        self._enter_block(thread, self.kernel.functions[handler_name].entry_block)
        deadline = self.total_steps + max_steps
        while thread.block_id is not None and self.total_steps < deadline:
            self._interpret(thread, None, deadline, irq=True)
            if thread.status is ThreadStatus.BLOCKED:
                raise ExecutionError(
                    f"IRQ handler {handler_name!r} blocked on a lock"
                )
        if self.total_steps >= deadline:
            raise ExecutionLimitExceeded(
                f"IRQ handler {handler_name!r} exceeded {max_steps} steps"
            )
        # The handler's final RET set block_id to None and may have marked
        # the thread DONE; undo both and restore the interrupted state.
        thread.status = ThreadStatus.READY
        thread.registers, thread.call_stack, thread.block_id, thread.index = saved

    # -- setup -----------------------------------------------------------

    def create_thread(self, syscalls: Sequence[Tuple[str, Sequence[int]]]) -> ThreadContext:
        """Register a thread that will run the given syscall sequence."""
        pending = []
        for name, args in syscalls:
            if name not in self.kernel.syscalls:
                raise ExecutionError(f"unknown syscall {name!r}")
            spec = self.kernel.syscalls[name]
            pending.append((name, spec.clamp_args(list(args))))
        thread = ThreadContext(tid=len(self.threads), pending_syscalls=pending)
        self.threads.append(thread)
        self.covered.append(set())
        return thread

    # -- scheduling queries ------------------------------------------------

    def runnable(self, thread: ThreadContext) -> bool:
        if thread.status is ThreadStatus.DONE:
            return False
        if thread.status is ThreadStatus.BLOCKED:
            # Re-check: the lock may have been released since.
            assert thread.waiting_lock is not None
            owner = self.lock_owners.get(thread.waiting_lock)
            if owner is None or owner == thread.tid:
                thread.status = ThreadStatus.READY
                return True
            return False
        return True

    def all_done(self) -> bool:
        return all(t.status is ThreadStatus.DONE for t in self.threads)

    # -- execution ---------------------------------------------------------

    def _block_recorder(self, tid: int):
        """What records thread ``tid``'s block entries: the opt-in entry
        list if set, else the thread's covered set."""
        if self.block_trace is None:
            return self.covered[tid].add
        return self.block_trace.append

    def _enter_block(self, thread: ThreadContext, block_id: int) -> None:
        thread.block_id = block_id
        thread.index = 0
        self._block_recorder(thread.tid)(block_id)

    def _dispatch_next_syscall(self, thread: ThreadContext) -> bool:
        """Start the thread's next syscall; False when the thread is done."""
        if not thread.pending_syscalls:
            thread.status = ThreadStatus.DONE
            return False
        name, args = thread.pending_syscalls.pop(0)
        spec = self.kernel.syscalls[name]
        thread.registers = [0] * NUM_REGISTERS
        for i, value in enumerate(args[: NUM_REGISTERS]):
            thread.registers[i] = value
        thread.call_stack = []
        entry = self.kernel.functions[spec.handler].entry_block
        self._enter_block(thread, entry)
        return True

    def step(self, thread: ThreadContext) -> None:
        """Execute one instruction (or one dispatch/blocked transition):
        :meth:`run` with a budget of one step."""
        self.run(thread, until_total=self.total_steps + 1)

    def run(
        self,
        thread: ThreadContext,
        stop_iid: Optional[int] = None,
        until_total: Optional[int] = None,
    ) -> None:
        """Run ``thread`` until the next scheduling event.

        Returns when the thread blocked, finished a syscall or is done,
        after an ``UNLOCK``, when the last executed instruction is
        ``(thread, stop_iid)``, or when ``total_steps`` reached
        ``until_total`` or the step budget — whichever comes first, and
        always after at least one step if one can be taken. Raises
        :class:`ExecutionLimitExceeded` past the step budget. On a BLOCKED
        thread whose lock is still held it is a no-op; schedulers should
        consult :meth:`runnable` first.
        """
        if thread.status is ThreadStatus.DONE:
            raise ExecutionError(f"thread {thread.tid} is done")
        if self.total_steps >= self.max_steps:
            raise ExecutionLimitExceeded(
                f"execution exceeded {self.max_steps} steps"
            )
        if thread.status is ThreadStatus.BLOCKED and not self.runnable(thread):
            return
        limit = self.max_steps
        if until_total is not None:
            limit = min(limit, until_total)
        if thread.block_id is None:
            if not self._dispatch_next_syscall(thread):
                return
            # Dispatch consumes a step and executes nothing, so the hint
            # test reads the instruction executed before it.
            self.total_steps += 1
            if self.total_steps >= limit or (
                stop_iid is not None
                and self.last_iid == stop_iid
                and self.last_thread == thread.tid
            ):
                return
        thread.steps += self._interpret(thread, stop_iid, limit)

    def _interpret(
        self,
        thread: ThreadContext,
        stop_iid: Optional[int],
        limit: int,
        irq: bool = False,
    ) -> int:
        """The interpreter loop: execute ``thread`` from its current
        position until a scheduling event (see :meth:`run`), at least one
        instruction, without the per-step admission checks ``run`` makes.
        Returns the number of instructions executed. ``irq`` only words
        the fell-off-a-block error."""
        iid_trace = self.iid_trace
        program = self.program
        owners = self.lock_owners
        cells = self.memory.cells
        tid = thread.tid
        record = self.accesses.append
        # Schedulers change the epoch only between calls.
        epoch = self.epoch
        enter = self._block_recorder(tid)
        # The SC fast path stores straight to memory: no buffer.
        buffer = (
            self.store_buffers.setdefault(tid, [])
            if self.memory_model == "tso"
            else None
        )
        regs = thread.registers
        stack = thread.call_stack
        code = program[thread.block_id]
        index = thread.index
        first = step = self.steps
        deadline = step + limit - self.total_steps
        while True:
            op, a, b, iid = code[index]
            index += 1
            step += 1
            if iid_trace is not None:
                iid_trace.append(iid)
            if op == _LOAD:
                # One record per access: ``tuple.__new__`` skips the named
                # tuple's generated Python ``__new__``; the field order is
                # MemoryAccess's.
                record(tuple.__new__(MemoryAccess, (
                    step, tid, iid, thread.block_id, b, False,
                    thread.locks_held, epoch,
                )))  # fmt: skip
                if buffer:
                    # Store forwarding: the issuing thread sees its buffer.
                    for address, value in reversed(buffer):
                        if address == b:
                            regs[a] = value
                            break
                    else:
                        regs[a] = cells.get(b, 0)
                else:
                    regs[a] = cells.get(b, 0)
            elif op == _MOVI:
                regs[a] = b
            elif op == _STOREI or op == _STORE:
                record(tuple.__new__(MemoryAccess, (
                    step, tid, iid, thread.block_id, a, True,
                    thread.locks_held, epoch,
                )))  # fmt: skip
                value = b if op == _STOREI else regs[b]
                if buffer is None:
                    cells[a] = value
                else:
                    buffer.append((a, value))
                    if len(buffer) > self.store_buffer_capacity:
                        self.memory.store(*buffer.pop(0))
            elif op <= _CALL:
                if op == _BRANCH:
                    a = b[0] if regs[a] == 0 else b[1]
                    if a is None:
                        raise ExecutionError(
                            f"conditional in block {thread.block_id} lacks a "
                            f"fallthrough successor"
                        )
                elif op == _CALL:
                    stack.append((thread.block_id, index))
                thread.block_id = a
                code = program[a]
                index = 0
                enter(a)
            elif op == _ADD:
                regs[a] += regs[b]
            elif op == _XOR:
                regs[a] ^= regs[b]
            elif op == _ADDI:
                regs[a] += b
            elif op == _MOV:
                regs[a] = regs[b]
            elif op == _LOCK:
                owner = owners.get(a)
                if owner is None:
                    # Acquire is a fence: buffered stores become visible.
                    if buffer:
                        self.drain_store_buffer(thread)
                    owners[a] = tid
                    thread.locks_held = thread.locks_held | {a}
                    thread.waiting_lock = None
                elif owner == tid:
                    raise ExecutionError(
                        f"thread {tid} re-acquired lock {a!r}"
                    )
                else:
                    thread.status = ThreadStatus.BLOCKED
                    thread.waiting_lock = a
                    # Do not advance: the LOCK retries once runnable again.
                    index -= 1
                    break
            elif op == _UNLOCK:
                if owners.get(a) != tid:
                    raise ExecutionError(
                        f"thread {tid} released lock {a!r} it does not hold"
                    )
                # Release is a fence: critical-section stores become visible.
                if buffer:
                    self.drain_store_buffer(thread)
                del owners[a]
                thread.locks_held = thread.locks_held - {a}
                # A thread blocked on the lock is runnable again.
                break
            elif op == _RET:
                if stack:
                    thread.block_id, index = stack.pop()
                    code = program[thread.block_id]
                else:
                    # Syscall handler finished; syscall exit is a full fence.
                    if buffer:
                        self.drain_store_buffer(thread)
                    thread.block_id = None
                    index = 0
                    if not thread.pending_syscalls:
                        thread.status = ThreadStatus.DONE
                    break
            elif op == _NOP:
                pass
            elif op == _CHECK:
                if regs[a] == b:
                    self.bug_events.append(
                        BugEvent(step, tid, iid, thread.block_id, "check")
                    )
            elif op == _DEREF:
                if regs[a] == 0:
                    self.bug_events.append(
                        BugEvent(step, tid, iid, thread.block_id, "deref")
                    )
            elif op == _SUB:
                regs[a] -= regs[b]
            elif op == _AND:
                regs[a] &= regs[b]
            elif irq:
                raise ExecutionError(
                    f"IRQ handler fell off block {thread.block_id}"
                )
            else:
                raise ExecutionError(
                    f"fell off the end of block {thread.block_id} "
                    f"(malformed block without terminator)"
                )
            if iid == stop_iid or step >= deadline:
                break
        thread.index = index
        self.steps = step
        self.total_steps += step - first
        self.last_thread, self.last_iid = tid, iid
        return step - first
