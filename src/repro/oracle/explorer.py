"""Bounded exhaustive interleaving exploration: the ground-truth oracle.

Everything else in this repository compares the system against itself —
PCT against MLPCT, serial against parallel, batched against per-graph.
This module provides the independent reference: for a *tiny* concurrent
test (a bounded number of threads, a handful of shared accesses each) it
enumerates every schedule the serializing machine can produce and derives
the complete ground truth — every reachable block, every cross-thread
conflicting access pair, every bug manifestation, whether a deadlock is
reachable — against which any single observed execution must be
*subsumed*.

Enumeration is stateless-model-checking style: schedules are replayed
from scratch along a DFS over scheduler choice points, so no machine
snapshotting is needed. Three pruning modes are offered:

- ``"none"``: a scheduler choice at every machine step. Exact but
  factorial; only usable on micro-programs (property tests use it to
  validate the pruned modes).
- ``"por"``: partial-order reduction by *visible-operation chunking*.
  Thread-local instructions (register arithmetic, local branches,
  syscall dispatch) commute with everything other threads can do, so
  they are glued to the preceding visible operation and scheduler
  choices happen only between shared-memory/lock operations. Every
  Mazurkiewicz trace keeps a representative, so all derived *sets* are
  identical to ``"none"``; only the schedule count shrinks.
- ``"sleep"``: ``"por"`` plus sleep sets (Godefroid): after exploring
  thread ``t`` at a choice node, the sibling branch keeps ``t`` asleep
  until an operation *dependent* with ``t``'s next operation executes,
  pruning commuted duplicates of independent operations.

Scenario axes beyond plain SC thread interleaving appear as additional
scheduler choices (``docs/TESTING.md`` "Scenario axes"):

- **IRQ injection** (``irq_handlers``/``max_irqs``): before every
  decision the explorer may fire any configured handler on any live
  thread. These *special* choices are computed before invisible
  advancement — a handler can fire on a thread whose remaining work is
  entirely thread-local — and are never sleep-pruned; executing one
  conservatively wakes all sleepers (a handler may touch anything).
- **TSO weak memory** (``memory_model="tso"``): stores sit in per-thread
  FIFO buffers; besides the machine's own fence/overflow drains, the
  explorer may voluntarily commit a thread's oldest buffered store at
  any decision, modelling hardware draining at arbitrary points. Under
  TSO sleep-set injection is disabled (store visibility is deferred, so
  parked-operation independence no longer implies commutation) and
  ``"sleep"`` degenerates to ``"por"`` — fewer prunes, still sound.

The soundness claims above are not taken on faith: the property suite
asserts pruned and unpruned ground truths are equal on known shapes
(``tests/test_oracle_explorer.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro import rng as rngmod
from repro.errors import ExecutionLimitExceeded, OracleError, OracleLimitError
from repro.execution.alias import AliasPair, alias_coverage
from repro.execution.concurrent import ConcurrentSink
from repro.execution.machine import Machine, ThreadContext, ThreadStatus
from repro.execution.races import (
    DEFAULT_PROXIMITY_WINDOW,
    PotentialRace,
    find_potential_races,
)
from repro.execution.trace import ConcurrentResult, MemoryAccess
from repro.kernel.code import Kernel
from repro.kernel.isa import Opcode

__all__ = [
    "PRUNING_MODES",
    "DEFAULT_MAX_THREADS",
    "GroundTruth",
    "ExhaustiveExplorer",
    "explore_interleavings",
    "conflicting_pairs",
    "reference_potential_races",
    "reference_alias_pairs",
]

PRUNING_MODES = ("none", "por", "sleep")

#: Operations observable by the other thread; everything else is
#: thread-local and commutes with any concurrent operation.
_VISIBLE = frozenset({Opcode.LOAD, Opcode.STORE, Opcode.STOREI, Opcode.LOCK, Opcode.UNLOCK})

#: Default per-replay instruction budget — tiny programs only.
DEFAULT_MAX_STEPS = 5_000

#: Default bound on enumerated schedules before the explorer refuses.
DEFAULT_MAX_SCHEDULES = 20_000

#: Default thread-count bound; exploration is exponential in it.
DEFAULT_MAX_THREADS = 4


# -- reference (naive) trace scans --------------------------------------------
#
# Pure-Python mirrors of the vectorised detectors, used two ways: to derive
# ground-truth universes here, and as the independent reference side of the
# detector conformance tests (tests/test_oracle_conformance.py).


def _disjoint_locksets(a: MemoryAccess, b: MemoryAccess) -> bool:
    return not (a.locks_held & b.locks_held)


def conflicting_pairs(accesses: Sequence[MemoryAccess]) -> Set[PotentialRace]:
    """All cross-thread conflicting pairs, with *no* proximity condition.

    Two accesses conflict when they touch the same address from different
    threads, at least one writes, and no lock is held in common. This is
    the maximal race universe of one execution: any proximity- or
    epoch-windowed detector output over the same access stream is a
    subset of it.
    """
    pairs: Set[PotentialRace] = set()
    for i, first in enumerate(accesses):
        for second in accesses[i + 1 :]:
            if first.address != second.address:
                continue
            if first.thread == second.thread:
                continue
            if not (first.is_write or second.is_write):
                continue
            if not _disjoint_locksets(first, second):
                continue
            pairs.add(PotentialRace.of(first.iid, second.iid, first.address))
    return pairs


def reference_potential_races(
    accesses: Sequence[MemoryAccess],
    proximity_window: int = DEFAULT_PROXIMITY_WINDOW,
    adjacent_epochs: bool = True,
) -> Set[PotentialRace]:
    """Naive O(n²) mirror of :func:`repro.execution.races.find_potential_races`.

    Same semantics, no NumPy: the conformance tests run both over the
    same access streams and assert they agree.
    """
    races: Set[PotentialRace] = set()
    for i, first in enumerate(accesses):
        for second in accesses[i + 1 :]:
            if first.address != second.address:
                continue
            if first.thread == second.thread:
                continue
            if not (first.is_write or second.is_write):
                continue
            if not _disjoint_locksets(first, second):
                continue
            close = (second.step - first.step) <= proximity_window
            if adjacent_epochs:
                close = close or (second.epoch - first.epoch) == 1
            if close:
                races.add(PotentialRace.of(first.iid, second.iid, first.address))
    return races


def reference_alias_pairs(accesses: Sequence[MemoryAccess]) -> Set[AliasPair]:
    """Naive mirror of :func:`repro.execution.alias.alias_coverage`."""
    pairs: Set[AliasPair] = set()
    for i, first in enumerate(accesses):
        for second in accesses[i + 1 :]:
            if first.address != second.address:
                continue
            if first.thread == second.thread:
                continue
            pairs.add(AliasPair.of(first.iid, second.iid, first.address))
    return pairs


# -- ground truth --------------------------------------------------------------


@dataclass(frozen=True)
class GroundTruth:
    """Everything a bounded exhaustive exploration proved about one CT."""

    num_schedules: int
    pruning: str
    #: Union of blocks covered by any thread in any schedule.
    covered_blocks: FrozenSet[int]
    #: One frozenset per thread (IRQ-handler coverage is attributed to the
    #: interrupted thread, matching the machine's accounting).
    per_thread_covered: Tuple[FrozenSet[int], ...]
    #: Window-free conflicting-pair universe over all schedules.
    race_universe: FrozenSet[PotentialRace]
    #: Cross-thread aliasing-pair universe over all schedules.
    alias_universe: FrozenSet[AliasPair]
    #: Instruction/block identities of every manifestable bug event.
    bug_iids: FrozenSet[int]
    bug_blocks: FrozenSet[int]
    bug_kinds: FrozenSet[str]
    deadlock_possible: bool
    #: Distinct final shared-memory states of completed schedules
    #: (sorted (address, value) tuples; initial-valued cells elided).
    final_memory_states: FrozenSet[Tuple[Tuple[int, int], ...]]

    def behavior_key(self) -> Tuple:
        """The schedule-count-free part, equal across pruning modes."""
        return (
            self.covered_blocks,
            self.per_thread_covered,
            self.race_universe,
            self.alias_universe,
            self.bug_iids,
            self.bug_blocks,
            self.bug_kinds,
            self.deadlock_possible,
            self.final_memory_states,
        )

    def check_result(self, result: ConcurrentResult) -> List[str]:
        """Violations of ``ground truth subsumes observed execution``.

        Empty list means the observed run is consistent with exhaustive
        enumeration: its coverage, detected races, alias pairs, bug events
        and deadlock verdict are all contained in the ground-truth sets.
        """
        violations: List[str] = []
        for tid in range(len(self.per_thread_covered)):
            extra = frozenset(result.covered_blocks[tid]) - self.per_thread_covered[tid]
            if extra:
                violations.append(
                    f"thread {tid} covered blocks outside ground truth: "
                    f"{sorted(extra)}"
                )
        races = find_potential_races(result.accesses)
        extra_races = races - self.race_universe
        if extra_races:
            violations.append(
                f"observed races outside ground truth: {sorted((r.iid_pair, r.address) for r in extra_races)}"
            )
        aliases = alias_coverage(result.accesses)
        extra_aliases = aliases - self.alias_universe
        if extra_aliases:
            violations.append(
                f"observed alias pairs outside ground truth: "
                f"{sorted((p.iid_pair, p.address) for p in extra_aliases)}"
            )
        extra_bugs = {event.iid for event in result.bug_events} - self.bug_iids
        if extra_bugs:
            violations.append(
                f"observed bug events outside ground truth: {sorted(extra_bugs)}"
            )
        extra_bug_blocks = result.manifested_bug_blocks() - self.bug_blocks
        if extra_bug_blocks:
            violations.append(
                f"observed bug blocks outside ground truth: "
                f"{sorted(extra_bug_blocks)}"
            )
        if result.deadlocked and not self.deadlock_possible:
            violations.append(
                "observed a deadlock but exhaustive exploration found none"
            )
        return violations


class _Accumulator:
    """Folds per-schedule outcomes into the ground-truth sets."""

    def __init__(self, num_threads: int = 2) -> None:
        self.num_schedules = 0
        self.covered: Tuple[Set[int], ...] = tuple(
            set() for _ in range(num_threads)
        )
        self.races: Set[PotentialRace] = set()
        self.aliases: Set[AliasPair] = set()
        self.bug_iids: Set[int] = set()
        self.bug_blocks: Set[int] = set()
        self.bug_kinds: Set[str] = set()
        self.deadlock = False
        self.final_states: Set[Tuple[Tuple[int, int], ...]] = set()

    def fold(
        self,
        sink: ConcurrentSink,
        machine: Machine,
        deadlocked: bool,
    ) -> None:
        self.num_schedules += 1
        for tid, covered in enumerate(sink.covered):
            self.covered[tid].update(covered)
        self.races |= conflicting_pairs(sink.accesses)
        self.aliases |= reference_alias_pairs(sink.accesses)
        for event in sink.bug_events:
            self.bug_iids.add(event.iid)
            self.bug_blocks.add(event.block_id)
            self.bug_kinds.add(event.kind)
        if deadlocked:
            self.deadlock = True
        else:
            snapshot = machine.memory.snapshot()
            initial = machine.kernel.memory.initial
            self.final_states.add(
                tuple(
                    sorted(
                        (address, value)
                        for address, value in snapshot.items()
                        if initial.get(address, 0) != value
                    )
                )
            )

    def freeze(self, pruning: str) -> GroundTruth:
        return GroundTruth(
            num_schedules=self.num_schedules,
            pruning=pruning,
            covered_blocks=frozenset(set().union(*self.covered)),
            per_thread_covered=tuple(
                frozenset(covered) for covered in self.covered
            ),
            race_universe=frozenset(self.races),
            alias_universe=frozenset(self.aliases),
            bug_iids=frozenset(self.bug_iids),
            bug_blocks=frozenset(self.bug_blocks),
            bug_kinds=frozenset(self.bug_kinds),
            deadlock_possible=self.deadlock,
            final_memory_states=frozenset(self.final_states),
        )


# -- the explorer --------------------------------------------------------------

#: One scheduler choice: a thread id (step that thread), or a *special* —
#: ``("irq", tid, handler)`` fires an interrupt handler on a live thread,
#: ``("drain", tid)`` commits a thread's oldest buffered store (TSO), and
#: ``("pass",)`` declines every currently offered special.
_Choice = object  # int | Tuple

#: A frontier entry: forced scheduler choices, plus (for ``"sleep"``) the
#: sleep set to install at each forced decision index.
_Branch = Tuple[Tuple[_Choice, ...], Tuple[Tuple[int, FrozenSet[int]], ...]]

_PASS = ("pass",)

#: Visible-operation signature: ("mem", address, is_write) or ("lock", name).
_OpSig = Tuple


def _op_signature(kernel: Kernel, thread: ThreadContext) -> Optional[_OpSig]:
    """Signature of the visible instruction ``thread`` is parked at."""
    if thread.block_id is None:
        return None
    instruction = kernel.blocks[thread.block_id].instructions[thread.index]
    op = instruction.opcode
    if op is Opcode.LOAD:
        return ("mem", instruction.operands[1].addr, False)
    if op in (Opcode.STORE, Opcode.STOREI):
        return ("mem", instruction.operands[0].addr, True)
    if op in (Opcode.LOCK, Opcode.UNLOCK):
        return ("lock", instruction.operands[0].name)
    return None


def _independent(first: _OpSig, second: _OpSig) -> bool:
    """Whether two visible operations commute.

    Memory operations are dependent iff they touch the same address and at
    least one writes; lock operations are dependent iff they name the same
    lock; a memory and a lock operation always commute.
    """
    if first[0] != second[0]:
        return True
    if first[0] == "lock":
        return first[1] != second[1]
    if first[1] != second[1]:
        return True
    return not (first[2] or second[2])


class ExhaustiveExplorer:
    """Enumerates every schedule of an N-thread CT and derives ground truth.

    ``shuffle_seed`` randomises only the *order* in which branches are
    explored (and therefore which child is the in-line continuation); the
    set of enumerated behaviours — and hence the returned
    :class:`GroundTruth` — is identical for every seed, a property the
    test suite asserts.

    ``max_threads`` bounds the CT size this oracle accepts (exploration is
    exponential in it); exceeding it raises a structured
    :class:`OracleLimitError` with ``limit="threads"``. ``irq_handlers``
    and ``memory_model="tso"`` enable the IRQ and weak-memory scenario
    axes (see the module docstring).
    """

    def __init__(
        self,
        kernel: Kernel,
        programs: Sequence[Sequence[Tuple[str, Sequence[int]]]],
        pruning: str = "sleep",
        max_steps: int = DEFAULT_MAX_STEPS,
        max_schedules: int = DEFAULT_MAX_SCHEDULES,
        shuffle_seed: Optional[int] = None,
        max_threads: int = DEFAULT_MAX_THREADS,
        memory_model: str = "sc",
        irq_handlers: Sequence[str] = (),
        max_irqs: int = 1,
    ) -> None:
        if pruning not in PRUNING_MODES:
            raise OracleError(
                f"unknown pruning mode {pruning!r}; expected one of {PRUNING_MODES}"
            )
        if not programs:
            raise OracleError("exhaustive exploration needs at least one thread")
        if len(programs) > max_threads:
            raise OracleLimitError(
                f"exhaustive exploration is bounded to {max_threads} threads "
                f"but was given {len(programs)}; raise max_threads only for "
                f"very small programs",
                limit="threads",
                observed=len(programs),
            )
        if memory_model not in ("sc", "tso"):
            raise OracleError(f"unknown memory model {memory_model!r}")
        for handler in irq_handlers:
            if handler not in kernel.functions:
                raise OracleError(f"unknown IRQ handler {handler!r}")
        self.kernel = kernel
        self.programs = tuple(programs)
        self.pruning = pruning
        self.max_steps = max_steps
        self.max_schedules = max_schedules
        self.max_threads = max_threads
        self.memory_model = memory_model
        self.irq_handlers = tuple(irq_handlers)
        self.max_irqs = max_irqs
        # Deferred store visibility under TSO breaks the parked-operation
        # independence argument behind sleep sets, so "sleep" runs as
        # "por" there (strictly more exploration — still sound).
        self._sleep_injection = pruning == "sleep" and memory_model == "sc"
        self._rng = (
            rngmod.make_rng(shuffle_seed) if shuffle_seed is not None else None
        )

    # -- per-replay machinery ------------------------------------------------

    def _parked_visible(self, machine: Machine, thread: ThreadContext) -> bool:
        """Whether the thread's next step is a visible operation."""
        if thread.block_id is None:
            return False  # syscall dispatch (or completion) is thread-local
        instruction = machine.kernel.blocks[thread.block_id].instructions[thread.index]
        return instruction.opcode in _VISIBLE

    def _advance_invisible(self, machine: Machine, threads: List[ThreadContext]) -> None:
        """Run every thread's thread-local steps; park each at a visible op.

        Invisible operations commute with anything the other thread does,
        so executing them eagerly (glued to the preceding visible
        operation) picks one canonical representative per Mazurkiewicz
        trace without losing any behaviour.
        """
        for thread in threads:
            while machine.runnable(thread) and not self._parked_visible(machine, thread):
                machine.step(thread)

    def _enabled(self, machine: Machine, thread: ThreadContext) -> bool:
        """Runnable and able to make progress if scheduled now.

        A thread parked at a LOCK held by the other thread would only
        transition to BLOCKED; scheduling it is a no-op for every derived
        set, so it is not an enabled transition (standard model-checking
        semantics).
        """
        if not machine.runnable(thread):
            return False
        if thread.block_id is None:
            return True
        instruction = machine.kernel.blocks[thread.block_id].instructions[thread.index]
        if instruction.opcode is Opcode.LOCK:
            owner = machine.lock_owners.get(instruction.operands[0].name)
            return owner is None or owner == thread.tid
        return True

    def _ordered(self, candidates: List) -> List:
        if self._rng is not None and len(candidates) > 1:
            return rngmod.shuffled(self._rng, candidates)
        return candidates

    def _specials(
        self, machine: Machine, threads: List[ThreadContext], irqs_left: int
    ) -> List[Tuple]:
        """Special choices available *now*, from pre-advance thread state.

        Computed before :meth:`_advance_invisible` so a handler can fire on
        a thread whose remaining work is entirely invisible (the machine
        fires planned IRQs before any step, including invisible ones;
        invisible operations are register-local, so pre-tail firing covers
        every mid-tail placement).
        """
        tokens: List[Tuple] = []
        if irqs_left > 0:
            for thread in threads:
                if thread.status is not ThreadStatus.DONE:
                    for handler in self.irq_handlers:
                        tokens.append(("irq", thread.tid, handler))
        if self.memory_model == "tso":
            for thread in threads:
                if machine.store_buffers.get(thread.tid):
                    tokens.append(("drain", thread.tid))
        return tokens

    def _execute_special(
        self, machine: Machine, threads: List[ThreadContext], token: Tuple
    ) -> None:
        if token[0] == "irq":
            machine.fire_irq(threads[token[1]], token[2])
        else:
            machine.drain_oldest(threads[token[1]])

    def _replay(
        self, branch: _Branch
    ) -> Tuple[Optional[Tuple[ConcurrentSink, Machine, bool]], List[Tuple[_Choice, List, Dict[int, _OpSig], FrozenSet[int]]]]:
        """Execute one schedule, following the branch's forced choices.

        Returns ``(outcome, decisions)``. ``outcome`` is ``None`` when the
        run was sleep-blocked (every continuation is covered by a sibling
        branch); otherwise it is ``(sink, machine, deadlocked)``.
        ``decisions[i]`` records, for the i-th choice point:
        ``(chosen token, untried sibling tokens in exploration order,
        visible-op signatures per enabled tid, sleep set at the node)``.
        """
        prefix, injection_items = branch
        injections = dict(injection_items)
        chunked = self.pruning != "none"
        num_threads = len(self.programs)
        sink = ConcurrentSink(num_threads)
        machine = Machine(
            self.kernel, sink, max_steps=self.max_steps,
            memory_model=self.memory_model,
        )
        threads = [machine.create_thread(program) for program in self.programs]
        irqs_left = self.max_irqs if self.irq_handlers else 0
        decisions: List[Tuple[_Choice, List, Dict[int, _OpSig], FrozenSet[int]]] = []
        sleep: Set[int] = set()
        deadlocked = False
        while not machine.all_done():
            # Phase A: specials (IRQ firings, voluntary TSO drains) are a
            # decision of their own whenever any is available; choosing
            # one re-enters phase A (more specials may fire back-to-back,
            # as the machine's plan-driven loop does), choosing _PASS
            # falls through to the thread-step decision below.
            specials = self._specials(machine, threads, irqs_left)
            if specials:
                index = len(decisions)
                if index < len(prefix):
                    token = prefix[index]
                    if token != _PASS and token not in specials:
                        raise OracleError(
                            "exploration branch diverged from its prefix"
                        )
                    special_alternatives: List = []
                else:
                    order = self._ordered([_PASS] + specials)
                    token = order[0]
                    special_alternatives = order[1:]
                decisions.append(
                    (token, special_alternatives, {}, frozenset(sleep))
                )
                if index in injections:
                    sleep = set(injections[index])
                if token != _PASS:
                    self._execute_special(machine, threads, token)
                    if token[0] == "irq":
                        irqs_left -= 1
                    # A handler (or a newly visible store) may touch
                    # anything: conservatively wake every sleeper.
                    sleep = set()
                    continue
            if chunked:
                self._advance_invisible(machine, threads)
                if machine.all_done():
                    break
            enabled = [t.tid for t in threads if self._enabled(machine, t)]
            if not enabled:
                deadlocked = True
                break
            signatures: Dict[int, _OpSig] = {}
            if chunked:
                for tid in enabled:
                    signature = _op_signature(self.kernel, threads[tid])
                    assert signature is not None, "enabled thread not parked"
                    signatures[tid] = signature
            awake = [tid for tid in enabled if tid not in sleep]
            if not awake:
                # Sleep-blocked: every continuation from here is a
                # commuted duplicate of an already-explored branch.
                return None, decisions
            index = len(decisions)
            node_sleep = frozenset(sleep)
            if len(awake) == 1:
                chosen = awake[0]
                if len(enabled) > 1:
                    # A choice point collapsed by the sleep set still
                    # occupies a decision index so forced prefixes from
                    # sibling pushes keep their alignment.
                    decisions.append((chosen, [], signatures, node_sleep))
                    if index < len(prefix) and prefix[index] != chosen:
                        raise OracleError(
                            "exploration branch diverged from its prefix"
                        )
            else:
                if index < len(prefix):
                    chosen = prefix[index]
                    if chosen not in awake:
                        raise OracleError(
                            "exploration branch diverged from its prefix"
                        )
                    alternatives: List[int] = []
                else:
                    order = self._ordered(list(awake))
                    chosen = order[0]
                    alternatives = order[1:]
                decisions.append((chosen, alternatives, signatures, node_sleep))
                if index in injections:
                    sleep = set(injections[index])
            thread = threads[chosen]
            if chunked:
                # One visible step; its invisible continuation is glued on
                # by the next _advance_invisible call.
                executed = signatures[chosen]
                machine.step(thread)
                if self.pruning == "sleep" and sleep:
                    # Wake any sleeper whose parked operation is dependent
                    # with the one just executed (a sleeping thread never
                    # moves, so its parked signature is still current).
                    sleep = {
                        tid
                        for tid in sleep
                        if (parked := _op_signature(self.kernel, threads[tid]))
                        is not None
                        and _independent(parked, executed)
                    }
            else:
                machine.step(thread)
        return (sink, machine, deadlocked), decisions

    # -- enumeration ---------------------------------------------------------

    def explore(self) -> GroundTruth:
        """Enumerate all schedules; raises :class:`OracleLimitError` when
        the schedule budget would be exceeded (partial ground truth is
        never returned)."""
        accumulator = _Accumulator(len(self.programs))
        frontier: List[_Branch] = [((), ())]
        while frontier:
            prefix, injections = frontier.pop()
            try:
                outcome, decisions = self._replay((prefix, injections))
            except ExecutionLimitExceeded as error:
                raise OracleLimitError(
                    f"a schedule exceeded the {self.max_steps}-step replay "
                    f"budget; ground truth would be partial",
                    limit="steps",
                    observed=self.max_steps,
                ) from error
            if outcome is not None:
                if accumulator.num_schedules >= self.max_schedules:
                    raise OracleLimitError(
                        f"exhaustive exploration exceeded "
                        f"{self.max_schedules} schedules "
                        f"(pruning={self.pruning!r}); shrink the programs "
                        f"or raise max_schedules",
                        limit="schedules",
                        observed=self.max_schedules,
                    )
                sink, machine, deadlocked = outcome
                accumulator.fold(sink, machine, deadlocked)
            # Push untried siblings of every decision made beyond the
            # forced prefix, deepest-first so the DFS walks the choice
            # tree left to right.
            for index in range(len(decisions) - 1, -1, -1):
                chosen, alternatives, signatures, node_sleep = decisions[index]
                if not alternatives:
                    continue
                base = tuple(d[0] for d in decisions[:index])
                kept = tuple(
                    item for item in injections if item[0] < index
                )
                explored = [chosen]
                for alternative in alternatives:
                    branch_injections = kept
                    # Sleep sets apply only to thread-step siblings (a
                    # special commutes with nothing we can prove) and
                    # only under SC (see __init__).
                    if self._sleep_injection and isinstance(alternative, int):
                        asleep = frozenset(
                            tid
                            for tid in set(node_sleep) | set(explored)
                            if tid != alternative
                            and _independent(
                                signatures[tid], signatures[alternative]
                            )
                        )
                        branch_injections = kept + ((index, asleep),)
                    frontier.append((base + (alternative,), branch_injections))
                    explored.append(alternative)
        if accumulator.num_schedules == 0:
            raise OracleError("exploration produced no schedules")
        return accumulator.freeze(self.pruning)


def explore_interleavings(
    kernel: Kernel,
    programs: Sequence[Sequence[Tuple[str, Sequence[int]]]],
    pruning: str = "sleep",
    max_steps: int = DEFAULT_MAX_STEPS,
    max_schedules: int = DEFAULT_MAX_SCHEDULES,
    shuffle_seed: Optional[int] = None,
    max_threads: int = DEFAULT_MAX_THREADS,
    memory_model: str = "sc",
    irq_handlers: Sequence[str] = (),
    max_irqs: int = 1,
) -> GroundTruth:
    """One-shot API: enumerate all schedules of ``programs`` on ``kernel``."""
    return ExhaustiveExplorer(
        kernel,
        programs,
        pruning=pruning,
        max_steps=max_steps,
        max_schedules=max_schedules,
        shuffle_seed=shuffle_seed,
        max_threads=max_threads,
        memory_model=memory_model,
        irq_handlers=irq_handlers,
        max_irqs=max_irqs,
    ).explore()
