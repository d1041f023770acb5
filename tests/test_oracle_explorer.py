"""Property tests for the exhaustive interleaving explorer itself.

The explorer is the suite's ground-truth oracle, so it gets the
strongest checks we can state *without* trusting any other component:
closed-form schedule counts on straight-line shapes, pruning soundness
(every pruning mode derives the same ground truth), and determinism.
"""

from math import comb, factorial

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.errors import OracleError, OracleLimitError
from repro.oracle import (
    DEFAULT_MAX_THREADS,
    PRUNING_MODES,
    ExhaustiveExplorer,
    explore_interleavings,
)

from tests._oracle_kernels import (
    irq_kernel,
    random_tiny_kernel,
    store_buffering_kernel,
    straightline_nops,
    straightline_nops_n,
    three_thread_racy_kernel,
)


def _multinomial(steps):
    count = factorial(sum(steps))
    for part in steps:
        count //= factorial(part)
    return count

RELAXED = settings(deadline=None, max_examples=20)


class TestScheduleCounts:
    @settings(deadline=None, max_examples=15)
    @given(nops_a=st.integers(0, 3), nops_b=st.integers(0, 3))
    def test_unpruned_count_is_binomial(self, nops_a, nops_b):
        """Straight-line threads have a closed-form schedule count.

        A thread of ``n`` NOPs takes ``n + 2`` machine steps (syscall
        dispatch, the NOPs, RET), and interleavings of two independent
        straight-line step sequences of lengths ``x`` and ``y`` number
        exactly ``C(x + y, x)``.
        """
        kernel, programs = straightline_nops(nops_a, nops_b)
        truth = explore_interleavings(kernel, programs, pruning="none")
        steps_a, steps_b = nops_a + 2, nops_b + 2
        assert truth.num_schedules == comb(steps_a + steps_b, steps_a)

    @settings(deadline=None, max_examples=10)
    @given(nops=st.integers(0, 3))
    def test_nop_threads_fully_commute(self, nops):
        """NOP-only threads have exactly one behaviour, so pruning
        collapses the whole space to a single schedule."""
        kernel, programs = straightline_nops(nops, nops)
        truth = explore_interleavings(kernel, programs, pruning="sleep")
        assert truth.num_schedules == 1
        assert not truth.race_universe
        assert not truth.bug_iids


def _unpruned_or_reject(kernel, programs):
    """The unpruned ground truth; a kernel whose unpruned exploration
    exceeds the oracle's schedule limit is an invalid draw. A pruned
    mode that hits the limit still fails its test."""
    try:
        return explore_interleavings(kernel, programs, pruning="none")
    except OracleLimitError:
        reject()


class TestPruningSoundness:
    @RELAXED
    @given(seed=st.integers(0, 10_000))
    def test_all_modes_agree_on_ground_truth(self, seed):
        """Sleep sets and POR prune *schedules*, never *behaviours*."""
        kernel, programs = random_tiny_kernel(seed)
        unpruned = _unpruned_or_reject(kernel, programs)
        truths = {
            mode: explore_interleavings(kernel, programs, pruning=mode)
            for mode in ("por", "sleep")
        }
        for mode in ("por", "sleep"):
            assert truths[mode].behavior_key() == unpruned.behavior_key(), mode
        assert (
            truths["sleep"].num_schedules
            <= truths["por"].num_schedules
            <= unpruned.num_schedules
        )

    @RELAXED
    @given(seed=st.integers(0, 10_000))
    def test_pruned_truth_subsumes_executions(self, seed):
        """A pruned ground truth must subsume the same executions the
        unpruned one does — here, a handful of hint-driven runs."""
        from repro.execution.concurrent import ScheduleHint, run_concurrent

        kernel, programs = random_tiny_kernel(seed)
        none = _unpruned_or_reject(kernel, programs)
        sleep = explore_interleavings(kernel, programs, pruning="sleep")
        for priority_a, priority_b in ((0, 4), (4, 0), (2, 2)):
            result = run_concurrent(
                kernel,
                programs,
                hints=[ScheduleHint(0, priority_a), ScheduleHint(1, priority_b)],
            )
            assert sleep.check_result(result) == none.check_result(result) == []

    def test_the_limit_rejection_is_real(self):
        """Seed 7321 is a draw the properties above reject: unpruned, its
        tiny kernel exceeds the 20,000-schedule limit, while sleep sets
        (10 schedules) and POR (20) complete."""
        kernel, programs = random_tiny_kernel(7321)
        with pytest.raises(OracleLimitError):
            explore_interleavings(kernel, programs, pruning="none")
        sleep = explore_interleavings(kernel, programs, pruning="sleep")
        por = explore_interleavings(kernel, programs, pruning="por")
        assert (sleep.num_schedules, por.num_schedules) == (10, 20)


class TestDeterminism:
    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 10_000), shuffle=st.integers(0, 5))
    def test_exploration_order_is_irrelevant(self, seed, shuffle):
        """Shuffling the DFS branch order must not change anything
        observable: same schedule count, same ground truth."""
        kernel, programs = random_tiny_kernel(seed)
        default = explore_interleavings(kernel, programs, pruning="sleep")
        shuffled = explore_interleavings(
            kernel, programs, pruning="sleep", shuffle_seed=shuffle
        )
        assert shuffled.num_schedules == default.num_schedules
        assert shuffled.behavior_key() == default.behavior_key()

    def test_repeated_runs_identical(self):
        kernel, programs = random_tiny_kernel(1234)
        first = explore_interleavings(kernel, programs)
        second = explore_interleavings(kernel, programs)
        assert first == second


class TestNThreadScheduleCounts:
    @settings(deadline=None, max_examples=12)
    @given(nop_counts=st.lists(st.integers(0, 1), min_size=3, max_size=3))
    def test_unpruned_count_is_multinomial(self, nop_counts):
        """N straight-line threads generalise the binomial count to the
        multinomial ``(sum steps)! / prod(steps_i!)``."""
        kernel, programs = straightline_nops_n(nop_counts)
        truth = explore_interleavings(kernel, programs, pruning="none")
        steps = [count + 2 for count in nop_counts]
        assert truth.num_schedules == _multinomial(steps)

    @pytest.mark.parametrize("nop_counts", [(1, 1, 1), (2, 1, 0)])
    def test_known_multinomial_counts(self, nop_counts):
        kernel, programs = straightline_nops_n(nop_counts)
        truth = explore_interleavings(kernel, programs, pruning="none")
        assert truth.num_schedules == _multinomial(
            [count + 2 for count in nop_counts]
        )

    def test_three_nop_threads_fully_commute(self):
        kernel, programs = straightline_nops_n([1, 1, 1])
        truth = explore_interleavings(kernel, programs, pruning="sleep")
        assert truth.num_schedules == 1


class TestScenarioAxes:
    """Pruning soundness and determinism on the new exploration axes."""

    def test_three_thread_pruning_modes_agree(self):
        kernel, programs, _ = three_thread_racy_kernel()
        truths = {
            mode: explore_interleavings(kernel, programs, pruning=mode)
            for mode in PRUNING_MODES
        }
        for mode in ("por", "sleep"):
            assert truths[mode].behavior_key() == truths["none"].behavior_key()
        assert (
            truths["sleep"].num_schedules
            <= truths["por"].num_schedules
            <= truths["none"].num_schedules
        )

    def test_irq_pruning_modes_agree(self):
        kernel, programs, handler = irq_kernel()
        truths = {
            mode: explore_interleavings(
                kernel, programs, pruning=mode, irq_handlers=[handler]
            )
            for mode in PRUNING_MODES
        }
        for mode in ("por", "sleep"):
            assert truths[mode].behavior_key() == truths["none"].behavior_key()

    def test_irq_axis_grows_ground_truth(self):
        """The IRQ kernel's CHECK bug fires only via an interrupt."""
        kernel, programs, handler = irq_kernel()
        without = explore_interleavings(kernel, programs)
        with_irq = explore_interleavings(
            kernel, programs, irq_handlers=[handler]
        )
        assert not without.bug_iids
        assert with_irq.bug_iids

    def test_tso_pruning_modes_agree(self):
        """A minimal store-buffering shape (no write-back, so the
        unpruned space stays enumerable) yields the same ground truth
        in every mode — sleep degenerates to por under TSO but must
        stay sound."""
        from repro.kernel.isa import Opcode, Operand
        from repro.kernel.memory import MemoryImage

        from tests._oracle_kernels import instr, n_thread_kernel

        image = MemoryImage()
        x = image.allocate("x", 0)
        y = image.allocate("y", 0)
        bodies = [
            [instr(Opcode.STOREI, Operand.make_addr(x), Operand.make_imm(1)),
             instr(Opcode.LOAD, Operand.make_reg(2), Operand.make_addr(y)),
             instr(Opcode.RET)],
            [instr(Opcode.STOREI, Operand.make_addr(y), Operand.make_imm(1)),
             instr(Opcode.LOAD, Operand.make_reg(2), Operand.make_addr(x)),
             instr(Opcode.RET)],
        ]
        kernel, programs = n_thread_kernel(bodies, memory=image)
        truths = {
            mode: explore_interleavings(
                kernel,
                programs,
                pruning=mode,
                memory_model="tso",
                max_schedules=100_000,
            )
            for mode in PRUNING_MODES
        }
        for mode in ("por", "sleep"):
            assert truths[mode].behavior_key() == truths["none"].behavior_key()

    def test_tso_strictly_grows_final_states(self):
        """The SB litmus's relaxed outcome exists under TSO only."""
        kernel, programs = store_buffering_kernel()
        sc = explore_interleavings(kernel, programs, pruning="sleep")
        tso = explore_interleavings(
            kernel, programs, pruning="sleep", memory_model="tso"
        )
        assert set(sc.final_memory_states) < set(tso.final_memory_states)

    @pytest.mark.parametrize("shuffle", [0, 1, 5])
    def test_three_thread_shuffle_determinism(self, shuffle):
        kernel, programs, _ = three_thread_racy_kernel()
        default = explore_interleavings(kernel, programs, pruning="sleep")
        shuffled = explore_interleavings(
            kernel, programs, pruning="sleep", shuffle_seed=shuffle
        )
        assert shuffled.num_schedules == default.num_schedules
        assert shuffled.behavior_key() == default.behavior_key()

    def test_unknown_memory_model_rejected(self):
        kernel, programs = straightline_nops(1, 1)
        with pytest.raises(OracleError):
            ExhaustiveExplorer(kernel, programs, memory_model="ps5")

    def test_unknown_irq_handler_rejected(self):
        kernel, programs = straightline_nops(1, 1)
        with pytest.raises(OracleError):
            ExhaustiveExplorer(kernel, programs, irq_handlers=["nope"])


class TestBudgets:
    def test_schedule_budget_refuses_partial_truth(self):
        kernel, programs = straightline_nops(3, 3)
        with pytest.raises(OracleLimitError) as excinfo:
            explore_interleavings(
                kernel, programs, pruning="none", max_schedules=10
            )
        assert excinfo.value.limit == "schedules"
        assert excinfo.value.observed == 10

    def test_thread_bound_is_configurable_and_structured(self):
        """Over-wide CTs fail with a structured error naming the limit
        kind and the observed thread count (explorer.py's old hard-coded
        two-thread assertion)."""
        too_many = DEFAULT_MAX_THREADS + 1
        kernel, programs = straightline_nops_n([0] * too_many)
        with pytest.raises(OracleLimitError) as excinfo:
            explore_interleavings(kernel, programs)
        assert excinfo.value.limit == "threads"
        assert excinfo.value.observed == too_many
        # Raising the bound makes the same CT explorable.
        truth = explore_interleavings(
            kernel, programs, max_threads=too_many, pruning="sleep"
        )
        assert truth.num_schedules >= 1

    def test_unknown_pruning_mode_rejected(self):
        kernel, programs = straightline_nops(1, 1)
        with pytest.raises(OracleError):
            ExhaustiveExplorer(kernel, programs, pruning="bogus")
