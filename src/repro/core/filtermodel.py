"""Rejection filtering: the analytic cost model of §2 and §A.6.

Analytic model (§2, Figure 3; §A.6): models a testing loop where a
fraction ``p`` of candidate tests is fruitful, dynamic execution costs
``c_exec`` and a prediction costs ``c_inf``. A filter with true-positive
rate TPR and false-positive rate FPR executes only predicted-positive
candidates.

Closed forms (per fruitful test found):

- no filter: candidates needed ``1/p``, cost ``c_exec / p``;
- with filter: fruitful-execution yield per candidate is ``p·TPR``, so
  ``1/(p·TPR)`` candidates are inspected, each paying ``c_inf``, of which
  fraction ``p·TPR + (1-p)·FPR`` is executed.

The Monte-Carlo simulator cross-checks the closed forms and also yields
the omniscient/realistic/no-filter scenario of the paper's Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro import rng as rngmod
from repro.core.costs import CostModel

__all__ = ["FilterModel", "simulate_filter"]


@dataclass(frozen=True)
class FilterModel:
    """Closed-form expected costs of filtered vs unfiltered testing."""

    fruitful_probability: float
    true_positive_rate: float
    false_positive_rate: float
    costs: CostModel = CostModel()

    def __post_init__(self) -> None:
        for name in ("fruitful_probability", "true_positive_rate", "false_positive_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    # -- per-fruitful-test expectations --------------------------------------

    @property
    def unfiltered_cost_per_fruitful(self) -> float:
        """Expected seconds per fruitful test without any filter."""
        if self.fruitful_probability == 0.0:
            return float("inf")
        return self.costs.execution_seconds / self.fruitful_probability

    @property
    def execution_rate(self) -> float:
        """Fraction of candidates the filter sends to dynamic execution."""
        p = self.fruitful_probability
        return p * self.true_positive_rate + (1.0 - p) * self.false_positive_rate

    @property
    def filtered_cost_per_fruitful(self) -> float:
        """Expected seconds per fruitful test with the filter."""
        fruitful_yield = self.fruitful_probability * self.true_positive_rate
        if fruitful_yield == 0.0:
            return float("inf")
        per_candidate = (
            self.costs.inference_seconds
            + self.execution_rate * self.costs.execution_seconds
        )
        return per_candidate / fruitful_yield

    @property
    def speedup(self) -> float:
        """Unfiltered / filtered cost ratio (>1 means the filter pays)."""
        filtered = self.filtered_cost_per_fruitful
        if filtered == float("inf"):
            return 0.0
        return self.unfiltered_cost_per_fruitful / filtered

    def breakeven_false_positive_rate(self) -> float:
        """FPR at which the filter stops paying off (speedup == 1).

        Solves ``speedup(fpr) = 1`` for fixed p, TPR and costs; values
        above 1 mean the filter pays at any FPR.
        """
        p = self.fruitful_probability
        tpr = self.true_positive_rate
        r = self.costs.inference_seconds / self.costs.execution_seconds
        if p in (0.0, 1.0):
            return 1.0
        # tpr/p·c_exec·... algebra: cost parity when
        #   (r + p·tpr + (1-p)·fpr) / (p·tpr) = 1 / p
        numerator = tpr - r - p * tpr
        return max(0.0, min(1.0, numerator / (1.0 - p)))


# -- Monte-Carlo simulator -----------------------------------------------------

#: Per-trial candidate cap: a tester that cannot reach its target (e.g.
#: ``p == 0``) stops consuming simulated time here.
_SIM_GUARD = 10_000_000

#: Candidates drawn per RNG block in the vectorised simulator.
_SIM_BLOCK = 4096


def _simulate_filter_reference(
    model: FilterModel,
    target_fruitful: int = 10,
    trials: int = 200,
    seed: int = 0,
) -> Dict[str, float]:
    """Scalar per-candidate reference implementation (the executable
    spec); :func:`simulate_filter` must match it exactly at any seed."""
    rng = rngmod.split(seed, "filter-sim")
    p = model.fruitful_probability
    tpr = model.true_positive_rate
    fpr = model.false_positive_rate
    c_exec = model.costs.execution_seconds
    c_inf = model.costs.inference_seconds

    def run_once() -> Dict[str, float]:
        times = {"no_filter": 0.0, "filter": 0.0, "omniscient": 0.0}
        found = {"no_filter": 0, "filter": 0, "omniscient": 0}
        guard = 0
        while min(found.values()) < target_fruitful and guard < _SIM_GUARD:
            guard += 1
            fruitful = rng.random() < p
            predicted = rng.random() < (tpr if fruitful else fpr)
            if found["no_filter"] < target_fruitful:
                times["no_filter"] += c_exec
                if fruitful:
                    found["no_filter"] += 1
            if found["filter"] < target_fruitful:
                times["filter"] += c_inf
                if predicted:
                    times["filter"] += c_exec
                    if fruitful:
                        found["filter"] += 1
            if found["omniscient"] < target_fruitful:
                if fruitful:
                    times["omniscient"] += c_exec
                    found["omniscient"] += 1
        return times

    totals = {"no_filter": 0.0, "filter": 0.0, "omniscient": 0.0}
    for _ in range(trials):
        result = run_once()
        for key in totals:
            totals[key] += result[key]
    return {key: value / trials for key, value in totals.items()}


def simulate_filter(
    model: FilterModel,
    target_fruitful: int = 10,
    trials: int = 200,
    seed: int = 0,
) -> Dict[str, float]:
    """Monte-Carlo of the Figure 3 scenarios.

    Simulates candidate streams until ``target_fruitful`` fruitful tests
    are *executed*, for three testers: no filter, the modelled (realistic)
    filter, and an omniscient filter; returns mean simulated seconds each.

    Vectorised: candidates are drawn in blocks of ``2 × _SIM_BLOCK``
    uniforms (NumPy generators produce the identical double stream for
    block and scalar draws) and each tester's stop point is found with a
    cumulative-sum search instead of a per-candidate Python loop. When a
    trial ends mid-block the generator state is rewound to the block
    start and exactly the consumed draws are replayed, and each tester's
    time is folded with ``np.add.accumulate`` (a strict sequential
    left-fold) in the reference's per-candidate addition order — so both
    the RNG stream position and every returned mean are bit-identical to
    :func:`_simulate_filter_reference`.
    """
    rng = rngmod.split(seed, "filter-sim")
    p = model.fruitful_probability
    tpr = model.true_positive_rate
    fpr = model.false_positive_rate
    c_exec = model.costs.execution_seconds
    c_inf = model.costs.inference_seconds

    def fold(total: float, terms: np.ndarray) -> float:
        """Sequential ``total += term`` chain, bit-exact vs a Python loop."""
        if terms.size == 0:
            return total
        return float(np.add.accumulate(np.concatenate(([total], terms)))[-1])

    totals = {"no_filter": 0.0, "filter": 0.0, "omniscient": 0.0}
    if target_fruitful <= 0:
        return totals
    for _ in range(trials):
        # Remaining fruitful finds per tester. The filter's finds are a
        # subset of the others' (fruitful AND predicted), so the trial —
        # which runs until *every* tester is done — always stops at the
        # filter's stop point (or the guard).
        need_nf = target_fruitful  # no_filter and omniscient stop together
        need_f = target_fruitful
        t_nf = t_om = t_f = 0.0
        consumed = 0
        while need_f > 0 and consumed < _SIM_GUARD:
            block = min(_SIM_BLOCK, _SIM_GUARD - consumed)
            state = rng.bit_generator.state
            draws = rng.random(2 * block)
            fruitful = draws[0::2] < p
            predicted = draws[1::2] < np.where(fruitful, tpr, fpr)
            hits = fruitful & predicted
            cum_fruitful = np.cumsum(fruitful)
            cum_hits = np.cumsum(hits)
            if need_nf > 0:
                # First index where the cumulative fruitful count reaches
                # the remaining target (counts step by 1, so searchsorted
                # finds the exact candidate).
                stop_nf = int(np.searchsorted(cum_fruitful, need_nf))
                active = min(stop_nf + 1, block)
                t_nf = fold(t_nf, np.full(active, c_exec))
                t_om = fold(
                    t_om,
                    np.full(int(np.count_nonzero(fruitful[:active])), c_exec),
                )
                if stop_nf < block:
                    need_nf = 0
                else:
                    need_nf -= int(cum_fruitful[-1])
            stop_f = int(np.searchsorted(cum_hits, need_f))
            active_f = min(stop_f + 1, block)
            # Per candidate the filter pays c_inf then, if predicted,
            # c_exec; flattening [c_inf, c_exec-or-0] row-major preserves
            # that interleaved addition order (adding 0.0 to a finite
            # non-negative accumulator is bit-exact a no-op).
            terms = np.empty((active_f, 2))
            terms[:, 0] = c_inf
            terms[:, 1] = np.where(predicted[:active_f], c_exec, 0.0)
            t_f = fold(t_f, terms.ravel())
            if stop_f < block:
                need_f = 0
                consumed += active_f
                # Rewind and replay only the consumed draws so the next
                # trial sees the exact stream the scalar loop would.
                rng.bit_generator.state = state
                rng.random(2 * active_f)
            else:
                need_f -= int(cum_hits[-1])
                consumed += block
        totals["no_filter"] += t_nf
        totals["omniscient"] += t_om
        totals["filter"] += t_f
    return {key: value / trials for key, value in totals.items()}
