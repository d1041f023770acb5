"""Equivalence tests for the vectorised rejection-filter simulator.

``simulate_filter`` replays the filter cascade of §2 (candidate ->
filter -> execution) with whole-array draws; every case here pins it to
the scalar ``_simulate_filter_reference`` loop, byte for byte.
"""

import pytest

from repro.core import filtermodel
from repro.core.filtermodel import (
    FilterModel,
    _simulate_filter_reference,
    simulate_filter,
)


class TestSimulateFilterVectorised:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize(
        "p,tpr,fpr", [(0.011, 0.69, 0.008), (0.5, 0.9, 0.3), (0.05, 0.8, 0.05)]
    )
    def test_matches_scalar_reference_exactly(self, seed, p, tpr, fpr):
        model = FilterModel(
            fruitful_probability=p, true_positive_rate=tpr, false_positive_rate=fpr
        )
        fast = simulate_filter(model, target_fruitful=5, trials=20, seed=seed)
        slow = _simulate_filter_reference(
            model, target_fruitful=5, trials=20, seed=seed
        )
        assert fast == slow

    def test_unreachable_target_guard(self, monkeypatch):
        """A target that can never be reached stops both simulators at
        the guard. Both read ``_SIM_GUARD`` at call time, so a small
        guard keeps the equality cheap; 10,001 is not a multiple of
        ``_SIM_BLOCK``, so the last block is a partial one."""
        monkeypatch.setattr(filtermodel, "_SIM_GUARD", 10_001)
        assert filtermodel._SIM_GUARD % filtermodel._SIM_BLOCK
        _assert_guard_stops_both(trials=2)

    @pytest.mark.slow
    def test_unreachable_target_guard_at_the_real_guard(self):
        """The shipped 10⁷ guard, one trial (~22 s): the second trial's
        start after a guard stop is the small-guard case's job."""
        _assert_guard_stops_both(trials=1)


def _assert_guard_stops_both(trials):
    model = FilterModel(
        fruitful_probability=0.0, true_positive_rate=0.5, false_positive_rate=0.5
    )
    fast = simulate_filter(model, target_fruitful=1, trials=trials, seed=1)
    slow = _simulate_filter_reference(
        model, target_fruitful=1, trials=trials, seed=1
    )
    assert fast == slow
    # Every candidate up to the guard was charged as an execution.
    assert fast["no_filter"] == pytest.approx(
        filtermodel._SIM_GUARD * model.costs.execution_seconds
    )
