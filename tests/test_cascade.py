"""Equivalence tests for the vectorised rejection-filter simulator.

``simulate_filter`` replays the filter cascade of §2 (candidate ->
filter -> execution) with whole-array draws; every case here pins it to
the scalar ``_simulate_filter_reference`` loop, byte for byte.
"""

import pytest

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

    def test_unreachable_target_guard(self):
        model = FilterModel(
            fruitful_probability=0.0, true_positive_rate=0.5, false_positive_rate=0.5
        )
        fast = simulate_filter(model, target_fruitful=1, trials=2, seed=1)
        slow = _simulate_filter_reference(model, target_fruitful=1, trials=2, seed=1)
        assert fast == slow
