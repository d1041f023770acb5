"""Cross-checks against naive reference implementations.

Each optimized algorithm in the library (windowed race scan, alias
pairing, average precision) is re-implemented here in its most obvious
O(n²)/textbook form and compared on randomized inputs — the classic
oracle pattern for catching clever-code bugs.
"""

import itertools
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.execution.alias import AliasPair, alias_coverage
from repro.execution.races import PotentialRace, find_potential_races
from repro.execution.trace import MemoryAccess
from repro.ml.metrics import average_precision


def _random_stream(rng, length, addresses=6, iids=40, switch_prob=0.15):
    accesses = []
    epoch = 0
    thread = 0
    for step in range(length):
        if rng.random() < switch_prob:
            thread = 1 - thread
            epoch += 1
        locks = frozenset(["L"]) if rng.random() < 0.2 else frozenset()
        accesses.append(
            MemoryAccess(
                step=step,
                thread=thread,
                iid=int(rng.integers(0, iids)),
                block_id=0,
                address=int(rng.integers(0, addresses)),
                is_write=bool(rng.random() < 0.5),
                locks_held=locks,
                epoch=epoch,
            )
        )
    return accesses


def _reference_races(accesses, window, adjacent_epochs=True):
    races = set()
    for first, second in itertools.combinations(accesses, 2):
        a, b = (first, second) if first.step <= second.step else (second, first)
        if a.thread == b.thread:
            continue
        if a.address != b.address:
            continue
        if not (a.is_write or b.is_write):
            continue
        if a.locks_held & b.locks_held:
            continue
        near = b.step - a.step <= window
        adjacent = adjacent_epochs and b.epoch - a.epoch == 1
        if near or adjacent:
            races.add(PotentialRace.of(a.iid, b.iid, a.address))
    return races


def _reference_alias(accesses):
    pairs = set()
    for first, second in itertools.combinations(accesses, 2):
        if first.thread == second.thread:
            continue
        if first.address != second.address:
            continue
        pairs.add(AliasPair.of(first.iid, second.iid, first.address))
    return pairs


class TestRaceScanOracle:
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        window=st.integers(min_value=0, max_value=40),
        adjacent_epochs=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce(self, seed, window, adjacent_epochs):
        rng = np.random.default_rng(seed)
        stream = _random_stream(rng, 40)
        fast = find_potential_races(
            stream, proximity_window=window, adjacent_epochs=adjacent_epochs
        )
        slow = _reference_races(stream, window, adjacent_epochs)
        assert fast == slow

    @pytest.mark.parametrize(
        "addresses, window, adjacent_epochs",
        [(5, 120, True), (5, 0, True), (5, 120, False), (700, 120, True)],
        ids=["few", "few-window0", "few-no-epochs", "many"],
    )
    def test_long_streams(self, addresses, window, adjacent_epochs):
        """Loop-heavy executions give streams of thousands of accesses,
        on a handful of hot variables or spread over many. Same answer as
        the reference, and never an all-pairs array over the stream."""
        size = 5_000
        stream = _random_stream(
            np.random.default_rng(addresses),
            size,
            addresses=addresses,
            iids=60,
            switch_prob=0.01,
        )
        tracemalloc.start()
        fast = find_potential_races(
            stream, proximity_window=window, adjacent_epochs=adjacent_epochs
        )
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # The reference is quadratic: run it per address (a pair on two
        # addresses is never a race).
        by_address = defaultdict(list)
        for access in stream:
            by_address[access.address].append(access)
        slow = set().union(
            *(
                _reference_races(group, window, adjacent_epochs)
                for group in by_address.values()
            )
        )
        assert fast == slow and len(fast) > 100
        # One byte per pair of the whole stream would be size**2 = 25 MB.
        assert peak < size * size // 4

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_alias_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        stream = _random_stream(rng, 30)
        assert alias_coverage(stream) == _reference_alias(stream)


def _reference_average_precision(labels, scores):
    """Textbook AP: mean of precision@k over the positive ranks."""
    order = np.argsort(-np.asarray(scores), kind="stable")
    labels = np.asarray(labels, dtype=bool)[order]
    if labels.sum() == 0:
        return 0.0
    precisions = []
    hits = 0
    for rank, is_positive in enumerate(labels, start=1):
        if is_positive:
            hits += 1
            precisions.append(hits / rank)
    return float(np.mean(precisions))


class TestAveragePrecisionOracle:
    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_matches_textbook_definition(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        labels = rng.random(n) < 0.3
        scores = rng.random(n)
        assert average_precision(labels, scores) == pytest.approx(
            _reference_average_precision(labels, scores)
        )
