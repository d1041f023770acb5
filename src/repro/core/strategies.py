"""CT-candidate selection strategies over predicted coverage (§3.3).

A strategy decides whether a candidate CT is worth a dynamic execution
given the model's predicted-positive blocks, and remembers what it has
already selected so future candidates are judged against it:

- **S1 (new set of positive blocks)**: interesting when the predicted
  coverage *bitmap* (the set of predicted-covered blocks) is one we have
  not selected before — a control-flow change even without new blocks.
- **S2 (new positive blocks)**: interesting when at least one predicted-
  covered block has never been predicted-covered by a selected CT.
- **S3 (positive blocks with limited trials)**: each block may be
  "attempted" at most ``limit`` times; interesting while any predicted-
  covered block still has trials left — retries blocks (e.g. different
  calling stacks) but bounds wasted effort on model false positives.

Razzer-PIC's probe test (§5.6.1) is the stateless :class:`TargetBlocks`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, Iterable, Set

import numpy as np

from repro.graphs.ctgraph import CTGraph

__all__ = [
    "SelectionStrategy",
    "NewCoverageSet",
    "NewPositiveBlocks",
    "PositiveBlocksLimitedTrials",
    "TargetBlocks",
    "make_strategy",
]


def predicted_block_set(graph: CTGraph, predicted: np.ndarray) -> FrozenSet[int]:
    """Kernel block ids predicted covered (collapsed across threads)."""
    return frozenset(graph.node_blocks[np.asarray(predicted, bool)].tolist())


class SelectionStrategy(ABC):
    """Stateful candidate filter."""

    name: str = "base"

    @abstractmethod
    def is_interesting(self, graph: CTGraph, predicted: np.ndarray) -> bool:
        """Would executing this CT be fruitful, per this strategy?"""

    @abstractmethod
    def commit(self, graph: CTGraph, predicted: np.ndarray) -> None:
        """Record that the CT was selected for execution."""

    def reset(self) -> None:
        """Forget all recorded history (new campaign)."""

    # Strategies are part of a campaign's resumable state (the journal
    # checkpoints them after every CTI): state must round-trip through
    # JSON exactly, so collections are stored sorted.

    def state_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot of the selection history."""
        return {}

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        self.reset()


class NewCoverageSet(SelectionStrategy):
    """S1: select CTs whose predicted coverage bitmap is novel."""

    name = "S1"

    def __init__(self) -> None:
        self._seen: Set[FrozenSet[int]] = set()

    def is_interesting(self, graph: CTGraph, predicted: np.ndarray) -> bool:
        return predicted_block_set(graph, predicted) not in self._seen

    def commit(self, graph: CTGraph, predicted: np.ndarray) -> None:
        self._seen.add(predicted_block_set(graph, predicted))

    def reset(self) -> None:
        self._seen.clear()

    def state_dict(self) -> Dict[str, object]:
        return {"seen": sorted(sorted(bitmap) for bitmap in self._seen)}

    def load_state(self, state: Dict[str, object]) -> None:
        self._seen = {frozenset(bitmap) for bitmap in state["seen"]}


class NewPositiveBlocks(SelectionStrategy):
    """S2: select CTs predicted to cover at least one never-seen block."""

    name = "S2"

    def __init__(self) -> None:
        self._seen_blocks: Set[int] = set()

    def is_interesting(self, graph: CTGraph, predicted: np.ndarray) -> bool:
        return bool(predicted_block_set(graph, predicted) - self._seen_blocks)

    def commit(self, graph: CTGraph, predicted: np.ndarray) -> None:
        self._seen_blocks |= predicted_block_set(graph, predicted)

    def reset(self) -> None:
        self._seen_blocks.clear()

    def state_dict(self) -> Dict[str, object]:
        return {"seen_blocks": sorted(self._seen_blocks)}

    def load_state(self, state: Dict[str, object]) -> None:
        self._seen_blocks = set(state["seen_blocks"])


class PositiveBlocksLimitedTrials(SelectionStrategy):
    """S3: every block gets at most ``limit`` execution attempts."""

    name = "S3"

    def __init__(self, limit: int = 3) -> None:
        if limit < 1:
            raise ValueError("trial limit must be >= 1")
        self.limit = limit
        self._trials: Dict[int, int] = {}

    def is_interesting(self, graph: CTGraph, predicted: np.ndarray) -> bool:
        return any(
            self._trials.get(block, 0) < self.limit
            for block in predicted_block_set(graph, predicted)
        )

    def commit(self, graph: CTGraph, predicted: np.ndarray) -> None:
        for block in predicted_block_set(graph, predicted):
            self._trials[block] = self._trials.get(block, 0) + 1

    def reset(self) -> None:
        self._trials.clear()

    def state_dict(self) -> Dict[str, object]:
        return {"trials": sorted(self._trials.items())}

    def load_state(self, state: Dict[str, object]) -> None:
        self._trials = {int(block): int(count) for block, count in state["trials"]}


class TargetBlocks(SelectionStrategy):
    """Accept a candidate predicted to cover every block in ``blocks``;
    remembers nothing, so it never needs a reset."""

    def __init__(self, blocks: Iterable[int]) -> None:
        self.blocks = frozenset(int(block) for block in blocks)

    def is_interesting(self, graph: CTGraph, predicted: np.ndarray) -> bool:
        return self.blocks <= predicted_block_set(graph, predicted)

    def commit(self, graph: CTGraph, predicted: np.ndarray) -> None:
        pass


def make_strategy(name: str, s3_limit: int = 3) -> SelectionStrategy:
    """Factory by paper name: 'S1', 'S2', or 'S3'."""
    table = {
        "S1": NewCoverageSet,
        "S2": NewPositiveBlocks,
    }
    if name in table:
        return table[name]()
    if name == "S3":
        return PositiveBlocksLimitedTrials(limit=s3_limit)
    raise ValueError(f"unknown strategy {name!r}; expected S1, S2 or S3")
