"""Potential data-race detection (the DataCollider stand-in).

The paper's Data-race-coverage metric counts "unique possible data races
found by a data race detector (an implementation of DataCollider) in
explored interleavings" (§5.3). On a serialized trace, the equivalent
notion is a *conflicting access pair*:

- two accesses from different threads to the same address,
- at least one of them a write,
- no lock held in common (lockset condition), and
- close enough that the accesses could genuinely overlap on real
  hardware: either within ``proximity_window`` serialized steps (standing
  in for DataCollider's delay window), or in *adjacent scheduling epochs*
  — a context switch fell between them, so a slightly different pause
  placement would have made them overlap (the standard notion of a
  racing pair in serialized interleaving exploration).

A race's identity is the unordered pair of static instruction ids, so the
count across a campaign is a coverage-style set size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Sequence, Set, Tuple

import numpy as np

from repro.execution.trace import ConcurrentResult, MemoryAccess

__all__ = ["PotentialRace", "RaceDetector", "find_potential_races"]

DEFAULT_PROXIMITY_WINDOW = 120


@dataclass(frozen=True)
class PotentialRace:
    """One unique potential data race (a conflicting instruction pair)."""

    iid_pair: Tuple[int, int]  # sorted
    address: int

    @staticmethod
    def of(first_iid: int, second_iid: int, address: int) -> "PotentialRace":
        lo, hi = sorted((first_iid, second_iid))
        return PotentialRace(iid_pair=(lo, hi), address=address)


#: Candidate pairs materialised at once: what bounds the scan's memory,
#: whatever the stream's length or its spread over addresses.
_PAIR_CHUNK = 1 << 16

RaceKey = Tuple[int, int, int]  # (lower iid, higher iid, address)


def _race_keys(
    accesses: Sequence[MemoryAccess], proximity_window: int, adjacent_epochs: bool
) -> Set[RaceKey]:
    """One pass over the whole stream; see :func:`find_potential_races`.

    The records are transposed into columns once (``zip(*accesses)``, one
    NumPy array per column). The stream is sorted by address once
    (stably, so stream order survives inside each address group), every
    earlier/later pair *within a group* is enumerated with flat index
    arithmetic, and the conditions are NumPy masks over those pairs.
    Surviving pairs are reduced to one integer each and deduplicated as
    scalars.
    """
    size = len(accesses)
    if size < 2:
        return set()

    step, thread, iid, _, address, is_write, locks, epoch = zip(*accesses)
    address = np.array(address, np.int64)
    order = np.argsort(address, kind="stable")
    address = address[order]
    step, epoch, thread, write, iid = (
        np.array(column, np.int64)[order]
        for column in (step, epoch, thread, is_write, iid)
    )
    # Ranks stand in for iids and group starts for addresses, so the scalar
    # a pair is reduced to below stays under size**3 whatever their values.
    iids, iid = np.unique(iid, return_inverse=True)
    group = np.searchsorted(address, address, side="left")
    # Locksets are interned by equality (a dict does it in C), so
    # intersections are taken once per distinct pair of locksets.
    ids = {held: i for i, held in enumerate(dict.fromkeys(locks))}
    lockset = np.fromiter(map(ids.__getitem__, locks), np.int64, size)[order]
    disjoint = np.array([[a.isdisjoint(b) for b in ids] for a in ids], np.bool_)

    # later[i]: how many accesses follow sorted position i in its group;
    # before[i]: how many pairs positions 0..i-1 start.
    later = np.searchsorted(address, address, side="right") - np.arange(1, size + 1)
    before = np.concatenate(([0], np.cumsum(later)))
    if not before[size]:
        return set()
    span = len(iids)
    keys = np.empty(0, np.int64)
    lo = 0
    while before[lo] < before[size]:
        # Positions lo..hi-1 start at most _PAIR_CHUNK pairs (one position
        # alone may start more); pair k of position i is (i, i + 1 + k).
        hi = int(np.searchsorted(before, before[lo] + _PAIR_CHUNK, side="right"))
        hi = max(hi - 1, lo + 1)
        count = later[lo:hi]
        first = np.repeat(np.arange(lo, hi), count)
        nth = np.arange(len(first)) - np.repeat(before[lo:hi] - before[lo], count)
        second = first + 1 + nth
        lo = hi
        close = step[second] - step[first] <= proximity_window
        if adjacent_epochs:
            close |= epoch[second] - epoch[first] == 1
        close &= thread[first] != thread[second]
        close &= (write[first] | write[second]) != 0
        close &= disjoint[lockset[first], lockset[second]]
        first, second = first[close], second[close]
        low = np.minimum(iid[first], iid[second])
        high = np.maximum(iid[first], iid[second])
        fresh = (group[first] * span + low) * span + high
        keys = np.unique(np.concatenate((keys, fresh)))
    rest, high = np.divmod(keys, span)
    start, low = np.divmod(rest, span)
    return set(
        zip(iids[low].tolist(), iids[high].tolist(), address[start].tolist())
    )


def _as_races(keys: Set[RaceKey]) -> Set[PotentialRace]:
    return {
        PotentialRace(iid_pair=(low, high), address=address)
        for low, high, address in keys
    }


def find_potential_races(
    accesses: Sequence[MemoryAccess],
    proximity_window: int = DEFAULT_PROXIMITY_WINDOW,
    adjacent_epochs: bool = True,
) -> Set[PotentialRace]:
    """Scan one serialized access stream for conflicting pairs.

    A conflicting pair races when it falls within ``proximity_window``
    steps, or (``adjacent_epochs``) when exactly one context switch
    separates it.
    """
    return _as_races(_race_keys(accesses, proximity_window, adjacent_epochs))


class RaceDetector:
    """Accumulates unique potential races across a testing campaign.

    This is the object the coverage-vs-time experiments sample: its
    :attr:`total` after each dynamic execution is the y-axis of Figure 5.
    """

    def __init__(self, proximity_window: int = DEFAULT_PROXIMITY_WINDOW) -> None:
        self.proximity_window = proximity_window
        self._seen: Set[RaceKey] = set()
        # Index over ``_seen`` for the per-execution triage query.
        self._addresses: Set[int] = set()

    def _add(self, keys: Set[RaceKey]) -> None:
        self._seen |= keys
        self._addresses.update(address for _, _, address in keys)

    def observe(self, result: ConcurrentResult) -> Set[PotentialRace]:
        """Record races from one execution; returns only the new ones."""
        fresh = _race_keys(result.accesses, self.proximity_window, True) - self._seen
        self._add(fresh)
        return _as_races(fresh)

    @property
    def total(self) -> int:
        return len(self._seen)

    @property
    def races(self) -> FrozenSet[PotentialRace]:
        return frozenset(_as_races(self._seen))

    def state_dict(self) -> List[List[int]]:
        """JSON-serializable snapshot (sorted ``[lo, hi, address]`` rows).

        Part of a campaign's resumable state: the journal checkpoints the
        detector after every CTI so a resumed campaign deduplicates races
        against exactly the set the interrupted one had seen.
        """
        return sorted(list(key) for key in self._seen)

    def load_state(self, state: Sequence[Sequence[int]]) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        self._seen, self._addresses = set(), set()
        self._add({(int(lo), int(hi), int(address)) for lo, hi, address in state})

    def has_address(self, address: int) -> bool:
        """Whether any race over ``address`` has been observed.

        Triage-level identity: all races on one shared variable belong to
        the same bug report, which is how the evaluation attributes plain
        data-race bugs.
        """
        return address in self._addresses
