"""Concurrent-test-input generation and prioritisation.

Step 2 of the paper's workflow (§3): "it uses information already
collected during the single-thread execution of STIs (e.g., control flow)
to prime a downstream CT generator". The prevailing heuristic — from
Snowboard, the authors' prior system — is that effective CTIs pair STIs
whose single-thread runs touch the *same memory* with at least one write:
only such pairs can exhibit inter-thread data flow when run together.

This module provides both generators:

- :func:`random_ctis` — uniform random pairs (the naive source);
- :class:`OverlapPrioritizedGenerator` — pairs scored by their potential
  write/read communication (count of addresses one STI writes and the
  other reads), sampled highest-score-first with deterministic
  tie-breaking.

The campaign benches show overlap-primed streams find races at a higher
rate per execution, which is why the paper can assume a meaningful CTI
source upstream of the coverage predictor.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro import rng as rngmod
from repro.fuzz.corpus import Corpus, CorpusEntry

__all__ = [
    "random_ctis",
    "communication_score",
    "OverlapPrioritizedGenerator",
]


def communication_score(entry_a: CorpusEntry, entry_b: CorpusEntry) -> int:
    """Potential inter-thread communication of a CTI.

    Counts addresses written by one STI and read by the other (both
    directions) — the INS-PAIR idea at variable granularity. Zero means
    the pair cannot interact through memory at all.
    """
    a_writes = entry_a.trace.written_addresses()
    a_reads = entry_a.trace.read_addresses()
    b_writes = entry_b.trace.written_addresses()
    b_reads = entry_b.trace.read_addresses()
    return len(a_writes & b_reads) + len(b_writes & a_reads)


def random_ctis(
    corpus: Corpus, count: int, seed: int = 0
) -> List[Tuple[CorpusEntry, CorpusEntry]]:
    """Uniform random CTIs (the naive baseline source)."""
    return corpus.sample_pairs(rngmod.split(seed, "random-ctis"), count)


class OverlapPrioritizedGenerator:
    """Scores every corpus pair by communication potential and serves
    CTIs in a score-weighted order."""

    def __init__(self, corpus: Corpus, seed: int = 0) -> None:
        self.corpus = corpus
        self.seed = seed
        self._scored: Optional[List[Tuple[int, int, int]]] = None

    def _score_all(self) -> List[Tuple[int, int, int]]:
        """(score, index_a, index_b) for all ordered pairs, scored once."""
        if self._scored is not None:
            return self._scored
        entries = self.corpus.entries
        scored: List[Tuple[int, int, int]] = []
        for i, entry_a in enumerate(entries):
            for j, entry_b in enumerate(entries):
                if i == j:
                    continue
                score = communication_score(entry_a, entry_b)
                if score > 0:
                    scored.append((score, i, j))
        # Deterministic order: score descending, then indices.
        scored.sort(key=lambda item: (-item[0], item[1], item[2]))
        self._scored = scored
        return scored

    def top_ctis(self, count: int) -> List[Tuple[CorpusEntry, CorpusEntry]]:
        """The ``count`` highest-communication CTIs."""
        entries = self.corpus.entries
        return [
            (entries[i], entries[j]) for _, i, j in self._score_all()[:count]
        ]

    def sample_ctis(
        self, count: int, temperature: float = 1.0
    ) -> List[Tuple[CorpusEntry, CorpusEntry]]:
        """Score-proportional sampling without replacement.

        ``temperature`` flattens (>1) or sharpens (<1) the preference;
        useful to keep some exploration in long campaigns.
        """
        scored = self._score_all()
        if not scored:
            return []
        rng = rngmod.split(self.seed, "overlap-ctis")
        weights = np.array([s for s, _, _ in scored], dtype=np.float64)
        weights = weights ** (1.0 / max(temperature, 1e-6))
        entries = self.corpus.entries
        chosen: List[Tuple[CorpusEntry, CorpusEntry]] = []
        available = list(range(len(scored)))
        for _ in range(min(count, len(scored))):
            local = weights[available]
            probabilities = local / local.sum()
            pick = int(rng.choice(len(available), p=probabilities))
            index = available.pop(pick)
            _, i, j = scored[index]
            chosen.append((entries[i], entries[j]))
        return chosen

    @property
    def num_candidates(self) -> int:
        return len(self._score_all())
