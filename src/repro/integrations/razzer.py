"""Razzer / Razzer-Relax / Razzer-PIC (§5.6.1, Table 4).

Razzer, given a statically identified possible data race (a write/read
instruction pair), searches for CTI candidates whose constituent STIs can
each trigger one racing instruction, then dynamically executes candidates
under many random schedules to confirm the race:

- **Razzer** (strict): an STI qualifies only if its *sequential* run
  actually executed the racing instruction. Races hidden in URBs are never
  attempted — the limitation the paper highlights.
- **Razzer-Relax**: an STI qualifies if the racing instruction's block is
  an SCB *or a URB* of the STI — finds more candidates, at heavy cost.
- **Razzer-PIC**: Razzer-Relax candidates filtered by the PIC model — only
  CTIs predicted to cover both racing blocks under probe schedules are
  kept.

Reproduction cost follows the paper's method: every candidate CTI is
executed with up to ``schedules_per_cti`` random schedules; the average
time to reproduce is computed by shuffling the CTI queue and averaging the
time until the first true positive; the worst case puts every true
positive at the end of the queue.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import rng as rngmod
from repro.analysis.urb import find_urbs
from repro.core.costs import CostModel
from repro.core.scoring import (
    DEFAULT_BATCH_SIZE,
    CandidateScorer,
    iter_score_candidates,
    select,
)
from repro.core.strategies import TargetBlocks
from repro.execution.concurrent import ScheduleHint, run_concurrent
from repro.execution.pct import propose_hint_pairs
from repro.execution.races import find_potential_races
from repro.fuzz.corpus import CorpusEntry
from repro.graphs.dataset import GraphDatasetBuilder
from repro.kernel.bugs import BugSpec
from repro.ml.baselines import CoveragePredictor

__all__ = ["RazzerVariant", "RazzerConfig", "RazzerOutcome", "RazzerHarness"]


class RazzerVariant(enum.Enum):
    STRICT = "Razzer"
    RELAX = "Razzer-Relax"
    PIC = "Razzer-PIC"


@dataclass(frozen=True)
class RazzerConfig:
    """Search and verification budgets."""

    #: Random schedules tried per candidate CTI during verification
    #: (the paper uses 5K; scaled down for the simulated substrate).
    schedules_per_cti: int = 600
    #: Cap on candidate CTIs per variant.
    max_candidates: int = 400
    #: Probe schedules per CTI for the PIC filter: one directed probe
    #: (write yields to read) plus this many random ones.
    pic_probe_schedules: int = 3
    #: Queue shuffles for the average-time estimate.
    shuffles: int = 200
    #: Probe graphs scored per batched inference call (see
    #: :mod:`repro.core.scoring`).
    score_batch_size: int = DEFAULT_BATCH_SIZE
    costs: CostModel = field(default_factory=CostModel)


@dataclass
class RazzerOutcome:
    """One Table 4 cell group: a variant's result on one known race."""

    variant: RazzerVariant
    num_ctis: int
    num_true_positive: int
    avg_hours: Optional[float]
    worst_hours: Optional[float]
    inference_count: int = 0

    @property
    def reproduced(self) -> bool:
        return self.num_true_positive > 0


class RazzerHarness:
    """Runs the three Razzer variants against known races."""

    def __init__(
        self,
        graphs: GraphDatasetBuilder,
        predictor: Optional[CoveragePredictor] = None,
        config: Optional[RazzerConfig] = None,
        seed: int = 0,
    ) -> None:
        self.graphs = graphs
        self.kernel = graphs.kernel
        self.config = config or RazzerConfig()
        self.scorer = (
            None
            if predictor is None
            else CandidateScorer(
                predictor, batch_size=self.config.score_batch_size
            )
        )
        self.seed = seed
        self._urb_cache: Dict[int, Set[int]] = {}
        self._minimized_cache: Dict[Tuple[int, int, bool], Optional[CorpusEntry]] = {}

    # -- candidate search ------------------------------------------------------

    def _urbs_of(self, entry: CorpusEntry) -> Set[int]:
        # Key by id + rendered calls: minimized probes share an sti_id with
        # their source entry but have different coverage.
        key = hash((entry.sti.sti_id, entry.sti.render()))
        cached = self._urb_cache.get(key)
        if cached is None:
            cached = find_urbs(self.graphs.cfg, entry.trace.covered_blocks, hops=1)
            self._urb_cache[key] = cached
        return cached

    def _sti_triggers(self, entry: CorpusEntry, iid: int, relaxed: bool) -> bool:
        """Can this STI reach the racing instruction?"""
        if iid in entry.trace.iid_trace:
            return True
        if not relaxed:
            return False
        block = self.kernel.block_of_instruction(iid)
        return block in self._urbs_of(entry)

    def _minimized(
        self, entry: CorpusEntry, iid: int, relaxed: bool
    ) -> Optional[CorpusEntry]:
        """Shrink an STI to the single call that reaches the racing
        instruction, re-executing it to get a fresh trace.

        Razzer synthesizes *minimal* race-targeted programs from its
        fuzzing corpus; working with the single triggering call keeps the
        verification search space (and hence reproduction time) in the
        regime the paper reports.
        """
        key = (entry.sti.sti_id, iid, relaxed)
        if key in self._minimized_cache:
            return self._minimized_cache[key]
        from repro.execution.sequential import run_sequential
        from repro.fuzz.sti import STI

        minimized: Optional[CorpusEntry] = None
        for call_index, call in enumerate(entry.sti.calls):
            # Fresh sti_id: minimized probes must not collide with their
            # source entry in downstream (graph-template) caches.
            fresh_id = 1_000_000 + entry.sti.sti_id * 16 + call_index
            candidate = STI(sti_id=fresh_id, calls=(call,))
            trace = run_sequential(self.kernel, candidate.as_pairs(), sti_id=fresh_id)
            probe = CorpusEntry(sti=candidate, trace=trace)
            if self._sti_triggers(probe, iid, relaxed):
                minimized = probe
                break
        self._minimized_cache[key] = minimized
        return minimized

    def candidates(
        self, spec: BugSpec, variant: RazzerVariant
    ) -> List[Tuple[CorpusEntry, CorpusEntry]]:
        """CTI candidates for one race under one variant's rule.

        Corpus STIs that can reach a racing instruction are minimized to
        their triggering call and deduplicated by that call, mirroring
        Razzer's generation of minimal racy programs.
        """
        relaxed = variant is not RazzerVariant.STRICT
        writers = self._triggering_entries(spec.write_iid, relaxed)
        readers = self._triggering_entries(spec.read_iid, relaxed)
        pairs: List[Tuple[CorpusEntry, CorpusEntry]] = []
        for writer in writers:
            for reader in readers:
                if writer.sti.sti_id == reader.sti.sti_id:
                    continue
                pairs.append((writer, reader))
                if len(pairs) >= self.config.max_candidates:
                    return pairs
        return pairs

    def _triggering_entries(self, iid: int, relaxed: bool) -> List[CorpusEntry]:
        found: List[CorpusEntry] = []
        seen_calls: Set[str] = set()
        for entry in self.graphs.corpus:
            if not self._sti_triggers(entry, iid, relaxed):
                continue
            minimized = self._minimized(entry, iid, relaxed)
            if minimized is None:
                continue
            rendered = minimized.sti.render()
            if rendered in seen_calls:
                continue
            seen_calls.add(rendered)
            found.append(minimized)
        return found

    def _pic_filter(
        self,
        spec: BugSpec,
        pairs: Sequence[Tuple[CorpusEntry, CorpusEntry]],
    ) -> Tuple[List[Tuple[CorpusEntry, CorpusEntry]], int]:
        """Keep CTIs predicted to cover both racing blocks (Razzer-PIC), one
        first-hit ``select`` per CTI. Returns them and the probes scored."""
        target = TargetBlocks(
            self.kernel.block_of_instruction(iid)
            for iid in (spec.write_iid, spec.read_iid)
        )
        rng = rngmod.split(self.seed, f"razzer-pic:{spec.bug_id}")
        # Directed probe: make the writer yield right after the racing
        # write and the reader yield after the racing read — the schedule
        # shape that realises the race if the CTI can trigger it at all.
        directed = [
            ScheduleHint(thread=0, iid=spec.write_iid),
            ScheduleHint(thread=1, iid=spec.read_iid),
        ]
        kept: List[Tuple[CorpusEntry, CorpusEntry]] = []
        inferences = 0
        for writer, reader in pairs:
            probes = [directed] + propose_hint_pairs(
                rng, writer.trace, reader.trace, self.config.pic_probe_schedules
            )
            hit, _, pulled = select(
                iter_score_candidates(
                    self.scorer, self.graphs, writer, reader, probes
                ),
                target,
                budget=1,
            )
            inferences += pulled
            if hit:
                kept.append((writer, reader))
        return kept, inferences

    # -- verification ----------------------------------------------------------

    def _verify_cti(
        self,
        spec: BugSpec,
        writer: CorpusEntry,
        reader: CorpusEntry,
    ) -> Tuple[bool, int]:
        """Try random schedules; returns (reproduced, schedules used).

        A schedule reproduces the race when the detector reports the
        racing instruction pair, or when the race's assertion (the
        CHECK/DEREF the gadget plants) fires — the latter is direct proof
        the two instructions raced even if the serialized accesses fall
        outside the detector's proximity window.
        """
        rng = rngmod.split(
            self.seed, f"razzer-verify:{spec.bug_id}:{writer.sti.sti_id}:{reader.sti.sti_id}"
        )
        target = tuple(sorted(spec.racing_pair))
        proposals = propose_hint_pairs(
            rng, writer.trace, reader.trace, self.config.schedules_per_cti
        )
        for used, pair in enumerate(proposals, start=1):
            result = run_concurrent(
                self.kernel,
                (writer.sti.as_pairs(), reader.sti.as_pairs()),
                hints=list(pair),
            )
            if any(e.block_id == spec.manifest_block for e in result.bug_events):
                return True, used
            races = find_potential_races(result.accesses)
            if any(race.iid_pair == target for race in races):
                return True, used
        return False, max(len(proposals), 1)

    def _queue_times(
        self,
        per_cti_schedules: List[int],
        tp_flags: List[bool],
        inferences: int = 0,
    ) -> Tuple[Optional[float], Optional[float]]:
        """Average/worst hours to reach the first true positive.

        Average: shuffle the CTI queue, sum execution time until the first
        TP CTI finishes. Worst: every non-TP CTI runs first, then the
        most expensive TP. Mirrors Table 4's method. The PIC filter's
        ``inferences`` run before the queue, so their cost is added to
        both.
        """
        if not any(tp_flags):
            return None, None
        filter_seconds = inferences * self.config.costs.inference_seconds
        seconds = self.config.costs.execution_seconds
        schedules = np.asarray(per_cti_schedules, dtype=np.float64)
        flags = np.asarray(tp_flags, dtype=bool)
        rng = rngmod.split(self.seed, "razzer-shuffle")
        totals = []
        for _ in range(self.config.shuffles):
            order = rng.permutation(len(schedules))
            elapsed = filter_seconds
            for index in order:
                elapsed += schedules[index] * seconds
                if flags[index]:
                    break
            totals.append(elapsed)
        average = float(np.mean(totals)) / 3600.0
        # Adversarial ordering: every fruitless CTI first, then the most
        # expensive true positive ends the clock.
        worst_elapsed = filter_seconds + float(schedules[~flags].sum() * seconds)
        worst_elapsed += float(schedules[flags].max() * seconds)
        return average, worst_elapsed / 3600.0

    def run_variant(self, spec: BugSpec, variant: RazzerVariant) -> RazzerOutcome:
        """Full Table 4 pipeline for one race under one variant."""
        pairs = self.candidates(spec, variant)
        inferences = 0
        if variant is RazzerVariant.PIC:
            if self.scorer is None:
                raise ValueError("Razzer-PIC requires a predictor")
            pairs, inferences = self._pic_filter(spec, pairs)
        per_cti_schedules: List[int] = []
        tp_flags: List[bool] = []
        for writer, reader in pairs:
            reproduced, used = self._verify_cti(spec, writer, reader)
            tp_flags.append(reproduced)
            per_cti_schedules.append(used)
        avg_hours, worst_hours = self._queue_times(
            per_cti_schedules, tp_flags, inferences
        )
        return RazzerOutcome(
            variant=variant,
            num_ctis=len(pairs),
            num_true_positive=sum(tp_flags),
            avg_hours=avg_hours,
            worst_hours=worst_hours,
            inference_count=inferences,
        )

    def run_all(self, spec: BugSpec) -> Dict[RazzerVariant, RazzerOutcome]:
        return {variant: self.run_variant(spec, variant) for variant in RazzerVariant}
