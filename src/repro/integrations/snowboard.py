"""Snowboard cluster sampling with PIC (§5.6.2, Table 5).

Snowboard clusters CTIs with the INS-PAIR strategy: a CTI belongs to the
cluster of ``(write instruction, read instruction)`` when one constituent
STI's sequential run writes a shared memory address the other STI's run
reads. Published Snowboard samples 1 exemplar CTI per cluster; the paper
shows fertile clusters need more exemplars, and compares samplers on the
*buggy clusters*:

- **SB-RND(q)**: sample a fixed fraction ``q`` of the cluster at random.
- **SB-PIC(S1/S2)**: predict each CTI's coverage under a synthetic
  single-hint schedule that makes the write yield to the read, and keep
  CTIs whose predicted coverage is interesting under strategy S1 or S2.

Selected CTIs then go through regular interleaving exploration; a trial is
a *bug-finding run* when the injected bug manifests. Repeating trials
yields the bug-finding probability and the effective sampling rate, the
two columns of Table 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import rng as rngmod
from repro.core.scoring import (
    DEFAULT_BATCH_SIZE,
    CandidateScorer,
    ScoredCandidate,
    select,
)
from repro.core.strategies import SelectionStrategy, make_strategy
from repro.execution.concurrent import ScheduleHint, run_concurrent
from repro.execution.races import find_potential_races
from repro.fuzz.corpus import CorpusEntry
from repro.graphs.dataset import GraphDatasetBuilder
from repro.kernel.bugs import BugKind, BugSpec
from repro.ml.baselines import CoveragePredictor

__all__ = [
    "InsPairCluster",
    "SnowboardConfig",
    "SamplerOutcome",
    "SnowboardHarness",
]


@dataclass
class InsPairCluster:
    """One INS-PAIR cluster: CTIs that can realise a write/read pair."""

    write_iid: int
    read_iid: int
    address: int
    #: (writer entry, reader entry) CTIs, writer thread first.
    ctis: List[Tuple[CorpusEntry, CorpusEntry]] = field(default_factory=list)

    @property
    def key(self) -> Tuple[int, int]:
        return (self.write_iid, self.read_iid)

    def __len__(self) -> int:
        return len(self.ctis)


@dataclass(frozen=True)
class SnowboardConfig:
    """Budgets of the sampling study."""

    #: Interleavings explored per selected CTI.
    schedules_per_cti: int = 12
    #: Trials per (cluster, sampler) for the probability estimate
    #: (the paper uses 1000; scaled for the simulated substrate).
    trials: int = 50
    #: Cap on CTIs per cluster considered.
    max_cluster_size: int = 64
    #: Probe graphs scored per batched inference call (see
    #: :mod:`repro.core.scoring`).
    score_batch_size: int = DEFAULT_BATCH_SIZE


@dataclass
class SamplerOutcome:
    """One Table 5 row fragment: a sampler's result on one buggy cluster."""

    sampler: str
    cluster_key: Tuple[int, int]
    bug_finding_probability: float
    mean_ctis_executed: float
    sampling_rate: float


class SnowboardHarness:
    """Builds INS-PAIR clusters and runs the Table 5 sampling study."""

    def __init__(
        self,
        graphs: GraphDatasetBuilder,
        predictor: Optional[CoveragePredictor] = None,
        config: Optional[SnowboardConfig] = None,
        seed: int = 0,
    ) -> None:
        self.graphs = graphs
        self.kernel = graphs.kernel
        self.config = config or SnowboardConfig()
        self.scorer = (
            None
            if predictor is None
            else CandidateScorer(
                predictor, batch_size=self.config.score_batch_size
            )
        )
        self.seed = seed
        #: (cluster key, trial, writer id, reader id) -> bug manifested.
        #: Exploration depends only on the trial, not on which sampler
        #: picked the CTI, so samplers share outcomes (fair and fast).
        self._explore_cache: Dict[Tuple, bool] = {}
        #: cluster key -> its CTIs scored under the cluster's fixed probe,
        #: in cluster order: filled on first use, hit by every later trial.
        self._prediction_cache: Dict[Tuple[int, int], List[ScoredCandidate]] = {}

    # -- clustering -------------------------------------------------------------

    def build_clusters(
        self, max_pairs_per_cti: int = 64
    ) -> Dict[Tuple[int, int], InsPairCluster]:
        """INS-PAIR clustering over all ordered corpus-entry pairs."""
        corpus = self.graphs.corpus
        clusters: Dict[Tuple[int, int], InsPairCluster] = {}
        entries = list(corpus)
        for writer in entries:
            writes = {
                (access.iid, access.address)
                for access in writer.trace.accesses
                if access.is_write
            }
            if not writes:
                continue
            write_by_address: Dict[int, List[int]] = {}
            for iid, address in writes:
                write_by_address.setdefault(address, []).append(iid)
            for reader in entries:
                if reader.sti.sti_id == writer.sti.sti_id:
                    continue
                added = 0
                for access in reader.trace.accesses:
                    if access.is_write:
                        continue
                    for write_iid in write_by_address.get(access.address, ()):
                        key = (write_iid, access.iid)
                        cluster = clusters.get(key)
                        if cluster is None:
                            cluster = InsPairCluster(
                                write_iid=write_iid,
                                read_iid=access.iid,
                                address=access.address,
                            )
                            clusters[key] = cluster
                        if len(cluster.ctis) < self.config.max_cluster_size:
                            cluster.ctis.append((writer, reader))
                        added += 1
                        if added >= max_pairs_per_cti:
                            break
                    if added >= max_pairs_per_cti:
                        break
        return clusters

    def buggy_clusters(
        self, clusters: Dict[Tuple[int, int], InsPairCluster]
    ) -> List[InsPairCluster]:
        """Clusters over an injected bug's shared variable.

        INS-PAIR keys come from *sequential* traces, while some racing
        reads live in URBs (the AV gadgets), so clusters are matched to
        bugs by the variable their instruction pair touches; exploring
        such a cluster's CTIs is what can manifest the bug. One (largest)
        cluster per bug is returned — the "buggy clusters" of §5.6.2.
        """
        best: Dict[int, InsPairCluster] = {}
        spec_by_id = {spec.bug_id: spec for spec in self.kernel.bugs}

        def rank(cluster: InsPairCluster, spec: BugSpec) -> Tuple[int, int, int]:
            # Prefer the cluster keyed on the spec's exact racing pair,
            # then the racing write (the fruitful data flow), then size.
            return (
                int(cluster.key == (spec.write_iid, spec.read_iid)),
                int(cluster.write_iid == spec.write_iid),
                len(cluster),
            )

        for cluster in clusters.values():
            spec = self.bug_for_cluster(cluster)
            if spec is None or len(cluster) < 2:
                continue
            current = best.get(spec.bug_id)
            if current is None or rank(cluster, spec) > rank(current, spec):
                best[spec.bug_id] = cluster
        return [best[bug_id] for bug_id in sorted(best)]

    def bug_for_cluster(self, cluster: InsPairCluster) -> Optional[BugSpec]:
        for spec in self.kernel.bugs:
            if cluster.address == spec.variable:
                return spec
        return None

    # -- exploration of one CTI ---------------------------------------------------

    def _explore_cti(
        self,
        spec: BugSpec,
        cluster: InsPairCluster,
        writer: CorpusEntry,
        reader: CorpusEntry,
        trial_seed: int,
    ) -> bool:
        """Snowboard-style interleaving exploration of one selected CTI.

        Snowboard "exercises different interleavings of the predicted data
        flows": the write side yields at the cluster's write instruction
        (realising the write→read communication) while the reader-side
        switch point varies — so fruitfulness genuinely differs between a
        cluster's CTIs. Returns True when the bug manifests.
        """
        rng = rngmod.split(
            trial_seed, f"sb-explore:{writer.sti.sti_id}:{reader.sti.sti_id}"
        )
        cluster_write = cluster.write_iid
        reader_trace = reader.trace.iid_trace
        if not reader_trace:
            return False
        proposals = []
        for _ in range(self.config.schedules_per_cti):
            y = int(reader_trace[int(rng.integers(len(reader_trace)))])
            proposals.append(
                [
                    ScheduleHint(thread=0, iid=cluster_write),
                    ScheduleHint(thread=1, iid=y),
                ]
            )
        for pair in proposals:
            result = run_concurrent(
                self.kernel,
                (writer.sti.as_pairs(), reader.sti.as_pairs()),
                hints=list(pair),
            )
            if spec.kind is BugKind.DATA_RACE:
                races = find_potential_races(result.accesses)
                # Triage-level identity: any race over the bug's shared
                # variable is a report of this bug.
                if any(race.address == spec.variable for race in races):
                    return True
            else:
                if any(
                    event.block_id == spec.manifest_block
                    for event in result.bug_events
                ):
                    return True
        return False

    # -- samplers ---------------------------------------------------------------

    def _sample_random(
        self,
        cluster: InsPairCluster,
        fraction: float,
        rng: np.random.Generator,
    ) -> List[Tuple[CorpusEntry, CorpusEntry]]:
        count = max(1, int(round(fraction * len(cluster))))
        indices = rng.choice(len(cluster), size=min(count, len(cluster)), replace=False)
        return [cluster.ctis[int(i)] for i in indices]

    def _sample_pic(
        self,
        cluster: InsPairCluster,
        strategy: SelectionStrategy,
        rng: np.random.Generator,
    ) -> List[Tuple[CorpusEntry, CorpusEntry]]:
        scored = self._prediction_cache.get(cluster.key)
        if scored is None:
            # The synthetic probe: the writer yields right after the write.
            hints = (ScheduleHint(thread=0, iid=cluster.write_iid),)
            graphs = [
                self.graphs.graph_for(writer, reader, list(hints))
                for writer, reader in cluster.ctis
            ]
            scored = self._prediction_cache[cluster.key] = [
                ScoredCandidate(
                    index=index, hints=hints, graph=graph, predicted=predicted
                )
                for index, (graph, predicted) in enumerate(
                    zip(graphs, self.scorer.iter_scores(graphs))
                )
            ]
        strategy.reset()
        order = rng.permutation(len(cluster))
        chosen, _, _ = select((scored[int(i)] for i in order), strategy)
        return [cluster.ctis[candidate.index] for candidate in chosen]

    # -- the study ---------------------------------------------------------------

    def evaluate_sampler(
        self,
        cluster: InsPairCluster,
        sampler: str,
        fraction: float = 0.5,
    ) -> SamplerOutcome:
        """Bug-finding probability of one sampler on one buggy cluster.

        ``sampler`` is one of ``"SB-RND"``, ``"SB-PIC(S1)"``,
        ``"SB-PIC(S2)"``; ``fraction`` only applies to SB-RND.
        """
        spec = self.bug_for_cluster(cluster)
        if spec is None:
            raise ValueError("cluster is not a buggy cluster")
        hits = 0
        executed_counts = []
        for trial in range(self.config.trials):
            sampling_seed = rngmod.derive_seed(
                self.seed, f"sb-trial:{sampler}:{fraction}:{cluster.key}:{trial}"
            )
            # Exploration luck is a property of the trial, not the sampler.
            explore_seed = rngmod.derive_seed(
                self.seed, f"sb-explore:{cluster.key}:{trial}"
            )
            rng = rngmod.make_rng(sampling_seed)
            if sampler == "SB-RND":
                chosen = self._sample_random(cluster, fraction, rng)
            elif sampler == "SB-PIC(S1)":
                chosen = self._sample_pic(cluster, make_strategy("S1"), rng)
            elif sampler == "SB-PIC(S2)":
                chosen = self._sample_pic(cluster, make_strategy("S2"), rng)
            else:
                raise ValueError(f"unknown sampler {sampler!r}")
            executed_counts.append(len(chosen))
            found = False
            for writer, reader in chosen:
                key = (cluster.key, trial, writer.sti.sti_id, reader.sti.sti_id)
                outcome = self._explore_cache.get(key)
                if outcome is None:
                    outcome = self._explore_cti(
                        spec, cluster, writer, reader, explore_seed
                    )
                    self._explore_cache[key] = outcome
                if outcome:
                    found = True
                    break
            if found:
                hits += 1
        mean_executed = float(np.mean(executed_counts)) if executed_counts else 0.0
        label = sampler if sampler != "SB-RND" else f"SB-RND({int(fraction * 100)}%)"
        return SamplerOutcome(
            sampler=label,
            cluster_key=cluster.key,
            bug_finding_probability=hits / max(self.config.trials, 1),
            mean_ctis_executed=mean_executed,
            sampling_rate=mean_executed / max(len(cluster), 1),
        )
