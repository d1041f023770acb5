"""PCT and MLPCT interleaving exploration (§5.3).

Both explorers consume the same per-CTI stream of candidate schedules
(scheduling-hint pairs drawn from the threads' sequential instruction
streams, seeded per CTI so PCT and MLPCT are compared on identical
candidates, as the paper runs both "on the same CTI stream"):

- :class:`PCTExplorer` (the SKI baseline) dynamically executes the first
  ``execution_budget`` candidates.
- :class:`MLPCTExplorer` predicts each candidate's coverage with a PIC
  model, asks a selection strategy whether it is interesting, and only
  executes the selected ones — up to the same execution budget, but with an
  ``inference_cap`` on predictions (the paper caps at 1,600; ``plan_cti``
  draws only that many), judged in :func:`repro.core.scoring.select`, the
  loop every PIC consumer shares.

Both update a campaign-wide race detector, the schedule-dependent block
coverage set, the manifested-bug ledger, and the simulated cost ledger.

Stages. One CTI is a :class:`CTIPlan` carried through three explorer
methods, each order-sensitive — it must see the CTI stream in order:
``plan_cti`` draws the pool (advances the visit-count seed), ``select``
picks what to execute and freezes it into tasks (advances the strategy
and the task-seed counter), ``fold`` accounts for the results (ledger,
race dedup, coverage, history). The work *between* stages is pure —
RNG-free scoring of a pool, executing a frozen :class:`CTTask` — and may
run anywhere, in any order. Two drivers call the stages, and both run
inside :func:`run_campaign`, the one loop over a CTI stream (journal,
resume, spans, per-CTI stats, progress): inline, ``explore_cti`` runs
them back to back and scores lazily inside ``select``, so predicting
stops once the budget is met; the fleet coordinator
(:mod:`repro.fleet.coordinator`), handed in as ``driver``, lets a later
CTI's ``select`` and ``fold`` wait on worker processes and hands
``select`` whole-pool bitmaps. A stage may run ahead of the next, never
out of stream order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro import rng as rngmod
from repro.core.costs import CostLedger
from repro.core.scoring import (
    DEFAULT_BATCH_SIZE,
    CandidateScorer,
    ScoredCandidate,
    iter_score_candidates,
    select as select_candidates,
)
from repro.core.strategies import SelectionStrategy
from repro.execution.concurrent import ScheduleHint
from repro.execution.parallel import CTTask
from repro.execution.pct import ATTEMPTS_PER_PROPOSAL, iter_hint_tuples
from repro.execution.races import RaceDetector
from repro.execution.trace import ConcurrentResult
from repro.fuzz.corpus import CorpusEntry
from repro.graphs.dataset import GraphDatasetBuilder
from repro.kernel.bugs import BugKind, BugSpec
from repro.kernel.code import Kernel
from repro.ml.baselines import CoveragePredictor
from repro.resilience.faults import FaultPlan
from repro.resilience.journal import fold_prediction_digest, result_digest
from repro.resilience.supervisor import SupervisedRunner, SupervisionPolicy

__all__ = [
    "ExplorationConfig",
    "ExplorationStats",
    "CampaignResult",
    "CTIPlan",
    "PCTExplorer",
    "MLPCTExplorer",
    "run_campaign",
]


@dataclass(frozen=True)
class ExplorationConfig:
    """Per-CTI exploration budget (§5.3.1 uses 50 executions, cap 1,600)."""

    execution_budget: int = 50
    inference_cap: int = 1600
    #: Candidate schedules proposed per CTI (candidates beyond the caps are
    #: never drawn: PCT draws the first ``execution_budget``, MLPCT the
    #: first ``inference_cap``).
    proposal_pool: int = 1600
    #: Candidates scored per batched inference call (see
    #: :mod:`repro.core.scoring`); 1 forces per-graph scoring. Predictors
    #: without a batch path always score per graph regardless.
    score_batch_size: int = DEFAULT_BATCH_SIZE
    #: Worker processes for dynamic executions; 0 (the default) runs
    #: serially in-process. Results are byte-identical either way (see
    #: :mod:`repro.execution.parallel`); workers buy isolation and
    #: per-CT deadlines, not speed.
    parallel_workers: int = 0
    #: Supervised-execution policy (per-CT timeouts, bounded retries,
    #: quarantine, pool→serial fallback; see
    #: :mod:`repro.resilience.supervisor`). Every CT runs supervised:
    #: ``None`` means the default policy, with the counters reported
    #: only once a fault has occurred; set, they are always reported.
    supervision: Optional[SupervisionPolicy] = None
    #: Deterministic fault-injection spec (see
    #: :mod:`repro.resilience.faults`); setting one, like setting a
    #: policy, makes the campaign always report the counters.
    fault_spec: Optional[str] = None
    #: Threads per CT. The campaign's CTI stream must supply one corpus
    #: entry per thread; 2 is the paper's configuration.
    num_threads: int = 2
    #: Inject one interrupt per executed CT at a seed-derived step, using
    #: the kernel's IRQ handler pool (no-op for kernels without handlers).
    irq: bool = False
    #: Memory model dynamic executions run under: ``"sc"`` (the default,
    #: byte-identical to the historical path) or ``"tso"`` (per-thread
    #: store buffers).
    memory_model: str = "sc"


@dataclass
class ExplorationStats:
    """What one CTI's exploration achieved."""

    executions: int = 0
    inferences: int = 0
    new_races: int = 0
    new_blocks: int = 0
    manifested_bugs: Set[int] = field(default_factory=set)


@dataclass
class CampaignResult:
    """Cumulative outcome of a testing campaign (one curve of Figure 5)."""

    label: str
    #: Checkpoints after every dynamic execution:
    #: (simulated hours, unique races, schedule-dependent blocks).
    history: List[Tuple[float, int, int]] = field(default_factory=list)
    ledger: CostLedger = field(default_factory=CostLedger)
    manifested_bugs: Set[int] = field(default_factory=set)
    #: (simulated hours, bug id) at first manifestation, in order.
    bug_history: List[Tuple[float, int]] = field(default_factory=list)
    per_cti: List[ExplorationStats] = field(default_factory=list)
    #: Supervised-execution counters (retries, timeouts, quarantined,
    #: worker deaths, fallbacks, accounted backoff seconds); ``None``
    #: when supervision was not asked for and no fault occurred.
    resilience: Optional[Dict[str, float]] = None
    #: Served-model swap boundaries observed mid-campaign (continuous
    #: learning, see ``docs/LIFECYCLE.md``): each entry records the
    #: previous and new model version, the execution index at the
    #: boundary, and the simulated hours. Empty for campaigns that never
    #: saw a hot-swap.
    swaps: List[Dict[str, object]] = field(default_factory=list)

    @property
    def total_races(self) -> int:
        return self.history[-1][1] if self.history else 0

    @property
    def total_blocks(self) -> int:
        return self.history[-1][2] if self.history else 0

    def swap_deltas(self) -> List[Dict[str, float]]:
        """Races-per-execution before vs after each recorded swap.

        ``history`` holds one checkpoint per dynamic execution, so the
        rate on either side of a swap boundary is the race delta over
        that side's execution count. Sides with zero executions report a
        rate of 0.0.
        """
        deltas: List[Dict[str, float]] = []
        for swap in self.swaps:
            boundary = int(swap["execution_index"])
            before_n = boundary
            after_n = len(self.history) - boundary
            races_at_boundary = (
                self.history[boundary - 1][1] if boundary >= 1 else 0
            )
            total_races = self.history[-1][1] if self.history else 0
            deltas.append(
                {
                    "version": swap["version"],
                    "previous": swap["previous"],
                    "before_rate": (
                        races_at_boundary / before_n if before_n else 0.0
                    ),
                    "after_rate": (
                        (total_races - races_at_boundary) / after_n
                        if after_n
                        else 0.0
                    ),
                    "before_executions": float(before_n),
                    "after_executions": float(after_n),
                }
            )
        return deltas

    def hours_to_reach_races(self, target: int) -> Optional[float]:
        """First simulated hour at which the race count reached ``target``."""
        for hours, races, _ in self.history:
            if races >= target:
                return hours
        return None

    def bugs_by_hours(self, horizon: float) -> Set[int]:
        """Bugs manifested within the first ``horizon`` simulated hours."""
        return {bug for hours, bug in self.bug_history if hours <= horizon}


@dataclass
class CTIPlan:
    """One CTI's trip through the stages (see the module docstring):
    ``plan_cti`` creates it, ``select`` and ``fold`` fill it in."""

    entries: Tuple[CorpusEntry, ...]
    proposals: List[Tuple[ScheduleHint, ...]]
    stats: ExplorationStats = field(default_factory=ExplorationStats)
    #: Integrity digests the journal persists with this CTI's record —
    #: per-result digests in execution order, the count and running
    #: digest of the scored predictions; ``None`` when nothing stores them.
    audit: Optional[Dict[str, object]] = None
    tasks: List[CTTask] = field(default_factory=list)
    #: ``inferences_before[j]``: this CTI's inference count when task
    #: ``j`` was selected (``None`` for explorers that do not predict).
    inferences_before: Optional[List[int]] = None
    #: Executed-CT coverage labels (``capture_labels`` explorers only).
    labels: List[Dict[str, object]] = field(default_factory=list)


class _ExplorerBase:
    """State shared by PCT and MLPCT exploration."""

    #: Whether ``select`` consumes coverage predictions — i.e. whether a
    #: driver that scores elsewhere has anything to score.
    predicts = False

    def __init__(
        self,
        graphs: GraphDatasetBuilder,
        config: Optional[ExplorationConfig] = None,
        seed: int = 0,
        ledger: Optional[CostLedger] = None,
        label: str = "explorer",
        capture_labels: bool = False,
    ) -> None:
        self.graphs = graphs
        self.kernel: Kernel = graphs.kernel
        self.config = config or ExplorationConfig()
        self.seed = seed
        self.ledger = ledger or CostLedger()
        #: Opt-in executed-CT coverage-label capture for the
        #: continuous-learning tailer (read-only observation of results
        #: already in hand — cannot perturb RNG streams or accounting).
        self.capture_labels = capture_labels
        #: Set by :func:`run_campaign` when a journal is attached: plans carry
        #: the audit digests the journal persists.
        self.journaled = False
        #: The plan the most recent :meth:`explore_cti` ran (what the
        #: inline driver hands the journal).
        self.last_plan: Optional[CTIPlan] = None
        self._swaps: List[Dict[str, object]] = []
        self._served_version: Optional[str] = None
        self.race_detector = RaceDetector()
        self.covered_schedule_blocks: Set[int] = set()
        self.manifested_bugs: Set[int] = set()
        self.history: List[Tuple[float, int, int]] = []
        self.bug_history: List[Tuple[float, int]] = []
        self.label = label
        fault_plan = (
            FaultPlan.parse(self.config.fault_spec, seed=seed)
            if self.config.fault_spec
            else None
        )
        self.runner = SupervisedRunner(
            self.config.parallel_workers, self.config.supervision, fault_plan
        )
        self._task_index = 0
        self._visit_counts: Dict[Tuple[int, int], int] = {}
        self._manifest_index: Dict[int, BugSpec] = {
            spec.manifest_block: spec for spec in self.kernel.bugs
        }
        self._race_variable_index: Dict[int, BugSpec] = {
            spec.variable: spec
            for spec in self.kernel.bugs
            if spec.kind is BugKind.DATA_RACE
        }

    # -- shared plumbing -----------------------------------------------------

    def proposals_for(
        self, *entries: CorpusEntry, count: Optional[int] = None
    ) -> List[Tuple[ScheduleHint, ...]]:
        """Deterministic per-CTI candidate stream (shared across explorers).

        Accepts one corpus entry per thread. Revisiting the same CTI
        yields a *fresh* candidate pool (visit count is folded into the
        seed), matching how SKI keeps sampling new PCT schedules over a
        long campaign. ``count`` draws only the pool's first ``count``
        candidates: the attempt limit stays the full pool's, so they are
        exactly the full pool's prefix.
        """
        key = tuple(entry.sti.sti_id for entry in entries)
        visit = self._visit_counts.get(key, 0)
        self._visit_counts[key] = visit + 1
        label = "proposals:" + ":".join(str(sti_id) for sti_id in key)
        rng = rngmod.split(self.seed, f"{label}:{visit}")
        pool = self.config.proposal_pool
        stream = iter_hint_tuples(
            rng,
            tuple(entry.trace for entry in entries),
            pool * ATTEMPTS_PER_PROPOSAL,
        )
        wanted = pool if count is None else min(count, pool)
        return list(itertools.islice(stream, wanted))

    def _record_bug(self, bug_id: int, stats: ExplorationStats) -> None:
        if bug_id not in self.manifested_bugs:
            self.manifested_bugs.add(bug_id)
            self.bug_history.append((self.ledger.total_hours, bug_id))
        stats.manifested_bugs.add(bug_id)

    def _attribute_bugs(self, result: ConcurrentResult, stats: ExplorationStats) -> None:
        for event in result.bug_events:
            spec = self._manifest_index.get(event.block_id)
            if spec is not None:
                self._record_bug(spec.bug_id, stats)
        for address, spec in self._race_variable_index.items():
            if (
                spec.bug_id not in self.manifested_bugs
                and self.race_detector.has_address(address)
            ):
                self._record_bug(spec.bug_id, stats)

    def _account(
        self,
        entries: Sequence[CorpusEntry],
        result: ConcurrentResult,
        stats: ExplorationStats,
    ) -> None:
        """Fold one execution's outcome into the campaign state.

        Order-sensitive (race dedup, fresh-block sets, history
        checkpoints): callers replay results in selection order, which is
        what makes parallel execution byte-identical to serial.
        """
        self.ledger.charge_execution()
        stats.executions += 1
        obs.add("campaign.executions")
        new_races = self.race_detector.observe(result)
        stats.new_races += len(new_races)
        scbs = set().union(*(entry.trace.covered_blocks for entry in entries))
        fresh_blocks = (
            result.schedule_dependent_blocks(scbs) - self.covered_schedule_blocks
        )
        self.covered_schedule_blocks |= fresh_blocks
        stats.new_blocks += len(fresh_blocks)
        self._attribute_bugs(result, stats)
        self.history.append(
            (
                self.ledger.total_hours,
                self.race_detector.total,
                len(self.covered_schedule_blocks),
            )
        )

    def _irq_plan_for(
        self, entries: Sequence[CorpusEntry], task_index: int
    ) -> Tuple[Tuple[int, str], ...]:
        """Seed-derived one-interrupt plan for one task (IRQ axis).

        The arrival step is drawn uniformly over the CTI's combined
        sequential step count, the handler uniformly from the kernel's
        IRQ handler pool. Pure function of ``(seed, task_index)``, so a
        task replays identically anywhere. Empty when the axis is off or
        the kernel has no handlers — and the RNG split only happens with
        the axis on, keeping axis-off campaigns byte-identical.
        """
        if not self.config.irq or not self.kernel.irq_handlers:
            return ()
        rng = rngmod.split(self.seed, f"irq:{task_index}")
        horizon = max(
            1, sum(len(entry.trace.iid_trace) for entry in entries)
        )
        step = int(rng.integers(1, horizon + 1))
        handler = self.kernel.irq_handlers[
            int(rng.integers(len(self.kernel.irq_handlers)))
        ]
        return ((step, handler),)

    def build_tasks(self, *args) -> List[CTTask]:
        """Freeze the selected candidates into executable tasks.

        Positional arguments are one corpus entry per thread followed by
        the list of hint sequences. Advances the campaign-global
        task-seed counter, so tasks must be built in selection order;
        each task is then a pure function of its own fields and may
        execute anywhere (worker pool, fleet worker) without affecting
        results.
        """
        *entries, hints_list = args
        programs = tuple(entry.sti.as_pairs() for entry in entries)
        tasks = []
        for hints in hints_list:
            tasks.append(
                CTTask.build(
                    programs,
                    hints,
                    seed=self.seed,
                    index=self._task_index,
                    memory_model=self.config.memory_model,
                    irq_plan=self._irq_plan_for(entries, self._task_index),
                )
            )
            self._task_index += 1
        return tasks

    def account_results(
        self,
        *args,
        inferences_before: Optional[Sequence[int]] = None,
    ) -> None:
        """Fold executed results into campaign state, in selection order.

        Positional arguments are one corpus entry per thread, the results
        sequence, and the per-CTI stats. ``inferences_before[j]`` is how
        many of this CTI's inferences had happened when candidate ``j``
        was selected. Inference charges are replayed against the ledger
        just before each execution's charge — with any tail inferences
        charged after the last — so every history checkpoint carries the
        exact simulated hours an interleaved predict-then-execute loop
        would have recorded.
        """
        *entries, results, stats = args
        charged = 0
        for index, result in enumerate(results):
            if inferences_before is not None:
                owed = inferences_before[index] - charged
                if owed:
                    self.ledger.charge_inference(owed)
                    charged = inferences_before[index]
            self._account(entries, result, stats)
        if inferences_before is not None and stats.inferences > charged:
            self.ledger.charge_inference(stats.inferences - charged)

    def close(self) -> None:
        """Release the execution runner's worker pool, if it has one."""
        self.runner.close()

    # -- the per-CTI stages (see the module docstring) -----------------------

    def plan_cti(self, *entries: CorpusEntry) -> CTIPlan:
        """Stage 1: draw this CTI's candidate pool (strict stream order).

        Only the pool's prefix that can matter is drawn: an explorer that
        predicts scores at most its inference cap of candidates, one that
        does not runs at most its execution budget.
        """
        config = self.config
        count = config.inference_cap if self.predicts else config.execution_budget
        return CTIPlan(
            entries=entries,
            proposals=self.proposals_for(*entries, count=count),
            audit=(
                {"results": [], "scored": 0, "scored_digest": ""}
                if self.journaled
                else None
            ),
        )

    def select(self, plan: CTIPlan, predicted=None) -> None:
        """Stage 2: choose what to execute and freeze it into
        ``plan.tasks`` (strict stream order). ``predicted`` is the pool's
        coverage bitmaps when a driver scored them elsewhere."""
        raise NotImplementedError

    def fold(self, plan: CTIPlan, results: Sequence[ConcurrentResult]) -> None:
        """Stage 3: fold the executed ``plan.tasks``' results into the
        campaign state (strict stream order)."""
        if plan.audit is not None:
            plan.audit["results"].extend(result_digest(r) for r in results)
        if self.capture_labels:
            sti_ids = [int(entry.sti.sti_id) for entry in plan.entries]
            plan.labels = [
                {
                    "sti": sti_ids,
                    "hints": [[hint.thread, hint.iid] for hint in task.hints],
                    "covered": [
                        sorted(blocks) for blocks in result.covered_blocks
                    ],
                }
                for task, result in zip(plan.tasks, results)
            ]
        self.account_results(
            *plan.entries,
            results,
            plan.stats,
            inferences_before=plan.inferences_before,
        )

    def explore_cti(self, *entries: CorpusEntry) -> ExplorationStats:
        """The inline driver: all three stages, synchronously."""
        plan = self.last_plan = self.plan_cti(*entries)
        self.select(plan)
        self.fold(plan, self.runner.run_many(self.kernel, plan.tasks))
        return plan.stats

    # -- crash-safe campaigns (see repro.resilience.journal) -----------------

    def visit_count_state(self) -> List[List[object]]:
        """Per-CTI visit counts in their ``state_dict`` form — what
        :meth:`plan_cti` advances."""
        return sorted(
            [list(key), visits] for key, visits in self._visit_counts.items()
        )

    def selection_state(self) -> Dict[str, object]:
        """The part of ``state_dict`` that :meth:`select` advances. A
        driver whose selection runs ahead of its fold checkpoints this
        (and :meth:`visit_count_state`) as of the CTI being committed."""
        return {"task_index": self._task_index}

    def state_dict(self) -> Dict[str, object]:
        """Full campaign-progress snapshot, exact under a JSON round-trip.

        Everything order-sensitive accounting depends on is captured —
        ledger charges, the race-dedup set, coverage, bug ledger, history
        curves, the task-seed counter, per-CTI visit counts, and (when
        it reports them) the runner's counters — so a resumed campaign is
        byte-identical to an uninterrupted one.
        """
        state: Dict[str, object] = {
            "executions": self.ledger.executions,
            "inferences": self.ledger.inferences,
            "races": self.race_detector.state_dict(),
            "covered_blocks": sorted(self.covered_schedule_blocks),
            "manifested_bugs": sorted(self.manifested_bugs),
            "history": [list(point) for point in self.history],
            "bug_history": [list(point) for point in self.bug_history],
            "visit_counts": self.visit_count_state(),
            **self.selection_state(),
        }
        if self.runner.reporting:
            state["runner"] = self.runner.state_dict()
        # Swap-boundary bookkeeping is serialized only once a served
        # model version has actually been observed, so campaigns that
        # never hot-swap keep the historical state shape byte-for-byte.
        if self._swaps:
            state["swaps"] = [dict(swap) for swap in self._swaps]
        if self._served_version is not None:
            state["served_version"] = self._served_version
        return state

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        self.ledger.executions = int(state["executions"])
        self.ledger.inferences = int(state["inferences"])
        self.race_detector.load_state(state["races"])
        self.covered_schedule_blocks = set(state["covered_blocks"])
        self.manifested_bugs = set(state["manifested_bugs"])
        self.history = [tuple(point) for point in state["history"]]
        self.bug_history = [tuple(point) for point in state["bug_history"]]
        self._task_index = int(state["task_index"])
        self._visit_counts = {
            tuple(key): int(visits) for key, visits in state["visit_counts"]
        }
        if "runner" in state:
            self.runner.load_state(state["runner"])
        self._swaps = [dict(swap) for swap in state.get("swaps", [])]
        served = state.get("served_version")
        self._served_version = str(served) if served is not None else None

    def result(self) -> CampaignResult:
        return CampaignResult(
            label=self.label,
            history=list(self.history),
            ledger=self.ledger,
            manifested_bugs=set(self.manifested_bugs),
            bug_history=list(self.bug_history),
            resilience=self.runner.summary() if self.runner.reporting else None,
            swaps=[dict(swap) for swap in self._swaps],
        )


class PCTExplorer(_ExplorerBase):
    """The SKI/PCT baseline: execute candidates in proposal order."""

    def __init__(self, graphs: GraphDatasetBuilder, **kwargs) -> None:
        kwargs.setdefault("label", "PCT")
        super().__init__(graphs, **kwargs)

    def select(self, plan: CTIPlan, predicted=None) -> None:
        selected = [
            list(pair)
            for pair in plan.proposals[: self.config.execution_budget]
        ]
        plan.tasks = self.build_tasks(*plan.entries, selected)


class MLPCTExplorer(_ExplorerBase):
    """PCT proposals filtered by the PIC model + a selection strategy."""

    predicts = True

    def __init__(
        self,
        graphs: GraphDatasetBuilder,
        predictor: Optional[CoveragePredictor],
        strategy: SelectionStrategy,
        backend: Optional[object] = None,
        **kwargs,
    ) -> None:
        """``backend`` routes all predictions through a serving backend
        (:mod:`repro.serve`) instead of calling ``predictor`` directly;
        ``predictor`` may then be ``None`` (socket campaigns have no
        local model). The default (no backend) is byte-identical to the
        historical direct-call path."""
        kwargs.setdefault("label", f"MLPCT-{strategy.name}")
        super().__init__(graphs, **kwargs)
        self.strategy = strategy
        self.scorer = CandidateScorer(
            predictor,
            batch_size=self.config.score_batch_size,
            backend=backend,
        )

    def selection_state(self) -> Dict[str, object]:
        state = super().selection_state()
        state["strategy"] = self.strategy.state_dict()
        return state

    def load_state(self, state: Dict[str, object]) -> None:
        super().load_state(state)
        self.strategy.load_state(state["strategy"])

    def _note_swap_boundary(self) -> None:
        """Record a served-model version change as a swap boundary.

        Backends that serve predictions expose ``observed_version`` (the
        version tag the server attached to the most recent batch). The
        check runs at CTI granularity — before each inline ``select``
        scores and once more in :meth:`result` — so a CTI whose
        scoring straddled a swap is attributed to the *before* side (see
        ``docs/LIFECYCLE.md``). With no backend, or a backend that never
        reports a version, this is a no-op.
        """
        observed = getattr(self.scorer.backend, "observed_version", None)
        if observed is None:
            return
        observed = str(observed)
        if self._served_version is None:
            self._served_version = observed
            return
        if observed == self._served_version:
            return
        swap = {
            "previous": self._served_version,
            "version": observed,
            "execution_index": self.ledger.executions,
            "hours": self.ledger.total_hours,
        }
        self._swaps.append(swap)
        self._served_version = observed
        obs.point(
            "learn.swap",
            label=self.label,
            previous=swap["previous"],
            version=swap["version"],
            execution_index=swap["execution_index"],
        )

    def result(self) -> CampaignResult:
        self._note_swap_boundary()
        return super().result()

    def select(
        self, plan: CTIPlan, predicted: Optional[Sequence[np.ndarray]] = None
    ) -> None:
        entries, stats, audit = plan.entries, plan.stats, plan.audit
        if predicted is None:
            # Inline: the lazy engine, so scoring stops within one
            # look-ahead window of the last candidate considered.
            self._note_swap_boundary()
            scored = iter_score_candidates(
                self.scorer, self.graphs, *entries, plan.proposals
            )
        else:
            scored = (
                ScoredCandidate(
                    index=index,
                    hints=hints,
                    graph=self.graphs.graph_for(*entries, list(hints)),
                    predicted=bitmap,
                )
                for index, (hints, bitmap) in enumerate(
                    zip(plan.proposals, predicted)
                )
            )
        if audit is not None:
            scored = _audited(scored, audit)
        chosen, plan.inferences_before, stats.inferences = select_candidates(
            scored, self.strategy, self.config.execution_budget
        )
        obs.add("campaign.inferences", stats.inferences)
        # A prediction the strategy rejects is a dynamic execution the
        # campaign never has to pay for.
        obs.add("campaign.executions_saved", stats.inferences - len(chosen))
        plan.tasks = self.build_tasks(*entries, [c.hints for c in chosen])


def _audited(
    scored: Iterator[ScoredCandidate], audit: Dict[str, object]
) -> Iterator[ScoredCandidate]:
    """Fold each candidate ``select`` pulls into the CTI's audit."""
    for candidate in scored:
        audit["scored"] += 1
        audit["scored_digest"] = fold_prediction_digest(
            audit["scored_digest"], candidate.proba, candidate.predicted
        )
        yield candidate


def run_campaign(
    explorer: _ExplorerBase,
    ctis: Sequence[Tuple[CorpusEntry, ...]],
    journal: Optional["CampaignJournal"] = None,
    heartbeat=None,
    driver=None,
) -> CampaignResult:
    """Explore a stream of CTIs; returns the cumulative campaign curve.

    The one loop over a CTI stream. Each CTI is ``explore_cti`` inline;
    a ``driver`` (the fleet coordinator) is ``start(first)``-ed once and
    then ``explore(index)`` returns CTI ``index``'s folded plan and its
    selection-side state, which tops the checkpoint (the driver may
    select ahead, never fold ahead); ``close()`` runs last.

    With ``journal`` (a :class:`repro.resilience.journal.CampaignJournal`)
    every completed CTI is appended to a durable write-ahead journal and
    the explorer's full state is checkpointed atomically; if the journal
    already holds progress for this campaign, completed CTIs are skipped
    and exploration resumes mid-stream, producing a result byte-identical
    to an uninterrupted run (see ``docs/ROBUSTNESS.md``).

    With ``heartbeat`` (a :class:`repro.obs.export.HeartbeatWriter`)
    the loop additionally publishes throttled progress snapshots —
    CTIs done, races found, executions, rate, ETA — for ``repro top``,
    mirroring each written snapshot as a ``campaign.heartbeat`` trace
    point. Progress reporting reads counters only; it cannot perturb
    campaign results.
    """
    ctis = list(ctis)
    per_cti: List[ExplorationStats] = []
    first = 0
    explorer.journaled = journal is not None
    if journal is not None:
        per_cti, first = journal.prepare(explorer, ctis)
    if heartbeat is not None:
        heartbeat.begin(explorer.label, len(ctis), done=first)
    try:
        with obs.span(
            "campaign.run", label=explorer.label, ctis=len(ctis)
        ) as campaign_span:
            if driver is not None:
                driver.start(first)
            for index in range(first, len(ctis)):
                with obs.span("campaign.cti", index=index) as cti_span:
                    if driver is None:
                        explorer.explore_cti(*ctis[index])
                        plan, selection = explorer.last_plan, {}
                    else:
                        plan, selection = driver.explore(index)
                    stats = plan.stats
                    cti_span.set(
                        executions=stats.executions,
                        inferences=stats.inferences,
                        new_races=stats.new_races,
                        new_blocks=stats.new_blocks,
                    )
                per_cti.append(stats)
                if journal is not None:
                    state = explorer.state_dict()
                    state.update(selection)
                    journal.record_cti(explorer.label, index, plan, state)
                if heartbeat is not None and heartbeat.update(
                    done=index + 1,
                    races=explorer.race_detector.total,
                    executions=explorer.ledger.executions,
                ):
                    obs.point(
                        "campaign.heartbeat",
                        done=index + 1,
                        total=len(ctis),
                        races=explorer.race_detector.total,
                        executions=explorer.ledger.executions,
                    )
            campaign = explorer.result()
            campaign_span.set(
                races=campaign.total_races,
                blocks=campaign.total_blocks,
                executions=campaign.ledger.executions,
                inferences=campaign.ledger.inferences,
                simulated_hours=round(campaign.ledger.total_hours, 4),
            )
    finally:
        # Worker pools (parallel_workers > 0, a fleet's) die with it.
        if driver is not None:
            driver.close()
        explorer.close()
    campaign.per_cti = per_cti
    return campaign
