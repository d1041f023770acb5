"""PIC-guided directed schedule search (§6: "Guide test input and
schedule generation using PIC").

Given a CTI and a *target block* (e.g. an uncovered error-handling block,
or one half of a suspected race), rank candidate schedules by the model's
predicted probability that the target is covered, and execute only the
top-ranked ones. This is the schedule-side analogue of FuzzGuard's
directed input filtering, built on the same PIC predictor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro import rng as rngmod
from repro.core.costs import CostLedger
from repro.core.scoring import DEFAULT_BATCH_SIZE, CandidateScorer
from repro.execution.concurrent import ScheduleHint, run_concurrent
from repro.execution.pct import propose_hint_pairs
from repro.fuzz.corpus import CorpusEntry
from repro.graphs.dataset import GraphDatasetBuilder
from repro.ml.baselines import CoveragePredictor

__all__ = ["DirectedSearchResult", "DirectedScheduleSearch"]


@dataclass
class DirectedSearchResult:
    """Outcome of one directed search."""

    target_block: int
    reached: bool
    executions: int
    inferences: int
    #: Execution order position at which the target was first covered.
    first_hit_index: Optional[int] = None
    ledger: CostLedger = field(default_factory=CostLedger)


class DirectedScheduleSearch:
    """Rank candidate schedules by predicted target-block coverage."""

    def __init__(
        self,
        graphs: GraphDatasetBuilder,
        predictor: CoveragePredictor,
        seed: int = 0,
        score_batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        self.graphs = graphs
        self.kernel = graphs.kernel
        self.seed = seed
        self.scorer = CandidateScorer(predictor, batch_size=score_batch_size)

    def _proposals(
        self, entry_a: CorpusEntry, entry_b: CorpusEntry, pool: int
    ) -> List[Tuple[ScheduleHint, ScheduleHint]]:
        rng = rngmod.split(
            self.seed, f"directed:{entry_a.sti.sti_id}:{entry_b.sti.sti_id}"
        )
        return propose_hint_pairs(rng, entry_a.trace, entry_b.trace, pool)

    def rank_schedules(
        self,
        entry_a: CorpusEntry,
        entry_b: CorpusEntry,
        target_block: int,
        pool: int = 200,
    ) -> Tuple[List[Tuple[float, Tuple[ScheduleHint, ScheduleHint]]], int]:
        """Score ``pool`` candidate schedules by P(target covered).

        A target block covered by either thread counts; the score is the
        max predicted probability over the target's (thread, block) nodes,
        0 when the block is not in the CT graph at all. Only graphs that
        contain the target go through the scoring engine. Returns the
        ranking and the number of graphs scored.
        """
        proposals = self._proposals(entry_a, entry_b, pool)
        graphs = [
            self.graphs.graph_for(entry_a, entry_b, list(pair))
            for pair in proposals
        ]
        target_nodes = [graph.nodes_of_block(target_block) for graph in graphs]
        probas = self.scorer.iter_scores(
            (graph for graph, nodes in zip(graphs, target_nodes) if nodes),
            "proba",
        )
        scored = [
            (float(next(probas)[nodes].max()) if nodes else 0.0, pair)
            for pair, nodes in zip(proposals, target_nodes)
        ]
        scored.sort(key=lambda item: -item[0])
        return scored, sum(1 for nodes in target_nodes if nodes)

    def search(
        self,
        entry_a: CorpusEntry,
        entry_b: CorpusEntry,
        target_block: int,
        execution_budget: int = 10,
        pool: int = 200,
        guided: bool = True,
    ) -> DirectedSearchResult:
        """Execute up to ``execution_budget`` schedules, guided or not.

        ``guided=False`` executes candidates in proposal order (the
        random baseline the guided variant is compared against) and
        scores nothing; guided search charges one inference per graph
        it scored.
        """
        if guided:
            ordered, inferences = self.rank_schedules(
                entry_a, entry_b, target_block, pool
            )
        else:
            ordered = [(0.0, p) for p in self._proposals(entry_a, entry_b, pool)]
            inferences = 0
        ledger = CostLedger()
        ledger.charge_inference(inferences)
        first_hit: Optional[int] = None
        executions = 0
        for index, (_, pair) in enumerate(ordered[:execution_budget]):
            result = run_concurrent(
                self.kernel,
                (entry_a.sti.as_pairs(), entry_b.sti.as_pairs()),
                hints=list(pair),
            )
            ledger.charge_execution()
            executions += 1
            if target_block in result.all_covered():
                first_hit = index
                break
        return DirectedSearchResult(
            target_block=target_block,
            reached=first_hit is not None,
            executions=executions,
            inferences=inferences,
            first_hit_index=first_hit,
            ledger=ledger,
        )
