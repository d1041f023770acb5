"""Snowcat proper: predicted-coverage-guided concurrency testing (§3.3).

Selection strategies S1/S2/S3 over predicted coverage, the MLPCT explorer
(PCT proposals filtered by the PIC model), simulated cost accounting that
maps executions/inferences/training to the paper's wall-clock axes, the
analytic rejection-filter model of §A.6, and the end-to-end orchestrator.
"""

from repro.core.costs import CostModel, CostLedger
from repro.core.scoring import (
    CandidateScorer,
    ScoredCandidate,
    iter_score_candidates,
    select,
)
from repro.core.strategies import (
    NewCoverageSet,
    NewPositiveBlocks,
    PositiveBlocksLimitedTrials,
    SelectionStrategy,
    TargetBlocks,
    make_strategy,
)
from repro.core.mlpct import (
    CampaignResult,
    ExplorationConfig,
    MLPCTExplorer,
    PCTExplorer,
    run_campaign,
)
from repro.core.filtermodel import FilterModel, simulate_filter
from repro.core.ctigen import (
    OverlapPrioritizedGenerator,
    communication_score,
    random_ctis,
)
from repro.core.directed import DirectedScheduleSearch, DirectedSearchResult
from repro.core.snowcat import Snowcat, SnowcatConfig

__all__ = [
    "CostModel",
    "CostLedger",
    "CandidateScorer",
    "ScoredCandidate",
    "iter_score_candidates",
    "select",
    "SelectionStrategy",
    "NewCoverageSet",
    "NewPositiveBlocks",
    "PositiveBlocksLimitedTrials",
    "TargetBlocks",
    "make_strategy",
    "ExplorationConfig",
    "MLPCTExplorer",
    "PCTExplorer",
    "CampaignResult",
    "run_campaign",
    "FilterModel",
    "simulate_filter",
    "DirectedScheduleSearch",
    "DirectedSearchResult",
    "OverlapPrioritizedGenerator",
    "communication_score",
    "random_ctis",
    "Snowcat",
    "SnowcatConfig",
]
