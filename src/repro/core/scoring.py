"""The batched candidate-scoring engine and the one selection loop.

Snowcat's economics rest on inference being ~190× cheaper than a dynamic
execution (§5.2.2), so campaigns score huge candidate pools. One-graph-at-
a-time prediction leaves most of that margin on the table: per-call
Python/NumPy overhead dominates the small graphs. MLPCT, directed
search, Razzer-PIC and SB-PIC all score through one lazy engine,
:meth:`CandidateScorer.iter_scores`; it chunks candidates into
disjoint-union batches when the predictor supports
:meth:`predict_proba_batch` (the PIC model does) and falls back to the
exact per-graph calls otherwise. All but directed search (which sorts a
``"proba"`` stream) then judge the stream in one loop, :func:`select`.

Determinism contract: the fallback path calls ``predict``/``predict_proba``
once per candidate *in consumption order*, so predictors whose boolean
prediction consumes randomness (the coin baselines) see the same RNG
stream as a hand-written loop. The batch path is only taken for
predictors that advertise it, which must be RNG-free at inference — it
may pull candidates ahead of the consumer; for the PIC model a graph's
result does not depend on its batch (one call per graph is a batch of
one through the same loop).

Structural repeats: PCT draws hints that are distinct per *instruction*,
the §3.1 encoding maps each to the *block* containing it, so a pool
holds many candidates whose graphs the model cannot tell apart. On the
direct (backend-less) batch path the engine keeps a memo per pool — one
``iter_scores`` call — keyed by template identity (the shared
``token_ids`` array, as for the model's base-feature cache and the
digest memo) plus :func:`~repro.graphs.ctgraph.schedule_key`. Each distinct
graph reaches the predictor once; the lazy look-ahead is "up to
``batch_size`` *distinct unscored* graphs", pulling further candidates
rather than shrinking the batch (a half-empty batch costs more per
graph); repeats are handed the memoised array, which is read-only
because several candidates share it. Candidates are still yielded in
order and each still counts as one inference for its consumer. The memo
never sits in front of a backend: a backend owns its cache, version
tags and hit accounting, and dedups structural repeats itself because
:func:`repro.serve.digest.graph_digest` hashes the same key.

Telemetry: the engine counts ``inference.batched`` (graphs sent to the
predictor), ``inference.memo_hits`` (candidates answered from the memo)
and ``inference.single``, and records an ``inference.batch_size``
histogram, so a trace shows how well a campaign amortises its scoring.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.strategies import SelectionStrategy
from repro.execution.concurrent import ScheduleHint
from repro.graphs.ctgraph import CTGraph, schedule_key
from repro.graphs.dataset import GraphDatasetBuilder
from repro.ml.baselines import CoveragePredictor

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "ScoredCandidate",
    "CandidateScorer",
    "iter_score_candidates",
    "select",
]

#: Default candidate-pool chunk; large enough to amortise per-call
#: overhead, small enough that the batch stays cache-resident and
#: look-ahead scoring stays cheap when a consumer stops early (budget
#: exhausted). Re-measured with benchmarks/test_scoring_throughput.py's
#: batch-size sweep (committed in results/scoring_throughput.txt): 8 is
#: fastest under both float64 and float32; 16 is a few percent slower
#: and much larger batches collapse once the scratch buffers outgrow
#: cache.
DEFAULT_BATCH_SIZE = 8


@dataclass
class ScoredCandidate:
    """One scored candidate schedule of a CTI."""

    #: Position in the candidate stream.
    index: int
    #: The candidate's scheduling hints.
    hints: Tuple[ScheduleHint, ...]
    graph: CTGraph
    #: Per-node coverage probabilities (``None`` unless requested).
    proba: Optional[np.ndarray] = None
    #: Per-node boolean predictions (``None`` unless requested).
    predicted: Optional[np.ndarray] = None


class CandidateScorer:
    """Batched (or order-preserving per-graph) scoring of CT graphs.

    ``backend`` is the serving seam: when given (a
    :class:`repro.serve.backend.PredictionBackend` — in-process server or
    socket client), every prediction routes through it instead of the
    raw predictor; leaving it ``None`` keeps the historical direct-call
    path, byte for byte. ``predictor`` stays required even with a
    backend so consumers that inspect the model (threshold tuning,
    reporting) keep working, but it may be ``None`` for socket backends
    where no local model exists.
    """

    def __init__(
        self,
        predictor: Optional[CoveragePredictor],
        batch_size: int = DEFAULT_BATCH_SIZE,
        backend: Optional[object] = None,
    ) -> None:
        if predictor is None and backend is None:
            raise ValueError("CandidateScorer needs a predictor or a backend")
        self.predictor = predictor
        self.backend = backend
        self.batch_size = max(1, int(batch_size))

    @property
    def target(self) -> object:
        """Where predictions actually run: the backend if set, else the
        predictor directly."""
        return self.backend if self.backend is not None else self.predictor

    @property
    def batched(self) -> bool:
        """Whether the block-diagonal batch path is in use."""
        return self.batch_size > 1 and hasattr(
            self.target, "predict_proba_batch"
        )

    # -- the engine --------------------------------------------------------------

    def _score_batch(self, graphs: List[CTGraph], want: str) -> List[np.ndarray]:
        """One batch of at most ``batch_size`` graphs through the target."""
        probas = self.target.predict_proba_batch(graphs)
        obs.add("inference.batched", len(graphs))
        obs.observe("inference.batch_size", len(graphs))
        if want == "proba":
            return probas
        threshold = float(getattr(self.target, "threshold", 0.5))
        return [proba >= threshold for proba in probas]

    def iter_scores(
        self, graphs: Iterable[CTGraph], want: str = "predicted"
    ) -> Iterator[np.ndarray]:
        """Lazily yield one result per graph, in order.

        ``want`` is ``"predicted"`` (booleans) or ``"proba"``. Fallback
        mode is strictly lazy (one predictor call per yielded result),
        preserving early-exit semantics exactly. Batched mode pulls one
        batch ahead of the consumer: ``batch_size`` graphs through a
        backend, ``batch_size`` *distinct unscored* graphs on the direct
        path (see the module docstring).
        """
        if not self.batched:
            call = (
                self.target.predict
                if want == "predicted"
                else self.target.predict_proba
            )
            for graph in graphs:
                obs.add("inference.single")
                yield call(graph)
            return
        iterator = iter(graphs)
        if self.backend is not None:
            while True:
                window = list(itertools.islice(iterator, self.batch_size))
                if not window:
                    return
                yield from self._score_batch(window, want)
        memo: Dict[Tuple[int, bytes], np.ndarray] = {}
        #: Every keyed ``token_ids``, kept alive so ``id()`` is not reused.
        templates: Dict[int, np.ndarray] = {}
        while True:
            pulled: List[Tuple[int, bytes]] = []
            fresh: Dict[Tuple[int, bytes], CTGraph] = {}
            for graph in iterator:
                template = templates.setdefault(
                    id(graph.token_ids), graph.token_ids
                )
                key = (id(template), schedule_key(graph))
                pulled.append(key)
                if key not in memo and key not in fresh:
                    fresh[key] = graph
                    if len(fresh) == self.batch_size:
                        break
            if not pulled:
                return
            if fresh:
                results = self._score_batch(list(fresh.values()), want)
                for key, result in zip(fresh, results):
                    result.setflags(write=False)  # shared by every repeat
                    memo[key] = result
            obs.add("inference.memo_hits", len(pulled) - len(fresh))
            for key in pulled:
                yield memo[key]


def iter_score_candidates(
    scorer: CandidateScorer,
    graphs: GraphDatasetBuilder,
    *args,
    mode: str = "predicted",
) -> Iterator[ScoredCandidate]:
    """Lazily score a CTI's candidate schedules through the engine.

    Positional arguments after ``graphs`` are one corpus entry per thread
    followed by the schedules iterable (the historical two-entry call is
    the N=2 case). Graphs are stamped from the CTI's cached template, so
    each candidate costs O(#hints) construction; scoring is chunked per
    the scorer's batch size. ``mode`` is ``"predicted"`` (boolean
    per-node predictions, what the selection strategies consume) or
    ``"proba"`` (probabilities, what ranking consumers need).
    """
    *entries, schedules = args
    if not entries:
        raise ValueError("iter_score_candidates needs at least one corpus entry")
    if mode not in ("predicted", "proba"):
        raise ValueError(f"unknown scoring mode {mode!r}")

    def candidates() -> Iterator[ScoredCandidate]:
        for index, hints in enumerate(schedules):
            hints = tuple(hints)
            yield ScoredCandidate(
                index=index,
                hints=hints,
                graph=graphs.graph_for(*entries, list(hints)),
            )

    # ``echo`` replays the candidates the engine pulled ahead.
    stream, echo = itertools.tee(candidates())
    results = scorer.iter_scores((c.graph for c in stream), mode)
    for candidate, result in zip(echo, results):
        setattr(candidate, mode, result)
        yield candidate


def select(
    candidates: Iterable[ScoredCandidate],
    strategy: SelectionStrategy,
    budget: Optional[int] = None,
) -> Tuple[List[ScoredCandidate], List[int], int]:
    """The one place a strategy judges a scored candidate.

    Pulls ``candidates`` until ``budget`` are selected or the stream
    ends, checking the budget *before* each pull, so an RNG-consuming
    fallback predictor draws once per candidate considered. A cap is
    ``itertools.islice(stream, cap)``; a first-hit stop is ``budget=1``.
    Returns the selected candidates, the number pulled when each was
    selected, and the total pulled.
    """
    selected: List[ScoredCandidate] = []
    pulled_at: List[int] = []
    pulled = 0
    stream = iter(candidates)
    while budget is None or len(selected) < budget:
        candidate = next(stream, None)
        if candidate is None:
            break
        pulled += 1
        if strategy.is_interesting(candidate.graph, candidate.predicted):
            strategy.commit(candidate.graph, candidate.predicted)
            selected.append(candidate)
            pulled_at.append(pulled)
    return selected, pulled_at, pulled
