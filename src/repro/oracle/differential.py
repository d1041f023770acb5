"""Differential conformance harness: declarative "fast == slow" checks.

Scattered across the test suite are equivalence assertions of the same
shape — the batched scorer must reproduce the per-graph scorer, the
worker pool must reproduce the serial runner, a journaled
campaign must replay byte-identically.  :class:`DifferentialRunner`
lifts that shape into one declarative API: register named checks as
``(reference thunk, candidate thunk, comparator)`` triples, run them
all, and get back a :class:`ConformanceReport` of structured
:class:`Mismatch` records instead of a bare ``assert``.

Every check and mismatch is wired into :mod:`repro.obs` (counters
``oracle.checks`` / ``oracle.mismatches`` and one ``oracle.mismatch``
event per discrepancy), so a conformance sweep inside a larger run
leaves an audit trail in the trace.

Comparators are plain callables ``(reference, candidate) -> [(field,
detail), ...]`` returning an *empty* list on agreement; the runner
stamps the check name onto each pair to build :class:`Mismatch`
records.  Factory helpers below pre-package the repo's three recurring
check families (scoring, execution runners, campaigns).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import OracleError

__all__ = [
    "Mismatch",
    "CheckOutcome",
    "ConformanceReport",
    "DifferentialRunner",
    "compare_equal",
    "compare_array_sequences",
    "compare_campaigns",
    "add_scoring_checks",
    "add_runner_checks",
    "add_campaign_check",
]

#: (field, detail) pairs; empty means the two values agree.
Comparator = Callable[[object, object], List[Tuple[str, str]]]

#: Campaign fields compared by :func:`compare_campaigns` — the exact set
#: the hand-written equivalence tests pinned before this harness existed.
CAMPAIGN_FIELDS: Tuple[str, ...] = (
    "history",
    "bug_history",
    "manifested_bugs",
    "ledger.executions",
    "ledger.inferences",
    "ledger.total_hours",
    "per_cti",
)


@dataclass(frozen=True)
class Mismatch:
    """One structured disagreement between reference and candidate."""

    check: str
    field: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"{self.check}: {self.field}: {self.detail}"


@dataclass(frozen=True)
class CheckOutcome:
    """The result of running a single registered check."""

    name: str
    mismatches: Tuple[Mismatch, ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches


@dataclass(frozen=True)
class ConformanceReport:
    """Aggregate of every check outcome from one :meth:`DifferentialRunner.run`."""

    runner: str
    outcomes: Tuple[CheckOutcome, ...]

    @property
    def passed(self) -> bool:
        return all(outcome.passed for outcome in self.outcomes)

    @property
    def mismatches(self) -> Tuple[Mismatch, ...]:
        return tuple(
            mismatch
            for outcome in self.outcomes
            for mismatch in outcome.mismatches
        )

    def summary(self) -> str:
        """Human-readable pass/fail roll-up, one line per check."""
        lines = [
            f"conformance[{self.runner}]: "
            f"{sum(o.passed for o in self.outcomes)}/{len(self.outcomes)} "
            "checks passed"
        ]
        for outcome in self.outcomes:
            status = "ok" if outcome.passed else "MISMATCH"
            lines.append(f"  {outcome.name}: {status}")
            for mismatch in outcome.mismatches:
                lines.append(f"    {mismatch.field}: {mismatch.detail}")
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        if not self.passed:
            raise OracleError(self.summary())


def _describe(value: object, limit: int = 120) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


# -- comparators ---------------------------------------------------------------


def compare_equal(reference: object, candidate: object) -> List[Tuple[str, str]]:
    """Plain ``==`` with a bounded repr diff on disagreement."""
    if reference == candidate:
        return []
    return [
        (
            "value",
            f"reference={_describe(reference)} candidate={_describe(candidate)}",
        )
    ]


def compare_array_sequences(atol: float = 1e-9) -> Comparator:
    """Element-wise comparison of two same-length sequences of arrays."""

    def compare(reference: object, candidate: object) -> List[Tuple[str, str]]:
        ref = list(reference)  # type: ignore[arg-type]
        cand = list(candidate)  # type: ignore[arg-type]
        if len(ref) != len(cand):
            return [("length", f"reference={len(ref)} candidate={len(cand)}")]
        problems: List[Tuple[str, str]] = []
        for index, (one, many) in enumerate(zip(ref, cand)):
            one = np.asarray(one)
            many = np.asarray(many)
            if one.shape != many.shape:
                problems.append(
                    (f"[{index}].shape", f"{one.shape} != {many.shape}")
                )
            elif not np.allclose(one, many, rtol=0.0, atol=atol):
                worst = float(np.max(np.abs(one - many))) if one.size else 0.0
                problems.append(
                    (f"[{index}]", f"max abs deviation {worst:g} > atol {atol:g}")
                )
        return problems

    return compare


def _lookup(value: object, dotted: str) -> object:
    for part in dotted.split("."):
        value = getattr(value, part)
    return value


def compare_campaigns(reference: object, candidate: object) -> List[Tuple[str, str]]:
    """Field-by-field :data:`CAMPAIGN_FIELDS` comparison of campaign results."""
    problems: List[Tuple[str, str]] = []
    for dotted in CAMPAIGN_FIELDS:
        one = _lookup(reference, dotted)
        many = _lookup(candidate, dotted)
        if one != many:
            problems.append(
                (dotted, f"reference={_describe(one)} candidate={_describe(many)}")
            )
    return problems


# -- the runner ----------------------------------------------------------------


@dataclass(frozen=True)
class _Check:
    name: str
    reference: Callable[[], object]
    candidate: Callable[[], object]
    comparator: Comparator = field(default=compare_equal)


class DifferentialRunner:
    """Collect named differential checks and run them as one report.

    Thunks are evaluated lazily at :meth:`run` time (reference first,
    then candidate), so registering a check costs nothing and expensive
    setups can be shared via closures.
    """

    def __init__(self, name: str = "conformance") -> None:
        self.name = name
        self._checks: List[_Check] = []

    def add(
        self,
        name: str,
        reference: Callable[[], object],
        candidate: Callable[[], object],
        comparator: Optional[Comparator] = None,
    ) -> "DifferentialRunner":
        """Register a check; returns ``self`` for chaining."""
        self._checks.append(
            _Check(name, reference, candidate, comparator or compare_equal)
        )
        return self

    def __len__(self) -> int:
        return len(self._checks)

    def run(self) -> ConformanceReport:
        """Evaluate every registered check, never short-circuiting.

        A later check still runs after an earlier one mismatches: the
        report is most useful when it shows the full agreement surface,
        not just the first crack in it.
        """
        outcomes: List[CheckOutcome] = []
        with obs.span("oracle.conformance", runner=self.name, checks=len(self._checks)):
            for check in self._checks:
                obs.add("oracle.checks")
                reference = check.reference()
                candidate = check.candidate()
                pairs = check.comparator(reference, candidate)
                mismatches = tuple(
                    Mismatch(check=check.name, field=where, detail=detail)
                    for where, detail in pairs
                )
                if mismatches:
                    obs.add("oracle.mismatches", len(mismatches))
                    for mismatch in mismatches:
                        obs.point(
                            "oracle.mismatch",
                            runner=self.name,
                            check=mismatch.check,
                            field=mismatch.field,
                            detail=mismatch.detail,
                        )
                outcomes.append(CheckOutcome(check.name, mismatches))
        return ConformanceReport(runner=self.name, outcomes=tuple(outcomes))


# -- standard check factories --------------------------------------------------


def add_scoring_checks(
    runner: DifferentialRunner,
    model,
    graphs: Sequence[object],
    atol: float = 1e-9,
) -> DifferentialRunner:
    """Batched model inference must reproduce one call per graph.

    Registers probability and boolean-prediction checks covering the
    invariants previously pinned ad hoc in ``tests/test_scoring.py``.
    """
    graphs = list(graphs)
    runner.add(
        "scoring.proba.batch_vs_single",
        lambda: [model.predict_proba(g) for g in graphs],
        lambda: model.predict_proba_batch(graphs),
        compare_array_sequences(atol),
    )
    runner.add(
        "scoring.predict.batch_vs_single",
        lambda: [np.asarray(model.predict(g)) for g in graphs],
        lambda: [np.asarray(p) for p in model.predict_batch(graphs)],
        compare_array_sequences(0.0),
    )
    return runner


def add_runner_checks(
    runner: DifferentialRunner,
    kernel,
    tasks: Sequence[object],
    workers: int = 2,
) -> DifferentialRunner:
    """Serial and pooled execution must agree.

    The serial runner is the reference; the (fault-free) worker pool is
    the candidate.  Results are ``ConcurrentResult`` dataclasses, so
    plain equality is the right comparator.
    """
    from repro.execution.parallel import make_runner

    tasks = list(tasks)

    def run_with(worker_count: int) -> object:
        pool = make_runner(worker_count)
        try:
            return pool.run_many(kernel, tasks)
        finally:
            pool.close()

    return runner.add(
        "execution.supervised_vs_serial",
        lambda: run_with(0),
        lambda: run_with(workers),
    )


def add_campaign_check(
    runner: DifferentialRunner,
    name: str,
    reference: Callable[[], object],
    candidate: Callable[[], object],
) -> DifferentialRunner:
    """A campaign-equivalence check using :func:`compare_campaigns`.

    ``reference``/``candidate`` are thunks returning campaign results —
    e.g. the same MLPCT campaign with ``score_batch_size=1`` vs ``32``,
    ``parallel_workers=0`` vs ``2``, or plain vs journal-resumed.
    """
    return runner.add(name, reference, candidate, compare_campaigns)
