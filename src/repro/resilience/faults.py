"""Deterministic fault-injection plans.

Real kernel concurrency testing runs on a substrate that fails
constantly: worker VMs crash, executions hang, transient I/O errors
abort runs. The recovery machinery in :mod:`repro.resilience` is tested
against *seeded fault plans* that reproduce exactly those failures at
chosen points — the same seed and spec always injects the same faults,
so recovery tests and ``--inject-faults`` soak runs are reproducible.

Spec grammar (entries are comma-separated)::

    spec     := entry ("," entry)*
    entry    := kind ":" rate          -- inject with probability `rate`
              | kind "@" index         -- inject at exact task `index`
    kind     := crash | hang | transient | poison | die

Kinds:

- ``crash``     — the worker process executing the CT dies (a real
  ``os._exit`` in a supervised worker process; in serial mode the
  supervisor charges a worker death, which may engage fallback, and
  retries);
- ``hang``      — the execution never finishes (a real sleep past the
  supervision timeout in a worker, an immediate timeout in serial mode);
- ``transient`` — the execution raises an :class:`~repro.errors
  .ExecutionError` that does not recur on retry;
- ``poison``    — the CT fails on *every* attempt, so the supervisor
  must quarantine it (index form only);
- ``die``       — the campaign process itself exits abruptly
  (``os._exit(137)``, the SIGKILL exit status) when the given task is
  dispatched; used by crash-recovery tests (index form only).

Rate-based faults fire on the first attempt of a task only (retries
succeed); ``poison`` fires on all attempts. Decisions are a pure
function of ``(seed, kind, task index)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro import rng as rngmod
from repro.errors import FaultSpecError

__all__ = ["InjectedFault", "FaultPlan", "FAULT_KINDS"]

FAULT_KINDS = ("crash", "hang", "transient", "poison", "die")

#: Denominator for hash-fraction fault decisions.
_FRACTION_BITS = 2**53


@dataclass(frozen=True)
class InjectedFault:
    """One fault the plan injects into one execution attempt."""

    kind: str  # crash | hang | transient
    task_index: int


@dataclass(frozen=True)
class FaultPlan:
    """A parsed, seeded fault plan.

    Immutable and cheap to share: supervised runners consult
    :meth:`fault_for` per (task, attempt) and :meth:`should_die` per
    dispatched task.
    """

    seed: int
    spec: str
    rates: Tuple[Tuple[str, float], ...] = ()
    exact: Tuple[Tuple[str, int], ...] = ()

    @staticmethod
    def parse(spec: str, seed: int = 0) -> "FaultPlan":
        """Parse ``spec`` (see the module docstring for the grammar)."""
        rates: List[Tuple[str, float]] = []
        exact: List[Tuple[str, int]] = []
        for raw_entry in spec.split(","):
            entry = raw_entry.strip()
            if not entry:
                continue
            if ":" in entry:
                kind, _, value = entry.partition(":")
                kind = kind.strip()
                if kind not in ("crash", "hang", "transient"):
                    raise FaultSpecError(
                        f"fault kind {kind!r} does not take a rate "
                        "(rates apply to crash, hang, transient)"
                    )
                try:
                    rate = float(value)
                except ValueError:
                    raise FaultSpecError(
                        f"invalid fault rate {value!r} in {entry!r}"
                    ) from None
                if not 0.0 <= rate <= 1.0:
                    raise FaultSpecError(
                        f"fault rate must be in [0, 1], got {rate} in {entry!r}"
                    )
                rates.append((kind, rate))
            elif "@" in entry:
                kind, _, value = entry.partition("@")
                kind = kind.strip()
                if kind not in FAULT_KINDS:
                    raise FaultSpecError(
                        f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
                    )
                try:
                    index = int(value)
                except ValueError:
                    raise FaultSpecError(
                        f"invalid task index {value!r} in {entry!r}"
                    ) from None
                if index < 0:
                    raise FaultSpecError(f"task index must be >= 0 in {entry!r}")
                exact.append((kind, index))
            else:
                raise FaultSpecError(
                    f"cannot parse fault entry {entry!r}; "
                    "expected 'kind:rate' or 'kind@index'"
                )
        return FaultPlan(seed=seed, spec=spec, rates=tuple(rates), exact=tuple(exact))

    # -- decisions -----------------------------------------------------------

    def _fraction(self, kind: str, task_index: int) -> float:
        derived = rngmod.derive_seed(self.seed, f"fault:{kind}:{task_index}")
        return (derived % _FRACTION_BITS) / _FRACTION_BITS

    def should_die(self, task_index: int) -> bool:
        """Whether the campaign process must die dispatching this task."""
        return any(
            kind == "die" and index == task_index for kind, index in self.exact
        )

    def fault_for(self, task_index: int, attempt: int) -> Optional[InjectedFault]:
        """The fault (if any) to inject into this execution attempt.

        ``attempt`` counts from 0; rate faults and exact crash/hang/
        transient faults fire only on attempt 0, ``poison`` on every
        attempt (forcing quarantine).
        """
        for kind, index in self.exact:
            if index != task_index or kind == "die":
                continue
            if kind == "poison":
                return InjectedFault(kind="transient", task_index=task_index)
            if attempt == 0:
                return InjectedFault(kind=kind, task_index=task_index)
        if attempt == 0:
            for kind, rate in self.rates:
                if rate > 0.0 and self._fraction(kind, task_index) < rate:
                    return InjectedFault(kind=kind, task_index=task_index)
        return None

    def preview(self, num_tasks: int) -> Dict[int, str]:
        """First-attempt fault per task index over ``num_tasks`` tasks.

        Determinism helper for tests and soak-run reports: the same plan
        always previews identically.
        """
        plan: Dict[int, str] = {}
        for task_index in range(num_tasks):
            if self.should_die(task_index):
                plan[task_index] = "die"
                continue
            fault = self.fault_for(task_index, 0)
            if fault is not None:
                plan[task_index] = fault.kind
        return plan

    @property
    def poisoned(self) -> Set[int]:
        return {index for kind, index in self.exact if kind == "poison"}
