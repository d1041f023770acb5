"""The fine-tune worker: the engine of the continuous-learning loop.

One :meth:`FineTuneWorker.run_once` call is one *cycle*:

1. **trigger** — enough fresh labels accumulated in the
   :class:`~repro.learn.labels.LabelStore` since the last cycle
   (``LearnConfig.min_labels``), otherwise the call is a cheap no-op;
2. **train** — fork the registry's active model
   (:func:`~repro.ml.training.fine_tune_with_replay`) on a sliding
   window of fresh labels mixed with replay examples drawn from the
   original training distribution;
3. **gate** — :func:`~repro.learn.promote.evaluate_candidate` on a
   fresh-label holdout (plus optionally the golden pipeline);
4. **promote or quarantine** — publish-and-activate into the
   :class:`~repro.serve.registry.ModelRegistry`, or write a structured
   quarantine report; the registry is untouched on failure.

Every stage boundary is journaled (``<root>/learn.journal``, the same
checksummed write-ahead file campaigns use), so SIGKILL at any point
resumes deterministically: the cycle record pins the training window
(explicit label-id list), the base version, and the candidate name; the
trained record pins the candidate checkpoint's content checksum; retrain
after a crash reproduces the identical checkpoint because every input
is pinned and every stage is deterministic.

The worker's only nondeterministic output is the ``learn.json`` status
heartbeat (a :class:`~repro.obs.export.HeartbeatWriter` snapshot, role
``learn``, that ``repro top DIR`` renders) — observability, never
consumed by the deterministic path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro import rng as rngmod
from repro.errors import CheckpointError, ServeError
from repro.execution.concurrent import ScheduleHint
from repro.execution.pct import propose_hint_pairs
from repro.graphs.dataset import CTExample
from repro.learn.labels import LabelStore
from repro.learn.promote import evaluate_candidate, publish_candidate, quarantine
from repro.ml.pic import PICModel
from repro.ml.training import TrainingConfig, fine_tune_with_replay
from repro.obs.export import HeartbeatWriter
from repro.resilience.log import SealedLog

__all__ = ["LearnConfig", "FineTuneWorker", "STATUS_NAME"]

JOURNAL_NAME = "learn.journal"
STATUS_NAME = "learn.json"


@dataclass(frozen=True)
class LearnConfig:
    """Knobs of the continuous-learning worker."""

    #: Fresh labels (since the last cycle started) that trigger a cycle.
    min_labels: int = 8
    #: Sliding training window: the most recent N labels.
    window: int = 256
    #: Fine-tuning schedule.
    epochs: int = 2
    learning_rate: float = 1e-3
    #: Every k-th window example is held out for the gate (never trained on).
    holdout_every: int = 4
    seed: int = 0
    #: Gate rule: candidate AP must be >= active AP + min_gain. The
    #: slightly negative default tolerates holdout noise; a large
    #: positive value forces a quarantine (CI's injected regression).
    min_gain: float = -0.05
    #: Replay CTIs labelled from the deployment's own distribution to
    #: anchor against catastrophic forgetting; schedules per CTI fixed at 2.
    replay_ctis: int = 2
    #: Also require the pinned golden ``repro quality`` gate (only
    #: meaningful for vocabulary-compatible candidates).
    golden_gate: bool = False


class FineTuneWorker:
    """Journal-backed, crash-safe fine-tune/gate/promote worker.

    ``snowcat`` must be the same deployment the journaled campaigns ran
    (build both through :meth:`repro.core.snowcat.Snowcat.standard`):
    label records reference corpus entries by ``sti_id``, and only an
    identically seeded corpus maps them back onto the same programs.

    ``pause`` is a test hook called with a stage name (``"cycle"``,
    ``"trained"``, ``"gate"``) right after that stage's journal record
    commits — the SIGKILL drill stops the process there.
    """

    def __init__(
        self,
        root: str,
        store: LabelStore,
        registry,
        snowcat,
        config: Optional[LearnConfig] = None,
        pause: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.store = store
        self.registry = registry
        self.snowcat = snowcat
        self.config = config or LearnConfig()
        self.journal = SealedLog(os.path.join(self.root, JOURNAL_NAME))
        self.candidates_dir = os.path.join(self.root, "candidates")
        os.makedirs(self.candidates_dir, exist_ok=True)
        self._pause_hook = pause
        self._status = HeartbeatWriter(
            self.status_path, interval=0.0, role="learn"
        )
        self._status.begin(
            f"learn:{os.path.basename(self.root)}", total=0, done=store.count
        )

    # -- journal bookkeeping --------------------------------------------------

    def _cycles(self) -> Dict[int, Dict[str, Dict[str, object]]]:
        cycles: Dict[int, Dict[str, Dict[str, object]]] = {}
        for record in self.journal.records:
            cycles.setdefault(int(record["cycle"]), {})[
                str(record["kind"])
            ] = record
        return cycles

    @staticmethod
    def _terminal(state: Dict[str, Dict[str, object]]) -> Optional[str]:
        for kind in ("promoted", "quarantined"):
            if kind in state:
                return kind
        return None

    def _pause(self, stage: str) -> None:
        if self._pause_hook is not None:
            self._pause_hook(stage)

    # -- status heartbeat -----------------------------------------------------

    @property
    def status_path(self) -> str:
        return os.path.join(self.root, STATUS_NAME)

    def _report(
        self, stage: str, cycle: Optional[int] = None, candidate: str = "-"
    ) -> None:
        active = self.registry.active_version
        self._status.update(
            done=self.store.count,
            force=True,
            detail=f"{stage}, cycle {'-' if cycle is None else cycle}, "
            f"candidate {candidate}, {self.store.count} labels, active {active}",
            stage=stage,
            active_version=active,
        )

    # -- dataset reconstruction -----------------------------------------------

    def _examples_from_labels(
        self, labels: Sequence[Dict[str, object]]
    ) -> Tuple[List[CTExample], int]:
        """Rebuild labelled CT graphs from stored label payloads.

        Labels referencing STIs outside this deployment's corpus (a
        journal from a differently seeded campaign) are skipped and
        counted, never guessed at.
        """
        corpus = {
            int(entry.sti.sti_id): entry
            for entry in self.snowcat.graphs.corpus.entries
        }
        examples: List[CTExample] = []
        skipped = 0
        for record in labels:
            entries = []
            for sti in record["sti"]:
                entry = corpus.get(int(sti))
                if entry is None:
                    break
                entries.append(entry)
            if len(entries) != len(record["sti"]):
                skipped += 1
                continue
            hints = [
                ScheduleHint(thread=int(thread), iid=int(iid))
                for thread, iid in record["hints"]
            ]
            graph = self.snowcat.graphs.graph_for(*entries, hints)
            covered = [
                set(int(block) for block in blocks)
                for blocks in record["covered"]
            ]
            labels_array = np.zeros(graph.num_nodes, dtype=np.float64)
            for index in range(graph.num_nodes):
                thread = int(graph.node_threads[index])
                block = int(graph.node_blocks[index])
                if thread < len(covered) and block in covered[thread]:
                    labels_array[index] = 1.0
            examples.append(CTExample(graph=graph, labels=labels_array))
        return examples, skipped

    def _replay_examples(self) -> List[CTExample]:
        """Replay anchor set, built purely (own RNG streams, never the
        dataset builder's stateful one) so a resumed cycle reproduces it
        bit-for-bit."""
        if self.config.replay_ctis <= 0:
            return []
        rng = rngmod.split(self.config.seed, "learn-replay-hints")
        examples: List[CTExample] = []
        for entry_a, entry_b in self.snowcat.cti_stream(
            self.config.replay_ctis, "learn-replay"
        ):
            for pair in propose_hint_pairs(rng, entry_a.trace, entry_b.trace, 2):
                examples.append(
                    self.snowcat.graphs.label_ct(
                        entry_a, entry_b, list(pair), keep_result=False
                    )
                )
        return examples

    # -- candidate checkpoints ------------------------------------------------

    def candidate_path(self, name: str) -> str:
        return os.path.join(self.candidates_dir, f"{name}.npz")

    @staticmethod
    def _embedded_checksum(path: str) -> Optional[str]:
        """The content checksum :meth:`PICModel.save` embedded, or
        ``None`` for a missing/unreadable file. Raw ``.npz`` bytes are
        not deterministic (zip timestamps); the embedded checksum is."""
        if not os.path.exists(path):
            return None
        try:
            with np.load(path) as archive:
                return str(np.asarray(archive["__checksum__"]).ravel()[0])
        except Exception:
            return None

    # -- the cycle ------------------------------------------------------------

    def run_once(self) -> Optional[Dict[str, object]]:
        """Run (or resume) at most one cycle; ``None`` when not triggered."""
        cycles = self._cycles()
        if cycles:
            last = max(cycles)
            state = cycles[last]
            if self._terminal(state) is None:
                return self._run_cycle(last, state)
            last_total = int(state["cycle"]["total_labels"])
            next_cycle = last + 1
        else:
            last_total = 0
            next_cycle = 1
        fresh = self.store.count - last_total
        if fresh < self.config.min_labels:
            self._report("idle")
            return None
        return self._run_cycle(next_cycle, {})

    def _run_cycle(
        self, cycle: int, state: Dict[str, Dict[str, object]]
    ) -> Dict[str, object]:
        start = state.get("cycle")
        if start is None:
            base = self.registry.active_version
            if base is None:
                raise ServeError(
                    "continuous learning needs an active base model; "
                    "publish one first (repro learn publish)"
                )
            start = {
                "kind": "cycle",
                "cycle": cycle,
                "base": base,
                "candidate": f"ft-c{cycle}",
                "window": [
                    str(record["id"])
                    for record in self.store.window(self.config.window)
                ],
                "total_labels": self.store.count,
            }
            self.journal.append(start)
        base = str(start["base"])
        candidate_name = str(start["candidate"])
        self._report("training", cycle, candidate_name)
        self._pause("cycle")

        by_id = {str(record["id"]): record for record in self.store.labels}
        window = [by_id[i] for i in start["window"] if i in by_id]
        examples, skipped = self._examples_from_labels(window)
        every = max(self.config.holdout_every, 1)
        holdout = examples[::every]
        train = [ex for idx, ex in enumerate(examples) if idx % every != 0]
        if not train:
            train, holdout = list(examples), list(examples)
        replay = self._replay_examples()

        path = self.candidate_path(candidate_name)
        trained = state.get("trained")
        checksum = self._embedded_checksum(path)
        if trained is not None and checksum == trained["checksum"]:
            candidate = PICModel.load(path, seed=self.config.seed)
        else:
            base_model = self.registry.load(base, seed=self.config.seed)
            result = fine_tune_with_replay(
                base_model,
                train,
                replay,
                holdout,
                config=TrainingConfig(
                    epochs=self.config.epochs,
                    learning_rate=self.config.learning_rate,
                    seed=rngmod.derive_seed(
                        self.config.seed, f"learn:{cycle}:{base}"
                    ),
                ),
                name=candidate_name,
            )
            candidate = result.model
            candidate.save(path)
            checksum = self._embedded_checksum(path)
            if trained is None:
                self.journal.append(
                    {
                        "kind": "trained",
                        "cycle": cycle,
                        "candidate": candidate_name,
                        "checksum": checksum,
                    }
                )
            elif checksum != trained["checksum"]:
                raise CheckpointError(
                    f"resumed cycle {cycle} retrained candidate "
                    f"{candidate_name!r} to checksum {checksum} but the "
                    f"journal pinned {trained['checksum']}: training "
                    "inputs changed under the journal"
                )
        self._pause("trained")

        gate = state.get("gate")
        if gate is None:
            active_model = self.registry.load(base, seed=self.config.seed)
            report = evaluate_candidate(
                candidate,
                active_model,
                holdout,
                base_version=base,
                candidate_name=candidate_name,
                min_gain=self.config.min_gain,
                golden=self.config.golden_gate,
            )
            gate = {
                "kind": "gate",
                "cycle": cycle,
                "passed": report.passed,
                "report": report.to_dict(),
            }
            self.journal.append(gate)
        self._pause("gate")

        if bool(gate["passed"]):
            record = publish_candidate(self.registry, candidate, candidate_name)
            self.journal.append(
                {
                    "kind": "promoted",
                    "cycle": cycle,
                    "candidate": candidate_name,
                    "version": record.version,
                }
            )
            outcome = "promoted"
            obs.point(
                "learn.promote", cycle=cycle, candidate=candidate_name, base=base
            )
        else:
            report_path = quarantine(self.root, candidate_name, dict(gate["report"]))
            self.journal.append(
                {
                    "kind": "quarantined",
                    "cycle": cycle,
                    "candidate": candidate_name,
                    "report": report_path,
                }
            )
            outcome = "quarantined"
        summary: Dict[str, object] = {
            "cycle": cycle,
            "outcome": outcome,
            "candidate": candidate_name,
            "base": base,
            "examples": len(examples),
            "holdout": len(holdout),
            "replay": len(replay),
            "skipped_labels": skipped,
            "candidate_ap": gate["report"]["candidate_ap"],
            "active_ap": gate["report"]["active_ap"],
        }
        self._report(outcome, cycle, candidate_name)
        return summary

    def close(self) -> None:
        self.journal.close()
