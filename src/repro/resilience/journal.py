"""Campaign and continuous-testing journals: crash-safe progress + exact
resume, as record schemas over :mod:`repro.resilience.log`.

Long campaigns die — machines reboot, schedulers preempt, operators
Ctrl-C. A journaled run that is interrupted resumes exactly where it
stopped and finishes **byte-identical** to an uninterrupted one. The
durable mechanics (sealed records, the torn-tail rule, sealed checkpoint
documents, the header → units → checkpoint resume protocol) are the
log's; this module holds only what is campaign-shaped (operator view:
``docs/ROBUSTNESS.md``):

- :class:`CampaignJournal` — unit = one CTI. The header pins seed, CTI
  stream and the explorer's result-affecting settings; each ``cti``
  record carries the CTI's stats plus **audit digests** of the
  execution results (and, for MLPCT, of the scored
  predictions) that produced it, so divergence between a resumed run and
  its journal is detectable evidence rather than a silent franken-run;
  the checkpoint carries the explorer's ``state_dict()``. One file can
  hold several campaigns (the CLI journals the PCT baseline and the
  MLPCT run side by side), each label with its own checkpoint sidecar.
- :class:`ContinuousJournal` — unit = one kernel version; its checkpoint
  also names a checksummed model sidecar.
- JSON (de)serialisation of campaign results and continuous outcomes,
  and :func:`reset_journal`.
"""

from __future__ import annotations

import os
from dataclasses import asdict
from typing import Dict, List, Optional, Tuple

from repro.errors import CheckpointError, JournalError
from repro.resilience.atomic import canonical_json, fsync_directory, sha256_hex
from repro.resilience.log import UnitJournal

__all__ = [
    "CampaignJournal",
    "ContinuousJournal",
    "campaign_result_to_dict",
    "campaign_result_from_dict",
    "stats_to_dict",
    "stats_from_dict",
    "result_digest",
    "fold_prediction_digest",
    "reset_journal",
]


# -- digests ------------------------------------------------------------------


def result_digest(result) -> str:
    """Stable digest of one :class:`~repro.execution.trace
    .ConcurrentResult` (everything campaign accounting consumes)."""
    payload = {
        "covered": [sorted(blocks) for blocks in result.covered_blocks],
        "accesses": len(result.accesses),
        "bugs": [
            [event.step, event.thread, event.iid, event.block_id, event.kind]
            for event in result.bug_events
        ],
        "switches": result.num_switches,
        "hints_enforced": result.hints_enforced,
        "steps": result.steps,
        "completed": result.completed,
        "failure": result.failure,
    }
    return sha256_hex(canonical_json(payload))


def fold_prediction_digest(digest: str, proba, predicted) -> str:
    """Fold one scored prediction into a running digest.

    Either field may be ``None``: the engine materialises only what the
    consumer asked for (strategies consume boolean predictions, rankers
    consume probabilities).
    """
    if predicted is None:
        bits = "-"
    else:
        bits = "".join("1" if bool(flag) else "0" for flag in predicted)
    if proba is None:
        total_text = "-"
    else:
        try:
            total = float(proba)
        except TypeError:
            total = float(sum(float(p) for p in proba))
        total_text = f"{total:.12e}"
    return sha256_hex(f"{digest}|{total_text}|{bits}")


# -- serialization of campaign artefacts --------------------------------------
# Core types are imported lazily: repro.core.mlpct imports this package
# at module load, so a top-level import here would be circular.


def stats_to_dict(stats) -> Dict[str, object]:
    return {
        "executions": stats.executions,
        "inferences": stats.inferences,
        "new_races": stats.new_races,
        "new_blocks": stats.new_blocks,
        "manifested_bugs": sorted(stats.manifested_bugs),
    }


def stats_from_dict(payload: Dict[str, object]):
    from repro.core.mlpct import ExplorationStats

    return ExplorationStats(
        executions=int(payload["executions"]),
        inferences=int(payload["inferences"]),
        new_races=int(payload["new_races"]),
        new_blocks=int(payload["new_blocks"]),
        manifested_bugs=set(payload["manifested_bugs"]),
    )


def campaign_result_to_dict(result) -> Dict[str, object]:
    """Full JSON form of a :class:`~repro.core.mlpct.CampaignResult`.

    Exact: floats survive the JSON round-trip bit-for-bit, so two
    results are byte-identical iff their canonical JSON forms are.
    """
    ledger = result.ledger
    payload = {
        "label": result.label,
        "history": [list(point) for point in result.history],
        "ledger": {
            "startup_hours": ledger.startup_hours,
            "executions": ledger.executions,
            "inferences": ledger.inferences,
            "cost_model": {
                "execution_seconds": ledger.model.execution_seconds,
                "inference_seconds": ledger.model.inference_seconds,
                "training_step_seconds": ledger.model.training_step_seconds,
            },
        },
        "manifested_bugs": sorted(result.manifested_bugs),
        "bug_history": [list(point) for point in result.bug_history],
        "per_cti": [stats_to_dict(stats) for stats in result.per_cti],
        "resilience": result.resilience,
    }
    # Serialized only when present: results from campaigns that never saw
    # a model swap stay byte-identical to the historical form.
    if getattr(result, "swaps", None):
        payload["swaps"] = [dict(swap) for swap in result.swaps]
    return payload


def campaign_result_from_dict(payload: Dict[str, object]):
    from repro.core.costs import CostLedger, CostModel
    from repro.core.mlpct import CampaignResult

    ledger_payload = payload["ledger"]
    ledger = CostLedger(
        model=CostModel(**ledger_payload["cost_model"]),
        startup_hours=float(ledger_payload["startup_hours"]),
        executions=int(ledger_payload["executions"]),
        inferences=int(ledger_payload["inferences"]),
    )
    return CampaignResult(
        label=payload["label"],
        history=[tuple(point) for point in payload["history"]],
        ledger=ledger,
        manifested_bugs=set(payload["manifested_bugs"]),
        bug_history=[tuple(point) for point in payload["bug_history"]],
        per_cti=[stats_from_dict(stats) for stats in payload["per_cti"]],
        resilience=payload.get("resilience"),
        swaps=[dict(swap) for swap in payload.get("swaps", [])],
    )


def outcome_to_dict(outcome) -> Dict[str, object]:
    return {
        "version": outcome.version,
        "model_name": outcome.model_name,
        "startup_hours": outcome.startup_hours,
        "campaign": campaign_result_to_dict(outcome.campaign),
    }


def outcome_from_dict(payload: Dict[str, object]):
    from repro.core.continuous import VersionOutcome

    return VersionOutcome(
        version=payload["version"],
        model_name=payload["model_name"],
        startup_hours=float(payload["startup_hours"]),
        campaign=campaign_result_from_dict(payload["campaign"]),
    )


def _snowcat_config_from_dict(payload: Dict[str, object]):
    from repro.core.costs import CostModel
    from repro.core.mlpct import ExplorationConfig
    from repro.core.snowcat import SnowcatConfig
    from repro.resilience.supervisor import SupervisionPolicy

    data = dict(payload)
    exploration = dict(data["exploration"])
    if exploration.get("supervision") is not None:
        exploration["supervision"] = SupervisionPolicy(
            **exploration["supervision"]
        )
    data["exploration"] = ExplorationConfig(**exploration)
    data["costs"] = CostModel(**data["costs"])
    return SnowcatConfig(**data)


def _cti_stream_digest(ctis) -> str:
    # ":".join over the entries keeps two-thread digests byte-identical
    # to the historical "a:b" format while covering N-entry CTIs.
    return sha256_hex(
        ",".join(
            ":".join(str(entry.sti.sti_id) for entry in cti) for cti in ctis
        )
    )


#: The :class:`~repro.core.mlpct.ExplorationConfig` fields a journal
#: header binds: resuming under another value would splice two different
#: campaigns into one result. Deliberately unbound, being result-neutral:
#: ``score_batch_size``, ``parallel_workers``, ``supervision``,
#: ``fault_spec`` (a drill resumes without its ``die`` spec) — and the
#: model checkpoint, which a hot-swap legitimately changes mid-run.
_BOUND_SETTINGS = (
    "execution_budget",
    "inference_cap",
    "proposal_pool",
    "num_threads",
    "irq",
    "memory_model",
)


def _bound_settings(explorer) -> Dict[str, object]:
    return {name: getattr(explorer.config, name) for name in _BOUND_SETTINGS}


# -- campaign journal ---------------------------------------------------------


class CampaignJournal(UnitJournal):
    """Durable journal + resume for :func:`repro.core.mlpct.run_campaign`.

    Auto-resumes: constructing one over an existing journal file picks
    up whatever progress it holds; :meth:`prepare` validates that the
    resuming campaign matches the journaled one (label, seed, CTI
    stream, result-affecting settings) and restores the explorer's full
    state from the checkpoint.
    Use :func:`reset_journal` first to start over.
    """

    def prepare(self, explorer, ctis) -> Tuple[List[object], int]:
        """Validate/initialise the journal for ``explorer`` over ``ctis``.

        Returns ``(restored per-CTI stats, first CTI index to explore)``
        and, when resuming, loads the checkpointed state into the
        explorer. Raises :class:`~repro.errors.JournalError` if the
        journal belongs to a different campaign, and
        :class:`~repro.errors.CheckpointError` if the checkpoint sidecar
        is corrupt.
        """
        header: Dict[str, object] = {
            "seed": explorer.seed,
            "num_ctis": len(ctis),
            "ctis": _cti_stream_digest(ctis),
        }
        written = self._records_of(explorer.label, "header")
        if not written or "settings" in written[0]:
            # A header from before settings were bound cannot be checked:
            # it resumes on seed and CTI stream alone, as it always did.
            header["settings"] = _bound_settings(explorer)
        records, state = self.resume(explorer.label, "cti", header)
        if state is not None:
            explorer.load_state(state)
        return [stats_from_dict(record["stats"]) for record in records], len(records)

    def record_cti(
        self, label: str, index: int, plan, state: Dict[str, object]
    ) -> None:
        """Commit one completed CTI: journal record, then checkpoint.

        ``plan`` is the folded :class:`~repro.core.mlpct.CTIPlan` (its
        stats, audit and captured labels go into the record); ``state``
        is the explorer state as of this CTI — the live ``state_dict()``
        for the inline driver, while the fleet coordinator, whose
        selection runs ahead of its fold, composes exactly what a
        sequential run would have snapshot after this CTI.
        """
        audit = plan.audit
        results = audit["results"]
        fields: Dict[str, object] = {
            "stats": stats_to_dict(plan.stats),
            "audit": {
                "executed": len(results),
                "results_digest": sha256_hex("".join(results)),
                "scored": audit["scored"],
                "scored_digest": audit["scored_digest"],
            },
        }
        # Opt-in label capture for the continuous-learning tailer. The
        # field is omitted entirely when capture is off, keeping journal
        # bytes unchanged.
        if plan.labels:
            fields["labels"] = plan.labels
        self.commit(label, "cti", index, fields, state)


# -- continuous-testing journal -----------------------------------------------


class ContinuousJournal(UnitJournal):
    """Durable journal + resume for :func:`repro.core.continuous
    .run_continuous`.

    The unit of work is one kernel version. The checkpoint carries
    everything the next version's policy decision needs: the completed
    outcomes (in the journal), and — when a model exists — the trained
    deployment's config, vocabulary, accumulated startup hours, and the
    model itself (a checksummed sidecar ``.npz``). A version interrupted
    mid-flight is simply redone; every stage is deterministic.
    """

    LABEL = "continuous"

    def model_path(self, index: int) -> str:
        return f"{self.path}.model.{index}.npz"

    def prepare(self, versions, config) -> Tuple[List[object], int, object]:
        """Returns ``(restored outcomes, first version index, restored
        Snowcat deployment or None)``."""
        records, state = self.resume(
            self.LABEL,
            "version",
            {
                "policy": config.policy,
                "num_versions": len(versions),
                "versions": sha256_hex(",".join(k.version for k in versions)),
                "config": sha256_hex(canonical_json(asdict(config))),
            },
        )
        outcomes = [outcome_from_dict(record["outcome"]) for record in records]
        return outcomes, len(records), self._restore_current(state, versions)

    def _restore_current(self, state: Optional[Dict[str, object]], versions):
        payload = state and state.get("current")
        if not payload:
            return None
        from repro.core.snowcat import Snowcat
        from repro.graphs.dataset import GraphDatasetBuilder
        from repro.graphs.tokens import Vocabulary
        from repro.ml.pic import PICModel

        cfg = _snowcat_config_from_dict(payload["snowcat_config"])
        version = payload["trained_version"]
        kernel = next((k for k in versions if k.version == version), None)
        if kernel is None:
            raise JournalError(
                f"journal {self.path!r} references kernel version "
                f"{version!r}, absent from the supplied version stream"
            )
        model_path = os.path.join(
            os.path.dirname(self.path) or ".", payload["model_path"]
        )
        try:
            with open(model_path, "rb") as handle:
                model_bytes = handle.read()
        except OSError as error:
            raise CheckpointError(
                f"cannot read model checkpoint {model_path!r}: {error}"
            ) from None
        if sha256_hex(model_bytes) != payload["model_checksum"]:
            raise CheckpointError(
                f"model checkpoint {model_path!r} failed checksum "
                "verification (corrupt or truncated)"
            )
        deployment = Snowcat(kernel, cfg)
        vocabulary = Vocabulary(
            token_to_id={
                token: index
                for index, token in enumerate(payload["vocabulary"])
            }
        )
        deployment.graphs = GraphDatasetBuilder(
            kernel, seed=cfg.seed, vocabulary=vocabulary
        )
        deployment.startup_hours = float(payload["startup_hours"])
        deployment.model = PICModel.load(model_path)
        return deployment

    def record_version(self, position: int, outcome, current) -> None:
        """Commit one completed version (saving the trained model, when
        one exists, before the record and checkpoint that name it)."""
        state: Dict[str, object] = {"current": None}
        if current is not None:
            model_path = self.model_path(position)
            current.require_model().save(model_path)
            with open(model_path, "rb") as handle:
                model_checksum = sha256_hex(handle.read())
            vocabulary = current.graphs.vocabulary
            tokens = sorted(vocabulary.token_to_id, key=vocabulary.token_to_id.get)
            state["current"] = {
                "snowcat_config": asdict(current.config),
                "trained_version": current.kernel.version,
                "startup_hours": current.startup_hours,
                "vocabulary": tokens,
                "model_path": os.path.basename(model_path),
                "model_checksum": model_checksum,
            }
        self.commit(
            self.LABEL,
            "version",
            position,
            {"outcome": outcome_to_dict(outcome)},
            state,
        )


def reset_journal(path: str) -> None:
    """Remove a journal and all its sidecars (checkpoints, saved models,
    temp files a crash mid-atomic-write left behind)."""
    path = str(path)
    directory = os.path.dirname(path) or "."
    prefix = os.path.basename(path) + "."
    if os.path.exists(path):
        os.unlink(path)
    try:
        entries = os.listdir(directory)
    except OSError:
        return
    for entry in entries:
        if entry.startswith(prefix) and entry.endswith((".ckpt", ".npz", ".tmp")):
            try:
                os.unlink(os.path.join(directory, entry))
            except OSError:  # pragma: no cover - racing deletion
                pass
    fsync_directory(directory)
