"""Durable campaign journal: crash-safe progress + exact resume.

Long campaigns die — machines reboot, schedulers preempt, operators
Ctrl-C. This module makes campaign progress durable so an interrupted
run resumes exactly where it stopped and finishes **byte-identical** to
an uninterrupted one.

Design (see ``docs/ROBUSTNESS.md`` for the operator view):

- **Write-ahead journal** — one append-only JSON-lines file. Every
  record carries a SHA-256 checksum over its canonical JSON; appends are
  flushed and fsynced before the campaign proceeds. On open, a torn or
  corrupt *final* line (the signature of a crash mid-append) is silently
  truncated; corruption anywhere earlier is refused with a
  :class:`~repro.errors.JournalError` — a journal never lies quietly.
- **Atomic checkpoints** — after each completed unit of work (a CTI for
  campaigns, a kernel version for continuous testing) the full resumable
  state is written to a checksummed sidecar file via temp+fsync+rename.
  The checkpoint is the *commit point*: on resume, a journal record with
  no matching checkpoint (crash between append and checkpoint) is
  dropped and that unit of work is redone deterministically.
- **Audit digests** — each journal record carries digests of the
  execution results (and, for MLPCT, of the scored predictions) that
  produced it, so divergence between a resumed run and its journal is
  detectable evidence rather than a silent franken-run.

One journal file can hold several campaigns (the CLI journals the PCT
baseline and the MLPCT run side by side); records are namespaced by the
campaign label, and each label gets its own checkpoint sidecar.
"""

from __future__ import annotations

import json
import os
import re
from typing import IO, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import CheckpointError, JournalError
from repro.resilience.atomic import (
    atomic_write_text,
    canonical_json,
    fsync_directory,
    sha256_hex,
)

__all__ = [
    "JOURNAL_SCHEMA",
    "CampaignJournal",
    "ContinuousJournal",
    "JournalFile",
    "campaign_result_to_dict",
    "campaign_result_from_dict",
    "stats_to_dict",
    "stats_from_dict",
    "result_digest",
    "fold_prediction_digest",
    "read_journal_tolerant",
    "reset_journal",
]

JOURNAL_SCHEMA = 1


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


# -- record framing -----------------------------------------------------------


def _sealed(record: Dict[str, object]) -> Dict[str, object]:
    sealed = dict(record)
    sealed["sum"] = sha256_hex(canonical_json(record))
    return sealed


def _verify(record) -> Optional[Dict[str, object]]:
    if not isinstance(record, dict) or "sum" not in record:
        return None
    body = {key: value for key, value in record.items() if key != "sum"}
    if sha256_hex(canonical_json(body)) != record["sum"]:
        return None
    return body


class _JournalFile:
    """One append-only JSON-lines journal with per-record checksums.

    Write-ahead semantics: every append is flushed and fsynced before
    the caller proceeds. On open, a torn or corrupt *final* line is
    discarded and the file truncated back to its valid prefix (that is
    what a crash mid-append leaves behind); corruption anywhere earlier
    means the journal cannot be trusted and is refused.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.records: List[Dict[str, object]] = self._load()
        self._handle: IO[bytes] = open(self.path, "ab")

    def _load(self) -> List[Dict[str, object]]:
        if not os.path.exists(self.path):
            return []
        with open(self.path, "rb") as handle:
            data = handle.read()
        lines = data.split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()
        records: List[Dict[str, object]] = []
        valid_bytes = 0
        for position, line in enumerate(lines):
            try:
                body = _verify(json.loads(line.decode("utf-8")))
            except (ValueError, UnicodeDecodeError):
                body = None
            if body is None:
                if position == len(lines) - 1:
                    break  # torn tail from a crash mid-append: discard
                raise JournalError(
                    f"corrupt journal record at line {position + 1} of "
                    f"{self.path}"
                )
            records.append(body)
            valid_bytes += len(line) + 1
        if valid_bytes != len(data):
            with open(self.path, "r+b") as handle:
                handle.truncate(valid_bytes)
                handle.flush()
                os.fsync(handle.fileno())
        return records

    def append(self, record: Dict[str, object]) -> None:
        line = canonical_json(_sealed(record)) + "\n"
        self._handle.write(line.encode("utf-8"))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.records.append(record)

    def rewrite(self, records: List[Dict[str, object]]) -> None:
        """Atomically replace the whole file (dropping uncommitted tails)."""
        self._handle.close()
        text = "".join(canonical_json(_sealed(r)) + "\n" for r in records)
        atomic_write_text(self.path, text)
        self.records = list(records)
        self._handle = open(self.path, "ab")

    def close(self) -> None:
        self._handle.close()


#: Public alias — consumers outside this package (the learn label store)
#: reuse the checksummed append-only file without reaching for a private
#: name.
JournalFile = _JournalFile


def read_journal_tolerant(path: str) -> Tuple[List[Dict[str, object]], bool]:
    """Read a journal's valid prefix **without mutating the file**.

    Unlike opening a :class:`JournalFile` (which truncates a torn tail in
    place), this is safe against a journal another process is actively
    appending to: a half-written final line is simply not returned yet.
    Returns ``(records, torn)`` where ``torn`` reports whether a torn or
    corrupt final line was skipped. Corruption before the final line
    still raises :class:`~repro.errors.JournalError`.
    """
    if not os.path.exists(path):
        return [], False
    with open(path, "rb") as handle:
        data = handle.read()
    lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    records: List[Dict[str, object]] = []
    torn = False
    for position, line in enumerate(lines):
        try:
            body = _verify(json.loads(line.decode("utf-8")))
        except (ValueError, UnicodeDecodeError):
            body = None
        if body is None:
            if position == len(lines) - 1:
                torn = True
                break
            raise JournalError(
                f"corrupt journal record at line {position + 1} of {path}"
            )
        records.append(body)
    return records, torn


# -- checkpoints --------------------------------------------------------------


def _write_checkpoint(path: str, body: Dict[str, object]) -> None:
    payload = dict(body)
    payload["checksum"] = sha256_hex(canonical_json(body))
    atomic_write_text(path, json.dumps(payload, sort_keys=True))


def _read_checkpoint(path: str) -> Dict[str, object]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as error:
        raise CheckpointError(
            f"cannot read checkpoint {path!r}: {error}"
        ) from None
    if not isinstance(payload, dict) or "checksum" not in payload:
        raise CheckpointError(f"checkpoint {path!r} has no checksum")
    checksum = payload.pop("checksum")
    if sha256_hex(canonical_json(payload)) != checksum:
        raise CheckpointError(
            f"checkpoint {path!r} failed checksum verification "
            "(corrupt or truncated)"
        )
    return payload


def _sanitize(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", label)


def _cti_stream_digest(ctis) -> str:
    # ":".join over the entries keeps two-thread digests byte-identical
    # to the historical "a:b" format while covering N-entry CTIs.
    return sha256_hex(
        ",".join(
            ":".join(str(entry.sti.sti_id) for entry in cti) for cti in ctis
        )
    )


# -- campaign journal ---------------------------------------------------------


class CampaignJournal:
    """Durable journal + resume for :func:`repro.core.mlpct.run_campaign`.

    Auto-resumes: constructing one over an existing journal file picks
    up whatever progress it holds; :meth:`prepare` validates that the
    resuming campaign matches the journaled one (label, seed, CTI
    stream) and restores the explorer's full state from the checkpoint.
    Use :func:`reset_journal` first to start over.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._file = _JournalFile(self.path)

    @property
    def records(self) -> List[Dict[str, object]]:
        return list(self._file.records)

    def checkpoint_path(self, label: str) -> str:
        return f"{self.path}.{_sanitize(label)}.ckpt"

    def _label_records(self, label: str, kind: str) -> List[Dict[str, object]]:
        return [
            record
            for record in self._file.records
            if record.get("c") == label and record.get("kind") == kind
        ]

    def prepare(self, explorer, ctis) -> Tuple[List[object], int]:
        """Validate/initialise the journal for ``explorer`` over ``ctis``.

        Returns ``(restored per-CTI stats, first CTI index to explore)``
        and, when resuming, loads the checkpointed state into the
        explorer. Raises :class:`~repro.errors.JournalError` if the
        journal belongs to a different campaign, and
        :class:`~repro.errors.CheckpointError` if the checkpoint sidecar
        is corrupt.
        """
        label = explorer.label
        digest = _cti_stream_digest(ctis)
        headers = self._label_records(label, "header")
        if not headers:
            if self._label_records(label, "cti"):
                raise JournalError(
                    f"journal {self.path!r} holds CTI records for {label!r} "
                    "but no header"
                )
            self._file.append(
                {
                    "c": label,
                    "kind": "header",
                    "schema": JOURNAL_SCHEMA,
                    "seed": explorer.seed,
                    "num_ctis": len(ctis),
                    "ctis": digest,
                }
            )
            return [], 0
        if len(headers) > 1:
            raise JournalError(
                f"journal {self.path!r} holds duplicate headers for "
                f"campaign {label!r}"
            )
        header = headers[0]
        if header.get("schema") != JOURNAL_SCHEMA:
            raise JournalError(
                f"journal {self.path!r} has schema {header.get('schema')}, "
                f"this build reads schema {JOURNAL_SCHEMA}"
            )
        if (
            header.get("seed") != explorer.seed
            or header.get("num_ctis") != len(ctis)
            or header.get("ctis") != digest
        ):
            raise JournalError(
                f"journal {self.path!r} was written by a different campaign "
                f"(seed or CTI stream mismatch for {label!r}); refusing to "
                "resume"
            )
        cti_records = self._label_records(label, "cti")
        for expected, record in enumerate(cti_records):
            if record.get("index") != expected:
                raise JournalError(
                    f"journal {self.path!r} has out-of-order CTI records "
                    f"for {label!r}"
                )
        completed = 0
        state = None
        ckpt_path = self.checkpoint_path(label)
        if os.path.exists(ckpt_path):
            ckpt = _read_checkpoint(ckpt_path)
            if ckpt.get("schema") != JOURNAL_SCHEMA or ckpt.get("label") != label:
                raise JournalError(
                    f"checkpoint {ckpt_path!r} does not belong to campaign "
                    f"{label!r}"
                )
            completed = int(ckpt["cti_index"]) + 1
            state = ckpt["state"]
        if len(cti_records) < completed:
            raise JournalError(
                f"journal {self.path!r} is behind its checkpoint for "
                f"{label!r} ({len(cti_records)} records, {completed} "
                "checkpointed CTIs)"
            )
        if len(cti_records) > completed:
            # The crash fell between the journal append and the
            # checkpoint. The checkpoint is the commit point, so the
            # surplus records are uncommitted: drop them and redo those
            # CTIs (deterministic, so the outcome is unchanged).
            self._drop_uncommitted(label, completed)
            cti_records = cti_records[:completed]
        if state is not None:
            explorer.load_state(state)
        obs.point("resilience.resumed", label=label, completed=completed)
        return [stats_from_dict(record["stats"]) for record in cti_records], completed

    def _drop_uncommitted(self, label: str, keep: int) -> None:
        kept: List[Dict[str, object]] = []
        seen = 0
        for record in self._file.records:
            if record.get("c") == label and record.get("kind") == "cti":
                if seen >= keep:
                    continue
                seen += 1
            kept.append(record)
        self._file.rewrite(kept)

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
        record: Dict[str, object] = {
            "c": label,
            "kind": "cti",
            "index": index,
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
            record["labels"] = plan.labels
        self._file.append(record)
        _write_checkpoint(
            self.checkpoint_path(label),
            {
                "schema": JOURNAL_SCHEMA,
                "label": label,
                "cti_index": index,
                "state": state,
            },
        )

    def close(self) -> None:
        self._file.close()


# -- continuous-testing journal -----------------------------------------------


class ContinuousJournal:
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

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._file = _JournalFile(self.path)

    @property
    def records(self) -> List[Dict[str, object]]:
        return list(self._file.records)

    def checkpoint_path(self) -> str:
        return f"{self.path}.{self.LABEL}.ckpt"

    def model_path(self, index: int) -> str:
        return f"{self.path}.model.{index}.npz"

    def _records_of(self, kind: str) -> List[Dict[str, object]]:
        return [
            record
            for record in self._file.records
            if record.get("c") == self.LABEL and record.get("kind") == kind
        ]

    def prepare(self, versions, config) -> Tuple[List[object], int, object]:
        """Returns ``(restored outcomes, first version index, restored
        Snowcat deployment or None)``."""
        from dataclasses import asdict

        versions_digest = sha256_hex(
            ",".join(kernel.version for kernel in versions)
        )
        config_digest = sha256_hex(canonical_json(asdict(config)))
        headers = self._records_of("header")
        if not headers:
            if self._records_of("version"):
                raise JournalError(
                    f"journal {self.path!r} holds version records but no "
                    "header"
                )
            self._file.append(
                {
                    "c": self.LABEL,
                    "kind": "header",
                    "schema": JOURNAL_SCHEMA,
                    "policy": config.policy,
                    "num_versions": len(versions),
                    "versions": versions_digest,
                    "config": config_digest,
                }
            )
            return [], 0, None
        if len(headers) > 1:
            raise JournalError(
                f"journal {self.path!r} holds duplicate continuous headers"
            )
        header = headers[0]
        if header.get("schema") != JOURNAL_SCHEMA:
            raise JournalError(
                f"journal {self.path!r} has schema {header.get('schema')}, "
                f"this build reads schema {JOURNAL_SCHEMA}"
            )
        if (
            header.get("policy") != config.policy
            or header.get("num_versions") != len(versions)
            or header.get("versions") != versions_digest
            or header.get("config") != config_digest
        ):
            raise JournalError(
                f"journal {self.path!r} was written by a different "
                "continuous run (policy, version stream, or config "
                "mismatch); refusing to resume"
            )
        version_records = self._records_of("version")
        for expected, record in enumerate(version_records):
            if record.get("index") != expected:
                raise JournalError(
                    f"journal {self.path!r} has out-of-order version records"
                )
        completed = 0
        state = None
        ckpt_path = self.checkpoint_path()
        if os.path.exists(ckpt_path):
            ckpt = _read_checkpoint(ckpt_path)
            if (
                ckpt.get("schema") != JOURNAL_SCHEMA
                or ckpt.get("label") != self.LABEL
            ):
                raise JournalError(
                    f"checkpoint {ckpt_path!r} does not belong to this "
                    "continuous run"
                )
            completed = int(ckpt["version_index"]) + 1
            state = ckpt["state"]
        if len(version_records) < completed:
            raise JournalError(
                f"journal {self.path!r} is behind its checkpoint "
                f"({len(version_records)} records, {completed} checkpointed "
                "versions)"
            )
        if len(version_records) > completed:
            self._drop_uncommitted(completed)
            version_records = version_records[:completed]
        current = (
            self._restore_current(state, versions) if state is not None else None
        )
        obs.point(
            "resilience.resumed", label=self.LABEL, completed=completed
        )
        outcomes = [
            outcome_from_dict(record["outcome"]) for record in version_records
        ]
        return outcomes, completed, current

    def _drop_uncommitted(self, keep: int) -> None:
        kept: List[Dict[str, object]] = []
        seen = 0
        for record in self._file.records:
            if record.get("c") == self.LABEL and record.get("kind") == "version":
                if seen >= keep:
                    continue
                seen += 1
            kept.append(record)
        self._file.rewrite(kept)

    def _restore_current(self, state: Dict[str, object], versions):
        payload = state.get("current")
        if payload is None:
            return None
        from repro.core.snowcat import Snowcat
        from repro.graphs.dataset import GraphDatasetBuilder
        from repro.graphs.tokens import Vocabulary
        from repro.ml.pic import PICModel

        cfg = _snowcat_config_from_dict(payload["snowcat_config"])
        version = payload["trained_version"]
        kernel = next(
            (k for k in versions if k.version == version), None
        )
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
        """Commit one completed version: journal record, then checkpoint
        (including the trained model, when one exists)."""
        from dataclasses import asdict

        self._file.append(
            {
                "c": self.LABEL,
                "kind": "version",
                "index": position,
                "outcome": outcome_to_dict(outcome),
            }
        )
        state: Dict[str, object] = {"current": None}
        if current is not None:
            model_path = self.model_path(position)
            current.require_model().save(model_path)
            with open(model_path, "rb") as handle:
                model_checksum = sha256_hex(handle.read())
            vocabulary = current.graphs.vocabulary
            tokens = sorted(
                vocabulary.token_to_id, key=vocabulary.token_to_id.get
            )
            state["current"] = {
                "snowcat_config": asdict(current.config),
                "trained_version": current.kernel.version,
                "startup_hours": current.startup_hours,
                "vocabulary": tokens,
                "model_path": os.path.basename(model_path),
                "model_checksum": model_checksum,
            }
        _write_checkpoint(
            self.checkpoint_path(),
            {
                "schema": JOURNAL_SCHEMA,
                "label": self.LABEL,
                "version_index": position,
                "state": state,
            },
        )

    def close(self) -> None:
        self._file.close()


def reset_journal(path: str) -> None:
    """Remove a journal and all its sidecars (checkpoints, saved models)."""
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
        if entry.startswith(prefix) and (
            entry.endswith(".ckpt") or entry.endswith(".npz")
        ):
            try:
                os.unlink(os.path.join(directory, entry))
            except OSError:  # pragma: no cover - racing deletion
                pass
    fsync_directory(path)
