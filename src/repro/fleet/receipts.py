"""Per-job provenance receipts for fleet campaigns.

Every job a fleet coordinator accepts — a candidate pool scored, a batch
of CTs executed — leaves a durable, checksummed receipt behind: which
campaign and CTI it belonged to, which worker ran it on which attempt,
a digest of the inputs the worker was handed, and a digest of the result
the coordinator folded into the campaign. Receipts make the aggregate
auditable after the fact: the final :class:`~repro.core.mlpct
.CampaignResult` can be traced job by job to the processes that
produced it, and a receipt whose digests do not match a recomputation
is evidence of divergence, not a shrug.

Receipts are one JSON file per job (``<label>.job-000042.json``), each
a sealed document of the durable log (:func:`repro.resilience.log
.write_sealed_document`: checksum over the canonical body, replaced
atomically) — the same shape as a journal checkpoint. This module adds
only the digests, the naming and the schema check. A receipt for a
retried job records the *accepted* attempt; earlier attempts never
produced a result the campaign consumed.
"""

from __future__ import annotations

import os
import re
from typing import Dict, List, Optional, Sequence

from repro.errors import FleetError
from repro.resilience.atomic import canonical_json, sha256_hex
from repro.resilience.journal import fold_prediction_digest, result_digest
from repro.resilience.log import (
    read_sealed_document,
    sanitize_label,
    write_sealed_document,
)

__all__ = [
    "RECEIPT_SCHEMA",
    "receipt_path",
    "write_receipt",
    "load_receipt",
    "verify_receipts",
    "score_inputs_digest",
    "execute_inputs_digest",
    "score_result_digest",
    "execute_result_digest",
]

RECEIPT_SCHEMA = 1

_RECEIPT_NAME = re.compile(r"\.job-(\d+)\.json$")


def receipt_path(directory: str, label: str, job_id: int) -> str:
    return os.path.join(directory, f"{sanitize_label(label)}.job-{job_id:06d}.json")


# -- digests ------------------------------------------------------------------


def score_inputs_digest(proposals: Sequence[Sequence[object]]) -> str:
    """Digest of a score job's candidate pool (the schedule hints)."""
    return sha256_hex(
        canonical_json(
            [
                [[hint.thread, hint.iid] for hint in pair]
                for pair in proposals
            ]
        )
    )


def execute_inputs_digest(tasks: Sequence[object]) -> str:
    """Digest of an execute job's tasks (everything a result depends on)."""
    return sha256_hex(
        canonical_json(
            [
                {
                    "seed": task.seed,
                    "hints": [[hint.thread, hint.iid] for hint in task.hints],
                    "max_steps": task.max_steps,
                    "memory_model": task.memory_model,
                    "irq_plan": [list(entry) for entry in task.irq_plan],
                }
                for task in tasks
            ]
        )
    )


def score_result_digest(predicted: Sequence[object]) -> str:
    """Digest of a score job's predictions (folded like the journal's
    audit digest, so the two are directly comparable)."""
    digest = ""
    for bits in predicted:
        digest = fold_prediction_digest(digest, None, bits)
    return digest


def execute_result_digest(results: Sequence[object]) -> str:
    """Digest of an execute job's results (concatenated per-result
    journal digests)."""
    return sha256_hex("".join(result_digest(result) for result in results))


# -- sealing / verification ---------------------------------------------------


def write_receipt(directory: str, body: Dict[str, object]) -> str:
    """Seal ``body`` with schema + checksum and write it atomically.

    Returns the receipt's path. ``body`` must carry ``campaign`` and
    ``job`` (they name the file); the checksum covers everything else.
    """
    path = receipt_path(directory, str(body["campaign"]), int(body["job"]))
    write_sealed_document(path, {**body, "schema": RECEIPT_SCHEMA})
    return path


def load_receipt(path: str) -> Dict[str, object]:
    """Load and verify one receipt; raise :class:`FleetError` if it is
    unreadable, unsealed, fails its checksum, or has another schema."""
    receipt = read_sealed_document(path, FleetError, "receipt")
    if receipt.get("schema") != RECEIPT_SCHEMA:
        raise FleetError(
            f"receipt {path!r} has schema {receipt.get('schema')}, this "
            f"build reads schema {RECEIPT_SCHEMA}"
        )
    return receipt


def verify_receipts(
    directory: str, label: Optional[str] = None
) -> List[Dict[str, object]]:
    """Load every receipt in ``directory`` (optionally one campaign's),
    verifying each; returns them sorted by job id."""
    prefix = f"{sanitize_label(label)}.job-" if label is not None else None
    receipts: List[Dict[str, object]] = []
    try:
        entries = sorted(os.listdir(directory))
    except OSError as error:
        raise FleetError(
            f"cannot list receipts directory {directory!r}: {error}"
        ) from None
    for entry in entries:
        if not _RECEIPT_NAME.search(entry):
            continue
        if prefix is not None and not entry.startswith(prefix):
            continue
        receipts.append(load_receipt(os.path.join(directory, entry)))
    receipts.sort(key=lambda receipt: int(receipt.get("job", -1)))
    return receipts
