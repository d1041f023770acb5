"""Journal-fed label ingestion for the continuous-learning loop.

Campaigns run with ``--capture-labels`` record, inside each committed
``cti`` journal record, the ground-truth coverage labels of every CT they
executed (the explorer's ``fold`` stage puts them on the CTI's
:class:`repro.core.mlpct.CTIPlan`; ``record_cti`` writes them from there).
This module turns those journals into training data:

- :class:`LabelStore` is the durable, deduplicated label database — one
  :class:`~repro.resilience.log.SealedLog` holding both label records
  and per-source-journal watermarks, so a crashed or restarted tailer
  never re-ingests a label it already committed and never skips one it
  hasn't.
- :class:`LabelTailer` incrementally follows one or more campaign/fleet
  journals. It reads each journal's *committed records* without mutating
  the file (:func:`repro.resilience.log.read_log_tolerant`), so tailing
  a journal that a live campaign is still appending to is safe: a torn
  final line is simply "not there yet".

Watermark discipline: the store appends the new label records first and
the advanced watermark record *after* them. A crash in between means the
next poll re-reads the same journal span, and the content-addressed
dedup makes the re-ingest a no-op — at-least-once delivery plus
idempotence equals exactly-once labels. A watermark counts records
*of one journal*, so each mark also names that journal by the digest of
its first record: when a path is reset and reused by a different
campaign, the stale count is ignored and tailing restarts at 0.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import JournalError
from repro.resilience.atomic import canonical_json, sha256_hex
from repro.resilience.log import SealedLog, read_log_tolerant

__all__ = ["LabelRecord", "LabelStore", "LabelTailer", "label_id"]

STORE_NAME = "labels.jsonl"


def label_id(payload: Dict[str, object]) -> str:
    """Content address of one label: hash of its canonical payload.

    Two campaigns executing the same CT with the same hints produce the
    same labels — and the same id, which is what makes re-ingestion after
    a crash (or overlapping journals in a fleet) idempotent.
    """
    body = {
        "sti": payload["sti"],
        "hints": payload["hints"],
        "covered": payload["covered"],
    }
    return sha256_hex(canonical_json(body))


class LabelRecord(dict):
    """One ingested label (a dict with ``sti``/``hints``/``covered``/``id``)."""


class LabelStore:
    """Durable deduplicated store of campaign-captured labels.

    Layout: ``<root>/labels.jsonl``, a checksummed append-only journal of
    two record kinds:

    - ``{"kind": "label", "id": ..., "sti": [...], "hints": [[t, i], ...],
      "covered": [[...], ...]}`` — one executed CT's ground truth;
    - ``{"kind": "mark", "journal": <abspath>, "count": N, "head": <digest
      of that journal's first record>}`` — "the first ``N`` records of
      that source journal have been fully ingested" (marks written before
      ``head`` existed lack it and are honoured for whatever is there).

    Both share the journal's write-ahead semantics (flush + fsync per
    append, torn-final-line truncation on open), so the store survives
    SIGKILL at any instruction boundary.
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self._file = SealedLog(os.path.join(self.root, STORE_NAME))
        self._ids: set = set()
        self.labels: List[LabelRecord] = []
        self._watermarks: Dict[str, int] = {}
        self._heads: Dict[str, Optional[str]] = {}
        for record in self._file.records:
            self._replay(record)

    def _replay(self, record: Dict[str, object]) -> None:
        kind = record.get("kind")
        if kind == "label":
            identity = str(record["id"])
            if identity not in self._ids:
                self._ids.add(identity)
                self.labels.append(LabelRecord(record))
        elif kind == "mark":
            self._watermarks[str(record["journal"])] = int(record["count"])
            self._heads[str(record["journal"])] = record.get("head")
        else:
            raise JournalError(
                f"label store {self._file.path} holds unknown record kind "
                f"{kind!r}"
            )

    @property
    def count(self) -> int:
        return len(self.labels)

    def watermark(self, journal_path: str, head: Optional[str] = None) -> int:
        """How many records of ``journal_path`` are already ingested.

        ``head`` is the digest of the journal's current first record: a
        mark bound to a different head counted another journal, so 0.
        """
        journal_path = os.path.abspath(journal_path)
        bound = self._heads.get(journal_path)
        if head is not None and bound is not None and bound != head:
            return 0
        return self._watermarks.get(journal_path, 0)

    def ingest(
        self,
        journal_path: str,
        payloads: Sequence[Dict[str, object]],
        processed_records: int,
        head: Optional[str] = None,
    ) -> int:
        """Commit labels tailed from one journal and advance its watermark.

        Appends the (non-duplicate) label records first, the watermark
        record last: the watermark is the commit point, and everything
        before it re-ingests idempotently after a crash.
        Returns the number of genuinely new labels.
        """
        journal_path = os.path.abspath(journal_path)
        added = 0
        for payload in payloads:
            identity = label_id(payload)
            if identity in self._ids:
                continue
            record = {
                "kind": "label",
                "id": identity,
                "sti": list(payload["sti"]),
                "hints": [list(hint) for hint in payload["hints"]],
                "covered": [list(blocks) for blocks in payload["covered"]],
            }
            self._file.append(record)
            self._replay(record)
            added += 1
        if processed_records != self.watermark(journal_path, head):
            mark: Dict[str, object] = {
                "kind": "mark",
                "journal": journal_path,
                "count": int(processed_records),
            }
            if head is not None:
                mark["head"] = head
            self._file.append(mark)
            self._replay(mark)
        return added

    def window(self, size: int) -> List[LabelRecord]:
        """The most recent ``size`` labels, oldest first."""
        return self.labels[-size:] if size > 0 else []

    def close(self) -> None:
        self._file.close()


class LabelTailer:
    """Incrementally follow campaign/fleet journals into a label store."""

    def __init__(self, store: LabelStore, journals: Iterable[str]) -> None:
        self.store = store
        self.journals = [os.path.abspath(path) for path in journals]

    def poll(self) -> int:
        """One tail pass over every journal; returns new labels ingested.

        Per journal: read the valid prefix tolerantly, skip the already-
        watermarked records, pull the ``labels`` field out of committed
        ``cti`` records, and commit labels + watermark to the store. A
        journal that shrank below its watermark (a resumed campaign's
        ``rewrite()`` dropped an uncommitted tail) yields nothing this
        poll — the redone records are deterministically identical, so the
        watermark stays sound. A journal whose first record changed (the
        path was reset and reused) restarts at 0.
        """
        total = 0
        for path in self.journals:
            records, _torn = read_log_tolerant(path)
            if not records:
                continue
            head = sha256_hex(canonical_json(records[0]))
            mark = self.store.watermark(path, head)
            if len(records) <= mark:
                continue
            payloads = [
                payload
                for record in records[mark:]
                if record.get("kind") == "cti"
                for payload in record.get("labels") or []
            ]
            added = self.store.ingest(path, payloads, len(records), head)
            total += added
            if added and obs.is_enabled():
                obs.point(
                    "learn.ingest",
                    journal=os.path.basename(path),
                    labels=added,
                    total=self.store.count,
                )
        return total
