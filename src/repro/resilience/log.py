"""The durable log: the one primitive all persisted progress sits on.

Three shapes, none of them campaign-specific; every durable artefact in
the repo (campaign/fleet journal, continuous journal, fleet receipts,
label store, learn journal) is a record schema over one of them.

- **Sealed log** — :class:`SealedLog` and :func:`read_log_tolerant`: an
  append-only JSON-lines file whose records each carry a SHA-256 over
  their canonical JSON. The appending opener and the non-mutating reader
  share one scan and therefore one commit rule: *a record is committed
  iff it verifies and its terminating newline is on disk*. Whatever one
  interrupted append can leave after the last committed record — a
  single final piece, terminated or not — is the torn tail and is
  dropped; any other unverifiable line is corruption and raises
  :class:`~repro.errors.JournalError`. A log never lies quietly.
- **Sealed document** — :func:`write_sealed_document` /
  :func:`read_sealed_document`: one JSON object with a checksum over its
  canonical body, replaced atomically (temp + fsync + rename). Journal
  checkpoints and fleet receipts are this shape; the reader takes the
  error class and noun it raises with.
- **Unit journal** — :class:`UnitJournal`: the resume protocol over a
  sealed log. Per label: one ``header`` record pinning what the run is,
  then unit records ``index`` 0, 1, ... each followed by a sealed
  checkpoint sidecar holding the resumable state. The checkpoint is the
  *commit point*: a unit record without its checkpoint (crash between
  the two writes) is dropped on resume and that unit is redone.
"""

from __future__ import annotations

import json
import os
import re
from typing import IO, Dict, List, Optional, Tuple, Type

from repro import obs
from repro.errors import CheckpointError, JournalError
from repro.resilience.atomic import atomic_write_text, canonical_json, sha256_hex

__all__ = [
    "JOURNAL_SCHEMA",
    "SealedLog",
    "UnitJournal",
    "read_log_tolerant",
    "read_sealed_document",
    "sanitize_label",
    "write_sealed_document",
]

#: Format version of unit-journal headers and checkpoints.
JOURNAL_SCHEMA = 1

Record = Dict[str, object]


def sanitize_label(label: str) -> str:
    """``label`` made safe for use inside a sidecar/receipt file name."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", label)


# -- sealed log ---------------------------------------------------------------


def _sealed_line(record: Record) -> str:
    sealed = dict(record)
    sealed["sum"] = sha256_hex(canonical_json(record))
    return canonical_json(sealed) + "\n"


def _unseal(line: bytes) -> Optional[Record]:
    try:
        record = json.loads(line.decode("utf-8"))
    except ValueError:  # includes UnicodeDecodeError
        return None
    if not isinstance(record, dict) or "sum" not in record:
        return None
    checksum = record.pop("sum")
    return record if sha256_hex(canonical_json(record)) == checksum else None


def _scan(path: str) -> Tuple[List[Record], int, int]:
    """``(committed records, their byte length, file size)`` of a log."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return [], 0, 0
    lines = data.split(b"\n")
    tail = lines.pop()  # bytes after the last newline: never committed
    records: List[Record] = []
    committed = 0
    for position, line in enumerate(lines):
        body = _unseal(line)
        if body is None:
            if position == len(lines) - 1 and not tail:
                break  # a terminated but unverifiable final line is torn too
            raise JournalError(
                f"corrupt journal record at line {position + 1} of {path}"
            )
        records.append(body)
        committed += len(line) + 1
    return records, committed, len(data)


def read_log_tolerant(path: str) -> Tuple[List[Record], bool]:
    """Read a log's committed records **without mutating the file**.

    Safe against a log another process is appending to: a half-written
    final line is simply not returned yet. Returns ``(records, torn)``,
    ``torn`` reporting whether a torn tail was skipped.
    """
    records, committed, size = _scan(path)
    return records, committed != size


class SealedLog:
    """One append-only sealed JSON-lines file, opened for appending.

    Write-ahead semantics: every append is flushed and fsynced before
    the caller proceeds. Opening truncates the torn tail a crash
    mid-append leaves behind, so the next append starts on a line
    boundary.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.records, committed, size = _scan(self.path)
        if committed != size:
            with open(self.path, "r+b") as handle:
                handle.truncate(committed)
                os.fsync(handle.fileno())
        self._handle: IO[bytes] = open(self.path, "ab")

    def append(self, record: Record) -> None:
        self._handle.write(_sealed_line(record).encode("utf-8"))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.records.append(record)

    def rewrite(self, records: List[Record]) -> None:
        """Atomically replace the whole file with ``records``."""
        self._handle.close()
        atomic_write_text(self.path, "".join(map(_sealed_line, records)))
        self.records = list(records)
        self._handle = open(self.path, "ab")

    def close(self) -> None:
        self._handle.close()


# -- sealed document ----------------------------------------------------------


def write_sealed_document(path: str, body: Record) -> None:
    """Atomically write ``body`` plus a checksum over its canonical JSON."""
    payload = dict(body)
    payload["checksum"] = sha256_hex(canonical_json(body))
    atomic_write_text(path, json.dumps(payload, sort_keys=True))


def read_sealed_document(path: str, error: Type[Exception], noun: str) -> Record:
    """Load and verify a sealed document, returning its body.

    Raises ``error`` (naming the file as a ``noun``) if the document is
    unreadable, unsealed, or fails its checksum.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as failure:
        raise error(f"cannot read {noun} {path!r}: {failure}") from None
    if not isinstance(payload, dict) or "checksum" not in payload:
        raise error(f"{noun} {path!r} has no checksum")
    checksum = payload.pop("checksum")
    if sha256_hex(canonical_json(payload)) != checksum:
        raise error(
            f"{noun} {path!r} failed checksum verification (corrupt or "
            "truncated)"
        )
    return payload


# -- unit journal -------------------------------------------------------------


def _differing_fields(written: Record, header: Record) -> List[str]:
    """Names of the fields two headers disagree on — a field only one of
    them has included; a dict-valued field names its inner keys."""
    names: List[str] = []
    for key in written.keys() | header.keys():
        was, now = written.get(key), header.get(key)
        if isinstance(was, dict) and isinstance(now, dict):
            names += _differing_fields(was, now)
        elif was != now:
            names.append(key)
    return sorted(names)


class UnitJournal(SealedLog):
    """A sealed log of ordered work units that can be resumed (see the
    module docstring for the protocol).

    One file can hold several runs side by side: records are namespaced
    by ``label`` (key ``c``) and each label has its own checkpoint
    sidecar ``<journal>.<label>.ckpt``.
    """

    def checkpoint_path(self, label: str) -> str:
        return f"{self.path}.{sanitize_label(label)}.ckpt"

    def _records_of(self, label: str, kind: str) -> List[Record]:
        return [
            record
            for record in self.records
            if record.get("c") == label and record.get("kind") == kind
        ]

    def resume(
        self, label: str, unit: str, header: Record
    ) -> Tuple[List[Record], Optional[object]]:
        """Create or validate ``label``'s header; return its committed
        ``unit`` records and the checkpointed state (``None`` if no unit
        has committed yet).

        Raises :class:`~repro.errors.JournalError` if the journal was
        written by a different run (any ``header`` field differs or is
        on one side only), is out of order, or is behind its checkpoint, and
        :class:`~repro.errors.CheckpointError` if the sidecar is corrupt.
        """
        where = f"journal {self.path!r}"
        header = {"c": label, "kind": "header", "schema": JOURNAL_SCHEMA, **header}
        headers = self._records_of(label, "header")
        units = self._records_of(label, unit)
        if not headers:
            if units:
                raise JournalError(
                    f"{where} holds {unit} records for {label!r} but no header"
                )
            self.append(header)
            return [], None
        if len(headers) > 1:
            raise JournalError(f"{where} holds duplicate headers for {label!r}")
        found = headers[0]
        if found.get("schema") != JOURNAL_SCHEMA:
            raise JournalError(
                f"{where} has schema {found.get('schema')}, this build reads "
                f"schema {JOURNAL_SCHEMA}"
            )
        differing = _differing_fields(found, header)
        if differing:
            raise JournalError(
                f"{where} was written by a different campaign or run "
                f"({', '.join(differing)} mismatch for {label!r}); refusing to "
                "resume"
            )
        if [record.get("index") for record in units] != list(range(len(units))):
            raise JournalError(
                f"{where} has out-of-order {unit} records for {label!r}"
            )
        completed, state = 0, None
        ckpt_path = self.checkpoint_path(label)
        if os.path.exists(ckpt_path):
            ckpt = read_sealed_document(ckpt_path, CheckpointError, "checkpoint")
            if (
                ckpt.get("schema") != JOURNAL_SCHEMA
                or ckpt.get("label") != label
                or f"{unit}_index" not in ckpt
            ):
                raise JournalError(
                    f"checkpoint {ckpt_path!r} does not belong to {label!r}"
                )
            completed = int(ckpt[f"{unit}_index"]) + 1
            state = ckpt.get("state")
        if len(units) < completed:
            raise JournalError(
                f"{where} is behind its checkpoint for {label!r} ({len(units)} "
                f"records, {completed} checkpointed {unit} units)"
            )
        if len(units) > completed:
            # The crash fell between the log append and the checkpoint:
            # the surplus records are uncommitted. Drop them; redoing
            # those units is deterministic, so the outcome is unchanged.
            surplus = units[completed:]
            self.rewrite([r for r in self.records if r not in surplus])
            units = units[:completed]
        obs.point("resilience.resumed", label=label, completed=completed)
        return units, state

    def commit(
        self, label: str, unit: str, index: int, fields: Record, state: object
    ) -> None:
        """Commit one completed unit: log record, then checkpoint."""
        self.append({"c": label, "kind": unit, "index": index, **fields})
        write_sealed_document(
            self.checkpoint_path(label),
            {
                "schema": JOURNAL_SCHEMA,
                "label": label,
                f"{unit}_index": index,
                "state": state,
            },
        )
