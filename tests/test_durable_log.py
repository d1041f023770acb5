"""The durable-log primitive (``repro.resilience.log``) and its schemas.

Byte-offset properties of the three durable shapes — sealed log, sealed
document, unit journal — plus literal format pins and fsync budgets, so
format or durability drift fails tier-1 instead of needing a checkout of
the previous commit. The only outcomes a damaged artefact may have are an
exact prefix / the exact body, or a typed ``repro.errors`` failure.
"""

import os
from types import SimpleNamespace

import pytest

from repro.core.mlpct import ExplorationStats
from repro.errors import CheckpointError, FleetError, JournalError
from repro.fleet.receipts import load_receipt, receipt_path, write_receipt
from repro.learn.labels import LabelStore, LabelTailer
from repro.resilience import journal as journal_module
from repro.resilience.journal import CampaignJournal, reset_journal
from repro.resilience.log import (
    SealedLog,
    UnitJournal,
    read_log_tolerant,
    read_sealed_document,
    write_sealed_document,
)

RECORDS = [
    {"c": "PCT", "kind": "header", "schema": 1, "seed": 3},
    {"c": "PCT", "kind": "cti", "index": 0, "gain": 1.5, "note": "café"},
    {"c": "PCT", "kind": "cti", "index": 1, "gain": -0.25, "note": ""},
    {"c": "PCT", "kind": "cti", "index": 2, "gain": 2.0, "note": "x\ny"},
]
CHECKPOINT = {
    "schema": 1,
    "label": "PCT",
    "cti_index": 0,
    "state": {"rng": [1, 2], "seen": ["a"]},
}
RECEIPT = {
    "campaign": "ML PCT/S1",
    "job": 7,
    "kind": "execute",
    "cti_index": 3,
    "attempt": 1,
    "inputs": "ab",
    "result": "cd",
}


def _write(path, data):
    with open(path, "wb") as handle:
        handle.write(data)


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _log_bytes(tmp_path, records=RECORDS):
    path = str(tmp_path / "pristine.log")
    log = SealedLog(path)
    for record in records:
        log.append(record)
    log.close()
    return _read(path)


def _open_both(path, data):
    """Tolerant read and appending open of ``data``: they must agree.

    Returns the records, or ``None`` when both raised ``JournalError``.
    """
    _write(path, data)
    try:
        records, torn = read_log_tolerant(path)
    except JournalError:
        with pytest.raises(JournalError):
            SealedLog(path)
        assert _read(path) == data  # a refused log is left untouched
        return None
    assert _read(path) == data  # the tolerant read never mutates
    log = SealedLog(path)
    log.close()
    assert log.records == records
    after = _read(path)
    assert data.startswith(after) and (len(after) < len(data)) == torn
    assert b"\x00" not in after
    return records


def _flips(data):
    for offset in range(len(data)):
        for bit in range(8):
            flipped = bytearray(data)
            flipped[offset] ^= 1 << bit
            yield bytes(flipped)


class TestSealedLog:
    def test_every_truncation_opens_as_an_exact_prefix(self, tmp_path):
        data = _log_bytes(tmp_path)
        path = str(tmp_path / "cut.log")
        ends = [i + 1 for i, byte in enumerate(data) if byte == 0x0A]
        # "x\ny" is escaped inside the JSON: one newline per record.
        assert len(ends) == len(RECORDS)
        for cut in range(len(data) + 1):
            records = _open_both(path, data[:cut])
            committed = sum(1 for end in ends if end <= cut)
            assert records == RECORDS[:committed], cut

    def test_unterminated_last_record_is_not_committed(self, tmp_path):
        # One byte short: the last record is complete but its newline is
        # not on disk. Opening must not grow the file, and everything
        # appended after the open must survive the next open.
        data = _log_bytes(tmp_path, RECORDS[:2])
        path = str(tmp_path / "short.log")
        _write(path, data[:-1])
        log = SealedLog(path)
        assert log.records == RECORDS[:1]
        assert os.path.getsize(path) < len(data) - 1
        log.append(RECORDS[2])
        log.close()
        assert b"\x00" not in _read(path)
        reopened = SealedLog(path)
        reopened.close()
        assert reopened.records == [RECORDS[0], RECORDS[2]]
        assert read_log_tolerant(path) == ([RECORDS[0], RECORDS[2]], False)

    def test_single_bit_flips_yield_a_prefix_or_a_journal_error(self, tmp_path):
        written = [{"i": 0, "s": "é"}, {"i": 1, "f": 0.5}, {"i": 2}]
        data = _log_bytes(tmp_path, written)
        path = str(tmp_path / "flip.log")
        refused = 0
        for flipped in _flips(data):
            records = _open_both(path, flipped)
            if records is None:
                refused += 1
            else:
                assert records == written[: len(records)]
        assert refused  # interior damage is refused, not skipped

    def test_sealed_line_bytes_are_pinned(self, tmp_path):
        assert _log_bytes(tmp_path, RECORDS[1:2]) == (
            b'{"c":"PCT","gain":1.5,"index":0,"kind":"cti","note":"caf\\u00e9",'
            b'"sum":"0f4d62f0811fc245cd3832950a45d11d5c62a1177c4c749fe1f7c2868f2'
            b'25eed"}\n'
        )

    def test_rewrite_replaces_the_file_and_keeps_appending(self, tmp_path):
        path = str(tmp_path / "rw.log")
        log = SealedLog(path)
        for record in RECORDS:
            log.append(record)
        log.rewrite(RECORDS[:2])
        log.append(RECORDS[3])
        log.close()
        assert read_log_tolerant(path) == ([*RECORDS[:2], RECORDS[3]], False)


class TestSealedDocument:
    def test_checkpoint_bytes_are_pinned(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        write_sealed_document(path, CHECKPOINT)
        assert _read(path) == (
            b'{"checksum": "cec9bdfa938c7a37310c1c81eaeb70e8ebecd24f0e7fcd0e7b29d'
            b'ef013b4940e", "cti_index": 0, "label": "PCT", "schema": 1, '
            b'"state": {"rng": [1, 2], "seen": ["a"]}}'
        )
        assert read_sealed_document(path, CheckpointError, "checkpoint") == CHECKPOINT

    def test_receipt_bytes_are_pinned(self, tmp_path):
        path = write_receipt(str(tmp_path), RECEIPT)
        assert path == receipt_path(str(tmp_path), "ML PCT/S1", 7)
        assert os.path.basename(path) == "ML_PCT_S1.job-000007.json"
        assert _read(path) == (
            b'{"attempt": 1, "campaign": "ML PCT/S1", "checksum": "6341599d795852'
            b'5a64af951f7574f0214e5aa2fc057d5444b9a6c9e33a937143", "cti_index": 3'
            b', "inputs": "ab", "job": 7, "kind": "execute", "result": "cd", '
            b'"schema": 1}'
        )
        assert load_receipt(path) == {**RECEIPT, "schema": 1}

    @staticmethod
    def _damage(path, load, error, body):
        """Every truncation and bit flip loads as ``body`` or raises ``error``."""
        data = _read(path)
        for blob in [data[:cut] for cut in range(len(data))] + list(_flips(data)):
            _write(path, blob)
            try:
                loaded = load(path)
            except error:
                continue
            assert loaded == body

    def test_damaged_checkpoint_is_the_body_or_a_checkpoint_error(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        write_sealed_document(path, CHECKPOINT)
        self._damage(
            path,
            lambda p: read_sealed_document(p, CheckpointError, "checkpoint"),
            CheckpointError,
            CHECKPOINT,
        )

    def test_damaged_receipt_is_the_body_or_a_fleet_error(self, tmp_path):
        receipt = {"campaign": "PCT", "job": 1, "kind": "score"}
        path = write_receipt(str(tmp_path), receipt)
        self._damage(path, load_receipt, FleetError, {**receipt, "schema": 1})


def _plan(labels=None):
    return SimpleNamespace(
        stats=ExplorationStats(executions=2, new_races=1),
        audit={"results": ["ab", "cd"], "scored": 0, "scored_digest": ""},
        labels=labels,
    )


def _labelled_journal(path, seed, num_ctis):
    """A committed campaign journal whose CTI ``i`` captured one label."""
    journal = CampaignJournal(path)
    journal.resume("PCT", "cti", {"seed": seed, "num_ctis": num_ctis})
    for index in range(num_ctis):
        label = {"sti": [seed, index], "hints": [[0, index]], "covered": [[index]]}
        journal.record_cti("PCT", index, _plan([label]), {"at": index})
    journal.close()


class TestUnitJournal:
    HEADER = {"seed": 3, "num_ctis": 4}

    def _journal(self, path, units):
        journal = UnitJournal(path)
        assert journal.resume("PCT", "cti", self.HEADER) == ([], None)
        for index in range(units):
            journal.commit("PCT", "cti", index, {"n": index}, {"at": index})
        journal.close()

    def test_resume_returns_committed_units_and_state(self, tmp_path):
        path = str(tmp_path / "u.journal")
        self._journal(path, 2)
        journal = UnitJournal(path)
        units, state = journal.resume("PCT", "cti", self.HEADER)
        journal.close()
        assert [unit["index"] for unit in units] == [0, 1]
        assert state == {"at": 1}

    def test_unit_record_without_checkpoint_is_dropped(self, tmp_path):
        path = str(tmp_path / "u.journal")
        self._journal(path, 2)
        log = SealedLog(path)
        log.append({"c": "other", "kind": "header", "schema": 1})
        log.append({"c": "PCT", "kind": "cti", "index": 2, "n": 2})
        log.close()
        journal = UnitJournal(path)
        units, state = journal.resume("PCT", "cti", self.HEADER)
        journal.close()
        assert [unit["index"] for unit in units] == [0, 1] and state == {"at": 1}
        kept, torn = read_log_tolerant(path)
        assert not torn and [record["c"] for record in kept][-1] == "other"
        assert [r["index"] for r in kept if r["kind"] == "cti"] == [0, 1]

    def test_mismatch_behind_and_disorder_are_journal_errors(self, tmp_path):
        path = str(tmp_path / "u.journal")
        self._journal(path, 2)
        journal = UnitJournal(path)
        with pytest.raises(JournalError, match="different campaign.*seed"):
            journal.resume("PCT", "cti", {**self.HEADER, "seed": 4})
        # A field only one side has is a mismatch too, whichever side.
        with pytest.raises(JournalError, match=r"\(num_ctis mismatch"):
            journal.resume("PCT", "cti", {"seed": 3})
        with pytest.raises(JournalError, match=r"\(irq mismatch"):
            journal.resume("PCT", "cti", {**self.HEADER, "irq": True})
        journal.rewrite(journal.records[:2])  # header + unit 0 only
        with pytest.raises(JournalError, match="behind its checkpoint"):
            journal.resume("PCT", "cti", self.HEADER)
        journal.append({"c": "PCT", "kind": "cti", "index": 5})
        with pytest.raises(JournalError, match="out-of-order"):
            journal.resume("PCT", "cti", self.HEADER)
        with pytest.raises(JournalError, match="does not belong"):
            journal.resume("PCT", "version", self.HEADER)
        journal.close()

    def test_every_checkpoint_truncation_is_a_checkpoint_error(self, tmp_path):
        path = str(tmp_path / "u.journal")
        self._journal(path, 1)
        ckpt = path + ".PCT.ckpt"
        data = _read(ckpt)
        for cut in range(len(data)):
            _write(ckpt, data[:cut])
            journal = UnitJournal(path)
            with pytest.raises(CheckpointError):
                journal.resume("PCT", "cti", self.HEADER)
            journal.close()

    def test_fsync_budget_per_commit_and_per_receipt(self, tmp_path, monkeypatch):
        journal = CampaignJournal(str(tmp_path / "f.journal"))
        journal.resume("PCT", "cti", self.HEADER)
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or real_fsync(fd))
        journal.record_cti("PCT", 0, _plan(), {"at": 0})
        assert len(calls) == 3  # log append + checkpoint file + its directory
        del calls[:]
        write_receipt(str(tmp_path), RECEIPT)
        assert len(calls) == 2  # receipt file + its directory
        journal.close()


class TestResetJournal:
    def test_reset_sweeps_temp_files_and_fsyncs_the_directory(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "r.journal")
        _labelled_journal(path, seed=1, num_ctis=1)
        leftovers = [path + ".PCT.ckpt.k3j2x9.tmp", path + ".q81mzz.tmp"]
        for leftover in leftovers:
            _write(leftover, b"half a checkpoint")
        bystander = str(tmp_path / "r.journal2.tmp")
        _write(bystander, b"someone else's")
        synced = []
        monkeypatch.setattr(journal_module, "fsync_directory", synced.append)
        reset_journal(path)
        assert synced == [str(tmp_path)]
        assert sorted(os.listdir(str(tmp_path))) == ["r.journal2.tmp"]


class TestWatermarkNamesItsJournal:
    def test_reset_and_reused_journal_path_is_tailed_from_zero(self, tmp_path):
        path = str(tmp_path / "campaign.journal")
        store = LabelStore(str(tmp_path / "learn"))
        tailer = LabelTailer(store, [path])
        _labelled_journal(path, seed=1, num_ctis=3)
        assert tailer.poll() == 3 and store.watermark(path) == 4
        reset_journal(path)
        _labelled_journal(path, seed=2, num_ctis=5)
        assert tailer.poll() == 5 and store.count == 8
        assert tailer.poll() == 0 and store.watermark(path) == 6
        store.close()
        reopened = LabelStore(str(tmp_path / "learn"))
        assert LabelTailer(reopened, [path]).poll() == 0 and reopened.count == 8
        reopened.close()

    def test_marks_without_a_head_are_honoured(self, tmp_path):
        path = str(tmp_path / "campaign.journal")
        _labelled_journal(path, seed=1, num_ctis=3)
        root = tmp_path / "learn"
        root.mkdir()
        legacy = SealedLog(str(root / "labels.jsonl"))
        legacy.append({"kind": "mark", "journal": path, "count": 2})
        legacy.close()
        store = LabelStore(str(root))
        assert store.watermark(path) == 2
        assert LabelTailer(store, [path]).poll() == 2  # CTIs 1 and 2 only
        store.close()
