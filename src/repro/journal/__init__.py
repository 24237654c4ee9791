"""Durable campaigns: crash-safe result journal + resume (``repro.journal``).

The paper's suite runs as week-long campaigns on Titan (Section VII) where
the *orchestrating process itself* gets preempted, OOM-killed, or loses
its node.  PR 3 made the harness survive faults inside a run; this package
makes the campaign survive the harness: every completed work unit is
appended to a checksummed, fsync'd write-ahead journal the moment an
engine hands it back, so the campaign can be SIGKILLed at any instant —
including mid-journal-write — and resumed to a byte-identical report.

* :mod:`~repro.journal.wal` — the JSONL write-ahead log: header record
  binding the journal to a campaign key, per-record SHA-256 checksums,
  torn-tail detection/truncation, resume markers;
* :mod:`~repro.journal.codec` — campaign keys and the payload round-trip
  for :class:`~repro.harness.runner.TestResult` / Titan stack checks.

CLI surface: ``repro validate --journal FILE`` / ``--resume FILE`` (same
for ``repro titan``), ``repro journal inspect FILE`` and ``repro journal
fsck FILE`` (crash-consistency check; see :mod:`repro.journal.fsck`).
"""

from repro.journal.wal import (
    JOURNAL_FORMAT,
    JournalCorruptError,
    JournalError,
    JournalMismatchError,
    JournalScan,
    JournalWriter,
    read_journal,
    record_line,
    scan_journal_file,
)
from repro.journal.fsck import render_fsck
from repro.journal.codec import (
    canonicalize,
    config_fingerprint,
    decode_check,
    decode_result,
    encode_check,
    encode_result,
    template_map,
    titan_campaign_key,
    unit_keys,
    validate_campaign_key,
)

__all__ = [
    "JOURNAL_FORMAT",
    "JournalCorruptError", "JournalError", "JournalMismatchError",
    "JournalScan", "JournalWriter", "read_journal", "record_line",
    "scan_journal_file", "render_fsck",
    "canonicalize", "config_fingerprint",
    "decode_check", "decode_result", "encode_check", "encode_result",
    "template_map", "titan_campaign_key", "unit_keys",
    "validate_campaign_key",
]
