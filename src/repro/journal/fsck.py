"""Crash-consistency checking for campaign journals (``repro journal fsck``).

:func:`~repro.journal.wal.read_journal` is the strict loader: it refuses a
file whose damage exceeds the torn-tail rule, because resuming from a
lying journal is worse than not resuming at all.  Both it and fsck run
the one tolerant scanner, :func:`~repro.journal.wal.scan_journal_file`,
which classifies a file and reports what a resume would salvage:

* ``ok`` — every line checksums, clean shutdown;
* ``torn`` — trailing bytes fail to verify *at EOF only* (the state a
  SIGKILL mid-write leaves); resume truncates them and loses nothing
  already fsync'd;
* ``corrupt`` — a bad line with intact records after it, a missing or
  torn header, or an unknown record type; resume refuses this file, but
  the intact prefix *before* the first bad line is still counted so the
  report shows what re-journaling could recover;
* ``missing`` — the path does not exist.
"""

from __future__ import annotations

import os

from repro.journal.wal import JournalScan


def render_fsck(scan: JournalScan) -> str:
    """Human-readable fsck report (the CLI's output)."""
    name = os.path.basename(scan.path)
    lines = [f"fsck       {scan.path}",
             f"  {name:28s} {scan.status:8s} {len(scan.records)} unit(s), "
             f"{scan.valid_bytes} byte(s) intact"
             + (f", {scan.bad_bytes} bad" if scan.bad_bytes else "")]
    if scan.detail:
        lines.append(f"    {scan.detail}")
    salvage = scan.salvageable_units()
    if scan.clean:
        lines.append(f"verdict    clean — {len(salvage)} unit(s) journaled, "
                     "nothing to repair")
    elif scan.resumable:
        lines.append(f"verdict    salvageable — a resume replays "
                     f"{len(salvage)} unit(s) after truncating torn tails")
    else:
        lines.append(f"verdict    CORRUPT ({name}) — resume will refuse; "
                     f"{len(salvage)} unit(s) remain salvageable")
    return "\n".join(lines)
