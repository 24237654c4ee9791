"""Crash-consistency checking for campaign journals (``repro journal fsck``).

:func:`read_journal` is the strict loader: it refuses a file whose
damage exceeds the torn-tail rule, because resuming from a lying journal
is worse than not resuming at all.  This module is the *diagnostic*
counterpart: it never raises on damage — it scans a journal file,
classifies it, and reports what a resume would salvage:

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
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.journal.wal import JOURNAL_FORMAT, _verify_line


@dataclass
class FileFsck:
    """The fsck verdict for one journal file."""

    path: str
    #: 'ok' | 'torn' | 'corrupt' | 'missing'
    status: str
    campaign: dict = field(default_factory=dict)
    #: unit key -> payload from the intact prefix (last record wins)
    records: Dict[str, dict] = field(default_factory=dict)
    generation: int = 0
    resumes: int = 0
    #: byte length of the intact prefix
    valid_bytes: int = 0
    #: bytes past the intact prefix (torn tail or corruption)
    bad_bytes: int = 0
    #: 1-based line number of the first bad line (None when ok)
    first_bad_line: Optional[int] = None
    detail: str = ""

    @property
    def salvageable(self) -> bool:
        """Would a resume accept this file (possibly after truncation)?"""
        return self.status in ("ok", "torn")


@dataclass
class FsckReport:
    """The fsck verdict for a campaign journal (``files`` holds its one
    scanned file)."""

    path: str
    files: List[FileFsck] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No corruption, no torn tails."""
        return all(f.status == "ok" for f in self.files)

    @property
    def resumable(self) -> bool:
        """Would ``--resume`` accept the journal (truncating a torn tail)?"""
        return bool(self.files) and all(f.salvageable for f in self.files)

    @property
    def corrupt_files(self) -> List[FileFsck]:
        return [f for f in self.files if not f.salvageable]

    def salvageable_units(self) -> Dict[str, dict]:
        """Unit records a resume (or re-journaling) would replay: the
        intact prefix of every salvageable file."""
        merged: Dict[str, dict] = {}
        for f in self.files:
            if f.salvageable:
                merged.update(f.records)
        return merged


def scan_journal_file(path: str) -> FileFsck:
    """Tolerantly scan one journal file; never raises on damage."""
    if not os.path.exists(path):
        return FileFsck(path=path, status="missing",
                        detail="file does not exist")
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as err:
        return FileFsck(path=path, status="corrupt",
                        detail=f"cannot read file: {err}")
    result = FileFsck(path=path, status="ok")
    pos = 0
    lineno = 0
    saw_header = False
    while pos < len(data):
        lineno += 1
        newline = data.find(b"\n", pos)
        complete = newline != -1
        chunk = data[pos:newline] if complete else data[pos:]
        record = _verify_line(chunk) if complete else None
        if record is None:
            at_eof = not complete or newline + 1 >= len(data)
            result.valid_bytes = pos
            result.bad_bytes = len(data) - pos
            result.first_bad_line = lineno
            if not saw_header:
                result.status = "corrupt"
                result.detail = "header record is missing or torn"
            elif at_eof:
                result.status = "torn"
                result.detail = (f"{result.bad_bytes} trailing byte(s) fail "
                                 "to verify — a torn tail; resume truncates "
                                 "them")
            else:
                result.status = "corrupt"
                result.detail = (f"line {lineno}: checksum or parse failure "
                                 "with intact records after it — corruption, "
                                 "not a torn tail; resume refuses this file")
            return result
        kind = record.get("type")
        if not saw_header:
            if kind != "header" or record.get("format") != JOURNAL_FORMAT:
                result.valid_bytes = pos
                result.bad_bytes = len(data) - pos
                result.first_bad_line = lineno
                result.status = "corrupt"
                result.detail = (f"first record must be a {JOURNAL_FORMAT} "
                                 f"header (got {kind!r})")
                return result
            result.campaign = record.get("campaign") or {}
            saw_header = True
        elif kind == "unit":
            result.records[record["unit"]] = record.get("payload") or {}
        elif kind == "resume":
            result.resumes += 1
            result.generation = max(result.generation,
                                    int(record.get("generation", 0)))
        else:
            result.valid_bytes = pos
            result.bad_bytes = len(data) - pos
            result.first_bad_line = lineno
            result.status = "corrupt"
            result.detail = f"line {lineno}: unknown record type {kind!r}"
            return result
        pos = newline + 1
    if not saw_header:
        result.status = "corrupt"
        result.detail = "file is empty (no header)"
        return result
    result.valid_bytes = pos
    return result


def fsck_journal(path: str) -> FsckReport:
    """Fsck a campaign journal file."""
    return FsckReport(path=path, files=[scan_journal_file(path)])


def render_fsck(report: FsckReport) -> str:
    """Human-readable fsck report (the CLI's output)."""
    lines = [f"fsck       {report.path}"]
    for f in report.files:
        lines.append(f"  {os.path.basename(f.path):28s} {f.status:8s} "
                     f"{len(f.records)} unit(s), {f.valid_bytes} byte(s) "
                     f"intact"
                     + (f", {f.bad_bytes} bad" if f.bad_bytes else ""))
        if f.detail:
            lines.append(f"    {f.detail}")
    salvage = report.salvageable_units()
    if report.clean:
        lines.append(f"verdict    clean — {len(salvage)} unit(s) journaled, "
                     "nothing to repair")
    elif report.resumable:
        lines.append(f"verdict    salvageable — a resume replays "
                     f"{len(salvage)} unit(s) after truncating torn tails")
    else:
        bad = ", ".join(os.path.basename(f.path)
                        for f in report.corrupt_files)
        lines.append(f"verdict    CORRUPT ({bad}) — resume will refuse; "
                     f"{len(salvage)} unit(s) remain salvageable")
    return "\n".join(lines)
