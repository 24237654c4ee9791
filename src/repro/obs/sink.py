"""JSONL trace sink and the one ``repro.obs/v2`` reader.

One JSON object per line: a ``meta`` header, then spans (sorted by ID),
events (by sequence number) and metrics (by name).  Sorting makes the
layout deterministic for a given set of records, so two runs of the same
configuration line up span for span — IDs, names and parents match (the
deterministic-ID property of :class:`repro.obs.trace.Tracer`); only
measured values, and the completion order of ``unit.finished`` events
under a process pool, differ.

A live stream is the other view of the same records, written as they
happen with ``snapshot`` records in between; ``read_trace``/``parse_trace``
decode either kind of file, line by line through :func:`decode_line`
(which ``repro obs tail --follow`` also uses).  Floats survive the round
trip exactly (``json`` emits ``repr``-style shortest-form floats), which
is what lets ``repro trace summarize`` reconcile with ``RunMetrics``
without slack.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ioutil import atomic_write_text
from repro.obs.live import ProgressTally
from repro.obs.trace import Event, Span, TRACE_FORMAT, Tracer


def trace_to_jsonl(tracer: Tracer, meta: Optional[dict] = None) -> str:
    """Serialize a tracer's records to JSONL text."""
    header = {"type": "meta", "format": TRACE_FORMAT}
    if meta:
        header.update(meta)
    lines = [json.dumps(header, sort_keys=True)]
    snapshot = tracer.metrics.snapshot()
    for span in sorted(tracer.spans, key=lambda s: s.span_id):
        record = span.to_dict()
        record["type"] = "span"
        lines.append(json.dumps(record, sort_keys=True))
    for event in sorted(tracer.events, key=lambda e: e.seq):
        record = event.to_dict()
        record["type"] = "event"
        lines.append(json.dumps(record, sort_keys=True))
    for name in sorted(snapshot["counters"]):
        lines.append(json.dumps(
            {"type": "counter", "name": name,
             "value": snapshot["counters"][name]}, sort_keys=True))
    for name in sorted(snapshot["gauges"]):
        lines.append(json.dumps(
            {"type": "gauge", "name": name,
             "value": snapshot["gauges"][name]}, sort_keys=True))
    for name in sorted(snapshot["histograms"]):
        count, total, lo, hi = snapshot["histograms"][name]
        lines.append(json.dumps(
            {"type": "histogram", "name": name, "count": count,
             "sum": total, "min": lo, "max": hi}, sort_keys=True))
    return "\n".join(lines) + "\n"


def write_trace(path: str, tracer: Tracer, meta: Optional[dict] = None) -> None:
    """Write the tracer's records to ``path`` as JSONL (atomically: a
    crash mid-write never leaves a half-trace under the target name)."""
    atomic_write_text(path, trace_to_jsonl(tracer, meta))


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------


class TraceFormatError(ValueError):
    """A meta header naming another format: a different file, not damage,
    so it is refused even by the tolerant reader."""


_RECORD_TYPES = frozenset({"meta", "span", "event", "snapshot",
                           "counter", "gauge", "histogram"})


def decode_line(line: str) -> dict:
    """Decode one record line of a trace file or live stream.

    Raises :class:`TraceFormatError` for a meta header with a foreign
    format tag and :class:`ValueError` for invalid JSON or an unknown
    record type.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError as err:
        raise ValueError(f"invalid JSON ({err})") from err
    kind = record.get("type") if isinstance(record, dict) else None
    if kind not in _RECORD_TYPES:
        raise ValueError(f"unknown record type {kind!r}")
    if kind == "meta" and record.get("format") != TRACE_FORMAT:
        raise TraceFormatError(
            f"unsupported format {record.get('format')!r} "
            f"(expected {TRACE_FORMAT})"
        )
    return record


@dataclass
class TraceData:
    """A parsed trace file or live stream."""

    meta: Dict[str, object] = field(default_factory=dict)
    spans: List[Span] = field(default_factory=list)
    #: event and snapshot records, in file order (wire shape)
    records: List[dict] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    #: name -> (count, sum, min, max)
    histograms: Dict[str, Tuple[int, float, Optional[float], Optional[float]]] = \
        field(default_factory=dict)
    #: lines skipped in tolerant mode (torn tail, truncated records)
    malformed: int = 0

    def add(self, record: dict) -> None:
        """File one decoded record (see :func:`decode_line`); a record
        missing a required key raises :class:`KeyError`."""
        kind = record["type"]
        if kind == "meta":
            self.meta = {k: v for k, v in record.items() if k != "type"}
        elif kind == "span":
            self.spans.append(Span.from_dict(record))
        elif kind in ("event", "snapshot"):
            if kind == "event" and "kind" not in record:
                raise KeyError("kind")
            self.records.append(record)
        elif kind == "histogram":
            self.histograms[record["name"]] = (
                record["count"], record["sum"],
                record.get("min"), record.get("max"),
            )
        elif kind == "counter":
            self.counters[record["name"]] = record["value"]
        else:
            self.gauges[record["name"]] = record["value"]

    def events(self, kind: Optional[str] = None) -> List[Event]:
        """The file's events (of one ``kind``, if given), in file order."""
        return [Event.from_dict(r) for r in self.records
                if r["type"] == "event"
                and (kind is None or r["kind"] == kind)]

    def snapshots(self) -> List[dict]:
        return [r for r in self.records if r["type"] == "snapshot"]

    @property
    def final_snapshot(self) -> Optional[dict]:
        for record in reversed(self.records):
            if record["type"] == "snapshot" and record.get("final"):
                return record
        return None

    def tally(self) -> ProgressTally:
        """Fold the file's campaign and unit events into campaign totals."""
        tally = ProgressTally()
        for record in self.records:
            tally.fold(record)
        return tally

    def spans_named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def span_by_id(self, span_id: str) -> Optional[Span]:
        for span in self.spans:
            if span.span_id == span_id:
                return span
        return None


def parse_trace(text: str, strict: bool = True) -> TraceData:
    """Parse a trace file's or live stream's text into a :class:`TraceData`.

    In strict mode (the default, for library callers that want loud
    failures) any bad line raises :class:`ValueError`.  With
    ``strict=False`` — what ``repro trace`` and ``repro obs tail`` use —
    malformed lines are *counted* in :attr:`TraceData.malformed` and
    skipped, so a file with a torn tail (the writer was SIGKILLed
    mid-write) still reads.  A wrong ``format`` tag in the meta header
    raises either way (:class:`TraceFormatError`).
    """
    trace = TraceData()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            trace.add(decode_line(line))
        except TraceFormatError:
            raise
        except (ValueError, KeyError, TypeError) as err:
            if strict:
                # KeyError/TypeError: valid JSON, but a truncated record
                detail = (err if isinstance(err, ValueError)
                          else f"truncated record ({err!r})")
                raise ValueError(f"line {lineno}: {detail}") from err
            trace.malformed += 1
    return trace


def read_trace(path: str, strict: bool = True) -> TraceData:
    """Read and parse a trace file or live stream (see :func:`parse_trace`)."""
    with open(path, encoding="utf-8") as handle:
        return parse_trace(handle.read(), strict=strict)
