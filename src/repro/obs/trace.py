"""Span-based tracing for the harness.

A :class:`Span` is one timed region of work (a template, a phase, a
compile, a Titan node check) with a parent link, free-form attributes and a
worker label.  A :class:`Tracer` collects spans, typed events and metrics
for one run and is the single object threaded through the runner, the
execution engines, the compile cache and the Titan harness.

Design points that matter to the rest of the system:

* **Deterministic IDs.**  A span's ID is ``name[key]`` where the key is
  derived from stable identity (template feature+language, phase mode,
  node id) — never from scheduling.  Serial and parallel runs of the same
  configuration therefore produce spans with *identical IDs*, so traces
  are diffable/joinable across policies.  Repeated (name, key) pairs are
  disambiguated with a ``~n`` suffix in creation order.
* **Spans are the timers.**  ``Span.__enter__``/``__exit__`` take the
  ``perf_counter`` readings, and the runner copies ``span.duration`` into
  ``PhaseResult.compile_s``/``run_s``.  One reading means the trace and
  :class:`~repro.harness.engine.RunMetrics` reconcile *exactly*, not just
  approximately.
* **Disabled tracing is free.**  :data:`NULL_TRACER` returns
  :class:`NullSpan` objects that still time (the runner needs the
  durations regardless) but record nothing and allocate nothing else;
  the metric API degrades to shared no-op instruments.
* **Worker marshalling.**  Process-pool workers run their own tracer,
  :meth:`Tracer.drain` the collected spans/events/metrics into a plain
  picklable payload after each work unit, and the parent
  tracer calls :meth:`Tracer.adopt` — relabelling the worker and
  renumbering event sequence numbers.  Spans without a parent are later
  attached under the suite-run root span by
  :meth:`Tracer.reparent_orphans`, so one trace covers the whole run.
  Workers record events whenever the parent has a trace *or* a live
  stream, so adopted live-kind events reach the stream too.
* **One emitter.**  :meth:`Tracer.event` is the only call that emits an
  observable fact: it records the event in the trace and forwards the
  kinds in :data:`LIVE_KINDS` to the run's live pipeline
  (:attr:`Tracer.live`), so a trace and a live stream carry the same
  record with the same fields.

Span parentage is tracked per-thread (a thread-local stack), which makes
nesting automatic in serial code and keeps concurrent threads (e.g. the
campaign server's) isolated.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry, NULL_METRICS

#: format tag written into the meta header of trace files and live
#: streams alike, and checked by the one reader (:mod:`repro.obs.sink`)
TRACE_FORMAT = "repro.obs/v2"

#: event kinds a live stream carries: :meth:`Tracer.event` forwards these
#: (and only these) to the run's live pipeline.  Compile, lowering,
#: journal and iteration events stay in the trace.
LIVE_KINDS = frozenset({
    "campaign.start", "campaign.extend", "unit.finished",
    "engine.retry", "engine.harness_error", "engine.worker_lost",
    "titan.quarantined", "titan.recovered",
})


class Span:
    """One timed, attributed region of work."""

    __slots__ = ("span_id", "name", "key", "parent_id", "worker",
                 "t0", "t1", "attrs", "_tracer")

    def __init__(self, span_id: str, name: str, key: Optional[str],
                 parent_id: Optional[str], worker: str,
                 tracer: Optional["Tracer"] = None,
                 attrs: Optional[Dict[str, object]] = None):
        self.span_id = span_id
        self.name = name
        self.key = key
        self.parent_id = parent_id
        self.worker = worker
        self.t0 = 0.0
        self.t1 = 0.0
        self.attrs: Dict[str, object] = attrs if attrs is not None else {}
        self._tracer = tracer

    @property
    def duration(self) -> float:
        return max(0.0, self.t1 - self.t0)

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer._push(self)
        self.t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.t1 = perf_counter()
        if self._tracer is not None:
            self._tracer._pop(self)
            self._tracer._record(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.span_id!r}, parent={self.parent_id!r}, dur={self.duration:.6f})"

    def to_dict(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "key": self.key,
            "parent": self.parent_id,
            "worker": self.worker,
            "t0": self.t0,
            "dur_s": self.duration,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span = cls(data["id"], data["name"], data.get("key"),
                   data.get("parent"), data.get("worker", ""),
                   attrs=dict(data.get("attrs") or {}))
        span.t0 = data.get("t0", 0.0)
        span.t1 = span.t0 + data.get("dur_s", 0.0)
        return span


class Event:
    """A typed point-in-time record (e.g. ``iteration.failed``).

    Serialized in the one record shape trace files and live streams
    share: ``{"kind": K, "fields": {...}, "seq": n}``, plus ``span`` when
    the event was recorded inside an open span.
    """

    __slots__ = ("seq", "kind", "span_id", "fields")

    def __init__(self, seq: int, kind: str, span_id: Optional[str],
                 fields: Dict[str, object]):
        self.seq = seq
        self.kind = kind
        self.span_id = span_id
        self.fields = fields

    def to_dict(self) -> dict:
        record = {"kind": self.kind, "fields": self.fields, "seq": self.seq}
        if self.span_id is not None:
            record["span"] = self.span_id
        return record

    @classmethod
    def from_dict(cls, data: dict) -> "Event":
        return cls(data.get("seq", 0), data["kind"], data.get("span"),
                   dict(data.get("fields") or {}))


class Tracer:
    """Collects spans, events and metrics for one run.

    ``profile`` additionally surfaces the accsim execution profile
    (bytes moved by data clauses, async-queue waits/depth, step counts)
    as span attributes and histograms.
    """

    enabled = True

    def __init__(self, profile: bool = False):
        self.profile = profile
        #: the run's live pipeline (a repro.obs.live.LiveTelemetry), bound
        #: by the run that owns it; live-kind events are forwarded to it
        self.live = None
        self.metrics = MetricsRegistry()
        self.spans: List[Span] = []
        self.events: List[Event] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._used_ids: set = set()
        self._seq = 0

    # ------------------------------------------------------------- span api

    def current(self) -> Optional[Span]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def span(self, name: str, key: Optional[str] = None,
             parent: Optional[object] = None, worker: Optional[str] = None,
             **attrs) -> Span:
        """Create a span; use as a context manager to time and record it.

        ``parent`` may be a :class:`Span`, an explicit parent ID string, or
        None (the current thread's innermost open span, if any).
        """
        parent_id = parent.span_id if isinstance(parent, Span) else parent
        if parent_id is None:
            current = self.current()
            parent_id = current.span_id if current is not None else None
        if worker is None:
            worker = threading.current_thread().name
        return Span(self._make_id(name, key), name, key, parent_id, worker,
                    tracer=self, attrs=dict(attrs) if attrs else None)

    def event(self, kind: str, /, **fields) -> None:
        """Record one event; a live-kind event also reaches :attr:`live`."""
        current = self.current()
        span_id = current.span_id if current is not None else None
        with self._lock:
            seq = self._seq
            self._seq += 1
            self.events.append(Event(seq, kind, span_id, fields))
        live = self.live
        if live is not None and kind in LIVE_KINDS:
            live.event(kind, **fields)

    # ------------------------------------------------------------ internals

    def _make_id(self, name: str, key: Optional[str]) -> str:
        base = f"{name}[{key}]" if key is not None else name
        with self._lock:
            if base not in self._used_ids:
                self._used_ids.add(base)
                return base
            n = 2
            while f"{base}~{n}" in self._used_ids:
                n += 1
            span_id = f"{base}~{n}"
            self._used_ids.add(span_id)
            return span_id

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    # ----------------------------------------------------------- marshalling

    def drain(self) -> dict:
        """Snapshot everything recorded so far as a picklable payload and
        reset (used by process-pool workers after each work unit)."""
        with self._lock:
            payload = {
                "spans": [span.to_dict() for span in self.spans],
                "events": [event.to_dict() for event in self.events],
            }
            self.spans = []
            self.events = []
            self._used_ids = set()
            self._seq = 0
        payload["metrics"] = self.metrics.snapshot()
        self.metrics.clear()
        return payload

    def adopt(self, payload: dict, worker: Optional[str] = None) -> None:
        """Merge a drained payload from another tracer (another process).

        Adopted spans are relabelled with ``worker`` (the pool's name for
        the process); event sequence numbers are renumbered into this
        tracer's stream so ordering stays total, and live-kind events are
        forwarded to :attr:`live` as if recorded here.
        """
        spans = [Span.from_dict(d) for d in payload.get("spans", [])]
        events = [Event.from_dict(d) for d in payload.get("events", [])]
        events.sort(key=lambda e: e.seq)
        with self._lock:
            for span in spans:
                if worker is not None:
                    span.worker = worker
                self._used_ids.add(span.span_id)
                self.spans.append(span)
            for event in events:
                event.seq = self._seq
                self._seq += 1
                self.events.append(event)
        self.metrics.merge(payload.get("metrics", {}))
        live = self.live
        if live is not None:
            for event in events:
                if event.kind in LIVE_KINDS:
                    live.event(event.kind, **event.fields)

    def reparent_orphans(self, root: Span) -> None:
        """Attach every recorded parentless span under ``root`` — the step
        that stitches worker-local traces into one run-wide tree."""
        with self._lock:
            for span in self.spans:
                if span.parent_id is None and span is not root:
                    span.parent_id = root.span_id


# ---------------------------------------------------------------------------
# disabled tracing
# ---------------------------------------------------------------------------


class NullSpan:
    """Times (the runner reads ``duration`` either way) but records nothing."""

    __slots__ = ("t0", "t1")

    span_id = ""
    name = ""
    key = None
    parent_id = None
    worker = ""
    attrs: Dict[str, object] = {}

    def __init__(self) -> None:
        self.t0 = 0.0
        self.t1 = 0.0

    @property
    def duration(self) -> float:
        return max(0.0, self.t1 - self.t0)

    def set(self, **attrs) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        self.t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.t1 = perf_counter()
        return False


class NullTracer:
    """The default tracer: every operation is a no-op (modulo two
    ``perf_counter`` reads per span, which the untraced runner paid for
    its timing instrumentation already).

    An untraced run with live telemetry gets its own ``NullTracer(live)``:
    it records nothing, but forwards live-kind events to ``live``.  The
    shared :data:`NULL_TRACER` never carries a pipeline.
    """

    enabled = False
    profile = False
    metrics = NULL_METRICS
    spans: List[Span] = []
    events: List[Event] = []

    def __init__(self, live=None):
        self.live = live

    def current(self) -> None:
        return None

    def span(self, name: str, key: Optional[str] = None,
             parent: Optional[object] = None, worker: Optional[str] = None,
             **attrs) -> NullSpan:
        return NullSpan()

    def event(self, kind: str, /, **fields) -> None:
        if self.live is not None and kind in LIVE_KINDS:
            self.live.event(kind, **fields)

    def drain(self) -> dict:
        return {"spans": [], "events": [], "metrics": {}}

    def adopt(self, payload: dict, worker: Optional[str] = None) -> None:
        for data in payload.get("events", []):  # drained in seq order
            self.event(data["kind"], **data.get("fields", {}))

    def reparent_orphans(self, root) -> None:
        pass


NULL_TRACER = NullTracer()
