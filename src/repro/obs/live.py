"""Live campaign telemetry (``repro.obs.live``).

A trace is written *after* a run; a week-long campaign needs
observability *during* it.  A live stream is the second view of the one
``repro.obs/v2`` record model: the run's tracer forwards the event kinds
in :data:`~repro.obs.trace.LIVE_KINDS` here as they happen.

* :class:`ProgressTally` — the pure fold from unit events to campaign
  totals, shared by the live reporter, the offline summary and the
  report's ``RunMetrics``, so all three reconcile by construction.
* :class:`SnapshotReporter` — periodically folds the tally into a
  campaign snapshot: progress fraction, ETA, units/sec, per-phase
  pass/fail/harness-error counts, the compile-cache hit rate,
  retry/quarantine counts and unit timing.
* Three sinks — :class:`NDJSONStreamSink` (append-only stream, one
  flushed line per record so a reader tailing the file sees at worst one
  torn final line; the final snapshot is *also* written atomically to
  ``<path>.snapshot.json`` via :mod:`repro.ioutil`),
  :class:`StatusLineSink` (a TTY status line for interactive runs) and
  :class:`PrometheusSink` (a textfile-exporter ``*.prom`` file rewritten
  atomically on every snapshot).
* :class:`LiveTelemetry` — the campaign-scoped pipeline: it stamps each
  record's ``seq`` and fans it out to the sinks under one lock.  Built
  from :class:`~repro.harness.config.HarnessConfig` knobs
  (``live_stream``/``status``/``prom``) and bound to the run's tracer by
  :class:`~repro.harness.runner.ValidationRunner` and
  :class:`~repro.harness.titan.TitanHarness`.

Telemetry *observes* a run and never changes it: suite reports are
byte-identical with live telemetry enabled or disabled, under every
execution policy.
"""

from __future__ import annotations

import json
import os
import re
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.ioutil import atomic_write_text
from repro.obs.trace import TRACE_FORMAT

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.config import HarnessConfig
    from repro.harness.runner import SuiteRunReport, TestResult


# ---------------------------------------------------------------------------
# the fold: unit events -> campaign totals
# ---------------------------------------------------------------------------


def unit_fields(index: int, unit: str, result: "TestResult", *,
                replayed: bool = False) -> dict:
    """The JSON-safe fields of one ``unit.finished`` event.

    The one phase-accounting rule: phases that never reached the compiler
    (harness or static errors) contribute no iterations, timings or cache
    flags.  :func:`repro.harness.engine.build_metrics` folds these same
    fields into the report's :class:`~repro.harness.engine.RunMetrics`, so
    a tally folded from the events reconciles with it without slack.
    """
    kind = result.failure_kind
    fields = {
        "unit": unit,
        "index": index,
        "replayed": replayed,
        "passed": result.passed,
        "failure_kind": kind.value if kind is not None else None,
        "elapsed_s": result.elapsed_s,
        "iterations": 0,
        "compile_cache_hits": 0,
        "compile_cache_misses": 0,
        "compile_s": 0.0,
        "run_s": 0.0,
        "phases": {},
    }
    for phase in (result.functional, result.cross):
        if phase is None:
            continue
        fields["phases"][phase.mode] = {
            "ok": phase.all_correct,
            "harness_error": phase.harness_error is not None,
            "static_error": phase.static_error is not None,
        }
        if phase.harness_error is not None or phase.static_error is not None:
            # the unit never reached the compiler: mirror build_metrics
            continue
        fields["iterations"] += len(phase.iterations)
        fields["compile_s"] += phase.compile_s
        fields["run_s"] += phase.run_s
        if phase.cache_hit:
            fields["compile_cache_hits"] += 1
        else:
            fields["compile_cache_misses"] += 1
    return fields


@dataclass
class ProgressTally:
    """Campaign totals folded from campaign and unit events.

    Every field only ever increases (or is set once, for ``total_units``),
    which is what makes snapshot progress monotone.  The same fold backs
    the in-run :class:`SnapshotReporter` and the offline
    ``repro obs tail --summarize``.
    """

    total_units: int = 0
    units_done: int = 0
    replayed: int = 0
    passed: int = 0
    failed: int = 0
    harness_errors: int = 0
    static_errors: int = 0
    retries: int = 0
    worker_lost: int = 0
    quarantined: int = 0
    recovered: int = 0
    iterations_run: int = 0
    compile_cache_hits: int = 0
    compile_cache_misses: int = 0
    compile_s: float = 0.0
    execute_s: float = 0.0
    #: failure-kind value -> count (result-level dominant kinds)
    failure_kinds: Dict[str, int] = field(default_factory=dict)
    #: phase mode -> {"pass": n, "fail": n, "harness_error": n, "static_error": n}
    phase_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: [count, sum, min, max] of unit durations
    unit_timing: List[float] = field(
        default_factory=lambda: [0, 0.0, 0.0, 0.0])

    @property
    def progress(self) -> Optional[float]:
        if self.total_units <= 0:
            return None
        return min(1.0, self.units_done / self.total_units)

    @property
    def compile_cache_hit_rate(self) -> float:
        total = self.compile_cache_hits + self.compile_cache_misses
        return self.compile_cache_hits / total if total else 0.0

    def fold(self, record: dict) -> None:
        """Fold one event record; snapshots and other kinds are ignored."""
        if record.get("type") != "event":
            return
        kind = record.get("kind")
        fields = record.get("fields") or {}
        if kind == "campaign.start":
            self.total_units = int(fields.get("total_units", 0))
        elif kind == "campaign.extend":
            self.total_units += int(fields.get("units", 0))
        elif kind == "unit.finished":
            self.fold_unit(fields)
        elif kind == "engine.retry":
            self.retries += 1
        elif kind == "engine.worker_lost":
            self.worker_lost += 1
        elif kind == "titan.quarantined":
            self.quarantined += 1
        elif kind == "titan.recovered":
            self.recovered += 1

    def fold_unit(self, fields: dict) -> None:
        """Fold one ``unit.finished`` event's fields."""
        self.units_done += 1
        if fields.get("replayed"):
            self.replayed += 1
        if fields.get("passed"):
            self.passed += 1
        else:
            self.failed += 1
            kind = fields.get("failure_kind")
            if kind is not None:
                self.failure_kinds[kind] = self.failure_kinds.get(kind, 0) + 1
        self.iterations_run += int(fields.get("iterations", 0))
        self.compile_cache_hits += int(fields.get("compile_cache_hits", 0))
        self.compile_cache_misses += int(fields.get("compile_cache_misses", 0))
        self.compile_s += float(fields.get("compile_s", 0.0))
        self.execute_s += float(fields.get("run_s", 0.0))
        for mode, phase in (fields.get("phases") or {}).items():
            counts = self.phase_counts.setdefault(
                mode, {"pass": 0, "fail": 0,
                       "harness_error": 0, "static_error": 0}
            )
            if phase.get("harness_error"):
                counts["harness_error"] += 1
                self.harness_errors += 1
            elif phase.get("static_error"):
                counts["static_error"] += 1
                self.static_errors += 1
            elif phase.get("ok"):
                counts["pass"] += 1
            else:
                counts["fail"] += 1
        elapsed = float(fields.get("elapsed_s", 0.0))
        timing = self.unit_timing
        if timing[0] == 0:
            timing[:] = [1, elapsed, elapsed, elapsed]
        else:
            timing[0] += 1
            timing[1] += elapsed
            timing[2] = min(timing[2], elapsed)
            timing[3] = max(timing[3], elapsed)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------


class SnapshotReporter:
    """Folds the tally into periodic campaign snapshots.

    ``every_units`` / ``min_interval_s`` bound the cadence: a snapshot is
    due once at least ``every_units`` fresh folds *and* at least
    ``min_interval_s`` seconds have accumulated since the last one.  The
    clock is injectable so tests are deterministic.
    """

    def __init__(self, tally: Optional[ProgressTally] = None,
                 every_units: int = 1, min_interval_s: float = 0.0,
                 clock: Callable[[], float] = time.monotonic):
        self.tally = tally if tally is not None else ProgressTally()
        self.every_units = max(1, every_units)
        self.min_interval_s = max(0.0, min_interval_s)
        self.clock = clock
        self._t0: Optional[float] = None
        self._last_units = 0
        self._last_t: Optional[float] = None

    def begin(self) -> None:
        if self._t0 is None:
            self._t0 = self.clock()
            self._last_t = self._t0

    @property
    def wall_s(self) -> float:
        if self._t0 is None:
            return 0.0
        return max(0.0, self.clock() - self._t0)

    def due(self) -> bool:
        done = self.tally.units_done
        if done - self._last_units < self.every_units:
            return False
        if self._last_t is not None and self.min_interval_s > 0.0:
            if self.clock() - self._last_t < self.min_interval_s:
                return False
        return True

    def snapshot(self, final: bool = False,
                 metrics: Optional[dict] = None) -> dict:
        """Build one snapshot record from the current tally.

        ``metrics`` is an optional authoritative
        :class:`~repro.harness.engine.RunMetrics`-derived dict folded into
        the *final* snapshot, so offline readers get the exact report
        numbers (float summation order differs across policies; the
        integer tallies are exact either way).
        """
        t = self.tally
        count, total, lo, hi = t.unit_timing
        self._last_units = t.units_done
        self._last_t = self.clock()
        wall = self.wall_s
        fresh = t.units_done - t.replayed
        units_per_sec = fresh / wall if wall > 0.0 else 0.0
        eta_s: Optional[float] = None
        if t.total_units > 0 and units_per_sec > 0.0:
            remaining = max(0, t.total_units - t.units_done)
            eta_s = remaining / units_per_sec
        record = {
            "type": "snapshot",
            "final": final,
            "progress": t.progress,
            "total_units": t.total_units,
            "units_done": t.units_done,
            "replayed": t.replayed,
            "wall_s": round(wall, 6),
            "units_per_sec": round(units_per_sec, 6),
            "eta_s": round(eta_s, 6) if eta_s is not None else None,
            "passed": t.passed,
            "failed": t.failed,
            "failure_kinds": dict(sorted(t.failure_kinds.items())),
            "phase_counts": {m: dict(c)
                             for m, c in sorted(t.phase_counts.items())},
            "harness_errors": t.harness_errors,
            "static_errors": t.static_errors,
            "retries": t.retries,
            "worker_lost": t.worker_lost,
            "quarantined": t.quarantined,
            "recovered": t.recovered,
            "iterations_run": t.iterations_run,
            "compile_cache": {
                "hits": t.compile_cache_hits,
                "misses": t.compile_cache_misses,
                "hit_rate": round(t.compile_cache_hit_rate, 6),
            },
            "unit_timing": {"count": int(count), "sum": round(total, 6),
                            "min": round(lo, 6), "max": round(hi, 6)},
        }
        if metrics is not None:
            record["run_metrics"] = metrics
        return record


# ---------------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------------


class NDJSONStreamSink:
    """Append-only NDJSON stream file (``repro.obs/v2`` records).

    Every record is one ``json.dumps`` line, written and flushed
    immediately — an observer tailing the file sees completed lines plus at
    most one torn final line if the writer is killed mid-write, which the
    tolerant reader (:func:`repro.obs.sink.parse_trace`) skips and counts.
    On close, the final snapshot is appended to the stream *and* written
    atomically to ``<path>.snapshot.json`` so dashboards polling for the
    end state never see a partial file.
    """

    def __init__(self, path: str):
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")

    def emit(self, record: dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self, final: Optional[dict] = None) -> None:
        if self._fh.closed:
            return
        try:
            os.fsync(self._fh.fileno())
        except OSError:  # pragma: no cover - platform-dependent
            pass
        self._fh.close()
        if final is not None:
            atomic_write_text(
                self.path + ".snapshot.json",
                json.dumps(final, indent=2, sort_keys=True) + "\n",
            )


def render_status_line(snapshot: dict) -> str:
    """One-line progress rendering for interactive terminals."""
    done = snapshot.get("units_done", 0)
    total = snapshot.get("total_units", 0)
    progress = snapshot.get("progress")
    if total > 0 and progress is not None:
        head = f"[{done}/{total} {progress:6.1%}]"
    else:
        head = f"[{done} units]"
    parts = [
        head,
        f"pass {snapshot.get('passed', 0)}",
        f"fail {snapshot.get('failed', 0)}",
    ]
    harness_errors = snapshot.get("harness_errors", 0)
    if harness_errors:
        parts.append(f"herr {harness_errors}")
    retries = snapshot.get("retries", 0)
    if retries:
        parts.append(f"retry {retries}")
    replayed = snapshot.get("replayed", 0)
    if replayed:
        parts.append(f"replayed {replayed}")
    ups = snapshot.get("units_per_sec") or 0.0
    parts.append(f"{ups:.1f} u/s")
    eta = snapshot.get("eta_s")
    if eta is not None:
        parts.append(f"eta {eta:.0f}s")
    cache = snapshot.get("compile_cache") or {}
    if (cache.get("hits", 0) + cache.get("misses", 0)) > 0:
        parts.append(f"cache {cache.get('hit_rate', 0.0):.0%}")
    return " ".join(parts)


class StatusLineSink:
    """A ``\\r``-rewritten status line on a terminal stream.

    Only snapshot records repaint the line (per-unit events would flood a
    TTY); the close repaints the final snapshot and terminates the line.
    """

    def __init__(self, stream=None):
        self.stream = stream if stream is not None else sys.stderr
        self._last_width = 0

    def emit(self, record: dict) -> None:
        if record.get("type") != "snapshot":
            return
        line = render_status_line(record)
        pad = " " * max(0, self._last_width - len(line))
        self._last_width = len(line)
        self.stream.write("\r" + line + pad)
        self.stream.flush()

    def close(self, final: Optional[dict] = None) -> None:
        if final is not None:
            self.emit(final)
        if self._last_width:
            self.stream.write("\n")
            self.stream.flush()


# -- Prometheus textfile exporter -------------------------------------------

#: metric family -> (type, help); families with labels list them per sample
_PROM_PREFIX = "repro_campaign_"


def _prom_escape(value: str) -> str:
    return (value.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _prom_number(value) -> str:
    if value is None:
        return "NaN"
    return repr(float(value)) if isinstance(value, float) else str(value)


def render_prometheus(snapshot: dict) -> str:
    """Render one snapshot in the Prometheus text exposition format.

    One HELP and one TYPE line per family, samples grouped under them, no
    duplicate series — the shape :func:`lint_prometheus` (and a node
    exporter's textfile collector) expects.
    """
    out: List[str] = []

    def family(name: str, mtype: str, help_text: str,
               samples: Sequence) -> None:
        out.append(f"# HELP {_PROM_PREFIX}{name} {help_text}")
        out.append(f"# TYPE {_PROM_PREFIX}{name} {mtype}")
        for sample in samples:
            suffix, labels, value = sample
            label_s = ""
            if labels:
                inner = ",".join(
                    f'{k}="{_prom_escape(str(v))}"'
                    for k, v in sorted(labels.items())
                )
                label_s = "{" + inner + "}"
            out.append(
                f"{_PROM_PREFIX}{name}{suffix}{label_s} {_prom_number(value)}"
            )

    progress = snapshot.get("progress")
    family("progress_ratio", "gauge",
           "Fraction of campaign units completed (replayed included).",
           [("", None, progress if progress is not None else 0.0)])
    family("units_total", "gauge", "Total units in the campaign.",
           [("", None, snapshot.get("total_units", 0))])
    family("units_done_total", "counter",
           "Completed units, fresh and replayed.",
           [("", None, snapshot.get("units_done", 0))])
    family("units_replayed_total", "counter",
           "Units replayed from the campaign journal.",
           [("", None, snapshot.get("replayed", 0))])
    family("units_passed_total", "counter", "Units that passed.",
           [("", None, snapshot.get("passed", 0))])
    family("units_failed_total", "counter", "Units that failed.",
           [("", None, snapshot.get("failed", 0))])
    family("failures_total", "counter",
           "Failed units by dominant failure kind.",
           [("", {"kind": kind}, count)
            for kind, count in sorted(
                (snapshot.get("failure_kinds") or {}).items())])
    family("phase_results_total", "counter",
           "Phase outcomes by mode and verdict.",
           [("", {"mode": mode, "verdict": verdict}, count)
            for mode, counts in sorted(
                (snapshot.get("phase_counts") or {}).items())
            for verdict, count in sorted(counts.items())])
    family("retries_total", "counter",
           "Work-unit retries after harness faults.",
           [("", None, snapshot.get("retries", 0))])
    family("worker_lost_total", "counter",
           "Process-pool worker deaths survived.",
           [("", None, snapshot.get("worker_lost", 0))])
    family("quarantined_nodes", "gauge",
           "Titan nodes quarantined minus recovered.",
           [("", None, (snapshot.get("quarantined", 0)
                        - snapshot.get("recovered", 0)))])
    family("iterations_total", "counter",
           "Program executions across all phases.",
           [("", None, snapshot.get("iterations_run", 0))])
    cache = snapshot.get("compile_cache") or {}
    family("cache_lookups_total", "counter",
           "Compile cache lookups by outcome.",
           [("", {"cache": "compile", "outcome": "hit"},
             cache.get("hits", 0)),
            ("", {"cache": "compile", "outcome": "miss"},
             cache.get("misses", 0))])
    timing = snapshot.get("unit_timing") or {}
    family("unit_seconds", "summary", "Unit wall-clock seconds.",
           [("_count", None, timing.get("count", 0)),
            ("_sum", None, timing.get("sum", 0.0))])
    family("units_per_second", "gauge",
           "Fresh (non-replayed) unit completion rate.",
           [("", None, snapshot.get("units_per_sec", 0.0))])
    family("eta_seconds", "gauge",
           "Estimated seconds to campaign completion (NaN when unknown).",
           [("", None, snapshot.get("eta_s"))])
    family("wall_seconds", "gauge", "Campaign wall-clock seconds so far.",
           [("", None, snapshot.get("wall_s", 0.0))])
    return "\n".join(out) + "\n"


_PROM_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>[^ ]+)(?: [0-9]+)?$"
)


def lint_prometheus(text: str) -> List[str]:
    """Validate Prometheus text exposition; returns problems (empty = ok).

    Checks the properties a textfile collector cares about: every sample
    belongs to a family with exactly one ``# HELP`` and one ``# TYPE``
    (declared before the first sample), values parse as numbers, and no
    series — (name, labelset) pair — appears twice.
    """
    problems: List[str] = []
    helped: Dict[str, int] = {}
    typed: Dict[str, str] = {}
    seen_series: set = set()
    sampled: set = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not parts[3].strip():
                problems.append(f"line {lineno}: HELP without text")
                continue
            name = parts[2]
            helped[name] = helped.get(name, 0) + 1
            if helped[name] > 1:
                problems.append(f"line {lineno}: duplicate HELP for {name}")
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"):
                problems.append(f"line {lineno}: malformed TYPE line")
                continue
            name = parts[2]
            if name in typed:
                problems.append(f"line {lineno}: duplicate TYPE for {name}")
            if name in sampled:
                problems.append(
                    f"line {lineno}: TYPE for {name} after its samples")
            typed[name] = parts[3]
            continue
        if line.startswith("#"):
            continue  # free comment
        match = _PROM_SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        family = name
        for suffix in ("_count", "_sum", "_bucket"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and typed.get(base) in ("summary", "histogram"):
                family = base
                break
        if family not in typed:
            problems.append(
                f"line {lineno}: sample {name} has no TYPE declaration")
        if family not in helped:
            problems.append(
                f"line {lineno}: sample {name} has no HELP declaration")
        sampled.add(family)
        value = match.group("value")
        if value not in ("NaN", "+Inf", "-Inf"):
            try:
                float(value)
            except ValueError:
                problems.append(
                    f"line {lineno}: sample value {value!r} is not a number")
        series = (name, match.group("labels") or "")
        if series in seen_series:
            problems.append(
                f"line {lineno}: duplicate series {name}"
                f"{match.group('labels') or ''}")
        seen_series.add(series)
    return problems


class PrometheusSink:
    """Textfile exporter: the ``*.prom`` file is atomically rewritten on
    every snapshot, so a scraper (or node exporter textfile collector)
    always reads one complete, self-consistent exposition."""

    def __init__(self, path: str):
        self.path = path

    def emit(self, record: dict) -> None:
        if record.get("type") != "snapshot":
            return
        atomic_write_text(self.path, render_prometheus(record))

    def close(self, final: Optional[dict] = None) -> None:
        if final is not None:
            self.emit(final)


# ---------------------------------------------------------------------------
# the campaign-scoped pipeline
# ---------------------------------------------------------------------------


class LiveTelemetry:
    """Tally + reporter + sinks for one campaign.

    Records reach it through the run's tracer (:meth:`event`, called by
    :meth:`repro.obs.Tracer.event` for live kinds) from the engines'
    completion callbacks and, for retries, from worker threads; one lock
    serializes sequencing, folding and fan-out, so sinks never need their
    own locking and record order is total.  Closing is idempotent and
    always finalizes the sinks with a final snapshot, even when the
    campaign is interrupted mid-run (graceful drain, injected faults).
    """

    def __init__(self, sinks: Sequence[object],
                 every_units: int = 1, min_interval_s: float = 0.0,
                 clock: Callable[[], float] = time.monotonic):
        self.sinks = list(sinks)
        self.tally = ProgressTally()
        self.reporter = SnapshotReporter(
            self.tally, every_units=every_units,
            min_interval_s=min_interval_s, clock=clock,
        )
        self._lock = threading.RLock()
        self._seq = 0
        self._closed = False
        self._began = False

    # ------------------------------------------------------------- lifecycle

    @classmethod
    def from_config(cls, config: "HarnessConfig") -> Optional["LiveTelemetry"]:
        """Build the pipeline a config's telemetry knobs ask for.

        Returns None when no knob is set — the run then binds no
        pipeline, keeping disabled telemetry free.
        """
        sinks: List[object] = []
        if config.live_stream:
            sinks.append(NDJSONStreamSink(config.live_stream))
        if config.status:
            sinks.append(StatusLineSink())
        if config.prom:
            sinks.append(PrometheusSink(config.prom))
        if not sinks:
            return None
        # time-throttled snapshots: the NDJSON stream still carries every
        # unit event (flushed per line), but snapshot folding — and the
        # atomic+fsync .prom rewrite — happens at most ~5x/sec, keeping
        # live telemetry inside its <= 1.15x overhead budget.  The final
        # snapshot is always emitted on end().
        return cls(sinks, min_interval_s=0.2)

    @property
    def began(self) -> bool:
        return self._began

    def _emit(self, record: dict) -> dict:
        """Stamp ``seq`` and fan the record out (caller holds the lock)."""
        record["seq"] = self._seq
        self._seq += 1
        for sink in self.sinks:
            sink.emit(record)
        return record

    def begin(self, **meta) -> None:
        """Write the stream's meta header (once); the campaign's
        ``campaign.start`` event follows through the run's tracer."""
        with self._lock:
            if self._began:
                return
            self._began = True
            self.reporter.begin()
            self._emit(dict(meta, type="meta", format=TRACE_FORMAT))

    # ------------------------------------------------------------ publishing

    def event(self, kind: str, /, **fields) -> None:
        """Publish one event, fold it into the tally and, after a finished
        unit, emit a snapshot when one is due."""
        with self._lock:
            if self._closed:
                return
            record = self._emit({"type": "event", "kind": kind,
                                 "fields": fields})
            self.tally.fold(record)
            if kind == "unit.finished" and self.reporter.due():
                self._emit(self.reporter.snapshot())

    # --------------------------------------------------------------- closing

    def end(self, report: Optional["SuiteRunReport"] = None) -> None:
        """Emit the final snapshot and close every sink (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            # the authoritative RunMetrics block of a final snapshot
            metrics = (asdict(report.metrics) if report is not None
                       and report.metrics is not None else None)
            # close sinks with the *stamped* record, so the atomic
            # .snapshot.json sidecar matches the stream's last line exactly
            snapshot = self._emit(
                self.reporter.snapshot(final=True, metrics=metrics))
            for sink in self.sinks:
                close = getattr(sink, "close", None)
                if close is not None:
                    close(snapshot)


# ---------------------------------------------------------------------------
# reading a stream back (repro obs tail)
# ---------------------------------------------------------------------------


def render_record_line(record: dict) -> str:
    """One human-readable line per stream record (``repro obs tail``)."""
    seq = record.get("seq", "?")
    if record.get("type") == "snapshot":
        tag = "FINAL" if record.get("final") else "snap"
        return f"#{seq:<6} {tag:18s} {render_status_line(record)}"
    kind = str(record.get("kind", "?"))
    fields = record.get("fields") or {}
    if kind == "unit.finished":
        verdict = "pass" if fields.get("passed") else (
            fields.get("failure_kind") or "fail")
        extra = " replayed" if fields.get("replayed") else ""
        return (f"#{seq:<6} {kind:18s} {fields.get('unit', '?')} "
                f"{verdict}{extra}")
    detail = " ".join(f"{k}={fields[k]}" for k in sorted(fields))
    return f"#{seq:<6} {kind:18s} {detail}"
