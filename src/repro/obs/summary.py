"""One summary for trace files and live streams: the analysis half of
``repro trace summarize`` and ``repro obs tail --summarize``.

Span sections (a trace file) answer where the time went (per-phase
breakdown), which templates were slowest and how the compile cache behaved
over the run; the per-phase totals sum the *same* span durations the runner
copied into ``PhaseResult.compile_s``/``run_s``.  Tally sections (any file
with unit events) are :class:`~repro.obs.live.ProgressTally` totals — the
only fold of unit totals — plus a live stream's final run metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.live import ProgressTally
from repro.obs.sink import TraceData

#: cache events recognised in the timeline
_CACHE_EVENTS = {"compile.cache_hit": "hit", "compile.cache_miss": "miss"}


@dataclass
class TraceSummary:
    """Aggregates derived from one trace file or live stream."""

    #: total duration of root (parentless) spans — the suite-run wall time
    wall_s: float = 0.0
    #: summed duration of all ``compile`` spans (matches RunMetrics.compile_s)
    compile_s: float = 0.0
    #: summed duration of all ``execute`` spans (matches RunMetrics.execute_s)
    execute_s: float = 0.0
    #: span name -> (count, summed duration)
    phase_totals: Dict[str, Tuple[int, float]] = field(default_factory=dict)
    #: slowest template spans: (key, duration, passed) best-first
    slowest: List[Tuple[str, float, Optional[bool]]] = field(default_factory=list)
    #: cache timeline entries: (seq, 'hit'|'miss', template name)
    cache_timeline: List[Tuple[int, str, str]] = field(default_factory=list)
    #: event kind -> count
    event_counts: Dict[str, int] = field(default_factory=dict)
    #: failure-kind value -> count (from iteration.failed events)
    failure_kinds: Dict[str, int] = field(default_factory=dict)
    #: campaign totals folded from the unit events
    tally: ProgressTally = field(default_factory=ProgressTally)
    #: the final snapshot of a live stream, if any
    final: Optional[dict] = None


def summarize_trace(trace: TraceData, top: int = 10) -> TraceSummary:
    """Aggregate a parsed trace file or live stream."""
    summary = TraceSummary(tally=trace.tally(), final=trace.final_snapshot)
    for span in trace.spans:
        if span.parent_id is None:
            summary.wall_s += span.duration
        count, total = summary.phase_totals.get(span.name, (0, 0.0))
        summary.phase_totals[span.name] = (count + 1, total + span.duration)
        if span.name == "compile":
            summary.compile_s += span.duration
        elif span.name == "execute":
            summary.execute_s += span.duration

    templates = sorted(
        trace.spans_named("template"),
        key=lambda s: (-s.duration, s.span_id),
    )
    summary.slowest = [
        (s.key or s.span_id, s.duration, s.attrs.get("passed"))
        for s in templates[:top]
    ]

    for event in trace.events():
        summary.event_counts[event.kind] = \
            summary.event_counts.get(event.kind, 0) + 1
        verdict = _CACHE_EVENTS.get(event.kind)
        if verdict is not None:
            summary.cache_timeline.append(
                (event.seq, verdict, str(event.fields.get("template", "?")))
            )
        elif event.kind == "iteration.failed":
            kind = str(event.fields.get("kind", "?"))
            summary.failure_kinds[kind] = summary.failure_kinds.get(kind, 0) + 1
    return summary


def _span_lines(summary: TraceSummary, timeline_limit: int) -> List[str]:
    lines = ["trace summary",
             f"  wall time (roots)  : {summary.wall_s:.3f} s",
             f"  compile time (sum) : {summary.compile_s:.3f} s",
             f"  execute time (sum) : {summary.execute_s:.3f} s"]
    if summary.failure_kinds:
        lines.append("  failed iterations  : " + ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(summary.failure_kinds.items())
        ))

    lines.append("")
    lines.append("per-phase time breakdown")
    lines.append(f"  {'span':12s} {'count':>6s} {'total':>10s} {'mean':>10s}")
    for name, (count, total) in sorted(
        summary.phase_totals.items(), key=lambda kv: -kv[1][1]
    ):
        mean = total / count if count else 0.0
        lines.append(f"  {name:12s} {count:6d} {total:9.3f}s {mean:9.4f}s")

    if summary.slowest:
        lines.append("")
        lines.append(f"top {len(summary.slowest)} slowest templates")
        for key, duration, passed in summary.slowest:
            verdict = ("pass" if passed else "FAIL") if passed is not None else "?"
            lines.append(f"  {key:44s} {duration:9.4f}s  {verdict}")

    if summary.cache_timeline:
        lines.append("")
        shown = summary.cache_timeline[:timeline_limit]
        lines.append(
            f"compile-cache timeline (first {len(shown)} of "
            f"{len(summary.cache_timeline)})"
        )
        for seq, verdict, template in shown:
            lines.append(f"  #{seq:<5d} {verdict:4s} {template}")
    return lines


def _tally_lines(tally: ProgressTally, final: Optional[dict]) -> List[str]:
    lines = ["campaign totals"]
    total = f"/{tally.total_units}" if tally.total_units else ""
    lines.append(f"  units done         : {tally.units_done}{total}"
                 + (f" ({tally.replayed} replayed)" if tally.replayed else ""))
    lines.append(f"  passed / failed    : {tally.passed} / {tally.failed}")
    if tally.failure_kinds:
        lines.append("  failure kinds      : " + ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(tally.failure_kinds.items())
        ))
    lines.append(f"  program runs       : {tally.iterations_run}")
    lines.append(
        f"  compile cache      : {tally.compile_cache_hits} hits / "
        f"{tally.compile_cache_misses} misses "
        f"({tally.compile_cache_hit_rate:.1%} hit rate)"
    )
    if tally.retries or tally.worker_lost:
        lines.append(f"  retries / lost     : {tally.retries} / "
                     f"{tally.worker_lost}")
    if tally.quarantined or tally.recovered:
        lines.append(f"  quarantined        : {tally.quarantined} "
                     f"({tally.recovered} recovered)")
    for mode, counts in sorted(tally.phase_counts.items()):
        lines.append(
            f"  {mode:18s} : " + ", ".join(
                f"{verdict}={count}"
                for verdict, count in sorted(counts.items()) if count
            )
        )
    count, total_s, lo, hi = tally.unit_timing
    if count:
        lines.append(
            f"  units              : {count}, mean {total_s / count:.4f}s "
            f"(min {lo:.4f}s, max {hi:.4f}s)"
        )
    if final is not None:
        lines.append(f"  final snapshot     : wall {final.get('wall_s')}s, "
                     f"{final.get('units_per_sec')} units/s")
        metrics = final.get("run_metrics")
        if metrics:
            lines.append(
                f"  run metrics        : policy {metrics.get('policy')}, "
                f"wall {metrics.get('wall_s'):.3f}s, "
                f"compile {metrics.get('compile_s'):.3f}s, "
                f"execute {metrics.get('execute_s'):.3f}s"
            )
    return lines


def render_summary_text(summary: TraceSummary,
                        timeline_limit: int = 20) -> str:
    """Plain-text rendering for the CLI: span sections when the file has
    spans, tally sections when it has unit events, then event counts."""
    sections: List[List[str]] = []
    if summary.phase_totals:
        sections.append(_span_lines(summary, timeline_limit))
    if "unit.finished" in summary.event_counts or summary.final is not None:
        sections.append(_tally_lines(summary.tally, summary.final))
    if summary.event_counts:
        sections.append(["events: " + ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(summary.event_counts.items())
        )])
    if not sections:
        sections.append(["no spans or events"])
    return "\n\n".join("\n".join(lines) for lines in sections) + "\n"
