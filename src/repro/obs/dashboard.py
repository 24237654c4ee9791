"""HTML trace/metrics dashboard (the observability sibling of
:func:`repro.harness.report.render_html`).

Self-contained single-file HTML: summary tiles, per-phase breakdown, the
top-N slowest templates with proportional bars, counters/gauges/histogram
tables and the most recent events.  Every trace-derived string passes
through ``html.escape`` — span keys, event fields and attribute values all
originate in template/feature names and failure details, which the
escaping regression tests deliberately poison with markup.
"""

from __future__ import annotations

import html as _html
from typing import List

from repro.obs.sink import TraceData
from repro.obs.summary import TraceSummary, summarize_trace


def _esc(value: object) -> str:
    return _html.escape(str(value))


def _tile(label: str, value: str) -> str:
    return (f"<div class='tile'><div class='v'>{_esc(value)}</div>"
            f"<div class='l'>{_esc(label)}</div></div>")


def render_trace_html(trace: TraceData, top: int = 20,
                      event_limit: int = 50) -> str:
    """Render a parsed trace as a standalone HTML dashboard."""
    summary: TraceSummary = summarize_trace(trace, top=top)
    events = trace.events()
    title = str(trace.meta.get("command", "trace"))

    tiles = "".join([
        _tile("wall time", f"{summary.wall_s:.3f} s"),
        _tile("compile (sum)", f"{summary.compile_s:.3f} s"),
        _tile("execute (sum)", f"{summary.execute_s:.3f} s"),
        _tile("cache hit rate", f"{summary.tally.compile_cache_hit_rate:.1%}"),
        _tile("spans", str(len(trace.spans))),
        _tile("events", str(len(events))),
    ])

    phase_rows: List[str] = []
    for name, (count, total) in sorted(
        summary.phase_totals.items(), key=lambda kv: -kv[1][1]
    ):
        mean = total / count if count else 0.0
        phase_rows.append(
            f"<tr><td>{_esc(name)}</td><td class='n'>{count}</td>"
            f"<td class='n'>{total:.3f}</td><td class='n'>{mean:.4f}</td></tr>"
        )

    slow_rows: List[str] = []
    max_duration = max((d for _, d, _ in summary.slowest), default=0.0)
    for key, duration, passed in summary.slowest:
        width = 100.0 * duration / max_duration if max_duration else 0.0
        cls = "pass" if passed else ("fail" if passed is not None else "")
        verdict = ("pass" if passed else "FAIL") if passed is not None else "?"
        slow_rows.append(
            f"<tr class='{cls}'><td>{_esc(key)}</td>"
            f"<td class='n'>{duration:.4f}</td><td>{verdict}</td>"
            f"<td><div class='bar' style='width:{width:.1f}%'></div></td></tr>"
        )

    metric_rows: List[str] = []
    for name in sorted(trace.counters):
        metric_rows.append(
            f"<tr><td>{_esc(name)}</td><td>counter</td>"
            f"<td class='n' colspan='4'>{trace.counters[name]}</td></tr>"
        )
    for name in sorted(trace.gauges):
        metric_rows.append(
            f"<tr><td>{_esc(name)}</td><td>gauge</td>"
            f"<td class='n' colspan='4'>{trace.gauges[name]:.6g}</td></tr>"
        )
    for name in sorted(trace.histograms):
        count, total, lo, hi = trace.histograms[name]
        mean = total / count if count else 0.0
        lo_s = f"{lo:.6g}" if lo is not None else "-"
        hi_s = f"{hi:.6g}" if hi is not None else "-"
        metric_rows.append(
            f"<tr><td>{_esc(name)}</td><td>histogram</td>"
            f"<td class='n'>n={count}</td><td class='n'>mean={mean:.6g}</td>"
            f"<td class='n'>min={lo_s}</td><td class='n'>max={hi_s}</td></tr>"
        )

    event_rows: List[str] = []
    for event in events[:event_limit]:
        fields = ", ".join(
            f"{_esc(k)}={_esc(v)}" for k, v in sorted(event.fields.items())
        )
        event_rows.append(
            f"<tr><td class='n'>{event.seq}</td><td>{_esc(event.kind)}</td>"
            f"<td>{_esc(event.span_id or '')}</td><td>{fields}</td></tr>"
        )

    meta = " | ".join(
        f"{_esc(k)}={_esc(v)}" for k, v in sorted(trace.meta.items())
        if k != "format"
    )

    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8">
<title>repro trace dashboard — {_esc(title)}</title>
<style>
 body {{ font-family: sans-serif; margin: 1em 2em; }}
 h2 {{ margin-top: 1.4em; }}
 table {{ border-collapse: collapse; }}
 td, th {{ border: 1px solid #999; padding: 2px 8px; }}
 td.n {{ text-align: right; font-variant-numeric: tabular-nums; }}
 tr.pass td {{ background: #e7f7e7; }}
 tr.fail td {{ background: #f7e7e7; }}
 .tile {{ display: inline-block; border: 1px solid #999; border-radius: 4px;
          padding: 6px 14px; margin-right: 8px; text-align: center; }}
 .tile .v {{ font-size: 1.3em; font-weight: bold; }}
 .tile .l {{ font-size: 0.8em; color: #555; }}
 .bar {{ background: #69c; height: 10px; min-width: 1px; }}
 td:has(.bar) {{ min-width: 180px; border: 1px solid #999; }}
</style></head>
<body>
<h1>repro trace dashboard</h1>
<p>{meta}</p>
{tiles}
<h2>Per-phase time breakdown</h2>
<table>
<tr><th>span</th><th>count</th><th>total (s)</th><th>mean (s)</th></tr>
{chr(10).join(phase_rows)}
</table>
<h2>Slowest templates</h2>
<table>
<tr><th>template</th><th>duration (s)</th><th>verdict</th><th>relative</th></tr>
{chr(10).join(slow_rows)}
</table>
<h2>Metrics</h2>
<table>
<tr><th>name</th><th>kind</th><th colspan='4'>value</th></tr>
{chr(10).join(metric_rows)}
</table>
<h2>Events (first {min(event_limit, len(events))} of {len(events)})</h2>
<table>
<tr><th>#</th><th>event</th><th>span</th><th>fields</th></tr>
{chr(10).join(event_rows)}
</table>
</body></html>
"""

