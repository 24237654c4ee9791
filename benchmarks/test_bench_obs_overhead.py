"""Observability-overhead benchmark: traced vs untraced suite runs.

The tracing subsystem (repro.obs) is on the hot path of every phase —
``_run_phase`` opens three spans per phase and the spans double as the
runner's timers.  Two guarantees are measured here:

* the *disabled* path (the default ``NULL_TRACER``) stays the baseline —
  ``test_bench_parallel_engine`` keeps asserting the untraced speedups, and
  this bench pins the untraced run as the denominator;
* a fully *enabled* tracer with profiling collects thousands of spans,
  events and histogram samples for bounded cost (asserted ≤ 1.6× the
  untraced run — generous; typical overhead is a few percent).
"""

import time

from benchmarks.conftest import print_series
from repro.compiler.vendors import vendor_version
from repro.harness import HarnessConfig, ValidationRunner, render_csv
from repro.obs import Tracer


def _run(suite, tracer=None, **config_kw):
    behavior = vendor_version("pgi", "13.2").behavior("c")
    config = HarnessConfig(iterations=3, languages=("c",), **config_kw)
    runner = ValidationRunner(behavior, config, tracer=tracer)
    start = time.perf_counter()
    report = runner.run_suite(suite)
    return report, time.perf_counter() - start


def test_bench_tracing_overhead(benchmark, suite10):
    untraced_report, untraced_s = _run(suite10)

    tracer = Tracer(profile=True)

    def traced_run():
        return _run(suite10, tracer=tracer)

    traced_report, traced_s = benchmark.pedantic(
        traced_run, rounds=1, iterations=1
    )
    overhead = traced_s / untraced_s

    snapshot = tracer.metrics.snapshot()
    print_series("Observability — traced vs untraced, full C suite", [
        f"untraced {untraced_s:7.2f} s",
        f"traced   {traced_s:7.2f} s   overhead {overhead:5.2f}x   "
        f"{len(tracer.spans)} spans, {len(tracer.events)} events, "
        f"{len(snapshot['histograms'])} histograms",
    ])

    # tracing observes the run, it must never change it
    assert render_csv(traced_report) == render_csv(untraced_report)

    # the trace actually captured the run (3+ spans per template phase)
    assert len(tracer.spans) > 3 * len(traced_report.results)
    assert snapshot["counters"]["templates.run"] == len(traced_report.results)
    assert snapshot["histograms"]["profile.bytes_to_device"][0] > 0

    # bounded cost: well under 1.6x even on noisy CI hosts
    assert overhead <= 1.6, (
        f"tracing overhead {overhead:.2f}x exceeds the 1.6x budget "
        f"({untraced_s:.2f}s -> {traced_s:.2f}s)"
    )


def test_bench_live_telemetry_overhead(benchmark, suite10, tmp_path):
    """Live telemetry (NDJSON stream + prom textfile) must stay cheap.

    Every unit completion writes and flushes one stream line; snapshots
    (and the fsync'd atomic prom rewrite they trigger) are throttled to
    one per 0.2s.  The gate: a fully telemetered run costs at most 1.15x
    an untelemetered one.
    """
    from repro.obs import read_trace
    from repro.obs.live import lint_prometheus

    plain_report, plain_s = _run(suite10)

    stream = tmp_path / "bench.ndjson"
    prom = tmp_path / "bench.prom"

    def live_run():
        return _run(suite10, live_stream=str(stream), prom=str(prom))

    live_report, live_s = benchmark.pedantic(live_run, rounds=1, iterations=1)
    overhead = live_s / plain_s

    parsed = read_trace(str(stream))
    print_series("Live telemetry — streamed vs untelemetered, full C suite", [
        f"plain    {plain_s:7.2f} s",
        f"live     {live_s:7.2f} s   overhead {overhead:5.2f}x   "
        f"{len(parsed.records)} stream records, "
        f"{len(parsed.snapshots())} snapshots",
    ])

    # telemetry observes the run, it must never change it
    assert render_csv(live_report) == render_csv(plain_report)

    # the stream captured every unit and a lint-clean prom export
    assert len(parsed.events("unit.finished")) == len(live_report.results)
    assert parsed.final_snapshot is not None
    assert lint_prometheus(prom.read_text()) == []

    # bounded cost: the PR's acceptance gate
    assert overhead <= 1.15, (
        f"live-telemetry overhead {overhead:.2f}x exceeds the 1.15x budget "
        f"({plain_s:.2f}s -> {live_s:.2f}s)"
    )
