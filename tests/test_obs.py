"""Tests for the observability subsystem (repro.obs).

Covers the PR's acceptance criteria:

* tracer unit behaviour: nesting, deterministic IDs, drain/adopt, null path;
* with tracing enabled, serial and process-pool runs still render
  byte-identical reports, and the process trace contains spans from every
  worker re-parented under the suite-run root;
* ``repro trace summarize`` totals reconcile with ``RunMetrics``;
* HTML-escaping regressions for ``render_html`` and the trace dashboard;
* the CLI surface: ``--trace/--profile``, the metrics sidecar, the
  ``trace`` subcommand and argparse-level validation.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.compiler import CompilerBehavior
from repro.harness import (
    HarnessConfig,
    ValidationRunner,
    render_csv,
    render_html,
    render_text,
)
from repro.harness.runner import (
    FailureKind,
    IterationOutcome,
    PhaseResult,
    SuiteRunReport,
)
# aliased so pytest does not try to collect the Test* dataclasses
from repro.harness.runner import TestResult as _TestResult
from repro.templates import TestTemplate as _TestTemplate
from repro.obs import (
    LIVE_KINDS,
    MetricsRegistry,
    NULL_TRACER,
    TRACE_FORMAT,
    Tracer,
    parse_trace,
    read_trace,
    render_summary_text,
    render_trace_html,
    summarize_trace,
    trace_to_jsonl,
    write_trace,
)

_BUGGY = CompilerBehavior(
    name="buggy", version="x",
    broken_reductions=frozenset({"+"}),
    unsupported_directives=frozenset({"declare"}),
)


# ---------------------------------------------------------------------------
# tracer unit behaviour
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nesting_sets_parent(self):
        tracer = Tracer()
        with tracer.span("outer", key="a") as outer:
            with tracer.span("inner", key="b") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.duration >= inner.duration >= 0.0

    def test_ids_are_deterministic_and_collision_suffixed(self):
        tracer = Tracer()
        with tracer.span("template", key="loop:c"):
            pass
        with tracer.span("template", key="loop:c"):
            pass
        with tracer.span("template", key="loop:c"):
            pass
        ids = [s.span_id for s in tracer.spans]
        assert ids == ["template[loop:c]", "template[loop:c]~2",
                       "template[loop:c]~3"]

    def test_events_are_sequenced_and_span_attributed(self):
        tracer = Tracer()
        with tracer.span("run", key="r") as root:
            tracer.event("first", value=1)
            tracer.event("second", value=2)
        tracer.event("outside")
        seqs = [e.seq for e in tracer.events]
        assert seqs == [0, 1, 2]
        assert tracer.events[0].span_id == root.span_id
        assert tracer.events[2].span_id is None

    def test_drain_and_adopt_round_trip(self):
        worker = Tracer()
        with worker.span("template", key="t:c") as span:
            worker.event("iteration.failed", kind="wrong_value")
            span.set(passed=False)
        worker.metrics.counter("templates.run").inc()
        payload = worker.drain()
        # drain resets the worker completely
        assert worker.spans == [] and worker.events == []
        assert worker.metrics.snapshot()["counters"] == {}

        parent = Tracer()
        parent.event("already.here")
        parent.adopt(payload, worker="pid-42")
        assert [s.worker for s in parent.spans] == ["pid-42"]
        assert [s.span_id for s in parent.spans] == ["template[t:c]"]
        assert parent.spans[0].attrs["passed"] is False
        # adopted event renumbered after the parent's own
        assert [(e.seq, e.kind) for e in parent.events] == [
            (0, "already.here"), (1, "iteration.failed")]
        assert parent.metrics.snapshot()["counters"] == {"templates.run": 1}

    def test_reparent_orphans(self):
        tracer = Tracer()
        with tracer.span("run", key="r") as root:
            pass
        orphan = {"spans": [{"id": "template[x:c]", "name": "template",
                             "key": "x:c", "parent": None, "worker": "w",
                             "t0": 0.0, "dur_s": 0.5, "attrs": {}}],
                  "events": [], "metrics": {}}
        tracer.adopt(orphan, worker="pid-7")
        tracer.reparent_orphans(root)
        adopted = [s for s in tracer.spans if s.name == "template"][0]
        assert adopted.parent_id == root.span_id
        assert root.parent_id is None  # the root itself is left alone

    def test_null_tracer_records_nothing_but_still_times(self):
        import time

        with NULL_TRACER.span("anything", key="k") as span:
            span.set(ignored=True)
            NULL_TRACER.event("ignored")
            NULL_TRACER.metrics.counter("ignored").inc()
            NULL_TRACER.metrics.histogram("ignored").observe(3)
            time.sleep(0.001)
        assert span.duration > 0.0  # the runner's timers still work
        assert NULL_TRACER.spans == [] and NULL_TRACER.events == []
        assert not NULL_TRACER.enabled


class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(1.5)
        for value in (2.0, 8.0, 5.0):
            registry.histogram("h").observe(value)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 5}
        assert snapshot["gauges"] == {"g": 1.5}
        assert snapshot["histograms"] == {"h": (3, 15.0, 2.0, 8.0)}

    def test_merge_folds_all_kinds(self):
        a = MetricsRegistry()
        a.counter("c").inc(2)
        a.histogram("h").observe(1.0)
        b = MetricsRegistry()
        b.counter("c").inc(3)
        b.gauge("g").set(7.0)
        b.histogram("h").observe(9.0)
        a.merge(b.snapshot())
        snapshot = a.snapshot()
        assert snapshot["counters"] == {"c": 5}
        assert snapshot["gauges"] == {"g": 7.0}
        assert snapshot["histograms"] == {"h": (2, 10.0, 1.0, 9.0)}


class TestSink:
    def test_jsonl_round_trip(self):
        tracer = Tracer()
        with tracer.span("run", key="r", policy="serial") as root:
            with tracer.span("template", key="t:c"):
                tracer.event("iteration.failed", kind="timeout", seed=3)
        tracer.metrics.counter("templates.run").inc()
        tracer.metrics.gauge("run.wall_s").set(0.25)
        tracer.metrics.histogram("iteration.steps").observe(11)
        text = trace_to_jsonl(tracer, meta={"command": "test"})
        trace = parse_trace(text)
        assert trace.meta["command"] == "test"
        assert {s.span_id for s in trace.spans} == \
            {root.span_id, "template[t:c]"}
        restored = trace.span_by_id("template[t:c]")
        assert restored.parent_id == root.span_id
        original = [s for s in tracer.spans if s.name == "template"][0]
        assert restored.duration == original.duration  # floats exact via json
        assert [(e.kind, e.fields) for e in trace.events()] == \
            [("iteration.failed", {"kind": "timeout", "seed": 3})]
        assert trace.counters == {"templates.run": 1}
        assert trace.gauges == {"run.wall_s": 0.25}
        assert trace.histograms == {"iteration.steps": (1, 11, 11, 11)}

    def test_parse_rejects_bad_input(self):
        with pytest.raises(ValueError, match="unsupported format"):
            parse_trace('{"type": "meta", "format": "other/v9"}\n')
        with pytest.raises(ValueError, match="line 1"):
            parse_trace("not json\n")
        with pytest.raises(ValueError, match="unknown record type"):
            parse_trace('{"type": "mystery"}\n')


class TestTornTraces:
    """A SIGKILLed run leaves a trace with a truncated last line; the
    tolerant reader must count and skip the damage, not crash."""

    def _trace_text(self) -> str:
        tracer = Tracer()
        with tracer.span("run", key="r"):
            with tracer.span("template", key="t:c"):
                pass
        tracer.event("done", ok=True)
        tracer.metrics.counter("templates.run").inc()
        return trace_to_jsonl(tracer, meta={"command": "validate"})

    def test_tolerant_parse_counts_torn_tail(self):
        text = self._trace_text()
        torn = text[:-25]  # cut mid-way through the last record
        trace = parse_trace(torn, strict=False)
        assert trace.malformed == 1
        assert len(trace.spans) == 2  # intact records all survive
        with pytest.raises(ValueError):
            parse_trace(torn)  # strict mode still refuses

    def test_tolerant_parse_skips_mid_file_garbage(self):
        lines = self._trace_text().splitlines()
        lines.insert(2, "garbage not json")
        lines.insert(3, '{"type": "mystery"}')
        trace = parse_trace("\n".join(lines) + "\n", strict=False)
        assert trace.malformed == 2
        assert len(trace.spans) == 2

    def test_tolerant_parse_still_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="unsupported format"):
            parse_trace('{"type": "meta", "format": "other/v9"}\n',
                        strict=False)

    def test_cli_summarize_warns_on_torn_trace(self, tmp_path, capsys):
        torn = self._trace_text()[:-25]
        path = tmp_path / "torn.jsonl"
        path.write_text(torn)
        assert main(["trace", "summarize", str(path)]) == 0
        captured = capsys.readouterr()
        assert "skipped 1 malformed trace line" in captured.err
        assert "trace summary" in captured.out

    def test_cli_html_renders_torn_trace(self, tmp_path, capsys):
        torn = self._trace_text()[:-25]
        path = tmp_path / "torn.jsonl"
        path.write_text(torn)
        out = tmp_path / "torn.html"
        assert main(["trace", "html", str(path),
                     "--output", str(out)]) == 0
        assert out.read_text().startswith("<!DOCTYPE html>")
        assert "skipped 1 malformed trace line" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# traced suite runs: determinism, worker marshalling, reconciliation
# ---------------------------------------------------------------------------


def _traced_run(suite, policy: str, workers: int, stream: str):
    config = HarnessConfig(
        iterations=2, languages=("c",), policy=policy, workers=workers,
        feature_prefixes=["loop", "declare", "parallel"], live_stream=stream,
    )
    tracer = Tracer(profile=True)
    runner = ValidationRunner(_BUGGY, config, tracer=tracer)
    report = runner.run_suite(suite)
    return report, tracer


@pytest.fixture(scope="module")
def traced_runs(suite10, tmp_path_factory):
    """Traced runs that also write a live stream (``<policy>.ndjson``)."""
    root = tmp_path_factory.mktemp("traced")
    runs = {policy: _traced_run(suite10, policy, workers,
                                str(root / f"{policy}.ndjson"))
            for policy, workers in (("serial", 1), ("process", 4))}
    runs["streams"] = {policy: str(root / f"{policy}.ndjson")
                       for policy in ("serial", "process")}
    return runs


def _faulty_or_titan_run(case, suite, stream: str) -> Tracer:
    """A traced run with a live stream whose events go beyond units:
    worker retries under a process pool, or a Titan quarantine and
    recovery."""
    from repro.faults import FaultPlan
    from repro.harness.titan import STACK_CUDA, TitanCluster, TitanHarness

    tracer = Tracer()
    if case == "retries":
        config = HarnessConfig(
            iterations=1, languages=("c",), run_cross=False,
            feature_prefixes=["parallel"], policy="process", workers=2,
            retries=2, fault_plan=FaultPlan.parse("iteration=0.3,seed=7"),
            live_stream=stream)
        ValidationRunner(config=config, tracer=tracer).run_suite(suite)
        return tracer
    cluster = TitanCluster(
        num_nodes=2, degraded_fraction=0.5, seed=5,
        degrade=lambda behavior, nid: behavior.with_(ignore_update=True))
    [degraded] = [n for n in cluster.nodes if not n.healthy]
    harness = TitanHarness(
        cluster, suite, tracer=tracer, feature_prefixes=["update"],
        config=HarnessConfig(iterations=1, run_cross=False, languages=("c",),
                             live_stream=stream))
    harness.sweep(sample_size=2, seed=0, stacks=(STACK_CUDA,))
    cluster.heal(degraded.node_id)
    assert harness.probe_quarantined() == [degraded.node_id]
    harness.finish()
    return tracer


class TestTracedSuiteRun:
    def test_reports_stay_byte_identical_with_tracing(self, traced_runs):
        serial_report, _ = traced_runs["serial"]
        process_report, _ = traced_runs["process"]
        assert render_text(process_report) == render_text(serial_report)
        assert render_csv(process_report) == render_csv(serial_report)
        assert render_html(process_report) == render_html(serial_report)

    def test_span_ids_identical_across_policies(self, traced_runs):
        _, serial_tracer = traced_runs["serial"]
        _, process_tracer = traced_runs["process"]
        serial_ids = sorted(s.span_id for s in serial_tracer.spans)
        process_ids = sorted(s.span_id for s in process_tracer.spans)
        assert serial_ids == process_ids

    def test_worker_spans_reparented_under_suite_root(self, traced_runs):
        process_report, tracer = traced_runs["process"]
        roots = [s for s in tracer.spans if s.parent_id is None]
        assert len(roots) == 1 and roots[0].name == "run"
        templates = [s for s in tracer.spans if s.name == "template"]
        assert templates
        assert all(s.parent_id == roots[0].span_id for s in templates)
        # spans from *every* worker of the pool made it back
        span_workers = {s.worker for s in templates}
        assert span_workers == set(process_report.metrics.worker_busy_s)
        assert all(w.startswith("pid-") for w in span_workers)

    def test_template_span_count_matches_report(self, traced_runs):
        report, tracer = traced_runs["process"]
        templates = [s for s in tracer.spans if s.name == "template"]
        assert len(templates) == len(report.results)

    def test_summarize_reconciles_with_run_metrics(self, traced_runs, tmp_path):
        report, tracer = traced_runs["serial"]
        path = str(tmp_path / "trace.jsonl")
        write_trace(path, tracer, meta={"command": "test"})
        metrics = report.metrics
        # one summary over either view of the run: the trace file and the
        # live stream fold the same unit events into the same totals
        for kind, source in (("trace", path),
                             ("stream", traced_runs["streams"]["serial"])):
            summary = summarize_trace(read_trace(source))
            tally = summary.tally
            assert tally.units_done == metrics.templates, kind
            assert tally.iterations_run == metrics.iterations_run, kind
            assert tally.compile_cache_hits == metrics.cache_hits, kind
            assert tally.compile_cache_misses == metrics.cache_misses, kind
            assert tally.compile_s == pytest.approx(metrics.compile_s), kind
            text = render_summary_text(summary)
            assert "campaign totals" in text, kind
        trace_summary = summarize_trace(read_trace(path))
        assert trace_summary.compile_s == pytest.approx(metrics.compile_s)
        assert trace_summary.execute_s == pytest.approx(metrics.execute_s)
        assert trace_summary.wall_s == pytest.approx(
            metrics.wall_s, rel=0.2, abs=0.2)
        text = render_summary_text(trace_summary)
        assert "trace summary" in text and "slowest templates" in text
        assert "trace summary" not in render_summary_text(
            summarize_trace(read_trace(traced_runs["streams"]["serial"])))

    @pytest.mark.parametrize("case,expected", [
        ("serial", {"campaign.start", "unit.finished"}),
        ("process", {"campaign.start", "unit.finished"}),
        ("retries", {"engine.retry"}),
        ("titan", {"campaign.extend", "titan.quarantined", "titan.recovered"}),
    ])
    def test_shared_kinds_carry_identical_fields(self, traced_runs, suite10,
                                                 tmp_path, case, expected):
        # one emitter: every event kind the live stream carries reaches the
        # trace with the very same fields (same call, same record)
        if case in traced_runs:
            _, tracer = traced_runs[case]
            stream_path = traced_runs["streams"][case]
        else:
            stream_path = str(tmp_path / "run.ndjson")
            tracer = _faulty_or_titan_run(case, suite10, stream_path)
        path = str(tmp_path / "trace.jsonl")
        write_trace(path, tracer)
        trace = read_trace(path)
        stream = read_trace(stream_path)
        assert stream.meta["format"] == trace.meta["format"] == TRACE_FORMAT
        stream_kinds = {e.kind for e in stream.events()}
        assert expected <= stream_kinds <= LIVE_KINDS
        for kind in LIVE_KINDS:
            def fields(data):
                return sorted(json.dumps(e.fields, sort_keys=True)
                              for e in data.events(kind))
            assert fields(trace) == fields(stream), kind

    def test_failure_events_and_counters(self, traced_runs):
        report, tracer = traced_runs["serial"]
        snapshot = tracer.metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["templates.run"] == len(report.results)
        assert counters["iterations.run"] == report.metrics.iterations_run
        failed = [e for e in tracer.events if e.kind == "iteration.failed"]
        assert failed, "buggy behaviour must produce failure events"
        kinds = {e.fields["kind"] for e in failed}
        assert "wrong_value" in kinds
        # compile errors surface as cached-compile counters, not iterations
        assert counters["compile.errors"] >= 1

    def test_profile_histograms_present(self, traced_runs):
        _, tracer = traced_runs["serial"]
        histograms = tracer.metrics.snapshot()["histograms"]
        count, total, _, _ = histograms["profile.bytes_to_device"]
        assert count > 0 and total > 0  # data clauses moved real bytes
        steps_count, steps_total, _, _ = histograms["iteration.steps"]
        assert steps_count > 0 and steps_total > 0


class TestTitanTracing:
    def test_sweep_produces_spans_and_flag_events(self):
        from repro.harness.titan import TitanCluster, TitanHarness
        from repro.suite import openacc10_suite

        tracer = Tracer()
        cluster = TitanCluster(num_nodes=4, degraded_fraction=0.5, seed=1)
        harness = TitanHarness(
            cluster, openacc10_suite(),
            config=HarnessConfig(iterations=1, run_cross=False,
                                 languages=("c",)),
            feature_prefixes=["update"],
            tracer=tracer,
        )
        checks = harness.sweep(sample_size=2, seed=0)
        sweeps = [s for s in tracer.spans if s.name == "titan.sweep"]
        assert len(sweeps) == 1
        node_checks = [s for s in tracer.spans if s.name == "titan.check"]
        assert len(node_checks) == len(checks)
        assert all(s.parent_id == sweeps[0].span_id for s in node_checks)
        # each check's suite-run root hangs under its titan.check span
        run_roots = [s for s in tracer.spans if s.name == "run"]
        assert {s.parent_id for s in run_roots} == \
            {s.span_id for s in node_checks}
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["titan.checks"] == len(checks)
        flagged = [c for c in checks if c.flagged]
        events = [e for e in tracer.events if e.kind == "titan.node_flagged"]
        assert len(events) == len(flagged)
        if flagged:
            assert {e.fields["node"] for e in events} == \
                {c.node_id for c in flagged}
        # the trace carries the campaign's own unit records — one per
        # check, sweep checks first, then triage re-checks — and not those
        # of the per-check inner runs
        units = [e for e in tracer.events if e.kind == "unit.finished"]
        assert all("node" in e.fields for e in units)
        assert [e.fields["node"] for e in units[:len(checks)]] == \
            [c.node_id for c in checks]


# ---------------------------------------------------------------------------
# HTML escaping regressions
# ---------------------------------------------------------------------------


_POISON_FEATURE = "<script>alert('f')</script>&feature"
_POISON_DETAIL = "<script>alert('d')</script> & <b>detail</b>"


def _poisoned_report() -> SuiteRunReport:
    template = _TestTemplate(name="evil", feature=_POISON_FEATURE,
                             language="c", code="")
    functional = PhaseResult(
        mode="functional", source="int main(){}",
        iterations=[IterationOutcome(ok=False, error=_POISON_DETAIL,
                                     kind=FailureKind.WRONG_VALUE)],
    )
    return SuiteRunReport(
        compiler_label="evil <vendor> & co",
        config=HarnessConfig(iterations=1),
        results=[_TestResult(template=template, functional=functional)],
    )


class TestHtmlEscaping:
    def test_render_html_escapes_feature_and_detail(self):
        page = render_html(_poisoned_report())
        assert "<script" not in page
        assert "&lt;script&gt;alert(&#x27;f&#x27;)&lt;/script&gt;" in page
        assert "&amp;feature" in page
        assert "&lt;b&gt;detail&lt;/b&gt;" in page
        assert "evil &lt;vendor&gt; &amp; co" in page

    def test_render_html_escapes_language_field(self):
        """Regression: ``r.language`` was interpolated raw — a template
        with a poisoned language broke out of its table cell."""
        template = _TestTemplate(name="evil", feature="parallel.if",
                                 language="<script>alert('l')</script>",
                                 code="")
        functional = PhaseResult(
            mode="functional", source="int main(){}",
            iterations=[IterationOutcome(ok=True)],
        )
        report = SuiteRunReport(
            compiler_label="demo", config=HarnessConfig(iterations=1),
            results=[_TestResult(template=template, functional=functional)],
        )
        page = render_html(report)
        assert "<script" not in page
        assert "&lt;script&gt;alert(&#x27;l&#x27;)&lt;/script&gt;" in page

    def test_dashboard_escapes_keys_events_metrics_and_meta(self):
        tracer = Tracer()
        with tracer.span("run", key="<vendor>&run") as root:
            with tracer.span("template",
                             key=f"{_POISON_FEATURE}:c") as span:
                span.set(passed=False)
                tracer.event("iteration.failed",
                             template=_POISON_FEATURE, kind="<&>")
        tracer.reparent_orphans(root)
        tracer.metrics.counter("evil<metric>&count").inc()
        trace = parse_trace(trace_to_jsonl(
            tracer, meta={"command": "<script>cmd</script>"}))
        page = render_trace_html(trace)
        assert "<script" not in page
        assert "&lt;script&gt;" in page
        assert "evil&lt;metric&gt;&amp;count" in page
        assert "&lt;script&gt;cmd&lt;/script&gt;" in page


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


_QUICK = ["--language", "c", "--features", "wait", "--iterations", "1",
          "--no-cross"]


class TestCliTrace:
    def test_validate_writes_trace_and_summarize_reads_it(
            self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.jsonl")
        assert main(["validate", *_QUICK,
                     "--trace", trace_path, "--profile"]) == 0
        assert f"wrote {trace_path}" in capsys.readouterr().out
        trace = read_trace(trace_path)
        assert trace.meta["command"] == "validate"
        assert trace.meta["profile"] is True
        assert trace.spans_named("run")

        assert main(["trace", "summarize", trace_path]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out and "per-phase time breakdown" in out

    def test_trace_html_writes_dashboard(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.jsonl")
        main(["validate", *_QUICK, "--trace", trace_path])
        capsys.readouterr()
        out_path = str(tmp_path / "dash.html")
        assert main(["trace", "html", trace_path,
                     "--output", out_path]) == 0
        capsys.readouterr()
        with open(out_path) as handle:
            page = handle.read()
        assert page.startswith("<!DOCTYPE html>")
        assert "repro trace dashboard" in page

    def test_trace_summarize_missing_file_fails_cleanly(self, capsys):
        assert main(["trace", "summarize", "/nonexistent/trace.jsonl"]) == 1
        assert "cannot read trace" in capsys.readouterr().err

    def test_titan_trace_records_sweep(self, tmp_path, capsys):
        trace_path = str(tmp_path / "titan.jsonl")
        assert main(["titan", "--nodes", "4", "--sample", "1",
                     "--degraded", "0.5", "--trace", trace_path]) == 0
        capsys.readouterr()
        trace = read_trace(trace_path)
        assert trace.meta["command"] == "titan"
        assert trace.spans_named("titan.sweep")
        assert trace.spans_named("titan.check")


class TestCliMetricsSidecar:
    def test_metrics_written_next_to_output(self, tmp_path, capsys):
        report_path = str(tmp_path / "report.txt")
        main(["validate", *_QUICK, "--metrics", "--output", report_path])
        out = capsys.readouterr().out
        sidecar = report_path + ".metrics.txt"
        assert f"wrote {sidecar}" in out
        assert "run metrics" not in out  # no timing noise on stdout
        with open(sidecar) as handle:
            assert "run metrics" in handle.read()

    def test_metrics_sidecar_matches_csv_format(self, tmp_path, capsys):
        report_path = str(tmp_path / "report.csv")
        main(["validate", *_QUICK, "--format", "csv",
              "--metrics", "--output", report_path])
        capsys.readouterr()
        with open(report_path + ".metrics.csv") as handle:
            assert handle.read().startswith("metric,value")

    def test_metrics_still_print_without_output(self, capsys):
        main(["validate", *_QUICK, "--metrics"])
        assert "run metrics" in capsys.readouterr().out


class TestCliValidation:
    @pytest.mark.parametrize("argv,message", [
        (["titan", "--degraded", "1.5"], "must be in [0, 1]"),
        (["titan", "--degraded", "-0.1"], "must be in [0, 1]"),
        (["titan", "--nodes", "0"], "must be >= 1"),
        (["titan", "--sample", "-3"], "must be >= 1"),
        (["validate", "--iterations", "0"], "must be >= 1"),
        (["validate", "--workers", "nope"], "not an integer"),
    ])
    def test_argparse_rejects_out_of_range(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
