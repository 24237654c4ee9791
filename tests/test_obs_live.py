"""Tests for live campaign telemetry (repro.obs.live).

Covers the PR's acceptance criteria:

* the pipeline: sequence stamping and sink fan-out under one lock;
* ``unit_fields``/``ProgressTally`` mirror the ``build_metrics`` skip
  rule, so a tally folded from the stream reconciles *exactly* with the
  report's :class:`~repro.harness.engine.RunMetrics` integers;
* snapshots are monotone (units_done, wall clock) under an injected
  clock and in real streams;
* reports are byte-identical with telemetry on or off, under both
  execution policies, on the product path and the reference walker;
* a stream an earlier version wrote still reads and summarises;
* journal resume: replayed units count toward progress and are marked
  ``replayed``; the resumed report matches an uninterrupted run;
* the one reader (:func:`repro.obs.read_trace`) on live streams: a torn
  tail is skipped and counted, a wrong format tag raises either way;
  ``repro obs tail`` survives both, with and without ``--follow``;
* retries reach the live stream under every policy;
* Prometheus rendering passes its own linter, and the linter catches
  broken exposition text;
* the CLI surface: ``validate --live-stream/--status/--prom`` and
  ``repro obs tail``.
"""

from __future__ import annotations

import io
import json
import os

import pytest

import repro.compiler.pipeline as pipeline
from repro.cli import main
from repro.compiler.vendors import vendor_version
from repro.faults import FaultPlan, InjectedJournalTear
from repro.harness import (
    HarnessConfig,
    ValidationRunner,
    render_csv,
    render_text,
)
from repro.harness.runner import IterationOutcome, PhaseResult
from repro.harness.runner import TestResult as _TestResult
from repro.obs import (
    TRACE_FORMAT,
    Tracer,
    parse_trace,
    read_trace,
    render_summary_text,
    summarize_trace,
)
from repro.obs.live import (
    LiveTelemetry,
    NDJSONStreamSink,
    ProgressTally,
    SnapshotReporter,
    StatusLineSink,
    lint_prometheus,
    render_prometheus,
    render_status_line,
    unit_fields,
)

_PGI = vendor_version("pgi", "13.2").behavior("c")

#: the trace format tag before trace files and live streams shared one
_PREVIOUS_FORMAT = TRACE_FORMAT.replace("/v2", "/v1")


def _quick_config(**kw) -> HarnessConfig:
    base = dict(iterations=1, run_cross=False, languages=("c",),
                feature_prefixes=["parallel"])
    base.update(kw)
    return HarnessConfig(**base)


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


def test_live_telemetry_stamps_sequence_and_fans_out():
    seen = []

    class Sink:
        def emit(self, record):
            seen.append(record)

    telemetry = LiveTelemetry([Sink(), Sink()])
    telemetry.begin(command="test")
    telemetry.event("a", x=1)
    telemetry.event("b")
    telemetry.end()
    # every sink sees every record, each stamped once, in one total order
    assert [r["type"] for r in seen[::2]] == \
        ["meta", "event", "event", "snapshot"]
    assert seen[::2] == seen[1::2]
    assert [r["seq"] for r in seen[::2]] == [0, 1, 2, 3]
    assert seen[0]["format"] == TRACE_FORMAT
    assert [r.get("kind") for r in seen[2:6:2]] == ["a", "b"]
    assert seen[2]["fields"] == {"x": 1}
    assert "dropped_events" not in seen[-1]


# ---------------------------------------------------------------------------
# unit fields mirror the build_metrics skip rule
# ---------------------------------------------------------------------------


def _result(template, functional, cross=None, elapsed=0.5):
    return _TestResult(template=template, functional=functional,
                       cross=cross, elapsed_s=elapsed)


def test_unit_fields_skip_harness_error_phases(suite10):
    template = suite10.get("parallel", "c")
    broken = PhaseResult(mode="functional", source="",
                         harness_error="worker died",
                         iterations=[IterationOutcome(ok=True, value=0)],
                         compile_s=9.0, run_s=9.0, cache_hit=True)
    ok = PhaseResult(mode="cross", source="", cache_hit=True,
                     iterations=[IterationOutcome(ok=True, value=0)],
                     compile_s=0.1, run_s=0.2)
    fields = unit_fields(0, "parallel:c", _result(template, broken, ok))
    # the harness-errored phase contributes nothing to the totals...
    assert fields["iterations"] == 1
    assert fields["compile_cache_hits"] == 1
    assert fields["compile_cache_misses"] == 0
    assert fields["compile_s"] == pytest.approx(0.1)
    assert fields["run_s"] == pytest.approx(0.2)
    # ...but is still visible in the per-phase verdicts
    assert fields["phases"]["functional"]["harness_error"] is True
    assert fields["phases"]["cross"]["ok"] is True
    assert fields["passed"] is False
    assert fields["failure_kind"] == "harness_error"


# ---------------------------------------------------------------------------
# tally + snapshots
# ---------------------------------------------------------------------------


def _unit_event(**fields):
    base = {"unit": "u", "index": 0, "replayed": False,
            "passed": True, "failure_kind": None, "elapsed_s": 0.25,
            "iterations": 2, "compile_cache_hits": 1,
            "compile_cache_misses": 0, "compile_s": 0.1, "run_s": 0.1,
            "phases": {"functional": {"ok": True, "harness_error": False,
                                      "static_error": False}}}
    base.update(fields)
    return {"type": "event", "kind": "unit.finished", "fields": base}


def test_tally_folds_campaign_events():
    tally = ProgressTally()
    tally.fold({"type": "event", "kind": "campaign.start",
                "fields": {"total_units": 3}})
    tally.fold({"type": "event", "kind": "campaign.extend",
                "fields": {"units": 2}})
    tally.fold(_unit_event(replayed=True))
    tally.fold(_unit_event(passed=False, failure_kind="wrong_value",
                           phases={"functional": {
                               "ok": False, "harness_error": False,
                               "static_error": False}}))
    tally.fold({"type": "event", "kind": "engine.retry", "fields": {}})
    tally.fold({"type": "event", "kind": "titan.quarantined", "fields": {}})
    # snapshots are ignored by the fold (they are derived, not source)
    tally.fold({"type": "snapshot", "units_done": 99})
    assert tally.total_units == 5
    assert tally.units_done == 2
    assert tally.replayed == 1
    assert tally.passed == 1 and tally.failed == 1
    assert tally.failure_kinds == {"wrong_value": 1}
    assert tally.retries == 1 and tally.quarantined == 1
    assert tally.phase_counts["functional"] == {
        "pass": 1, "fail": 1, "harness_error": 0, "static_error": 0}
    assert tally.unit_timing == [2, 0.5, 0.25, 0.25]


def test_snapshots_are_monotone_under_injected_clock():
    now = [100.0]
    reporter = SnapshotReporter(every_units=1, min_interval_s=1.0,
                                clock=lambda: now[0])
    reporter.begin()
    snaps = []
    for i in range(6):
        reporter.tally.fold({"type": "event", "kind": "campaign.start",
                             "fields": {"total_units": 6}})
        reporter.tally.fold(_unit_event(index=i))
        # only every other fold advances past the interval throttle
        if i % 2:
            now[0] += 1.5
        if reporter.due():
            snaps.append(reporter.snapshot())
    snaps.append(reporter.snapshot(final=True))
    assert snaps[-1]["final"] is True
    done = [s["units_done"] for s in snaps]
    walls = [s["wall_s"] for s in snaps]
    assert done == sorted(done)
    assert walls == sorted(walls)
    assert all(0.0 <= s["progress"] <= 1.0 for s in snaps)
    # the interval throttle actually suppressed some snapshots
    assert len(snaps) < 7


def test_snapshot_units_per_sec_counts_fresh_units_only():
    now = [0.0]
    reporter = SnapshotReporter(clock=lambda: now[0])
    reporter.begin()
    reporter.tally.fold({"type": "event", "kind": "campaign.start",
                         "fields": {"total_units": 4}})
    reporter.tally.fold(_unit_event(replayed=True))
    reporter.tally.fold(_unit_event())
    now[0] = 2.0
    snap = reporter.snapshot()
    # 1 fresh unit in 2s; the replayed unit cost no wall time
    assert snap["units_per_sec"] == pytest.approx(0.5)
    assert snap["units_done"] == 2 and snap["replayed"] == 1
    assert snap["eta_s"] == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# byte-identical reports, on or off
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("policy,workers", [
    ("serial", 1), ("process", 2),
])
@pytest.mark.parametrize("backend", ["tree", "closures"])
def test_reports_identical_with_and_without_telemetry(
        tmp_path, suite10, policy, workers, backend, monkeypatch):
    if backend == "tree":
        # every phase's lowering is None: the reference walker runs
        monkeypatch.setattr(pipeline, "lower_program", lambda program: None)
    plain = ValidationRunner(_PGI, _quick_config(
        policy=policy, workers=workers))
    baseline = plain.run_suite(suite10)

    stream = tmp_path / "run.ndjson"
    prom = tmp_path / "run.prom"
    live = ValidationRunner(_PGI, _quick_config(
        policy=policy, workers=workers,
        live_stream=str(stream), prom=str(prom)))
    observed = live.run_suite(suite10)

    assert render_csv(observed) == render_csv(baseline)
    assert render_text(observed) == render_text(baseline)

    parsed = read_trace(str(stream))
    assert parsed.meta["format"] == TRACE_FORMAT
    assert parsed.meta["policy"] == policy
    final = parsed.final_snapshot
    assert final is not None
    assert final["units_done"] == final["total_units"] == \
        len(baseline.results)
    assert lint_prometheus(prom.read_text()) == []


def test_stream_reconciles_exactly_with_run_metrics(tmp_path, suite10):
    from repro.obs import write_trace

    stream = tmp_path / "run.ndjson"
    trace_path = tmp_path / "run.jsonl"
    tracer = Tracer()
    runner = ValidationRunner(_PGI, HarnessConfig(
        iterations=2, languages=("c",), feature_prefixes=["parallel", "loop"],
        live_stream=str(stream)), tracer=tracer)
    report = runner.run_suite(suite10)
    metrics = report.metrics
    write_trace(str(trace_path), tracer)

    # the live stream and the run's trace file fold to the same totals
    for source in (stream, trace_path):
        tally = read_trace(str(source)).tally()
        # integer totals folded from per-unit events match the report
        assert tally.units_done == metrics.templates == len(report.results)
        assert tally.iterations_run == metrics.iterations_run
        assert tally.compile_cache_hits == metrics.cache_hits
        assert tally.compile_cache_misses == metrics.cache_misses
        assert tally.failure_kinds == metrics.failure_kinds
        assert tally.failed == len(report.failures())
        assert tally.passed == len(report.results) - tally.failed
    parsed = read_trace(str(stream))
    # floats come from the authoritative run_metrics block of the final
    # snapshot (summation order differs across policies)
    final = parsed.final_snapshot
    assert final["run_metrics"]["wall_s"] == metrics.wall_s
    assert final["run_metrics"]["compile_s"] == metrics.compile_s
    assert final["run_metrics"]["iterations_run"] == metrics.iterations_run
    # the in-stream snapshots agree with the report too
    assert final["passed"] == tally.passed
    assert final["iterations_run"] == metrics.iterations_run
    # monotone in the real stream as well
    done = [s["units_done"] for s in parsed.snapshots()]
    assert done == sorted(done)


def test_live_telemetry_survives_engine_exception(tmp_path, suite10):
    stream = tmp_path / "run.ndjson"
    config = _quick_config(
        live_stream=str(stream),
        fault_plan=FaultPlan.parse("stall=1.0,seed=1"),
        template_timeout_s=0.0001,
    )
    # a 100% stall plan with a tiny budget: every unit times out but the
    # run completes; the point is the sink is closed with a final snapshot
    runner = ValidationRunner(_PGI, config)
    report = runner.run_suite(suite10)
    parsed = read_trace(str(stream))
    assert parsed.final_snapshot is not None
    assert parsed.final_snapshot["units_done"] == len(report.results)


@pytest.mark.parametrize("telemetry", ["traced", "untraced"])
def test_retries_reach_the_stream_under_every_policy(
        tmp_path, suite10, telemetry):
    # worker-side retries are adopted by the parent and forwarded to the
    # stream before its final snapshot: serial and process streams agree
    # with each other and with the trace's engine.retry count
    finals = {}
    for policy, workers in (("serial", 1), ("process", 2)):
        stream = tmp_path / f"{policy}.ndjson"
        tracer = Tracer() if telemetry == "traced" else None
        runner = ValidationRunner(config=_quick_config(
            policy=policy, workers=workers, retries=2,
            fault_plan=FaultPlan.parse("iteration=0.3,seed=7"),
            live_stream=str(stream)), tracer=tracer)
        runner.run_suite(suite10)
        parsed = read_trace(str(stream))
        finals[policy] = parsed.final_snapshot["retries"]
        assert finals[policy] == len(parsed.events("engine.retry"))
        if tracer is not None:
            retries = [e for e in tracer.events if e.kind == "engine.retry"]
            assert finals[policy] == len(retries)
    assert finals["serial"] == finals["process"] > 0


# ---------------------------------------------------------------------------
# journal resume: replayed units count toward progress
# ---------------------------------------------------------------------------


def test_resume_marks_replayed_units(tmp_path, suite10):
    from repro.journal import JournalWriter, validate_campaign_key

    plan = FaultPlan.parse("journal=0.3,seed=7,max-fires=1")
    config = _quick_config(fault_plan=plan)
    campaign = validate_campaign_key("1.0", _PGI, config)

    journal_path = tmp_path / "c.journal"
    torn_runner = ValidationRunner(_PGI, config)
    journal = JournalWriter.create(str(journal_path), campaign,
                                   faults=torn_runner.faults)
    with pytest.raises(InjectedJournalTear):
        torn_runner.run_suite(suite10, journal=journal)
    journal.close()
    assert journal.records, "the tear should land after >= 1 append"

    stream = tmp_path / "resume.ndjson"
    resumed_config = _quick_config(fault_plan=plan,
                                   live_stream=str(stream))
    resumed_runner = ValidationRunner(_PGI, resumed_config)
    journal = JournalWriter.resume(str(journal_path), campaign,
                                   faults=resumed_runner.faults)
    report = resumed_runner.run_suite(suite10, journal=journal)
    journal.close()

    baseline = ValidationRunner(_PGI, _quick_config()).run_suite(suite10)
    assert render_csv(report) == render_csv(baseline)

    parsed = read_trace(str(stream))
    tally = parsed.tally()
    assert tally.replayed >= 1
    assert tally.units_done == len(report.results)
    replayed_events = [e for e in parsed.events("unit.finished")
                       if e.fields["replayed"]]
    assert len(replayed_events) == tally.replayed
    final = parsed.final_snapshot
    assert final["replayed"] == tally.replayed
    assert final["progress"] == 1.0


# ---------------------------------------------------------------------------
# the tolerant reader
# ---------------------------------------------------------------------------


def _write_stream(path, torn=False):
    telemetry = LiveTelemetry([NDJSONStreamSink(str(path))])
    telemetry.begin(command="test")
    telemetry.event("campaign.start", total_units=2, command="test")
    telemetry.event("unit.finished", **_unit_event()["fields"])
    telemetry.end()
    if torn:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "event", "kind": "unit.fin')  # killed mid-write


def test_stream_parse_strict_vs_tolerant(tmp_path):
    path = tmp_path / "t.ndjson"
    _write_stream(path, torn=True)
    with pytest.raises(ValueError, match="invalid JSON"):
        read_trace(str(path))
    stream = read_trace(str(path), strict=False)
    assert stream.malformed == 1
    assert stream.final_snapshot is not None
    assert stream.tally().units_done == 1


def test_stream_parse_rejects_wrong_format_even_tolerant():
    text = json.dumps({"type": "meta", "format": "something/else"})
    with pytest.raises(ValueError, match="unsupported format"):
        parse_trace(text, strict=False)
    # the previous format version is a different format, not damage
    text = json.dumps({"type": "meta", "format": _PREVIOUS_FORMAT})
    with pytest.raises(ValueError, match="unsupported format"):
        parse_trace(text, strict=False)


def test_render_tally_text_reconciles(tmp_path):
    path = tmp_path / "t.ndjson"
    _write_stream(path)
    text = render_summary_text(summarize_trace(read_trace(str(path))))
    assert "units done         : 1/2" in text
    assert "compile cache      : 1 hits / 0 misses" in text


# ---------------------------------------------------------------------------
# status line + prometheus
# ---------------------------------------------------------------------------


def test_status_line_sink_repaints_and_finishes_clean():
    out = io.StringIO()
    sink = StatusLineSink(out)
    reporter = SnapshotReporter(clock=lambda: 0.0)
    reporter.begin()
    reporter.tally.fold({"type": "event", "kind": "campaign.start",
                         "fields": {"total_units": 2}})
    reporter.tally.fold(_unit_event())
    sink.emit({"type": "event", "kind": "noise"})  # events don't repaint
    sink.emit(reporter.snapshot())
    sink.close(reporter.snapshot(final=True))
    text = out.getvalue()
    assert text.startswith("\r")
    assert text.endswith("\n")
    assert "1/2" in text


def test_render_status_line_contents():
    line = render_status_line({
        "units_done": 3, "total_units": 10, "progress": 0.3,
        "passed": 2, "failed": 1, "units_per_sec": 1.5, "eta_s": 4.7,
        "compile_cache": {"hit_rate": 0.5},
    })
    assert "3/10" in line
    assert "pass 2" in line and "fail 1" in line
    assert "eta" in line


def test_prometheus_render_passes_own_linter():
    reporter = SnapshotReporter(clock=lambda: 0.0)
    reporter.begin()
    reporter.tally.fold({"type": "event", "kind": "campaign.start",
                         "fields": {"total_units": 2}})
    reporter.tally.fold(_unit_event(passed=False,
                                    failure_kind="wrong_value"))
    reporter.tally.fold(_unit_event())
    text = render_prometheus(reporter.snapshot(final=True))
    assert lint_prometheus(text) == []
    assert "repro_campaign_units_done_total 2" in text
    assert "repro_campaign_unit_seconds_count 2" in text
    assert 'cache="lower"' not in text
    assert 'failure_kinds{kind="wrong_value"}' not in text  # spec'd name
    assert 'repro_campaign_failures_total{kind="wrong_value"} 1' in text


def test_prometheus_linter_catches_breakage():
    assert lint_prometheus("repro_x 1\n") != []  # sample without HELP/TYPE
    dup = ("# HELP repro_x h\n# TYPE repro_x gauge\n"
           "repro_x 1\nrepro_x 2\n")
    assert any("duplicate" in p for p in lint_prometheus(dup))
    bad = "# HELP repro_y h\n# TYPE repro_y gauge\nrepro_y oops\n"
    assert any("number" in p for p in lint_prometheus(bad))


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def test_from_config_returns_none_without_sinks():
    assert LiveTelemetry.from_config(HarnessConfig()) is None


def test_config_rejects_empty_sink_paths():
    with pytest.raises(ValueError):
        HarnessConfig(live_stream="")
    with pytest.raises(ValueError):
        HarnessConfig(prom="   ")


def test_live_knobs_do_not_change_campaign_identity(tmp_path):
    from repro.journal import validate_campaign_key

    quiet = validate_campaign_key("1.0", _PGI, _quick_config())
    loud = validate_campaign_key("1.0", _PGI, _quick_config(
        live_stream=str(tmp_path / "s.ndjson"), status=True,
        prom=str(tmp_path / "s.prom")))
    assert quiet == loud


# ---------------------------------------------------------------------------
# the CLI surface
# ---------------------------------------------------------------------------


def test_cli_validate_live_stream_prom_status(tmp_path, capsys):
    stream = tmp_path / "run.ndjson"
    prom = tmp_path / "run.prom"
    out = tmp_path / "report.csv"
    rc = main(["validate", "--features", "parallel.if", "--iterations", "1",
               "--no-cross", "--language", "c",
               "--live-stream", str(stream), "--prom", str(prom),
               "--status", "--format", "csv", "--output", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "\r" in err and "100.0%" in err

    parsed = read_trace(str(stream))
    assert parsed.meta["format"] == TRACE_FORMAT
    assert parsed.final_snapshot["final"] is True
    assert lint_prometheus(prom.read_text()) == []
    sidecar = json.loads((tmp_path / "run.ndjson.snapshot.json").read_text())
    assert sidecar == parsed.final_snapshot


def test_cli_obs_tail_and_summarize(tmp_path, capsys):
    stream = tmp_path / "run.ndjson"
    assert main(["validate", "--features", "parallel.if",
                 "--iterations", "1", "--no-cross", "--language", "c",
                 "--live-stream", str(stream), "--format", "csv",
                 "--output", str(tmp_path / "r.csv")]) == 0
    capsys.readouterr()

    assert main(["obs", "tail", str(stream)]) == 0
    out = capsys.readouterr().out
    assert "campaign.start" in out
    assert "unit.finished" in out
    assert "FINAL" in out

    assert main(["obs", "tail", str(stream), "--summarize"]) == 0
    out = capsys.readouterr().out
    assert "units done" in out
    assert "run metrics" in out


def test_cli_obs_tail_summarizes_stream_from_before_backend_retired(capsys):
    """A v2 stream an earlier version wrote with the closures selected:
    its per-backend timing and lowering-cache fields, in unit events and
    snapshots, are unknown now and ignored."""
    stream = os.path.join(os.path.dirname(__file__), "data",
                          "parent_stream.ndjson")
    assert main(["obs", "tail", stream, "--summarize"]) == 0
    out = capsys.readouterr().out
    assert "units done         : 1/1" in out
    assert "compile cache      : 0 hits / 1 misses" in out
    assert "units              : 1, mean 0.1274s" in out
    assert "lowering cache" not in out and "backend" not in out


def test_cli_obs_tail_tolerates_torn_tail(tmp_path, capsys):
    stream = tmp_path / "t.ndjson"
    _write_stream(stream, torn=True)
    assert main(["obs", "tail", str(stream), "--summarize"]) == 0
    captured = capsys.readouterr()
    assert "malformed" in captured.err
    assert "units done" in captured.out


def test_cli_obs_tail_follow_reads_to_final(tmp_path, capsys):
    stream = tmp_path / "f.ndjson"
    _write_stream(stream)
    assert main(["obs", "tail", str(stream), "--follow",
                 "--poll-s", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "unit.finished" in out
    assert "FINAL" in out


def test_cli_obs_tail_follow_refuses_foreign_format_at_once(
        tmp_path, capsys):
    # a file in another format (here the old trace format) is refused on
    # its meta line, with the non-follow message — not printed as "#?"
    # lines until the idle timeout gives up
    import time as _time

    stream = tmp_path / "old.jsonl"
    stream.write_text(
        json.dumps({"type": "meta", "format": _PREVIOUS_FORMAT}) + "\n"
        + json.dumps({"type": "event", "name": "x", "seq": 0}) + "\n")
    assert main(["obs", "tail", str(stream)]) == 1
    refused = capsys.readouterr().err
    assert f"unsupported format {_PREVIOUS_FORMAT!r}" in refused
    start = _time.monotonic()
    assert main(["obs", "tail", str(stream), "--follow",
                 "--poll-s", "0.01", "--idle-timeout-s", "20"]) == 1
    assert _time.monotonic() - start < 10
    captured = capsys.readouterr()
    assert captured.err == refused
    assert captured.out == ""


def test_cli_obs_tail_missing_file(tmp_path, capsys):
    assert main(["obs", "tail", str(tmp_path / "nope.ndjson")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_cli_titan_live_stream(tmp_path, capsys):
    stream = tmp_path / "titan.ndjson"
    rc = main(["titan", "--nodes", "4", "--sample", "2",
               "--live-stream", str(stream)])
    assert rc == 0
    capsys.readouterr()
    parsed = read_trace(str(stream))
    tally = parsed.tally()
    assert tally.units_done >= 4  # sample*stacks + any triage rechecks
    assert parsed.final_snapshot is not None
    assert parsed.final_snapshot["units_done"] == tally.units_done


def test_cli_obs_tail_follow_idle_timeout_exits_1(tmp_path, capsys):
    # a follower of a dead campaign must not hang forever: without new
    # data for --idle-timeout-s it gives up with exit 1
    stream = tmp_path / "dead.ndjson"
    telemetry = LiveTelemetry([NDJSONStreamSink(str(stream))])
    telemetry.begin(command="test")
    telemetry.event("unit.finished", **_unit_event()["fields"])
    # no .end(): the writer died — the stream has no final snapshot
    assert main(["obs", "tail", str(stream), "--follow",
                 "--poll-s", "0.01", "--idle-timeout-s", "0.1"]) == 1
    captured = capsys.readouterr()
    assert "unit.finished" in captured.out
    assert "no new stream data" in captured.err


def test_cli_obs_tail_follow_idle_timeout_covers_missing_file(
        tmp_path, capsys):
    # a path that never appears also trips the idle budget
    assert main(["obs", "tail", str(tmp_path / "never.ndjson"), "--follow",
                 "--poll-s", "0.01", "--idle-timeout-s", "0.1"]) == 1
    assert "no new stream data" in capsys.readouterr().err


def test_cli_obs_tail_follow_detects_shrinking_file(tmp_path, capsys):
    # rotation/truncation: the writer replaced the stream with a shorter
    # file; the follower must restart from offset 0 instead of silently
    # waiting at a stale offset forever
    import threading
    import time as _time

    stream = tmp_path / "rotated.ndjson"
    telemetry = LiveTelemetry([NDJSONStreamSink(str(stream))])
    telemetry.begin(command="test")
    for _ in range(60):  # long enough that the rewrite below shrinks it
        telemetry.event("unit.finished", **_unit_event()["fields"])
    # no final snapshot yet — the follower keeps following

    def rotate():
        _time.sleep(0.3)
        _write_stream(stream)  # a fresh, shorter stream ending in FINAL

    rotator = threading.Thread(target=rotate)
    rotator.start()
    try:
        assert main(["obs", "tail", str(stream), "--follow",
                     "--poll-s", "0.01", "--idle-timeout-s", "30"]) == 0
    finally:
        rotator.join()
    captured = capsys.readouterr()
    assert "shrank" in captured.err
    assert "FINAL" in captured.out
