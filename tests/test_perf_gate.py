"""The decision rule of ``benchmarks/perf_gate.py``, on synthetic results.

``judge`` is a pure function over two lists of perfbench result dicts and
the parsed ``BENCHMARK.json``; these tests feed it hand-made results
against the repository's own file, so the bounds and directions under
test are the ones CI applies.
"""

from __future__ import annotations

import json
import os

import pytest

from benchmarks.perf_gate import judge

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: a parent run on which every end-to-end metric reads 100
_BASE = {"setup_s": 100.0, "iterations_per_s": 100.0,
         "first_result_p50_ms": 100.0, "first_result_p90_ms": 100.0,
         "campaign_p50_ms": 100.0, "campaign_p90_ms": 100.0,
         "peak_rss_mb": 100.0}


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def result(correct=True, attempted=1000, failed=0, **values):
    """A perfbench result: ``_BASE`` with ``values`` overriding it."""
    metrics = dict(_BASE, **values)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": "x"}
                        for name, value in metrics.items()}}


def status(verdict, name):
    """The status column of ``name``'s row."""
    row = next(line for line in verdict.lines if line.startswith(name + " "))
    return row.split("  ")[-1].strip()


def test_identical_runs_pass(spec):
    verdict = judge([result()] * 3, [result()] * 3, spec)
    assert verdict.failures == []
    assert {status(verdict, m["name"]) for m in spec["end_to_end"]} == {"ok"}


def test_thirty_percent_regression_fails(spec):
    verdict = judge([result()] * 3, [result(campaign_p50_ms=130.0)] * 3, spec)
    assert status(verdict, "campaign_p50_ms") == "FAIL"
    assert len(verdict.failures) == 1
    assert verdict.failures[0].startswith("campaign_p50_ms: ")
    assert "+30.0% worse" in verdict.failures[0]


def test_twenty_percent_regression_passes(spec):
    verdict = judge([result()] * 3, [result(campaign_p50_ms=120.0)] * 3, spec)
    assert verdict.failures == []
    assert status(verdict, "campaign_p50_ms") == "ok"


def test_higher_is_better_for_iterations_per_s(spec):
    assert [m["better"] for m in spec["end_to_end"]
            if m["name"] == "iterations_per_s"] == ["higher"]
    faster = judge([result()] * 3, [result(iterations_per_s=130.0)] * 3, spec)
    assert faster.failures == []
    slower = judge([result()] * 3, [result(iterations_per_s=70.0)] * 3, spec)
    assert status(slower, "iterations_per_s") == "FAIL"
    assert [f.split(":")[0] for f in slower.failures] == ["iterations_per_s"]


def test_rss_bound_is_read_from_the_file(spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["peak_rss_mb"] == 0.1
    # +15% is inside every 0.25 bound but outside the RSS bound of 0.1
    verdict = judge([result()] * 3,
                    [result(peak_rss_mb=115.0, campaign_p50_ms=115.0)] * 3,
                    spec)
    assert status(verdict, "campaign_p50_ms") == "ok"
    assert status(verdict, "peak_rss_mb") == "FAIL"
    assert [f.split(":")[0] for f in verdict.failures] == ["peak_rss_mb"]


def test_unresolved_when_the_parent_spread_exceeds_the_bound(spec):
    # parent campaign_p50_ms 70/100/130: spread 60% > the 25% bound
    parent = [result(campaign_p50_ms=v) for v in (70.0, 100.0, 130.0)]
    # median +30% but the runs overlap the parent's: unresolved, not failed
    overlapping = [result(campaign_p50_ms=v) for v in (110.0, 130.0, 140.0)]
    verdict = judge(parent, overlapping, spec)
    assert status(verdict, "campaign_p50_ms") == "unresolved"
    assert verdict.failures == []
    # every change run worse than every parent run: fails after all
    separated = [result(campaign_p50_ms=v) for v in (131.0, 140.0, 150.0)]
    verdict = judge(parent, separated, spec)
    assert status(verdict, "campaign_p50_ms") == "unresolved FAIL"
    assert [f.split(":")[0] for f in verdict.failures] == ["campaign_p50_ms"]


def test_unresolved_fails_only_beyond_the_bound(spec):
    # parent spread (101 - 70) / 100 = 31% > 25%: unresolved
    parent = [result(campaign_p50_ms=v) for v in (70.0, 100.0, 101.0)]
    # every change run is worse than every parent run, but the median is
    # only +20%: inside the bound, so it passes
    verdict = judge(parent, [result(campaign_p50_ms=120.0)] * 3, spec)
    assert status(verdict, "campaign_p50_ms") == "unresolved"
    assert verdict.failures == []
    verdict = judge(parent, [result(campaign_p50_ms=126.0)] * 3, spec)
    assert status(verdict, "campaign_p50_ms") == "unresolved FAIL"


def test_incorrect_run_fails(spec):
    change = [result(), result(correct=False, failed=0), result()]
    verdict = judge([result()] * 3, change, spec)
    assert verdict.failures == ["change run 2 is not correct (0/1000 failed)"]
    parent = [result(correct=False)] + [result()] * 2
    assert judge(parent, [result()] * 3, spec).failures == [
        "parent run 1 is not correct (0/1000 failed)"]


def test_larger_failed_share_fails(spec):
    parent = [result(failed=1, correct=False)] + [result()] * 2
    same = [result()] * 2 + [result(failed=1, correct=False)]
    verdict = judge(parent, same, spec)
    assert not any("failed share" in f for f in verdict.failures)
    worse = [result(failed=2, correct=False)] + [result()] * 2
    verdict = judge(parent, worse, spec)
    assert ("failed share 0.0007 exceeds the parent's 0.0003"
            in verdict.failures)


def test_crashed_run_has_no_samples(spec):
    crashed = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    verdict = judge([result()] * 3, [crashed] * 3, spec)
    assert "change run 1 is not correct (1/1 failed)" in verdict.failures
    assert "campaign_p50_ms: no samples" in verdict.failures
