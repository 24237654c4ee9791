"""Hot-path benchmarks: closure compilation vs the tree walker.

Every campaign runs the closure lowering; the tree walker (an
:class:`Interpreter` built without a lowering) is its reference.  The
floor is a ratio measured on one box: both paths run the same
microprogram here, best of three each, so the closures-over-tree speedup
holds on any host, where an absolute steps/sec figure would not.  The
closures must beat the tree walker by at least 3x with an identical
``ExecutionResult``, and a whole campaign must render byte-identically
on either path.  End-to-end regressions are gated by the repository
benchmark (``perfbench/``), run on the parent and the change side by side
by ``benchmarks/perf_gate.py``.
"""

from __future__ import annotations

import time

import pytest

import repro.compiler.pipeline as pipeline
from benchmarks.conftest import print_series
from repro import cli
from repro.compiler import (
    Compiler,
    ExecutionLimits,
    Interpreter,
    ProgramRunner,
)
from repro.harness import ValidationRunner, render_csv, render_text
from repro.suite import openacc10_suite

#: host-compute-heavy microprogram: tight loops, branches, calls, a while
#: spine — the statement mix that dominates interpreter step counts
MICRO_SOURCE = """
int work(int n) {
  int acc = 0;
  for (int i = 0; i < n; i = i + 1) {
    int t = i * 3 + 1;
    if (t % 2 == 0) { acc = acc + t; } else { acc = acc - i; }
    while (t > 50) { t = t - 17; }
    acc = acc + t;
  }
  return acc;
}
int main() {
  int total = 0;
  for (int r = 0; r < 40; r = r + 1) {
    total = total + work(400);
  }
  return total % 97;
}
"""

#: required closures-over-tree speedup on the microprogram
MIN_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def micro():
    return Compiler().compile(MICRO_SOURCE, "c", "hotpath_micro.c")


@pytest.fixture(scope="module")
def runs(micro):
    """path -> a zero-argument run of the microprogram: the reference
    tree walker, or the product runner (lowered once, here)."""
    runner = ProgramRunner(micro)
    return {
        "tree": lambda: Interpreter(micro.program, micro.behavior).run(
            limits=_LIMITS),
        "closures": lambda: runner.run(limits=_LIMITS),
    }


_LIMITS = ExecutionLimits(max_steps=50_000_000)


def test_bench_interpreter_tree(benchmark, runs):
    result = benchmark.pedantic(runs["tree"], rounds=2, iterations=1)
    assert result.steps > 1_000_000


def test_bench_interpreter_closures(benchmark, runs):
    result = benchmark.pedantic(runs["closures"], rounds=2, iterations=1)
    assert result.steps > 1_000_000


def test_closures_speedup_floor(runs):
    """Closures must beat the tree walker by >=3x on the same box, with an
    identical ExecutionResult (the equivalence half of the contract)."""
    def best_of(path, reps=3):
        best, result = None, None
        for _ in range(reps):
            t0 = time.perf_counter()
            result = runs[path]()
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        return best, result

    tree_s, tree_result = best_of("tree")
    closures_s, closures_result = best_of("closures")
    assert closures_result == tree_result
    speedup = tree_s / closures_s
    print_series("Interpreter hot path", [
        f"tree     {tree_result.steps / tree_s:>12,.0f} steps/s",
        f"closures {closures_result.steps / closures_s:>12,.0f} steps/s",
        f"speedup  {speedup:>12.2f}x",
    ])
    assert speedup >= MIN_SPEEDUP, (
        f"closures only {speedup:.2f}x over the tree walker"
    )


def test_campaign_reports_match_reference_walker(monkeypatch):
    """``repro validate --language c --iterations 2`` renders the same
    text and CSV report on the product path as with every phase's
    lowering replaced by None, which runs the reference tree walker."""
    args = cli.build_parser().parse_args(
        ["validate", "--language", "c", "--iterations", "2"])
    suite = openacc10_suite()

    def campaign():
        runner = ValidationRunner(cli._behavior(args), cli._config(args))
        report = runner.run_suite(suite)
        return render_text(report), render_csv(report)

    product = campaign()
    lowerings = []
    # records each lowering request and answers None
    monkeypatch.setattr(pipeline, "lower_program", lowerings.append)
    reference = campaign()
    assert lowerings, "the seam is not on the campaign's path"
    assert reference[0] == product[0]
    assert reference[1] == product[1]
