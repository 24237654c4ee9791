"""Hot-path benchmarks: the closure-compilation backend vs the tree walker.

The floor is a ratio measured on one box: both backends run the same
microprogram here, best of three each, so the closures-over-tree speedup
holds on any host, where an absolute steps/sec figure would not.  The
closures backend must beat the tree walker by at least 3x with an
identical ``ExecutionResult``.  End-to-end regressions are gated by the
repository benchmark (``perfbench/``), run on the parent and the change
side by side by ``benchmarks/perf_gate.py``.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import print_series
from repro.compiler import Compiler, ExecutionLimits

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
    compiled = Compiler().compile(MICRO_SOURCE, "c", "hotpath_micro.c")
    compiled.lowered()
    return compiled


_LIMITS = ExecutionLimits(max_steps=50_000_000)


def test_bench_interpreter_tree(benchmark, micro):
    result = benchmark.pedantic(
        lambda: micro.run(limits=_LIMITS, backend="tree"),
        rounds=2, iterations=1,
    )
    assert result.steps > 1_000_000


def test_bench_interpreter_closures(benchmark, micro):
    result = benchmark.pedantic(
        lambda: micro.run(limits=_LIMITS, backend="closures"),
        rounds=2, iterations=1,
    )
    assert result.steps > 1_000_000


def test_closures_speedup_floor(micro):
    """Closures must beat the tree walker by >=3x on the same box, with an
    identical ExecutionResult (the equivalence half of the contract)."""
    def best_of(backend, reps=3):
        best, result = None, None
        for _ in range(reps):
            t0 = time.perf_counter()
            result = micro.run(limits=_LIMITS, backend=backend)
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
        f"closures backend only {speedup:.2f}x over the tree walker"
    )

