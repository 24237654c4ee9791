"""Tests for closure compilation (:mod:`repro.compiler.closures`) and the
interpreter correctness fixes that shipped with it.

Every campaign runs the closure lowering; its contract is observable
equivalence with the reference tree walker (an :class:`Interpreter` built
without a lowering): same :class:`ExecutionResult` (value, output, steps,
device counters), same error strings, over every template the suite
ships.  The differential below enforces that over the full corpus, and the
engine-level tests assert byte-identical report renderings between the
product path and the reference walker, under both execution policies.
"""

from __future__ import annotations

import threading

import pytest

from repro.accsim.errors import AccRuntimeError, ExecutionTimeout
from repro.accsim.machine import Machine
import repro.compiler.pipeline as pipeline
from repro.compiler import (
    CompileCache,
    Compiler,
    ExecutionLimits,
    Interpreter,
    InterpreterReuseError,
    lower_program,
)
from repro.harness import HarnessConfig, ValidationRunner, render_csv, render_text
from repro.ir.astnodes import For
from repro.suite import openacc10_suite
from repro.templates import generate_cross, generate_functional

#: a program whose result exercises host compute, an acc region (device
#: counters move) and function calls — if any per-run state leaks between
#: run() calls, one of the result fields diverges
_STATEFUL_SRC = """
int scale(int x) { return x * 2 + 1; }
int main() {
  int n = 64;
  int a[64];
  int total = 0;
  #pragma acc parallel loop copy(a[0:64])
  for (int i = 0; i < n; i = i + 1) {
    a[i] = i * i;
  }
  for (int i = 0; i < n; i = i + 1) {
    total = total + a[i];
  }
  return scale(total % 1000);
}
"""


def _compile(source: str, name: str = "t.c"):
    return Compiler().compile(source, "c", name)


#: the two execution paths: the tree walker (the reference) and the
#: closure lowering every campaign runs
PATHS = ("tree", "closures")


def _interpreter(compiled, path: str, **kwargs) -> Interpreter:
    lowered = lower_program(compiled.program) if path == "closures" else None
    return Interpreter(compiled.program, compiled.behavior, lowered=lowered,
                       **kwargs)


# ---------------------------------------------------------------------------
# Interpreter.run() reuse contract
# ---------------------------------------------------------------------------


class TestRunReuse:
    @pytest.mark.parametrize("path", PATHS)
    def test_owned_machine_run_twice_is_identical(self, path):
        compiled = _compile(_STATEFUL_SRC)
        interp = _interpreter(compiled, path)
        first = interp.run()
        second = interp.run()
        # the regression: globals/output/device counters leaked across
        # runs, so the second result double-counted bytes_to_device
        assert first == second
        assert second.bytes_to_device == first.bytes_to_device

    @pytest.mark.parametrize("path", PATHS)
    def test_caller_supplied_machine_reuse_raises(self, path):
        compiled = _compile(_STATEFUL_SRC)
        interp = _interpreter(compiled, path, machine=Machine())
        interp.run()
        with pytest.raises(InterpreterReuseError):
            interp.run()

    def test_reuse_error_is_not_a_simulated_crash(self):
        # InterpreterReuseError is a harness-usage bug, and must never be
        # classified as the simulated program crashing (AccRuntimeError)
        assert not issubclass(InterpreterReuseError, AccRuntimeError)
        assert issubclass(InterpreterReuseError, RuntimeError)

    @pytest.mark.parametrize("path", PATHS)
    def test_reset_covers_limits_and_output(self, path):
        compiled = _compile(_STATEFUL_SRC)
        interp = _interpreter(compiled, path)
        first = interp.run()
        # a second run under a tighter budget must time out: proof the
        # budget is re-read, not frozen at first-run state
        with pytest.raises(ExecutionTimeout):
            interp.run(limits=ExecutionLimits(max_steps=10))
        # and a third full run recovers the original result exactly
        assert interp.run(limits=ExecutionLimits(max_steps=2_000_000)) == first


# ---------------------------------------------------------------------------
# lazy iteration_values (the huge-trip-count regression)
# ---------------------------------------------------------------------------


class TestLazyIterationValues:
    def test_iteration_values_returns_lazy_range(self):
        compiled = _compile(
            "int main() {"
            "  for (int i = 0; i < 2000000000; i = i + 1) { }"
            "  return 0;"
            "}"
        )
        interp = Interpreter(compiled.program, compiled.behavior)
        loops = [s for fn in compiled.program.functions
                 for s in _walk_stmts(fn.body) if isinstance(s, For)]
        assert loops, "fixture program must contain a for loop"
        values = interp.iteration_values(loops[0], interp.globals)
        # the regression materialised this as list(range(...)) — ~16 GB for
        # a 2e9 trip count; a lazy range is O(1) whatever the bounds
        assert isinstance(values, range)
        assert len(values) == 2_000_000_000

    @pytest.mark.parametrize("path", PATHS)
    def test_huge_trip_count_hits_step_budget_not_allocator(self, path):
        # 2e9 iterations materialised as a list is ~16 GB; lazily it is an
        # O(1) range and the step budget stops the loop almost immediately
        source = """
        int main() {
          int acc = 0;
          #pragma acc parallel loop
          for (int i = 0; i < 2000000000; i = i + 1) { acc = acc + 1; }
          return acc;
        }
        """
        compiled = _compile(source)
        with pytest.raises(ExecutionTimeout):
            _interpreter(compiled, path).run(
                limits=ExecutionLimits(max_steps=5_000))


def _walk_stmts(block):
    for stmt in getattr(block, "stmts", []):
        yield stmt
        yield from _walk_stmts(stmt)  # nested Block statements
        body = getattr(stmt, "body", None)
        if body is not None:
            yield from _walk_stmts(body)
        then = getattr(stmt, "then", None)
        if then is not None:
            yield from _walk_stmts(then)
        loop = getattr(stmt, "loop", None)
        if loop is not None:
            yield loop
            yield from _walk_stmts(loop.body)


# ---------------------------------------------------------------------------
# CompileCache.stats() (the torn-read regression)
# ---------------------------------------------------------------------------


class TestCacheStats:
    def test_stats_snapshot_is_consistent_under_contention(self):
        cache = CompileCache(maxsize=64)
        compiler = Compiler()
        sources = [f"int main() {{ return {i}; }}" for i in range(8)]
        per_thread = 40
        n_threads = 4
        stop = threading.Event()
        bad = []

        def reader():
            # the regression: hits/misses read as two unlocked loads could
            # tear mid-update; stats() snapshots both under the cache lock,
            # so lookups can never exceed the number of completed calls
            while not stop.is_set():
                snap = cache.stats()
                if snap.hits < 0 or snap.misses < 0 or \
                        snap.lookups > n_threads * per_thread:
                    bad.append(snap)

        def worker(k):
            for i in range(per_thread):
                source = sources[(i + k) % len(sources)]
                cache.get_or_compile(compiler, source, "c", "t.c")

        watcher = threading.Thread(target=reader)
        watcher.start()
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        watcher.join()

        assert not bad
        final = cache.stats()
        assert final.hits + final.misses == n_threads * per_thread
        assert final.misses == len(sources)
        assert final.entries == len(sources)
        # the legacy attributes stay readable and agree with the snapshot
        assert (cache.hits, cache.misses) == (final.hits, final.misses)

    def test_hit_rate_delegates_to_snapshot(self):
        cache = CompileCache()
        compiler = Compiler()
        cache.get_or_compile(compiler, "int main() { return 0; }", "c", "t.c")
        cache.get_or_compile(compiler, "int main() { return 0; }", "c", "t.c")
        stats = cache.stats()
        assert stats.lookups == 2 and stats.hits == 1
        assert cache.hit_rate == pytest.approx(0.5)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_empty_cache_stats(self):
        stats = CompileCache().stats()
        assert (stats.hits, stats.misses, stats.entries) == (0, 0, 0)
        assert stats.hit_rate == 0.0


# ---------------------------------------------------------------------------
# tree-vs-closures differential over the full shipped corpus
# ---------------------------------------------------------------------------


class TestCrossBackendCorpus:
    def test_every_template_runs_identically(self, suite10,
                                             reference_compiler):
        """The product path (``CompiledProgram.run``, closures) must produce
        the tree walker's ExecutionResult — or raise the same error with
        the same message — for every generated source (functional and
        cross) of every template in the corpus."""
        checked = 0
        for template in suite10.select():
            generated = [generate_functional(template)]
            if template.has_cross:
                generated.append(generate_cross(template))
            for gen in generated:
                try:
                    compiled = reference_compiler.compile(
                        gen.source, template.language, template.name)
                except Exception:
                    continue  # compile errors never reach execution
                env = template.environment or None
                reference = Interpreter(compiled.program, compiled.behavior,
                                        env_vars=env, rng_seed=20140519)
                outcomes = {}
                for path, run in (
                        ("tree", reference.run),
                        ("closures", lambda: compiled.run(
                            env_vars=env, rng_seed=20140519))):
                    try:
                        outcomes[path] = run()
                    except Exception as exc:  # noqa: BLE001 - differential
                        outcomes[path] = (type(exc).__name__, str(exc))
                assert outcomes["closures"] == outcomes["tree"], (
                    f"closures diverge from the tree walker on {template.name} "
                    f"({template.language}, {gen.mode})"
                )
                checked += 1
        # the corpus ships hundreds of programs; a collapsed selection
        # would make this test pass vacuously
        assert checked > 300

    def test_lowered_program_is_shared_and_pure(self):
        compiled = _compile(_STATEFUL_SRC)
        lowered = lower_program(compiled.program)
        a = Interpreter(compiled.program, compiled.behavior, lowered=lowered)
        b = Interpreter(compiled.program, compiled.behavior, lowered=lowered)
        # shared lowering, independent state, the reference's result
        assert a.run() == b.run() == _interpreter(compiled, "tree").run()

    def test_lowering_survives_pickling_boundary(self):
        import pickle

        compiled = _compile(_STATEFUL_SRC)
        compiled.run()
        # the process policy ships compiled programs between processes:
        # a program that has run must still pickle, and its clone lowers
        # afresh to the reference's result
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.run() == _interpreter(compiled, "tree").run()


# ---------------------------------------------------------------------------
# engine-level byte identity: product vs reference, across policies
# ---------------------------------------------------------------------------


def _engine_run(suite, reference: bool = False, **config_kwargs):
    """Run a campaign on the product path, or with every phase's lowering
    replaced by None — the reference tree walker (``reference=True``)."""
    defaults = dict(iterations=1, languages=("c", "fortran"))
    defaults.update(config_kwargs)
    runner = ValidationRunner(config=HarnessConfig(**defaults))
    seams = []
    with pytest.MonkeyPatch.context() as patch:
        if reference:
            # records each lowering request and answers None
            patch.setattr(pipeline, "lower_program", seams.append)
        report = runner.run_suite(suite)
    # the seam was really on the campaign's path (else this compares the
    # product with itself)
    assert seams or not reference
    return report


class TestReportByteIdentity:
    @pytest.fixture(scope="class")
    def tree_report(self, suite10):
        return _engine_run(suite10, reference=True)

    def test_serial_full_corpus(self, suite10, tree_report):
        report = _engine_run(suite10)
        assert render_csv(report) == render_csv(tree_report)
        assert render_text(report) == render_text(tree_report)

    @pytest.mark.parametrize("policy,workers", [("process", 2)])
    def test_pooled_closures_match_serial_tree(self, suite10, policy,
                                               workers):
        prefixes = ["parallel", "loop", "data"]
        serial = _engine_run(suite10, reference=True,
                             feature_prefixes=prefixes)
        pooled = _engine_run(suite10, policy=policy, workers=workers,
                             feature_prefixes=prefixes)
        assert render_csv(pooled) == render_csv(serial)
        assert render_text(pooled) == render_text(serial)
