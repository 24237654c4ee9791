"""Tests for the process-wide parse memo (``repro.compiler.pipeline``):
every compile gets a private tree, the memo never changes an outcome,
errors replay exactly, and the LRU bound holds."""

import sys
import threading

import pytest

import repro.minic as minic
from repro.compiler import CompileError, Compiler, UnsupportedFeatureError
from repro.compiler.pipeline import PARSE_MEMO, PARSE_MEMO_SIZE, ParseMemo
from repro.compiler.vendors import VENDORS, vendor_version
from repro.harness import HarnessConfig, ValidationRunner
from repro.ir.acc import Clause
from repro.ir.astnodes import SourceLocation, walk
from repro.staticcheck import lint_source
from repro.suite import combination_suite, default_suite, openacc20_suite
from repro.templates import generate_cross, generate_functional

CC = Compiler()
CAPS_307 = Compiler(vendor_version("caps", "3.0.7").behavior("c"))

SOURCE = """int main(){
  int a[8];
#pragma acc parallel loop copy(a)
  for (int i = 0; i < 8; i++) { a[i] = i; }
  return a[7];
}
"""

#: a user-procedure call (line 5), an unknown function (line 7) and an
#: unknown runtime routine (line 8), after a non-constant num_gangs
TWO_VIOLATIONS = """int helper(int x){ return x; }
int main(){
  int a[4]; int n = 4;
#pragma acc parallel num_gangs(n) copy(a)
  { a[0] = helper(1); }
#pragma acc kernels copy(a)
  { a[1] = nothere(2); }
  return acc_bogus();
}
"""

UNPARSABLE = "int main(){ int a = 1 return a; }"


@pytest.fixture
def parse_calls(monkeypatch):
    """Empty memo; counts the mini-C frontend's calls."""
    calls = []
    original = minic.parse_program

    def counting(source, *args, **kwargs):
        calls.append(source)
        return original(source, *args, **kwargs)

    monkeypatch.setattr(minic, "parse_program", counting)
    PARSE_MEMO.clear()
    yield calls
    PARSE_MEMO.clear()


def _outcome(compiler, source, language, name):
    try:
        return "ok", compiler.compile(source, language, name).warnings
    except CompileError as err:
        return type(err), str(err)


class TestPrivateTrees:
    def test_one_parse_for_every_behaviour(self, parse_calls):
        for compiler in (CC, CAPS_307, CC):
            compiler.compile(SOURCE, "c", "t.c")
        assert len(parse_calls) == 1

    @pytest.mark.parametrize("second", [CC, CAPS_307],
                             ids=["same-behaviour", "other-behaviour"])
    def test_compiles_share_no_node(self, parse_calls, second):
        programs = [CC.compile(SOURCE, "c", "t.c").program,
                    second.compile(SOURCE, "c", "t.c").program,
                    second.compile(SOURCE, "c", "t.c").program]
        assert len(parse_calls) == 1
        assert programs[0] == programs[1] == programs[2]
        ids = [{id(node) for node in walk(p)} for p in programs]
        assert not ids[0] & ids[1]
        assert not ids[1] & ids[2]
        assert not ids[0] & ids[2]

    def test_mutating_a_tree_leaves_the_next_compile_alone(self, parse_calls):
        fresh = CC.compile(SOURCE, "c", "t.c").program
        restored = CC.compile(SOURCE, "c", "t.c").program
        for program in (fresh, restored):
            loop = next(n for n in walk(program) if hasattr(n, "directive"))
            loop.directive.clauses.append(Clause(name="seq"))
        again = CC.compile(SOURCE, "c", "t.c").program
        loop = next(n for n in walk(again) if hasattr(n, "directive"))
        assert [c.name for c in loop.directive.clauses] == ["copy"]

    def test_lint_gate_and_compile_share_one_parse(self, parse_calls):
        template = default_suite().select(languages=["c"])[0]
        runner = ValidationRunner(config=HarnessConfig(
            iterations=1, run_cross=False, lint=True))
        result = runner.run_template(template)
        assert result.functional.static_error is None
        assert result.functional.compile_error is None
        assert len(parse_calls) == 1


def _behaviours():
    return [(f"{vendor} {vv.version} {language}", vv.behavior(language),
             language)
            for vendor, versions in VENDORS.items()
            for vv in versions
            for language in ("c", "fortran")]


def test_cold_and_warm_memo_give_identical_outcomes():
    """Every CAPS, PGI and Cray version, both languages, every functional
    corpus source: the sweep run from an empty memo (one miss per source,
    the rest restored) matches the same sweep fully warm."""
    sources = [(generate_functional(t).source, t.language, t.name)
               for t in default_suite()]
    behaviours = _behaviours()
    PARSE_MEMO.clear()
    cold, warm = {}, {}
    for i, (source, language, name) in enumerate(sources):
        # rotate the order so each behaviour takes some of the misses
        turn = i % len(behaviours)
        for label, behavior, lang in behaviours[turn:] + behaviours[:turn]:
            if lang == language:
                cold[label, name] = _outcome(Compiler(behavior), source,
                                             language, name)
    for label, behavior, lang in behaviours:
        compiler = Compiler(behavior)
        for source, language, name in sources:
            if lang == language:
                warm[label, name] = _outcome(compiler, source, language, name)
    assert len(cold) == 48 * 100
    assert cold == warm
    assert any(result[0] != "ok" for result in cold.values())


class TestErrors:
    def test_first_violation_in_source_order(self, parse_calls):
        for _ in range(2):
            with pytest.raises(UnsupportedFeatureError) as info:
                CC.compile(TWO_VIOLATIONS, "c", "two.c")
            assert str(info.value) == (
                "two.c:5:18: call to user procedure 'helper' inside a "
                "compute region (OpenACC 1.0 has no `routine` directive)")
            with pytest.raises(CompileError) as info:
                CAPS_307.compile(TWO_VIOLATIONS, "c", "two.c")
            assert type(info.value) is CompileError
            assert str(info.value) == (
                "two.c:4:22: caps 3.0.7: `num_gangs` requires a constant "
                "expression")
        assert len(parse_calls) == 1

    def test_unparsable_source_replays_the_same_error(self, parse_calls):
        texts = []
        for _ in range(2):
            with pytest.raises(CompileError) as info:
                CC.compile(UNPARSABLE, "c", "bad.c")
            texts.append((type(info.value), str(info.value)))
        assert texts == [(CompileError, "<unknown>:0:0: bad.c:1:23: "
                                        "expected ';', found 'return'")] * 2
        assert len(parse_calls) == 1

    def test_unparsable_source_lints_the_same(self, parse_calls):
        first, second = (lint_source(UNPARSABLE, "c", "bad.c")
                         for _ in range(2))
        for diags in (first, second):
            assert [(d.code, d.message, d.loc) for d in diags] == [(
                "ACC301", "program does not parse: expected ';', found "
                "'return'", SourceLocation("bad.c", 1, 23))]
        assert len(parse_calls) == 1

    def test_unknown_language(self):
        with pytest.raises(UnsupportedFeatureError, match="unknown language"):
            PARSE_MEMO.parse(SOURCE, "cobol", "t.cob")

    def test_too_deep_to_pickle_is_parsed_again(self, parse_calls):
        # compiles at any depth the parser takes; only the memo skips it
        deep = "int main(){ return " + "+".join(["1"] * 400) + "; }"
        for _ in range(2):
            CC.compile(deep, "c", "deep.c")
        assert len(parse_calls) == 2


class TestBound:
    def test_lru_eviction(self, parse_calls):
        memo = ParseMemo(maxsize=2)
        keys = [(f"int main(){{ return {i}; }}", "c", f"m{i}.c")
                for i in range(3)]
        for key in (keys[0], keys[1], keys[0], keys[2]):
            memo.parse(*key)
            assert len(memo) <= 2
        assert len(parse_calls) == 3
        # keys[1] was least recently used when keys[2] arrived
        memo.parse(*keys[0])
        assert len(parse_calls) == 3
        memo.parse(*keys[1])
        assert len(parse_calls) == 4
        assert len(memo) == 2

    def test_threads_share_one_bounded_memo(self):
        memo = ParseMemo(maxsize=4)
        sources = [(f"int main(){{ int a = {i}; return a * 2; }}", "c",
                    f"s{i}.c") for i in range(6)]
        expected = [minic.parse_program(s, filename=n, name=n)
                    for s, _, n in sources]
        failures = []

        def worker(offset):
            try:
                for round_ in range(60):
                    i = (offset + round_) % len(sources)
                    program, _ = memo.parse(*sources[i])
                    if program != expected[i] or len(memo) > 4:
                        failures.append((offset, i, len(memo)))
            except Exception as err:  # surfaced by the assert below
                failures.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert len(memo) == 4

    def test_bound_holds_every_shipped_source(self):
        shipped = set()
        for suite in (default_suite(), openacc20_suite(), combination_suite()):
            for t in suite:
                shipped.add((generate_functional(t).source, t.language,
                             t.name))
                if t.has_cross:
                    shipped.add((generate_cross(t).source, t.language,
                                 t.name))
        assert len(shipped) <= PARSE_MEMO_SIZE
