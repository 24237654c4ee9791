"""Tests for the compile pipeline: validation diagnostics, version gating,
vendor compile-time restrictions."""

import pickle

import pytest

from repro.compiler import (
    CompileError,
    Compiler,
    CompilerBehavior,
    UnsupportedFeatureError,
)
from repro.compiler.errors import CompilerCrashError
from repro.frontend.errors import FrontendError, ParseError
from repro.ir.astnodes import SourceLocation
from repro.spec.versions import ACC_20


CC = Compiler()
CC20 = Compiler(CompilerBehavior(spec_version=ACC_20))


class TestBasicValidation:
    def test_clean_program_compiles(self):
        prog = CC.compile("int main(){ return 1; }", "c")
        assert prog.run().value == 1

    def test_syntax_error_is_compile_error(self):
        with pytest.raises(CompileError):
            CC.compile("int main(){ int a = ; }", "c")

    def test_invalid_clause_placement(self):
        src = "int main(){\n#pragma acc data num_gangs(4)\n{ }\nreturn 1; }"
        with pytest.raises(CompileError):
            CC.compile(src, "c")

    def test_unknown_runtime_routine(self):
        src = "int main(){ return acc_fly_to_moon(); }"
        with pytest.raises(CompileError):
            CC.compile(src, "c")

    def test_unknown_function_in_region(self):
        src = """
int main(){
  int t = 0;
  #pragma acc parallel copy(t)
  { t = mystery(); }
  return t;
}
"""
        with pytest.raises(CompileError):
            CC.compile(src, "c")

    def test_user_call_in_region_rejected_in_10(self):
        """OpenACC 1.0 has no routine directive (Section V-C)."""
        src = """
int helper(int x){ return x; }
int main(){
  int t = 0;
  #pragma acc parallel copy(t)
  { t = helper(1); }
  return t;
}
"""
        with pytest.raises(UnsupportedFeatureError):
            CC.compile(src, "c")

    def test_user_call_on_host_is_fine(self):
        src = """
int helper(int x){ return x + 1; }
int main(){ return helper(0); }
"""
        assert CC.compile(src, "c").run().value == 1

    def test_reduction_without_operator_unparseable(self):
        src = "int main(){ int s=0;\n#pragma acc parallel reduction(s)\n{ }\nreturn s; }"
        with pytest.raises(CompileError):
            CC.compile(src, "c")


class TestVersionGating:
    def test_enter_data_needs_20(self):
        src = "int main(){ int a[4];\n#pragma acc enter data copyin(a[0:4])\nreturn 1; }"
        with pytest.raises(UnsupportedFeatureError):
            CC.compile(src, "c")
        CC20.compile(src, "c")  # accepted by a 2.0 implementation

    def test_default_none_needs_20(self):
        src = """
int main(){
  int t = 0;
  #pragma acc parallel default(none) copy(t)
  { t = 1; }
  return t;
}
"""
        with pytest.raises(UnsupportedFeatureError):
            CC.compile(src, "c")
        assert CC20.compile(src, "c").run().value == 1

    def test_default_none_flags_implicit_variable(self):
        src = """
int main(){
  int t = 0, hidden = 3;
  #pragma acc parallel default(none) copy(t)
  { t = hidden; }
  return t;
}
"""
        with pytest.raises(CompileError):
            CC20.compile(src, "c")

    def test_routine_enables_device_calls(self):
        src = """
#pragma acc routine
int twice(int x){ return 2 * x; }
int main(){
  int i, b[4];
  #pragma acc parallel loop copy(b[0:4])
  for(i=0;i<4;i++) b[i] = twice(i);
  return b[3] == 6;
}
"""
        with pytest.raises(UnsupportedFeatureError):
            CC.compile(src, "c")
        assert CC20.compile(src, "c").run().value == 1


class TestVendorRestrictions:
    def test_language_gate(self):
        c_only = Compiler(CompilerBehavior(languages=("c",)))
        with pytest.raises(UnsupportedFeatureError):
            c_only.compile("program t\nend program t\n", "fortran")

    def test_constant_parallelism_restriction(self):
        caps = Compiler(CompilerBehavior(require_constant_parallelism_exprs=True))
        variable = "int main(){ int g = 4;\n#pragma acc parallel num_gangs(g)\n{ }\nreturn 1; }"
        constant = variable.replace("num_gangs(g)", "num_gangs(4)")
        with pytest.raises(CompileError):
            caps.compile(variable, "c")
        assert caps.compile(constant, "c").run().value == 1

    def test_unsupported_directive(self):
        vendor = Compiler(CompilerBehavior(unsupported_directives=frozenset({"declare"})))
        src = "int main(){ int a[4];\n#pragma acc declare create(a[0:4])\nreturn 1; }"
        with pytest.raises(UnsupportedFeatureError):
            vendor.compile(src, "c")

    def test_unsupported_clause_pair(self):
        vendor = Compiler(CompilerBehavior(
            unsupported_clauses=frozenset({("parallel", "firstprivate")})
        ))
        src = "int main(){ int t=1;\n#pragma acc parallel firstprivate(t)\n{ }\nreturn 1; }"
        with pytest.raises(UnsupportedFeatureError):
            vendor.compile(src, "c")
        # the same clause on kernels-free constructs still works elsewhere
        ok = "int main(){ int t=1;\n#pragma acc parallel private(t)\n{ }\nreturn 1; }"
        assert vendor.compile(ok, "c").run().value == 1

    def test_unsupported_routine_is_link_error(self):
        vendor = Compiler(CompilerBehavior(
            unsupported_routines=frozenset({"acc_async_test"})
        ))
        src = "int main(){ return acc_async_test(1); }"
        with pytest.raises(UnsupportedFeatureError):
            vendor.compile(src, "c")

    def test_compiled_program_reusable(self):
        prog = CC.compile("int main(){ return rand() % 2 == rand() % 2; }", "c")
        first = prog.run(rng_seed=1)
        second = prog.run(rng_seed=1)
        assert first.value == second.value


class TestErrorPickling:
    """Errors cross process boundaries: the round trip keeps the class,
    the text and the location."""

    LOC = SourceLocation("t.c", 3, 4)

    def _round_trip(self, err):
        return pickle.loads(pickle.dumps(err, pickle.HIGHEST_PROTOCOL))

    @pytest.mark.parametrize("cls", [CompileError, UnsupportedFeatureError,
                                     FrontendError, ParseError])
    def test_message_and_loc_survive(self, cls):
        back = self._round_trip(cls("boom", self.LOC))
        assert type(back) is cls
        assert str(back) == "t.c:3:4: boom"
        assert (back.message, back.loc) == ("boom", self.LOC)

    def test_crash_carries_its_cause_as_repr(self):
        crash = CompilerCrashError("internal compiler crash", self.LOC,
                                   cause=ValueError("bad node"))
        back = self._round_trip(crash)
        assert type(back) is CompilerCrashError
        assert str(back) == "t.c:3:4: internal compiler crash"
        assert back.loc == self.LOC
        assert back.cause == "ValueError('bad node')"
        assert self._round_trip(back).cause == "ValueError('bad node')"
