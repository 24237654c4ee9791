"""Tests for the harness: stats model, runner pipeline, reports."""

import pytest
from hypothesis import given, strategies as st

from repro.compiler import CompilerBehavior
from repro.harness import (
    FailureKind,
    HarnessConfig,
    ValidationRunner,
    accidental_pass_probability,
    certainty,
    cross_fail_probability,
    render_bug_report,
    render_csv,
    render_html,
    render_text,
)
from repro.suite import openacc10_suite
from repro.templates import parse_template
from repro.suite.builders import check, template_text


class TestStats:
    def test_paper_formulas(self):
        # nf = M (every cross run fails) -> full certainty
        assert certainty(3, 3) == 1.0
        # nf = 0 -> no certainty
        assert certainty(0, 3) == 0.0
        assert accidental_pass_probability(0, 3) == 1.0

    def test_partial_certainty(self):
        # p = 1/2, M = 2 -> pa = 0.25, pc = 0.75
        assert cross_fail_probability(1, 2) == 0.5
        assert accidental_pass_probability(1, 2) == 0.25
        assert certainty(1, 2) == 0.75

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            cross_fail_probability(1, 0)
        with pytest.raises(ValueError):
            cross_fail_probability(5, 3)

    @given(st.integers(1, 60))
    def test_full_failure_always_certain(self, m):
        assert certainty(m, m) == 1.0

    @given(st.integers(1, 60), st.data())
    def test_certainty_monotone_in_nf(self, m, data):
        nf = data.draw(st.integers(0, m - 1))
        assert certainty(nf, m) <= certainty(nf + 1, m)

    @given(st.integers(0, 30), st.integers(1, 30))
    def test_probability_bounds(self, nf, m):
        if nf > m:
            return
        pc = certainty(nf, m)
        assert 0.0 <= pc <= 1.0


def _template(code: str, **kwargs) -> object:
    args = dict(name="t.c", feature="loop", language="c", code=code)
    args.update(kwargs)
    return parse_template(template_text(**args))


class TestRunnerPipeline:
    def test_pass_with_conclusive_cross(self):
        tpl = _template(
            "int main(){ int i, a[8];\n"
            "for(i=0;i<8;i++) a[i]=0;\n"
            "#pragma acc parallel num_gangs(4) copy(a[0:8])\n"
            "{\n" + check("#pragma acc loop") + "\n"
            "for(i=0;i<8;i++) a[i]++;\n}\n"
            "return a[0] == 1; }"
        )
        result = ValidationRunner(config=HarnessConfig(iterations=3)).run_template(tpl)
        assert result.passed
        assert result.cross_conclusive is True
        assert result.certainty == 1.0

    def test_wrong_value_classified(self):
        tpl = _template("int main(){ return 0; }")
        result = ValidationRunner().run_template(tpl)
        assert not result.passed
        assert result.failure_kind is FailureKind.WRONG_VALUE

    def test_compile_error_classified_and_cross_skipped(self):
        tpl = _template("int main(){ syntax error here }")
        result = ValidationRunner().run_template(tpl)
        assert result.failure_kind is FailureKind.COMPILE_ERROR
        assert result.cross is None

    def test_runtime_crash_classified(self):
        tpl = _template("int main(){ int z = 0; return 1 / z; }")
        result = ValidationRunner().run_template(tpl)
        assert result.failure_kind is FailureKind.RUNTIME_CRASH

    def test_timeout_classified(self):
        tpl = _template("int main(){ int x = 1; while (x) x = 1; return 0; }")
        runner = ValidationRunner(config=HarnessConfig(iterations=1, max_steps=2000))
        result = runner.run_template(tpl)
        assert result.failure_kind is FailureKind.TIMEOUT

    def test_unexpected_inconclusive_cross_flagged(self):
        # removing this "directive" changes nothing -> inconclusive
        tpl = _template(
            "int main(){ int x = 1; " + check("x = 1;") + " return x; }"
        )
        result = ValidationRunner().run_template(tpl)
        assert result.passed
        assert result.cross_inconclusive_unexpectedly

    def test_expected_same_cross_not_flagged(self):
        tpl = _template(
            "int main(){ int x = 1; " + check("x = 1;") + " return x; }",
            crossexpect="same",
        )
        result = ValidationRunner().run_template(tpl)
        assert result.passed
        assert not result.cross_inconclusive_unexpectedly

    def test_cross_disabled_by_config(self):
        tpl = _template(
            "int main(){ int x = 0; " + check("x = 1;") + " return x; }"
        )
        runner = ValidationRunner(config=HarnessConfig(run_cross=False))
        result = runner.run_template(tpl)
        assert result.cross is None and result.certainty == 0.0

    def test_environment_passed_to_runs(self):
        tpl = _template(
            "int main(){ return acc_get_device_type() == acc_device_host; }",
            environment={"ACC_DEVICE_TYPE": "HOST"},
        )
        result = ValidationRunner().run_template(tpl)
        assert result.passed

    def test_suite_selection_by_prefix(self):
        suite = openacc10_suite()
        config = HarnessConfig(iterations=1, run_cross=False,
                               feature_prefixes=["update"], languages=("c",))
        report = ValidationRunner(config=config).run_suite(suite)
        assert report.results
        assert all(r.feature.startswith("update") for r in report.results)

    def test_suite_selection_by_language(self):
        suite = openacc10_suite()
        config = HarnessConfig(iterations=1, run_cross=False,
                               languages=("fortran",),
                               feature_prefixes=["wait"])
        report = ValidationRunner(config=config).run_suite(suite)
        assert report.results
        assert all(r.language == "fortran" for r in report.results)

    def test_report_aggregations(self):
        suite = openacc10_suite()
        config = HarnessConfig(iterations=1, run_cross=False,
                               feature_prefixes=["host_data"])
        buggy = CompilerBehavior(
            name="buggy", version="0",
            unsupported_clauses=frozenset({("host_data", "use_device")}),
        )
        report = ValidationRunner(buggy, config).run_suite(suite)
        assert report.pass_rate() == 0.0
        assert report.failed_features().count("host_data.use_device") == 2
        kinds = report.by_failure_kind()
        assert kinds[FailureKind.COMPILE_ERROR] == 2


    def test_lowering_counts_as_compile_time(self, monkeypatch):
        # the runner lowers each phase's program inside the compile span,
        # so lowering shows up in compile_s (and RunMetrics, the trace)
        import time

        import repro.compiler.pipeline as pipeline

        lower = pipeline.lower_program

        def slow_lower(program):
            time.sleep(0.05)
            return lower(program)

        monkeypatch.setattr(pipeline, "lower_program", slow_lower)
        tpl = _template("int main(){ return 1; }")
        config = HarnessConfig(iterations=2, run_cross=False)
        result = ValidationRunner(config=config).run_template(tpl)
        assert result.passed
        assert result.functional.compile_s >= 0.05


class TestReports:
    @pytest.fixture(scope="class")
    def sample_report(self):
        suite = openacc10_suite()
        config = HarnessConfig(iterations=2, feature_prefixes=["loop"],
                               languages=("c",))
        behavior = CompilerBehavior(name="demo", version="1",
                                    broken_reductions=frozenset({"+"}))
        return ValidationRunner(behavior, config).run_suite(suite)

    def test_text_report(self, sample_report):
        text = render_text(sample_report)
        assert "demo 1" in text
        assert "PASS" in text and "FAIL" in text
        assert "%" in text

    def test_csv_report(self, sample_report):
        csv = render_csv(sample_report)
        lines = csv.strip().split("\n")
        assert lines[0].startswith("feature,language,result")
        assert len(lines) == len(sample_report.results) + 1

    def test_html_report(self, sample_report):
        html = render_html(sample_report)
        assert html.startswith("<!DOCTYPE html>")
        assert "demo 1" in html
        assert "<table>" in html

    def test_bug_report_snippets(self, sample_report):
        bug_report = render_bug_report(sample_report)
        assert "Bug report" in bug_report
        # failing reduction tests should include generated code snippets
        assert "reduction" in bug_report
        assert "#pragma acc" in bug_report

    def test_csv_survives_commas_and_quotes_in_fields(self):
        """Regression: string-interpolated CSV silently corrupted the table
        when a feature name or failure detail contained a comma or quote —
        the stdlib writer must quote such fields per RFC 4180."""
        import csv as csv_mod
        import io
        from repro.harness.runner import (
            IterationOutcome, PhaseResult, SuiteRunReport,
            TestResult as _TestResult,
        )
        from repro.templates import TestTemplate as _TestTemplate

        feature = 'data.copy,"tricky", rest'
        detail = 'expected 1, got "0"\nsecond line'
        template = _TestTemplate(name="t", feature=feature, language="c",
                                 code="")
        functional = PhaseResult(
            mode="functional", source="int main(){}",
            iterations=[IterationOutcome(ok=False, error=detail,
                                         kind=FailureKind.WRONG_VALUE)],
        )
        report = SuiteRunReport(
            compiler_label="demo", config=HarnessConfig(iterations=1),
            results=[_TestResult(template=template, functional=functional)],
        )
        text = render_csv(report)
        rows = list(csv_mod.reader(io.StringIO(text)))
        header, row = rows[0], rows[1]
        assert len(rows) == 2
        # every row parses back to exactly the header's column count...
        assert len(row) == len(header)
        # ...and the poisoned fields round-trip verbatim
        assert row[header.index("feature")] == feature
        assert detail.split("\n")[0] in row[header.index("detail")]

    def test_metrics_csv_two_columns_always(self, sample_report):
        import csv as csv_mod
        import io
        from repro.harness import render_metrics_csv

        text = render_metrics_csv(sample_report)
        rows = list(csv_mod.reader(io.StringIO(text)))
        assert rows[0] == ["metric", "value"]
        assert all(len(row) == 2 for row in rows)
