"""One CLI-equivalent invocation of a batch workload, in its own process.

``run.py`` starts this script once per ``repro validate`` campaign or
``repro sweep caps`` sweep, the way a user starts the CLI, so each
process pays its own imports and suite build and no in-process cache
outlives one invocation.  The configuration comes from the CLI's own
parser and helpers, so a change of a CLI default changes what is
measured.  Only the workload seed is set here (``rng_seed``).

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py validate-ref --seed 1 [--probe] [--trace FILE]
    python3 perfbench/worker.py sweep-caps --seed 1 [--probe] [--trace FILE]

The last line of stdout is one JSON object: ``ready`` (the
``time.monotonic()`` reading when the first unit is ready to run — the
clock is system-wide, so the parent subtracts its spawn time), the
per-campaign timings and checks, and the process's peak RSS.  A
``--probe`` start stops its campaign once the first unit has finished:
it samples set-up and first-result time without running the campaign.  With
``--trace FILE`` the layer wrappers of :mod:`layers` are installed
before the run, the spans are written to FILE, and ``layers`` holds the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import replace

#: Fig. 8(a) at the commit that defined this benchmark: templates passed
#: out of 100 per (CAPS version, language).  3.3.4 passes everything in
#: both languages; 3.0.8 Fortran regresses against 3.0.7.
FIG8A_CAPS_PASSED = {
    ("3.0.7", "c"): 53, ("3.0.7", "fortran"): 56,
    ("3.0.8", "c"): 76, ("3.0.8", "fortran"): 29,
    ("3.1.0", "c"): 79, ("3.1.0", "fortran"): 85,
    ("3.2.3", "c"): 99, ("3.2.3", "fortran"): 99,
    ("3.2.4", "c"): 99, ("3.2.4", "fortran"): 99,
    ("3.3.0", "c"): 99, ("3.3.0", "fortran"): 100,
    ("3.3.3", "c"): 100, ("3.3.3", "fortran"): 100,
    ("3.3.4", "c"): 100, ("3.3.4", "fortran"): 100,
}
TEMPLATES_PER_LANGUAGE = 100


class FirstResultEngine:
    """The engine the config selects, noting when the first unit ends.

    ``run_suite`` builds exactly this engine when given none; wrapping it
    adds one clock read per finished unit.
    """

    def __init__(self, engine, stop_after_first: bool = False):
        self.engine = engine
        self.policy = engine.policy
        self.workers = engine.workers
        self.stop_after_first = stop_after_first
        self.first = None

    def run(self, templates, runner, on_complete=None, cancel=None):
        def complete(index, template, result):
            if self.first is None:
                self.first = time.perf_counter()
                if self.stop_after_first:
                    cancel.cancel("probe: first unit finished")
            if on_complete is not None:
                on_complete(index, template, result)

        return self.engine.run(templates, runner, on_complete=complete,
                               cancel=cancel)


def phase_iterations(report) -> int:
    """Harness iterations of a campaign: phases run x M."""
    m = report.config.iterations
    return sum(m * (1 + (r.cross is not None)) for r in report.results)


def unit_problem(result):
    """Why a reference-compiler unit fails the output check, or None.

    Every template must pass, and every cross that ran must come out the
    way the template declares: divergent (conclusive) for ``different``,
    all-correct for ``same``.
    """
    if not result.passed:
        kind = result.failure_kind
        return f"failed ({kind.value if kind else '?'})"
    if result.template.has_cross and result.cross is None:
        return "cross phase did not run"
    if result.cross is not None:
        divergent = result.cross.incorrect_runs > 0
        if result.template.crossexpect == "different" and not divergent:
            return "cross inconclusive"
        if result.template.crossexpect == "same" and divergent:
            return "cross diverged where 'same' was declared"
    return None


def _run(runner, suite, probe: bool = False):
    """Run one campaign the way ``run_suite`` does for the CLI; returns
    the report and when its first unit finished.  A probe cancels the
    campaign once that unit has finished and returns no report."""
    from repro.harness import CampaignInterrupted
    from repro.harness.engine import create_engine

    config = runner.config
    engine = FirstResultEngine(create_engine(config.policy, config.workers),
                               stop_after_first=probe)
    try:
        report = runner.run_suite(suite, engine=engine)
    except CampaignInterrupted:
        if not probe:
            raise
        report = None
    return report, engine.first


def _probe(runner, suite):
    start = time.perf_counter()
    _, first = _run(runner, suite, probe=True)
    return [{"key": "probe", "first_s": first - start}]


def validate_ref(seed: int, probe: bool):
    """``repro validate`` with every default: reference compiler, full
    suite, both languages, M=3, functional + cross, text report."""
    from repro import cli
    from repro.harness import ValidationRunner
    from repro.suite import openacc10_suite

    args = cli.build_parser().parse_args(["validate"])
    config = replace(cli._config(args), rng_seed=seed)
    runner = ValidationRunner(cli._behavior(args), config)
    suite = openacc10_suite()
    render = {
        "text": cli.render_text,
        "html": cli.render_html,
        "csv": cli.render_csv,
        "bugs": cli.render_bug_report,
    }[args.format]
    ready = time.monotonic()
    if probe:
        return ready, _probe(runner, suite)
    start = time.perf_counter()
    report, first = _run(runner, suite)
    render(report)
    end = time.perf_counter()
    problems = [f"{r.feature}:{r.language}: {why}" for r in report.results
                if (why := unit_problem(r)) is not None]
    failed = len(problems)
    if len(report.results) != 2 * TEMPLATES_PER_LANGUAGE:
        problems.append(f"ran {len(report.results)} templates, expected "
                        f"{2 * TEMPLATES_PER_LANGUAGE}")
    return ready, [{
        "key": "validate",
        "wall_s": end - start,
        "first_s": (first or end) - start,
        "iterations": phase_iterations(report),
        "units": len(report.results),
        "failed_units": failed,
        "ok": not problems,
        "problems": problems[:10],
    }]


def sweep_caps(seed: int, probe: bool):
    """``repro sweep caps``: every CAPS version x language cell of
    Fig. 8(a), M=1, no cross phase, each cell on a fresh runner.  The
    whole sweep is one campaign, as a user waits for it."""
    from repro import cli
    from repro.compiler.vendors import vendor_versions
    from repro.harness import HarnessConfig, ValidationRunner
    from repro.suite import openacc10_suite

    args = cli.build_parser().parse_args(["sweep", "caps"])
    # cmd_sweep's config, with the workload seed
    config = HarnessConfig(iterations=1, run_cross=False, rng_seed=seed)
    suite = openacc10_suite()
    versions = vendor_versions(args.vendor)

    def cell_runner(vv, language):
        # what analysis.run_vendor_version does for one cell
        cell_config = replace(config, languages=(language,))
        return ValidationRunner(vv.behavior(language), cell_config)

    ready = time.monotonic()
    if probe:
        return ready, _probe(cell_runner(versions[0], "c"), suite)
    row = {"key": "sweep caps", "iterations": 0, "units": 0,
           "failed_units": 0, "problems": []}
    first = None
    start = time.perf_counter()
    for vv in versions:
        for language in ("c", "fortran"):
            report, cell_first = _run(cell_runner(vv, language), suite)
            first = first or cell_first
            pool = report.for_language(language)
            passed = len(pool) - len(report.failures(language))
            expected = FIG8A_CAPS_PASSED.get((vv.version, language))
            row["iterations"] += phase_iterations(report)
            row["units"] += len(pool)
            row["failed_units"] += sum(
                1 for r in pool
                if r.failure_kind is not None
                and r.failure_kind.value == "harness_error")
            cell = f"{vv.version}/{language}"
            if len(pool) != TEMPLATES_PER_LANGUAGE:
                row["problems"].append(f"{cell}: {len(pool)} templates, "
                                       f"expected {TEMPLATES_PER_LANGUAGE}")
            if passed != expected:
                row["problems"].append(f"{cell}: {passed} passed, "
                                       f"expected {expected}")
    end = time.perf_counter()
    row["wall_s"] = end - start
    row["first_s"] = (first or end) - start
    # a cell off the Fig. 8(a) table counts as one failed check
    row["failed_units"] += len(row["problems"])
    row["ok"] = not row["problems"] and not row["failed_units"]
    return ready, [row]


WORKLOADS = {"validate-ref": validate_ref, "sweep-caps": sweep_caps}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", metavar="FILE")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        import layers  # perfbench/, this script's directory

        tracer = layers.LayerTracer()
        layers.install(tracer)
    ready, rows = WORKLOADS[args.workload](args.seed, args.probe)
    out = {
        "ready": ready,
        "campaigns": rows,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["spans"] = tracer.span_count()
        tracer.write(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
