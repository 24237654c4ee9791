"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload validate-ref --seed 1 --seconds 35 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/METRICS.md``):

* ``validate-ref`` — ``repro validate`` with its defaults: the full
  OpenACC 1.0 suite against the reference compiler, M=3, functional and
  cross phases; one process per campaign, as the CLI runs it;
* ``sweep-caps`` — ``repro sweep caps``: Fig. 8(a), 8 CAPS versions x 2
  languages, M=1, no cross phase; one process per sweep;
* ``serve-small`` — ``repro serve`` with its defaults in its own
  process, two client threads each running a closed loop of small
  campaigns (4 seeded features x 2 languages, M=3).

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds
(whole campaigns or sweeps; the last one may end after the deadline).
``--trace 1`` runs a fixed amount of work four times — plain, traced,
traced, plain, traced meaning with the layer wrappers of
``perfbench/layers.py`` installed — and reports the per-layer metrics
and the tracing overhead.  Either way every output is checked,
provenance is printed, and the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

BENCHMARK_VERSION = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch space inside the checkout: server roots and span dumps
WORK = os.path.join(ROOT, ".perfbench")

#: probe starts per batch run (set-up and first result, no campaign), on
#: top of the campaign processes
SETUP_PROBES = 4

END_TO_END_UNITS = {
    "setup_s": "s",
    "iterations_per_s": "1/s",
    "first_result_p50_ms": "ms",
    "first_result_p90_ms": "ms",
    "campaign_p50_ms": "ms",
    "campaign_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (``statistics.quantiles``, inclusive); one
    sample is its own percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def provenance(workload: str, seed: int) -> dict:
    try:
        # the ceiling keeps git from reporting an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "benchmark_version": BENCHMARK_VERSION,
        "git_commit": commit or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# batch workloads: one worker process per CLI invocation
# ---------------------------------------------------------------------------


def spawn_worker(workload: str, seed: int, *extra: str) -> dict:
    """Run ``worker.py`` to completion; returns its JSON plus ``setup_s``
    (spawn to first-unit-ready, on the system-wide monotonic clock)."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), workload,
         "--seed", str(seed), *extra],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=170,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"worker {workload} exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - spawned
    return out


def batch_untraced(workload: str, seed: int, seconds: float):
    # the first start writes bytecode caches: not timed
    spawn_worker(workload, seed, "--probe")
    probes = [spawn_worker(workload, seed, "--probe")
              for _ in range(SETUP_PROBES)]
    setups = [out["setup_s"] for out in probes]
    firsts = [out["campaigns"][0]["first_s"] for out in probes]
    rows: List[dict] = []
    peaks: List[float] = []
    durations: List[float] = []
    start = time.monotonic()
    # whole invocations only: stop once the next one would end more than
    # half an invocation past the deadline, so a run measures close to
    # ``seconds`` and always the same number of invocations
    while not durations or (time.monotonic() - start
                            + statistics.median(durations) / 2 < seconds):
        began = time.monotonic()
        out = spawn_worker(workload, seed)
        durations.append(time.monotonic() - began)
        setups.append(out["setup_s"])
        peaks.append(out["maxrss_kb"] / 1024.0)
        rows.extend(out["campaigns"])
    firsts.extend(r["first_s"] for r in rows)
    return setups, firsts, rows, statistics.median(peaks)


def batch_traced(workload: str, seed: int):
    """Plain, traced, traced, plain: the order cancels a linear drift of
    machine speed out of the overhead ratio.  The per-layer numbers are
    the last traced run's."""
    os.makedirs(WORK, exist_ok=True)
    spans = os.path.join(WORK, f"spans-{workload}.tsv")
    rows: List[dict] = []
    walls = {False: 0.0, True: 0.0}
    for traced in (False, True, True, False):
        out = spawn_worker(workload, seed,
                           *(("--trace", spans) if traced else ()))
        walls[traced] += sum(r["wall_s"] for r in out["campaigns"])
        rows.extend(out["campaigns"])
        if traced:
            layers, span_count = out["layers"], out["spans"]
    print(f"spans: {span_count} written to {os.path.relpath(spans, ROOT)}")
    return rows, layers, walls[True] / walls[False]


# ---------------------------------------------------------------------------
# result assembly
# ---------------------------------------------------------------------------


def tally(rows: List[dict], extra_problems: List[str] = ()) -> dict:
    """attempted/failed over campaigns and their units; prints problems."""
    attempted = len(rows) + sum(r.get("units", 0) for r in rows)
    failed = (sum(1 for r in rows if not r.get("ok"))
              + sum(r.get("failed_units", 0) for r in rows)
              + len(extra_problems))
    attempted += len(extra_problems)
    for row in rows:
        for problem in row.get("problems", []):
            print(f"check failed: {row.get('key', row.get('id'))}: "
                  f"{problem}")
    for problem in extra_problems:
        print(f"check failed: {problem}")
    return {"attempted": max(attempted, 1), "failed": failed}


def end_to_end(setups, firsts, rows, wall_s,
               peak_rss_mb) -> Dict[str, float]:
    timed = [r for r in rows if "first_s" in r and "wall_s" in r]
    if not timed:
        fail("no campaign completed")
    first = [s * 1e3 for s in firsts]
    whole = [r["wall_s"] * 1e3 for r in timed]
    print(f"samples: setup={len(setups)} first_result={len(first)} "
          f"campaigns={len(timed)}")
    return {
        "setup_s": statistics.median(setups),
        "iterations_per_s": sum(r["iterations"] for r in timed) / wall_s,
        "first_result_p50_ms": statistics.median(first),
        "first_result_p90_ms": percentile(first, 90),
        "campaign_p50_ms": statistics.median(whole),
        "campaign_p90_ms": percentile(whole, 90),
        "peak_rss_mb": peak_rss_mb,
    }


def run(workload: str, seed: int, seconds: float, trace: bool):
    if workload == "serve-small":
        sys.path.insert(0, SRC)
        import serve

        os.makedirs(WORK, exist_ok=True)
        root = os.path.join(WORK, f"serve-{os.getpid()}")
        try:
            if trace:
                import layers

                out = serve.run_traced(root, seed, layers)
                tracer = out["tracer"]
                spans = os.path.join(WORK, f"spans-{workload}.tsv")
                tracer.write(spans)
                print(f"spans: {tracer.span_count()} written to "
                      f"{os.path.relpath(spans, ROOT)}")
                metrics = tracer.summary()
                metrics["tracing_overhead"] = (out["traced_wall_s"]
                                               / out["untraced_wall_s"])
                return tally(out["rows"]), metrics
            out = serve.run_untraced(root, child_env(), seed, seconds)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        counts = tally(out["rows"], out["report_problems"])
        firsts = [r["first_s"] for r in out["rows"] if "first_s" in r]
        return counts, end_to_end(out["setups"], firsts, out["rows"],
                                  out["wall_s"], out["peak_rss_mb"])
    if trace:
        rows, metrics, overhead = batch_traced(workload, seed)
        metrics["tracing_overhead"] = overhead
        return tally(rows), metrics
    setups, firsts, rows, peak = batch_untraced(workload, seed, seconds)
    wall = sum(r["wall_s"] for r in rows)
    return tally(rows), end_to_end(setups, firsts, rows, wall, peak)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["validate-ref", "sweep-caps", "serve-small"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        fail(f"no repro package under {SRC}: run from a repository checkout")
    info = provenance(args.workload, args.seed)
    print("provenance: " + json.dumps(info, sort_keys=True))
    start = time.monotonic()
    counts, metrics = run(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    units = END_TO_END_UNITS if not args.trace else None
    print(f"error_ratio: {counts['failed'] / counts['attempted']:.6f} "
          f"({counts['failed']}/{counts['attempted']}); "
          f"run took {time.monotonic() - start:.1f}s")
    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {
            name: {"value": value,
                   "unit": units[name] if units else layer_unit(name)}
            for name, value in metrics.items()
        },
    }
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "results.jsonl"), "a",
              encoding="utf-8") as fh:
        fh.write(json.dumps({"provenance": info, "trace": args.trace,
                             "seconds": args.seconds, "result": result},
                            sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_ratio", "per_source", "overhead")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
