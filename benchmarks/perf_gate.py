"""Gate a change on the repository benchmark: parent vs change, same box.

Run from the change's checkout, with a second checkout of the parent
commit beside it::

    python3 benchmarks/perf_gate.py PARENT_ROOT CHANGE_ROOT

For every workload in the parent's ``BENCHMARK.json`` it runs each root's
own ``perfbench/run.py --seed 1 --seconds RUN_SECONDS --trace 0`` in
:data:`PAIRS` pairs, flipping which side goes first from pair to pair so a
linear drift of machine speed falls on both sides alike.  ``RUN_SECONDS``
is the file's ``run_seconds``; the bounds come from the parent's file too,
so a change cannot loosen its own gate.  Each run also appends its result
line, with provenance, to its root's ``.perfbench/results.jsonl``.

The gate fails (exit 1) when:

* a run is not ``correct``;
* the change's failed/attempted share exceeds the parent's;
* on some workload, an end-to-end metric's change median is worse than
  the parent median by more than that metric's bound, in the metric's
  ``better`` direction.

When the parent's own spread on a metric, (max - min) / median over its
runs, exceeds the bound, the metric is printed ``unresolved``; it then
fails only if, in addition, every change run is worse than every parent
run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, NamedTuple

#: parent/change pairs per workload
PAIRS = 3
SEED = 1


class Verdict(NamedTuple):
    """One workload's outcome: printable table rows and the failures."""

    lines: List[str]
    failures: List[str]


def _values(runs: List[dict], name: str) -> List[float]:
    return [run["metrics"][name]["value"] for run in runs
            if name in run["metrics"]]


def _worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, relative to the
    parent; negative when it is better."""
    delta = change - parent if better == "lower" else parent - change
    return delta / parent


def judge(parent: List[dict], change: List[dict], spec: dict) -> Verdict:
    """Apply the gate to one workload's perfbench results.

    ``parent`` and ``change`` are lists of perfbench result dicts (the
    JSON last line of ``perfbench/run.py``); ``spec`` is the parsed
    ``BENCHMARK.json``.
    """
    failures: List[str] = []
    for side, runs in (("parent", parent), ("change", change)):
        for index, run in enumerate(runs):
            if not run["correct"]:
                failures.append(f"{side} run {index + 1} is not correct "
                                f"({run['failed']}/{run['attempted']} failed)")
    shares = {side: sum(r["failed"] for r in runs)
              / sum(r["attempted"] for r in runs)
              for side, runs in (("parent", parent), ("change", change))}
    if shares["change"] > shares["parent"]:
        failures.append(f"failed share {shares['change']:.4f} exceeds the "
                        f"parent's {shares['parent']:.4f}")

    lines = [f"{'metric':<22}{'parent':>12}{'change':>12}{'worse':>9}"
             f"{'bound':>7}{'spread':>8}  status"]
    for metric in spec["end_to_end"]:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        base, new = _values(parent, name), _values(change, name)
        if not base or not new:
            failures.append(f"{name}: no samples")
            continue
        base_median, new_median = statistics.median(base), statistics.median(new)
        worse = _worse_by(base_median, new_median, better)
        spread = (max(base) - min(base)) / base_median
        failed = worse > bound
        status = "ok"
        if spread > bound:
            status = "unresolved"
            failed = failed and all(_worse_by(b, c, better) > 0
                                    for b in base for c in new)
        if failed:
            status = "FAIL" if status == "ok" else "unresolved FAIL"
            failures.append(f"{name}: change median {new_median:.4g} is "
                            f"{worse:+.1%} worse than the parent's "
                            f"{base_median:.4g} (bound {bound:.0%})")
        lines.append(f"{name:<22}{base_median:>12.4g}{new_median:>12.4g}"
                     f"{worse:>+9.1%}{bound:>7.0%}{spread:>8.1%}  {status}")
    return Verdict(lines, failures)


def run_perfbench(root: str, spec: dict, workload: str) -> dict:
    """One perfbench run in ``root``; a run that crashes counts as not
    correct."""
    command = spec["command"] + [
        "--workload", workload, "--seed", str(SEED),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # each root imports its own src/
    proc = subprocess.run(command, cwd=root, env=env, capture_output=True,
                          text=True, timeout=20 * spec["run_seconds"])
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    args = parser.parse_args(argv)
    with open(os.path.join(args.parent, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    roots = {"parent": args.parent, "change": args.change}
    failures: List[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs: Dict[str, List[dict]] = {"parent": [], "change": []}
        for pair in range(PAIRS):
            sides = ("parent", "change")
            for side in sides if pair % 2 == 0 else reversed(sides):
                result = run_perfbench(roots[side], spec, workload)
                runs[side].append(result)
                print(f"{workload} pair {pair + 1} {side}: "
                      f"{json.dumps(result, sort_keys=True)}", flush=True)
        verdict = judge(runs["parent"], runs["change"], spec)
        print(f"\n{workload} (medians of {PAIRS} runs a side)")
        print("\n".join(verdict.lines) + "\n", flush=True)
        failures.extend(f"{workload}: {failure}"
                        for failure in verdict.failures)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print("perf gate: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
