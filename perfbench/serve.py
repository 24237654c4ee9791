"""The ``serve-small`` workload: a campaign server under a closed loop.

Two client threads in this process each submit a small campaign — a
seeded draw of four features, both languages, the reference compiler,
M=3, submitted with ``repro submit``'s defaults — tail it to its end
line, and submit the next.  The server is ``repro serve`` with its
defaults in its own process (``--port 0`` so runs never collide on the
default port).  The traced run hosts the server in this process with
``serve_in_thread`` instead, so the layer wrappers see its engine,
journal and report calls.
"""

from __future__ import annotations

import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

#: features drawn per campaign (each in both languages)
FEATURES_PER_CAMPAIGN = 4
#: server starts timed for setup_s (the last one serves the load)
SERVER_STARTS = 5
#: report files compared byte for byte against an in-process run
SAMPLED_REPORTS = 3
#: campaigns per client in the traced run (fixed, so counts repeat)
TRACED_CAMPAIGNS_PER_CLIENT = 10
CLIENTS = 2


#: left out of the draw: these two features take ~45% of validate-ref's
#: wall at the commit that added this benchmark, so one of them makes a
#: campaign 5-7x longer and the p90 would sit on the edge between two
#: modes.  validate-ref measures them.
HEAVY_FEATURES = ("kernels.if", "parallel.if")


def selectable_features(suite) -> List[str]:
    """Features that ``--features`` selects alone — no other feature id
    extends them, so a prefix picks exactly one template per language —
    less :data:`HEAVY_FEATURES`."""
    features = sorted({t.feature for t in suite.select()})
    return [f for f in features
            if f not in HEAVY_FEATURES
            and not any(g != f and (g.startswith(f + ".")
                                    or g.startswith(f + " "))
                        for g in features)]


def submit_spec(features: List[str]) -> dict:
    """The spec ``repro submit --features F...`` sends, with every other
    flag at its CLI default."""
    from repro import cli

    args = cli.build_parser().parse_args(["submit", "--features", *features])
    config: dict = {"iterations": args.iterations,
                    "run_cross": not args.no_cross}
    if args.language:
        config["languages"] = [args.language]
    if args.features:
        config["feature_prefixes"] = args.features
    return {
        "suite": args.suite,
        "vendor": args.vendor,
        "version": args.version,
        "scheduler": args.scheduler,
        "workers": args.workers,
        "format": args.format,
        "config": config,
    }


class CampaignStream:
    """One client's seeded sequence of campaign specs.

    Features are dealt from successive seeded shuffles of the whole
    feature list, so every run covers the features evenly and the mix
    of cheap and expensive campaigns varies little between seeds.
    """

    def __init__(self, seed: int, client: int, features: List[str]):
        self._rng = random.Random(f"serve-small:{seed}:{client}")
        self._features = features
        self._deck: List[str] = []

    def _deal(self) -> str:
        if not self._deck:
            self._deck = list(self._features)
            self._rng.shuffle(self._deck)
        return self._deck.pop()

    def next_spec(self) -> dict:
        picked: List[str] = []
        while len(picked) < FEATURES_PER_CAMPAIGN:
            feature = self._deal()
            if feature not in picked:  # a reshuffle can repeat one
                picked.append(feature)
        return submit_spec(sorted(picked))


def unit_problem(fields: dict, crossexpect: Dict[str, tuple]):
    """The ``unit.finished`` counterpart of ``worker.unit_problem``."""
    if not fields.get("passed"):
        return f"failed ({fields.get('failure_kind')})"
    expect = crossexpect.get(fields.get("unit"))
    if expect is None:
        return "unknown unit"
    has_cross, declared = expect
    cross = (fields.get("phases") or {}).get("cross")
    if has_cross and cross is None:
        return "cross phase did not run"
    if cross is not None:
        if declared == "different" and cross.get("ok"):
            return "cross inconclusive"
        if declared == "same" and not cross.get("ok"):
            return "cross diverged where 'same' was declared"
    return None


def run_campaign(client, spec: dict, crossexpect, tracer=None) -> dict:
    """Submit one campaign and tail it to its end line."""
    row = {"ok": False, "units": 0, "failed_units": 0, "iterations": 0,
           "problems": []}
    m = spec["config"]["iterations"]
    start = time.perf_counter()
    try:
        cid = client.submit(spec)["id"]
        submitted = time.perf_counter()
        row["id"] = cid
        first = None
        for payload in client.tail(cid):
            now = time.perf_counter()
            if payload.get("end"):
                row["wall_s"] = now - start
                row["state"] = payload.get("state")
                if payload.get("state") != "done" or payload.get("exit") != 0:
                    row["problems"].append(
                        f"ended {payload.get('state')} "
                        f"(exit {payload.get('exit')})")
                break
            record = payload.get("record") or {}
            kind = record.get("kind")
            if kind == "campaign.start" and tracer is not None:
                tracer.sample("server.queue_wait", now - start)
            elif kind == "unit.finished":
                fields = record.get("fields") or {}
                if first is None:
                    first = now
                row["units"] += 1
                row["iterations"] += m * len(fields.get("phases") or {})
                why = unit_problem(fields, crossexpect)
                if why is not None:
                    row["failed_units"] += 1
                    row["problems"].append(f"{fields.get('unit')}: {why}")
    except Exception as err:  # a client call that raised fails the campaign
        row["problems"].append(f"client error: {err!r}")
        return row
    if tracer is not None:
        tracer.sample("server.submit", submitted - start)
    expected_units = 2 * FEATURES_PER_CAMPAIGN
    if row["units"] != expected_units:
        row["problems"].append(
            f"{row['units']} unit(s) finished, expected {expected_units}")
    if first is None or "wall_s" not in row:
        row["problems"].append("no result before the end line")
        return row
    row["first_s"] = first - start
    row["ok"] = not row["problems"]
    return row


def drive(address: str, seed: int, crossexpect, features,
          deadline: Optional[float] = None,
          per_client: Optional[int] = None, tracer=None):
    """Run the two-client closed loop; returns (campaign rows, wall).

    Each client stops submitting at ``deadline`` (a ``perf_counter``
    reading) or after ``per_client`` campaigns.
    """
    from repro.server import CampaignClient

    rows: List[List[dict]] = [[] for _ in range(CLIENTS)]

    def loop(index: int) -> None:
        client = CampaignClient.at(address)
        stream = CampaignStream(seed, index, features)
        while True:
            if deadline is not None and time.perf_counter() >= deadline:
                return
            if per_client is not None and len(rows[index]) >= per_client:
                return
            spec = stream.next_spec()
            row = run_campaign(client, spec, crossexpect, tracer)
            row["spec"] = spec
            rows[index].append(row)

    start = time.perf_counter()
    threads = [threading.Thread(target=loop, args=(i,), name=f"client{i}")
               for i in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    return [row for client_rows in rows for row in client_rows], wall


def suite_facts():
    from repro.suite import openacc10_suite

    suite = openacc10_suite()
    crossexpect = {f"{t.feature}:{t.language}": (t.has_cross, t.crossexpect)
                   for t in suite.select()}
    return crossexpect, selectable_features(suite)


# ---------------------------------------------------------------------------
# the server subprocess
# ---------------------------------------------------------------------------


class ServerProcess:
    """``repro serve ROOT --port 0`` in its own process."""

    def __init__(self, root: str, env: dict):
        os.makedirs(root, exist_ok=True)
        self._log = open(os.path.join(root, "server.log"), "wb")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", root, "--port", "0"],
            stdout=subprocess.PIPE, stderr=self._log, env=env,
        )
        try:
            self.address = self._read_address(timeout_s=60.0)
        except BaseException:
            self.stop()
            raise

    def _read_address(self, timeout_s: float) -> str:
        line = b""
        deadline = time.monotonic() + timeout_s
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                raise RuntimeError("repro serve did not report its address")
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError("repro serve exited before listening")
                line += chunk
        # "repro server listening on HOST:PORT (root ...)"
        return line.decode().split(" listening on ", 1)[1].split()[0]

    def ping_ready(self) -> float:
        """Seconds from spawn until the server answers ``ping``."""
        from repro.server import CampaignClient

        CampaignClient.at(self.address).ping()
        return time.monotonic() - self.spawned

    def peak_rss_mb(self) -> float:
        """The server's own high-water RSS (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            self.proc.stdout.close()
            self._log.close()


def check_reports(rows: List[dict], seed: int) -> List[str]:
    """Compare a seeded sample of server report files byte for byte
    with the same spec run in-process, as ``repro validate`` runs and
    renders it (none of the server's own code on this side)."""
    from repro import cli
    from repro.harness import HarnessConfig, ValidationRunner
    from repro.suite import openacc10_suite

    renderers = {"text": cli.render_text, "html": cli.render_html,
                 "csv": cli.render_csv, "bugs": cli.render_bug_report}
    done = [row for row in rows if row.get("ok")]
    picked = random.Random(f"serve-small-reports:{seed}").sample(
        done, min(SAMPLED_REPORTS, len(done)))
    problems = []
    for row in picked:
        spec = row["spec"]
        path = row.get("report_path")
        if not path or not os.path.exists(path):
            problems.append(f"{row['id']}: no report file")
            continue
        with open(path, "rb") as fh:
            served = fh.read()
        config = HarnessConfig.from_dict(spec["config"])
        report = ValidationRunner(None, config).run_suite(openacc10_suite())
        local = renderers[spec["format"]](report).encode("utf-8")
        if served != local:
            problems.append(f"{row['id']}: report differs from an "
                            "in-process run of the same spec")
    return problems


def attach_report_paths(address: str, rows: List[dict]) -> None:
    from repro.server import CampaignClient

    client = CampaignClient.at(address)
    for campaign in client.status()["campaigns"]:
        for row in rows:
            if row.get("id") == campaign["id"]:
                row["report_path"] = campaign.get("report_path")


def run_untraced(root: str, env: dict, seed: int, seconds: float) -> dict:
    """Setup probes, then the timed closed loop against the subprocess."""
    crossexpect, features = suite_facts()
    setups = []
    server = None
    try:
        for i in range(SERVER_STARTS):
            server = ServerProcess(os.path.join(root, f"server{i}"), env)
            setups.append(server.ping_ready())
            if i < SERVER_STARTS - 1:
                server.stop()
                server = None
        rows, wall = drive(server.address, seed, crossexpect, features,
                           deadline=time.perf_counter() + seconds)
        peak = server.peak_rss_mb()
        attach_report_paths(server.address, rows)
    finally:
        if server is not None:
            server.stop()
    problems = check_reports(rows, seed)
    return {"setups": setups, "rows": rows, "wall_s": wall,
            "peak_rss_mb": peak, "report_problems": problems}


def run_traced(root: str, seed: int, layers_module) -> dict:
    """A fixed set of campaigns against an in-process server, four times:
    plain, traced, traced, plain — the order cancels a linear drift of
    machine speed out of the overhead ratio."""
    from repro.server import serve_in_thread

    crossexpect, features = suite_facts()
    walls = {False: 0.0, True: 0.0}
    rows: List[dict] = []
    tracer = None
    for i, traced in enumerate((False, True, True, False)):
        uninstall = None
        if traced:
            tracer = layers_module.LayerTracer()
            uninstall = layers_module.install(tracer)
        handle = serve_in_thread(os.path.join(root, f"pass{i}"))
        try:
            pass_rows, wall = drive(handle.address, seed, crossexpect,
                                    features,
                                    per_client=TRACED_CAMPAIGNS_PER_CLIENT,
                                    tracer=tracer if traced else None)
        finally:
            handle.stop()
            if uninstall is not None:
                uninstall()
        walls[traced] += wall
        rows.extend(pass_rows)
    # the per-layer numbers are the last traced pass's
    return {"rows": rows, "untraced_wall_s": walls[False],
            "traced_wall_s": walls[True], "tracer": tracer}
