"""Tests for :mod:`repro.server`: the campaign server, its wire
protocol and the client.

The load-bearing scenarios, mirrored by the CI server-smoke job:
concurrent campaigns render byte-identical to direct ``run_suite``
runs; cancelling one campaign mid-flight leaves its neighbours
untouched (the per-campaign CancelToken bugfix); a killed server
resumes its in-flight campaigns from the server journal.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.harness import HarnessConfig, ValidationRunner, render_csv
from repro.server import (
    CampaignClient,
    ProtocolError,
    ServerError,
    normalize_spec,
    serve_in_thread,
    state_exit_code,
)
from repro.server.protocol import (
    spec_behavior,
    spec_config,
    spec_suite,
)

#: a fast campaign spec (~1s serial) shared across tests
_SMALL = {
    "suite": "1.0",
    "format": "csv",
    "config": {"iterations": 2, "languages": ["c"],
               "feature_prefixes": ["loop", "parallel"]},
}

#: a slow campaign (full suite, both languages) for mid-flight cancels
_BIG = {"suite": "1.0", "format": "csv", "config": {"iterations": 3}}


def _direct_csv(spec: dict) -> str:
    """The reference rendering: a plain serial run_suite of the spec."""
    norm = normalize_spec(spec)
    runner = ValidationRunner(spec_behavior(norm), spec_config(norm))
    return render_csv(runner.run_suite(spec_suite(norm)))


@pytest.fixture
def server(tmp_path):
    handle = serve_in_thread(str(tmp_path / "state"))
    try:
        yield handle
    finally:
        handle.stop()


def _client(handle) -> CampaignClient:
    return CampaignClient.at(handle.address)


# ---------------------------------------------------------------------------
# protocol (no server needed)
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_normalize_defaults(self):
        spec = normalize_spec({})
        assert spec["suite"] == "1.0"
        assert spec["scheduler"] == "local"
        assert spec["format"] == "text"
        assert spec["config"]["iterations"] == 3

    def test_normalized_config_roundtrips(self):
        spec = normalize_spec(_SMALL)
        again = normalize_spec(spec)
        assert again == spec

    @pytest.mark.parametrize("bad,match", [
        ({"suite": "3.0"}, "unknown suite"),
        ({"scheduler": "slurm"}, "unknown scheduler"),
        ({"format": "pdf"}, "unknown format"),
        ({"workers": 0}, "workers"),
        ({"typo": True}, "unknown spec key"),
        ({"vendor": "caps"}, "version"),
        ({"vendor": "caps", "version": "3.0.7"}, "one language"),
        ({"config": {"live_stream": "x.ndjson"}}, "server-managed"),
        ({"config": {"iterationz": 1}}, "bad config"),
    ])
    def test_bad_specs_rejected(self, bad, match):
        with pytest.raises(ProtocolError, match=match):
            normalize_spec(bad)

    @pytest.mark.parametrize("scheduler", ["shards", "simk8s"])
    def test_removed_schedulers_rejected_with_pointer(self, scheduler):
        with pytest.raises(ProtocolError, match="was removed") as err:
            normalize_spec({"scheduler": scheduler, "workers": 2})
        assert 'config.policy = "process"' in str(err.value)

    def test_retired_backend_key_is_dropped(self):
        # specs and configs from clients of earlier versions still carry
        # the interpreter choice; it selects nothing now
        assert HarnessConfig.from_dict({"backend": "closures"}) == \
            HarnessConfig()
        spec = normalize_spec({"config": {"backend": "tree"}})
        assert "backend" not in spec["config"]
        assert spec == normalize_spec({})

    def test_vendor_spec_with_single_language_accepted(self):
        spec = normalize_spec({"vendor": "caps", "version": "3.0.7",
                               "config": {"languages": ["c"]}})
        assert spec_behavior(spec).name == "caps"

    def test_exit_code_mapping(self):
        assert state_exit_code("done", False) == 0
        assert state_exit_code("done", True) == 2
        assert state_exit_code("failed", None) == 1
        assert state_exit_code("cancelled", None) == 3
        assert state_exit_code("running", None) is None


# ---------------------------------------------------------------------------
# submit / status / tail against a live server
# ---------------------------------------------------------------------------


class TestServerRoundTrip:
    def test_submit_renders_byte_identical_to_direct_run(self, server):
        client = _client(server)
        assert client.ping()["format"] == "repro.server/v1"
        cid = client.submit(_SMALL)["id"]
        info = client.wait(cid, timeout_s=120)
        assert info["state"] == "done" and info["exit"] == 0
        with open(info["report_path"], encoding="utf-8") as fh:
            assert fh.read() == _direct_csv(_SMALL)

    def test_tail_replays_and_terminates(self, server):
        client = _client(server)
        cid = client.submit(_SMALL)["id"]
        client.wait(cid, timeout_s=120)
        lines = list(client.tail(cid))
        assert lines[-1]["end"] and lines[-1]["state"] == "done"
        records = [line["record"] for line in lines[:-1]]
        kinds = {r.get("type") for r in records}
        assert "event" in kinds and "snapshot" in kinds
        assert records[-1]["type"] == "snapshot" and records[-1]["final"]
        # live tail (subscribed before completion) sees the same stream
        cid2 = client.submit(_SMALL)["id"]
        live = list(client.tail(cid2, timeout_s=120))
        assert live[-1]["end"] and live[-1]["state"] == "done"

    def test_status_and_errors(self, server):
        client = _client(server)
        assert client.status()["campaigns"] == []
        with pytest.raises(ServerError, match="no such campaign"):
            client.status("c9999")
        with pytest.raises(ServerError, match="no such campaign"):
            client.cancel("c9999")
        with pytest.raises(ServerError, match="unknown spec key"):
            client.submit({"typo": 1})

    def test_failures_map_to_exit_2(self, server):
        client = _client(server)
        spec = {
            "suite": "1.0", "format": "csv",
            "config": {"iterations": 1, "languages": ["c"],
                       "feature_prefixes": ["loop.collapse"],
                       "fault_plan": "iteration=1.0,persistent,seed=3"},
        }
        cid = client.submit(spec)["id"]
        info = client.wait(cid, timeout_s=120)
        assert info["state"] == "done" and info["exit"] == 2


# ---------------------------------------------------------------------------
# concurrency + cancellation (the tentpole scenario)
# ---------------------------------------------------------------------------


class TestConcurrentCancellation:
    def test_cancel_one_of_three_leaves_neighbours_byte_identical(
            self, server):
        client = _client(server)
        doomed = client.submit(_BIG)["id"]
        small_alt = dict(_SMALL, config=dict(_SMALL["config"], iterations=1))
        survivor_a = client.submit(_SMALL)["id"]
        survivor_b = client.submit(small_alt)["id"]
        # let the doomed campaign actually start running before cancelling
        deadline = time.monotonic() + 30
        while client.status(doomed)["campaign"]["state"] == "queued":
            assert time.monotonic() < deadline
            time.sleep(0.02)
        response = client.cancel(doomed)
        assert doomed in response["resume"]

        info = client.wait(doomed, timeout_s=120)
        assert info["state"] == "cancelled" and info["exit"] == 3
        assert doomed in info["resume"]
        for cid, spec in ((survivor_a, _SMALL), (survivor_b, small_alt)):
            done = client.wait(cid, timeout_s=300)
            assert done["state"] == "done", f"{cid} not done: {done}"
            with open(done["report_path"], encoding="utf-8") as fh:
                assert fh.read() == _direct_csv(spec)

    def test_cancelled_campaign_resubmits_to_completion(self, server):
        client = _client(server)
        cid = client.submit(_BIG)["id"]
        deadline = time.monotonic() + 30
        while client.status(cid)["campaign"]["state"] == "queued":
            assert time.monotonic() < deadline
            time.sleep(0.02)
        client.cancel(cid)
        info = client.wait(cid, timeout_s=120)
        assert info["state"] == "cancelled"
        before = len(
            __import__("repro.journal", fromlist=["read_journal"])
            .read_journal(os.path.join(server.server.root,
                                       f"{cid}.journal")).records
        ) if os.path.exists(os.path.join(server.server.root,
                                         f"{cid}.journal")) else 0
        client.resubmit(cid)
        done = client.wait(cid, timeout_s=600)
        assert done["state"] == "done" and done["exit"] == 0
        with open(done["report_path"], encoding="utf-8") as fh:
            assert fh.read() == _direct_csv(_BIG)
        # the resubmission replayed journaled units instead of starting over
        if before:
            final = list(client.tail(cid))
            records = [line["record"] for line in final[:-1]]
            snapshots = [r for r in records if r.get("type") == "snapshot"]
            assert snapshots[-1]["replayed"] >= before

    def test_double_cancel_rejected(self, server):
        client = _client(server)
        cid = client.submit(_SMALL)["id"]
        client.wait(cid, timeout_s=120)
        with pytest.raises(ServerError, match="already done"):
            client.cancel(cid)
        with pytest.raises(ServerError, match="only"):
            # a running/queued campaign cannot be resubmitted; a done one
            # can (it reruns) — exercise the state guard via fresh submit
            fresh = client.submit(_BIG)["id"]
            try:
                client.resubmit(fresh)
            finally:
                client.cancel(fresh)


# ---------------------------------------------------------------------------
# server-kill resume (the journal story)
# ---------------------------------------------------------------------------


class TestServerResume:
    def test_killed_server_resumes_campaigns(self, tmp_path):
        root = str(tmp_path / "state")
        handle = serve_in_thread(root)
        client = _client(handle)
        cid = client.submit(_BIG)["id"]
        deadline = time.monotonic() + 30
        while client.status(cid)["campaign"]["state"] == "queued":
            assert time.monotonic() < deadline
            time.sleep(0.02)
        # graceful drain: the campaign is re-journaled as queued, NOT
        # cancelled, so the next server over this directory picks it up
        handle.stop()

        handle2 = serve_in_thread(root)
        try:
            client2 = _client(handle2)
            info = client2.wait(cid, timeout_s=600)
            assert info["state"] == "done" and info["exit"] == 0
            with open(info["report_path"], encoding="utf-8") as fh:
                assert fh.read() == _direct_csv(_BIG)
        finally:
            handle2.stop()

    def test_server_journal_with_retired_backend_relaunches(self, tmp_path):
        # a server journal written while HarnessConfig had ``backend``:
        # its normalised spec carries the key, and the relaunched server
        # must run the queued campaign to the same report
        import repro
        from repro.journal import JOURNAL_FORMAT, JournalWriter

        root = tmp_path / "state"
        root.mkdir()
        key = {"format": JOURNAL_FORMAT, "command": "serve",
               "code_version": repro.__version__}
        old_spec = normalize_spec(_SMALL)
        old_spec["config"]["backend"] = "tree"
        journal = JournalWriter.create(str(root / "server.journal"), key)
        journal.append("c0001", {"spec": old_spec, "state": "running",
                                 "error": None, "report_path": None,
                                 "failures": None})
        journal.close()

        handle = serve_in_thread(str(root))
        try:
            info = _client(handle).wait("c0001", timeout_s=120)
            assert info["state"] == "done" and info["exit"] == 0
            with open(info["report_path"], encoding="utf-8") as fh:
                assert fh.read() == _direct_csv(_SMALL)
        finally:
            handle.stop()

    def test_replayed_removed_scheduler_fails_not_crashes(self, tmp_path):
        # a server journal written before the shards/simk8s backends were
        # removed: its queued campaign must end failed with the reason,
        # and the server must keep serving new campaigns
        import repro
        from repro.journal import JOURNAL_FORMAT, JournalWriter

        root = tmp_path / "state"
        root.mkdir()
        key = {"format": JOURNAL_FORMAT, "command": "serve",
               "code_version": repro.__version__}
        old_spec = dict(normalize_spec(_SMALL), scheduler="shards",
                        workers=2)
        journal = JournalWriter.create(str(root / "server.journal"), key)
        journal.append("c0001", {"spec": old_spec, "state": "queued",
                                 "error": None, "report_path": None,
                                 "failures": None})
        journal.close()

        handle = serve_in_thread(str(root))
        try:
            client = _client(handle)
            info = client.wait("c0001", timeout_s=60)
            assert info["state"] == "failed" and info["exit"] == 1
            assert "'shards' was removed" in info["error"]
            assert 'config.policy = "process"' in info["error"]
            cid = client.submit(_SMALL)["id"]
            assert client.wait(cid, timeout_s=120)["state"] == "done"
        finally:
            handle.stop()


# ---------------------------------------------------------------------------
# supervision: bounded tail queues + the campaign watchdog
# ---------------------------------------------------------------------------


class TestBoundedTailQueue:
    def test_drop_oldest_eviction_counts_drops(self):
        from repro.server.app import BoundedTailQueue

        queue = BoundedTailQueue(capacity=2)
        for n in range(5):
            queue.put(n)
        assert queue.dropped == 3
        # the two newest survive, in order
        assert queue._queue.get_nowait() == 3
        assert queue._queue.get_nowait() == 4

    def test_capacity_validated(self):
        from repro.server.app import BoundedTailQueue

        with pytest.raises(ValueError, match="capacity"):
            BoundedTailQueue(capacity=0)

    def test_server_knob_validation(self, tmp_path):
        from repro.server.app import CampaignServer

        with pytest.raises(ValueError, match="watchdog_s"):
            CampaignServer(str(tmp_path), watchdog_s=0)
        with pytest.raises(ValueError, match="restart_budget"):
            CampaignServer(str(tmp_path), restart_budget=-1)


#: three single-template prefixes, each unit stalling well past the
#: watchdog on its first attempt (the third unit is what guarantees the
#: budget-exhausted run still has un-started work to abandon)
_STALLED = {
    "suite": "1.0", "format": "csv",
    "config": {"iterations": 1, "languages": ["c"],
               "feature_prefixes": ["loop.collapse", "parallel.num_gangs",
                                    "data.copyin"],
               "fault_plan": "stall=1.0,stall-s=2.0,seed=5"},
}


class TestWatchdog:
    def test_watchdog_requeues_then_gives_up_then_resume_heals(
            self, tmp_path):
        handle = serve_in_thread(str(tmp_path / "state"),
                                 watchdog_s=0.75, restart_budget=1)
        try:
            client = _client(handle)
            cid = client.submit(_STALLED)["id"]
            # run 1: unit A stalls -> watchdog cancels + requeues (restart
            # 1/1); the in-flight unit still completes and journals.
            # run 2: unit A replays, unit B stalls -> the second fire
            # exceeds the budget; unit B drains to the journal, unit C is
            # never started, and the campaign fails with a resume hint.
            info = client.wait(cid, timeout_s=120)
            assert info["state"] == "failed" and info["exit"] == 1
            assert info["restarts"] == 2
            assert "watchdog" in info["error"]
            assert "restart budget" in info["error"]
            assert "resume" in info["error"]
            assert cid in info["resume"]
            # both stalled units finished during their drains, so the
            # resubmission replays everything and renders byte-identical
            # to a fault-free run of the spec (transient stalls never
            # change results, only wall-clock)
            clean = dict(_STALLED,
                         config={k: v for k, v in _STALLED["config"].items()
                                 if k != "fault_plan"})
            client.resubmit(cid)
            done = client.wait(cid, timeout_s=120)
            assert done["state"] == "done" and done["exit"] == 0
            with open(done["report_path"], encoding="utf-8") as fh:
                assert fh.read() == _direct_csv(clean)
        finally:
            handle.stop()

    def test_healthy_campaign_never_trips_watchdog(self, tmp_path):
        handle = serve_in_thread(str(tmp_path / "state"),
                                 watchdog_s=30.0, restart_budget=0)
        try:
            client = _client(handle)
            cid = client.submit(_SMALL)["id"]
            info = client.wait(cid, timeout_s=120)
            assert info["state"] == "done" and info["restarts"] == 0
            with open(info["report_path"], encoding="utf-8") as fh:
                assert fh.read() == _direct_csv(_SMALL)
        finally:
            handle.stop()


# ---------------------------------------------------------------------------
# client retry policy (no server needed)
# ---------------------------------------------------------------------------


class TestClientRetry:
    def _flaky(self, client, failures, response):
        requests = []

        def roundtrip(request):
            requests.append(dict(request))
            if len(requests) <= failures:
                raise ConnectionError("injected transport failure")
            return response

        client._roundtrip = roundtrip
        return requests

    def test_submit_retries_transients_and_marks_idempotent(self):
        sleeps = []
        client = CampaignClient("h", 1, retries=3, backoff_s=0.01,
                                sleeper=sleeps.append)
        requests = self._flaky(client, 2, {"ok": True, "id": "c0001"})
        assert client.submit({"suite": "1.0"})["id"] == "c0001"
        # first attempt is a plain submit; retries ask for dedup because
        # the server may have enqueued the attempt whose response died
        assert "idempotent" not in requests[0]
        assert requests[1]["idempotent"] and requests[2]["idempotent"]
        assert len(sleeps) == 2
        assert sleeps[1] > sleeps[0]  # exponential backoff

    def test_retry_budget_exhausted_normalizes_to_connection_error(self):
        client = CampaignClient("h", 1, retries=2, backoff_s=0.0,
                                sleeper=lambda s: None)
        self._flaky(client, 99, {})
        with pytest.raises(ConnectionError, match="3 attempt"):
            client.status("c0001")

    def test_server_errors_are_answers_not_retried(self):
        client = CampaignClient("h", 1, retries=3, backoff_s=0.0,
                                sleeper=lambda s: None)
        calls = []

        def refused(request):
            calls.append(request)
            raise ServerError("no such campaign: 'c9999'")

        client._roundtrip = refused
        with pytest.raises(ServerError, match="no such campaign"):
            client.cancel("c9999")
        assert len(calls) == 1

    def test_resubmit_retry_detects_landed_first_attempt(self):
        client = CampaignClient("h", 1, retries=2, backoff_s=0.0,
                                sleeper=lambda s: None)
        requests = []

        def roundtrip(request):
            requests.append(dict(request))
            if len(requests) == 1:  # the resume whose response was lost
                raise ConnectionError("injected transport failure")
            assert request["op"] == "status"  # retry checks state first
            return {"ok": True,
                    "campaign": {"id": "c0001", "state": "queued"}}

        client._roundtrip = roundtrip
        response = client.resubmit("c0001")
        assert response["deduped"] and response["state"] == "queued"

    def test_checked_normalizes_wire_damage(self):
        checked = CampaignClient._checked
        with pytest.raises(ConnectionError, match="garbled"):
            checked(b"\xff\x00 injected garbled frame \xf7\n")
        with pytest.raises(ConnectionError, match="mid-frame"):
            checked(b'{"ok": true, "trunc')  # no newline: torn frame
        with pytest.raises(ServerError, match="nope"):
            checked(b'{"ok": false, "error": "nope"}\n')
        assert checked(b'{"ok": true, "id": "c0001"}\n')["id"] == "c0001"

    def test_backoff_deterministic_jittered_exponential(self):
        a = CampaignClient("h", 1, backoff_s=0.1, jitter_seed=5)
        b = CampaignClient("h", 1, backoff_s=0.1, jitter_seed=5)
        other = CampaignClient("h", 1, backoff_s=0.1, jitter_seed=6)
        delays = [a._backoff(n, "submit") for n in range(4)]
        assert delays == [b._backoff(n, "submit") for n in range(4)]
        assert delays != [other._backoff(n, "submit") for n in range(4)]
        for n, delay in enumerate(delays):
            base = 0.1 * (2 ** n)
            assert base <= delay < base * 1.5
        assert all(x < y for x, y in zip(delays, delays[1:]))

    def test_client_knob_validation(self):
        with pytest.raises(ValueError, match="retries"):
            CampaignClient("h", 1, retries=-1)
        with pytest.raises(ValueError, match="backoff_s"):
            CampaignClient("h", 1, backoff_s=-0.1)


# ---------------------------------------------------------------------------
# wire chaos against a live server (conn / frame sites + idempotent dedup)
# ---------------------------------------------------------------------------


class TestWireFaults:
    def test_requests_heal_and_lost_submit_dedups(self, tmp_path):
        from repro.faults import FaultPlan

        handle = serve_in_thread(
            str(tmp_path / "state"),
            fault_plan=FaultPlan.parse("conn=1.0,frame=1.0,seed=9"),
        )
        try:
            client = CampaignClient.at(handle.address, backoff_s=0.01)
            # the first ping's response is garbled AND dropped mid-frame;
            # the retry finds both transient sites spent
            assert client.ping()["format"] == "repro.server/v1"
            # the first submit's response dies on the wire AFTER the
            # server enqueued the campaign: the retried (idempotent)
            # submit must dedup against it, not run the campaign twice
            response = client.submit(_SMALL)
            cid = response["id"]
            campaigns = client.status()["campaigns"]
            assert [c["id"] for c in campaigns] == [cid]
            info = client.wait(cid, timeout_s=120)
            assert info["state"] == "done"
            with open(info["report_path"], encoding="utf-8") as fh:
                assert fh.read() == _direct_csv(_SMALL)
        finally:
            handle.stop()
