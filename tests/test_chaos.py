"""The chaos suite: every fault site at once against a hosted campaign.

The contract under test (DESIGN §5i): with every documented site armed
— in-process, journal and wire — a server-hosted campaign *always*
terminates with a complete report, and the post-chaos resume renders
byte-identical to a fault-free run of the same spec.  The CI
``chaos-smoke`` job replays the same scenario through the CLI with a
SIGKILLed server in the middle.
"""

from __future__ import annotations

import os

import pytest

from repro.faults import ChaosSchedule, FaultPlan, drive_to_completion
from repro.faults.chaos import RUNNER_SITES, SERVER_SITES, _FIELDS
from repro.harness import ValidationRunner, render_csv
from repro.journal import scan_journal_file
from repro.server import CampaignClient, normalize_spec, serve_in_thread
from repro.server.protocol import spec_behavior, spec_config, spec_suite


def _direct_csv(spec: dict) -> str:
    """The fault-free reference rendering of a submission spec."""
    norm = normalize_spec(spec)
    runner = ValidationRunner(spec_behavior(norm), spec_config(norm))
    return render_csv(runner.run_suite(spec_suite(norm)))


# ---------------------------------------------------------------------------
# the schedule itself (no server needed)
# ---------------------------------------------------------------------------


class TestChaosSchedule:
    def test_every_documented_site_is_armed(self):
        from repro.faults.plan import FAULT_SITES

        assert set(RUNNER_SITES) | set(SERVER_SITES) == set(FAULT_SITES)
        assert not set(RUNNER_SITES) & set(SERVER_SITES)
        schedule = ChaosSchedule(seed=3)
        runner, server = schedule.runner_plan(), schedule.server_plan()
        for site in RUNNER_SITES:
            assert getattr(runner, _FIELDS[site]) == 1.0
            assert getattr(server, _FIELDS[site]) == 0.0
        for site in SERVER_SITES:
            assert getattr(server, _FIELDS[site]) == 1.0
            assert getattr(runner, _FIELDS[site]) == 0.0

    def test_plans_are_transient_and_seeded(self):
        schedule = ChaosSchedule(seed=7, rate=0.5, stall_s=0.01)
        for plan in (schedule.runner_plan(), schedule.server_plan()):
            assert plan.seed == 7
            assert plan.max_fires == 1 and not plan.persistent
        # the runner plan round-trips through the config spec string
        described = schedule.runner_plan().describe()
        assert FaultPlan.parse(described) == schedule.runner_plan()

    def test_apply_arms_the_spec_config_without_mutating_it(self):
        spec = {"suite": "1.0", "config": {"iterations": 2}}
        armed = ChaosSchedule(seed=1).apply(spec)
        assert "fault_plan" not in spec["config"]
        assert armed["config"]["iterations"] == 2
        plan = FaultPlan.parse(armed["config"]["fault_plan"])
        assert plan.active and plan.seed == 1
        # and the protocol accepts what apply() produced
        norm = normalize_spec(armed)
        assert spec_config(norm).fault_plan.active

    @pytest.mark.parametrize("bad", [{"rate": 1.5}, {"rate": -0.1},
                                     {"stall_s": -1.0}])
    def test_bad_schedules_rejected(self, bad):
        with pytest.raises(ValueError):
            ChaosSchedule(**bad)


# ---------------------------------------------------------------------------
# the full chaos run: server-hosted campaign, every site firing
# ---------------------------------------------------------------------------


#: small but multi-unit, on the default local/serial engine
_CHAOS_SPEC = {
    "suite": "1.0",
    "format": "csv",
    # retries >= 1 is what lets the transient compile/iteration crashes
    # heal in-place instead of degrading units to HARNESS_ERROR rows
    "config": {"iterations": 2, "languages": ["c"], "retries": 2,
               "feature_prefixes": ["loop", "parallel"]},
}

class TestChaosCampaign:
    def test_chaos_campaign_terminates_byte_identical(self, tmp_path):
        schedule = ChaosSchedule(seed=29)
        handle = serve_in_thread(
            str(tmp_path / "state"),
            watchdog_s=30.0,  # armed, but chaos stalls are far shorter:
            restart_budget=2,  # a false trip would show up as restarts > 0
            fault_plan=schedule.server_plan(),
        )
        try:
            client = CampaignClient.at(handle.address)
            info, resubmits = drive_to_completion(
                client, schedule.apply(_CHAOS_SPEC), max_resubmits=8,
                wait_timeout_s=600.0,
            )
            assert info["state"] == "done"
            assert info["restarts"] == 0  # no watchdog false positives
            # chaos cost something (every site was armed at rate 1.0) but
            # converged; the injected journal crashes are what the
            # resubmits healed
            assert resubmits <= 8
            with open(info["report_path"], encoding="utf-8") as stream:
                chaotic = stream.read()
            assert chaotic == _direct_csv(_CHAOS_SPEC)
            # the tail stream survives the wire sites (conn, frame,
            # slow_client) via reconnect + seq dedup, and still ends with
            # a complete end line carrying the drop count
            lines = list(client.tail(info["id"]))
            assert lines[-1]["end"] and lines[-1]["state"] == "done"
            assert lines[-1]["dropped"] >= 0
            # crash consistency: what chaos left on disk passes fsck
            scan = scan_journal_file(
                os.path.join(str(tmp_path / "state"),
                             f"{info['id']}.journal")
            )
            assert scan.resumable
            assert set(scan.salvageable_units())  # units actually landed
        finally:
            handle.stop()
