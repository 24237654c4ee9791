"""The campaign server's wire protocol (DESIGN §5h).

``repro.server/v1`` is newline-delimited JSON over TCP.  Every request
is one JSON object on one line; every response is one JSON object on
one line with an ``ok`` boolean (``{"ok": false, "error": "..."}`` on
failure).  ``tail`` is the one streaming op: after its ``ok`` response
the server sends ``{"record": <repro.obs/v2 live record>}`` lines and
terminates the stream with ``{"end": true, "state": ..., "exit": ...}``.

Requests:

* ``{"op": "ping"}`` — liveness/format probe
* ``{"op": "submit", "spec": {...}}`` — enqueue a new campaign
* ``{"op": "submit", "resume": "<id>"}`` — re-enqueue a cancelled or
  failed campaign (its unit journal replays completed work)
* ``{"op": "status"}`` / ``{"op": "status", "id": "<id>"}``
* ``{"op": "cancel", "id": "<id>"}`` — cancel that campaign's token
* ``{"op": "tail", "id": "<id>"}`` — replay + follow live records

A submission *spec* is plain data: ``suite`` (``"1.0"`` or
``"combinations"``), optional ``vendor``/``version`` (a simulated
vendor compiler; the reference behaviour otherwise), ``scheduler``
(only ``"local"``: campaigns run on the server's engine), optional
``workers`` (process count when ``config.policy`` is ``"process"``,
overriding ``config.workers``), ``format`` (report renderer) and
``config`` (a
:meth:`repro.harness.HarnessConfig.to_dict`-shaped dict;
execution-only knobs like ``policy`` are honoured, telemetry knobs are
server-managed and rejected).
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Optional

SERVER_FORMAT = "repro.server/v1"

#: campaign lifecycle states, in order of appearance
STATES = ("queued", "running", "done", "failed", "cancelled")

REPORT_FORMATS = ("text", "csv", "html", "bugs")
REPORT_EXTENSIONS = {"text": "txt", "csv": "csv", "html": "html",
                     "bugs": "bugs.txt"}

SUITES = ("1.0", "combinations")

#: the one scheduler: campaigns run on the server's local engine
SCHEDULERS = ("local",)
#: backends an older server accepted; their specs are refused by name
REMOVED_SCHEDULERS = ("shards", "simk8s")

#: config knobs a submission may NOT set: the server owns the telemetry
#: pipeline (one NDJSON stream per campaign under its own directory)
_SERVER_MANAGED_CONFIG = ("live_stream", "status", "prom")

_SPEC_KEYS = ("suite", "vendor", "version", "scheduler", "workers",
              "format", "config")

#: exit codes reported per terminal state (``done`` splits on failures,
#: mirroring ``repro validate``)
EXIT_DONE = 0
EXIT_FAILURES = 2
EXIT_FAILED = 1
EXIT_CANCELLED = 3


class ProtocolError(ValueError):
    """A malformed request or submission spec."""


def check_scheduler(scheduler) -> None:
    """Refuse a spec's ``scheduler`` unless it is ``"local"``."""
    if scheduler in REMOVED_SCHEDULERS:
        raise ProtocolError(
            f"scheduler backend {scheduler!r} was removed: campaigns run on "
            "the local engine; set config.policy = \"process\" (and "
            "config.workers) for a process pool"
        )
    if scheduler not in SCHEDULERS:
        raise ProtocolError(
            f"unknown scheduler {scheduler!r}; expected one of "
            f"{', '.join(SCHEDULERS)}"
        )


def encode_line(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def decode_line(line: bytes) -> dict:
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ProtocolError(f"malformed request line: {err}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def normalize_spec(spec: dict) -> dict:
    """Validate a submission spec; returns the normalized form.

    The normalized spec's ``config`` is the full
    :meth:`~repro.harness.HarnessConfig.to_dict` dict, so journaling it
    and rebuilding after a server restart reproduces the exact campaign
    key.
    """
    from repro.harness import HarnessConfig

    if not isinstance(spec, dict):
        raise ProtocolError(
            f"spec must be a JSON object, got {type(spec).__name__}"
        )
    unknown = sorted(set(spec) - set(_SPEC_KEYS))
    if unknown:
        raise ProtocolError(
            f"unknown spec key(s): {', '.join(unknown)}; "
            f"expected a subset of: {', '.join(_SPEC_KEYS)}"
        )
    suite = spec.get("suite", "1.0")
    if suite not in SUITES:
        raise ProtocolError(
            f"unknown suite {suite!r}; expected one of {', '.join(SUITES)}"
        )
    scheduler = spec.get("scheduler", "local")
    check_scheduler(scheduler)
    fmt = spec.get("format", "text")
    if fmt not in REPORT_FORMATS:
        raise ProtocolError(
            f"unknown format {fmt!r}; expected one of "
            f"{', '.join(REPORT_FORMATS)}"
        )
    workers = spec.get("workers")
    if workers is not None and (not isinstance(workers, int) or workers < 1):
        raise ProtocolError(f"workers must be a positive int (got {workers!r})")
    vendor = spec.get("vendor")
    version = spec.get("version")
    if vendor is not None and version is None:
        raise ProtocolError("a vendor submission needs a version too")
    if vendor is not None:
        languages = (spec.get("config") or {}).get("languages")
        if not isinstance(languages, (list, tuple)) or len(languages) != 1:
            raise ProtocolError(
                "a vendor submission must pin config.languages to exactly "
                "one language (vendor bugs are language-specific)"
            )
    config_data = spec.get("config") or {}
    managed = sorted(k for k in _SERVER_MANAGED_CONFIG
                     if config_data.get(k))
    if managed:
        raise ProtocolError(
            f"config key(s) {', '.join(managed)} are server-managed: the "
            "server streams each campaign's telemetry itself (use `tail`)"
        )
    try:
        config = HarnessConfig.from_dict(config_data)
    except (TypeError, ValueError) as err:
        raise ProtocolError(f"bad config: {err}") from None
    return {
        "suite": suite,
        "vendor": vendor,
        "version": version,
        "scheduler": scheduler,
        "workers": workers,
        "format": fmt,
        "config": config.to_dict(),
    }


# ---------------------------------------------------------------------------
# building the campaign's machinery from a normalized spec
# ---------------------------------------------------------------------------


def spec_config(spec: dict):
    """The campaign's HarnessConfig; the spec's ``workers`` sizes the pool."""
    from repro.harness import HarnessConfig

    config = HarnessConfig.from_dict(spec["config"])
    if spec.get("workers"):
        config = replace(config, workers=spec["workers"])
    return config


def spec_suite(spec: dict):
    if spec["suite"] == "combinations":
        from repro.suite import combination_suite

        return combination_suite()
    from repro.suite import openacc10_suite

    return openacc10_suite()


def spec_behavior(spec: dict, config=None):
    from repro.compiler import CompilerBehavior

    if not spec.get("vendor"):
        return CompilerBehavior()
    from repro.compiler.vendors import vendor_version

    config = config if config is not None else spec_config(spec)
    # normalize_spec guarantees a vendor campaign pins a single language
    (language,) = tuple(config.languages)
    return vendor_version(spec["vendor"], spec["version"]).behavior(language)


def spec_campaign_key(spec: dict, config=None, behavior=None) -> dict:
    """The unit journal's campaign key — deterministic from the spec, so
    a restarted server resumes the same journal it created."""
    from repro.journal import validate_campaign_key

    config = config if config is not None else spec_config(spec)
    behavior = behavior if behavior is not None else spec_behavior(spec, config)
    return validate_campaign_key(spec["suite"], behavior, config)


def render_report(report, fmt: str) -> str:
    from repro.harness import (
        render_bug_report,
        render_csv,
        render_html,
        render_text,
    )

    renderer = {
        "text": render_text,
        "csv": render_csv,
        "html": render_html,
        "bugs": render_bug_report,
    }[fmt]
    return renderer(report)


def state_exit_code(state: str, failures: Optional[bool]) -> Optional[int]:
    """The ``repro validate``-compatible exit code for a terminal state
    (None while the campaign is still queued/running)."""
    if state == "done":
        return EXIT_FAILURES if failures else EXIT_DONE
    if state == "failed":
        return EXIT_FAILED
    if state == "cancelled":
        return EXIT_CANCELLED
    return None
