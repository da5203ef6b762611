"""Malformed job payloads are rejected as request errors, never raised.

A payload whose owning layer's ``from_dict`` raises ``KeyError``,
``TypeError`` or ``ValueError`` is a :class:`~repro.errors.ReproError`
naming the job kind: the HTTP router answers 400 and ``repro serve
submit`` exits 2 with a one-line message.
"""

import json

import pytest

from repro.serve.cli import main
from repro.serve.fakes import explore_payload
from repro.serve.http import route_request
from repro.serve.service import DSEService

MALFORMED = {
    "sweep-without-workload": {"kind": "sweep", "payload": {}},
    "sweep-with-text-latencies": {
        "kind": "sweep",
        "payload": {"workload": "idct", "latencies": "abc"}},
    "explore-with-text-coarse-points": {
        "kind": "explore",
        "payload": dict(explore_payload(), coarse_points="x")},
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_router_answers_400(name):
    service = DSEService()
    status, payload = route_request(service, "POST", "/submit",
                                    MALFORMED[name])
    assert status == 400
    assert f"malformed {MALFORMED[name]['kind']} payload" in payload["error"]
    assert len(service.queue) == 0


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_cli_submit_exits_2(name, tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps(MALFORMED[name]))
    queue = str(tmp_path / "queue.jsonl")
    assert main(["submit", "--queue", queue, "--job", str(job)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro serve: malformed ")
    assert "Traceback" not in err
