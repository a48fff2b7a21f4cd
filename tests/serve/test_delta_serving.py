"""The ``"base"``/``"delta"`` request form and the serving warm path."""

from __future__ import annotations

import http.client
import json

import pytest

from repro.errors import UsageError
from repro.serve import MinimizeService, ServeConfig
from repro.serve.request import jobs_from_payload

# On-set {1,3,5,6,7}: not a pseudocube, so the exact rung generates a
# real candidate stream the DeltaIndex can snapshot.
PLA = ".i 3\n.o 1\n1-- 1\n-11 1\n.e\n"


@pytest.fixture()
def service():
    started: list[MinimizeService] = []

    def _start(**overrides):
        config = ServeConfig(port=0, **overrides)
        svc = MinimizeService(config)
        _, port = svc.start()
        started.append(svc)
        return svc, port

    yield _start
    for svc in started:
        svc.drain(grace=0.0)


def _request(port, method, path, payload=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        body = json.dumps(payload) if payload is not None else None
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


class TestPayloadExpansion:
    def test_delta_form_toggles_the_base(self):
        payload = {"base": {"pla": PLA, "label": "f"}, "delta": {"toggles": [7]}}
        jobs = jobs_from_payload(payload)
        assert len(jobs) == 1
        assert jobs[0].label == "f[0]+d1"
        assert 7 not in jobs[0].func.on_set
        assert 7 in jobs[0].func.dc_set

    def test_routing_returns_base_jobs(self):
        payload = {"base": {"pla": PLA, "label": "f"}, "delta": {"toggles": [7]}}
        base = jobs_from_payload(payload, routing=True)
        assert len(base) == 1
        assert base[0].label == "f[0]"
        assert 7 in base[0].func.on_set

    def test_options_merge_under_the_base(self):
        payload = {
            "base": {"pla": PLA},
            "delta": {"toggles": []},
            "covering": "exact",
        }
        jobs = jobs_from_payload(payload)
        assert jobs[0].covering == "exact"

    @pytest.mark.parametrize(
        "payload",
        [
            {"delta": {"toggles": [0]}},  # no base
            {"base": "nope", "delta": {"toggles": [0]}},
            {"base": {"pla": PLA}, "delta": [0]},
            {"base": {"pla": PLA}, "delta": {"toggles": [True]}},
            {"base": {"pla": PLA}, "delta": {"toggles": "0,1"}},
            {"base": {"pla": PLA}, "delta": {"toggles": [99]}},  # outside B^3
        ],
    )
    def test_malformed_delta_rejected(self, payload):
        with pytest.raises(UsageError):
            jobs_from_payload(payload)


class TestServingWarmPath:
    def test_delta_request_hits_warm_and_is_counted(self, service):
        svc, port = service()
        status, body = _request(port, "POST", "/minimize", {"pla": PLA})
        assert status == 200

        delta = {"base": {"pla": PLA}, "delta": {"toggles": [7]}}
        status, warm_body = _request(port, "POST", "/minimize", delta)
        assert status == 200
        assert warm_body["results"][0]["rung"] == "exact"
        assert not warm_body["results"][0]["degraded"]

        status, stats = _request(port, "GET", "/stats")
        assert status == 200
        assert stats["delta"]["entries"] >= 1
        assert stats["delta"]["warm_hits"] >= 1

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode()
        finally:
            conn.close()
        assert 'repro_delta_events_total{kind="warm_hits"}' in text
        assert "repro_delta_entries" in text

    def test_delta_disabled_still_serves(self, service):
        svc, port = service(delta_entries=0)
        delta = {"base": {"pla": PLA}, "delta": {"toggles": [7]}}
        status, body = _request(port, "POST", "/minimize", delta)
        assert status == 200
        status, stats = _request(port, "GET", "/stats")
        assert stats["delta"] == {}
