"""End-to-end integrity behavior of the serving tier.

A tampered-but-checksum-valid cache record is planted, either via the
``cache.disk.corrupt_payload`` fault site (a wrong cover) or by lowering
its ``literals`` (a wrong cost); these tests prove the serving-side
defenses catch it: verify-on-read auditing (quarantine + recompute),
synchronous ``"verify": true`` (HTTP 500 with counterexamples), sampled
shadow verification (post-response quarantine + breaker feed), and the
``X-Repro-Verified`` header reporting the weakest certificate level
served.  The three checks are one function
(:func:`repro.integrity.check_certificate`), so they reject alike.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultRule
from repro.serialize import dump_json_file, load_json_file
from repro.serve import VERIFIED_HEADER, MinimizeService, ServeConfig

PLA = ".i 3\n.o 1\n1-- 1\n-11 1\n.e\n"


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    yield
    faults.uninstall()


@pytest.fixture()
def service():
    started: list[MinimizeService] = []

    def _start(**overrides) -> tuple[MinimizeService, int]:
        config = ServeConfig(port=0, **overrides)
        svc = MinimizeService(config)
        _, port = svc.start()
        started.append(svc)
        return svc, port

    yield _start
    for svc in started:
        svc.drain(grace=0.0)


def _post(port: int, payload, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", "/minimize", body=json.dumps(payload),
                     headers=headers or {})
        response = conn.getresponse()
        return (response.status, dict(response.getheaders()),
                json.loads(response.read() or b"{}"))
    finally:
        conn.close()


def _plant_corrupt_record(service, tmp_path):
    """Compute once with the payload-corruption fault live, then drain:
    the shared disk tier now holds a checksum-valid wrong record.
    Returns the honest literal count."""
    faults.install(FaultPlan([
        FaultRule(site="cache.disk.corrupt_payload",
                  kind="corrupt_payload", times=1),
    ]))
    svc, port = service(cache_dir=str(tmp_path / "cache"), shadow_rate=0)
    status, _, body = _post(port, {"pla": PLA})
    assert status == 200
    svc.drain(grace=0.0)
    faults.uninstall()
    return body["results"][0]["literals"]


def _plant_cost_tampered_record(service, tmp_path):
    """Compute once, drain, then lower the disk record's ``literals`` by
    one and re-wrap its checksum: the cover and its certificate are
    intact, only the served cost is a lie.  Returns the honest count."""
    svc, port = service(cache_dir=str(tmp_path / "cache"), shadow_rate=0)
    status, _, body = _post(port, {"pla": PLA})
    assert status == 200
    svc.drain(grace=0.0)
    [path] = (tmp_path / "cache" / "objects").glob("*/*.json")
    record = load_json_file(path)
    record["literals"] -= 1
    dump_json_file(path, record, checksum=True)
    return body["results"][0]["literals"]


_PLANTS = {
    "cost-tampered": _plant_cost_tampered_record,
    "corrupt-payload": _plant_corrupt_record,
}


class TestVerifiedHeader:
    def test_fresh_compute_serves_full(self, service):
        _, port = service()
        status, headers, _ = _post(port, {"pla": PLA})
        assert status == 200
        assert headers[VERIFIED_HEADER] == "full"

    def test_sync_verify_reports_full(self, service):
        _, port = service(audit_rate=0)
        status, headers, body = _post(port, {"pla": PLA, "verify": True})
        assert status == 200 and body["ok"]
        assert headers[VERIFIED_HEADER] == "full"


class TestSyncVerification:
    def test_corrupt_record_yields_500_with_counterexamples(
        self, service, tmp_path
    ):
        _plant_corrupt_record(service, tmp_path)
        # Fresh service, cold memory, auditing off: the tampered disk
        # record is served unless the client asks for verification.
        svc, port = service(cache_dir=str(tmp_path / "cache"),
                            audit_rate=0, shadow_rate=0)
        status, _, body = _post(port, {"pla": PLA, "verify": True})
        assert status == 500
        assert body["error"]["code"] == "integrity"
        ces = body["error"]["counterexamples"]
        assert not ces["ok"]
        assert ces["uncovered_on_points"] or ces["covered_off_points"]
        assert "truncated" in ces

        # The wrong record was quarantined: a retry recomputes and is
        # served verified.
        status, headers, body = _post(port, {"pla": PLA, "verify": True})
        assert status == 200 and body["ok"]
        assert headers[VERIFIED_HEADER] == "full"
        stats = svc.stats()
        assert stats["counters"]["integrity"] == 1
        assert sum(stats["breaker"]["quarantined"].values()) == 1

    def test_verify_on_read_audit_catches_it_without_the_flag(
        self, service, tmp_path
    ):
        _plant_corrupt_record(service, tmp_path)
        # audit_rate=1: the disk load itself is audited; the client
        # transparently gets a recomputed, correct answer.
        svc, port = service(cache_dir=str(tmp_path / "cache"),
                            audit_rate=1, shadow_rate=0)
        status, headers, body = _post(port, {"pla": PLA})
        assert status == 200 and body["ok"]
        assert headers[VERIFIED_HEADER] == "full"
        cache_stats = svc.cache.stats
        assert cache_stats.audit_mismatches == 1


class TestAuditParity:
    @pytest.mark.parametrize("check", ["audit", "shadow", "verify"])
    @pytest.mark.parametrize("plant", sorted(_PLANTS))
    def test_every_check_rejects_every_bad_record(
        self, service, tmp_path, plant, check
    ):
        """Cache audit, shadow verification and ``"verify": true`` run
        one check, so each rejects whatever the others reject."""
        honest = _PLANTS[plant](service, tmp_path)
        svc, port = service(
            cache_dir=str(tmp_path / "cache"),
            audit_rate=1 if check == "audit" else 0,
            shadow_rate=1 if check == "shadow" else 0,
        )
        status, _, body = _post(port, {"pla": PLA, "verify": check == "verify"})
        if check == "verify":
            assert status == 500
            assert body["error"]["code"] == "integrity"
            if plant == "corrupt-payload":
                assert not body["error"]["counterexamples"]["ok"]
            assert svc.stats()["counters"]["integrity"] == 1
        elif check == "audit":
            # Quarantined on read and recomputed: the client never sees
            # the bad record.
            assert status == 200
            assert body["results"][0]["literals"] == honest
            assert svc.cache.stats.audit_mismatches == 1
        else:
            # Served (nothing checks it in-band), then caught off-path.
            assert status == 200
            assert svc.shadow.flush()
            assert svc.shadow.snapshot()["mismatches"] == 1
        assert sum(svc.stats()["breaker"]["quarantined"].values()) == (
            0 if check == "audit" else 1
        )


class TestShadowVerification:
    def test_shadow_catches_served_corrupt_record(self, service, tmp_path):
        _plant_corrupt_record(service, tmp_path)
        svc, port = service(cache_dir=str(tmp_path / "cache"),
                            audit_rate=0, shadow_rate=1)
        # The wrong record is served (nothing checks it in-band) …
        status, _, body = _post(port, {"pla": PLA})
        assert status == 200 and body["ok"]
        # … but the shadow lane catches it after the fact.
        assert svc.shadow.flush()
        snap = svc.shadow.snapshot()
        assert snap["mismatches"] == 1
        stats = svc.stats()
        assert sum(stats["breaker"]["quarantined"].values()) == 1
        assert stats["shadow"]["mismatches"] == 1
        # Quarantined => the next request recomputes correctly.
        status, headers, _ = _post(port, {"pla": PLA})
        assert status == 200
        assert headers[VERIFIED_HEADER] == "full"
        assert svc.shadow.flush()
        assert svc.shadow.snapshot()["verified"] >= 1

    def test_clean_responses_shadow_verify_quietly(self, service):
        svc, port = service(shadow_rate=1)
        status, _, _ = _post(port, {"pla": PLA})
        assert status == 200
        assert svc.shadow.flush()
        snap = svc.shadow.snapshot()
        assert snap["verified"] == 1 and snap["mismatches"] == 0


class TestMetricsExposure:
    def test_integrity_counters_in_metrics_text(self, service, tmp_path):
        _plant_corrupt_record(service, tmp_path)
        svc, port = service(cache_dir=str(tmp_path / "cache"),
                            audit_rate=1, shadow_rate=1)
        assert _post(port, {"pla": PLA})[0] == 200
        svc.shadow.flush()
        text = svc.metrics_text()
        assert 'repro_cache_events_total{kind="audited"} 1' in text
        assert 'repro_cache_events_total{kind="audit_mismatches"} 1' in text
        assert "repro_rung_quarantine_total" in text
        assert 'repro_shadow_events_total{kind="scheduled"}' in text
