"""Unit tests for result certificates (:mod:`repro.integrity`)."""

import pytest

from repro.boolfunc.function import BoolFunc
from repro.core.spp_form import SppForm
from repro.errors import EXIT_INTEGRITY, IntegrityError
from repro.integrity import (
    CERTIFICATE_VERSION,
    VERIFIED_FULL,
    VERIFIED_NONE,
    VERIFIED_SAMPLED,
    check_certificate,
    form_hash,
    make_certificate,
    recompute_cost,
    spec_hash,
)
from repro.minimize.exact import minimize_spp
from repro.serialize import form_to_dict
from repro.verify import verify_form


@pytest.fixture
def pair():
    """A small function and its verified exact form."""
    func = BoolFunc.from_truth_table("0110100110010110")  # 4-var parity
    form = minimize_spp(func).form
    assert verify_form(form, func)
    return func, form


def _record(func, form, **cert_overrides):
    cert = make_certificate(
        func, form, solver_salt="salt-1", verified=VERIFIED_FULL
    )
    cert.update(cert_overrides)
    return {
        "literals": recompute_cost(form),
        "form": form_to_dict(form),
        "integrity": cert,
    }


class TestHashes:
    def test_hashes_are_stable_and_discriminating(self, pair):
        func, form = pair
        assert spec_hash(func) == spec_hash(func)
        assert form_hash(form) == form_hash(form)
        other = BoolFunc(func.n, frozenset({0}))
        assert spec_hash(other) != spec_hash(func)
        assert form_hash(SppForm(form.n, ())) != form_hash(form)

    def test_recompute_cost_matches_closed_form(self, pair):
        _, form = pair
        # Two independent cost paths: CEX factor-by-factor vs the
        # closed-form pseudocube literal count.
        assert recompute_cost(form) == form.num_literals

    def test_recompute_cost_of_empty_form_is_zero(self):
        assert recompute_cost(SppForm(3, ())) == 0


class TestMakeCertificate:
    def test_envelope_shape(self, pair):
        func, form = pair
        cert = make_certificate(
            func, form, solver_salt="s", claimed_cost=form.num_literals,
            verified=VERIFIED_FULL, verify_ms=1.25,
        )
        assert cert["version"] == CERTIFICATE_VERSION
        assert cert["spec_hash"] == spec_hash(func)
        assert cert["form_hash"] == form_hash(form)
        assert cert["cost_recomputed"] == form.num_literals
        assert cert["solver_salt"] == "s"
        assert cert["verified"] == VERIFIED_FULL
        assert cert["verify_ms"] == 1.25

    def test_wrong_claimed_cost_raises_at_stamping_time(self, pair):
        func, form = pair
        with pytest.raises(IntegrityError) as exc:
            make_certificate(
                func, form, solver_salt="s",
                claimed_cost=form.num_literals + 1,
            )
        assert exc.value.exit_code == EXIT_INTEGRITY
        assert exc.value.detail["cost_recomputed"] == form.num_literals

    def test_unknown_verified_level_rejected(self, pair):
        func, form = pair
        with pytest.raises(ValueError):
            make_certificate(func, form, solver_salt="s", verified="maybe")


class TestCheckCertificate:
    def test_clean_record_passes_and_refreshes(self, pair):
        func, form = pair
        record = _record(func, form)
        refreshed = check_certificate(record, func)
        assert refreshed["verified"] == VERIFIED_FULL

    def test_semantic_audit_raises_none_to_sampled(self, pair):
        func, form = pair
        record = _record(func, form, verified=VERIFIED_NONE)
        refreshed = check_certificate(record, func)
        assert refreshed["verified"] == VERIFIED_SAMPLED

    def test_record_without_envelope_is_audited_semantically(self, pair):
        func, form = pair
        record = {"literals": form.num_literals, "form": form_to_dict(form)}
        refreshed = check_certificate(record, func)
        assert refreshed["verified"] == VERIFIED_SAMPLED

    def test_wrong_literal_claim_is_caught(self, pair):
        func, form = pair
        record = _record(func, form)
        record["literals"] += 1
        with pytest.raises(IntegrityError, match="literals"):
            check_certificate(record, func)

    def test_spec_hash_mismatch_is_caught(self, pair):
        func, form = pair
        record = _record(func, form)
        other = BoolFunc(func.n, frozenset({1, 2}))
        with pytest.raises(IntegrityError, match="spec_hash"):
            check_certificate(record, other)

    def test_mutated_form_is_caught_by_form_hash(self, pair):
        func, form = pair
        record = _record(func, form)
        mutated = SppForm(form.n, form.pseudoproducts[:-1])
        record["form"] = form_to_dict(mutated)
        record["literals"] = mutated.num_literals
        with pytest.raises(IntegrityError, match="form_hash") as exc:
            check_certificate(record, func)
        # The cover is wrong too: its counterexamples ride along.
        assert not exc.value.detail["counterexamples"]["ok"]

    def test_wrong_cover_is_caught_semantically(self, pair):
        func, form = pair
        # No envelope, literal claim consistent — only the semantic
        # re-verification can notice the cover is wrong.
        mutated = SppForm(form.n, form.pseudoproducts[:-1])
        record = {
            "literals": mutated.num_literals,
            "form": form_to_dict(mutated),
        }
        with pytest.raises(IntegrityError, match="not equivalent") as exc:
            check_certificate(record, func)
        assert exc.value.report is not None
        assert not exc.value.report.ok

    def test_undecodable_form_is_an_integrity_error(self, pair):
        func, form = pair
        record = _record(func, form)
        record["form"] = {"garbage": True}
        with pytest.raises(IntegrityError, match="undecodable"):
            check_certificate(record, func)
