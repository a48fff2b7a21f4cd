"""Tests for the Job model and its content hash."""

import pytest

from repro.boolfunc.function import BoolFunc
from repro.engine.job import Job, job_from_dict, job_to_dict


def _func(on=(1, 2, 4), dc=(), n=3):
    return BoolFunc(n, frozenset(on), frozenset(dc))


class TestContentHash:
    def test_is_hex_sha256(self):
        h = Job(_func()).content_hash
        assert len(h) == 64
        int(h, 16)  # parses as hex

    def test_same_function_same_options_same_hash(self):
        assert Job(_func()).content_hash == Job(_func()).content_hash

    def test_label_does_not_participate(self):
        assert Job(_func(), label="a").content_hash == Job(_func(), label="b").content_hash

    def test_on_set_construction_order_is_canonical(self):
        a = BoolFunc(3, frozenset([4, 1, 2]))
        b = BoolFunc(3, frozenset([1, 2, 4]))
        assert Job(a).content_hash == Job(b).content_hash

    def test_different_on_set_different_hash(self):
        assert Job(_func(on=(1, 2))).content_hash != Job(_func(on=(1, 3))).content_hash

    def test_dc_set_participates(self):
        assert Job(_func(dc=())).content_hash != Job(_func(dc=(5,))).content_hash

    def test_method_participates(self):
        assert Job(_func(), method="exact").content_hash != Job(
            _func(), method="sp"
        ).content_hash

    def test_irrelevant_params_are_normalized_away(self):
        # k is a heuristic knob: exact jobs hash identically regardless.
        assert Job(_func(), method="exact", k=0).content_hash == Job(
            _func(), method="exact", k=3
        ).content_hash
        # bound is a bounded knob: sp jobs ignore it too.
        assert Job(_func(), method="sp", bound=2).content_hash == Job(
            _func(), method="sp", bound=4
        ).content_hash
        # The heuristic always uses the bucket index: backend is no knob.
        assert Job(_func(), method="heuristic", backend="index").content_hash == Job(
            _func(), method="heuristic", backend="trie"
        ).content_hash

    def test_relevant_params_participate(self):
        assert Job(_func(), method="heuristic", k=0).content_hash != Job(
            _func(), method="heuristic", k=1
        ).content_hash
        assert Job(_func(), method="bounded", bound=2).content_hash != Job(
            _func(), method="bounded", bound=3
        ).content_hash
        assert Job(_func(), covering="greedy").content_hash != Job(
            _func(), covering="exact"
        ).content_hash

    def test_bounded_cap_participates(self):
        # Bounded rungs honour the pseudoproduct cap, so a capped record
        # must never answer an uncapped job.
        assert Job(_func(), method="bounded").content_hash != Job(
            _func(), method="bounded", max_pseudoproducts=10
        ).content_hash

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            Job(_func(), method="quantum")


class TestValidation:
    @pytest.mark.parametrize(
        "options",
        [
            {"method": "sp", "covering": "bogus"},
            {"method": "heuristic", "covering": "bogus"},
            {"method": "exact", "backend": "btree"},
            {"method": "bounded", "backend": "btree"},
            {"method": "exact", "max_pseudoproducts": "many"},
            {"method": "bounded", "max_pseudoproducts": True},
            {"method": "bounded", "bound": 0},
        ],
        ids=lambda options: "-".join(str(v) for v in options.values()),
    )
    def test_bad_option_values_rejected(self, options):
        with pytest.raises(ValueError):
            Job(_func(), **options)


class TestRoundTrip:
    def test_job_dict_round_trip(self):
        job = Job(_func(), method="heuristic", k=2, covering="exact", label="x[1]")
        data = job_to_dict(job)
        assert data["hash"] == job.content_hash
        rebuilt = job_from_dict(job.func, data)
        assert rebuilt.content_hash == job.content_hash
        assert rebuilt.k == 2 and rebuilt.covering == "exact"

    def test_display_label_fallback(self):
        assert Job(_func(), label="adr2[1]").display_label == "adr2[1]"
        assert "n=3" in Job(_func()).display_label
