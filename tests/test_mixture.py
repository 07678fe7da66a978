"""Epoch weighting, update-mix sampling, rounding, and plan verification."""

from __future__ import annotations

from collections import Counter
from decimal import ROUND_HALF_UP, Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from synth import doc

from bizcorpus.core import ConfigError, Corpus, SourceTag, count_tokens, read_jsonl
from bizcorpus.mixture import (
    MixtureSpec,
    PlanEntry,
    SamplePlan,
    UpdateMixSpec,
    non_latest_share,
    plan_epoch,
    sample_update_mix,
    verify_plan,
)


def oracle_share(r: str | float, total: int) -> int:
    """Independent round-half-up via the decimal module."""
    return int((Decimal(str(r)) * total).quantize(Decimal("1"), rounding=ROUND_HALF_UP))


def _corpus(tag: SourceTag, n: int, prefix: str = "") -> Corpus:
    return Corpus(
        [doc(f"{prefix}{tag.value}-{i}", f"{tag.value}の本文{i}。", source=tag) for i in range(n)]
    )


def _merge(*corpora: Corpus) -> Corpus:
    return Corpus([d for c in corpora for d in c])


class TestPlanEpoch:
    def test_identity_weights_yield_permutation(self):
        corpus = _merge(_corpus(SourceTag.MC4, 20), _corpus(SourceTag.CC100, 10))
        plan = plan_epoch(MixtureSpec(weights={}, seed=7), corpus)
        assert sorted(e.doc_id for e in plan.entries) == sorted(d.id for d in corpus)

    def test_weight_two_doubles_each_document(self):
        corpus = _merge(_corpus(SourceTag.WIKIPEDIA, 30), _corpus(SourceTag.MC4, 50))
        spec = MixtureSpec(weights={SourceTag.WIKIPEDIA: 2.0}, seed=1)
        plan = plan_epoch(spec, corpus)
        appearances = Counter(e.doc_id for e in plan.entries)
        for d in corpus:
            expected = 2 if d.source is SourceTag.WIKIPEDIA else 1
            assert appearances[d.id] == expected

    def test_doubling_doubles_effective_tokens(self):
        # doubling a source doubles its effective token share in the plan
        corpus = _corpus(SourceTag.WIKIPEDIA, 25)
        base_tokens = count_tokens(corpus).tokens_by_source["wikipedia"]
        tokens_by_id = {
            d.id: count_tokens(Corpus([d])).total_tokens for d in corpus
        }
        plan = plan_epoch(MixtureSpec(seed=3), _merge(corpus, _corpus(SourceTag.CURATED_BUSINESS, 5)))
        planned = sum(
            tokens_by_id[e.doc_id] for e in plan.entries if e.source is SourceTag.WIKIPEDIA
        )
        assert planned == 2 * base_tokens

    def test_fractional_weight_appearance_counts(self):
        # oracle: brute-force appearance counting
        corpus = _corpus(SourceTag.PATENT, 100)
        spec = MixtureSpec(weights={SourceTag.PATENT: 1.5}, seed=11)
        plan = plan_epoch(spec, corpus)
        assert len(plan) == 150
        appearances = Counter(e.doc_id for e in plan.entries)
        assert set(appearances.values()) == {1, 2}
        assert sum(1 for v in appearances.values() if v == 2) == 50

    def test_missing_weighted_source_is_fatal(self):
        corpus = _corpus(SourceTag.MC4, 10)
        with pytest.raises(ConfigError, match="wikipedia"):
            plan_epoch(MixtureSpec(seed=0), corpus)

    def test_deterministic_and_seed_changes_order_only(self):
        corpus = _merge(_corpus(SourceTag.WIKIPEDIA, 10), _corpus(SourceTag.OTHER, 10))
        spec = MixtureSpec(weights={SourceTag.WIKIPEDIA: 2.0}, seed=5)
        again = plan_epoch(spec, corpus)
        assert plan_epoch(spec, corpus).entries == again.entries
        other = plan_epoch(MixtureSpec(weights={SourceTag.WIKIPEDIA: 2.0}, seed=6), corpus)
        assert other.entries != again.entries
        assert other.source_counts == again.source_counts

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ConfigError):
            MixtureSpec(weights={SourceTag.MC4: 0.0})


class TestRounding:
    @pytest.mark.parametrize(
        "r,total",
        [("0.5", 3), ("0.25", 2), ("0.1", 5), ("0.3", 5), ("0.15", 10), ("0.05", 10), ("0.1", 1000), ("0.3", 1000)],
    )
    def test_matches_decimal_half_up_oracle(self, r, total):
        assert non_latest_share(float(r), total) == oracle_share(r, total)

    def test_half_case_rounds_up(self):
        assert non_latest_share(0.5, 3) == 2
        assert non_latest_share(0.15, 10) == 2

    @settings(max_examples=100, deadline=None)
    @given(
        st.decimals(min_value="0", max_value="1", places=3),
        st.integers(min_value=1, max_value=5000),
    )
    def test_rounding_bound(self, r, total):
        share = non_latest_share(float(r), total)
        assert abs(Decimal(share) - r * total) <= Decimal("0.5")
        assert share == oracle_share(r, total)


class TestSampleUpdateMix:
    LATEST = _corpus(SourceTag.LATEST_UPDATE, 400)
    NON_LATEST = _corpus(SourceTag.CURATED_BUSINESS, 200)

    def _counts(self, plan: SamplePlan) -> tuple[int, int]:
        non = sum(1 for e in plan.entries if e.source is not SourceTag.LATEST_UPDATE)
        return non, len(plan) - non

    def test_r_030_total_1000(self):
        spec = UpdateMixSpec(r=0.3, total=1000, seed=9)
        plan = sample_update_mix(spec, self.LATEST, self.NON_LATEST)
        assert self._counts(plan) == (300, 700)

    def test_r_zero_all_latest(self):
        spec = UpdateMixSpec(r=0.0, total=500, seed=9)
        plan = sample_update_mix(spec, self.LATEST, Corpus([]))
        assert self._counts(plan) == (0, 500)

    def test_r_one_all_non_latest(self):
        spec = UpdateMixSpec(r=1.0, total=100, seed=9)
        plan = sample_update_mix(spec, Corpus([]), self.NON_LATEST)
        assert self._counts(plan) == (100, 0)

    def test_byte_identical_across_runs(self, tmp_path):
        spec = UpdateMixSpec(r=0.1, total=1000, seed=1234)
        a = sample_update_mix(spec, self.LATEST, self.NON_LATEST)
        b = sample_update_mix(spec, self.LATEST, self.NON_LATEST)
        pa = a.to_jsonl(tmp_path / "a.jsonl")
        pb = b.to_jsonl(tmp_path / "b.jsonl")
        assert pa.read_bytes() == pb.read_bytes()

    def test_seed_changes_order_not_counts(self):
        s1 = sample_update_mix(UpdateMixSpec(r=0.3, total=600, seed=1), self.LATEST, self.NON_LATEST)
        s2 = sample_update_mix(UpdateMixSpec(r=0.3, total=600, seed=2), self.LATEST, self.NON_LATEST)
        assert s1.entries != s2.entries
        assert self._counts(s1) == self._counts(s2)

    def test_exhaustion_then_replacement(self):
        # share (300) > pool size (200): every pool doc appears at least once
        spec = UpdateMixSpec(r=0.3, total=1000, seed=3)
        plan = sample_update_mix(spec, self.LATEST, self.NON_LATEST)
        non_ids = Counter(
            e.doc_id for e in plan.entries if e.source is not SourceTag.LATEST_UPDATE
        )
        assert sum(non_ids.values()) == 300
        assert set(non_ids) == {d.id for d in self.NON_LATEST}

    def test_without_replacement_until_exhaustion(self):
        # share below pool size: no instance repeats
        spec = UpdateMixSpec(r=0.3, total=600, seed=4)
        plan = sample_update_mix(spec, self.LATEST, self.NON_LATEST)
        non_ids = [e.doc_id for e in plan.entries if e.source is not SourceTag.LATEST_UPDATE]
        assert len(non_ids) == len(set(non_ids)) == 180

    def test_empty_pool_with_nonzero_share_fatal(self):
        with pytest.raises(ConfigError, match="non-latest"):
            sample_update_mix(UpdateMixSpec(r=0.3, total=10, seed=0), self.LATEST, Corpus([]))
        with pytest.raises(ConfigError, match="latest"):
            sample_update_mix(UpdateMixSpec(r=0.3, total=10, seed=0), Corpus([]), self.NON_LATEST)

    def test_r_out_of_range_fatal(self):
        with pytest.raises(ConfigError):
            UpdateMixSpec(r=1.5, total=10)
        with pytest.raises(ConfigError):
            UpdateMixSpec(r=-0.1, total=10)
        with pytest.raises(ConfigError):
            UpdateMixSpec(r=0.5, total=0)


class TestVerifyPlan:
    def _hand_plan(self, non_latest: int, latest: int) -> SamplePlan:
        entries = [
            PlanEntry(SourceTag.CURATED_BUSINESS, f"n{i}", "non_latest") for i in range(non_latest)
        ] + [PlanEntry(SourceTag.LATEST_UPDATE, f"l{i}", "latest") for i in range(latest)]
        return SamplePlan(entries)

    def test_constructed_plan_passes(self):
        spec = UpdateMixSpec(r=0.3, total=1000, seed=0)
        plan = sample_update_mix(
            spec,
            _corpus(SourceTag.LATEST_UPDATE, 800),
            _corpus(SourceTag.CURATED_BUSINESS, 400),
        )
        report = verify_plan(plan, spec)
        assert report.ok
        assert (report.realized_non_latest, report.expected_non_latest) == (300, 300)

    def test_counts_by_pool_whatever_the_source_tag(self):
        # counted by tag, every entry here once counted as non-latest
        spec = UpdateMixSpec(r=0.5, total=4)
        plan = sample_update_mix(
            spec, _corpus(SourceTag.CURATED_BUSINESS, 3), _corpus(SourceTag.WIKIPEDIA, 3)
        )
        report = verify_plan(plan, spec)
        assert report.ok
        assert report.realized_non_latest == 2

    def test_pools_sharing_an_id_refused(self):
        latest = _corpus(SourceTag.LATEST_UPDATE, 3)
        with pytest.raises(ValueError, match="the latest and non-latest pools share document id 'latest_update-0'"):
            sample_update_mix(UpdateMixSpec(r=0.5, total=4), latest, latest)

    def test_off_by_one_fails_with_both_counts(self):
        report = verify_plan(self._hand_plan(299, 701), UpdateMixSpec(r=0.3, total=1000))
        assert not report.ok
        assert report.expected_non_latest == 300
        assert report.realized_non_latest == 299
        assert any("expected 300" in p and "realized 299" in p for p in report.problems)

    def test_half_up_expectation(self):
        report = verify_plan(self._hand_plan(2, 1), UpdateMixSpec(r=0.5, total=3))
        assert report.expected_non_latest == 2
        assert report.ok

    def test_histogram(self):
        report = verify_plan(self._hand_plan(2, 3), UpdateMixSpec(r=0.4, total=5))
        assert report.histogram == {"curated_business": 2, "latest_update": 3}


class TestSamplePlanIO:
    def test_roundtrip(self, tmp_path):
        plan = SamplePlan(
            [PlanEntry(SourceTag.MC4, "a"), PlanEntry(SourceTag.LATEST_UPDATE, "b")]
        )
        path = plan.to_jsonl(tmp_path / "plan.jsonl")
        back = read_jsonl(path, lambda obj: PlanEntry(SourceTag(obj["source"]), obj["id"]))
        assert back == plan.entries

    def test_failed_write_keeps_earlier_plan(self, tmp_path):
        path = SamplePlan([PlanEntry(SourceTag.MC4, "old")]).to_jsonl(tmp_path / "plan.jsonl")
        before = path.read_bytes()
        # the third id cannot be encoded, so the write raises after two lines
        plan = SamplePlan(
            [PlanEntry(SourceTag.MC4, "a"), PlanEntry(SourceTag.MC4, "b"), PlanEntry(SourceTag.MC4, object())]
        )
        with pytest.raises(TypeError):
            plan.to_jsonl(path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plan.jsonl"]

    def test_counts_sum_to_length(self):
        plan = SamplePlan(
            [PlanEntry(SourceTag.MC4, "a"), PlanEntry(SourceTag.MC4, "b"), PlanEntry(SourceTag.OTHER, "c")]
        )
        assert sum(plan.source_counts.values()) == len(plan)
