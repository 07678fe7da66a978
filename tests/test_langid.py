"""Language-identification cascade, heuristic fallback, and wire adapter."""

from __future__ import annotations

import sys
import textwrap

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from synth import doc

from bizcorpus.backends import SubprocessClassifier
from bizcorpus.core import Corpus, PipelineStats
from bizcorpus.langid import (
    LangIdConfig,
    PrimaryClassifierUnavailable,
    VerdictStage,
    classify_fallback,
    classify_primary,
    filter_non_japanese,
    identify,
    jp_script_ratio,
)


class StubClassifier:
    shareable = True

    def __init__(self, lang: str, confidence: float, fail: bool = False):
        self.lang = lang
        self.confidence = confidence
        self.fail = fail

    def classify(self, text: str) -> tuple[str, float]:
        if self.fail:
            raise TimeoutError("backend timed out")
        return self.lang, self.confidence


class TestPrimary:
    def test_passthrough_ja(self):
        config = LangIdConfig(classifier=StubClassifier("ja", 0.99))
        verdict = classify_primary(config, "なんでも")
        assert (verdict.lang, verdict.confidence, verdict.stage) == (
            "ja",
            0.99,
            VerdictStage.PRIMARY,
        )

    def test_passthrough_en(self):
        config = LangIdConfig(classifier=StubClassifier("en", 0.99))
        verdict = classify_primary(config, "anything")
        assert verdict.lang == "en"

    def test_backend_timeout_surfaces_fallback_mode_error(self):
        config = LangIdConfig(classifier=StubClassifier("ja", 0.9, fail=True))
        with pytest.raises(PrimaryClassifierUnavailable, match="fallback-only"):
            classify_primary(config, "text")

    def test_no_backend_configured(self):
        with pytest.raises(PrimaryClassifierUnavailable):
            classify_primary(LangIdConfig(), "text")


class TestFallback:
    def test_pure_hiragana_is_japanese(self):
        verdict = classify_fallback(LangIdConfig(), "これはにほんごのぶんしょうです。")
        assert verdict.lang == "ja"
        assert verdict.stage is VerdictStage.FALLBACK

    def test_pure_ascii_is_not_japanese(self):
        verdict = classify_fallback(LangIdConfig(), "A plain English paragraph about markets.")
        assert verdict.lang != "ja"
        assert verdict.lang == "en"

    def test_ratio_just_below_threshold(self):
        # 4 hiragana among 100 chars -> ratio 0.04, below the 0.05 default
        text = "あいうえ" + "x" * 96
        assert len(text) == 100
        assert oracles.jp_script_ratio(text) == pytest.approx(0.04)
        assert jp_script_ratio(text) == pytest.approx(0.04)
        verdict = classify_fallback(LangIdConfig(), text)
        assert verdict.lang != "ja"

    def test_ratio_at_threshold_is_japanese(self):
        text = "あいうえお" + "x" * 95
        assert oracles.jp_script_ratio(text) == pytest.approx(0.05)
        verdict = classify_fallback(LangIdConfig(), text)
        assert verdict.lang == "ja"
        assert verdict.confidence == pytest.approx(1.0)

    def test_empty_text_undetermined(self):
        verdict = classify_fallback(LangIdConfig(), "")
        assert (verdict.lang, verdict.confidence) == ("und", 0.0)

    def test_other_scripts_guessed(self):
        assert classify_fallback(LangIdConfig(), "สวัสดีครับ").lang == "th"
        assert classify_fallback(LangIdConfig(), "안녕하세요").lang == "ko"
        assert classify_fallback(LangIdConfig(), "Это русский текст.").lang == "ru"

    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=60), st.integers(min_value=1, max_value=20))
    def test_adding_hiragana_never_decreases_ratio(self, text, k):
        assert jp_script_ratio(text + "あ" * k) >= jp_script_ratio(text)

    def test_kana_block_edges(self):
        # U+3040-U+309F and U+30A0-U+30FF count, their neighbours do not
        assert jp_script_ratio("\u303f\u3040\u309f\u30a0\u30ff\u3100") == 4 / 6

    @settings(max_examples=200, deadline=None)
    @given(st.text(st.one_of(st.characters(), st.sampled_from("\u303f\u3040\u309f\u30a0\u30ff\u3100"))))
    def test_ratio_matches_brute_force(self, text):
        assert jp_script_ratio(text) == oracles.jp_script_ratio(text)


class TestCascade:
    def test_uncertain_primary_defers_to_fallback(self):
        config = LangIdConfig(classifier=StubClassifier("ja", 0.5))
        verdict = identify(config, "An English sentence only.")
        assert verdict.stage is VerdictStage.FALLBACK
        assert verdict.lang == "en"

    def test_confident_primary_wins(self):
        config = LangIdConfig(classifier=StubClassifier("ja", 0.95))
        verdict = identify(config, "An English sentence only.")
        assert verdict.stage is VerdictStage.PRIMARY
        assert verdict.lang == "ja"

    def test_zero_threshold_means_primary_always_wins(self):
        config = LangIdConfig(
            uncertainty_threshold=0.0, classifier=StubClassifier("ko", 0.01)
        )
        verdict = identify(config, "ごく普通のにほんごです。")
        assert verdict.stage is VerdictStage.PRIMARY

    def test_broken_backend_falls_through(self):
        config = LangIdConfig(classifier=StubClassifier("xx", 1.0, fail=True))
        verdict = identify(config, "これはにほんごです。")
        assert verdict.stage is VerdictStage.FALLBACK
        assert verdict.lang == "ja"

    def test_deterministic(self):
        config = LangIdConfig()
        text = "まいにちのにっき。"
        assert identify(config, text) == identify(config, text)


class TestFilter:
    def test_keeps_only_japanese(self):
        corpus = Corpus(
            [doc("ja", "これはにほんごのきじです。"), doc("en", "An English article.")]
        )
        out = filter_non_japanese(LangIdConfig(), corpus)
        assert [d.id for d in out] == ["ja"]
        assert out[0].lang == "ja"

    def test_empty_corpus(self):
        assert len(filter_non_japanese(LangIdConfig(), Corpus([]))) == 0

    def test_planted_non_japanese_counts(self):
        # 1000 docs with 300 planted non-ja; labels known at generation time
        docs = []
        for i in range(700):
            docs.append(doc(f"ja{i}", f"だい{i}かいのかいぎじろくです。"))
        for i in range(300):
            docs.append(doc(f"en{i}", f"English article number {i} about markets."))
        stats = PipelineStats()
        out = filter_non_japanese(LangIdConfig(), Corpus(docs), stats=stats)
        assert len(out) == 700
        assert all(d.lang == "ja" for d in out)
        assert stats.stages[-1].doc_removals == {"lang:en": 300}

    def test_idempotent(self):
        corpus = Corpus([doc("a", "にほんごのぶん。"), doc("b", "English only.")])
        once = filter_non_japanese(LangIdConfig(), corpus)
        twice = filter_non_japanese(LangIdConfig(), once)
        assert twice.documents == once.documents

    def test_parallel_matches_sequential(self):
        docs = [doc(f"d{i}", f"ぶんしょう{i}。" if i % 3 else f"english {i}.") for i in range(60)]
        sequential = filter_non_japanese(LangIdConfig(), Corpus(docs), workers=1)
        parallel = filter_non_japanese(LangIdConfig(), Corpus(docs), workers=4)
        assert sequential.documents == parallel.documents


CHILD = textwrap.dedent(
    """
    import json, sys
    for line in sys.stdin:
        req = json.loads(line)
        text = req["text"]
        lang = "ja" if any(0x3040 <= ord(c) <= 0x30FF for c in text) else "en"
        print(json.dumps({"lang": lang, "confidence": 0.97}), flush=True)
    """
)


class TestWireAdapter:
    def test_subprocess_classifier_roundtrip(self, tmp_path):
        script = tmp_path / "child.py"
        script.write_text(CHILD, encoding="utf-8")
        backend = SubprocessClassifier([sys.executable, str(script)])
        try:
            assert backend.classify("これはにほんご。") == ("ja", 0.97)
            assert backend.classify("plain english") == ("en", 0.97)
            assert backend.shareable is False
        finally:
            backend.close()

    def test_dead_backend_becomes_fallback_mode(self, tmp_path):
        script = tmp_path / "dead.py"
        script.write_text("import sys; sys.exit(0)\n", encoding="utf-8")
        backend = SubprocessClassifier([sys.executable, str(script)])
        config = LangIdConfig(classifier=backend)
        try:
            with pytest.raises(PrimaryClassifierUnavailable):
                classify_primary(config, "text")
            # the cascade still classifies via the heuristic
            assert identify(config, "にほんごのれんしゅう。").lang == "ja"
        finally:
            backend.close()
