"""Language-identification cascade, heuristic fallback, and wire adapter."""

from __future__ import annotations

import logging
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
    VerdictStage,
    classify_fallback,
    filter_non_japanese,
    identify,
    jp_script_ratio,
    primary_verdicts,
)


class StubClassifier:
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
        (verdict,) = primary_verdicts(config, ["なんでも"])
        assert (verdict.lang, verdict.confidence, verdict.stage) == (
            "ja",
            0.99,
            VerdictStage.PRIMARY,
        )

    def test_passthrough_en(self):
        config = LangIdConfig(classifier=StubClassifier("en", 0.99))
        (verdict,) = primary_verdicts(config, ["anything"])
        assert verdict.lang == "en"

    def test_backend_timeout_surfaces_fallback_mode_error(self):
        config = LangIdConfig(classifier=StubClassifier("ja", 0.9, fail=True))
        assert primary_verdicts(config, ["text"]) == [None]

    def test_no_backend_configured(self):
        assert primary_verdicts(LangIdConfig(), ["text"]) == [None]


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
        finally:
            backend.close()

    def test_dead_backend_becomes_fallback_mode(self, tmp_path):
        script = tmp_path / "dead.py"
        script.write_text("import sys; sys.exit(0)\n", encoding="utf-8")
        backend = SubprocessClassifier([sys.executable, str(script)])
        config = LangIdConfig(classifier=backend)
        try:
            assert primary_verdicts(config, ["text"]) == [None]
            # the cascade still classifies via the heuristic
            assert identify(config, "にほんごのれんしゅう。").lang == "ja"
        finally:
            backend.close()

    def test_one_caller_runs_one_child(self, tmp_path):
        script = tmp_path / "pid_child.py"
        script.write_text(PID_RECORDING_CHILD, encoding="utf-8")
        pid_file = tmp_path / "classifier.pids"
        backend = SubprocessClassifier([sys.executable, str(script), str(pid_file)])
        docs = [doc(f"d{i}", "にほんごのぶん。") for i in range(100)]
        try:
            filter_non_japanese(LangIdConfig(classifier=backend), Corpus(docs))
            assert [backend.classify("english") for _ in range(3)] == [("ja", 0.99)] * 3
        finally:
            backend.close()
        assert len(pid_file.read_text(encoding="utf-8").split()) == 1


# Classifier child that appends its pid to argv[1] on start.
PID_RECORDING_CHILD = textwrap.dedent(
    """
    import json, os, sys
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    for line in sys.stdin:
        print(json.dumps({"lang": "ja", "confidence": 0.99}), flush=True)
    """
)


FLAKY = textwrap.dedent(
    """
    import json, sys
    for line in sys.stdin:
        text = json.loads(line)["text"]
        if text == "die":
            sys.exit(0)
        if text == "garbled":
            print("not json", flush=True)
        elif text == "no confidence":
            print(json.dumps({"lang": "ja"}), flush=True)
        else:
            lang = "ja" if any(0x3040 <= ord(c) <= 0x30FF for c in text) else "en"
            confidence = 0.5 if text.startswith("low") else 0.97
            print(json.dumps({"lang": lang, "confidence": confidence}), flush=True)
    """
)


class TestPipelinedCalls:
    @pytest.fixture
    def spawn(self, tmp_path):
        script = tmp_path / "flaky.py"
        script.write_text(FLAKY, encoding="utf-8")
        backends = []

        def _spawn() -> SubprocessClassifier:
            backends.append(SubprocessClassifier([sys.executable, str(script)]))
            return backends[-1]

        yield _spawn
        for backend in backends:
            backend.close()

    def test_many_matches_one_call_per_text(self, spawn):
        # several windows of requests; every seventh text outgrows a pipe buffer
        texts = [
            f"にほんごのぶん{i}。" * (9000 if i % 7 == 0 else 1) if i % 2 else f"english {i}"
            for i in range(150)
        ]
        backend = spawn()
        assert backend.classify_many(texts) == [backend.classify(text) for text in texts]

    def test_bad_replies_and_exit_give_no_answer(self, spawn):
        texts = ["にほんご。", "garbled", "no confidence", "english", "die", "にほんご。", "english"]
        backend = spawn()
        assert backend.classify_many(texts) == [("ja", 0.97), None, None, ("en", 0.97), None, None, None]
        assert backend.classify_many(["english"]) == [None]
        with pytest.raises(RuntimeError):
            backend.classify("english")

    def test_filter_matches_one_call_per_document(self, spawn):
        # the stub says ja for any kana; the fallback needs a kana ratio of 0.05
        texts = ["にほんご。", "low english", "garbled", "english", "low にほんご。", "no confidence"]
        texts += ["low english text with just one か", "plain english text with just one か"]
        docs = [doc(f"d{i}", text) for i, text in enumerate(texts + ["die"] + texts)]
        pipelined = spawn()

        class OneByOne:  # no classify_many: the filter makes one call per document
            inner = spawn()

            def classify(self, text: str) -> tuple[str, float]:
                return self.inner.classify(text)

        runs = []
        for backend in (pipelined, OneByOne()):
            stats = PipelineStats()
            out = filter_non_japanese(LangIdConfig(classifier=backend), Corpus(docs), stats=stats)
            runs.append((out.documents, stats.stages[-1].doc_removals))
        assert runs[0] == runs[1]
        # after "die" every document falls back, so d16 goes where d7 stayed
        assert [d.id for d in runs[0][0]] == ["d0", "d4", "d7", "d9", "d13"]

    def test_lost_verdicts_warn_once_per_call(self, spawn, caplog):
        texts = ["にほんご。", "english", "die", "にほんご。", "english"]
        docs = [doc(f"d{i}", text) for i, text in enumerate(texts)]

        def warnings(backend, docs) -> list[str]:
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="bizcorpus.langid"):
                filter_non_japanese(LangIdConfig(classifier=backend), Corpus(docs))
            return [record.getMessage() for record in caplog.records]

        assert warnings(spawn(), docs[:2] + docs[3:]) == []
        assert warnings(None, docs) == []
        # the child exits at "die": that document and the two after it get no verdict
        (message,) = warnings(spawn(), docs)
        assert "3 of 5 documents" in message
