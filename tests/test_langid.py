"""Language-identification cascade, heuristic fallback, and wire adapter."""

from __future__ import annotations

import logging
import math
import sys
import textwrap
import threading
from collections import Counter

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from synth import doc

from bizcorpus.backends import SubprocessClassifier, WireProtocolError
from bizcorpus.core import Corpus, PipelineStats
from bizcorpus.langid import (
    LangIdConfig,
    VerdictStage,
    _kana_share_reaches,
    classify_fallback,
    filter_non_japanese,
    identify,
    iter_japanese,
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
        verdict = identify(config, "なんでも")
        assert (verdict.lang, verdict.confidence, verdict.stage) == (
            "ja",
            0.99,
            VerdictStage.PRIMARY,
        )

    def test_passthrough_en(self):
        config = LangIdConfig(classifier=StubClassifier("en", 0.99))
        verdict = identify(config, "anything")
        assert (verdict.lang, verdict.stage) == ("en", VerdictStage.PRIMARY)

    def test_backend_timeout_surfaces_fallback_mode_error(self):
        # 0.9 would stand; the raise leaves the text to the script fallback
        config = LangIdConfig(classifier=StubClassifier("ja", 0.9, fail=True))
        verdict = identify(config, "text")
        assert (verdict.lang, verdict.stage) == ("en", VerdictStage.FALLBACK)

    def test_no_backend_configured(self):
        verdict = identify(LangIdConfig(), "text")
        assert (verdict.lang, verdict.stage) == ("en", VerdictStage.FALLBACK)


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
        assert _kana_share_reaches(text, 0.04)
        assert not _kana_share_reaches(text, 0.05)
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
    @given(
        st.text(max_size=60),
        st.integers(min_value=1, max_value=20),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_adding_hiragana_never_decreases_ratio(self, text, k, threshold):
        if _kana_share_reaches(text, threshold):
            assert _kana_share_reaches(text + "あ" * k, threshold)

    def test_kana_block_edges(self):
        # U+3040-U+309F and U+30A0-U+30FF count, their neighbours do not
        text = "\u303f\u3040\u309f\u30a0\u30ff\u3100"
        assert _kana_share_reaches(text, 4 / 6)
        assert not _kana_share_reaches(text, math.nextafter(4 / 6, 1.0))


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

    def test_one_classify_call_per_distinct_text(self):
        class Recording:  # no classify_many: one classify call per text asked about
            def __init__(self):
                self.asked: list[str] = []

            def classify(self, text: str) -> tuple[str, float]:
                self.asked.append(text)
                lang = "ja" if any(0x3040 <= ord(c) <= 0x30FF for c in text) else "en"
                return lang, 0.5 if text.startswith("low") else 0.97

        texts = ["にほんご。", "english", "low english with one か", "にほんご。"]
        texts += ["low にほんご。", "english", "low english with one か", "にほんご。", "low привет"]
        docs = [doc(f"d{i}", text) for i, text in enumerate(texts)]
        backend = Recording()
        config = LangIdConfig(classifier=backend)
        stats = PipelineStats()
        out = filter_non_japanese(config, Corpus(docs), stats=stats)
        assert backend.asked == [
            "にほんご。", "english", "low english with one か", "low にほんご。", "low привет"
        ]
        reference = [identify(config, d.text) for d in docs]
        assert out.documents == [d.with_lang("ja") for d, v in zip(docs, reference) if v.lang == "ja"]
        removed = Counter(f"lang:{v.lang}" for v in reference if v.lang != "ja")
        assert stats.stages[-1].doc_removals == removed == {"lang:en": 4, "lang:ru": 1}

    def test_an_answer_too_many_fails_the_stage(self):
        class Shifted:  # answers out of step by one
            def classify_many(self, texts):
                return [("en", 1.0), ("ja", 1.0), ("ja", 1.0)]

        corpus = Corpus([doc("a", "にほんご。"), doc("b", "english")])
        with pytest.raises(RuntimeError, match=r"^Shifted.classify_many gave more than 2 answers for 2 texts$") as failure:
            filter_non_japanese(LangIdConfig(classifier=Shifted()), corpus)
        assert failure.value.stage == "lang_id"

    @pytest.mark.parametrize("kept", [2, 1])
    def test_filter_closes_a_lazy_answer_list(self, kept):
        class Answers:  # a lazy classify_many answer list with a close method
            closed = False

            def __init__(self, texts):
                self.texts = texts

            def __iter__(self):
                return iter([("ja", 1.0)] * len(self.texts))

            def close(self):
                self.closed = True

        class Lazy:
            def classify_many(self, texts):
                self.answers = Answers(texts)
                return self.answers

        backend = Lazy()
        stream = iter_japanese(LangIdConfig(classifier=backend), Corpus([doc("a", "あ"), doc("b", "い")]))
        assert [d.id for _, d in zip(range(kept), stream)] == ["a", "b"][:kept]
        assert not backend.answers.closed
        # read to the end, or closed early: the answer list is closed at once
        if kept == 2:
            assert list(stream) == []
        else:
            stream.close()
        assert backend.answers.closed


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
            with pytest.raises(WireProtocolError, match="closed its stdout"):
                backend.classify("text")
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
        assert list(backend.classify_many(texts)) == [backend.classify(text) for text in texts]

    @pytest.mark.parametrize("n", [1, 15, 16, 17, 32, 33, 97])
    def test_many_matches_one_call_per_text_at_batch_edges(self, spawn, n):
        # around each flush batch (16) and window (32); every fifth text
        # outgrows a pipe buffer
        texts = [
            f"にほんごのぶん{i}。" * (9000 if i % 5 == 0 else 1) if i % 2 else f"english {i}"
            for i in range(n)
        ]
        backend = spawn()
        answers: dict[str, list] = {}

        def exchange() -> None:
            answers["many"] = list(backend.classify_many(texts))
            answers["one"] = [backend.classify(text) for text in texts]

        thread = threading.Thread(target=exchange, daemon=True)
        thread.start()
        thread.join(timeout=20)
        assert not thread.is_alive(), f"the exchange of {n} requests did not finish"
        assert answers["many"] == answers["one"]
        assert all(isinstance(answer, tuple) for answer in answers["many"])

    def test_bad_replies_and_exit_give_no_answer(self, spawn):
        texts = ["にほんご。", "garbled", "no confidence", "english", "die", "にほんご。", "english"]
        backend = spawn()
        answers = [a if isinstance(a, tuple) else str(a) for a in backend.classify_many(texts)]
        closed = "backend process closed its stdout"
        assert answers == [
            ("ja", 0.97),
            "backend sent invalid JSON: 'not json\\n'",
            """classifier reply has no 'confidence': '{"lang": "ja"}'""",
            ("en", 0.97),
            closed,
            closed,
            closed,
        ]
        (answer,) = backend.classify_many(["english"])
        assert isinstance(answer, WireProtocolError) and str(answer) == closed
        with pytest.raises(WireProtocolError, match=closed):
            backend.classify("english")

    def test_answers_arrive_before_the_exchange_ends(self, spawn):
        texts = [f"english {i}" for i in range(100)]
        backend = spawn()
        answers = backend.classify_many(texts)
        replies = iter(answers)
        assert next(replies) == ("en", 0.97)
        # the child is out of the pool until the exchange ends
        assert backend._proc._idle == []
        assert list(replies) == [("en", 0.97)] * 99
        assert backend.classify("english") == ("en", 0.97)

    def test_closing_the_answers_ends_the_exchange(self, spawn):
        backend = spawn()
        answers = backend.classify_many(["english", "にほんご。"])
        replies = iter(answers)
        assert [next(replies), next(replies)] == [("en", 0.97), ("ja", 0.97)]
        # every reply read but the exchange not yet ended: close hands the child back
        answers.close()
        assert backend._proc._idle == backend._proc._procs
        abandoned = backend.classify_many([f"english {i}" for i in range(100)])
        replies = iter(abandoned)
        assert next(replies) == ("en", 0.97)
        # ``replies`` is still referenced: close alone retires the child
        abandoned.close()
        assert backend._proc._broken
        (proc,) = backend._proc._procs
        backend.close()
        assert proc.returncode is not None

    def test_abandoned_exchange_is_never_reused(self, spawn):
        backend = spawn()
        replies = iter(backend.classify_many([f"english {i}" for i in range(100)]))
        assert next(replies) == ("en", 0.97)
        replies.close()
        # replies to the unread requests may still be in the pipe: no later
        # call reads them as its own, and none spawns another child
        abandoned = "an earlier exchange was abandoned with replies unread"
        with pytest.raises(WireProtocolError, match=abandoned):
            backend.classify("english")
        (answer,) = backend.classify_many(["にほんご。"])
        assert isinstance(answer, WireProtocolError) and abandoned in str(answer)
        (proc,) = backend._proc._procs
        backend.close()
        assert proc.returncode is not None

    def test_filter_matches_one_call_per_document(self, spawn):
        # the stub says ja for any kana; the fallback needs a kana ratio of 0.05
        texts = ["にほんご。", "low english", "garbled", "english", "low にほんご。", "no confidence"]
        texts += ["low english text with just one か", "plain english text with just one か"]
        # after "die" come new texts, then one repeat of a text answered before it
        after = [f"post {text}" for text in texts] + [texts[7]]
        docs = [doc(f"d{i}", text) for i, text in enumerate(texts + ["die"] + after)]
        pipelined = spawn()

        class OneByOne:  # no classify_many: the filter makes one call per distinct text
            inner = spawn()

            def classify(self, text: str) -> tuple[str, float]:
                return self.inner.classify(text)

        runs = []
        for backend in (pipelined, OneByOne()):
            stats = PipelineStats()
            out = filter_non_japanese(LangIdConfig(classifier=backend), Corpus(docs), stats=stats)
            runs.append((out.documents, stats.stages[-1].doc_removals))
        assert runs[0] == runs[1]
        # after "die" every new text falls back, so d16 goes where d7 stayed;
        # d17 repeats d7's text and keeps d7's verdict
        assert [d.id for d in runs[0][0]] == ["d0", "d4", "d7", "d9", "d13", "d17"]

    @pytest.mark.parametrize(
        "reply, problem",
        [
            ('{"lang": null, "confidence": true}', "a non-string 'lang'"),
            ('{"lang": 7, "confidence": 0.97}', "a non-string 'lang'"),
            ('{"lang": "en", "confidence": true}', "a non-number 'confidence'"),
            ('{"lang": "en", "confidence": "0.97"}', "a non-number 'confidence'"),
            ('{"confidence": 0.97}', "no 'lang'"),
        ],
        ids=["null_lang", "number_lang", "boolean_confidence", "string_confidence", "no_lang"],
    )
    def test_reply_of_the_wrong_type_falls_back(self, tmp_path, caplog, reply, problem):
        script = tmp_path / "typed.py"
        script.write_text(f"import sys\nfor line in sys.stdin:\n    print({reply!r}, flush=True)\n")
        backend = SubprocessClassifier([sys.executable, str(script)])
        docs = [doc("d0", "にほんごのぶんしょうです。"), doc("d1", "plain english")]
        try:
            with caplog.at_level(logging.WARNING, logger="bizcorpus.langid"):
                out = filter_non_japanese(LangIdConfig(classifier=backend), Corpus(docs))
        finally:
            backend.close()
        # the script fallback decides both: the Japanese document stays
        assert out.documents == [docs[0].with_lang("ja")]
        (record,) = caplog.records
        assert "2 of 2 documents" in record.getMessage()
        assert f"first cause: WireProtocolError: classifier reply has {problem}: {reply!r}" in (
            record.getMessage()
        )

    @pytest.mark.parametrize(
        "answer, cause",
        [
            # clamped to a confident primary verdict once
            (("ja", 7.5), "ConfigError: confidence must be in [0, 1], got 7.5"),
            # str() once made it the language "5"
            ((5, 0.99), "ConfigError: lang must be a JSON string, got 5"),
        ],
        ids=["confidence_out_of_range", "number_lang"],
    )
    def test_in_process_pair_that_is_no_verdict_falls_back(self, caplog, answer, cause):
        config = LangIdConfig(classifier=StubClassifier(*answer))
        docs = [doc("d0", "にほんごのぶんしょうです。"), doc("d1", "plain english")]
        assert identify(config, docs[1].text).stage is VerdictStage.FALLBACK
        with caplog.at_level(logging.WARNING, logger="bizcorpus.langid"):
            out = filter_non_japanese(config, Corpus(docs))
        # the script fallback decides both: the Japanese document stays
        assert out.documents == [docs[0].with_lang("ja")]
        (record,) = caplog.records
        assert "2 of 2 documents" in record.getMessage()
        assert f"first cause: {cause}" in record.getMessage()

    def test_wire_confidence_out_of_range_falls_back(self, tmp_path, caplog):
        reply = '{"lang": "ja", "confidence": 7.5}'
        script = tmp_path / "eager.py"
        script.write_text(f"import sys\nfor line in sys.stdin:\n    print({reply!r}, flush=True)\n")
        backend = SubprocessClassifier([sys.executable, str(script)])
        docs = [doc("d0", "にほんごのぶんしょうです。"), doc("d1", "plain english")]
        try:
            with caplog.at_level(logging.WARNING, logger="bizcorpus.langid"):
                out = filter_non_japanese(LangIdConfig(classifier=backend), Corpus(docs))
        finally:
            backend.close()
        assert out.documents == [docs[0].with_lang("ja")]
        (record,) = caplog.records
        assert "2 of 2 documents" in record.getMessage()
        assert "first cause: ConfigError: confidence must be in [0, 1], got 7.5" in record.getMessage()

    def test_every_backend_shape_decides_alike(self, spawn, caplog):
        texts = ["にほんご。", "low english", "no confidence", "english", "low にほんご。"]
        docs = [doc(f"d{i}", text) for i, text in enumerate(texts + texts[:3])]
        no_confidence = """classifier reply has no 'confidence': '{"lang": "ja"}'"""

        def flaky(text: str) -> tuple[str, float]:  # FLAKY's answers, in process
            if text == "no confidence":
                raise WireProtocolError(no_confidence)
            lang = "ja" if any(0x3040 <= ord(c) <= 0x30FF for c in text) else "en"
            return lang, 0.5 if text.startswith("low") else 0.97

        class ClassifyOnly:
            def classify(self, text: str) -> tuple[str, float]:
                return flaky(text)

        class InProcessGenerator(ClassifyOnly):
            def classify_many(self, texts):
                for text in texts:
                    try:
                        answer = flaky(text)
                    except WireProtocolError as exc:
                        answer = exc
                    yield answer

        runs = []
        for backend in (ClassifyOnly(), InProcessGenerator(), spawn()):
            caplog.clear()
            stats = PipelineStats()
            with caplog.at_level(logging.WARNING, logger="bizcorpus.langid"):
                out = filter_non_japanese(LangIdConfig(classifier=backend), Corpus(docs), stats=stats)
            runs.append((out.documents, stats.stages, [r.getMessage() for r in caplog.records]))
        assert runs[0] == runs[1] == runs[2]
        kept, (lang_id,), (message,) = runs[0]
        assert [d.id for d in kept] == ["d0", "d4", "d5"]
        assert lang_id.doc_removals == {"lang:en": 5}
        assert "2 of 8 documents" in message
        assert f"first cause: WireProtocolError: {no_confidence}" in message

    def test_lost_verdicts_warn_once_per_call(self, spawn, caplog):
        # after "die": two new texts, then a repeat of a text answered before it
        texts = ["にほんご。", "english", "die", "にほんご、もういちど。", "english again", "english"]
        docs = [doc(f"d{i}", text) for i, text in enumerate(texts)]

        def warnings(backend, docs) -> list[str]:
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="bizcorpus.langid"):
                filter_non_japanese(LangIdConfig(classifier=backend), Corpus(docs))
            return [record.getMessage() for record in caplog.records]

        assert warnings(spawn(), docs[:2] + docs[3:]) == []
        assert warnings(None, docs) == []
        # the child exits at "die": that document and the two new texts after it
        # get no verdict; the repeated "english" keeps the verdict it had
        (message,) = warnings(spawn(), docs)
        assert "3 of 6 documents" in message
        assert "first cause: WireProtocolError: backend process closed its stdout" in message
        no_confidence = [doc("d5", "no confidence"), doc("d6", "garbled"), docs[0]]
        (message,) = warnings(spawn(), no_confidence)
        assert "2 of 3 documents" in message
        assert (
            "first cause: WireProtocolError: classifier reply has no 'confidence': "
            """'{"lang": "ja"}'"""
        ) in message

        class Failing:  # no classify_many: the exception from classify is the cause
            def classify(self, text: str) -> tuple[str, float]:
                raise TimeoutError(f"no answer for {text!r}")

        (message,) = warnings(Failing(), docs[:2])
        assert "2 of 2 documents" in message
        assert "first cause: TimeoutError: no answer for 'にほんご。'" in message
