"""Line classification and document-level noise filtering."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from synth import doc

from bizcorpus.core import Corpus, PipelineStats
from bizcorpus.noise import LineClass, NoiseConfig, classify_line, denoise_corpus, filter_document

CFG = NoiseConfig()


class TestClassifyLine:
    @pytest.mark.parametrize(
        "line",
        ["2023/10/05", "2023-10-05", "2023年10月5日", "令和5年10月5日", "平成元年1月8日"],
    )
    def test_date_only(self, line):
        assert classify_line(CFG, line) is LineClass.DATE_ONLY

    def test_date_with_trailing_text_is_not_date_only(self):
        assert classify_line(CFG, "2023/10/05 のニュース") is not LineClass.DATE_ONLY

    @pytest.mark.parametrize("line", ["https://example.com/page", "www.example.com/x"])
    def test_url_only(self, line):
        assert classify_line(CFG, line) is LineClass.URL_ONLY

    @pytest.mark.parametrize(
        "line",
        ["<div><span>", '<li class="nav">', "TOP | IR | 地図", "ホーム・地図・IR"],
    )
    def test_markup_fragment(self, line):
        assert classify_line(CFG, line) is LineClass.MARKUP_FRAGMENT

    def test_long_tokens_are_not_navigation(self):
        line = "営業利益の見通し | 通期では増収増益を予想"
        assert classify_line(CFG, line) is LineClass.NON_SENTENTIAL

    @pytest.mark.parametrize(
        "line", ["今日は会議があります。", "売上が伸びた！", "It works.", "Why not?"]
    )
    def test_sentential(self, line):
        assert classify_line(CFG, line) is LineClass.SENTENTIAL

    def test_everything_else_is_non_sentential(self):
        assert classify_line(CFG, "おわりのないぎょう") is LineClass.NON_SENTENTIAL


class TestFilterDocument:
    def test_strip_only(self):
        text = "\n".join(
            ["2023/10/05", "一文目です。", "二文目です。", "2023-10-06", "三文目です。", "四文目です。"]
        )
        out = filter_document(CFG, doc("d", text, lang="ja"))
        assert out is not None
        assert out.text.splitlines() == ["一文目です。", "二文目です。", "三文目です。", "四文目です。"]

    def test_terminatorless_document_removed(self):
        text = "\n".join(f"おわりのないぎょう{i}" for i in range(10))
        assert filter_document(CFG, doc("d", text, lang="ja")) is None

    def test_ratio_boundary_kept(self):
        # 6 sentential / 4 non-sentential -> 0.6 >= 0.5; oracle below recounts
        lines = [f"ぶん{i}です。" for i in range(6)] + [f"はんぱなぎょう{i}" for i in range(4)]
        sentential = sum(1 for ln in lines if ln.strip()[-1] in "。！？.!?")
        assert sentential / len(lines) == 0.6
        out = filter_document(CFG, doc("d", "\n".join(lines), lang="ja"))
        assert out is not None
        assert out.text.splitlines() == lines

    def test_ratio_below_threshold_removed(self):
        lines = [f"ぶん{i}です。" for i in range(4)] + [f"はんぱなぎょう{i}" for i in range(6)]
        assert filter_document(CFG, doc("d", "\n".join(lines), lang="ja")) is None

    def test_punctuationless_language_exempt(self):
        text = "\n".join(["บรรทัดแรกไม่มีจุด", "บรรทัดสองไม่มีจุด"])
        out = filter_document(CFG, doc("d", text, lang="th"))
        assert out is not None
        assert out.text == text

    def test_all_noise_document_removed(self):
        out = filter_document(CFG, doc("d", "2023/10/05\nhttps://x.example.com/a", lang="ja"))
        assert out is None

    def test_all_terminator_lines_kept_intact(self):
        text = "\n".join([f"だい{i}ぶんです。" for i in range(5)])
        out = filter_document(CFG, doc("d", text, lang="ja"))
        assert out is not None and out.text == text

    def test_blank_lines_stripped(self):
        out = filter_document(CFG, doc("d", "一文目です。\n\n二文目です。", lang="ja"))
        assert out is not None
        assert out.text == "一文目です。\n二文目です。"


_LINE = st.sampled_from(
    [
        "ほんぶんのぶんしょうです。",
        "うりあげがのびました！",
        "2023/10/05",
        "https://example.com/x",
        "<div>",
        "TOP | IR",
        "はんぱなぎょう",
        "",
    ]
)


class TestFilterProperties:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(_LINE, min_size=1, max_size=12))
    def test_idempotent(self, lines):
        document = doc("d", "\n".join(lines), lang="ja")
        once = filter_document(CFG, document)
        if once is None:
            return
        twice = filter_document(CFG, once)
        assert twice is not None
        assert twice.text == once.text

    @settings(max_examples=80, deadline=None)
    @given(st.lists(_LINE, min_size=1, max_size=12))
    def test_output_is_subsequence_of_input_lines(self, lines):
        document = doc("d", "\n".join(lines), lang="ja")
        out = filter_document(CFG, document)
        if out is None:
            return
        remaining = iter(lines)
        for kept in out.text.splitlines():
            for candidate in remaining:
                if candidate == kept:
                    break
            else:
                pytest.fail(f"line {kept!r} is not in order in the input")


class TestDenoiseCorpus:
    def test_planted_reason_counts(self):
        docs = [
            doc("a", "2023/10/05\nいちぶんめです。\nにぶんめです。", lang="ja"),
            doc("b", "https://x.example.com/nav\nさんぶんめです。\nよんぶんめです。", lang="ja"),
            doc("c", "<div><span>\nごぶんめです。\nろくぶんめです。", lang="ja"),
            doc("d", "おわりのないぎょう\nもうひとつ", lang="ja"),
            doc("e", "ただのぶんです。", lang="ja"),
        ]
        stats = PipelineStats()
        out = denoise_corpus(CFG, Corpus(docs), stats=stats)
        assert [d.id for d in out] == ["a", "b", "c", "e"]
        stage = stats.stages[-1]
        assert stage.detail["lines_date_only"] == 1
        assert stage.detail["lines_url_only"] == 1
        assert stage.detail["lines_markup_fragment"] == 1
        assert stage.doc_removals == {"non_sentential": 1}

    def test_parallel_matches_sequential(self):
        docs = [
            doc(
                f"d{i}",
                "2023/10/05\nだいいちぶん。\nだいにぶん。" if i % 2 else "おわりなし",
                lang="ja",
            )
            for i in range(40)
        ]
        sequential = denoise_corpus(CFG, Corpus(docs), workers=1)
        parallel = denoise_corpus(CFG, Corpus(docs), workers=4)
        assert sequential.documents == parallel.documents

    def test_duplicates_match_one_document_at_a_time(self):
        noisy = "2023/10/05\nいちぶんめです。\nにぶんめです。"
        unpunctuated = "おわりのないぎょう\nもうひとつ"
        texts = [noisy, unpunctuated, noisy, "<div>\nhttps://x.example.com", unpunctuated]
        texts += ["ただのぶんです。", noisy, "<div>\nhttps://x.example.com", unpunctuated]
        docs = [doc(f"d{i}", text, url=f"u{i}", lang="ja") for i, text in enumerate(texts)]
        # the same text under a punctuationless language is kept where "ja" goes
        docs.insert(2, doc("th", unpunctuated, lang="th"))
        stats = PipelineStats()
        out = denoise_corpus(CFG, Corpus(docs), stats=stats)
        one_by_one = [filter_document(CFG, d) for d in docs]
        assert out.documents == [d for d in one_by_one if d is not None]
        assert "th" in [d.id for d in out]
        detail: Counter[str] = Counter()
        removals: Counter[str] = Counter()
        for d in docs:  # one document per call: nothing to share
            alone = PipelineStats()
            denoise_corpus(CFG, Corpus([d]), stats=alone)
            detail.update(alone.stages[-1].detail)
            removals.update(alone.stages[-1].doc_removals)
        assert stats.stages[-1].detail == detail
        assert stats.stages[-1].doc_removals == removals == {"non_sentential": 3, "empty_after_strip": 2}
