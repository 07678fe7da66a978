"""Curation predicates and the disjunction law."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from synth import doc

from bizcorpus.core import Corpus, PipelineStats
from bizcorpus.curation import (
    CurationRuleSet,
    contains_cue_word,
    curate,
    load_rules,
    matches_url,
)


class TestRuleSet:
    def test_needs_at_least_one_axis(self):
        with pytest.raises(ValueError):
            CurationRuleSet()

    def test_rejects_empty_cue_word(self):
        with pytest.raises(ValueError):
            CurationRuleSet(cue_words=("solar", ""))

    def test_load_rules(self, tmp_path):
        path = tmp_path / "rules.yaml"
        path.write_text(
            "version: r2\nurl_patterns:\n  - https://example.com/news/\n"
            "cue_words:\n  - ペロブスカイト\n  - solar\n",
            encoding="utf-8",
        )
        rules = load_rules(path)
        assert rules.rule_set_version == "r2"
        assert rules.url_patterns == ("https://example.com/news/",)
        assert rules.cue_words == ("ペロブスカイト", "solar")


    @pytest.mark.parametrize(
        ("body", "key"),
        [
            # a scalar would become one-character patterns, and "h" matches every URL
            ("url_patterns: https://biz.example.com/\n", "url_patterns"),
            ("cue_words: 決算\n", "cue_words"),
            # str() of the null would add the cue word "None"
            ("cue_words: [決算, ~]\n", "cue_words"),
            ("url_patterns: [https://biz.example.com/, 7]\n", "url_patterns"),
        ],
        ids=["scalar_url_patterns", "scalar_cue_words", "null_cue_word", "int_url_pattern"],
    )
    def test_rule_lists_must_hold_strings(self, tmp_path, body, key):
        path = tmp_path / "rules.yaml"
        path.write_text("version: r1\n" + body, encoding="utf-8")
        with pytest.raises(ValueError, match=rf"rules\.yaml: {key} must be a JSON list of strings"):
            load_rules(path)


    @pytest.mark.parametrize(
        ("body", "got"),
        [
            # str() used to read this YAML float back as "1.1"
            ("version: 1.10\n", "1.1"),
            ("version: 3\n", "3"),
            ("version: [r1]\n", "['r1']"),
            ("version: ~\n", "None"),
        ],
        ids=["float_version", "int_version", "list_version", "null_version"],
    )
    def test_version_must_be_a_string(self, tmp_path, body, got):
        path = tmp_path / "rules.yaml"
        path.write_text(body + "cue_words: [決算]\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"rules.yaml: rule_set_version must be a JSON string, got {got}")):
            load_rules(path)

    def test_absent_version_is_unversioned(self, tmp_path):
        path = tmp_path / "rules.yaml"
        path.write_text("version: '1.10'\ncue_words: [決算]\n", encoding="utf-8")
        assert load_rules(path).rule_set_version == "1.10"
        path.write_text("cue_words: [決算]\n", encoding="utf-8")
        assert load_rules(path).rule_set_version == "unversioned"


class TestMatchesUrl:
    RULES = CurationRuleSet(url_patterns=("https://example.com/news/",))

    def test_prefix_match(self):
        assert matches_url(self.RULES, "https://example.com/news/a1")

    def test_no_match(self):
        assert not matches_url(self.RULES, "https://other.com/x")

    def test_empty_url(self):
        assert not matches_url(self.RULES, "")

    def test_glob_pattern(self):
        rules = CurationRuleSet(url_patterns=("https://*.example.com/ir/*",))
        assert matches_url(rules, "https://www.example.com/ir/2023")
        assert not matches_url(rules, "https://www.example.com/blog/2023")

    def test_url_match_is_case_insensitive(self):
        assert matches_url(self.RULES, "HTTPS://EXAMPLE.COM/NEWS/A1")


class TestContainsCueWord:
    def test_substring_present(self):
        rules = CurationRuleSet(cue_words=("solar",))
        assert contains_cue_word(rules, "perovskite solar cells")

    def test_substring_absent(self):
        rules = CurationRuleSet(cue_words=("solar",))
        assert not contains_cue_word(rules, "wind power")

    def test_case_folding_matches_brute_force(self):
        # oracle: lowercase scan, which is what folding must reproduce for latin
        cases = [
            ("Solar", "solar panel"),
            ("solar", "SOLAR PANEL"),
            ("Solar", "wind power"),
            ("GmbH", "Beispiel gmbh"),
        ]
        for cue, text in cases:
            rules = CurationRuleSet(cue_words=(cue,))
            assert contains_cue_word(rules, text) == (cue.lower() in text.lower())

    def test_cjk_cue_is_exact(self):
        rules = CurationRuleSet(cue_words=("半導体",))
        assert contains_cue_word(rules, "国内の半導体産業の動向")
        assert not contains_cue_word(rules, "国内の半導産業")


class TestCurate:
    RULES = CurationRuleSet(
        url_patterns=("https://biz.example.com/",), cue_words=("ビジネス",)
    )

    def _docs(self):
        return Corpus(
            [
                doc("url-hit", "plain text", url="https://biz.example.com/a"),
                doc("cue-hit", "ビジネスの記事です。", url="https://other.org/b"),
                doc("neither", "unrelated", url="https://other.org/c"),
            ]
        )

    def test_disjunction_keeps_either_hit(self):
        out = curate(self.RULES, self._docs())
        assert [d.id for d in out] == ["url-hit", "cue-hit"]

    def test_double_hit_kept_once(self):
        corpus = Corpus([doc("both", "ビジネス記事", url="https://biz.example.com/x")])
        out = curate(self.RULES, corpus)
        assert len(out) == 1

    def test_hit_counts_recorded(self):
        stats = PipelineStats()
        corpus = Corpus(
            self._docs().documents
            + [doc("both", "ビジネス記事", url="https://biz.example.com/x")]
        )
        curate(self.RULES, corpus, stats=stats)
        detail = stats.stages[-1].detail
        assert detail == {"url_hits": 2, "cue_hits": 2, "both_hits": 1}
        assert stats.stages[-1].doc_removals == {"no_rule_match": 1}

    def test_empty_axis_falls_to_other_axis(self):
        # oracle: independent two-pass filter over each axis
        docs = [
            doc("a", "ビジネスの話", url="https://biz.example.com/1"),
            doc("b", "天気の話", url="https://biz.example.com/2"),
            doc("c", "ビジネスの話", url="https://other.org/3"),
            doc("d", "天気の話", url="https://other.org/4"),
        ]
        corpus = Corpus(docs)
        cue_only = CurationRuleSet(cue_words=("ビジネス",))
        expected = [d.id for d in docs if contains_cue_word(cue_only, d.text)]
        assert [d.id for d in curate(cue_only, corpus)] == expected

        url_only = CurationRuleSet(url_patterns=("https://biz.example.com/",))
        expected = [d.id for d in docs if matches_url(url_only, d.url)]
        assert [d.id for d in curate(url_only, corpus)] == expected


@st.composite
def _rule_and_corpus(draw):
    cues = draw(st.lists(st.sampled_from(["solar", "ビジネス", "特許"]), min_size=1, max_size=2))
    rules = CurationRuleSet(
        url_patterns=("https://biz.example.com/",), cue_words=tuple(cues)
    )
    words = st.sampled_from(["solar", "ビジネス", "特許", "天気", "wind", "料理"])
    urls = st.sampled_from(["https://biz.example.com/x", "https://other.org/y", ""])
    n = draw(st.integers(min_value=0, max_value=8))
    docs = [
        doc(f"d{i}", " ".join(draw(st.lists(words, min_size=0, max_size=4))), url=draw(urls))
        for i in range(n)
    ]
    return rules, Corpus(docs)


class TestCurateProperties:
    @settings(max_examples=60, deadline=None)
    @given(_rule_and_corpus())
    def test_disjunction_law_and_subsequence(self, case):
        rules, corpus = case
        out = curate(rules, corpus)
        expected = [
            d.id
            for d in corpus
            if matches_url(rules, d.url) or contains_cue_word(rules, d.text)
        ]
        assert [d.id for d in out] == expected

    @settings(max_examples=60, deadline=None)
    @given(_rule_and_corpus())
    def test_idempotent(self, case):
        rules, corpus = case
        once = curate(rules, corpus)
        twice = curate(rules, once)
        assert twice.documents == once.documents
