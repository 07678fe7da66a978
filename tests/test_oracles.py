"""The run-counting tokenizer and kana share test, the histogram script
counts, the language fallback and the sentence split of one line against
the per-character loops in ``oracles``; the whole-text sentence split and
sentence dedup against the line-by-line versions there; document dedup
against the fingerprint-bucketed loop there."""

from __future__ import annotations

import math
import re
import sys
from collections import Counter
from itertools import combinations

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synth import doc

from bizcorpus.core import (
    _CJK_RANGES,
    Corpus,
    Document,
    PipelineStats,
    SourceTag,
    WhitespaceCjkTokenizer,
)
from bizcorpus.dedup import (
    DedupConfig,
    SentenceFrequencyTable,
    TableMismatchError,
    count_sentences,
    dedup_documents,
    dedup_sentences,
    split_sentences,
)
from bizcorpus.langid import (
    _KANA_RANGES,
    _SCRIPT_RANGES,
    LangIdConfig,
    _kana_share_reaches,
    _script_counts,
    classify_fallback,
)


def _edges(ranges) -> list[str]:
    cps = {cp + d for lo, hi in ranges for cp in (lo, hi) for d in (-1, 0, 1)}
    return sorted(chr(cp) for cp in cps if 0 <= cp <= sys.maxunicode)


_WHITESPACE = [" ", "\t", "\n", "\x1c", "\x85", "\u2028", "\u3000"]
_SCRIPT_EDGES = _edges([r for ranges in _SCRIPT_RANGES.values() for r in ranges])

# Arbitrary Unicode, plus text biased toward range endpoints and whitespace.
cjk_text = st.one_of(
    st.text(),
    st.text(st.one_of(st.characters(), st.sampled_from(_edges(_CJK_RANGES) + _WHITESPACE))),
)
script_text = st.one_of(st.text(), st.text(st.sampled_from(_SCRIPT_EDGES)))
# Kana block edges, and long runs of kana between other characters.
kana_text = st.lists(
    st.one_of(
        st.characters(),
        st.sampled_from(_edges(_KANA_RANGES)),
        st.text(st.characters(min_codepoint=0x3040, max_codepoint=0x30FF), min_size=8, max_size=64),
    )
).map("".join)


def test_backslash_s_is_str_isspace():
    # The tokenizer counts by ``str.split()``, which must cut at exactly the
    # ``str.isspace`` code points: ``\s`` is checked against ``isspace``,
    # then ``split()`` against ``\s``.
    chars = "".join(chr(cp) for cp in range(sys.maxunicode + 1) if not 0xD800 <= cp <= 0xDFFF)
    assert re.findall(r"\s", chars) == [ch for ch in chars if ch.isspace()]
    assert chars.split() == [word for word in re.split(r"\s+", chars) if word]


def test_script_ranges_are_disjoint():
    # placing each character in the one range ``bisect`` finds agrees with
    # the oracle's first-match loop only if no two buckets share a code point
    ranges = [r for rs in _SCRIPT_RANGES.values() for r in rs]
    for (lo1, hi1), (lo2, hi2) in combinations(ranges, 2):
        assert hi1 < lo2 or hi2 < lo1


@settings(max_examples=300, deadline=None)
@given(cjk_text)
def test_tokenizer_matches_oracle(text):
    assert WhitespaceCjkTokenizer().count(text) == oracles.tokenizer_count(text)


@pytest.mark.parametrize(
    ("text", "expected"),
    [
        ("漢\u3000字", 2),  # U+3000 separates CJK characters and is no token
        ("\u3000\u3000", 0),
        ("ab漢字cd", 4),
        ("\uff21\uff22\u3000\uff43", 3),  # full-width forms are CJK
        ("漢字\U00020000かな", 5),  # an astral character is a non-CJK run
    ],
)
def test_tokenizer_pinned_cases(text, expected):
    assert WhitespaceCjkTokenizer().count(text) == expected == oracles.tokenizer_count(text)


@settings(max_examples=200, deadline=None)
@given(kana_text, st.floats(min_value=0.0, max_value=1.0))
def test_jp_script_ratio_matches_oracle(text, threshold):
    # at a drawn threshold, and on either side of the text's own ratio
    ratio = oracles.jp_script_ratio(text)
    for t in (threshold, ratio, math.nextafter(ratio, 2.0)):
        assert _kana_share_reaches(text, t) == (ratio >= t)


@settings(max_examples=200, deadline=None)
@given(script_text)
def test_script_counts_match_oracle(text):
    assert _script_counts(text) == oracles.script_counts(text)


@pytest.mark.parametrize("pair", [(0x24F, 0x250), (0x36F, 0x370), (0x3FF, 0x400), (0x4FF, 0x500)])
def test_script_counts_at_adjacent_range_edges(pair):
    # latin|none, none|greek, greek|cyrillic, cyrillic|none: each side alone,
    # both together and repeated
    lo, hi = map(chr, pair)
    for text in (lo, hi, lo + hi, (lo + hi) * 3 + hi):
        assert _script_counts(text) == oracles.script_counts(text)


def test_script_counts_astral_character_in_no_bucket():
    text = "\U00020000漢\U00020000"
    assert _script_counts(text) == oracles.script_counts(text)
    assert sum(_script_counts(text).values()) == 1


@settings(max_examples=200, deadline=None)
@given(st.one_of(kana_text, script_text), st.floats(min_value=0.0, max_value=1.0))
def test_fallback_matches_oracle(text, threshold):
    config = LangIdConfig(jp_script_ratio_threshold=threshold)
    assert classify_fallback(config, text) == oracles.fallback_verdict(config, text)


@pytest.mark.parametrize(
    ("threshold", "text", "lang", "confidence"),
    [
        (0.05, "あいうえお" + "x" * 95, "ja", 1.0),  # 5 kana in 100 characters: exactly 0.05
        (0.05, "あいうえ" + "x" * 96, "en", 0.96),
        (0.0, "plain text", "ja", 1.0),  # threshold 0: any text is Japanese
        (0.0, "\U00020000", "ja", 1.0),
        (1.0, "あいうえお", "ja", 1.0),  # threshold 1: only all-kana text reaches it
        (1.0, "あいうえお漢", "ja", 5 / 6),  # below it, kana as the top script is still ja
        (1.0, "あ漢漢", "zh", 2 / 3),
    ],
)
def test_fallback_pinned_boundaries(threshold, text, lang, confidence):
    config = LangIdConfig(jp_script_ratio_threshold=threshold)
    verdict = classify_fallback(config, text)
    assert verdict == oracles.fallback_verdict(config, text)
    assert (verdict.lang, verdict.confidence) == (lang, confidence)


# a terminator is one character: DedupConfig refuses a longer one
_terminator = st.one_of(
    st.characters(),
    st.sampled_from(list("]^-\\[.*?+()|$ 。！？")),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_split_line_matches_oracle(data):
    # one line, as the rewrite path of ``dedup_sentences`` splits it
    terminators = data.draw(st.frozensets(_terminator, min_size=1, max_size=6))
    config = DedupConfig(terminators=terminators)
    pieces = st.one_of(st.text(max_size=4), st.sampled_from(sorted(terminators)))
    line = "".join(data.draw(st.lists(pieces, max_size=12).map("".join)).splitlines())
    assert split_sentences(config, line) == oracles.split_line(config, line)


CFG = DedupConfig()
# Every ``str.splitlines`` boundary, "\r\n" included.
_BOUNDARIES = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_SPACES = [" ", "\t", "\u3000", "  "]
# A few sentences that repeat across documents, so some pass the threshold.
_SENTENCES = ["定型文です。", "共通！", "ユニーク", "a.b", "x"]

# Terminator sets: the default, or drawn with line boundaries, whitespace and
# regex metacharacters among them.
_terminators = st.one_of(
    st.just(CFG.terminators),
    st.frozensets(
        st.one_of(_terminator, st.sampled_from([s for s in _BOUNDARIES + _SPACES if len(s) == 1])),
        min_size=1,
        max_size=6,
    ),
)


def _draw_config(data) -> DedupConfig:
    return DedupConfig(
        sentence_frequency_threshold=data.draw(st.integers(1, 3)),
        terminators=data.draw(_terminators),
    )


def _draw_corpus(data, config: DedupConfig) -> Corpus:
    pieces = st.one_of(
        st.sampled_from(_SENTENCES),
        st.sampled_from(sorted(config.terminators)),
        st.sampled_from(_BOUNDARIES + _SPACES),
        st.text(max_size=4),
    )
    texts = data.draw(st.lists(st.lists(pieces, max_size=16).map("".join), min_size=1, max_size=4))
    # whole texts repeat too, as they do before doc dedup
    picks = data.draw(st.lists(st.sampled_from(texts), max_size=10))
    return Corpus([doc(f"d{i}", text) for i, text in enumerate(texts + picks)])


def _assert_dedup_matches_oracle(config: DedupConfig, corpus: Corpus, table: SentenceFrequencyTable):
    try:
        outcomes, removed = oracles.dedup_sentences(config, corpus, table)
    except TableMismatchError as expected:
        with pytest.raises(TableMismatchError) as got:
            dedup_sentences(config, corpus, table)
        assert (got.value.doc_id, got.value.sentence) == (expected.doc_id, expected.sentence)
        return
    stats = PipelineStats()
    out = dedup_sentences(config, corpus, table, stats=stats)
    kept = [(o, d) for o, d in zip(outcomes, corpus) if isinstance(o, Document)]
    assert out.documents == [o for o, _ in kept]
    # an unchanged document comes back as the same object
    assert [a is d for a, (_, d) in zip(out, kept)] == [o is d for o, d in kept]
    assert stats.stages[-1].detail == {"sentences_removed": removed}
    assert stats.stages[-1].doc_removals == dict(Counter(o for o in outcomes if isinstance(o, str)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_split_and_count_match_oracle(data):
    config = _draw_config(data)
    corpus = _draw_corpus(data, config)
    for d in corpus:
        assert split_sentences(config, d.text) == oracles.split_sentences(config, d.text)
    expected = Counter(s for d in corpus for s in oracles.split_sentences(config, d.text))
    assert count_sentences(config, corpus).counts == expected


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_dedup_sentences_matches_oracle(data):
    config = _draw_config(data)
    corpus = _draw_corpus(data, config)
    _assert_dedup_matches_oracle(config, corpus, count_sentences(config, corpus))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_dedup_with_hand_built_table_matches_oracle(data):
    # a table missing sentences, or with other counts, or counted over
    # another corpus: the same documents survive or the same mismatch raises
    config = _draw_config(data)
    corpus = _draw_corpus(data, config)
    full = count_sentences(config, corpus).counts
    kept = data.draw(st.lists(st.sampled_from(sorted(full)), unique=True) if full else st.just([]))
    counts = Counter({s: data.draw(st.integers(0, 4)) for s in kept})
    _assert_dedup_matches_oracle(config, corpus, SentenceFrequencyTable(counts))
    other = _draw_corpus(data, config)
    _assert_dedup_matches_oracle(config, corpus, count_sentences(config, other))


# Few distinct texts and several sources, so texts repeat within and across
# sources; at 1 bit nearly every pair of distinct texts shares a bucket.
_doc_lists = st.lists(
    st.tuples(
        st.sampled_from(list(SourceTag)),
        st.one_of(st.sampled_from(["", "本文。", "本文。 ", "本文！", "a", "A"]), st.text(max_size=3)),
    ),
    max_size=40,
)


@pytest.mark.parametrize("bits", [1, 8, 64])
@settings(max_examples=200, deadline=None)
@given(_doc_lists)
def test_dedup_documents_matches_oracle(bits, pairs):
    corpus = Corpus([doc(f"d{i}", text, source) for i, (source, text) in enumerate(pairs)])
    outcomes = oracles.dedup_documents(corpus, bits=bits)
    stats = PipelineStats()
    out = dedup_documents(CFG, corpus, stats=stats)
    kept = [o for o in outcomes if isinstance(o, Document)]
    assert len(out) == len(kept)
    # the same document objects survive, in order
    assert all(a is b for a, b in zip(out, kept))
    entry = stats.stages[-1]
    assert entry.doc_removals == {"duplicate_document": outcomes.count("duplicate_document")}
    assert entry.docs_in == oracles.source_counts(corpus)
    assert entry.docs_out == oracles.source_counts(kept)


@pytest.mark.parametrize("boundary", _BOUNDARIES)
def test_every_line_boundary_ends_a_sentence(boundary):
    text = f"一。二{boundary}三。 "
    corpus = Corpus([doc("a", text)])
    assert split_sentences(CFG, text) == ["一。", "二", "三。"] == oracles.split_sentences(CFG, text)
    assert dedup_sentences(CFG, corpus, count_sentences(CFG, corpus))[0].text == "一。二\n三。 "
