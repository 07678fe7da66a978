"""Reference implementations for the regex-based hot paths and the stage
accounting.

These are the original per-character loops, and the language fallback
verdict computed from them, kept verbatim so property tests can require the
fast versions in ``bizcorpus`` to return identical results.
They read the same range tables as the code under test, so a change to a
range is checked against both. ``source_counts`` is the whole-corpus recount
that the per-document counts of ``core.run_stage`` replaced.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from bizcorpus.core import _CJK_RANGES, Document
from bizcorpus.dedup import DedupConfig
from bizcorpus.langid import (
    _KANA_RANGES,
    _SCRIPT_LANG,
    _SCRIPT_RANGES,
    JAPANESE,
    UNDETERMINED,
    LangIdConfig,
    LangVerdict,
    VerdictStage,
)


def _is_cjk(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _CJK_RANGES)


def tokenizer_count(text: str) -> int:
    """``WhitespaceCjkTokenizer.count``: whitespace is tested before CJK."""
    tokens = 0
    in_run = False
    for ch in text:
        if ch.isspace():
            in_run = False
        elif _is_cjk(ch):
            tokens += 1
            in_run = False
        else:
            if not in_run:
                tokens += 1
            in_run = True
    return tokens


def jp_script_ratio(text: str) -> float:
    """Fraction of all characters that fall in the Hiragana/Katakana blocks."""
    if not text:
        return 0.0
    kana = sum(1 for ch in text if any(lo <= ord(ch) <= hi for lo, hi in _KANA_RANGES))
    return kana / len(text)


def script_counts(text: str) -> dict[str, int]:
    """Per-script character counts, first matching script wins."""
    counts = {name: 0 for name in _SCRIPT_RANGES}
    for ch in text:
        cp = ord(ch)
        for name, ranges in _SCRIPT_RANGES.items():
            if any(lo <= cp <= hi for lo, hi in ranges):
                counts[name] += 1
                break
    return counts


def fallback_verdict(config: LangIdConfig, text: str) -> LangVerdict:
    """``classify_fallback`` from the full kana ratio, with confidence
    ``min(1, ratio / threshold)`` on the Japanese branch."""
    if not text:
        return LangVerdict(UNDETERMINED, 0.0, VerdictStage.FALLBACK)
    ratio = jp_script_ratio(text)
    threshold = config.jp_script_ratio_threshold
    if ratio >= threshold:
        confidence = 1.0 if threshold <= 0 else min(1.0, ratio / threshold)
        return LangVerdict(JAPANESE, confidence, VerdictStage.FALLBACK)
    counts = script_counts(text)
    best = max(counts, key=lambda name: (counts[name], name))
    if counts[best] == 0:
        return LangVerdict(UNDETERMINED, 0.0, VerdictStage.FALLBACK)
    return LangVerdict(_SCRIPT_LANG[best], counts[best] / len(text), VerdictStage.FALLBACK)


def split_line(config: DedupConfig, line: str) -> list[str]:
    """Sentences of one line, each ending after a terminator character."""
    sentences: list[str] = []
    buf: list[str] = []
    for ch in line:
        buf.append(ch)
        if ch in config.terminators:
            sentence = "".join(buf).strip()
            if sentence:
                sentences.append(sentence)
            buf = []
    tail = "".join(buf).strip()
    if tail:
        sentences.append(tail)
    return sentences


def source_counts(docs: Iterable[Document]) -> dict[str, int]:
    """Documents per source label, as each stage's input and output corpus
    was once recounted to fill ``StageStats.docs_in`` and ``docs_out``."""
    return dict(Counter(doc.source.value for doc in docs))
