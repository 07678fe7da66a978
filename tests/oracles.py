"""Reference implementations for the regex-based hot paths.

These are the original per-character loops, kept verbatim so property tests
can require the fast versions in ``bizcorpus`` to return identical results.
They read the same range tables as the code under test, so a change to a
range is checked against both.
"""

from __future__ import annotations

from bizcorpus.core import _CJK_RANGES
from bizcorpus.dedup import DedupConfig
from bizcorpus.langid import _KANA_RANGES, _SCRIPT_RANGES


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
