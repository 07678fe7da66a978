"""Reference implementations for the regex-based hot paths and the stage
accounting.

These are the original per-character loops, and the language fallback
verdict computed from them, kept verbatim so property tests can require the
fast versions in ``bizcorpus`` to return identical results.
They read the same range tables as the code under test, so a change to a
range is checked against both. ``source_counts`` is the whole-corpus recount
that the per-document counts of ``core.run_stage`` replaced.
``split_sentences`` and ``dedup_sentences`` are the line-by-line sentence
split and the per-sentence table lookup that the whole-text split and the
set tests of ``bizcorpus.dedup`` replaced, built on the per-character
``split_line`` in place of the regex line split they once called.
``dedup_documents`` is the document dedup that bucketed texts by a BLAKE2b
fingerprint, narrowed to ``bits``, and confirmed a match with ``==``, before
a set of seen texts replaced it.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Iterable

from bizcorpus.core import _CJK_RANGES, Document
from bizcorpus.dedup import DedupConfig, SentenceFrequencyTable, TableMismatchError
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


def split_sentences(config: DedupConfig, text: str) -> list[str]:
    """Terminator-based sentence split, line by line. Sentences keep their
    terminator; a trailing fragment without one still counts as a sentence."""
    out: list[str] = []
    for line in text.splitlines():
        out.extend(split_line(config, line))
    return out


def dedup_sentences(
    config: DedupConfig, docs: Iterable[Document], table: SentenceFrequencyTable
) -> tuple[list[Document | str], int]:
    """Each document's outcome (kept document or removal reason) and the
    sentences removed, looking every sentence up in ``table.counts``."""
    threshold = config.sentence_frequency_threshold
    detail = {"sentences_removed": 0}

    def step(doc: Document) -> Document | str:
        sentences_removed = 0
        out_lines: list[str] = []
        for line in doc.text.splitlines():
            sentences = split_line(config, line)
            if not sentences:
                out_lines.append(line)
                continue
            kept_line: list[str] = []
            removed_here = False
            for sentence in sentences:
                count = table.counts.get(sentence)
                if count is None:
                    raise TableMismatchError(doc.id, sentence)
                if count > threshold:
                    sentences_removed += 1
                    removed_here = True
                else:
                    kept_line.append(sentence)
            if not removed_here:
                out_lines.append(line)
            elif kept_line:
                out_lines.append("".join(kept_line))
        detail["sentences_removed"] += sentences_removed
        if sentences_removed and not any(line.strip() for line in out_lines):
            return "emptied_by_sentence_dedup"
        text = "\n".join(out_lines)
        return doc if text == doc.text else doc.with_text(text)

    outcomes = [step(doc) for doc in docs]
    return outcomes, detail["sentences_removed"]


def document_fingerprint(doc: Document, *, bits: int = 64) -> int:
    """BLAKE2b-64 (big-endian) of the UTF-8 text, narrowed to its low ``bits``."""
    if not 1 <= bits <= 64:
        raise ValueError("bits must be in 1..64")
    digest = hashlib.blake2b(doc.text.encode("utf-8"), digest_size=8).digest()
    fp = int.from_bytes(digest, "big")
    return fp & ((1 << bits) - 1) if bits < 64 else fp


def dedup_documents(docs: Iterable[Document], *, bits: int = 64) -> list[Document | str]:
    """Each document's outcome (kept document or removal reason): texts are
    bucketed by fingerprint, and a document is a duplicate only when its
    bucket already holds an equal text."""
    groups: dict[int, list[str]] = {}
    outcomes: list[Document | str] = []
    for doc in docs:
        texts = groups.setdefault(document_fingerprint(doc, bits=bits), [])
        if doc.text in texts:
            outcomes.append("duplicate_document")
            continue
        texts.append(doc.text)
        outcomes.append(doc)
    return outcomes


def source_counts(docs: Iterable[Document]) -> dict[str, int]:
    """Documents per source label, as each stage's input and output corpus
    was once recounted to fill ``StageStats.docs_in`` and ``docs_out``."""
    return dict(Counter(doc.source.value for doc in docs))
