"""Line-level noise classification and document denoising.

Web-extracted Japanese text carries lines that are only a date, a bare URL,
or menu/markup fragments; those lines are stripped. A document whose
remaining lines mostly lack end-of-sentence punctuation is judged
non-sentential and dropped entirely, except for languages that do not use
punctuation (Thai by default).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .core import Corpus, Document, PipelineStats

DEFAULT_JP_TERMINATORS = frozenset("。！？")
DEFAULT_LATIN_TERMINATORS = frozenset(".!?")


class LineClass(str, Enum):
    DATE_ONLY = "date_only"
    MARKUP_FRAGMENT = "markup_fragment"
    URL_ONLY = "url_only"
    SENTENTIAL = "sentential"
    NON_SENTENTIAL = "non_sentential"


@dataclass(frozen=True)
class NoiseConfig:
    jp_terminators: frozenset[str] = DEFAULT_JP_TERMINATORS
    latin_terminators: frozenset[str] = DEFAULT_LATIN_TERMINATORS
    min_sentential_ratio: float = 0.5
    punctuationless_languages: frozenset[str] = frozenset({"th"})

    def __post_init__(self) -> None:
        if not self.jp_terminators or not self.latin_terminators:
            raise ValueError("terminator sets must be non-empty")
        if not 0.0 <= self.min_sentential_ratio <= 1.0:
            raise ValueError("min_sentential_ratio must be in [0, 1]")

    @property
    def terminators(self) -> frozenset[str]:
        return self.jp_terminators | self.latin_terminators


# Date-only lines: ISO, slash, and Japanese year forms incl. era years
# (e.g. 2023-10-05, 2023/10/05, 2023年10月5日, 令和5年10月5日).
_ERA = "令和|平成|昭和|大正|明治"
_DATE_RE = re.compile(
    rf"(?:\d{{4}}-\d{{1,2}}-\d{{1,2}}"
    rf"|\d{{4}}/\d{{1,2}}/\d{{1,2}}"
    rf"|(?:\d{{4}}|(?:{_ERA})(?:元|\d{{1,2}}))年\d{{1,2}}月\d{{1,2}}日)"
)

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")

# A line made only of angle-bracket elements.
_TAGS_RE = re.compile(r"(?:\s*<[^<>]*>)+\s*")

# Navigation-style delimiters between short menu tokens.
_NAV_SPLIT_RE = re.compile(r"[|｜・»›→/＞>]")


def _is_navigation(line: str) -> bool:
    if not _NAV_SPLIT_RE.search(line):
        return False
    tokens = [t.strip() for t in _NAV_SPLIT_RE.split(line)]
    tokens = [t for t in tokens if t]
    return len(tokens) >= 2 and all(len(t) <= 3 for t in tokens)


def classify_line(config: NoiseConfig, line: str) -> LineClass:
    """Classify one line. Inputs may be partially stripped HTML, so
    "markup" covers both tag-like lines and short-token navigation rows."""
    stripped = line.strip()
    if not stripped:
        return LineClass.NON_SENTENTIAL
    if _DATE_RE.fullmatch(stripped):
        return LineClass.DATE_ONLY
    if _URL_RE.fullmatch(stripped):
        return LineClass.URL_ONLY
    if _TAGS_RE.fullmatch(stripped) or _is_navigation(stripped):
        return LineClass.MARKUP_FRAGMENT
    if stripped[-1] in config.terminators:
        return LineClass.SENTENTIAL
    return LineClass.NON_SENTENTIAL


_STRIP_CLASSES = (LineClass.DATE_ONLY, LineClass.URL_ONLY, LineClass.MARKUP_FRAGMENT)


def _filter_with_reasons(
    config: NoiseConfig, doc: Document
) -> tuple[Document | None, Counter[str]]:
    counts: Counter[str] = Counter()
    kept: list[tuple[str, LineClass]] = []
    for line in doc.text.splitlines():
        if not line.strip():
            counts["lines_blank"] += 1
            continue
        cls = classify_line(config, line)
        if cls in _STRIP_CLASSES:
            counts[f"lines_{cls.value}"] += 1
            continue
        kept.append((line, cls))

    if not kept:
        counts["docs_empty_after_strip"] += 1
        return None, counts

    exempt = doc.lang is not None and doc.lang in config.punctuationless_languages
    if not exempt:
        sentential = sum(1 for _, cls in kept if cls is LineClass.SENTENTIAL)
        if sentential / len(kept) < config.min_sentential_ratio:
            counts["docs_non_sentential"] += 1
            return None, counts

    text = "\n".join(line for line, _ in kept)
    return (doc if text == doc.text else doc.with_text(text)), counts


def filter_document(config: NoiseConfig, doc: Document) -> Document | None:
    """Strip noise lines from one document; return None when the document as
    a whole is judged non-sentential (or nothing survives the strip).

    Expects ``doc.lang`` to be set (runs after language identification); an
    unset lang is treated as not exempt from the terminator rule.
    """
    filtered, _ = _filter_with_reasons(config, doc)
    return filtered


def denoise_corpus(
    config: NoiseConfig,
    corpus: Corpus,
    *,
    stats: PipelineStats | None = None,
    workers: int = 1,  # ignored: every stage runs in one thread; kept for existing callers
) -> Corpus:
    """Apply :func:`filter_document` to every document in order; line-level
    strip counts and document-level removal reasons land in stats."""
    kept: list[Document] = []
    detail: Counter[str] = Counter()
    removals: Counter[str] = Counter()
    for doc in corpus.documents:
        filtered, counts = _filter_with_reasons(config, doc)
        for key, value in counts.items():
            if key.startswith("docs_"):
                removals[key.removeprefix("docs_")] += value
            else:
                detail[key] += value
        if filtered is not None:
            kept.append(filtered)
    out = Corpus(kept, provenance=corpus.provenance)
    if stats is not None:
        stats.record_stage(
            "noise_filter", corpus, out, doc_removals=dict(removals), detail=dict(detail)
        )
    return out
