"""Line-level noise classification and document denoising.

Web-extracted Japanese text carries lines that are only a date, a bare URL,
or menu/markup fragments; those lines are stripped. A document whose
remaining lines mostly lack end-of-sentence punctuation is judged
non-sentential and dropped entirely, except for languages that do not use
punctuation (Thai).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .core import ConfigError, Corpus, Document, PipelineStats, StageStats, check_field_types, run_stage

DEFAULT_TERMINATORS = frozenset("。！？.!?")

# Languages whose documents are never dropped as non-sentential. Inside
# ``bizcorpus run`` only Japanese documents reach this stage, so the
# exemption applies to standalone ``bizcorpus denoise`` on records that
# carry ``lang``.
PUNCTUATIONLESS_LANGUAGES = frozenset({"th"})


class LineClass(str, Enum):
    DATE_ONLY = "date_only"
    MARKUP_FRAGMENT = "markup_fragment"
    URL_ONLY = "url_only"
    SENTENTIAL = "sentential"
    NON_SENTENTIAL = "non_sentential"


def check_terminators(terminators: frozenset[str]) -> None:
    """Raise ``ConfigError`` unless ``terminators`` holds one or more single
    characters: a longer entry would never match a line's last character."""
    if not terminators:
        raise ConfigError("terminators must be non-empty")
    bad = sorted(repr(t) for t in terminators if len(t) != 1)
    if bad:
        raise ConfigError(f"terminators must be single characters, got {', '.join(bad)}")


@dataclass(frozen=True)
class NoiseConfig:
    terminators: frozenset[str] = DEFAULT_TERMINATORS
    min_sentential_ratio: float = 0.5

    def __post_init__(self) -> None:
        check_field_types(self)
        check_terminators(self.terminators)
        if not 0.0 <= self.min_sentential_ratio <= 1.0:
            raise ConfigError("min_sentential_ratio must be in [0, 1]")


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
    config: NoiseConfig, text: str, lang: str | None
) -> tuple[str | None, str | None, Counter[str]]:
    """The denoised text, or None and the removal reason when the document
    goes, and the lines counted by class; a function of its arguments alone."""
    counts: Counter[str] = Counter()
    kept: list[tuple[str, LineClass]] = []
    for line in text.splitlines():
        if not line.strip():
            counts["lines_blank"] += 1
            continue
        cls = classify_line(config, line)
        if cls in _STRIP_CLASSES:
            counts[f"lines_{cls.value}"] += 1
            continue
        kept.append((line, cls))

    if not kept:
        return None, "empty_after_strip", counts

    if lang not in PUNCTUATIONLESS_LANGUAGES:
        sentential = sum(1 for _, cls in kept if cls is LineClass.SENTENTIAL)
        if sentential / len(kept) < config.min_sentential_ratio:
            return None, "non_sentential", counts

    return "\n".join(line for line, _ in kept), None, counts


def _with_text(doc: Document, text: str | None) -> Document | None:
    if text is None:
        return None
    return doc if text == doc.text else doc.with_text(text)


def filter_document(config: NoiseConfig, doc: Document) -> Document | None:
    """Strip noise lines from one document; return None when the document as
    a whole is judged non-sentential (or nothing survives the strip).

    Expects ``doc.lang`` to be set (runs after language identification); an
    unset lang is treated as not exempt from the terminator rule.
    """
    return _with_text(doc, _filter_with_reasons(config, doc.text, doc.lang)[0])


def iter_denoised(
    config: NoiseConfig, docs: Iterable[Document], *, stats: PipelineStats | None = None
) -> Iterator[Document]:
    """Apply :func:`filter_document` to each document as it comes; line-level
    strip counts and document-level removal reasons land in stats, counted
    per document, once the documents run out. Documents with the same text
    and lang share one filter call."""
    detail: dict[str, int] = {}
    # exact duplicates are common in web crawls: filter each (text, lang) once
    results: dict[tuple[str, str | None], tuple[str | None, str | None, Counter[str]]] = {}

    def step(doc: Document) -> Document | str:
        key = (doc.text, doc.lang)
        if key not in results:
            results[key] = _filter_with_reasons(config, doc.text, doc.lang)
        text, reason, counts = results[key]
        for name, value in counts.items():
            detail[name] = detail.get(name, 0) + value
        return reason or _with_text(doc, text)

    return run_stage(stats, StageStats("noise_filter", detail=detail), docs, step)


def denoise_corpus(
    config: NoiseConfig,
    corpus: Corpus,
    *,
    stats: PipelineStats | None = None,
    workers: int = 1,  # ignored: every stage runs in one thread; kept for existing callers
) -> Corpus:
    """:func:`iter_denoised` over a whole corpus."""
    return Corpus(list(iter_denoised(config, corpus, stats=stats)))
