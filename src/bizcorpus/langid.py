"""Two-stage language identification cascade.

Stage one is a pluggable classifier backend (any model or tool exposing
``classify(text) -> (lang, confidence)``). When the primary verdict is
uncertain — confidence below ``uncertainty_threshold`` — a built-in script
characteristics heuristic decides instead: text whose Hiragana/Katakana
character ratio reaches ``jp_script_ratio_threshold`` is Japanese, otherwise
the most frequent script determines the guess. The heuristic keeps the
cascade self-contained; no external detector is required.
"""

from __future__ import annotations

import functools
import logging
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Protocol

from .core import Corpus, Document, PipelineStats, code_point_class

log = logging.getLogger(__name__)

JAPANESE = "ja"
UNDETERMINED = "und"


class VerdictStage(str, Enum):
    PRIMARY = "primary_classifier"
    FALLBACK = "characteristics_fallback"


@dataclass(frozen=True)
class LangVerdict:
    lang: str
    confidence: float
    stage: VerdictStage

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence out of range: {self.confidence}")


class ClassifierBackend(Protocol):
    """Primary-stage plug point: ``classify(text) -> (language, confidence)``;
    an optional ``classify_many(texts)`` gives one pair or None per text in one go."""

    def classify(self, text: str) -> tuple[str, float]: ...


@dataclass
class LangIdConfig:
    uncertainty_threshold: float = 0.9
    jp_script_ratio_threshold: float = 0.05
    classifier: ClassifierBackend | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        for name in ("uncertainty_threshold", "jp_script_ratio_threshold"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


# Hiragana + Katakana blocks; the signal for Japanese even in Kanji-heavy text.
_KANA_RANGES = ((0x3040, 0x309F), (0x30A0, 0x30FF))

# Script buckets for the most-frequent-script guess. The buckets are
# disjoint, so each character counts toward at most one script.
_SCRIPT_RANGES: dict[str, tuple[tuple[int, int], ...]] = {
    "kana": _KANA_RANGES,
    "han": ((0x3400, 0x4DBF), (0x4E00, 0x9FFF), (0xF900, 0xFAFF)),
    "hangul": ((0x1100, 0x11FF), (0xAC00, 0xD7AF)),
    "latin": ((0x41, 0x5A), (0x61, 0x7A), (0xC0, 0x24F)),
    "cyrillic": ((0x400, 0x4FF),),
    "greek": ((0x370, 0x3FF),),
    "arabic": ((0x600, 0x6FF),),
    "hebrew": ((0x590, 0x5FF),),
    "devanagari": ((0x900, 0x97F),),
    "thai": ((0xE00, 0xE7F),),
}

_SCRIPT_LANG = {
    "kana": JAPANESE,
    "han": "zh",
    "hangul": "ko",
    "latin": "en",
    "cyrillic": "ru",
    "greek": "el",
    "arabic": "ar",
    "hebrew": "he",
    "devanagari": "hi",
    "thai": "th",
}


@functools.cache
def _script_res() -> dict[str, re.Pattern[str]]:
    # Compiled on first use, like the tokenizer's pattern: the Han and Hangul
    # ranges take milliseconds to compile.
    return {
        name: re.compile(f"[{code_point_class(ranges)}]") for name, ranges in _SCRIPT_RANGES.items()
    }


def jp_script_ratio(text: str) -> float:
    """Fraction of all characters that fall in the Hiragana/Katakana blocks."""
    if not text:
        return 0.0
    return _script_res()["kana"].subn("", text)[1] / len(text)


def _script_counts(text: str) -> dict[str, int]:
    return {name: pattern.subn("", text)[1] for name, pattern in _script_res().items()}


def primary_verdicts(config: LangIdConfig, texts: list[str]) -> list[LangVerdict | None]:
    """The configured backend's verdict for each text, or None where it gave
    none: in one ``classify_many`` call when the backend has it, otherwise one
    ``classify`` call per text, where a raise gives None."""
    backend = config.classifier
    if backend is None:
        return [None] * len(texts)
    classify_many = getattr(backend, "classify_many", None)
    answers = classify_many(texts) if classify_many else [_classify_one(backend, t) for t in texts]
    return [None if answer is None else _primary_verdict(*answer) for answer in answers]


def _classify_one(backend: ClassifierBackend, text: str) -> tuple[str, float] | None:
    try:
        lang, confidence = backend.classify(text)
    except Exception:  # a failing backend leaves this text to the fallback
        return None
    return lang, confidence


def _primary_verdict(lang: str, confidence: float) -> LangVerdict:
    return LangVerdict(str(lang), min(1.0, max(0.0, float(confidence))), VerdictStage.PRIMARY)


def classify_fallback(config: LangIdConfig, text: str) -> LangVerdict:
    """Script-characteristics heuristic.

    Japanese wins when the kana ratio reaches the configured threshold, with
    confidence ``min(1, ratio / threshold)``; otherwise the most frequent
    script decides, with that script's character fraction as confidence.
    Empty text yields ``und`` at confidence 0.
    """
    if not text:
        return LangVerdict(UNDETERMINED, 0.0, VerdictStage.FALLBACK)
    ratio = jp_script_ratio(text)
    threshold = config.jp_script_ratio_threshold
    if ratio >= threshold:
        confidence = 1.0 if threshold <= 0 else min(1.0, ratio / threshold)
        return LangVerdict(JAPANESE, confidence, VerdictStage.FALLBACK)
    counts = _script_counts(text)
    best = max(counts, key=lambda name: (counts[name], name))
    if counts[best] == 0:
        return LangVerdict(UNDETERMINED, 0.0, VerdictStage.FALLBACK)
    return LangVerdict(_SCRIPT_LANG[best], counts[best] / len(text), VerdictStage.FALLBACK)


def identify(config: LangIdConfig, text: str) -> LangVerdict:
    """Cascade: the primary verdict stands when its confidence reaches the
    uncertainty threshold; otherwise (or when the backend is unusable) the
    characteristics fallback decides."""
    return _cascade(config, text, primary_verdicts(config, [text])[0])


def _cascade(config: LangIdConfig, text: str, primary: LangVerdict | None) -> LangVerdict:
    if primary is not None and primary.confidence >= config.uncertainty_threshold:
        return primary
    return classify_fallback(config, text)


def filter_non_japanese(
    config: LangIdConfig,
    corpus: Corpus,
    *,
    stats: PipelineStats | None = None,
    workers: int = 1,  # ignored: every stage runs in one thread; kept for existing callers
) -> Corpus:
    """Keep exactly the documents identified as Japanese, setting ``lang`` on
    survivors. Removal counts are recorded per detected language. When a
    configured classifier gives no verdict for some documents, one warning
    says how many the fallback decided instead."""
    texts = [doc.text for doc in corpus.documents]
    primaries = primary_verdicts(config, texts)
    missing = primaries.count(None)
    if config.classifier is not None and missing:
        log.warning(
            "lang_id: the classifier gave no verdict for %d of %d documents; "
            "the script fallback decided them",
            missing,
            len(texts),
        )
    kept: list[Document] = []
    removals: dict[str, int] = {}
    for doc, primary in zip(corpus.documents, primaries):
        verdict = _cascade(config, doc.text, primary)
        if verdict.lang == JAPANESE:
            kept.append(doc.with_lang(JAPANESE))
        else:
            key = f"lang:{verdict.lang}"
            removals[key] = removals.get(key, 0) + 1
    out = Corpus(kept, provenance=corpus.provenance)
    if stats is not None:
        stats.record_stage("lang_id", corpus, out, doc_removals=removals)
    return out
