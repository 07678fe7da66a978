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

import contextlib
import functools
import logging
import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Protocol

from .core import (
    ConfigError,
    Corpus,
    Document,
    PipelineStats,
    StageStats,
    check_field_types,
    code_point_class,
    run_stage,
)

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
        check_field_types(self)
        if not 0.0 <= self.confidence <= 1.0:
            raise ConfigError(f"confidence must be in [0, 1], got {self.confidence}")


class ClassifierBackend(Protocol):
    """Primary-stage plug point: ``classify(text) -> (language, confidence)``.
    An optional ``classify_many(texts)`` gives, per text, in order, the pair
    or the exception in its place (anything else fails the stage), as a list
    or a lazy iterable, closed if it can be when the ``lang_id`` stream ends."""

    def classify(self, text: str) -> tuple[str, float]: ...


@dataclass
class LangIdConfig:
    """A primary verdict stands when its confidence reaches
    ``uncertainty_threshold``. In the fallback, a kana share reaching
    ``jp_script_ratio_threshold`` makes a text Japanese; below it, a text
    whose most frequent script is kana is still Japanese, so the threshold
    decides only when kana is not the most frequent script."""

    uncertainty_threshold: float = 0.9
    jp_script_ratio_threshold: float = 0.05
    classifier: ClassifierBackend | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        check_field_types(self)
        for name in ("uncertainty_threshold", "jp_script_ratio_threshold"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")


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


# The script ranges flattened and sorted by start, for ``bisect``: a code
# point at or after ``_RANGE_STARTS[i]`` and at most ``_RANGE_ENDS[i]`` is in
# ``_RANGE_SCRIPTS[i]``'s bucket.
_RANGE_STARTS, _RANGE_ENDS, _RANGE_SCRIPTS = zip(
    *sorted((lo, hi, name) for name, ranges in _SCRIPT_RANGES.items() for lo, hi in ranges)
)


@functools.cache
def _kana_run_re() -> re.Pattern[str]:
    return re.compile(f"[{code_point_class(_KANA_RANGES)}]+")


def _kana_share_reaches(text: str, threshold: float) -> bool:
    """Whether the fraction of ``text``'s characters in the Hiragana/Katakana
    blocks reaches ``threshold`` (an empty text has fraction 0).

    Summed over maximal kana runs, one match per run, and stopped at the
    first run that reaches the threshold. That is exact: the count only
    grows and float division is monotonic, so once ``kana / len(text)``
    reaches the threshold, the full count's fraction does too."""
    if threshold <= 0:
        return True
    size = len(text)
    kana = 0
    for run in _kana_run_re().finditer(text):
        kana += run.end() - run.start()
        if kana / size >= threshold:
            return True
    return False


def _script_counts(text: str) -> dict[str, int]:
    # Placed once per distinct character, not once per character, and with
    # no regex, whose Han and Hangul classes take milliseconds to compile.
    counts = dict.fromkeys(_SCRIPT_RANGES, 0)
    for ch, n in Counter(text).items():
        cp = ord(ch)
        i = bisect_right(_RANGE_STARTS, cp) - 1
        if i >= 0 and cp <= _RANGE_ENDS[i]:
            counts[_RANGE_SCRIPTS[i]] += n
    return counts


_NO_ANSWER = object()


def _primary_answers(
    config: LangIdConfig, texts: list[str]
) -> Iterator[LangVerdict | Exception | None]:
    """The backend's verdict for each text, in order, as it gives them, or the
    exception in its place: from one ``classify_many`` call if the backend
    has it, else one ``classify`` call per text (with no backend, None). A
    pair that is no verdict, such as ``("ja", 7.5)``, gives its error."""
    backend = config.classifier
    if backend is None:
        yield from [None] * len(texts)
        return
    classify_many = getattr(backend, "classify_many", None)
    answers = classify_many(texts) if classify_many else _classify_each(backend, texts)
    name, given, pending = type(backend).__name__, 0, iter(answers)
    try:
        for given, answer in enumerate(pending, 1):
            if isinstance(answer, tuple) and len(answer) == 2:
                try:
                    answer = LangVerdict(*answer, VerdictStage.PRIMARY)
                except ConfigError as exc:
                    answer = exc
            elif not isinstance(answer, Exception):
                raise TypeError(f"{name} gave {answer!r}, not a pair or an exception")
            # an answer after the last text's means the answers are out of step
            if given == len(texts) and next(pending, _NO_ANSWER) is not _NO_ANSWER:
                raise RuntimeError(f"{name}.classify_many gave more than {given} answers for {given} texts")
            yield answer
    finally:  # a lazy answer list ends its exchange here, not when it is collected
        if hasattr(answers, "close"):
            answers.close()
    if given < len(texts):
        raise RuntimeError(f"{name}.classify_many gave {given} answers for {len(texts)} texts")


def _classify_each(
    backend: ClassifierBackend, texts: list[str]
) -> Iterator[tuple[str, float] | Exception]:
    for text in texts:
        try:
            answer = backend.classify(text)
        except Exception as exc:  # a failing backend leaves this text to the fallback
            answer = exc
        yield answer


def classify_fallback(config: LangIdConfig, text: str) -> LangVerdict:
    """Script-characteristics heuristic.

    Japanese wins, at confidence 1, when the fraction of kana characters
    reaches the configured threshold; otherwise the most frequent script
    decides, with that script's character fraction as confidence. Empty text
    yields ``und`` at confidence 0.

    The kana bucket maps to Japanese as well, so the threshold decides only
    when kana is not the most frequent script: at threshold 1.0,
    ``あいうえお漢`` is still ``ja`` at confidence 5/6.
    """
    if not text:
        return LangVerdict(UNDETERMINED, 0.0, VerdictStage.FALLBACK)
    if _kana_share_reaches(text, config.jp_script_ratio_threshold):
        return LangVerdict(JAPANESE, 1.0, VerdictStage.FALLBACK)
    counts = _script_counts(text)
    best = max(counts, key=lambda name: (counts[name], name))
    if counts[best] == 0:
        return LangVerdict(UNDETERMINED, 0.0, VerdictStage.FALLBACK)
    return LangVerdict(_SCRIPT_LANG[best], counts[best] / len(text), VerdictStage.FALLBACK)


def identify(config: LangIdConfig, text: str) -> LangVerdict:
    """Cascade: the primary verdict stands when its confidence reaches the
    uncertainty threshold; otherwise (or when the backend is unusable) the
    characteristics fallback decides."""
    return _cascade(config, text, *_primary_answers(config, [text]))


def _cascade(
    config: LangIdConfig, text: str, primary: LangVerdict | Exception | None
) -> LangVerdict:
    if isinstance(primary, LangVerdict) and primary.confidence >= config.uncertainty_threshold:
        return primary
    return classify_fallback(config, text)


def iter_japanese(
    config: LangIdConfig, corpus: Corpus, *, stats: PipelineStats | None = None
) -> Iterator[Document]:
    """Yield exactly the documents identified as Japanese, setting ``lang``,
    each as soon as its text is decided. Removal counts are recorded per
    detected language. Each distinct text is classified and decided once,
    when the backend's answer for it arrives, and its verdict holds for every
    document carrying it, so a classifier must answer as a function of the
    text. When a configured classifier gives no verdict for some documents,
    one warning at the end says how many the fallback decided instead, and
    why the first got none. Closing the stream early abandons the classifier
    exchange."""
    # exact duplicates are common in web crawls: classify each text once, in
    # the order the documents first carry it, so each answer is for the text
    # of the next document that brings a new one
    answers = _primary_answers(config, list(dict.fromkeys(doc.text for doc in corpus)))
    verdicts: dict[str, tuple[LangVerdict, bool]] = {}
    missing = 0
    failure: Exception | None = None

    def step(doc: Document) -> Document | str:
        nonlocal missing, failure
        decided = verdicts.get(doc.text)
        if decided is None:
            primary = next(answers)
            if unanswered := isinstance(primary, Exception):
                failure = failure or primary
            decided = verdicts[doc.text] = (_cascade(config, doc.text, primary), unanswered)
        verdict, unanswered = decided
        missing += unanswered
        return doc.with_lang(JAPANESE) if verdict.lang == JAPANESE else f"lang:{verdict.lang}"

    with contextlib.closing(answers):
        yield from run_stage(stats, StageStats("lang_id"), corpus, step)
    if missing:
        log.warning(
            "lang_id: the classifier gave no verdict for %d of %d documents; "
            "the script fallback decided them; first cause: %s: %s",
            missing,
            len(corpus),
            type(failure).__name__,
            failure,
        )


def filter_non_japanese(
    config: LangIdConfig,
    corpus: Corpus,
    *,
    stats: PipelineStats | None = None,
    workers: int = 1,  # ignored: every stage runs in one thread; kept for existing callers
) -> Corpus:
    """:func:`iter_japanese` over a whole corpus."""
    return Corpus(list(iter_japanese(config, corpus, stats=stats)))
