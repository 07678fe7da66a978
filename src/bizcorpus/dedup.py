"""Exact-match deduplication at document and sentence level.

A document whose text equals that of an earlier document is dropped, so the
first-seen document of each text survives. Sentences are counted
corpus-wide with a terminator-based split, and every occurrence of a
sentence whose frequency exceeds the threshold is removed — over-threshold
sentences are boilerplate, so no copies are kept.

Each text is split into sentences in C: a line break goes in after every
terminator and ``str.splitlines`` cuts the result, so no sentence crosses a
line. ``dedup_sentences`` splits each document, tests its sentences against
the table and the over-threshold set without a Python loop, and returns a
document holding no over-threshold sentence with only its line breaks
normalised to ``\\n``; in the other documents only the lines that contain
such a sentence are split again and rewritten.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

from .core import (
    ConfigError,
    Corpus,
    Document,
    PipelineStats,
    StageStats,
    check_field_types,
    run_stage,
    write_jsonl,
)
from .noise import DEFAULT_TERMINATORS, check_terminators


@dataclass(frozen=True)
class DedupConfig:
    sentence_frequency_threshold: int = 15
    terminators: frozenset[str] = DEFAULT_TERMINATORS

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.sentence_frequency_threshold < 1:
            raise ConfigError("sentence_frequency_threshold must be >= 1")
        check_terminators(self.terminators)

    @cached_property
    def sentence_ends(self) -> tuple[str, ...]:
        """The terminators in a fixed order, for :func:`split_sentences`."""
        return tuple(sorted(self.terminators))


def split_sentences(config: DedupConfig, text: str) -> list[str]:
    """Terminator-based sentence split, line by line: each line of
    ``str.splitlines`` is cut after every terminator.
    Sentences keep their terminator; a trailing fragment without one still
    counts as a sentence. A line break after each terminator makes every
    sentence a line of its own; a terminator that is itself a line boundary
    only adds an empty line, and empty lines are dropped."""
    for end in config.sentence_ends:
        if end in text:
            text = text.replace(end, end + "\n")
    return list(filter(None, map(str.strip, text.splitlines())))


@dataclass
class SentenceFrequencyTable:
    """Exact sentence string -> occurrence count over a whole corpus."""

    counts: Counter[str] = field(default_factory=Counter)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def dump_jsonl(self, path: Path | str) -> Path:
        """Audit dump, one ``{"count", "sentence"}`` line per sentence, most
        frequent first (ties broken by sentence), written by
        :func:`~bizcorpus.core.write_jsonl`."""
        ordered = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return write_jsonl(path, ({"count": count, "sentence": sentence} for sentence, count in ordered))


class TableMismatchError(RuntimeError):
    """Sentence table does not cover the corpus it is applied to."""

    def __init__(self, doc_id: str, sentence: str):
        super().__init__(
            f"sentence not present in frequency table (document {doc_id!r}): {sentence!r}"
        )
        self.doc_id = doc_id
        self.sentence = sentence


def count_sentences(
    config: DedupConfig, corpus: Corpus, *, workers: int = 1  # ignored; kept for existing callers
) -> SentenceFrequencyTable:
    """Count exact sentence strings over the whole corpus."""
    counter: Counter[str] = Counter()
    for doc in corpus:
        counter.update(split_sentences(config, doc.text))
    return SentenceFrequencyTable(counter)


def iter_unique_documents(
    config: DedupConfig,
    docs: Iterable[Document],
    *,
    stats: PipelineStats | None = None,
) -> Iterator[Document]:
    """Drop documents whose text was seen before, as they come, keeping the
    first seen of each text."""
    seen: set[str] = set()

    def step(doc: Document) -> Document | str:
        if doc.text in seen:
            return "duplicate_document"
        seen.add(doc.text)
        return doc

    entry = StageStats("dedup_documents", doc_removals={"duplicate_document": 0})
    return run_stage(stats, entry, docs, step)


def dedup_documents(
    config: DedupConfig,
    corpus: Corpus,
    *,
    stats: PipelineStats | None = None,
) -> Corpus:
    """:func:`iter_unique_documents` over a whole corpus."""
    return Corpus(list(iter_unique_documents(config, corpus, stats=stats)))


def dedup_sentences(
    config: DedupConfig,
    corpus: Corpus,
    table: SentenceFrequencyTable,
    *,
    stats: PipelineStats | None = None,
) -> Corpus:
    """Remove every occurrence of sentences whose corpus frequency exceeds
    the threshold; documents reduced to zero sentences are dropped.

    The table must have been computed over this corpus: encountering a
    sentence missing from it raises :class:`TableMismatchError`.
    """
    counts = table.counts
    over = {s for s, count in counts.items() if count > config.sentence_frequency_threshold}
    detail = {"sentences_removed": 0}

    def step(doc: Document) -> Document | str:
        sentences = split_sentences(config, doc.text)
        if not all(map(counts.__contains__, sentences)):
            raise TableMismatchError(doc.id, next(s for s in sentences if s not in counts))
        if over.isdisjoint(sentences):
            text = "\n".join(doc.text.splitlines())
            return doc if text == doc.text else doc.with_text(text)
        # Only a line containing an over-threshold sentence can change.
        present = over.intersection(sentences)
        sentences_removed = 0
        out_lines: list[str] = []
        for line in doc.text.splitlines():
            if any(map(line.__contains__, present)):
                line_sentences = split_sentences(config, line)
                kept = [s for s in line_sentences if s not in over]
                if len(kept) < len(line_sentences):
                    sentences_removed += len(line_sentences) - len(kept)
                    if not kept:
                        continue
                    line = "".join(kept)
            out_lines.append(line)
        detail["sentences_removed"] += sentences_removed
        text = "\n".join(out_lines)
        if not text.strip():
            return "emptied_by_sentence_dedup"
        return doc.with_text(text)

    entry = StageStats("dedup_sentences", detail=detail)
    return Corpus(list(run_stage(stats, entry, corpus, step)))
