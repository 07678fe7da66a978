"""Exact-match deduplication at document and sentence level.

Documents are grouped by a stable 64-bit BLAKE2b fingerprint of their text
bytes and merged only after byte comparison, so dedup semantics are exact
regardless of hash quality; the first-seen document of each equal class
survives. Sentences are counted corpus-wide with a terminator-based split,
and every occurrence of a sentence whose frequency exceeds the threshold is
removed — over-threshold sentences are boilerplate, so no copies are kept.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .core import Corpus, Document, PipelineStats
from .noise import DEFAULT_JP_TERMINATORS, DEFAULT_LATIN_TERMINATORS


def document_fingerprint(doc: Document, *, bits: int = 64) -> int:
    """Fingerprint of the document text bytes. ``bits`` narrows the digest
    (test hook for forcing collisions); equal texts always collide, and
    colliding fingerprints are resolved by byte comparison downstream."""
    if not 1 <= bits <= 64:
        raise ValueError("bits must be in 1..64")
    digest = hashlib.blake2b(doc.text.encode("utf-8"), digest_size=8).digest()
    fp = int.from_bytes(digest, "big")
    return fp & ((1 << bits) - 1) if bits < 64 else fp


@dataclass(frozen=True)
class DedupConfig:
    sentence_frequency_threshold: int = 15
    terminators: frozenset[str] = field(
        default=DEFAULT_JP_TERMINATORS | DEFAULT_LATIN_TERMINATORS
    )

    def __post_init__(self) -> None:
        if self.sentence_frequency_threshold < 1:
            raise ValueError("sentence_frequency_threshold must be >= 1")
        if not self.terminators:
            raise ValueError("terminators must be non-empty")

    @cached_property
    def sentence_pattern(self) -> re.Pattern[str]:
        """Matches one sentence: text up to and including a terminator, or a
        trailing fragment without one. Only single-character terminators can
        end a sentence; with none, the whole line is one sentence."""
        chars = "".join(re.escape(t) for t in sorted(self.terminators) if len(t) == 1)
        if not chars:
            return re.compile(r"(?s:.+)")
        return re.compile(f"[^{chars}]*[{chars}]|[^{chars}]+")


def _split_line(config: DedupConfig, line: str) -> list[str]:
    return [s for m in config.sentence_pattern.findall(line) if (s := m.strip())]


def split_sentences(config: DedupConfig, text: str) -> list[str]:
    """Terminator-based sentence split, line by line. Sentences keep their
    terminator; a trailing fragment without one still counts as a sentence."""
    out: list[str] = []
    for line in text.splitlines():
        out.extend(_split_line(config, line))
    return out


@dataclass
class SentenceFrequencyTable:
    """Exact sentence string -> occurrence count over a whole corpus."""

    counts: Counter[str] = field(default_factory=Counter)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def dump_jsonl(self, path: Path | str) -> Path:
        """Audit dump, most frequent first (ties broken by sentence)."""
        path = Path(path)
        ordered = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        with path.open("w", encoding="utf-8") as fh:
            for sentence, count in ordered:
                fh.write(json.dumps({"sentence": sentence, "count": count}, ensure_ascii=False))
                fh.write("\n")
        return path


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


def dedup_documents(
    config: DedupConfig,
    corpus: Corpus,
    *,
    stats: PipelineStats | None = None,
    fingerprint_bits: int = 64,
) -> Corpus:
    """Drop byte-identical documents, keeping the first seen of each class.
    Fingerprints only bucket candidates; equality is always confirmed on the
    text itself, so narrow test fingerprints cannot merge distinct documents."""
    groups: dict[int, list[str]] = {}
    kept: list[Document] = []
    removed = 0
    for doc in corpus:
        fp = document_fingerprint(doc, bits=fingerprint_bits)
        texts = groups.setdefault(fp, [])
        if any(text == doc.text for text in texts):
            removed += 1
            continue
        texts.append(doc.text)
        kept.append(doc)
    out = Corpus(kept, provenance=corpus.provenance)
    if stats is not None:
        stats.record_stage(
            "dedup_documents", corpus, out, doc_removals={"duplicate_document": removed}
        )
    return out


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
    threshold = config.sentence_frequency_threshold
    kept_docs: list[Document] = []
    sentences_removed = 0
    removals: Counter[str] = Counter()
    for doc in corpus:
        out_lines: list[str] = []
        removed_any = False
        for line in doc.text.splitlines():
            sentences = _split_line(config, line)
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
            removed_any = removed_any or removed_here
        if removed_any and not any(line.strip() for line in out_lines):
            removals["emptied_by_sentence_dedup"] += 1
            continue
        text = "\n".join(out_lines)
        kept_docs.append(doc if text == doc.text else doc.with_text(text))
    out = Corpus(kept_docs, provenance=corpus.provenance)
    if stats is not None:
        stats.record_stage(
            "dedup_sentences",
            corpus,
            out,
            doc_removals=dict(removals),
            detail={"sentences_removed": sentences_removed},
        )
    return out
