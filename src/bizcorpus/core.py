"""Shared domain types for the corpus pipeline.

Every pipeline stage consumes and produces the types defined here:
``Document`` (one ingested text unit), ``Corpus`` (an ordered document
container) and ``PipelineStats`` (the per-stage / per-source accounting
object that the run manifest is rendered from).

Ingestion reads line-delimited JSON records of the form::

    {"id": "...", "url": "...", "source": "...", "date": "YYYY-MM-DD", "text": "..."}

Only ``text`` is required; a missing ``id`` is synthesized from the file
digest and line number so that re-ingesting the same file yields a
byte-identical corpus.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from datetime import date
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, Protocol, TypeVar

log = logging.getLogger(__name__)

T = TypeVar("T")


class ConfigError(ValueError):
    """Configuration problem detected before any work starts (exit code 1)."""


class SourceTag(str, Enum):
    """Provenance label carried by every document."""

    CURATED_BUSINESS = "curated_business"
    PATENT = "patent"
    WIKIPEDIA = "wikipedia"
    CC100 = "cc100"
    MC4 = "mc4"
    COMMON_CRAWL = "common_crawl"
    LATEST_UPDATE = "latest_update"
    OTHER = "other"


@dataclass(frozen=True)
class Document:
    """One ingested text unit. Immutable after ingestion; stage outputs are
    new instances produced via :meth:`with_lang` / :meth:`with_text`."""

    id: str
    source: SourceTag
    text: str
    url: str = ""
    published_date: date | None = None
    lang: str | None = None

    def with_lang(self, lang: str) -> Document:
        return replace(self, lang=lang)

    def with_text(self, text: str) -> Document:
        return replace(self, text=text)


@dataclass
class Corpus:
    """Ordered, deterministic sequence of documents plus free-text provenance.

    Document ids must be unique within a corpus; construction fails otherwise.
    """

    documents: list[Document] = field(default_factory=list)
    provenance: str = ""

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for doc in self.documents:
            if doc.id in seen:
                raise ValueError(f"duplicate document id in corpus: {doc.id!r}")
            seen.add(doc.id)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    def __getitem__(self, idx: int) -> Document:
        return self.documents[idx]

    def source_counts(self) -> Counter[str]:
        return Counter(doc.source.value for doc in self.documents)


@dataclass
class StageStats:
    """Document accounting for one pipeline stage.

    ``doc_removals`` maps removal reason to the number of documents dropped
    for that reason and must sum to the stage's total document loss.
    ``detail`` holds free-form sub-document counters (lines stripped,
    sentences removed, malformed input lines, rule hit counts, ...).
    """

    stage: str
    docs_in: dict[str, int]
    docs_out: dict[str, int]
    doc_removals: dict[str, int] = field(default_factory=dict)
    detail: dict[str, int] = field(default_factory=dict)

    @property
    def total_in(self) -> int:
        return sum(self.docs_in.values())

    @property
    def total_out(self) -> int:
        return sum(self.docs_out.values())

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "docs_in": dict(sorted(self.docs_in.items())),
            "docs_out": dict(sorted(self.docs_out.items())),
            "doc_removals": dict(sorted(self.doc_removals.items())),
            "detail": dict(sorted(self.detail.items())),
        }


@dataclass
class PipelineStats:
    """Accumulated accounting across a pipeline run.

    Mirrors the per-source token table a training run would report:
    per-source document counts before/after each stage, removal counts per
    reason, and per-source token totals.
    """

    stages: list[StageStats] = field(default_factory=list)
    tokens_by_source: dict[str, int] = field(default_factory=dict)
    seed: int | None = None
    config_digest: str | None = None

    @property
    def total_tokens(self) -> int:
        return sum(self.tokens_by_source.values())

    def record_stage(
        self,
        stage: str,
        before: Corpus,
        after: Corpus,
        doc_removals: dict[str, int] | None = None,
        detail: dict[str, int] | None = None,
    ) -> StageStats:
        """Record one stage and enforce the accounting invariants:
        per-source counts never increase, and per-reason removals sum to the
        total number of documents dropped."""
        docs_in = dict(before.source_counts())
        docs_out = dict(after.source_counts())
        removals = dict(doc_removals or {})
        for tag, n_out in docs_out.items():
            if n_out > docs_in.get(tag, 0):
                raise ValueError(
                    f"stage {stage!r} grew source {tag!r}: {docs_in.get(tag, 0)} -> {n_out}"
                )
        total_removed = sum(docs_in.values()) - sum(docs_out.values())
        if sum(removals.values()) != total_removed:
            raise ValueError(
                f"stage {stage!r} removal reasons sum to {sum(removals.values())}, "
                f"but {total_removed} documents were removed"
            )
        entry = StageStats(stage, docs_in, docs_out, removals, dict(detail or {}))
        self.stages.append(entry)
        return entry


def derive_seed(seed: int, label: str) -> int:
    """Derive a named child seed from the run seed.

    Uses a keyed digest rather than Python's ``hash`` so derived streams are
    stable across processes and runs.
    """
    payload = f"{seed}:{label}".encode("utf-8")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


# ---------------------------------------------------------------------------
# Tokenizer backends
# ---------------------------------------------------------------------------

# Unicode ranges treated as CJK for per-character token splitting: CJK
# symbols/punctuation, kana, kana extensions, Han (incl. ext A and compat),
# and full-width forms.
_CJK_RANGES = (
    (0x3000, 0x303F),
    (0x3040, 0x309F),
    (0x30A0, 0x30FF),
    (0x31F0, 0x31FF),
    (0x3400, 0x4DBF),
    (0x4E00, 0x9FFF),
    (0xF900, 0xFAFF),
    (0xFF01, 0xFF60),
    (0xFF66, 0xFF9D),
)


def code_point_class(ranges: tuple[tuple[int, int], ...]) -> str:
    """Body of a regex character class matching the inclusive code-point
    ``ranges``, for use inside ``[...]``."""
    return "".join(f"\\U{lo:08x}-\\U{hi:08x}" for lo, hi in ranges)


@functools.cache
def _token_re() -> re.Pattern[str]:
    # One token per maximal run of non-space, non-CJK characters, and one per
    # remaining non-space (hence CJK) character. Whitespace is tested first:
    # U+3000 is both whitespace and in the CJK range, and separates tokens.
    # ``\s`` and ``\S`` split characters exactly as ``str.isspace`` does.
    # Compiled on first use: wide ranges take milliseconds to compile, which
    # importers that never count tokens should not pay.
    return re.compile(rf"[^\s{code_point_class(_CJK_RANGES)}]+|\S")


class TokenizerBackend(Protocol):
    name: str

    def count(self, text: str) -> int: ...


class WhitespaceCjkTokenizer:
    """Built-in default tokenizer: whitespace-delimited chunks, with every
    CJK character counted as its own token.

    Not a real subword tokenizer; it exists so token accounting works with
    no external models. Any backend implementing ``count(text) -> int`` can
    replace it.
    """

    name = "whitespace_cjk_v1"

    def count(self, text: str) -> int:
        # subn counts the matches without building a list of them
        return _token_re().subn("", text)[1]


class TokenizeError(RuntimeError):
    """Tokenizer backend failure, carrying the document where it happened."""

    def __init__(self, doc_id: str, message: str = "tokenizer backend failed"):
        super().__init__(f"{message} (document {doc_id!r})")
        self.doc_id = doc_id


def count_tokens(
    corpus: Corpus,
    tokenizer: TokenizerBackend | None = None,
    *,
    stats: PipelineStats | None = None,
) -> PipelineStats:
    """Count tokens per source; the grand total is exactly the sum of the
    per-source totals for any backend."""
    tok = tokenizer or WhitespaceCjkTokenizer()
    per_source: Counter[str] = Counter()
    for doc in corpus:
        try:
            n = tok.count(doc.text)
        except Exception as exc:
            raise TokenizeError(doc.id) from exc
        per_source[doc.source.value] += n
    out = stats if stats is not None else PipelineStats()
    out.tokens_by_source = dict(per_source)
    return out


# ---------------------------------------------------------------------------
# Line-delimited JSON in/out
# ---------------------------------------------------------------------------


def read_jsonl(path: Path | str, parse: Callable[[dict], T]) -> list[T]:
    """Strict line-delimited JSON reader: blank lines are skipped, every
    other line must be a JSON object, and ``parse(obj)`` is returned for each.

    The first bad line stops the read with ``ValueError("<path>:<line>:
    <reason>")``: invalid UTF-8 or JSON, a non-object, or a ``KeyError``,
    ``TypeError`` or ``ValueError`` from ``parse`` (a missing key reads as
    ``missing field 'x'``).
    """
    out: list[T] = []
    with Path(path).open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw.decode("utf-8"))
                if not isinstance(obj, dict):
                    raise TypeError("record is not a JSON object")
                out.append(parse(obj))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from exc
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: missing field {exc.args[0]!r}") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return out


def ingest_jsonl(
    path: Path | str,
    source: SourceTag,
    *,
    stats: PipelineStats | None = None,
) -> Corpus:
    """Ingest one line-delimited JSON file into a corpus.

    A record is valid when it decodes as UTF-8, parses as a JSON object and
    has a string ``text`` field; anything else is counted as malformed and
    skipped. A record-level ``source`` overrides the file-level tag. Missing
    ids are synthesized as ``<file-digest>:<line-number>``; a reused explicit
    id is treated as malformed to keep corpus ids unique.

    An unreadable file raises the underlying ``OSError``.
    """
    path = Path(path)
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()[:12]

    docs: list[Document] = []
    seen_ids: set[str] = set()
    malformed = 0
    for lineno, raw in enumerate(data.split(b"\n"), start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            malformed += 1
            continue
        if not isinstance(obj, dict) or not isinstance(obj.get("text"), str):
            malformed += 1
            continue
        tag = source
        if obj.get("source") is not None:
            try:
                tag = SourceTag(obj["source"])
            except ValueError:
                malformed += 1
                continue
        pub: date | None = None
        raw_date = obj.get("date")
        if isinstance(raw_date, str) and raw_date:
            try:
                pub = date.fromisoformat(raw_date)
            except ValueError:
                pub = None
        raw_id = obj.get("id")
        doc_id = str(raw_id) if raw_id not in (None, "") else f"{digest}:{lineno}"
        if doc_id in seen_ids:
            malformed += 1
            continue
        seen_ids.add(doc_id)
        lang = obj.get("lang")
        docs.append(
            Document(
                id=doc_id,
                source=tag,
                text=obj["text"],
                url=str(obj.get("url") or ""),
                published_date=pub,
                lang=str(lang) if isinstance(lang, str) and lang else None,
            )
        )

    corpus = Corpus(docs, provenance=f"{path.name}@{digest}")
    if malformed:
        log.warning("%s: skipped %d malformed line(s)", path, malformed)
    if stats is not None:
        stats.record_stage(
            f"ingest:{path.name}",
            corpus,
            corpus,
            detail={"malformed_lines": malformed, "ingested": len(docs)},
        )
    return corpus


def document_to_record(doc: Document) -> dict:
    record: dict = {"id": doc.id, "source": doc.source.value, "text": doc.text}
    if doc.url:
        record["url"] = doc.url
    if doc.published_date is not None:
        record["date"] = doc.published_date.isoformat()
    if doc.lang is not None:
        record["lang"] = doc.lang
    return record


def write_corpus_jsonl(corpus: Corpus, path: Path | str) -> Path:
    """Serialize a corpus as line-delimited JSON with stable key order,
    so identical corpora produce byte-identical files."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for doc in corpus:
            fh.write(json.dumps(document_to_record(doc), ensure_ascii=False, sort_keys=True))
            fh.write("\n")
    return path


def _record_to_document(obj: dict) -> Document:
    doc_id, source, text, lang = obj["id"], obj["source"], obj["text"], obj.get("lang")
    if not isinstance(text, str):
        raise ValueError(f"field 'text' must be a string, got {text!r}")
    if lang is not None and not isinstance(lang, str):
        raise ValueError(f"field 'lang' must be a string, got {lang!r}")
    return Document(
        id=str(doc_id),
        source=SourceTag(source),
        text=text,
        url=str(obj.get("url") or ""),
        published_date=date.fromisoformat(obj["date"]) if obj.get("date") else None,
        lang=lang,
    )


def read_corpus_jsonl(path: Path | str) -> Corpus:
    """Strict reader for pipeline-produced corpora: every record must carry
    ``id``, ``source`` and a string ``text``. Raises ``ValueError`` naming
    the first bad line."""
    return Corpus(read_jsonl(path, _record_to_document), provenance=str(path))
