"""Shared domain types for the corpus pipeline.

Every pipeline stage consumes and produces the types defined here:
``Document`` (one ingested text unit), ``Corpus`` (an ordered document
container) and ``PipelineStats`` (the per-stage / per-source accounting
object that the run manifest is rendered from). A stage is a per-document
step run by :func:`run_stage`, a generator that does every stage's
accounting, so stages chain one document at a time. No stage carries
provenance: where a document came from is its ``source``.

Ingestion reads line-delimited JSON records of the form::

    {"id": "...", "url": "...", "source": "...", "date": "YYYY-MM-DD", "text": "..."}

Only ``text`` is required; a missing ``id`` is synthesized from the file
digest and line number so that re-ingesting the same file yields a
byte-identical corpus.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import logging
import os
import re
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from enum import Enum
from pathlib import Path
from types import UnionType
from typing import Callable, Collection, Iterable, Iterator, Protocol, TextIO, TypeVar, Union
from typing import get_args, get_origin, get_type_hints

log = logging.getLogger(__name__)

T = TypeVar("T")


class ConfigError(ValueError):
    """A value read from a file, a flag or a reply is of the wrong type or out of range."""


def check_keys(where: str, mapping: object, allowed: Collection[str]) -> dict:
    """``mapping``, if it is a dict whose keys are all in ``allowed``; raise
    ``ConfigError`` naming ``where`` otherwise."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a JSON object, got {mapping!r}")
    unknown = sorted(str(key) for key in mapping.keys() - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")
    return mapping


def read_yaml_mapping(path: Path | str, keys: Collection[str], where: str) -> dict:
    """The mapping that the file at ``path`` holds, checked by
    :func:`check_keys`. Text that parses as JSON is read as JSON, whatever the
    file's suffix; any other text is read as YAML, so PyYAML is imported only
    for a YAML file. An empty file holds ``{}``. Invalid YAML raises
    ``ConfigError("<path>: invalid YAML: ...")``."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        raw = json.loads(text)  # PyYAML would read 5e-1 as a string
    except json.JSONDecodeError:
        import yaml  # here, so that a JSON config and the benchmark side load no YAML

        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    return check_keys(where, {} if raw is None else raw, keys)


_JSON_TYPE_NAMES = {str: "string", int: "integer", float: "number", bool: "boolean"}

# resolves the string annotations that ``from __future__ import annotations`` leaves
_field_types = functools.cache(get_type_hints)


def _conform(kind: object, value: object) -> object:
    """``value`` as a field of type ``kind`` stores it; ``TypeError`` or ``ValueError`` if not one."""
    if type(value) is kind:  # most values, and never a boolean for an int
        return value
    origin, args = get_origin(kind), get_args(kind)
    if origin in (Union, UnionType):  # X | None
        return None if value is None else _conform(args[0], value)
    if origin is Mapping and isinstance(value, Mapping):
        return {_conform(args[0], key): _conform(args[1], item) for key, item in value.items()}
    if origin in (tuple, frozenset, list) and not isinstance(value, (str, Mapping)):
        return origin(_conform(args[0], item) for item in value)  # never a bare string's characters
    if origin is not None:
        raise TypeError(value)
    if kind is float and type(value) is int or issubclass(kind, Enum):
        return kind(value)  # a float from an integer; an enum member from its value
    if Protocol in kind.__mro__ or isinstance(value, kind) and type(value) is not bool:
        return value  # a subclass instance, or anything for a protocol: a duck-typed plug point
    raise TypeError(value)


def _labels(kind: type[Enum]) -> str:
    """The labels of ``kind``, each quoted, in definition order."""
    return ", ".join(repr(member.value) for member in kind)


def _json_type(kind: object, nested: bool = False) -> str:
    """How a field of type ``kind`` is written in JSON. An ``Enum`` field is a
    string with its labels listed; inside a list or an object it is named by
    its class."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is None:
        if issubclass(kind, Enum) and not nested:
            return f"string, one of {_labels(kind)}"
        return _JSON_TYPE_NAMES.get(kind, kind.__name__)
    if origin is Mapping:
        return f"object of {_json_type(args[0], True)} to {_json_type(args[1], True)}"
    if origin in (Union, UnionType):
        return _json_type(args[0], nested)
    return f"list of {_json_type(args[0], True)}s"


def check_field_types(record: object) -> None:
    """Check each field of the dataclass ``record`` against its annotation and
    store a value converted to it (a list to a ``frozenset[str]``); raise
    ``ConfigError("<field> must be a JSON <type>, got <value!r>")`` otherwise."""
    for name, kind in _field_types(type(record)).items():
        value = getattr(record, name)
        try:
            stored = _conform(kind, value)
        except (TypeError, ValueError):
            raise ConfigError(f"{name} must be a JSON {_json_type(kind)}, got {value!r}") from None
        if stored is not value:
            object.__setattr__(record, name, stored)  # past the freeze of a frozen dataclass


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

    # built field by field: ``dataclasses.replace`` costs twice as much, and
    # the streamed stages call these once per document
    def with_lang(self, lang: str) -> Document:
        return Document(self.id, self.source, self.text, self.url, self.published_date, lang)

    def with_text(self, text: str) -> Document:
        """This document with ``text`` in place of its own; the document
        itself when the texts are equal, so "unchanged" is decided here only."""
        if text == self.text:
            return self
        return Document(self.id, self.source, text, self.url, self.published_date, self.lang)


@dataclass
class Corpus:
    """Ordered, deterministic sequence of documents.

    Document ids must be unique within a corpus; construction fails otherwise.
    No stage sets or reads ``provenance``; it is kept only for callers that
    still pass it.
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


@dataclass
class StageStats:
    """Document accounting for one pipeline stage.

    ``docs_in`` and ``docs_out`` count documents per source label, as
    :func:`run_stage` fills them. ``doc_removals`` maps removal reason to the
    number of documents dropped for that reason and must sum to the stage's
    total document loss.
    ``detail`` holds free-form sub-document counters (lines stripped,
    sentences removed, malformed input lines, rule hit counts, ...).
    """

    stage: str
    docs_in: dict[str, int] = field(default_factory=dict)
    docs_out: dict[str, int] = field(default_factory=dict)
    doc_removals: dict[str, int] = field(default_factory=dict)
    detail: dict[str, int] = field(default_factory=dict)

    @property
    def total_in(self) -> int:
        return sum(self.docs_in.values())

    @property
    def total_out(self) -> int:
        return sum(self.docs_out.values())


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

    def record_stage(self, entry: StageStats) -> StageStats:
        """Record one stage and enforce the accounting invariants:
        per-source counts never increase, and per-reason removals sum to the
        total number of documents dropped."""
        for tag, n_out in entry.docs_out.items():
            n_in = entry.docs_in.get(tag, 0)
            if n_out > n_in:
                raise ValueError(f"stage {entry.stage!r} grew source {tag!r}: {n_in} -> {n_out}")
        reasons, lost = sum(entry.doc_removals.values()), entry.total_in - entry.total_out
        if reasons != lost:
            raise ValueError(
                f"stage {entry.stage!r} removal reasons sum to {reasons}, "
                f"but {lost} documents were removed"
            )
        self.stages.append(entry)
        return entry


def run_stage(
    stats: PipelineStats | None,
    entry: StageStats,
    docs: Iterable[Document],
    step: Callable[[Document], Document | str],
) -> Iterator[Document]:
    """Run one stage as a stream: pass each document to ``step``, which
    returns the document to keep (possibly rewritten) or, for a document that
    goes, the reason as a string, and yield each document kept as soon as its
    step returns. The documents in and out are counted per source and the
    reasons per reason into ``entry``, whose ``doc_removals`` and ``detail``
    the stage seeds with the keys it always reports; once ``docs`` runs out,
    ``entry`` is recorded into ``stats``, which checks it. An exception from
    ``step`` leaves with the stage's name as its ``stage`` attribute, so a
    failure in a chain of stages names the stage whose step raised."""
    docs_in, docs_out, removals = entry.docs_in, entry.docs_out, entry.doc_removals
    for doc in docs:
        docs_in[doc.source.value] = docs_in.get(doc.source.value, 0) + 1
        try:
            result = step(doc)
        except Exception as exc:
            if not hasattr(exc, "stage"):
                exc.stage = entry.stage
            raise
        if isinstance(result, str):
            removals[result] = removals.get(result, 0) + 1
        else:
            docs_out[result.source.value] = docs_out.get(result.source.value, 0) + 1
            yield result
    if stats is not None:
        stats.record_stage(entry)


def derive_seed(seed: int, label: str) -> int:
    """Derive a named child seed from the run seed.

    Uses a keyed digest rather than Python's ``hash`` so derived streams are
    stable across processes and runs.
    """
    payload = f"{seed}:{label}".encode("utf-8")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


# ---------------------------------------------------------------------------
# Token counting
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
def _cjk_run_re() -> re.Pattern[str]:
    # Maximal runs of the CJK characters that are not whitespace: U+3000
    # IDEOGRAPHIC SPACE is the one ``str.isspace`` character in the CJK
    # ranges, and it separates tokens instead of being one. Compiled on first
    # use: wide ranges take milliseconds to compile, which importers that
    # never count tokens should not pay.
    return re.compile(f"[{code_point_class(((0x3001, 0x303F),) + _CJK_RANGES[1:])}]+")


class WhitespaceCjkTokenizer:
    """The one token count: whitespace-delimited chunks, with every CJK
    character counted as its own token.

    Not a real subword tokenizer; it exists so token accounting works with
    no external models.
    """

    def count(self, text: str) -> int:
        # Counted by runs, a few regex matches per document where one per
        # character cost several times more: each CJK character is a token,
        # and so is each whitespace-delimited run of the rest once each CJK
        # run is replaced by one space. A run of n characters shortens the
        # text by n - 1, so the CJK characters number the shortening plus
        # the runs. ``str.split()`` splits on exactly the ``str.isspace``
        # characters.
        spaced, runs = _cjk_run_re().subn(" ", text)
        return len(text) - len(spaced) + runs + len(spaced.split())


def count_tokens(corpus: Corpus, *, stats: PipelineStats | None = None) -> PipelineStats:
    """Count tokens per source; the grand total is exactly the sum of the
    per-source totals."""
    count = WhitespaceCjkTokenizer().count
    per_source: Counter[str] = Counter()
    for doc in corpus:
        per_source[doc.source.value] += count(doc.text)
    out = stats if stats is not None else PipelineStats()
    out.tokens_by_source = dict(per_source)
    return out


# ---------------------------------------------------------------------------
# JSON in/out
# ---------------------------------------------------------------------------


def utcnow() -> str:
    """The current UTC time to the second, as ``YYYY-MM-DDTHH:MM:SSZ``."""
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@contextlib.contextmanager
def open_replacing(path: Path | str) -> Iterator[TextIO]:
    """Open ``<name>.tmp`` for writing UTF-8 text and rename it over ``path``
    once the block ends. A block that raises, ``KeyboardInterrupt``
    included, deletes the temporary file, so an interrupted write never
    leaves a truncated file and an earlier ``path`` stays as it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            yield fh
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def write_json(path: Path | str, obj: dict) -> None:
    """Write ``obj`` as JSON with sorted keys, indent 2 and a trailing
    newline, through :func:`open_replacing`."""
    with open_replacing(path) as fh:
        fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n")


def write_jsonl(path: Path | str, records: Iterable[dict]) -> Path:
    """Write each record as one line of JSON, keys sorted and text as UTF-8
    rather than ``\\u`` escapes, through :func:`open_replacing`: the one
    JSON-lines format of every output file, and an interrupted write keeps
    the old file."""
    path = Path(path)
    # json.dumps with options would build a new encoder for every line
    encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
    with open_replacing(path) as fh:
        fh.writelines(encode(record) + "\n" for record in records)
    return path


def parse_object(raw: bytes, parse: Callable[[dict], T], path: Path | str, lineno: int | None = None) -> T:
    """Decode ``raw`` as one UTF-8 JSON object and return ``parse(obj)``.

    Invalid UTF-8 or JSON, a value that is not an object, or a ``KeyError``,
    ``TypeError`` or ``ValueError`` from ``parse`` raises
    ``ValueError("<path>: <reason>")``, or ``"<path>:<lineno>: <reason>"``
    for one line of a file; a missing key reads as ``missing field 'x'``.
    """
    try:
        obj = json.loads(raw.decode("utf-8"))
        if not isinstance(obj, dict):
            raise TypeError("record is not a JSON object")
        return parse(obj)
    except (KeyError, TypeError, ValueError) as exc:
        # worded only on failure: a good line costs no string building
        if isinstance(exc, KeyError):
            reason = f"missing field {exc.args[0]!r}"
        elif isinstance(exc, json.JSONDecodeError):
            # within a whole file, the line and column are where to look
            reason = f"invalid JSON: {exc if lineno is None else exc.msg}"
        else:
            reason = str(exc)
        where = path if lineno is None else f"{path}:{lineno}"
        raise ValueError(f"{where}: {reason}") from exc


def read_json(path: Path | str, parse: Callable[[dict], T] = dict) -> T:
    """Strict whole-file JSON reader: the file must hold one JSON object, and
    ``parse(obj)`` is returned. Anything else raises ``ValueError("<path>:
    <reason>")`` as :func:`parse_object` words it."""
    return parse_object(Path(path).read_bytes(), parse, path)


def read_jsonl(path: Path | str, parse: Callable[[dict], T]) -> list[T]:
    """Strict line-delimited JSON reader: blank lines are skipped, every
    other line must be a JSON object, and ``parse(obj)`` is returned for each.
    The first bad line stops the read with ``ValueError("<path>:<line>:
    <reason>")`` as :func:`parse_object` words it.
    """
    out: list[T] = []
    with Path(path).open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if raw.strip():
                out.append(parse_object(raw, parse, path, lineno))
    return out


def ingest_jsonl(
    path: Path | str,
    source: SourceTag,
    *,
    stats: PipelineStats | None = None,
) -> Corpus:
    """Ingest one line-delimited JSON file into a corpus.

    A missing, null or empty ``id`` becomes ``<file-digest>:<line-number>``
    and a missing or null ``source`` the file-level tag. A line is then
    malformed, counted and skipped, when the strict reader
    (:func:`read_corpus_jsonl`) would reject it or when it reuses an id of
    this file. An unreadable file raises the underlying ``OSError``.
    """
    path = Path(path)
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()[:12]

    docs: list[Document] = []
    seen_ids: set[str] = set()
    malformed = 0

    def parse(obj: dict) -> Document:
        # called from the loop below, so ``lineno`` is the line being parsed
        if obj.get("id") in (None, ""):
            obj["id"] = f"{digest}:{lineno}"
        if obj.get("source") is None:
            obj["source"] = source
        doc = _record_to_document(obj)
        if doc.id in seen_ids:
            raise ValueError(f"id {doc.id!r} reused")
        return doc

    for lineno, raw in enumerate(data.split(b"\n"), start=1):
        if not raw.strip():
            continue
        try:
            doc = parse_object(raw, parse, path, lineno)
        except ValueError:
            malformed += 1
            continue
        seen_ids.add(doc.id)
        docs.append(doc)

    if malformed:
        log.warning("%s: skipped %d malformed line(s)", path, malformed)
    detail = {"malformed_lines": malformed, "ingested": len(docs)}
    entry = StageStats(f"ingest:{path.name}", detail=detail)
    return Corpus(list(run_stage(stats, entry, docs, lambda doc: doc)))


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
    """Write one record per document with :func:`write_jsonl`, so identical
    corpora produce byte-identical files."""
    return write_jsonl(path, map(document_to_record, corpus))


# ``date.fromisoformat`` also takes ``20230105`` and ``2023-W01-4`` from
# Python 3.11 on; a record's date is ``YYYY-MM-DD`` on every version
_ISO_DAY = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _record_to_document(obj: dict) -> Document:
    """The one definition of a valid corpus record, for both readers; an
    empty ``url`` or ``date`` means absent."""
    doc_id, source, text = obj["id"], obj["source"], obj["text"]
    url, day, lang = obj.get("url"), obj.get("date"), obj.get("lang")
    if not isinstance(doc_id, str):
        raise ValueError(f"field 'id' must be a string, got {doc_id!r}")
    if not isinstance(text, str):
        raise ValueError(f"field 'text' must be a string, got {text!r}")
    if url is not None and not isinstance(url, str):
        raise ValueError(f"field 'url' must be a string, got {url!r}")
    if lang is not None and not isinstance(lang, str):
        raise ValueError(f"field 'lang' must be a string, got {lang!r}")
    if day is not None and not isinstance(day, str):
        raise ValueError(f"field 'date' must be a string, got {day!r}")
    if day and not _ISO_DAY.fullmatch(day):
        raise ValueError(f"field 'date' must be YYYY-MM-DD, got {day!r}")
    try:
        tag = SourceTag(source)
    except ValueError:
        raise ValueError(f"field 'source' must be one of {_labels(SourceTag)}, got {source!r}") from None
    return Document(
        id=doc_id,
        source=tag,
        text=text,
        url=url or "",
        published_date=None if day in (None, "") else date.fromisoformat(day),
        lang=lang,
    )


_RECORD_KEYS = frozenset({"id", "url", "source", "date", "text", "lang"})


def read_corpus_jsonl(path: Path | str) -> Corpus:
    """Strict reader for pipeline-produced corpora: every record must hold
    only the keys a written record has, and be valid as
    :func:`_record_to_document` defines it. Raises ``ValueError`` naming the
    first bad line."""
    return Corpus(read_jsonl(path, lambda obj: _record_to_document(check_keys("record", obj, _RECORD_KEYS))))
