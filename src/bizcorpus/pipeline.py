"""End-to-end pipeline driver.

Loads a single declarative config, validates it up front, then runs the
fixed stage order of :data:`STAGES` — curation, language filtering, noise
removal, document dedup, sentence dedup — counts tokens, and writes the
cleaned corpus plus a manifest mirroring the per-source token table. A
stage command of the CLI runs a slice of :data:`STAGES` through the same
:func:`run_pipeline`, over one corpus file in place of the config's sources.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import dedup as dedup_mod
from .core import (
    ConfigError,
    Corpus,
    Document,
    PipelineStats,
    SourceTag,
    check_field_types,
    check_keys,
    count_tokens,
    ingest_jsonl,
    read_yaml_mapping,
    utcnow,
    write_corpus_jsonl,
    write_json,
)
from .curation import CurationRuleSet, curate, load_rules
from .langid import LangIdConfig, iter_japanese
from .noise import NoiseConfig, iter_denoised

log = logging.getLogger(__name__)

MANIFEST_SCHEMA = "bizcorpus-manifest/1"

ENV_OUTPUT_DIR = "BIZCORPUS_OUTPUT_DIR"


# Every key of each stage section. ``rules_file`` and ``classifier_cmd`` are
# read by load_config itself; each other key sets the field of that name on
# the stage's config dataclass, which checks its value.
_SECTIONS: dict[str, frozenset[str]] = {
    "curation": frozenset({"rules_file"}),
    "lang_id": frozenset({"uncertainty_threshold", "jp_script_ratio_threshold", "classifier_cmd"}),
    "noise": frozenset({"terminators", "min_sentential_ratio"}),
    "dedup": frozenset({"sentence_frequency_threshold"}),
}
_TOP_LEVEL_KEYS = frozenset(
    {"seed", "output_dir", "workers", "sources", "dump_sentence_freq", *_SECTIONS}
)
_SOURCE_KEYS = frozenset({"path", "source"})


class StageFailure(RuntimeError):
    """A pipeline stage failed mid-run (exit code 2)."""

    def __init__(self, stage: str, message: str, doc_id: str | None = None):
        detail = f" (document {doc_id!r})" if doc_id else ""
        super().__init__(f"stage {stage!r} failed{detail}: {message}")
        self.stage = stage
        self.doc_id = doc_id


@dataclass
class SourceSpec:
    path: Path
    source: SourceTag


@dataclass
class PipelineConfig:
    sources: list[SourceSpec]
    output_dir: Path
    seed: int = 0
    rules: CurationRuleSet | None = None
    lang_id: LangIdConfig = field(default_factory=LangIdConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    dedup: dedup_mod.DedupConfig = field(default_factory=dedup_mod.DedupConfig)
    # validated but not used: every stage runs in one thread
    workers: int = 1
    dump_sentence_freq: bool = False
    raw: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")

    @property
    def digest(self) -> str:
        # identifies the data-defining configuration; where outputs land and
        # the workers setting do not change what gets produced
        significant = {k: v for k, v in self.raw.items() if k not in ("output_dir", "workers")}
        canonical = json.dumps(significant, sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def close(self) -> None:
        """Stop the classifier child process that :func:`load_config` started."""
        if self.lang_id.classifier is not None:
            self.lang_id.classifier.close()


def load_config(path: Path | str, *, start_classifier: bool = True) -> PipelineConfig:
    """Load and validate the pipeline config. Referenced files must exist;
    any problem, including an unknown key, raises :class:`ConfigError`
    before work starts. The caller owns the classifier child process the
    config may start and stops it with :meth:`PipelineConfig.close`; with
    ``start_classifier`` false, ``lang_id.classifier_cmd`` is checked alike
    but no child is started.

    ``BIZCORPUS_OUTPUT_DIR`` overrides the config's ``output_dir``.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    raw = read_yaml_mapping(path, _TOP_LEVEL_KEYS, f"{path}: top level")
    # a section left empty (``noise:``) reads as null
    sections = {
        name: check_keys(name, {} if raw.get(name) is None else raw[name], keys)
        for name, keys in _SECTIONS.items()
    }
    base = path.parent

    def _resolve(key: str, value: object) -> Path:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: {key} must be a JSON string, got {value!r}")
        candidate = Path(value)
        return candidate if candidate.is_absolute() else base / candidate

    # checked before any child is spawned, and also when the environment overrides it
    output_dir = _resolve("output_dir", raw.get("output_dir", "out"))
    output_dir = Path(os.environ.get(ENV_OUTPUT_DIR) or output_dir)

    entries = raw.get("sources") or []
    if not isinstance(entries, list):
        raise ConfigError(f"{path}: sources must be a JSON list, got {entries!r}")
    sources: list[SourceSpec] = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "path" not in entry:
            raise ConfigError(f"sources[{i}]: each source needs a path")
        check_keys(f"sources[{i}]", entry, _SOURCE_KEYS)
        src_path = _resolve(f"sources[{i}].path", entry["path"])
        if not src_path.exists():
            raise ConfigError(f"sources[{i}]: file not found: {src_path}")
        try:
            tag = SourceTag(entry.get("source", "other"))
        except ValueError as exc:
            raise ConfigError(f"sources[{i}]: {exc}") from exc
        sources.append(SourceSpec(src_path, tag))
    if not sources:
        raise ConfigError("config lists no ingestion sources")

    rules = None
    curation_raw = sections["curation"]
    if curation_raw.get("rules_file") not in (None, ""):
        rules_path = _resolve("curation.rules_file", curation_raw["rules_file"])
        if not rules_path.exists():
            raise ConfigError(f"curation rules file not found: {rules_path}")
        try:
            rules = load_rules(rules_path)
        except ValueError as exc:
            raise ConfigError(f"bad rules file {rules_path}: {exc}") from exc

    lang_id_settings = dict(sections["lang_id"])
    classifier_cmd = lang_id_settings.pop("classifier_cmd", None)
    if classifier_cmd is not None:
        from .backends import command_argv

        try:
            classifier_cmd = command_argv(classifier_cmd)
        except ConfigError as exc:
            raise ConfigError(f"{path}: lang_id.classifier_cmd: {exc}") from None
    try:
        noise = NoiseConfig(**sections["noise"])
        config = PipelineConfig(
            sources=sources,
            output_dir=output_dir,
            seed=raw.get("seed", 0),
            rules=rules,
            lang_id=LangIdConfig(**lang_id_settings),
            noise=noise,
            dedup=dedup_mod.DedupConfig(**sections["dedup"], terminators=noise.terminators),
            workers=raw.get("workers", 1),
            dump_sentence_freq=raw.get("dump_sentence_freq", False),
            raw=raw,
        )
        # spawned last, so a config that fails validation leaves no child behind
        if classifier_cmd is not None and start_classifier:
            from .backends import SubprocessClassifier

            config.lang_id.classifier = SubprocessClassifier(classifier_cmd)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return config


def _curate(config: PipelineConfig, docs: Iterable[Document], stats: PipelineStats) -> Iterable[Document]:
    return docs if config.rules is None else curate(config.rules, docs, stats=stats)


def _sentence_dedup(config: PipelineConfig, docs: Iterable[Document], stats: PipelineStats) -> Corpus:
    corpus = Corpus(list(docs))
    table = dedup_mod.count_sentences(config.dedup, corpus)
    corpus = dedup_mod.dedup_sentences(config.dedup, corpus, table, stats=stats)
    if config.dump_sentence_freq:
        table.dump_jsonl(config.output_dir / "sentence_freq.jsonl")
    return corpus


# The stages of a run, in their fixed order, by the name each records.
# ``curate`` and sentence dedup return whole corpora, and lang_id, which sends
# the classifier every distinct text up front, takes one. lang_id, noise_filter
# and dedup_documents return streams, which run as one: each document goes on
# as soon as the classifier has answered for it.
STAGES: dict[str, Callable[[PipelineConfig, Iterable[Document], PipelineStats], Iterable[Document]]] = {
    "curate": _curate,
    "lang_id": lambda config, docs, stats: iter_japanese(config.lang_id, docs, stats=stats),
    "noise_filter": lambda config, docs, stats: iter_denoised(config.noise, docs, stats=stats),
    "dedup_documents": lambda config, docs, stats: dedup_mod.iter_unique_documents(docs, stats=stats),
    "dedup_sentences": _sentence_dedup,
}


def run_pipeline(
    config: PipelineConfig, stages: Sequence[str] = tuple(STAGES), *, corpus: Corpus | None = None
) -> PipelineStats:
    """Run ``stages``, a slice of :data:`STAGES`, over ``corpus`` or, when it
    is None, over the config's ingested sources; count tokens; and write
    ``cleaned.jsonl`` and ``manifest.json`` into the output directory.

    The manifest is written marked incomplete before any stage runs, and again
    on every exit, complete only on success. A stage failure propagates as
    :class:`StageFailure` naming the stage, anything else as itself; a step
    that raises mid-stream names its own stage.
    """
    stats = PipelineStats(seed=config.seed, config_digest=config.digest)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    # an earlier run's complete manifest must not outlive the outputs replaced below
    emit_manifest(stats, config.output_dir / "manifest.json", status="incomplete")
    stage = "ingest"
    status = "incomplete"
    try:
        if corpus is None:
            corpora = [
                ingest_jsonl(spec.path, spec.source, stats=stats) for spec in config.sources
            ]
            corpus = Corpus([doc for c in corpora for doc in c])
            log.info("ingested %d documents from %d source file(s)", len(corpus), len(corpora))

        docs: Iterable[Document] = corpus
        # a stream left unfinished by a failure is closed, which abandons
        # the classifier exchange
        with contextlib.ExitStack() as streams:
            for stage in stages:
                docs = STAGES[stage](config, docs, stats)
                if not isinstance(docs, Corpus):
                    streams.enter_context(contextlib.closing(docs))
            corpus = docs if isinstance(docs, Corpus) else Corpus(list(docs))

        stage = "count_tokens"
        count_tokens(corpus, stats=stats)

        stage = "write_output"
        write_corpus_jsonl(corpus, config.output_dir / "cleaned.jsonl")
        status = "complete"
    except Exception as exc:
        doc_id = getattr(exc, "doc_id", None)
        raise StageFailure(getattr(exc, "stage", stage), str(exc), doc_id) from exc
    finally:
        emit_manifest(stats, config.output_dir / "manifest.json", status=status)
    return stats


def emit_manifest(
    stats: PipelineStats, path: Path | str, *, status: str = "complete"
) -> Path:
    """Write the structured run report: one row per source label (zero-count
    rows included) with document and token counts, the per-stage removal
    accounting, the config digest and the seed. Written with
    :func:`~bizcorpus.core.write_json`, so a kill never leaves it truncated."""
    final_docs: dict[str, int] = stats.stages[-1].docs_out if stats.stages else {}
    sources = {
        tag.value: {
            "documents": final_docs.get(tag.value, 0),
            "tokens": stats.tokens_by_source.get(tag.value, 0),
        }
        for tag in SourceTag
    }
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "created_at": utcnow(),
        "status": status,
        "seed": stats.seed,
        "config_digest": stats.config_digest,
        "sources": sources,
        "total_tokens": stats.total_tokens,
        "stages": [asdict(s) for s in stats.stages],
    }
    write_json(path, manifest)
    return Path(path)
