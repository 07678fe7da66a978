"""End-to-end pipeline driver.

Loads a single declarative config, validates it up front, then runs the
fixed stage order — curation, language filtering, noise removal, document
dedup, sentence dedup, token counting — and writes the cleaned corpus plus
a manifest mirroring the per-source token table. Every stage can also run
standalone through the CLI subcommands.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import yaml

from . import dedup as dedup_mod
from .core import (
    ConfigError,
    Corpus,
    PipelineStats,
    SourceTag,
    count_tokens,
    ingest_jsonl,
    write_corpus_jsonl,
)
from .curation import CurationRuleSet, curate, load_rules
from .langid import LangIdConfig, filter_non_japanese
from .noise import NoiseConfig, denoise_corpus

log = logging.getLogger(__name__)

MANIFEST_SCHEMA = "bizcorpus-manifest/1"

ENV_OUTPUT_DIR = "BIZCORPUS_OUTPUT_DIR"

_SECTION_KEYS = {
    "curation": frozenset({"rules_file"}),
    "lang_id": frozenset({"uncertainty_threshold", "jp_script_ratio_threshold", "classifier_cmd"}),
    "noise": frozenset(
        {"jp_terminators", "latin_terminators", "min_sentential_ratio", "punctuationless_languages"}
    ),
    "dedup": frozenset({"sentence_frequency_threshold"}),
}
_TOP_LEVEL_KEYS = frozenset(
    {"seed", "output_dir", "workers", "sources", "dump_sentence_freq", *_SECTION_KEYS}
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


def _check_keys(where: str, mapping: dict, allowed: frozenset[str]) -> None:
    unknown = sorted(str(key) for key in mapping.keys() - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")


def _section(raw: dict, name: str) -> dict:
    section = raw.get(name) or {}
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: must be a mapping")
    _check_keys(name, section, _SECTION_KEYS[name])
    return section


def _settings(section: dict, **convert: Callable) -> dict:
    """The keys of ``section`` named in ``convert``, each converted. Absent
    keys are left out, so the config dataclass's own defaults apply."""
    return {key: convert[key](value) for key, value in section.items() if key in convert}


def load_config(path: Path | str) -> PipelineConfig:
    """Load and validate the pipeline config. Referenced files must exist;
    any problem, including an unknown key, raises :class:`ConfigError`
    before work starts. The caller owns the classifier child process the
    config may start and stops it with :meth:`PipelineConfig.close`.

    ``BIZCORPUS_OUTPUT_DIR`` overrides the config's ``output_dir``.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    with path.open("r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh) or {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    _check_keys("top level", raw, _TOP_LEVEL_KEYS)
    sections = {name: _section(raw, name) for name in _SECTION_KEYS}
    base = path.parent

    def _resolve(p: str) -> Path:
        candidate = Path(p)
        return candidate if candidate.is_absolute() else base / candidate

    sources: list[SourceSpec] = []
    for i, entry in enumerate(raw.get("sources") or []):
        if not isinstance(entry, dict) or "path" not in entry:
            raise ConfigError(f"sources[{i}]: each source needs a path")
        _check_keys(f"sources[{i}]", entry, _SOURCE_KEYS)
        src_path = _resolve(str(entry["path"]))
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
    if curation_raw.get("rules_file"):
        rules_path = _resolve(str(curation_raw["rules_file"]))
        if not rules_path.exists():
            raise ConfigError(f"curation rules file not found: {rules_path}")
        try:
            rules = load_rules(rules_path)
        except ValueError as exc:
            raise ConfigError(f"bad rules file {rules_path}: {exc}") from exc

    try:
        lang_raw = sections["lang_id"]
        lang_id = LangIdConfig(
            **_settings(lang_raw, uncertainty_threshold=float, jp_script_ratio_threshold=float)
        )
        noise = NoiseConfig(
            **_settings(
                sections["noise"],
                jp_terminators=frozenset,
                latin_terminators=frozenset,
                min_sentential_ratio=float,
                punctuationless_languages=frozenset,
            )
        )
        dedup_cfg = dedup_mod.DedupConfig(
            **_settings(sections["dedup"], sentence_frequency_threshold=int),
            terminators=noise.terminators,
        )
        seed = int(raw.get("seed", 0))
        workers = int(raw.get("workers", 1))
        if workers < 1:
            raise ValueError("workers must be >= 1")
        # spawned last, so a config that fails validation leaves no child behind
        if lang_raw.get("classifier_cmd"):
            from .backends import SubprocessClassifier

            lang_id.classifier = SubprocessClassifier(lang_raw["classifier_cmd"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    output_dir = Path(os.environ.get(ENV_OUTPUT_DIR) or _resolve(str(raw.get("output_dir", "out"))))
    return PipelineConfig(
        sources=sources,
        output_dir=output_dir,
        seed=seed,
        rules=rules,
        lang_id=lang_id,
        noise=noise,
        dedup=dedup_cfg,
        workers=workers,
        dump_sentence_freq=bool(raw.get("dump_sentence_freq", False)),
        raw=raw,
    )


def _merge(corpora: list[Corpus]) -> Corpus:
    docs = [doc for corpus in corpora for doc in corpus]
    provenance = "; ".join(c.provenance for c in corpora if c.provenance)
    return Corpus(docs, provenance=provenance)


def run_pipeline(config: PipelineConfig) -> PipelineStats:
    """Execute the full pipeline and write ``cleaned.jsonl`` and
    ``manifest.json`` into the output directory.

    On a stage failure the manifest is still written, marked incomplete, and
    :class:`StageFailure` propagates with the stage name.
    """
    stats = PipelineStats(seed=config.seed, config_digest=config.digest)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    stage = "ingest"
    try:
        corpora = [
            ingest_jsonl(spec.path, spec.source, stats=stats) for spec in config.sources
        ]
        corpus = _merge(corpora)
        log.info("ingested %d documents from %d source file(s)", len(corpus), len(corpora))

        if config.rules is not None:
            stage = "curate"
            corpus = curate(config.rules, corpus, stats=stats)

        stage = "lang_id"
        corpus = filter_non_japanese(config.lang_id, corpus, stats=stats)

        stage = "noise_filter"
        corpus = denoise_corpus(config.noise, corpus, stats=stats)

        stage = "dedup_documents"
        corpus = dedup_mod.dedup_documents(config.dedup, corpus, stats=stats)

        stage = "dedup_sentences"
        table = dedup_mod.count_sentences(config.dedup, corpus)
        corpus = dedup_mod.dedup_sentences(config.dedup, corpus, table, stats=stats)
        if config.dump_sentence_freq:
            table.dump_jsonl(config.output_dir / "sentence_freq.jsonl")

        stage = "count_tokens"
        count_tokens(corpus, stats=stats)

        stage = "write_output"
        write_corpus_jsonl(corpus, config.output_dir / "cleaned.jsonl")
    except Exception as exc:
        emit_manifest(stats, config.output_dir / "manifest.json", status="incomplete")
        doc_id = getattr(exc, "doc_id", None)
        raise StageFailure(stage, str(exc), doc_id) from exc

    emit_manifest(stats, config.output_dir / "manifest.json")
    return stats


def emit_manifest(
    stats: PipelineStats, path: Path | str, *, status: str = "complete"
) -> Path:
    """Write the structured run report: one row per source label (zero-count
    rows included) with document and token counts, the per-stage removal
    accounting, the config digest and the seed."""
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
        "created_at": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "status": status,
        "seed": stats.seed,
        "config_digest": stats.config_digest,
        "sources": sources,
        "total_tokens": stats.total_tokens,
        "stages": [s.to_dict() for s in stats.stages],
    }
    path = Path(path)
    path.write_text(
        json.dumps(manifest, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    return path
