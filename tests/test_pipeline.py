"""End-to-end pipeline: config validation, stage composition, manifest."""

from __future__ import annotations

import json
import re

import pytest
import synth

from bizcorpus.core import SourceTag, ingest_jsonl, read_corpus_jsonl
from bizcorpus.curation import curate, load_rules
from bizcorpus.dedup import DedupConfig, count_sentences, dedup_documents, dedup_sentences
from bizcorpus.langid import LangIdConfig, filter_non_japanese
from bizcorpus.noise import NoiseConfig, denoise_corpus
from bizcorpus.pipeline import (
    ConfigError,
    StageFailure,
    emit_manifest,
    load_config,
    run_pipeline,
)

SOURCE_LABELS = {
    "curated_business",
    "patent",
    "wikipedia",
    "cc100",
    "mc4",
    "common_crawl",
}


def _stage(stats, name):
    return next(s for s in stats.stages if s.stage == name)


def _manifest(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _normalized(manifest: dict) -> dict:
    out = dict(manifest)
    out.pop("created_at", None)
    return out


class TestRunPipeline:
    def test_planted_truth_recovered(self, tmp_path):
        records, truth = synth.make_records(
            n_core=40,
            n_off_domain=5,
            n_non_japanese=7,
            n_noise_carriers=6,
            n_terminatorless=4,
            n_duplicate_copies=5,
            boiler_frequencies=(15, 16),
        )
        config = load_config(synth.write_pipeline_config(tmp_path, records))
        stats = run_pipeline(config)

        assert _stage(stats, "curate").doc_removals == {"no_rule_match": truth.off_domain}
        assert _stage(stats, "lang_id").doc_removals == {"lang:en": truth.non_japanese}

        noise = _stage(stats, "noise_filter")
        assert noise.detail["lines_date_only"] == truth.date_lines
        assert noise.detail["lines_url_only"] == truth.url_lines
        assert noise.detail["lines_markup_fragment"] == truth.markup_lines
        assert noise.doc_removals == {"non_sentential": truth.terminatorless_docs}

        assert _stage(stats, "dedup_documents").doc_removals == {
            "duplicate_document": truth.duplicate_copies
        }
        # one boilerplate sentence is above the threshold (16), one at it (15)
        assert _stage(stats, "dedup_sentences").detail["sentences_removed"] == 16

        cleaned = read_corpus_jsonl(config.output_dir / "cleaned.jsonl")
        assert [d.id for d in cleaned] == truth.survivor_ids
        texts = "\n".join(d.text for d in cleaned)
        surviving_boiler = [s for s, f in truth.boilerplate.items() if f <= 15]
        removed_boiler = [s for s, f in truth.boilerplate.items() if f > 15]
        assert all(s in texts for s in surviving_boiler)
        assert all(s not in texts for s in removed_boiler)

    def test_planted_truth_recovered_at_10k_docs(self, tmp_path):
        records, truth = synth.make_records(
            n_core=8000,
            n_off_domain=300,
            n_non_japanese=400,
            n_noise_carriers=500,
            n_terminatorless=200,
            n_duplicate_copies=500,
            boiler_frequencies=(15, 16, 15, 16, 15, 23),
        )
        assert len(records) == 10_000
        config = load_config(synth.write_pipeline_config(tmp_path, records))
        stats = run_pipeline(config)
        assert _stage(stats, "curate").doc_removals == {"no_rule_match": 300}
        assert _stage(stats, "lang_id").doc_removals == {"lang:en": 400}
        assert _stage(stats, "noise_filter").doc_removals == {"non_sentential": 200}
        assert _stage(stats, "dedup_documents").doc_removals == {"duplicate_document": 500}
        # boilerplate above the threshold: 16 + 16 + 23 occurrences removed
        assert _stage(stats, "dedup_sentences").detail["sentences_removed"] == 55
        cleaned = read_corpus_jsonl(config.output_dir / "cleaned.jsonl")
        assert len(cleaned) == truth.expected_survivors

    def test_empty_input_zero_stats_success(self, tmp_path):
        (tmp_path / "input.jsonl").write_text("", encoding="utf-8")
        config = load_config(synth.write_pipeline_config(tmp_path, []))
        stats = run_pipeline(config)
        assert all(stage.total_out == 0 for stage in stats.stages)
        assert stats.total_tokens == 0
        manifest = _manifest(config.output_dir / "manifest.json")
        assert manifest["status"] == "complete"
        assert all(row["documents"] == 0 for row in manifest["sources"].values())
        cleaned = read_corpus_jsonl(config.output_dir / "cleaned.jsonl")
        assert len(cleaned) == 0

    def test_missing_rules_file_fails_validation(self, tmp_path):
        records, _ = synth.make_records(n_core=2)
        config_path = synth.write_pipeline_config(tmp_path, records)
        raw = json.loads(config_path.read_text(encoding="utf-8"))
        raw["curation"]["rules_file"] = str(tmp_path / "nope.yaml")
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ConfigError, match="rules file not found"):
            load_config(config_path)

    def test_missing_source_file_fails_validation(self, tmp_path):
        records, _ = synth.make_records(n_core=2)
        config_path = synth.write_pipeline_config(tmp_path, records)
        raw = json.loads(config_path.read_text(encoding="utf-8"))
        raw["sources"][0]["path"] = str(tmp_path / "ghost.jsonl")
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ConfigError, match="file not found"):
            load_config(config_path)

    def test_stage_composition_matches_manual_application(self, tmp_path):
        # oracle: apply the module operations one by one
        records, _ = synth.make_records(
            n_core=15, n_noise_carriers=4, n_duplicate_copies=3, boiler_frequencies=(16,)
        )
        data = synth.write_jsonl(tmp_path / "input.jsonl", records)
        rules = load_rules(synth.write_rules(tmp_path / "rules.yaml"))

        corpus = ingest_jsonl(data, SourceTag.CURATED_BUSINESS)
        corpus = curate(rules, corpus)
        corpus = filter_non_japanese(LangIdConfig(), corpus)
        corpus = denoise_corpus(NoiseConfig(), corpus)
        dd = DedupConfig()
        corpus = dedup_documents(dd, corpus)
        expected = dedup_sentences(dd, corpus, count_sentences(dd, corpus))

        config = load_config(synth.write_pipeline_config(tmp_path, records))
        run_pipeline(config)
        cleaned = read_corpus_jsonl(config.output_dir / "cleaned.jsonl")
        assert [(d.id, d.text) for d in cleaned] == [(d.id, d.text) for d in expected]

    def test_two_runs_identical(self, tmp_path):
        records, _ = synth.make_records(n_core=20, boiler_frequencies=(16,))
        config_a = load_config(
            synth.write_pipeline_config(tmp_path, records, out_name="out_a")
        )
        config_b = load_config(
            synth.write_pipeline_config(tmp_path, records, out_name="out_b")
        )
        run_pipeline(config_a)
        run_pipeline(config_b)
        assert (
            (config_a.output_dir / "cleaned.jsonl").read_bytes()
            == (config_b.output_dir / "cleaned.jsonl").read_bytes()
        )
        assert _normalized(_manifest(config_a.output_dir / "manifest.json")) == _normalized(
            _manifest(config_b.output_dir / "manifest.json")
        )

    def test_stage_failure_marks_incomplete(self, tmp_path, monkeypatch):
        records, _ = synth.make_records(n_core=3)
        config = load_config(synth.write_pipeline_config(tmp_path, records))

        def _boom(*args, **kwargs):
            raise RuntimeError("induced failure")

        monkeypatch.setattr("bizcorpus.pipeline.denoise_corpus", _boom)
        with pytest.raises(StageFailure, match="noise_filter"):
            run_pipeline(config)
        manifest = _manifest(config.output_dir / "manifest.json")
        assert manifest["status"] == "incomplete"

    def test_env_overrides(self, tmp_path, monkeypatch):
        records, _ = synth.make_records(n_core=2)
        config_path = synth.write_pipeline_config(tmp_path, records)
        override = tmp_path / "elsewhere"
        monkeypatch.setenv("BIZCORPUS_OUTPUT_DIR", str(override))
        config = load_config(config_path)
        assert config.output_dir == override

    @pytest.mark.parametrize(
        ("extra", "message"),
        [
            ({"dedupe": {"sentence_frequency_threshold": 3}}, "top level: unknown key(s) 'dedupe'"),
            (
                {"mixture": {"weights": {"wikipedia": 2.0}}, "update_mix": {"r": 0.1, "total": 10}},
                "top level: unknown key(s) 'mixture', 'update_mix'",
            ),
            ({"lang_id": {"uncertainty_treshold": 0.5}}, "lang_id: unknown key(s) 'uncertainty_treshold'"),
            ({"sources": [{"path": "input.jsonl", "sorce": "patent"}]}, "sources[0]: unknown key(s) 'sorce'"),
        ],
        ids=["dedupe_typo", "mixture_blocks", "lang_id_typo", "source_typo"],
    )
    def test_unknown_key_fails_validation(self, tmp_path, extra, message):
        records, _ = synth.make_records(n_core=2)
        config_path = synth.write_pipeline_config(tmp_path, records, extra=extra)
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(config_path)

    def test_workers_below_one_fails_validation(self, tmp_path):
        records, _ = synth.make_records(n_core=2)
        config_path = synth.write_pipeline_config(tmp_path, records, extra={"workers": 0})
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            load_config(config_path)

    def test_sentence_freq_dump(self, tmp_path):
        records, _ = synth.make_records(
            n_core=5,
            n_off_domain=0,
            n_non_japanese=0,
            n_noise_carriers=0,
            n_terminatorless=0,
            n_duplicate_copies=0,
            boiler_frequencies=(3,),
        )
        config = load_config(
            synth.write_pipeline_config(
                tmp_path, records, extra={"dump_sentence_freq": True}
            )
        )
        run_pipeline(config)
        dump = config.output_dir / "sentence_freq.jsonl"
        rows = [json.loads(line) for line in dump.read_text(encoding="utf-8").splitlines()]
        assert rows[0]["count"] == 3  # the planted low-frequency boilerplate tops the table

    def test_parallel_run_equals_serial_run(self, tmp_path):
        records, _ = synth.make_records(
            n_core=30, n_noise_carriers=5, n_duplicate_copies=4, boiler_frequencies=(16,)
        )
        serial = load_config(synth.write_pipeline_config(tmp_path, records, out_name="s"))
        parallel = load_config(
            synth.write_pipeline_config(
                tmp_path, records, out_name="p", extra={"workers": 4}
            )
        )
        run_pipeline(serial)
        run_pipeline(parallel)
        assert (
            (serial.output_dir / "cleaned.jsonl").read_bytes()
            == (parallel.output_dir / "cleaned.jsonl").read_bytes()
        )


class TestManifest:
    def test_source_rows_cover_reported_table(self, tmp_path):
        # fixture mirroring the six-source table shape
        records = []
        for tag in sorted(SOURCE_LABELS):
            records.append(
                {
                    "id": f"{tag}-0",
                    "url": synth.BIZ_URL + tag,
                    "source": tag,
                    "text": f"{synth.CUE_WORD}の{tag}のほんぶんです。",
                }
            )
        config = load_config(synth.write_pipeline_config(tmp_path, records))
        stats = run_pipeline(config)
        manifest = _manifest(config.output_dir / "manifest.json")
        assert SOURCE_LABELS <= set(manifest["sources"])
        for tag in SOURCE_LABELS:
            assert manifest["sources"][tag]["documents"] == 1
        assert manifest["total_tokens"] == stats.total_tokens == sum(
            row["tokens"] for row in manifest["sources"].values()
        )

    def test_zero_doc_source_row_present(self, tmp_path):
        records, _ = synth.make_records(n_core=2)
        config = load_config(synth.write_pipeline_config(tmp_path, records))
        run_pipeline(config)
        manifest = _manifest(config.output_dir / "manifest.json")
        assert manifest["sources"]["common_crawl"] == {"documents": 0, "tokens": 0}

    def test_rerun_manifest_identical_modulo_timestamp(self, tmp_path):
        records, _ = synth.make_records(n_core=5)
        config = load_config(synth.write_pipeline_config(tmp_path, records))
        stats = run_pipeline(config)
        first = _manifest(config.output_dir / "manifest.json")
        emit_manifest(stats, config.output_dir / "again.json")
        second = _manifest(config.output_dir / "again.json")
        assert _normalized(first) == _normalized(second)

    def test_config_digest_recorded_and_stable(self, tmp_path):
        records, _ = synth.make_records(n_core=2)
        config_path = synth.write_pipeline_config(tmp_path, records)
        assert load_config(config_path).digest == load_config(config_path).digest
        config = load_config(config_path)
        run_pipeline(config)
        manifest = _manifest(config.output_dir / "manifest.json")
        assert manifest["config_digest"] == config.digest
        assert manifest["seed"] == 42
