"""End-to-end pipeline: config validation, stage composition, manifest."""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
import synth
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bizcorpus import core, pipeline
from bizcorpus import noise as noise_mod
from bizcorpus.backends import SubprocessClassifier
from bizcorpus.cli import main
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

WIRE_CLASSIFIER = Path(__file__).with_name("wire_classifier.py")
_WIRE_CMD = [sys.executable, str(WIRE_CLASSIFIER)]
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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
        with pytest.raises(ConfigError, match=re.escape(f"{config_path}: curation.rules_file is not a file: ")):
            load_config(config_path)

    def test_missing_source_file_fails_validation(self, tmp_path):
        records, _ = synth.make_records(n_core=2)
        config_path = synth.write_pipeline_config(tmp_path, records)
        raw = json.loads(config_path.read_text(encoding="utf-8"))
        raw["sources"][0]["path"] = str(tmp_path / "ghost.jsonl")
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(f"{config_path}: sources[0].path is not a file: ")):
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

        monkeypatch.setattr("bizcorpus.noise._filter_with_reasons", _boom)
        with pytest.raises(StageFailure, match="noise_filter"):
            run_pipeline(config)
        manifest = _manifest(config.output_dir / "manifest.json")
        assert manifest["status"] == "incomplete"

    def test_interrupted_write_keeps_old_output_and_marks_incomplete(self, tmp_path, monkeypatch):
        records, _ = synth.make_records(n_core=20)
        config = load_config(synth.write_pipeline_config(tmp_path, records))
        run_pipeline(config)
        cleaned = config.output_dir / "cleaned.jsonl"
        before = cleaned.read_bytes()
        assert _manifest(config.output_dir / "manifest.json")["status"] == "complete"

        real = core.document_to_record
        written = []

        def _interrupt_third(doc):
            written.append(doc)
            if len(written) == 3:
                raise KeyboardInterrupt
            return real(doc)

        monkeypatch.setattr(core, "document_to_record", _interrupt_third)
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(config)
        assert len(written) == 3
        assert cleaned.read_bytes() == before
        assert sorted(p.name for p in config.output_dir.iterdir()) == ["cleaned.jsonl", "manifest.json"]
        assert _manifest(config.output_dir / "manifest.json")["status"] == "incomplete"

    def test_failed_final_manifest_write_leaves_no_complete_manifest(self, tmp_path, monkeypatch):
        # run 2 retags its source and replaces cleaned.jsonl, then its last
        # manifest write fails: run 1's complete manifest, which lists the
        # documents under curated_business, must not be left beside it
        records, _ = synth.make_records(n_core=3)
        config = load_config(synth.write_pipeline_config(tmp_path, records))
        run_pipeline(config)
        assert _manifest(config.output_dir / "manifest.json")["status"] == "complete"
        synth.write_jsonl(config.sources[0].path, synth.make_records(n_core=3, source="other")[0])
        real = pipeline.emit_manifest

        def fail_complete(stats, path, *, status="complete"):
            if status == "complete":
                raise OSError("induced failure of the final manifest write")
            return real(stats, path, status=status)

        monkeypatch.setattr(pipeline, "emit_manifest", fail_complete)
        with pytest.raises(OSError, match="final manifest write"):
            run_pipeline(config)
        cleaned = read_corpus_jsonl(config.output_dir / "cleaned.jsonl")
        assert {d.source for d in cleaned} == {SourceTag.OTHER}
        manifest = _manifest(config.output_dir / "manifest.json")
        assert manifest["status"] == "incomplete"
        assert manifest["stages"] == []
        assert all(row["documents"] == 0 for row in manifest["sources"].values())

    def test_noise_step_runs_while_verdicts_are_still_coming(self, tmp_path, monkeypatch):
        records, _ = synth.make_records(n_core=20)
        config = load_config(synth.write_pipeline_config(tmp_path, records))

        class Lazy:  # in-process, answering one text at a time as it is asked
            given = 0

            def classify(self, text: str) -> tuple[str, float]:
                return ("ja", 1.0) if "。" in text else ("en", 1.0)

            def classify_many(self, texts):
                for text in texts:
                    self.given += 1
                    yield self.classify(text)

        backend = config.lang_id.classifier = Lazy()
        given_at_first_denoise = []
        denoise = noise_mod._filter_with_reasons

        def first_seen(*args):
            given_at_first_denoise.append(backend.given)
            return denoise(*args)

        monkeypatch.setattr("bizcorpus.noise._filter_with_reasons", first_seen)
        run_pipeline(config)
        assert backend.given > 20
        assert given_at_first_denoise[0] < backend.given

    def test_stage_failure_mid_stream_abandons_the_classifier_child(self, tmp_path, monkeypatch):
        config = load_config(_golden_input(tmp_path))
        config.lang_id.classifier = backend = SubprocessClassifier([sys.executable, str(WIRE_CLASSIFIER)])
        denoise, calls = noise_mod._filter_with_reasons, []

        def fail_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("induced failure")
            return denoise(*args)

        monkeypatch.setattr("bizcorpus.noise._filter_with_reasons", fail_second)
        try:
            with pytest.raises(StageFailure, match="stage 'noise_filter' failed: induced failure"):
                run_pipeline(config)
            manifest = _manifest(config.output_dir / "manifest.json")
            assert manifest["status"] == "incomplete"
            # lang_id, noise_filter and dedup_documents are one stream, recorded
            # once it runs out: the failure mid-stream leaves out all three
            assert [s["stage"] for s in manifest["stages"]] == ["ingest:input.jsonl", "curate"]
            # the child has unread replies: it is never asked again
            with pytest.raises(RuntimeError, match="abandoned with replies unread"):
                backend.classify("にほんご。")
        finally:
            config.close()
        (proc,) = backend._proc._procs
        assert proc.returncode is not None

    @pytest.mark.parametrize("shape", ["short", "none"])
    def test_bad_classify_many_fails_lang_id(self, tmp_path, shape):
        records, _ = synth.make_records(n_core=5)
        config = load_config(synth.write_pipeline_config(tmp_path, records))

        class InProcess:  # one answer short, or None in place of the last
            def classify(self, text: str) -> tuple[str, float]:
                return "ja", 1.0

            def classify_many(self, texts):
                self.asked = len(texts)
                return [("ja", 1.0)] * (len(texts) - 1) + ([None] if shape == "none" else [])

        backend = config.lang_id.classifier = InProcess()
        with pytest.raises(StageFailure) as failure:
            run_pipeline(config)
        n = backend.asked
        reason = {
            "short": f"InProcess.classify_many gave {n - 1} answers for {n} texts",
            "none": "InProcess gave None, not a pair or an exception",
        }[shape]
        assert (failure.value.stage, str(failure.value)) == ("lang_id", f"stage 'lang_id' failed: {reason}")
        assert _manifest(config.output_dir / "manifest.json")["status"] == "incomplete"

    def test_id_reused_across_source_files_fails_ingest(self, tmp_path):
        config_path = synth.write_pipeline_config(tmp_path, [{"id": "x", "text": "一つ目。"}])
        second = synth.write_jsonl(tmp_path / "second.jsonl", [{"id": "x", "text": "二つ目。"}])
        raw = json.loads(config_path.read_text(encoding="utf-8"))
        raw["sources"].append({"path": str(second), "source": "patent"})
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        config = load_config(config_path)
        with pytest.raises(StageFailure, match="'ingest' failed: duplicate document id in corpus: 'x'"):
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
            # keys of older configs: the one terminators set replaced the two
            # sets, and the exemption list is the fixed noise.PUNCTUATIONLESS_LANGUAGES
            ({"noise": {"jp_terminators": ["。", "！", "？"]}}, "noise: unknown key(s) 'jp_terminators'"),
            ({"noise": {"latin_terminators": [".", "!", "?"]}}, "noise: unknown key(s) 'latin_terminators'"),
            ({"noise": {"punctuationless_languages": ["th"]}}, "noise: unknown key(s) 'punctuationless_languages'"),
        ],
        ids=["dedupe_typo", "mixture_blocks", "lang_id_typo", "source_typo", "removed_jp_terminators",
             "removed_latin_terminators", "removed_punctuationless_languages"],
    )
    def test_unknown_key_fails_validation(self, tmp_path, extra, message):
        records, _ = synth.make_records(n_core=2)
        config_path = synth.write_pipeline_config(tmp_path, records, extra=extra)
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(config_path)

    @pytest.mark.parametrize(
        ("extra", "message"),
        [
            ({"dump_sentence_freq": "false"}, "dump_sentence_freq must be a JSON boolean, got 'false'"),
            ({"dump_sentence_freq": 1}, "dump_sentence_freq must be a JSON boolean, got 1"),
            ({"dump_sentence_freq": None}, "dump_sentence_freq must be a JSON boolean, got None"),
            ({"seed": "7"}, "seed must be a JSON integer, got '7'"),
            ({"seed": True}, "seed must be a JSON integer, got True"),
            ({"seed": 1.9}, "seed must be a JSON integer, got 1.9"),
            ({"seed": None}, "seed must be a JSON integer, got None"),
            ({"noise": {"terminators": "。！"}}, "terminators must be a JSON list of strings, got '。！'"),
            ({"noise": {"terminators": ["。", 1]}}, "terminators must be a JSON list of strings, got ['。', 1]"),
            ({"dedup": {"sentence_frequency_threshold": 2.9}}, "sentence_frequency_threshold must be a JSON integer, got 2.9"),
            ({"dedup": {"sentence_frequency_threshold": True}}, "sentence_frequency_threshold must be a JSON integer, got True"),
            ({"lang_id": {"uncertainty_threshold": True}}, "uncertainty_threshold must be a JSON number, got True"),
            ({"lang_id": {"uncertainty_threshold": "0.9"}}, "uncertainty_threshold must be a JSON number, got '0.9'"),
            ({"noise": {"min_sentential_ratio": "0.5"}}, "min_sentential_ratio must be a JSON number, got '0.5'"),
            ({"workers": 2.5}, "workers must be a JSON integer, got 2.5"),
            ({"workers": True}, "workers must be a JSON integer, got True"),
            # iterating the number once crashed load_config with a TypeError
            ({"sources": 5}, "sources must be a JSON list, got 5"),
            # a falsy section was once read as an empty one
            ({"noise": 0}, "noise must be a JSON object, got 0"),
            ({"lang_id": False}, "lang_id must be a JSON object, got False"),
            ({"dedup": []}, "dedup must be a JSON object, got []"),
            # a blank command once reached Popen([]) and its IndexError; a
            # mapping spawned its first key; 0 or [] ran fallback-only
            ({"lang_id": {"classifier_cmd": "   "}},
             "lang_id.classifier_cmd: backend command must be a program and its arguments, all strings, got '   '"),
            ({"lang_id": {"classifier_cmd": []}},
             "lang_id.classifier_cmd: backend command must be a program and its arguments, all strings, got []"),
            ({"lang_id": {"classifier_cmd": {"a": 1}}},
             "lang_id.classifier_cmd: backend command must be a program and its arguments, all strings, got {'a': 1}"),
            ({"lang_id": {"classifier_cmd": 0}},
             "lang_id.classifier_cmd: backend command must be a program and its arguments, all strings, got 0"),
            ({"lang_id": {"classifier_cmd": ["python", 1]}},
             "lang_id.classifier_cmd: backend command must be a program and its arguments, all strings, got ['python', 1]"),
        ],
        ids=[
            "freq_string", "freq_int", "freq_null", "seed_string", "seed_bool", "seed_float", "seed_null",
            "terminators_string", "terminators_number", "threshold_float", "threshold_bool",
            "uncertainty_bool", "uncertainty_string", "ratio_string", "workers_float", "workers_bool",
            "sources_number", "noise_zero", "lang_id_false", "dedup_empty_list", "classifier_cmd_blank",
            "classifier_cmd_empty_list", "classifier_cmd_mapping", "classifier_cmd_zero",
            "classifier_cmd_number_part",
        ],
    )
    def test_mistyped_scalar_fails_validation(self, tmp_path, extra, message):
        records, _ = synth.make_records(n_core=2)
        config_path = synth.write_pipeline_config(tmp_path, records, extra=extra)
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(config_path)

    @pytest.mark.parametrize(
        ("extra", "message"),
        [
            # str() used to turn this into a directory named "7"
            ({"output_dir": 7}, "output_dir must be a JSON string, got 7"),
            ({"output_dir": None}, "output_dir must be a JSON string, got None"),
            ({"sources": [{"path": 7}]}, "sources[0].path must be a JSON string, got 7"),
            ({"sources": [{"path": ["input.jsonl"]}]}, "sources[0].path must be a JSON string, got ['input.jsonl']"),
            ({"curation": {"rules_file": 7}}, "curation.rules_file must be a JSON string, got 7"),
            ({"curation": {"rules_file": False}}, "curation.rules_file must be a JSON string, got False"),
        ],
        ids=["int_output_dir", "null_output_dir", "int_source_path", "list_source_path",
             "int_rules_file", "false_rules_file"],
    )
    def test_non_string_path_fails_validation(self, tmp_path, extra, message):
        records, _ = synth.make_records(n_core=2)
        config_path = synth.write_pipeline_config(tmp_path, records, extra=extra)
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(config_path)

    @pytest.mark.parametrize(
        ("extra", "message"),
        [
            ({"output_dir": 7}, "output_dir must be a JSON string, got 7"),
            ({"sources": {"path": "input.jsonl"}}, "sources must be a JSON list, got {'path': 'input.jsonl'}"),
            ({"sources": []}, "sources must list at least one file"),
            ({"sources": ["input.jsonl"]}, "sources[0] must be a JSON object, got 'input.jsonl'"),
            ({"sources": [{"path": "ghost.jsonl"}]}, "sources[0].path is not a file: <dir>/ghost.jsonl"),
            # a directory once passed, started the classifier child and failed at ingest
            ({"sources": [{"path": "."}]}, "sources[0].path is not a file: <dir>"),
            ({"sources": [{"path": "input.jsonl", "source": "blog"}]},
             "sources[0].source must be a JSON SourceTag, got 'blog'"),
            ({"curation": {"rules_file": "."}}, "curation.rules_file is not a file: <dir>"),
            # once a second spelling of "no curation"
            ({"curation": {"rules_file": ""}}, "curation.rules_file is not a file: <dir>"),
            ({"curation": {"rules_file": "bad_rules.yaml"}},
             "curation.rules_file: <dir>/bad_rules.yaml: url_patterns must be a JSON list of strings, got 5"),
            ({"curation": []}, "curation must be a JSON object, got []"),
            ({"lang_id": {"bogus": 1}}, "lang_id: unknown key(s) 'bogus'"),
            ({"lang_id": {"uncertainty_threshold": 1.5}}, "lang_id.uncertainty_threshold must be in [0, 1], got 1.5"),
            ({"lang_id": {"classifier_cmd": 0}},
             "lang_id.classifier_cmd: backend command must be a program and its arguments, all strings, got 0"),
            ({"noise": {"min_sentential_ratio": 2}}, "noise.min_sentential_ratio must be in [0, 1]"),
            ({"dedup": {"sentence_frequency_threshold": 0}}, "dedup.sentence_frequency_threshold must be >= 1"),
            ({"seed": "7"}, "seed must be a JSON integer, got '7'"),
        ],
        ids=["output_dir", "sources", "sources_empty", "source_entry", "source_path_missing",
             "source_path_directory", "source_tag", "rules_file_directory", "rules_file_empty",
             "rules_file_content", "curation", "lang_id", "lang_id_threshold", "classifier_cmd",
             "noise_ratio", "dedup_threshold", "top_level_scalar"],
    )
    def test_error_names_config_and_key_path(self, tmp_path, extra, message):
        (tmp_path / "bad_rules.yaml").write_text("url_patterns: 5\n", encoding="utf-8")
        records, _ = synth.make_records(n_core=2)
        config_path = synth.write_pipeline_config(tmp_path, records, extra=extra)
        with pytest.raises(ConfigError) as error:
            load_config(config_path, start_classifier=False)
        assert str(error.value) == f"{config_path}: {message.replace('<dir>', str(tmp_path))}"

    def test_every_stage_key_reaches_config(self, tmp_path):
        sections = {
            "lang_id": {
                "uncertainty_threshold": 0.7,
                "jp_script_ratio_threshold": 0.2,
                "classifier_cmd": [sys.executable, "-c", "import sys; sys.stdin.read()"],
            },
            "noise": {"terminators": ["。", "!"], "min_sentential_ratio": 0.25},
            "dedup": {"sentence_frequency_threshold": 4},
        }
        records, _ = synth.make_records(n_core=2)
        config = load_config(synth.write_pipeline_config(tmp_path, records, extra=sections))
        try:
            assert isinstance(config.lang_id.classifier, SubprocessClassifier)
        finally:
            config.close()
        for name, section in sections.items():
            target = getattr(config, name)
            for key, raw in section.items():
                if key != "classifier_cmd":
                    value = getattr(target, key)
                    assert value == (frozenset(raw) if isinstance(raw, list) else raw), key
                    assert value != getattr(type(target)(), key), key
        # sentence splitting uses the noise stage's terminators
        assert config.dedup.terminators == frozenset("。!")

    def test_omitted_stage_keys_keep_dataclass_defaults(self, tmp_path):
        records, _ = synth.make_records(n_core=2)
        config = load_config(
            synth.write_pipeline_config(tmp_path, records, extra={"dedup": None})
        )
        assert config.lang_id == LangIdConfig()
        assert config.noise == NoiseConfig()
        assert config.dedup == DedupConfig()

    @pytest.mark.parametrize(
        ("key", "value"),
        [
            ("terminators", []),
            ("terminators", None),
            ("terminators", ["。", "…。"]),
            ("terminators", [1, 2]),
        ],
        ids=["empty", "null", "two_characters", "numbers"],
    )
    def test_empty_terminator_list_fails_validation(self, tmp_path, key, value):
        records, _ = synth.make_records(n_core=2)
        config_path = synth.write_pipeline_config(
            tmp_path, records, extra={"noise": {key: value}}
        )
        with pytest.raises(ConfigError):
            load_config(config_path)

    def test_japanese_only_terminators_accepted(self, tmp_path):
        records, _ = synth.make_records(n_core=2)
        config = load_config(
            synth.write_pipeline_config(tmp_path, records, extra={"noise": {"terminators": ["。"]}})
        )
        assert config.noise.terminators == config.dedup.terminators == frozenset("。")
        assert noise_mod.classify_line(config.noise, "Done.") is noise_mod.LineClass.NON_SENTENTIAL

    def test_readme_config_table_lists_exactly_the_accepted_keys(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| key | type | default |", 1)[1].split("\n\n", 1)[0]
        documented = {
            key for row in table.splitlines()[2:] for key in re.findall(r"`([^`]+)`", row.split("|")[1])
        }
        accepted = (pipeline._TOP_LEVEL_KEYS - pipeline._SECTIONS.keys()) | {
            f"{name}.{key}" for name, keys in pipeline._SECTIONS.items() for key in keys
        }
        assert documented == accepted

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


def _golden_input(tmp_path) -> Path:
    """A fixed input on which every stage removes something, for every
    removal reason the stages give, written with relative paths so the
    config digest does not depend on where it lands."""
    records, truth = synth.make_records(
        n_core=6,
        n_off_domain=2,
        n_non_japanese=2,
        n_noise_carriers=6,
        n_terminatorless=2,
        n_duplicate_copies=3,
        boiler_frequencies=(16, 15),
    )
    records[1]["source"] = "patent"
    records[6]["source"] = "mc4"
    del records[2]["id"]
    boiler = next(s for s, freq in truth.boilerplate.items() if freq == 16)
    records += [
        {"id": "zh-1", "url": synth.BIZ_URL + "zh", "text": "市场企业技术发展。"},
        {"id": "strip-1", "url": synth.BIZ_URL + "strip", "text": "2023年10月5日\nトップ | IR | 地図"},
        {"id": "boiler-only", "url": synth.BIZ_URL + "b", "source": "mc4", "text": boiler},
    ]
    synth.write_jsonl(tmp_path / "input.jsonl", records)
    with (tmp_path / "input.jsonl").open("a", encoding="utf-8") as fh:
        fh.write('{"id": "bad", "text": 3}\nnot json\n')
    synth.write_rules(tmp_path / "rules.yaml")
    config = {
        "seed": 7,
        "output_dir": "out",
        "sources": [{"path": "input.jsonl", "source": "curated_business"}],
        "curation": {"rules_file": "rules.yaml"},
        "dump_sentence_freq": True,
    }
    path = tmp_path / "pipeline.yaml"
    path.write_text(json.dumps(config, ensure_ascii=False), encoding="utf-8")
    return path


class TestGoldenOutputs:
    # sha256 of each output on _golden_input; a change to any stage's output
    # or accounting shows here. The manifest is hashed without created_at.
    DIGESTS = {
        "cleaned.jsonl": "341dc724233a569494572b8fb9abd13acaa5babb6c7bb13a848b6d942d81fbb5",
        "manifest.json": "f8631125d3a27f51c2eb61df08327a4b2d9f8e616b9b6a531d63ae553d0aac01",
        "sentence_freq.jsonl": "635186c343d04dd6062e475e60f29ae295f6c50eb815895943598755bbf954d4",
    }

    def test_output_digests(self, tmp_path):
        config = load_config(_golden_input(tmp_path))
        stats = run_pipeline(config)
        removals = {(s.stage, reason) for s in stats.stages for reason, n in s.doc_removals.items() if n}
        assert removals == {
            ("curate", "no_rule_match"),
            ("lang_id", "lang:en"),
            ("lang_id", "lang:zh"),
            ("noise_filter", "empty_after_strip"),
            ("noise_filter", "non_sentential"),
            ("dedup_documents", "duplicate_document"),
            ("dedup_sentences", "emptied_by_sentence_dedup"),
        }
        assert stats.stages[0].detail["malformed_lines"] == 2
        assert _output_digests(config.output_dir) == self.DIGESTS

    # the same input with a wire classifier child (tests/wire_classifier.py):
    # it answers each distinct text once, its confident verdicts stand, its
    # uncertain ones go to the script fallback, and it keeps the Chinese
    # text that the fallback alone drops
    CLASSIFIER_DIGESTS = {
        "cleaned.jsonl": "5188af1c8b2cf19ff24358c311ea9f18e40aea374ab7a95227e29dea444fff92",
        "manifest.json": "dc796cddabb248dff9da23b7911ed8887e2e99d7a211a9f01730a7004d6473ec",
        "sentence_freq.jsonl": "b171bf56eae998ea992f76be49c6537735cba9729ec17f6deee2b07dceeabbe0",
    }

    def test_output_digests_with_wire_classifier(self, tmp_path):
        config = load_config(_golden_input(tmp_path))
        config.lang_id.classifier = SubprocessClassifier([sys.executable, str(WIRE_CLASSIFIER)])
        try:
            stats = run_pipeline(config)
        finally:
            config.close()
        lang_id = _stage(stats, "lang_id")
        assert lang_id.doc_removals == {"lang:en": 2}
        assert _output_digests(config.output_dir) == self.CLASSIFIER_DIGESTS


def _output_digests(output_dir: Path) -> dict[str, str]:
    """sha256 of each output, the manifest hashed without created_at."""
    digests = {}
    for name in ("cleaned.jsonl", "manifest.json", "sentence_freq.jsonl"):
        data = (output_dir / name).read_bytes()
        if name == "manifest.json":
            data = b"".join(
                line for line in data.splitlines(keepends=True)
                if not line.lstrip().startswith(b'"created_at"')
            )
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


# synth corpora in any order: core documents survive every stage, and the
# boilerplate frequencies straddle the sentence threshold (15)
_synth_corpora = st.fixed_dictionaries(
    {
        "n_core": st.integers(1, 8),
        "n_off_domain": st.integers(0, 2),
        "n_non_japanese": st.integers(0, 2),
        "n_noise_carriers": st.integers(0, 6),
        "n_terminatorless": st.integers(0, 2),
        "n_duplicate_copies": st.integers(0, 3),
        "boiler_frequencies": st.lists(st.integers(14, 17), max_size=2).map(tuple),
    }
).flatmap(lambda kwargs: st.permutations(synth.make_records(**kwargs)[0]))


def _run_on_files(root: Path, files: list[list[dict]], classifier: bool):
    """``run_pipeline`` over one curated_business input file per entry of
    ``files``, with or without the wire classifier child: the bytes of
    ``cleaned.jsonl`` and the stats."""
    root.mkdir()
    sources = [
        {"path": str(synth.write_jsonl(root / f"part{i}.jsonl", records)), "source": "curated_business"}
        for i, records in enumerate(files)
    ]
    config = load_config(synth.write_pipeline_config(root, [], extra={"sources": sources}))
    if classifier:
        config.lang_id.classifier = SubprocessClassifier([sys.executable, str(WIRE_CLASSIFIER)])
    try:
        stats = run_pipeline(config)
    finally:
        config.close()
    return (config.output_dir / "cleaned.jsonl").read_bytes(), stats


# valid stage settings: any terminators, thresholds and sentential ratio
_stage_settings = st.fixed_dictionaries(
    {
        "lang_id": st.fixed_dictionaries(
            {"uncertainty_threshold": st.sampled_from([0.0, 0.6, 0.9, 1.0])}
        ),
        "noise": st.fixed_dictionaries(
            {
                "terminators": st.sets(st.sampled_from("。！？.!?、"), min_size=1).map(sorted),
                "min_sentential_ratio": st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
            }
        ),
        "dedup": st.fixed_dictionaries({"sentence_frequency_threshold": st.integers(1, 20)}),
        "dump_sentence_freq": st.booleans(),
    }
)

# A document whose lines end in "!": with only "。" as a terminator, run
# drops it as non_sentential, and a stage command that split on the default
# terminators would keep it.
_BANG = {
    "id": "bang",
    "url": f"{synth.BIZ_URL}bang",
    "source": "curated_business",
    "text": "株式会社のけいえいについてほうこくします!\nらいねんもがんばります!",
}
_BANG_RECORDS = [*synth.make_records(n_core=2, n_non_japanese=0, n_duplicate_copies=0)[0], _BANG]

# Texts with no kana and no Han, so that neither the script fallback nor
# tests/wire_classifier.py reads them as Japanese.
_non_japanese_texts = st.text(alphabet="abcXYZ рынок시장0. !\n", max_size=40)


@pytest.mark.parametrize("classifier", [False, True], ids=["fallback", "wire_classifier"])
class TestRunProperties:
    """Metamorphic relations of the whole run: an input edit whose effect on
    the outputs is known without running the old path."""

    @settings(max_examples=15, deadline=None)
    @given(records=_synth_corpora, data=st.data())
    def test_exact_copy_after_its_original_counts_only_as_a_duplicate(self, classifier, records, data):
        # doc dedup runs before sentence counting, so the copy never counts
        with tempfile.TemporaryDirectory() as tmp:
            cleaned, stats = _run_on_files(Path(tmp) / "base", [records], classifier)
            survivors = [json.loads(line)["id"] for line in cleaned.splitlines()]
            original = data.draw(st.sampled_from(survivors), label="original")
            i = next(k for k, record in enumerate(records) if record["id"] == original)
            at = data.draw(st.integers(i + 1, len(records)), label="copy at")
            copied = [*records[:at], {**records[i], "id": f"copy-of-{original}"}, *records[at:]]
            cleaned_copied, stats_copied = _run_on_files(Path(tmp) / "copied", [copied], classifier)
        assert cleaned_copied == cleaned
        removals = {s.stage: dict(s.doc_removals) for s in stats.stages}
        removals["dedup_documents"]["duplicate_document"] += 1
        assert {s.stage: s.doc_removals for s in stats_copied.stages} == removals
        assert _stage(stats_copied, "dedup_sentences") == _stage(stats, "dedup_sentences")

    @settings(max_examples=15, deadline=None)
    @given(records=_synth_corpora, data=st.data())
    def test_splitting_the_input_changes_no_stage_after_ingest(self, classifier, records, data):
        # every synth record carries its id, so no id depends on the file it is in
        cuts = sorted(data.draw(st.lists(st.integers(0, len(records)), max_size=2), label="cuts"))
        bounds = [0, *cuts, len(records)]
        files = [records[a:b] for a, b in zip(bounds, bounds[1:])]
        with tempfile.TemporaryDirectory() as tmp:
            cleaned, stats = _run_on_files(Path(tmp) / "one", [records], classifier)
            cleaned_split, stats_split = _run_on_files(Path(tmp) / "split", files, classifier)
        assert cleaned_split == cleaned
        ingests = [f"ingest:part{i}.jsonl" for i in range(len(files))]
        assert [s.stage for s in stats_split.stages[:len(files)]] == ingests
        assert stats_split.stages[len(files):] == stats.stages[1:]

    @settings(max_examples=15, deadline=None)
    @given(records=_synth_corpora, text=_non_japanese_texts)
    def test_appended_non_japanese_document_counts_only_in_lang_id(self, classifier, records, text):
        # its URL passes curation, so lang_id is the first stage to see it
        appended = {"id": "appended", "url": f"{synth.BIZ_URL}appended", "source": "curated_business",
                    "text": text}
        with tempfile.TemporaryDirectory() as tmp:
            cleaned, stats = _run_on_files(Path(tmp) / "base", [records], classifier)
            cleaned_appended, stats_appended = _run_on_files(
                Path(tmp) / "appended", [[*records, appended]], classifier
            )
        assert cleaned_appended == cleaned
        removals = {s.stage: Counter(s.doc_removals) for s in stats.stages}
        removals_appended = {s.stage: Counter(s.doc_removals) for s in stats_appended.stages}
        lang_id, lang_id_appended = removals.pop("lang_id"), removals_appended.pop("lang_id")
        assert (lang_id_appended - lang_id).total() == 1
        assert not lang_id - lang_id_appended
        assert removals_appended == removals
        for name in ("noise_filter", "dedup_documents", "dedup_sentences"):
            assert _stage(stats_appended, name) == _stage(stats, name)

    @settings(max_examples=15, deadline=None)
    @given(records=_synth_corpora, stage_settings=_stage_settings)
    @example(records=_BANG_RECORDS, stage_settings={"noise": {"terminators": ["。"]}})
    def test_stage_commands_chained_equal_run(self, classifier, records, stage_settings):
        if classifier:
            lang_id = stage_settings.get("lang_id", {})
            stage_settings = {**stage_settings, "lang_id": {**lang_id, "classifier_cmd": _WIRE_CMD}}
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            config = str(synth.write_pipeline_config(root, records, extra=stage_settings))
            assert main(["run", "--config", config]) == 0
            stage_in = root / "input.jsonl"
            for command in ("curate", "langid", "denoise", "dedup"):
                out = root / command
                assert main([command, "--config", config, "--in", str(stage_in), "--out", str(out)]) == 0
                stage_in = out / "cleaned.jsonl"
            run_stages = _manifest(root / "out" / "manifest.json")["stages"][1:]  # after ingest
            chain_stages = [entry for command in ("curate", "langid", "denoise", "dedup")
                            for entry in _manifest(root / command / "manifest.json")["stages"]]
            outputs, chained = (
                {p.name: p.read_bytes() for p in (root / d).iterdir() if p.name != "manifest.json"}
                for d in ("out", "dedup")
            )
        assert chained == outputs
        assert chain_stages == run_stages


class TestOneYamlReader:
    """The pipeline config and a rules file are read by ``core.read_yaml_mapping``."""

    @pytest.mark.parametrize(
        ("body", "reason"),
        [
            ("- cue_words\n", " must be a JSON object, got ['cue_words']"),
            # once read as an empty mapping
            ("0\n", " must be a JSON object, got 0"),
            ("bogus: 1\n", ": unknown key(s) 'bogus'"),
        ],
        ids=["list", "zero", "unknown_key"],
    )
    def test_config_and_rules_refused_alike(self, tmp_path, body, reason):
        path = tmp_path / "file.yaml"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(ConfigError) as config_error:
            load_config(path)
        with pytest.raises(ConfigError) as rules_error:
            load_rules(path)
        assert str(config_error.value) == f"{path}: top level{reason}"
        assert str(rules_error.value) == f"{path}{reason}"

    def test_invalid_yaml_reads_the_same_in_config_and_rules(self, tmp_path):
        path = tmp_path / "file.yaml"
        path.write_text("sources: [\n  - path: x\n", encoding="utf-8")
        messages = set()
        for load in (load_config, load_rules):
            with pytest.raises(ConfigError) as error:
                load(path)
            messages.add(str(error.value))
        (message,) = messages
        assert message.startswith(f"{path}: invalid YAML: ")

    # PyYAML reads 5e-1 and 1e2 as strings; JSON text is read as JSON
    def test_json_exponent_in_config_is_a_number(self, tmp_path):
        (tmp_path / "in.jsonl").write_text("", encoding="utf-8")
        path = tmp_path / "pipeline.yaml"
        path.write_text('{"sources": [{"path": "in.jsonl"}], "noise": {"min_sentential_ratio": 5e-1}}',
                        encoding="utf-8")
        assert load_config(path).noise.min_sentential_ratio == 0.5

    def test_json_exponent_in_rules_is_refused_as_a_number(self, tmp_path):
        rules = tmp_path / "rules.json"
        rules.write_text('{"cue_words": 1e2}', encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape("cue_words must be a JSON list of strings, got 100.0")):
            load_rules(rules)

    @pytest.mark.parametrize(
        ("name", "load"),
        [("pipeline.example.yaml", load_config), ("rules.example.yaml", load_rules)],
        ids=["config", "rules"],
    )
    def test_example_reads_the_same_as_its_json_dump(self, tmp_path, name, load):
        # copied, so that the paths in both files resolve alike
        configs = shutil.copytree(CONFIGS, tmp_path / "configs")
        dumped = configs / name.replace(".yaml", ".json")
        dumped.write_text(json.dumps(yaml.safe_load((configs / name).read_text(encoding="utf-8"))),
                          encoding="utf-8")
        from_yaml, from_json = load(configs / name), load(dumped)
        assert from_json == from_yaml
        if load is load_config:
            assert from_json.digest == from_yaml.digest


def test_corpus_side_loads_no_yaml_nor_bench(tmp_path):
    """A JSON config with a classifier child loads neither PyYAML nor the benchmark harness."""
    (tmp_path / "in.jsonl").write_text("", encoding="utf-8")
    config = {"sources": [{"path": "in.jsonl"}],
              "lang_id": {"classifier_cmd": [sys.executable, str(WIRE_CLASSIFIER)]}}
    (tmp_path / "pipeline.json").write_text(json.dumps(config), encoding="utf-8")
    code = ("import sys\n"
            "from bizcorpus.pipeline import load_config\n"
            "load_config(sys.argv[1]).close()\n"
            "print(*sys.modules)")
    src = Path(pipeline.__file__).resolve().parents[1]
    loaded = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "pipeline.json")],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "bizcorpus.backends" in loaded  # the classifier child was started
    assert {"yaml", "bizcorpus.bench"}.isdisjoint(loaded)
