"""CLI subcommands, exit codes, and the bench workflow end to end."""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
import synth

from bizcorpus.backends import EchoModel
from bizcorpus.bench import SettingKind, TaskSetting
from bizcorpus.cli import build_parser, main
from bizcorpus.core import SourceTag, read_corpus_jsonl, read_jsonl

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
STAGE_IO = ["--in", "in.jsonl", "--out", "out.jsonl"]


def _corpus_file(tmp_path, name="corpus.jsonl", **kwargs):
    records, truth = synth.make_records(**kwargs)
    return synth.write_jsonl(tmp_path / name, records), truth


class TestRun:
    def test_full_pipeline_exit_zero(self, tmp_path, capsys):
        records, truth = synth.make_records(n_core=10, boiler_frequencies=(16,))
        config = synth.write_pipeline_config(tmp_path, records)
        assert main(["run", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "dedup_sentences" in out
        cleaned = read_corpus_jsonl(tmp_path / "out" / "cleaned.jsonl")
        assert len(cleaned) == truth.expected_survivors

    def test_validation_error_exit_one(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "missing.yaml")]) == 1

    def test_bad_rules_reference_exit_one(self, tmp_path):
        records, _ = synth.make_records(n_core=2)
        config = synth.write_pipeline_config(tmp_path, records)
        raw = json.loads(config.read_text(encoding="utf-8"))
        raw["curation"]["rules_file"] = "ghost.yaml"
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 1

    def test_broken_yaml_config_exit_one(self, tmp_path, capsys):
        config = tmp_path / "pipeline.yaml"
        config.write_text(BROKEN_YAML, encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {config}: invalid YAML: ")

    def test_broken_yaml_rules(self, tmp_path, capsys):
        rules = tmp_path / "broken_rules.yaml"
        rules.write_text(BROKEN_YAML, encoding="utf-8")
        records, _ = synth.make_records(n_core=2)
        config = synth.write_pipeline_config(tmp_path, records)
        raw = json.loads(config.read_text(encoding="utf-8"))
        raw["curation"]["rules_file"] = str(rules)
        config.write_text(json.dumps(raw), encoding="utf-8")
        corpus, _ = _corpus_file(tmp_path)
        curate = ["curate", "--config", str(config), "--in", str(corpus), "--out", str(tmp_path / "c")]
        for argv in (["run", "--config", str(config)], curate):
            assert main(argv) == 1
            assert f"error: {config}: curation.rules_file: {rules}: invalid YAML: " in capsys.readouterr().err


    def test_scalar_rule_list_stops_run_and_curate(self, tmp_path, capsys):
        self._bad_rules_stop_run_and_curate(
            tmp_path, capsys, "url_patterns: https://biz.example.com/\n",
            "url_patterns must be a JSON list of strings, got 'https://biz.example.com/'",
        )

    def test_unknown_rule_key_stops_run_and_curate(self, tmp_path, capsys):
        # a typo next to a valid list once gave a rule set with no cue words
        self._bad_rules_stop_run_and_curate(
            tmp_path, capsys, "url_patterns: [https://biz.example.com/]\ncue_word: [決算]\n",
            "unknown key(s) 'cue_word'",
        )

    @staticmethod
    def _bad_rules_stop_run_and_curate(tmp_path, capsys, text, message):
        rules = tmp_path / "bad_rules.yaml"
        rules.write_text(text, encoding="utf-8")
        records, _ = synth.make_records(n_core=2)
        config = synth.write_pipeline_config(tmp_path, records)
        raw = json.loads(config.read_text(encoding="utf-8"))
        raw["curation"]["rules_file"] = str(rules)
        config.write_text(json.dumps(raw), encoding="utf-8")
        corpus, _ = _corpus_file(tmp_path)
        curate = ["curate", "--config", str(config), "--in", str(corpus), "--out", str(tmp_path / "c")]
        for argv in (["run", "--config", str(config)], curate):
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: {config}: curation.rules_file: {rules}: {message}\n"

    def test_id_reused_across_source_files_exit_two(self, tmp_path, capsys):
        config = synth.write_pipeline_config(tmp_path, [{"id": "x", "text": "一つ目。"}])
        second = synth.write_jsonl(tmp_path / "second.jsonl", [{"id": "x", "text": "二つ目。"}])
        raw = json.loads(config.read_text(encoding="utf-8"))
        raw["sources"].append({"path": str(second), "source": "patent"})
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 2
        assert "error: stage 'ingest' failed: duplicate document id in corpus: 'x'" in capsys.readouterr().err


# The reproduction: a flow sequence opened and never closed.
BROKEN_YAML = "sources: [\n  - path: x\n"


# Classifier child that records its pid, so a test can check it was reaped.
PID_RECORDING_CLASSIFIER = """
import json, os, sys
with open(sys.argv[1], "w") as fh:
    fh.write(str(os.getpid()))
for line in sys.stdin:
    print(json.dumps({"lang": "ja", "confidence": 0.99}), flush=True)
"""

# Model child that appends its pid to argv[1] on start and answers after 50 ms.
PID_RECORDING_MODEL = """
import json, os, sys, time
with open(sys.argv[1], "a") as fh:
    fh.write(f"{os.getpid()}\\n")
for line in sys.stdin:
    time.sleep(0.05)
    print(json.dumps({"response": "答え"}, ensure_ascii=False), flush=True)
"""


class TestClassifierChild:
    @pytest.mark.parametrize("command", ["run", "langid"])
    def test_child_exited_when_main_returns(self, tmp_path, command):
        script = tmp_path / "classifier.py"
        script.write_text(PID_RECORDING_CLASSIFIER, encoding="utf-8")
        pid_file = tmp_path / "classifier.pid"
        classifier_cmd = shlex.join([sys.executable, str(script), str(pid_file)])
        records, _ = synth.make_records(n_core=3)
        config = synth.write_pipeline_config(
            tmp_path, records, extra={"lang_id": {"classifier_cmd": classifier_cmd}}
        )
        argv = ["run", "--config", str(config)]
        if command == "langid":
            argv = ["langid", "--config", str(config), "--in", str(tmp_path / "input.jsonl"),
                    "--out", str(tmp_path / "ja")]
        assert main(argv) == 0
        pid = int(pid_file.read_text(encoding="utf-8"))
        # ChildProcessError: no such child left to wait for, i.e. main already reaped it
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


    @pytest.mark.parametrize(
        ("section", "key_path"),
        [
            ({"sources": [{"path": "."}]}, "sources[0].path"),
            ({"curation": {"rules_file": "."}}, "curation.rules_file"),
            ({"curation": {"rules_file": ""}}, "curation.rules_file"),
        ],
        ids=["source_directory", "rules_directory", "rules_empty"],
    )
    def test_input_that_is_no_file_exit_one_before_any_child(self, tmp_path, capsys, section, key_path):
        # a directory as a source once started the child, wrote an incomplete
        # manifest and exited 2 at ingest; an empty rules_file ran uncurated
        script = tmp_path / "classifier.py"
        script.write_text(PID_RECORDING_CLASSIFIER, encoding="utf-8")
        pid_file = tmp_path / "classifier.pid"
        classifier_cmd = shlex.join([sys.executable, str(script), str(pid_file)])
        records, _ = synth.make_records(n_core=2)
        config = synth.write_pipeline_config(
            tmp_path, records, extra={**section, "lang_id": {"classifier_cmd": classifier_cmd}}
        )
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {config}: {key_path} is not a file: {tmp_path}\n"
        assert not pid_file.exists()
        assert not (tmp_path / "out").exists()


class TestStandaloneStages:
    def test_curate_langid_denoise_dedup_chain(self, tmp_path):
        records, truth = synth.make_records(
            n_core=8,
            n_off_domain=2,
            n_non_japanese=2,
            n_noise_carriers=3,
            n_terminatorless=2,
            n_duplicate_copies=2,
            boiler_frequencies=(16,),
        )
        config = synth.write_pipeline_config(tmp_path, records, extra={"dump_sentence_freq": True})
        stage_in = tmp_path / "input.jsonl"
        for command in ("curate", "langid", "denoise", "dedup"):
            out = tmp_path / command
            assert main([command, "--config", str(config), "--in", str(stage_in), "--out", str(out)]) == 0
            assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["status"] == "complete"
            stage_in = out / "cleaned.jsonl"

        final = read_corpus_jsonl(stage_in)
        assert [d.id for d in final] == truth.survivor_ids
        assert (tmp_path / "dedup" / "sentence_freq.jsonl").exists()

    def test_curate_without_rules_exit_one_before_reading(self, tmp_path, capsys):
        config = synth.write_pipeline_config(tmp_path, [], extra={"curation": None})
        out = tmp_path / "curated"
        argv = ["curate", "--config", str(config), "--in", str(tmp_path / "missing.jsonl"), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {config}: curate needs curation.rules_file\n"
        assert not out.exists()

    def test_stats_manifest(self, tmp_path):
        path, _ = _corpus_file(tmp_path, n_core=3)
        out = tmp_path / "manifest.json"
        assert main(["stats", "--in", str(path), "--out", str(out)]) == 0
        manifest = json.loads(out.read_text(encoding="utf-8"))
        assert manifest["total_tokens"] > 0

    def test_broken_input_exit_two(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "x"}\n', encoding="utf-8")  # record missing text
        config = synth.write_pipeline_config(tmp_path, [])
        out = tmp_path / "denoised"
        assert main(["denoise", "--config", str(config), "--in", str(bad), "--out", str(out)]) == 2
        assert not out.exists()  # the input is read before anything is written

    @pytest.mark.parametrize(
        ("record", "message"),
        [
            ({"id": "x", "source": "mc4", "text": 5}, "field 'text' must be a string, got 5"),
            ({"id": "x", "source": "blog", "text": "本文。"},
             "field 'source' must be one of 'curated_business', 'patent', 'wikipedia', "
             "'cc100', 'mc4', 'common_crawl', 'latest_update', 'other', got 'blog'"),
            ({"id": "x", "source": "mc4", "text": "本文。", "date": "2023-02-30"}, "day is out of range"),
            # once Python's "fromisoformat: argument must be str"
            ({"id": "x", "source": "mc4", "text": "本文。", "date": 20240101},
             "field 'date' must be a string, got 20240101"),
            # once read as an undated record
            ({"id": "x", "source": "mc4", "text": "本文。", "published_date": "2024-01-01"},
             "record: unknown key(s) 'published_date'"),
        ],
        ids=["int_text", "bad_source", "bad_date", "int_date", "unknown_key"],
    )
    def test_bad_record_exit_two_names_file_and_line(self, tmp_path, capsys, record, message):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n" + json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
        assert main(["stats", "--in", str(bad), "--out", str(tmp_path / "manifest.json")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}:2: {message}")


class TestStageFlags:
    """A stage's settings, once flags of its command, are read from the
    config: a value it refuses exits 1 before any input is read or any
    classifier child is started."""

    @pytest.mark.parametrize(
        ("command", "section", "message"),
        [
            ("dedup", {"dedup": {"sentence_frequency_threshold": 0}}, "dedup.sentence_frequency_threshold must be >= 1"),
            ("denoise", {"noise": {"min_sentential_ratio": 2}}, "noise.min_sentential_ratio must be in [0, 1]"),
            ("langid", {"lang_id": {"uncertainty_threshold": 1.5}}, "lang_id.uncertainty_threshold must be in [0, 1], got 1.5"),
        ],
        ids=["dedup_threshold", "denoise_ratio", "langid_threshold"],
    )
    def test_out_of_range_flag_exit_one(self, tmp_path, capsys, command, section, message):
        # these used to exit 2, as a stage failure
        path, _ = _corpus_file(tmp_path, n_core=2)
        out = tmp_path / "out"
        spawned = tmp_path / "spawned"
        child = shlex.join([sys.executable, "-c", f"open({str(spawned)!r}, 'w')"])
        lang_id = {**section.get("lang_id", {}), "classifier_cmd": child}
        config = synth.write_pipeline_config(tmp_path, [], extra={**section, "lang_id": lang_id})
        assert main([command, "--config", str(config), "--in", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {config}: {message}\n"
        assert not out.exists()
        assert not spawned.exists()


class TestExitCodes:
    """Exit 1 for a flag or value refused before any work starts, 2 for a bad
    input line, 0 for ``--help`` and ``--version``; none writes a file."""

    @pytest.mark.parametrize(
        ("argv", "code"),
        [
            (["langid", "--config", "langid_threshold.yaml", *STAGE_IO], 1),
            (["denoise", "--config", "denoise_ratio.yaml", *STAGE_IO], 1),
            (["dedup", "--config", "dedup_threshold.yaml", *STAGE_IO], 1),
            (["mix", "update", "--latest", "in.jsonl", "--non-latest", "in.jsonl", "--out", "plan.jsonl",
              "--r", "1.5", "--total", "4"], 1),
            (["mix", "epoch", "--weight", "patent=0", *STAGE_IO], 1),
            (["bench-run", "--questions", "questions.jsonl", "--setting", "manual_rag", "--echo-model",
              "--truncation", "0", "--out", "run"], 1),
            (["curate", "--config", "bad_rules.yaml", *STAGE_IO], 1),
            (["stats", "--in", "missing.jsonl", "--out", "manifest.json"], 1),
            (["stats", "--in", "bad.jsonl", "--out", "manifest.json"], 2),
            # a stage command reads its input before it writes anything
            (["denoise", "--config", "pipeline.yaml", "--in", "missing.jsonl", "--out", "out"], 1),
            (["denoise", "--config", "pipeline.yaml", "--in", "bad.jsonl", "--out", "out"], 2),
            (["curate", "--config", "pipeline.yaml", *STAGE_IO], 1),
            (["bench-run", "--questions", "bad_questions.jsonl", "--setting", "manual_rag", "--echo-model",
              "--out", "run"], 2),
            # a blank or mistyped backend command once ended in an IndexError
            # traceback, spawned a mapping's key or ran fallback-only
            (["langid", "--config", "classifier_blank.yaml", *STAGE_IO], 1),
            # refused alike by a stage command that starts no classifier
            (["denoise", "--config", "classifier_blank.yaml", *STAGE_IO], 1),
            (["bench-run", "--questions", "questions.jsonl", "--setting", "no_context", "--model-cmd", "   ",
              "--out", "run"], 1),
            (["bench-run", "--questions", "questions.jsonl", "--setting", "auto_rag", "--echo-model",
              "--search-cmd", " ", "--out", "run"], 1),
            # an empty command was once taken as no backend, and exited 0
            (["langid", "--config", "classifier_empty.yaml", *STAGE_IO], 1),
            (["bench-run", "--questions", "questions.jsonl", "--setting", "no_context", "--model-cmd", "",
              "--out", "run"], 1),
            (["bench-run", "--questions", "questions.jsonl", "--setting", "auto_rag", "--echo-model",
              "--search-cmd", "", "--out", "run"], 1),
            (["run", "--config", "classifier_blank.yaml"], 1),
            (["run", "--config", "classifier_mapping.yaml"], 1),
            (["run", "--config", "classifier_zero.yaml"], 1),
            (["run", "--config", "classifier_empty_list.yaml"], 1),
            # usage errors once exited 2, or were accepted and the flag ignored
            (["mix", "epoch", *STAGE_IO, "--weight", "curated_business=1", "--r", "0.5"], 1),
            (["mix", "update", "--latest", "in.jsonl", "--non-latest", "in.jsonl", "--out", "plan.jsonl",
              "--r", "0.5", "--total", "4", "--weight", "wikipedia=9"], 1),
            (["bench-run", "--questions", "questions.jsonl", "--setting", "no_context", "--echo-model",
              "--model-cmd", "cat", "--out", "run"], 1),
            (["bench-run", "--questions", "questions.jsonl", "--setting", "no_context", "--echo-model",
              "--model-id", "x", "--out", "run"], 1),
            (["dedup", "--config", "dedup_threshold_not_int.yaml", *STAGE_IO], 1),
            (["curate", "--config", "pipeline.yaml", "--in", "in.jsonl"], 1),
            # an abbreviated flag was once taken for the full one
            (["dedup", "--conf", "pipeline.yaml", *STAGE_IO], 1),
            (["mix", "epoch", *STAGE_IO, "--wei", "curated_business=2"], 1),
            # once every question was recorded skipped, and the run exited 0
            (["bench-run", "--questions", "questions.jsonl", "--setting", "auto_rag", "--echo-model",
              "--out", "run"], 1),
            # -v once set a DEBUG level that no message used
            (["-v", "stats", "--in", "in.jsonl", "--out", "manifest.json"], 1),
            # a path of the wrong kind once exited 2, where a missing one exits 1
            (["stats", "--in", ".", "--out", "manifest.json"], 1),
            (["langid", "--config", "pipeline.yaml", "--in", ".", "--out", "out"], 1),
            (["bench-run", "--questions", "questions.jsonl", "--setting", "manual_rag", "--echo-model",
              "--out", "afile"], 1),
            (["--help"], 0),
            (["--version"], 0),
        ],
        ids=["langid_threshold", "denoise_ratio", "dedup_threshold", "mix_update_r", "mix_epoch_weight",
             "bench_run_truncation", "curate_bad_rules", "missing_input", "bad_corpus_line",
             "stage_missing_input", "stage_bad_corpus_line", "curate_without_rules",
             "bad_question_line", "langid_blank_classifier", "denoise_blank_classifier",
             "bench_run_blank_model", "bench_run_blank_search", "langid_empty_classifier",
             "bench_run_empty_model", "bench_run_empty_search", "run_blank_classifier",
             "run_mapping_classifier", "run_zero_classifier", "run_empty_list_classifier",
             "mix_epoch_update_flag", "mix_update_epoch_flag", "bench_run_two_models",
             "bench_run_echo_model_id", "dedup_threshold_not_int", "curate_without_out",
             "dedup_abbreviated_flags", "mix_epoch_abbreviated_flag", "auto_rag_without_search",
             "verbose_flag", "directory_input", "stage_directory_input", "bench_run_out_is_a_file",
             "help", "version"],
    )
    def test_exit_code(self, tmp_path, monkeypatch, argv, code):
        monkeypatch.chdir(tmp_path)
        _corpus_file(tmp_path, name="in.jsonl", n_core=2)
        synth.write_jsonl(tmp_path / "questions.jsonl", QUESTIONS)
        synth.write_jsonl(tmp_path / "bad_questions.jsonl", [*QUESTIONS[:1], {**QUESTIONS[1], "id": 7}])
        (tmp_path / "bad.jsonl").write_text('{"id": "x", "source": "mc4", "text": 5}\n', encoding="utf-8")
        (tmp_path / "rules.yaml").write_text("url_patterns: 5\n", encoding="utf-8")
        (tmp_path / "afile").write_text("", encoding="utf-8")
        configs = {
            "pipeline": {},
            "bad_rules": {"curation": {"rules_file": "rules.yaml"}},
            "langid_threshold": {"lang_id": {"uncertainty_threshold": 2}},
            "denoise_ratio": {"noise": {"min_sentential_ratio": 2}},
            "dedup_threshold": {"dedup": {"sentence_frequency_threshold": 0}},
            "dedup_threshold_not_int": {"dedup": {"sentence_frequency_threshold": "abc"}},
            **{f"classifier_{name}": {"lang_id": {"classifier_cmd": cmd}}
               for name, cmd in (("blank", "   "), ("empty", ""), ("mapping", {"a": 1}), ("zero", 0),
                                 ("empty_list", []))},
        }
        for name, section in configs.items():
            config = {"sources": [{"path": "in.jsonl"}], **section}
            (tmp_path / f"{name}.yaml").write_text(json.dumps(config), encoding="utf-8")
        spawned = []

        def no_child(argv, **kwargs):
            spawned.append(argv)
            raise OSError("no child may be spawned")

        monkeypatch.setattr(subprocess, "Popen", no_child)
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == code
        assert spawned == []  # every case is refused before any work starts
        assert sorted(tmp_path.rglob("*")) == before


class TestFlagDefaults:
    @pytest.mark.parametrize(
        ("argv", "dest", "expected"),
        [
            (
                ["bench-run", "--questions", "q.jsonl", "--setting", "no_context", "--echo-model",
                 "--out", "run"],
                "truncation",
                TaskSetting(SettingKind.NO_CONTEXT).truncation_chars,
            ),
        ],
        ids=["bench_run_truncation"],
    )
    def test_flag_default_equals_dataclass_default(self, argv, dest, expected):
        args = build_parser().parse_args(argv)
        assert getattr(args, dest) == expected


class TestMix:
    def test_epoch_plan(self, tmp_path):
        path, truth = _corpus_file(
            tmp_path, n_core=6, n_off_domain=0, n_non_japanese=0,
            n_noise_carriers=0, n_terminatorless=0, n_duplicate_copies=0,
        )
        out = tmp_path / "plan.jsonl"
        assert main(
            ["mix", "epoch", "--in", str(path), "--out", str(out), "--seed", "5",
             "--weight", "curated_business=2.0"]
        ) == 0
        plan = read_jsonl(out, lambda obj: (SourceTag(obj["source"]), obj["id"]))
        assert len(plan) == 2 * truth.total_records

    @pytest.mark.parametrize(
        "weight, message",
        [
            ("wikipedia", "--weight 'wikipedia' is not TAG=W (a source and a number)"),
            ("bogus=2", "--weight 'bogus=2' is not TAG=W (a source and a number)"),
            ("wikipedia=x", "--weight 'wikipedia=x' is not TAG=W (a source and a number)"),
            ("wikipedia=-1", "weight for wikipedia must be finite and > 0, got -1.0"),
            ("wikipedia=nan", "weight for wikipedia must be finite and > 0, got nan"),
            ("wikipedia=inf", "weight for wikipedia must be finite and > 0, got inf"),
        ],
        ids=["no_value", "unknown_tag", "not_a_number", "negative", "nan", "inf"],
    )
    def test_epoch_bad_weight_exit_one(self, tmp_path, capsys, weight, message):
        path, _ = _corpus_file(tmp_path, n_core=2)
        out = tmp_path / "plan.jsonl"
        assert main(["mix", "epoch", "--in", str(path), "--out", str(out), "--weight", weight]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_update_mix_and_verify(self, tmp_path, capsys):
        latest_records = [
            {"id": f"l{i}", "source": "latest_update", "text": f"さいしんのきじ{i}。"}
            for i in range(50)
        ]
        older_records = [
            {"id": f"o{i}", "source": "curated_business", "text": f"ふるいきじ{i}。"}
            for i in range(30)
        ]
        latest = synth.write_jsonl(tmp_path / "latest.jsonl", latest_records)
        older = synth.write_jsonl(tmp_path / "older.jsonl", older_records)
        out = tmp_path / "plan.jsonl"
        assert main(
            ["mix", "update", "--latest", str(latest), "--non-latest", str(older),
             "--out", str(out), "--r", "0.3", "--total", "100", "--seed", "7"]
        ) == 0
        report = json.loads(capsys.readouterr().out.splitlines()[0])
        assert report["ok"] is True
        assert report["realized_non_latest"] == 30

    def test_update_mix_failed_verification_exit_two(self, tmp_path, capsys):
        # one file given as both pools: they share every document, and no plan is drawn
        latest = synth.write_jsonl(tmp_path / "latest.jsonl", [
            {"id": f"l{i}", "source": "latest_update", "text": f"さいしんのきじ{i}。"} for i in range(4)
        ])
        out = tmp_path / "plan.jsonl"
        assert main(
            ["mix", "update", "--latest", str(latest), "--non-latest", str(latest),
             "--out", str(out), "--r", "0.5", "--total", "4"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the latest and non-latest pools share document id 'l0'\n"
        assert not out.exists()

    def test_update_mix_verified_by_pool_not_tag(self, tmp_path, capsys):
        # counted by tag, all 4 entries were non-latest: exit 2 and no plan
        latest = synth.write_jsonl(tmp_path / "latest.jsonl", [
            {"id": f"l{i}", "source": "curated_business", "text": f"さいしんのきじ{i}。"} for i in range(4)
        ])
        older = synth.write_jsonl(tmp_path / "older.jsonl", [
            {"id": f"o{i}", "source": "wikipedia", "text": f"ふるいきじ{i}。"} for i in range(4)
        ])
        out = tmp_path / "plan.jsonl"
        assert main(
            ["mix", "update", "--latest", str(latest), "--non-latest", str(older),
             "--out", str(out), "--r", "0.5", "--total", "4"]
        ) == 0
        report = json.loads(capsys.readouterr().out.splitlines()[0])
        assert (report["ok"], report["realized_non_latest"]) == (True, 2)
        plan = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert sorted(entry["id"][0] for entry in plan) == ["l", "l", "o", "o"]
        assert all(set(entry) == {"id", "source"} for entry in plan)

    def test_update_mix_bad_r_exit_one(self, tmp_path):
        latest = synth.write_jsonl(
            tmp_path / "l.jsonl", [{"id": "a", "source": "latest_update", "text": "x。"}]
        )
        assert main(
            ["mix", "update", "--latest", str(latest), "--non-latest", str(latest),
             "--out", str(tmp_path / "p.jsonl"), "--r", "1.5", "--total", "10"]
        ) == 1


QUESTIONS = [
    {"id": "q1", "question": "カーボンニュートラルとは？", "category": "social_issues",
     "manual_context": "カーボンニュートラルの解説ページ。" * 60},
    {"id": "q2", "question": "ダークストアとは？", "category": "trends",
     "manual_context": "ダークストアの解説ページ。"},
    {"id": "q3", "question": "2023年4月にNATOに加盟した国は？", "category": "current_affairs",
     "manual_context": "ニュース記事の本文。"},
]


class TestBenchWorkflow:
    def test_run_judge_score(self, tmp_path, capsys):
        questions = tmp_path / "questions.jsonl"
        synth.write_jsonl(questions, QUESTIONS)
        run_dir = tmp_path / "run"
        assert main(
            ["bench-run", "--questions", str(questions), "--setting", "manual_rag",
             "--out", str(run_dir), "--echo-model"]
        ) == 0
        assert (run_dir / "manifest.json").exists()
        assert len(list((run_dir / "responses").glob("*.json"))) == 3

        verdicts = tmp_path / "verdicts.jsonl"
        with verdicts.open("w", encoding="utf-8") as fh:
            for i, q in enumerate(QUESTIONS):
                fh.write(json.dumps({
                    "question_id": q["id"],
                    "content_faithful": i < 2,
                    "instruction_followed": True,
                }) + "\n")
        assert main(
            ["bench-judge", "--run", str(run_dir), "--verdicts", str(verdicts),
             "--judge", "tester"]
        ) == 0

        capsys.readouterr()
        assert main(["bench-score", str(run_dir / "judgments.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "setting=manual_rag" in out
        assert "n=3" in out
        assert "accuracy=0.6667" in out

    def test_bench_judge_missing_criterion_exit_two(self, tmp_path, capsys):
        questions = tmp_path / "questions.jsonl"
        synth.write_jsonl(questions, QUESTIONS)
        run_dir = tmp_path / "run"
        assert main(
            ["bench-run", "--questions", str(questions), "--setting", "manual_rag",
             "--out", str(run_dir), "--echo-model"]
        ) == 0
        verdicts = tmp_path / "verdicts.jsonl"
        verdicts.write_text(
            json.dumps({"question_id": "q1", "content_faithful": True}) + "\n", encoding="utf-8"
        )
        capsys.readouterr()
        assert main(
            ["bench-judge", "--run", str(run_dir), "--verdicts", str(verdicts), "--judge", "t"]
        ) == 2
        err = capsys.readouterr().err
        assert f"error: {verdicts}:1: missing field 'instruction_followed'" in err
        assert not (run_dir / "judgments.jsonl").exists()

    def test_bench_judge_non_string_question_id_exit_two(self, tmp_path, capsys):
        questions = tmp_path / "questions.jsonl"
        synth.write_jsonl(questions, [{**QUESTIONS[1], "id": "7"}])
        run_dir = tmp_path / "run"
        assert main(
            ["bench-run", "--questions", str(questions), "--setting", "manual_rag",
             "--out", str(run_dir), "--echo-model"]
        ) == 0
        verdicts = tmp_path / "verdicts.jsonl"
        verdicts.write_text(
            json.dumps({"question_id": 7, "content_faithful": True, "instruction_followed": True}) + "\n",
            encoding="utf-8",
        )
        capsys.readouterr()
        assert main(
            ["bench-judge", "--run", str(run_dir), "--verdicts", str(verdicts), "--judge", "t"]
        ) == 2
        err = capsys.readouterr().err
        assert f"error: {verdicts}:1: field 'question_id' must be a string, got 7" in err
        assert not (run_dir / "judgments.jsonl").exists()

    @staticmethod
    def _bench_run(tmp_path, *extra: str) -> list[str]:
        questions = tmp_path / "questions.jsonl"
        synth.write_jsonl(questions, QUESTIONS)
        return ["bench-run", "--questions", str(questions), "--out", str(tmp_path / "run"), *extra]

    @pytest.mark.parametrize(
        ("damage", "reason"),
        [
            (lambda raw: raw[:40], "invalid JSON"),
            (lambda raw: json.dumps({k: v for k, v in json.loads(raw).items() if k != "setting"})
             .encode(), "missing field 'setting'"),
            (lambda raw: json.dumps({**json.loads(raw), "elapsed_ms": "5"}).encode(),
             "elapsed_ms must be a JSON integer, got '5'"),
            (lambda raw: json.dumps({**json.loads(raw), "elapsed_ms": True}).encode(),
             "elapsed_ms must be a JSON integer, got True"),
            (lambda raw: json.dumps({**json.loads(raw), "setting": "few_shot"}).encode(),
             "unknown setting 'few_shot'"),
            (lambda raw: json.dumps(list(json.loads(raw).values())).encode(),
             "record is not a JSON object"),
            # once kept on resume, never asked again, and counted apart from "ok"
            (lambda raw: json.dumps({**json.loads(raw), "status": "OK"}).encode(),
             "unknown status 'OK'"),
        ],
        ids=["cut_to_40_bytes", "no_setting", "string_elapsed_ms", "boolean_elapsed_ms", "unknown_setting", "array",
             "unknown_status"],
    )
    def test_broken_record_stops_judge_and_resume(self, tmp_path, capsys, damage, reason):
        bench_run = self._bench_run(tmp_path, "--setting", "manual_rag", "--echo-model")
        assert main(bench_run) == 0
        run_dir = tmp_path / "run"
        record = sorted((run_dir / "responses").glob("*.json"))[0]
        record.write_bytes(damage(record.read_bytes()))
        verdicts = tmp_path / "verdicts.jsonl"
        synth.write_jsonl(verdicts, [
            {"question_id": q["id"], "content_faithful": True, "instruction_followed": True}
            for q in QUESTIONS
        ])
        capsys.readouterr()
        assert main(
            ["bench-judge", "--run", str(run_dir), "--verdicts", str(verdicts), "--judge", "t"]
        ) == 2
        assert f"error: {record}: {reason}" in capsys.readouterr().err
        assert not (run_dir / "judgments.jsonl").exists()
        assert main(bench_run) == 2
        assert f"error: {record}: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("options", "message"),
        [
            (["--setting", "manual_rag"], "setting is 'no_context', this run has 'manual_rag'"),
            (["--setting", "no_context", "--truncation", "500"],
             "truncation_chars is 1000, this run has 500"),
        ],
        ids=["setting", "truncation"],
    )
    def test_resume_of_another_run_exit_one(self, tmp_path, capsys, options, message):
        assert main(self._bench_run(tmp_path, "--setting", "no_context", "--echo-model")) == 0
        run_dir = tmp_path / "run"
        before = {p: p.read_bytes() for p in sorted(run_dir.rglob("*.json"))}
        capsys.readouterr()
        assert main(self._bench_run(tmp_path, *options, "--echo-model")) == 1
        err = capsys.readouterr().err
        assert f"error: {run_dir / 'manifest.json'}: {message}" in err
        assert {p: p.read_bytes() for p in sorted(run_dir.rglob("*.json"))} == before

    def test_resume_of_interrupted_run_with_an_edited_question_exit_one(self, tmp_path, capsys, monkeypatch):
        # interrupted at q2, the run leaves q1's record and its first manifest;
        # that manifest was once written only at the end, so resuming with q1
        # edited kept the answer to the old q1
        bench_run = self._bench_run(tmp_path, "--setting", "no_context", "--echo-model")

        def interrupted_at_q2(self, prompt):
            if QUESTIONS[1]["question"] in prompt:
                raise KeyboardInterrupt
            return prompt.splitlines()[-1]

        with monkeypatch.context() as patch:
            patch.setattr(EchoModel, "generate", interrupted_at_q2)
            with pytest.raises(KeyboardInterrupt):
                main(bench_run)
        run_dir = tmp_path / "run"
        manifest = run_dir / "manifest.json"
        assert json.loads(manifest.read_text(encoding="utf-8"))["status"] == "incomplete"
        assert len(list((run_dir / "responses").glob("*.json"))) == 1

        def files() -> dict:
            return {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}

        before = files()
        synth.write_jsonl(tmp_path / "questions.jsonl", [{**QUESTIONS[0], "question": "脱炭素とは？"}, *QUESTIONS[1:]])
        capsys.readouterr()
        assert main(bench_run) == 1
        assert capsys.readouterr().err.startswith(f"error: {manifest}: questions_digest is ")
        assert files() == before

    @pytest.mark.parametrize(
        ("damage", "reason"),
        [(lambda raw: raw[:40], "invalid JSON"), (lambda raw: b"[]", "record is not a JSON object")],
        ids=["cut_to_40_bytes", "array"],
    )
    def test_damaged_run_manifest_stops_resume(self, tmp_path, capsys, damage, reason):
        bench_run = self._bench_run(tmp_path, "--setting", "no_context", "--echo-model")
        assert main(bench_run) == 0
        run_dir = tmp_path / "run"
        manifest = run_dir / "manifest.json"
        manifest.write_bytes(damage(manifest.read_bytes()))
        def files() -> dict:
            return {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in run_dir.rglob("*") if p.is_file()}

        before = files()
        capsys.readouterr()
        assert main(bench_run) == 2
        assert f"error: {manifest}: {reason}" in capsys.readouterr().err
        assert files() == before

    def test_bench_run_reaps_every_model_child(self, tmp_path):
        script = tmp_path / "model.py"
        script.write_text(PID_RECORDING_MODEL, encoding="utf-8")
        pid_file = tmp_path / "model.pids"
        model_cmd = shlex.join([sys.executable, str(script), str(pid_file)])
        assert main(
            self._bench_run(tmp_path, "--setting", "manual_rag", "--model-cmd", model_cmd,
                            "--max-in-flight", "3")
        ) == 0
        pids = [int(pid) for pid in pid_file.read_text(encoding="utf-8").split()]
        assert 1 <= len(pids) <= 3
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_search_spawn_failure_reaps_model_child(self, tmp_path):
        script = tmp_path / "model.py"
        script.write_text(PID_RECORDING_MODEL, encoding="utf-8")
        pid_file = tmp_path / "model.pids"
        model_cmd = shlex.join([sys.executable, str(script), str(pid_file)])
        assert main(
            self._bench_run(tmp_path, "--setting", "auto_rag", "--model-cmd", model_cmd,
                            "--search-cmd", str(tmp_path / "no-such-search"))
        ) == 1
        (pid,) = [int(pid) for pid in pid_file.read_text(encoding="utf-8").split()]
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)

    @pytest.mark.parametrize("max_in_flight", ["0", "-3"])
    def test_max_in_flight_below_one_exit_one(self, tmp_path, capsys, max_in_flight):
        bench_run = self._bench_run(tmp_path, "--setting", "manual_rag", "--echo-model",
                                    "--max-in-flight", max_in_flight)
        assert main(bench_run) == 1
        assert f"max_in_flight must be at least 1, got {max_in_flight}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("truncation", ["0", "-1"])
    def test_truncation_below_one_exit_one(self, tmp_path, capsys, truncation):
        bench_run = self._bench_run(tmp_path, "--setting", "manual_rag", "--echo-model",
                                    "--truncation", truncation)
        assert main(bench_run) == 1
        assert f"truncation_chars must be at least 1, got {truncation}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_non_string_context_exit_two_before_any_spawn(self, tmp_path, capsys):
        script = tmp_path / "model.py"
        script.write_text(PID_RECORDING_MODEL, encoding="utf-8")
        pid_file = tmp_path / "model.pids"
        bench_run = self._bench_run(tmp_path, "--setting", "manual_rag", "--model-cmd",
                                    shlex.join([sys.executable, str(script), str(pid_file)]))
        questions = tmp_path / "questions.jsonl"
        synth.write_jsonl(questions, [*QUESTIONS[:2], {**QUESTIONS[2], "manual_context": 5}])
        assert main(bench_run) == 2
        assert f"error: {questions}:3: manual_context must be a JSON string, got 5" in capsys.readouterr().err
        assert not pid_file.exists()
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [("question", None, "question must be a JSON string, got None"),
         ("id", 7, "id must be a JSON string, got 7")],
    )
    def test_non_string_question_field_exit_two_before_any_spawn(
        self, tmp_path, capsys, field, value, message
    ):
        script = tmp_path / "model.py"
        script.write_text(PID_RECORDING_MODEL, encoding="utf-8")
        pid_file = tmp_path / "model.pids"
        bench_run = self._bench_run(tmp_path, "--setting", "manual_rag", "--model-cmd",
                                    shlex.join([sys.executable, str(script), str(pid_file)]))
        questions = tmp_path / "questions.jsonl"
        synth.write_jsonl(questions, [{**QUESTIONS[0], field: value}, *QUESTIONS[1:]])
        assert main(bench_run) == 2
        assert f"error: {questions}:1: {message}" in capsys.readouterr().err
        assert not pid_file.exists()
        assert not (tmp_path / "run").exists()

    def test_max_in_flight_checked_before_any_spawn(self, tmp_path, capsys):
        script = tmp_path / "model.py"
        script.write_text(PID_RECORDING_MODEL, encoding="utf-8")
        pid_file = tmp_path / "model.pids"
        model_cmd = shlex.join([sys.executable, str(script), str(pid_file)])
        assert main(
            self._bench_run(tmp_path, "--setting", "auto_rag", "--model-cmd", model_cmd,
                            "--search-cmd", model_cmd, "--max-in-flight", "0")
        ) == 1
        assert "max_in_flight must be at least 1, got 0" in capsys.readouterr().err
        assert not pid_file.exists()
        assert not (tmp_path / "run").exists()

    def test_auto_rag_without_search_exit_one_before_any_spawn(self, tmp_path, capsys):
        script = tmp_path / "model.py"
        script.write_text(PID_RECORDING_MODEL, encoding="utf-8")
        pid_file = tmp_path / "model.pids"
        bench_run = self._bench_run(tmp_path, "--setting", "auto_rag", "--model-cmd",
                                    shlex.join([sys.executable, str(script), str(pid_file)]))
        questions = [{**q, "auto_context": q["manual_context"]} for q in QUESTIONS]
        synth.write_jsonl(tmp_path / "questions.jsonl", [questions[0], QUESTIONS[1], QUESTIONS[2]])
        assert main(bench_run) == 1
        assert capsys.readouterr().err == (
            "error: question 'q2' has no auto_context, so auto_rag needs --search-cmd\n"
        )
        assert not pid_file.exists()
        assert not (tmp_path / "run").exists()
        # with a page for every question, no search backend is needed
        synth.write_jsonl(tmp_path / "questions.jsonl", questions)
        assert main(bench_run) == 0
        assert "3/3 responses" in capsys.readouterr().out

    def test_bench_run_without_model_exit_one(self, tmp_path):
        questions = tmp_path / "questions.jsonl"
        synth.write_jsonl(questions, QUESTIONS)
        assert main(
            ["bench-run", "--questions", str(questions), "--setting", "no_context",
             "--out", str(tmp_path / "run")]
        ) == 1


class TestShippedExamples:
    def test_example_pipeline_config_runs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BIZCORPUS_OUTPUT_DIR", str(tmp_path / "out"))
        assert main(["run", "--config", str(CONFIGS / "pipeline.example.yaml")]) == 0
        cleaned = read_corpus_jsonl(tmp_path / "out" / "cleaned.jsonl")
        # 5 business articles + the wikipedia record survive; the duplicate,
        # the English page, the menu-only page and the off-domain page do not
        assert [d.id for d in cleaned] == [
            "biz-001", "biz-002", "biz-003", "biz-004", "biz-005", "wiki-010",
        ]
        assert (tmp_path / "out" / "sentence_freq.jsonl").exists()

    def test_example_bench_fixtures_run(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(
            ["bench-run", "--questions", str(CONFIGS / "questions.example.jsonl"),
             "--setting", "manual_rag", "--out", str(run_dir), "--echo-model"]
        ) == 0
        assert main(
            ["bench-judge", "--run", str(run_dir),
             "--verdicts", str(CONFIGS / "verdicts.example.jsonl"), "--judge", "demo"]
        ) == 0
        capsys.readouterr()
        assert main(["bench-score", str(run_dir / "judgments.jsonl")]) == 0
        assert "accuracy=0.5000" in capsys.readouterr().out

    def test_judging_a_run_twice_is_refused(self, tmp_path, capsys):
        # the second bench-judge used to append every judgment again (n=8)
        run_dir = tmp_path / "run"
        assert main(
            ["bench-run", "--questions", str(CONFIGS / "questions.example.jsonl"),
             "--setting", "manual_rag", "--out", str(run_dir), "--echo-model"]
        ) == 0
        judge = ["bench-judge", "--run", str(run_dir),
                 "--verdicts", str(CONFIGS / "verdicts.example.jsonl"), "--judge", "demo"]
        assert main(judge) == 0
        judgments = (run_dir / "judgments.jsonl").read_bytes()
        capsys.readouterr()
        assert main(judge) == 2
        err = capsys.readouterr().err
        assert f"error: {CONFIGS / 'verdicts.example.jsonl'}:1: question 'bq-001'" in err
        assert "is already judged by 'demo'" in err
        assert (run_dir / "judgments.jsonl").read_bytes() == judgments
        assert main(["bench-score", str(run_dir / "judgments.jsonl")]) == 0
        assert "n=4" in capsys.readouterr().out
