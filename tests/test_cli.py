"""CLI subcommands, exit codes, and the bench workflow end to end."""

from __future__ import annotations

import json
import os
import shlex
import sys
from pathlib import Path

import pytest
import synth

from bizcorpus.cli import main
from bizcorpus.core import read_corpus_jsonl
from bizcorpus.mixture import SamplePlan

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


# Classifier child that records its pid, so a test can check it was reaped.
PID_RECORDING_CLASSIFIER = """
import json, os, sys
with open(sys.argv[1], "w") as fh:
    fh.write(str(os.getpid()))
for line in sys.stdin:
    print(json.dumps({"lang": "ja", "confidence": 0.99}), flush=True)
"""


class TestClassifierChild:
    @pytest.mark.parametrize("command", ["run", "langid"])
    def test_child_exited_when_main_returns(self, tmp_path, command):
        script = tmp_path / "classifier.py"
        script.write_text(PID_RECORDING_CLASSIFIER, encoding="utf-8")
        pid_file = tmp_path / "classifier.pid"
        classifier_cmd = shlex.join([sys.executable, str(script), str(pid_file)])
        records, _ = synth.make_records(n_core=3)
        if command == "run":
            config = synth.write_pipeline_config(
                tmp_path, records, extra={"lang_id": {"classifier_cmd": classifier_cmd}}
            )
            argv = ["run", "--config", str(config)]
        else:
            raw = synth.write_jsonl(tmp_path / "raw.jsonl", records)
            argv = ["langid", "--in", str(raw), "--out", str(tmp_path / "ja.jsonl"),
                    "--classifier-cmd", classifier_cmd]
        assert main(argv) == 0
        pid = int(pid_file.read_text(encoding="utf-8"))
        # ChildProcessError: no such child left to wait for, i.e. main already reaped it
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


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
        raw = tmp_path / "raw.jsonl"
        synth.write_jsonl(raw, records)
        rules = synth.write_rules(tmp_path / "rules.yaml")

        stage1 = tmp_path / "curated.jsonl"
        assert main(["curate", "--rules", str(rules), "--in", str(raw), "--out", str(stage1)]) == 0
        stage2 = tmp_path / "ja.jsonl"
        assert main(["langid", "--in", str(stage1), "--out", str(stage2)]) == 0
        stage3 = tmp_path / "clean.jsonl"
        assert main(["denoise", "--in", str(stage2), "--out", str(stage3)]) == 0
        stage4 = tmp_path / "deduped.jsonl"
        freq = tmp_path / "freq.jsonl"
        assert main(
            ["dedup", "--in", str(stage3), "--out", str(stage4), "--dump-freq", str(freq)]
        ) == 0

        final = read_corpus_jsonl(stage4)
        assert [d.id for d in final] == truth.survivor_ids
        assert freq.exists()

    def test_stats_manifest(self, tmp_path):
        path, _ = _corpus_file(tmp_path, n_core=3)
        out = tmp_path / "manifest.json"
        assert main(["stats", "--in", str(path), "--out", str(out)]) == 0
        manifest = json.loads(out.read_text(encoding="utf-8"))
        assert manifest["total_tokens"] > 0

    def test_broken_input_exit_two(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "x"}\n', encoding="utf-8")  # record missing text
        out = tmp_path / "out.jsonl"
        assert main(["denoise", "--in", str(bad), "--out", str(out)]) == 2


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
        plan = SamplePlan.from_jsonl(out)
        assert len(plan) == 2 * truth.total_records

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
