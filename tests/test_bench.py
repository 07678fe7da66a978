"""Benchmark harness: truncation, prompts, retrieval, runs, judging, scoring."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bizcorpus
from bizcorpus.backends import CommandModel, EchoModel, WireProtocolError
from bizcorpus.bench import (
    OUTPUT_MARKER,
    BenchmarkQuestion,
    Judgment,
    MissingContextError,
    RetrievalError,
    SearchResult,
    SettingKind,
    TaskSetting,
    build_prompt,
    compute_accuracy,
    load_judgments,
    load_questions,
    record_judgments,
    retrieve_auto_context,
    run_benchmark,
    truncate_context,
)

NO_CONTEXT = TaskSetting(SettingKind.NO_CONTEXT)
MANUAL = TaskSetting(SettingKind.MANUAL_RAG)
AUTO = TaskSetting(SettingKind.AUTO_RAG)


def q(qid: str = "q1", **kwargs) -> BenchmarkQuestion:
    defaults = dict(question="ダークストアとは何ですか？", category="trends")
    defaults.update(kwargs)
    return BenchmarkQuestion(id=qid, **defaults)


class ScriptedModel:
    model_id = "scripted"

    def __init__(self, fail_for: set[str] = frozenset()):
        self.fail_for = fail_for

    def generate(self, prompt: str) -> str:
        if any(marker in prompt for marker in self.fail_for):
            raise RuntimeError("backend exploded")
        return f"答え({len(prompt)}文字のプロンプト)"


class TestTruncation:
    def test_long_page_truncated(self):
        page = "あ" * 1500
        assert truncate_context(MANUAL, page) == "あ" * 1000

    def test_short_page_unchanged(self):
        page = "い" * 800
        assert truncate_context(MANUAL, page) == page

    def test_multibyte_never_split(self):
        # oracle: strict re-decode of the encoded result
        page = "漢字とかなを交ぜた長文です。" * 80
        assert len(page) > 1001
        out = truncate_context(AUTO, page[:1001])
        assert len(out) == 1000
        assert out.encode("utf-8").decode("utf-8") == out
        assert out == page[:1000]

    def test_not_applicable_to_no_context(self):
        with pytest.raises(ValueError):
            truncate_context(NO_CONTEXT, "text")

    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=2500))
    def test_idempotent_and_never_longer(self, page):
        once = truncate_context(MANUAL, page)
        assert len(once) <= min(len(page), 1000)
        assert truncate_context(MANUAL, once) == once


class TestBuildPrompt:
    def test_no_context_shape(self):
        prompt = build_prompt(NO_CONTEXT, q())
        assert "ダークストアとは何ですか？" in prompt
        assert prompt.endswith(OUTPUT_MARKER)
        assert "{question}" not in prompt

    def test_rag_embeds_exactly_truncated_context(self):
        page = "出" * 1200
        prompt = build_prompt(MANUAL, q(manual_context=page))
        assert "出" * 1000 in prompt
        assert "出" * 1001 not in prompt
        assert prompt.endswith(OUTPUT_MARKER)

    def test_manual_rag_requires_context(self):
        with pytest.raises(MissingContextError):
            build_prompt(MANUAL, q())

    def test_auto_rag_uses_auto_context(self):
        prompt = build_prompt(AUTO, q(auto_context="検索で見つけた本文。"))
        assert "検索で見つけた本文。" in prompt

    def test_literal_markers_in_question_are_safe(self):
        tricky = q(question="why does {context} appear?", manual_context="ページ本文。")
        prompt = build_prompt(MANUAL, tricky)
        assert "why does {context} appear?" in prompt

    def test_deterministic(self):
        question = q(manual_context="ほんぶん。" * 10)
        assert build_prompt(MANUAL, question) == build_prompt(MANUAL, question)


class FixedSearch:
    def __init__(self, results):
        self.results = results

    def search(self, query):
        return self.results


class TestRetrieval:
    def test_first_result_with_body_wins(self):
        backend = FixedSearch(
            [SearchResult(url="u1", body=""), SearchResult(url="u2", body="第二ページの本文。")]
        )
        assert retrieve_auto_context(backend, q()) == "第二ページの本文。"

    def test_all_results_empty_is_error(self):
        backend = FixedSearch([SearchResult(body=""), SearchResult(body="  ")])
        with pytest.raises(RetrievalError):
            retrieve_auto_context(backend, q())

    def test_stub_passthrough(self):
        backend = FixedSearch([SearchResult(body="固定のページ。")])
        assert retrieve_auto_context(backend, q()) == "固定のページ。"

    def test_backend_crash_is_retrieval_error(self):
        class Broken:
            def search(self, query):
                raise ConnectionError("no network")

        with pytest.raises(RetrievalError):
            retrieve_auto_context(Broken(), q())


def _questions(n: int) -> list[BenchmarkQuestion]:
    return [q(f"q{i:03d}", question=f"質問{i}は何ですか？") for i in range(n)]


def _normalized_run_dir(run_dir) -> dict:
    """Run directory contents with the timing fields zeroed."""
    out = {}
    for path in sorted(run_dir.rglob("*.json")):
        obj = json.loads(path.read_text(encoding="utf-8"))
        for key in ("elapsed_ms", "started_at", "duration_s"):
            obj.pop(key, None)
        out[str(path.relative_to(run_dir))] = obj
    return out


class TestRunBenchmark:
    def test_fifty_questions_fifty_responses(self, tmp_path):
        responses = run_benchmark(
            NO_CONTEXT, _questions(50), ScriptedModel(), out_dir=tmp_path / "run"
        )
        assert len(responses) == 50
        assert len(list((tmp_path / "run" / "responses").glob("*.json"))) == 50
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["status_counts"] == {"ok": 50}

    def test_one_backend_failure_recorded_run_continues(self, tmp_path):
        questions = _questions(50)
        model = ScriptedModel(fail_for={"質問7は"})
        responses = run_benchmark(NO_CONTEXT, questions, model, out_dir=tmp_path / "run")
        assert len(responses) == 49
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["status_counts"] == {"error": 1, "ok": 49}

    def test_missing_auto_context_marked_skipped(self, tmp_path):
        questions = [q("has", auto_context="ページ。"), q("missing")]
        responses = run_benchmark(AUTO, questions, ScriptedModel(), out_dir=tmp_path / "run")
        assert [qid for qid, _ in responses] == ["has"]
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["status_counts"] == {"ok": 1, "skipped": 1}

    def test_rerun_is_byte_identical_modulo_timing(self, tmp_path):
        questions = _questions(12)
        run_benchmark(MANUAL, [q(x.id, question=x.question, manual_context="本文。") for x in questions], ScriptedModel(), out_dir=tmp_path / "a")
        run_benchmark(MANUAL, [q(x.id, question=x.question, manual_context="本文。") for x in questions], ScriptedModel(), out_dir=tmp_path / "b")
        assert _normalized_run_dir(tmp_path / "a") == _normalized_run_dir(tmp_path / "b")

    def test_resume_skips_existing_records(self, tmp_path):
        questions = _questions(6)

        class CountingModel(ScriptedModel):
            calls = 0

            def generate(self, prompt):
                type(self).calls += 1
                return super().generate(prompt)

        run_benchmark(NO_CONTEXT, questions[:3], CountingModel(), out_dir=tmp_path / "run")
        assert CountingModel.calls == 3
        responses = run_benchmark(NO_CONTEXT, questions, CountingModel(), out_dir=tmp_path / "run")
        assert CountingModel.calls == 6  # only the 3 new questions hit the model
        assert len(responses) == 6

    def test_concurrent_dispatch_preserves_order_and_results(self, tmp_path):
        questions = _questions(20)
        serial = run_benchmark(NO_CONTEXT, questions, ScriptedModel())
        threaded = run_benchmark(NO_CONTEXT, questions, ScriptedModel(), max_in_flight=5)
        assert serial == threaded


class TestJudgments:
    def test_correct_derived_from_both_criteria(self):
        j = Judgment.record(
            question_id="q1",
            setting=SettingKind.NO_CONTEXT,
            model_id="m",
            response="r",
            content_faithful=True,
            instruction_followed=False,
            judge_id="judge-a",
        )
        assert j.correct is False

    def test_inconsistent_correct_rejected(self):
        with pytest.raises(ValueError):
            Judgment(
                question_id="q1",
                setting=SettingKind.NO_CONTEXT,
                model_id="m",
                response="r",
                content_faithful=True,
                instruction_followed=True,
                correct=False,
                judge_id="j",
                timestamp="2024-01-01T00:00:00Z",
            )

    def _judged(self, n_correct: int, n_total: int, model="m", setting=SettingKind.NO_CONTEXT):
        out = []
        for i in range(n_total):
            ok = i < n_correct
            out.append(
                Judgment.record(
                    question_id=f"q{i}",
                    setting=setting,
                    model_id=model,
                    response="答え",
                    content_faithful=ok,
                    instruction_followed=True,
                    judge_id="judge-a",
                )
            )
        return out

    def test_accuracy_45_of_50(self):
        acc = compute_accuracy(self._judged(45, 50))
        assert acc[("m", "no_context")] == 0.90

    def test_accuracy_9_of_10(self):
        acc = compute_accuracy(self._judged(9, 10))
        assert acc[("m", "no_context")] == 0.90

    def test_accuracy_zero(self):
        acc = compute_accuracy(self._judged(0, 7))
        assert acc[("m", "no_context")] == 0.0

    def test_empty_group_absent(self):
        assert compute_accuracy([]) == {}

    def test_groups_are_independent(self):
        judgments = self._judged(3, 4) + self._judged(1, 2, setting=SettingKind.MANUAL_RAG)
        acc = compute_accuracy(judgments)
        assert acc[("m", "no_context")] == 0.75
        assert acc[("m", "manual_rag")] == 0.5

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=60))
    def test_complement_sums_to_one(self, verdicts):
        judged = [
            Judgment.record(
                question_id=f"q{i}",
                setting=SettingKind.NO_CONTEXT,
                model_id="m",
                response="r",
                content_faithful=v,
                instruction_followed=True,
                judge_id="j",
            )
            for i, v in enumerate(verdicts)
        ]
        flipped = [
            Judgment.record(
                question_id=j.question_id,
                setting=j.setting,
                model_id=j.model_id,
                response=j.response,
                content_faithful=not j.correct,
                instruction_followed=True,
                judge_id=j.judge_id,
            )
            for j in judged
        ]
        total = (
            compute_accuracy(judged)[("m", "no_context")]
            + compute_accuracy(flipped)[("m", "no_context")]
        )
        assert total == pytest.approx(1.0)


class TestJudgingWorkflow:
    def test_record_judgments_end_to_end(self, tmp_path):
        questions = _questions(4)
        run_benchmark(NO_CONTEXT, questions, ScriptedModel(), out_dir=tmp_path / "run")
        verdicts = tmp_path / "verdicts.jsonl"
        with verdicts.open("w", encoding="utf-8") as fh:
            for i, question in enumerate(questions):
                fh.write(
                    json.dumps(
                        {
                            "question_id": question.id,
                            "content_faithful": i != 0,
                            "instruction_followed": True,
                        }
                    )
                    + "\n"
                )
        judgments = record_judgments(tmp_path / "run", verdicts, judge_id="judge-a")
        assert len(judgments) == 4
        assert sum(j.correct for j in judgments) == 3
        reloaded = load_judgments(tmp_path / "run" / "judgments.jsonl")
        assert [j.correct for j in reloaded] == [j.correct for j in judgments]
        acc = compute_accuracy(reloaded)
        assert acc[("scripted", "no_context")] == 0.75

    def test_verdict_for_unknown_question_is_error(self, tmp_path):
        run_benchmark(NO_CONTEXT, _questions(1), ScriptedModel(), out_dir=tmp_path / "run")
        verdicts = tmp_path / "verdicts.jsonl"
        verdicts.write_text(
            json.dumps({"question_id": "ghost", "content_faithful": True, "instruction_followed": True}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="ghost"):
            record_judgments(tmp_path / "run", verdicts, judge_id="judge-a")

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_non_boolean_verdict_rejected(self, tmp_path, value):
        # "content_faithful": "false" used to be read with bool() and scored
        # as correct (accuracy 1.0)
        questions = _questions(2)
        run_benchmark(NO_CONTEXT, questions, ScriptedModel(), out_dir=tmp_path / "run")
        verdicts = tmp_path / "verdicts.jsonl"
        lines = [
            {"question_id": questions[0].id, "content_faithful": True, "instruction_followed": True},
            {"question_id": questions[1].id, "content_faithful": value, "instruction_followed": True},
        ]
        verdicts.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
        with pytest.raises(ValueError, match=r"verdicts\.jsonl:2: content_faithful must be a JSON boolean"):
            record_judgments(tmp_path / "run", verdicts, judge_id="judge-a")
        assert not (tmp_path / "run" / "judgments.jsonl").exists()

    @pytest.mark.parametrize(
        ("line", "message"),
        [
            ('{"question_id": "q001", "content_faithful": true}', "missing field 'instruction_followed'"),
            ('["q001", true, true]', "record is not a JSON object"),
            ('{"question_id": "q001", "content_faithful": true,', "invalid JSON"),
        ],
        ids=["missing_criterion", "array", "broken_json"],
    )
    def test_bad_verdict_line_names_file_and_line(self, tmp_path, line, message):
        questions = _questions(2)
        run_benchmark(NO_CONTEXT, questions, ScriptedModel(), out_dir=tmp_path / "run")
        verdicts = tmp_path / "verdicts.jsonl"
        first = {"question_id": questions[0].id, "content_faithful": True, "instruction_followed": True}
        verdicts.write_text(json.dumps(first) + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"verdicts\.jsonl:2: ") as excinfo:
            record_judgments(tmp_path / "run", verdicts, judge_id="judge-a")
        assert message in str(excinfo.value)
        assert not (tmp_path / "run" / "judgments.jsonl").exists()

    def test_non_boolean_stored_judgment_rejected(self, tmp_path):
        path = tmp_path / "judgments.jsonl"
        judgment = Judgment.record(
            question_id="q1",
            setting=SettingKind.NO_CONTEXT,
            model_id="m",
            response="r",
            content_faithful=False,
            instruction_followed=True,
            judge_id="judge-a",
        ).to_dict()
        path.write_text(json.dumps({**judgment, "correct": "false"}) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"judgments\.jsonl:1: correct must be a JSON boolean"):
            load_judgments(path)

    def test_stored_judgment_missing_field_names_line(self, tmp_path):
        path = tmp_path / "judgments.jsonl"
        path.write_text('\n{"question_id": "q1", "setting": "no_context"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r"judgments\.jsonl:2: missing field 'model_id'"):
            load_judgments(path)


class TestQuestionLoading:
    def test_load_and_validate(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text(
            json.dumps(
                {
                    "id": "q1",
                    "question": "カーボンニュートラルとは？",
                    "category": "social_issues",
                    "manual_context": "本文",
                    "question_set": "latest",
                },
                ensure_ascii=False,
            )
            + "\n",
            encoding="utf-8",
        )
        questions = load_questions(path)
        assert questions[0].question_set == "latest"

    def test_bad_category_aborts(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text(
            json.dumps({"id": "q1", "question": "x", "category": "sports"}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="category"):
            load_questions(path)

    def test_duplicate_id_aborts(self, tmp_path):
        path = tmp_path / "q.jsonl"
        record = json.dumps({"id": "q1", "question": "x", "category": "trends"})
        path.write_text(record + "\n" + record + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate"):
            load_questions(path)

    @pytest.mark.parametrize(
        ("line", "message"),
        [
            ('["q2", "x", "trends"]', "record is not a JSON object"),
            ('{"id": "q2", "category": "trends"}', "missing field 'question'"),
            ('{"id": "q2", "question": "x"', "invalid JSON"),
        ],
        ids=["array", "missing_question", "broken_json"],
    )
    def test_bad_question_line_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "q.jsonl"
        first = json.dumps({"id": "q1", "question": "x", "category": "trends"})
        path.write_text(first + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"q\.jsonl:2: ") as excinfo:
            load_questions(path)
        assert message in str(excinfo.value)


MODEL_CHILD = textwrap.dedent(
    """
    import json, sys
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps({"response": "echo: " + req["prompt"][:10]}, ensure_ascii=False), flush=True)
    """
)


class TestWireModel:
    def test_command_model_roundtrip(self, tmp_path):
        script = tmp_path / "model.py"
        script.write_text(MODEL_CHILD, encoding="utf-8")
        model = CommandModel([sys.executable, str(script)], model_id="wire-test")
        try:
            assert model.generate("質問に簡潔に答えてください。") == "echo: 質問に簡潔に答えてく"
            assert model.model_id == "wire-test"
        finally:
            model.close()

    def test_echo_model_smoke(self):
        assert EchoModel().generate("a\nb") == "b"

    def test_command_model_safe_under_concurrent_dispatch(self, tmp_path):
        script = tmp_path / "model.py"
        script.write_text(MODEL_CHILD, encoding="utf-8")
        model = CommandModel([sys.executable, str(script)], model_id="wire")
        try:
            questions = [q(f"q{i}", question=f"質問{i}です。") for i in range(12)]
            serial = run_benchmark(NO_CONTEXT, questions, model)
            threaded = run_benchmark(NO_CONTEXT, questions, model, max_in_flight=4)
            assert serial == threaded
            assert len(threaded) == 12
        finally:
            model.close()


# Model child that appends its pid to argv[1] on start, then answers each
# prompt with its pid after 50 ms; a prompt containing "die" makes it exit.
SLOW_MODEL_CHILD = textwrap.dedent(
    """
    import json, os, sys, time
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    for line in sys.stdin:
        if "die" in json.loads(line)["prompt"]:
            sys.exit(0)
        time.sleep(0.05)
        print(json.dumps({"response": str(os.getpid())}), flush=True)
    """
)


def _spawned(pid_file) -> list[int]:
    return [int(pid) for pid in pid_file.read_text(encoding="utf-8").split()]


def _assert_reaped(pids) -> None:
    for pid in pids:
        # ChildProcessError: no such child left to wait for, i.e. already reaped
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestModelPool:
    @pytest.fixture
    def slow_model(self, tmp_path):
        script = tmp_path / "slow_model.py"
        script.write_text(SLOW_MODEL_CHILD, encoding="utf-8")
        pid_file = tmp_path / "model.pids"
        return CommandModel([sys.executable, str(script), str(pid_file)], model_id="slow"), pid_file

    def test_concurrent_callers_each_get_a_child(self, slow_model):
        model, pid_file = slow_model
        questions = [q(f"q{i}", question=f"質問{i}です。") for i in range(8)]
        try:
            run_benchmark(NO_CONTEXT, questions, model, max_in_flight=4)  # grows the pool
            start = time.monotonic()
            answers = run_benchmark(NO_CONTEXT, questions, model, max_in_flight=4)
            elapsed = time.monotonic() - start
        finally:
            model.close()
        assert [qid for qid, _ in answers] == [x.id for x in questions]
        assert elapsed < 0.3  # one child at a time needs 8 x 50 ms = 0.4 s
        spawned = _spawned(pid_file)
        assert 2 <= len(spawned) <= 4
        assert {int(response) for _, response in answers} <= set(spawned)
        _assert_reaped(spawned)

    def test_records_equal_at_one_and_four_in_flight(self, tmp_path):
        script = tmp_path / "model.py"
        script.write_text(MODEL_CHILD, encoding="utf-8")
        model = CommandModel([sys.executable, str(script)], model_id="wire")
        questions = [q(f"q{i}", question=f"質問{i}です。") for i in range(12)]
        try:
            for n in (1, 4):
                run_benchmark(NO_CONTEXT, questions, model, out_dir=tmp_path / str(n), max_in_flight=n)
        finally:
            model.close()
        assert _normalized_run_dir(tmp_path / "1") == _normalized_run_dir(tmp_path / "4")

    @pytest.mark.parametrize("max_in_flight", [1, 3])
    def test_dead_child_fails_later_questions_without_respawn(self, slow_model, tmp_path, max_in_flight):
        model, pid_file = slow_model
        questions = [q(f"q{i}", question="die" if i == 1 else f"質問{i}です。") for i in range(9)]
        try:
            # start every child first: q1's then dies at once, long before the
            # others' 50 ms answers, instead of after an interpreter start-up
            run_benchmark(NO_CONTEXT, questions[2:5], model, max_in_flight=max_in_flight)
            run_benchmark(
                NO_CONTEXT, questions, model, out_dir=tmp_path / "run", max_in_flight=max_in_flight
            )
            spawned = _spawned(pid_file)
            with pytest.raises(WireProtocolError):
                model.generate("質問")
            assert _spawned(pid_file) == spawned
        finally:
            model.close()
        assert len(spawned) <= max_in_flight
        paths = (tmp_path / "run" / "responses").glob("*.json")
        records = sorted((json.loads(p.read_text(encoding="utf-8")) for p in paths), key=lambda r: r["question_id"])
        status = [r["status"] for r in records]
        if max_in_flight == 1:
            assert status == ["ok"] + ["error"] * 8
        # q0 and q2 may be answered by live children while q1 kills its own
        assert status[1] == "error" and status[6:] == ["error"] * 3
        _assert_reaped(spawned)


def test_bench_side_loads_no_corpus_module():
    src = Path(bizcorpus.__file__).resolve().parents[1]
    code = "import sys, bizcorpus.bench, bizcorpus.backends; print(*sys.modules)"
    loaded = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    corpus_side = {"yaml", *(f"bizcorpus.{m}" for m in ("curation", "mixture", "dedup", "langid", "noise"))}
    assert "bizcorpus.backends" in loaded
    assert corpus_side.isdisjoint(loaded)
