"""Business-question benchmark harness.

Covers the three QA settings — question only (``no_context``), question
plus an automatically retrieved page (``auto_rag``), and question plus a
manually selected page (``manual_rag``) — with context truncation, prompt
construction from versioned templates, pluggable model/search backends,
response persistence, judgment recording and accuracy computation.

The harness never judges responses itself. A human judge fills in a verdict
file with the two binary criteria (content faithfulness and instruction
following); a response is correct only when both hold. See the judging
guide in the README.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Protocol, Sequence

from .core import ConfigError, read_jsonl

TEMPLATE_VERSION = "v1"

CATEGORIES = frozenset({"current_affairs", "corporate_activities", "social_issues", "trends"})
QUESTION_SETS = frozenset({"non_latest", "latest"})

OUTPUT_MARKER = "### 出力:"


class SettingKind(str, Enum):
    NO_CONTEXT = "no_context"
    AUTO_RAG = "auto_rag"
    MANUAL_RAG = "manual_rag"


_RAG_KINDS = (SettingKind.AUTO_RAG, SettingKind.MANUAL_RAG)


@dataclass(frozen=True)
class TaskSetting:
    kind: SettingKind
    truncation_chars: int = 1000

    def __post_init__(self) -> None:
        if self.truncation_chars < 1:
            raise ValueError("truncation_chars must be positive")


@dataclass(frozen=True)
class BenchmarkQuestion:
    id: str
    question: str
    category: str
    manual_context: str | None = None
    auto_context: str | None = None
    question_set: str = "non_latest"

    def __post_init__(self) -> None:
        if not self.question:
            raise ValueError("question must be non-empty")
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")
        if self.question_set not in QUESTION_SETS:
            raise ValueError(f"unknown question_set {self.question_set!r}")


@dataclass(frozen=True)
class Judgment:
    question_id: str
    setting: SettingKind
    model_id: str
    response: str
    content_faithful: bool
    instruction_followed: bool
    correct: bool
    judge_id: str
    timestamp: str

    def __post_init__(self) -> None:
        for name in ("content_faithful", "instruction_followed", "correct"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be a JSON boolean, got {value!r}")
        if self.correct != (self.content_faithful and self.instruction_followed):
            raise ValueError(
                "correct must equal content_faithful AND instruction_followed"
            )

    @classmethod
    def record(
        cls,
        *,
        question_id: str,
        setting: SettingKind,
        model_id: str,
        response: str,
        content_faithful: bool,
        instruction_followed: bool,
        judge_id: str,
        timestamp: str | None = None,
    ) -> Judgment:
        """Build a judgment with ``correct`` derived from the two criteria."""
        return cls(
            question_id=question_id,
            setting=SettingKind(setting),
            model_id=model_id,
            response=response,
            content_faithful=content_faithful,
            instruction_followed=instruction_followed,
            correct=content_faithful and instruction_followed,
            judge_id=judge_id,
            timestamp=timestamp or _utcnow(),
        )

    def to_dict(self) -> dict:
        return {
            "question_id": self.question_id,
            "setting": self.setting.value,
            "model_id": self.model_id,
            "response": self.response,
            "content_faithful": self.content_faithful,
            "instruction_followed": self.instruction_followed,
            "correct": self.correct,
            "judge_id": self.judge_id,
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> Judgment:
        return cls(
            question_id=str(obj["question_id"]),
            setting=SettingKind(obj["setting"]),
            model_id=str(obj["model_id"]),
            response=str(obj.get("response", "")),
            content_faithful=obj["content_faithful"],
            instruction_followed=obj["instruction_followed"],
            correct=obj["correct"],
            judge_id=str(obj["judge_id"]),
            timestamp=str(obj.get("timestamp", "")),
        )


def _utcnow() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    url: str = ""
    title: str = ""
    body: str = ""


class SearchBackend(Protocol):
    def search(self, query: str) -> Sequence[SearchResult]: ...


class ModelBackend(Protocol):
    model_id: str

    def generate(self, prompt: str) -> str: ...


class MissingContextError(RuntimeError):
    def __init__(self, question_id: str, kind: SettingKind):
        super().__init__(f"question {question_id!r} has no context for {kind.value}")
        self.question_id = question_id


class RetrievalError(RuntimeError):
    def __init__(self, question_id: str, reason: str):
        super().__init__(f"retrieval failed for question {question_id!r}: {reason}")
        self.question_id = question_id
        self.reason = reason


# ---------------------------------------------------------------------------
# Prompt construction
# ---------------------------------------------------------------------------


@functools.cache
def load_template(kind: SettingKind) -> str:
    name = "no_context_ja" if kind is SettingKind.NO_CONTEXT else "rag_ja"
    path = resources.files("bizcorpus.templates") / f"{name}.{TEMPLATE_VERSION}.txt"
    return path.read_text(encoding="utf-8").rstrip("\n")


def truncate_context(setting: TaskSetting, page_text: str) -> str:
    """First ``truncation_chars`` Unicode characters of the page. Character
    counting, never bytes, so multi-byte text is never split mid-character."""
    if setting.kind not in _RAG_KINDS:
        raise ValueError("truncation applies only to RAG settings")
    return page_text[: setting.truncation_chars]


def _render(template: str, values: dict[str, str]) -> str:
    # Single-pass substitution: replaced text is never rescanned, so
    # questions containing literal markers cannot corrupt the prompt.
    return re.sub(r"\{(question|context)\}", lambda m: values[m.group(1)], template)


def build_prompt(setting: TaskSetting, q: BenchmarkQuestion) -> str:
    """Render the prompt for a question under a setting.

    RAG settings embed the truncated context; a missing required context
    raises :class:`MissingContextError` (per-question, the run continues).
    """
    template = load_template(setting.kind)
    if setting.kind is SettingKind.NO_CONTEXT:
        return _render(template, {"question": q.question})
    context = q.manual_context if setting.kind is SettingKind.MANUAL_RAG else q.auto_context
    if not context:
        raise MissingContextError(q.id, setting.kind)
    return _render(
        template,
        {"question": q.question, "context": truncate_context(setting, context)},
    )


def retrieve_auto_context(backend: SearchBackend, q: BenchmarkQuestion) -> str:
    """Query the search backend with the question and return the body text of
    the highest-ranked result that has one."""
    try:
        results = backend.search(q.question)
    except Exception as exc:
        raise RetrievalError(q.id, str(exc)) from exc
    for result in results:
        if result.body and result.body.strip():
            return result.body
    raise RetrievalError(q.id, "no ranked result with body text")


# ---------------------------------------------------------------------------
# Run + persistence
# ---------------------------------------------------------------------------


def load_questions(path: Path | str) -> list[BenchmarkQuestion]:
    """Load benchmark questions from line-delimited JSON. Any invalid record
    is a configuration error and aborts the run."""
    seen: set[str] = set()

    def parse(obj: dict) -> BenchmarkQuestion:
        question = BenchmarkQuestion(
            id=str(obj["id"]),
            question=str(obj["question"]),
            category=str(obj["category"]),
            manual_context=obj.get("manual_context"),
            auto_context=obj.get("auto_context"),
            question_set=str(obj.get("question_set", "non_latest")),
        )
        if question.id in seen:
            raise ValueError(f"duplicate question id {question.id!r}")
        seen.add(question.id)
        return question

    return read_jsonl(path, parse)


def _safe_name(question_id: str) -> str:
    slug = re.sub(r"[^A-Za-z0-9._-]", "_", question_id)
    digest = hashlib.sha256(question_id.encode("utf-8")).hexdigest()[:8]
    return f"{slug}-{digest}"


def _write_json(path: Path, obj: dict) -> None:
    # write-then-rename: an interrupted run never leaves a truncated file
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(
        json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    os.replace(tmp, path)


def _questions_digest(questions: Sequence[BenchmarkQuestion]) -> str:
    h = hashlib.sha256()
    for q in questions:
        h.update(f"{q.id}\x00{q.question}\x00".encode("utf-8"))
    return h.hexdigest()[:16]


@dataclass
class RunRecord:
    question_id: str
    status: str  # ok | error | skipped
    prompt: str = ""
    response: str = ""
    error: str = ""
    elapsed_ms: int = 0

    def to_dict(self, run_fields: dict) -> dict:
        return {
            "question_id": self.question_id,
            **run_fields,
            "status": self.status,
            "prompt": self.prompt,
            "response": self.response,
            "error": self.error,
            "elapsed_ms": self.elapsed_ms,
        }


_RECORD_FIELDS = {
    "question_id": str,
    "setting": str,
    "truncation_chars": int,
    "model_id": str,
    "template_version": str,
    "status": str,
    "prompt": str,
    "response": str,
    "error": str,
    "elapsed_ms": int,
}


def _run_fields(setting: TaskSetting, model_id: str) -> dict:
    """What every record of one run, and its manifest, has in common."""
    return {
        "setting": setting.kind.value,
        "truncation_chars": setting.truncation_chars,
        "model_id": model_id,
        "template_version": TEMPLATE_VERSION,
    }


def _read_record(path: Path) -> dict:
    """One ``responses/*.json`` record as :meth:`RunRecord.to_dict` wrote it.

    A file that is not a JSON object holding every field with its type, or
    names an unknown setting, raises ``ValueError("<path>: <reason>")``.
    """
    try:
        obj = json.loads(path.read_bytes().decode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: record is not a JSON object")
    for name, kind in _RECORD_FIELDS.items():
        if name not in obj:
            raise ValueError(f"{path}: missing field {name!r}")
        if not isinstance(obj[name], kind):
            raise ValueError(f"{path}: field {name!r} must be a {kind.__name__}")
    if obj["setting"] not in {s.value for s in SettingKind}:
        raise ValueError(f"{path}: unknown setting {obj['setting']!r}")
    return obj


def _resume(path: Path, expected: dict) -> RunRecord:
    """The stored record of a question, refused when it belongs to another run."""
    obj = _read_record(path)
    for name, value in expected.items():
        if obj[name] != value:
            raise ConfigError(
                f"{path}: {name} is {obj[name]!r}, this run has {value!r}; "
                "resume with the options of the stored run or use another --out"
            )
    return RunRecord(**{f.name: obj[f.name] for f in fields(RunRecord)})


def _run_one(
    setting: TaskSetting,
    q: BenchmarkQuestion,
    model: ModelBackend,
    search: SearchBackend | None,
) -> RunRecord:
    start = time.monotonic()
    try:
        if setting.kind is SettingKind.AUTO_RAG and not q.auto_context:
            if search is None:
                return RunRecord(q.id, "skipped", error="no retrieved page for auto_rag")
            try:
                body = retrieve_auto_context(search, q)
            except RetrievalError as exc:
                return RunRecord(q.id, "skipped", error=str(exc))
            q = replace(q, auto_context=body)
        prompt = build_prompt(setting, q)
    except MissingContextError as exc:
        return RunRecord(q.id, "error", error=str(exc))
    try:
        response = model.generate(prompt)
    except Exception as exc:
        return RunRecord(q.id, "error", prompt=prompt, error=f"model backend failed: {exc}")
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return RunRecord(q.id, "ok", prompt=prompt, response=response, elapsed_ms=elapsed_ms)


def run_benchmark(
    setting: TaskSetting,
    questions: Sequence[BenchmarkQuestion],
    model: ModelBackend,
    *,
    search: SearchBackend | None = None,
    out_dir: Path | str | None = None,
    max_in_flight: int = 1,
) -> list[tuple[str, str]]:
    """Run one setting over the questions and return (question id, response)
    pairs for every runnable question.

    Per-question backend failures are recorded and the run continues; only
    configuration errors abort the whole run. With ``out_dir`` set, each
    question gets its own record file under ``responses/`` plus a run
    manifest, and an interrupted run resumes by skipping existing records.
    At most ``max_in_flight`` (at least 1) questions wait on the model at once.
    """
    if max_in_flight < 1:
        raise ConfigError(f"max_in_flight must be at least 1, got {max_in_flight}")
    model_id = getattr(model, "model_id", model.__class__.__name__)
    run_fields = _run_fields(setting, model_id)
    started_at = _utcnow()
    t0 = time.monotonic()

    paths: list[Path | None] = [None] * len(questions)
    records: list[RunRecord | None] = [None] * len(questions)
    if out_dir is not None:
        responses_dir = Path(out_dir) / "responses"
        responses_dir.mkdir(parents=True, exist_ok=True)
        paths = [responses_dir / f"{_safe_name(q.id)}.json" for q in questions]
        # every stored record is checked before the first model call
        records = [
            _resume(path, {"question_id": q.id, **run_fields}) if path.exists() else None
            for q, path in zip(questions, paths)
        ]

    def _process(i: int) -> RunRecord:
        record = _run_one(setting, questions[i], model, search)
        path = paths[i]
        if path is not None:
            _write_json(path, record.to_dict(run_fields))
        return record

    todo = [i for i, record in enumerate(records) if record is None]
    if max_in_flight > 1:
        with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
            fresh = list(pool.map(_process, todo))
    else:
        fresh = [_process(i) for i in todo]
    for i, record in zip(todo, fresh):
        records[i] = record

    if out_dir is not None:
        by_status: dict[str, int] = {}
        for record in records:
            by_status[record.status] = by_status.get(record.status, 0) + 1
        _write_json(
            Path(out_dir) / "manifest.json",
            {
                "schema": "bizcorpus-bench-run/1",
                **run_fields,
                "questions_digest": _questions_digest(questions),
                "num_questions": len(questions),
                "status_counts": dict(sorted(by_status.items())),
                "started_at": started_at,
                "duration_s": round(time.monotonic() - t0, 3),
            },
        )

    return [(r.question_id, r.response) for r in records if r.status == "ok"]


# ---------------------------------------------------------------------------
# Judgment recording + scoring
# ---------------------------------------------------------------------------


def record_judgments(
    run_dir: Path | str,
    verdicts_path: Path | str,
    judge_id: str,
) -> list[Judgment]:
    """Read a judge's verdict file against a run directory and append the
    resulting judgments to ``<run_dir>/judgments.jsonl``.

    Verdict records are line-delimited JSON:
    ``{"question_id": ..., "content_faithful": bool, "instruction_followed": bool}``.
    Both criteria must be JSON booleans. A verdict for a question without an
    ok response, or with a non-boolean criterion, is an error naming the line.
    """
    run_dir = Path(run_dir)
    responses_dir = run_dir / "responses"
    records: dict[str, dict] = {}
    for path in sorted(responses_dir.glob("*.json")):
        obj = _read_record(path)
        records[obj["question_id"]] = obj

    def parse(obj: dict) -> Judgment:
        qid = str(obj["question_id"])
        record = records.get(qid)
        if record is None:
            raise ValueError(f"no response record for {qid!r}")
        if record.get("status") != "ok":
            raise ValueError(
                f"question {qid!r} has status {record.get('status')!r}, cannot be judged"
            )
        return Judgment.record(
            question_id=qid,
            setting=SettingKind(record["setting"]),
            model_id=record["model_id"],
            response=record["response"],
            content_faithful=obj["content_faithful"],
            instruction_followed=obj["instruction_followed"],
            judge_id=judge_id,
        )

    judgments = read_jsonl(verdicts_path, parse)

    with (run_dir / "judgments.jsonl").open("a", encoding="utf-8") as fh:
        for judgment in judgments:
            fh.write(json.dumps(judgment.to_dict(), ensure_ascii=False, sort_keys=True))
            fh.write("\n")
    return judgments


def load_judgments(path: Path | str) -> list[Judgment]:
    return read_jsonl(path, Judgment.from_dict)


def compute_accuracy(judgments: Sequence[Judgment]) -> dict[tuple[str, str], float]:
    """Correct-count over total, per (model, setting) group. Empty groups are
    simply absent — never reported as zero."""
    totals: dict[tuple[str, str], int] = {}
    correct: dict[tuple[str, str], int] = {}
    for judgment in judgments:
        key = (judgment.model_id, judgment.setting.value)
        totals[key] = totals.get(key, 0) + 1
        correct[key] = correct.get(key, 0) + (1 if judgment.correct else 0)
    return {key: correct[key] / totals[key] for key in totals}
