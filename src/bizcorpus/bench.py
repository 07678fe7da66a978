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
import re
import threading
import time
from collections import Counter, deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Protocol, Sequence, TypeVar

from .backends import SearchResult
from .core import (
    ConfigError,
    check_field_types,
    read_json,
    read_jsonl,
    utcnow,
    write_json,
    write_jsonl,
)

TEMPLATE_VERSION = "v1"

CATEGORIES = frozenset({"current_affairs", "corporate_activities", "social_issues", "trends"})
QUESTION_SETS = frozenset({"non_latest", "latest"})

OUTPUT_MARKER = "### 出力:"


class SettingKind(str, Enum):
    NO_CONTEXT = "no_context"
    AUTO_RAG = "auto_rag"
    MANUAL_RAG = "manual_rag"


_RAG_KINDS = (SettingKind.AUTO_RAG, SettingKind.MANUAL_RAG)

R = TypeVar("R")


def _from_fields(cls: type[R], obj: dict) -> R:
    """A ``cls`` built from ``obj``'s value for each of its dataclass fields;
    every field is required, and a missing one raises ``KeyError``."""
    return cls(**{f.name: obj[f.name] for f in fields(cls)})


@dataclass(frozen=True)
class TaskSetting:
    kind: SettingKind
    truncation_chars: int = 1000

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.truncation_chars < 1:
            raise ConfigError(f"truncation_chars must be at least 1, got {self.truncation_chars}")


@dataclass(frozen=True)
class BenchmarkQuestion:
    id: str
    question: str
    category: str
    manual_context: str | None = None
    auto_context: str | None = None
    question_set: str = "non_latest"

    def __post_init__(self) -> None:
        check_field_types(self)
        if not self.question:
            raise ValueError("question must be non-empty")
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")
        if self.question_set not in QUESTION_SETS:
            raise ValueError(f"unknown question_set {self.question_set!r}")


@dataclass(frozen=True)
class Judgment:
    """One line of ``judgments.jsonl``, field for field."""

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
        check_field_types(self)
        if self.correct != (self.content_faithful and self.instruction_followed):
            raise ValueError("correct must equal content_faithful AND instruction_followed")

    @classmethod
    def record(
        cls, *, content_faithful: bool, instruction_followed: bool, **other: str
    ) -> Judgment:
        """Build a judgment with ``correct`` derived from the two criteria. The
        other fields are keywords; ``timestamp`` defaults to now."""
        other["timestamp"] = other.get("timestamp") or utcnow()
        return cls(
            content_faithful=content_faithful,
            instruction_followed=instruction_followed,
            correct=content_faithful and instruction_followed,
            **other,
        )

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class SearchBackend(Protocol):
    def search(self, query: str) -> Sequence[SearchResult]: ...


class ModelBackend(Protocol):
    """Model plug point: ``generate(prompt) -> response``. An optional
    ``generate_many(prompts)`` generator takes each prompt from ``prompts``
    only when it sends it, and gives, per prompt and in order, the response
    or the exception that stands in its place."""

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
    """Load benchmark questions from line-delimited JSON. The first invalid
    record, such as one with a field that is not a JSON string, raises
    ``ValueError`` naming the file and line, which stops ``bench-run`` with
    exit 2 before any backend starts."""
    seen: set[str] = set()

    def parse(obj: dict) -> BenchmarkQuestion:
        question = BenchmarkQuestion(
            id=obj["id"],
            question=obj["question"],
            category=obj["category"],
            manual_context=obj.get("manual_context"),
            auto_context=obj.get("auto_context"),
            question_set=obj.get("question_set", "non_latest"),
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


def _questions_digest(questions: Sequence[BenchmarkQuestion]) -> str:
    h = hashlib.sha256()
    for q in questions:
        h.update(f"{q.id}\x00{q.question}\x00".encode("utf-8"))
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class RunRecord:
    """One ``responses/*.json`` file, field for field."""

    question_id: str
    setting: str
    truncation_chars: int
    model_id: str
    template_version: str
    status: str  # ok | error | skipped
    prompt: str = ""
    response: str = ""
    error: str = ""
    elapsed_ms: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.setting not in {s.value for s in SettingKind}:
            raise ValueError(f"unknown setting {self.setting!r}")
        if self.status not in ("ok", "error", "skipped"):
            raise ValueError(f"unknown status {self.status!r}")


def _read_record(path: Path) -> RunRecord:
    """One ``responses/*.json`` record, built from the fields of :class:`RunRecord`.

    A file that is not a JSON object holding every field with its type, or
    names an unknown setting, raises ``ValueError("<path>: <reason>")``.
    """
    return read_json(path, functools.partial(_from_fields, RunRecord))


def _check_stored(path: Path, stored: dict, expected: dict) -> None:
    """Refuse a stored manifest or record, read from ``path``, whose value of
    any ``expected`` field differs from this run's."""
    for name, value in expected.items():
        if stored.get(name) != value:
            raise ConfigError(
                f"{path}: {name} is {stored.get(name)!r}, this run has {value!r}; "
                "resume with the options and questions of the stored run or use another --out"
            )


def _resume(path: Path, expected: dict) -> RunRecord:
    """The stored record of a question, refused when it belongs to another run."""
    record = _read_record(path)
    _check_stored(path, asdict(record), expected)
    return record


def _retrieve(search: SearchBackend, q: BenchmarkQuestion) -> tuple[str, float]:
    """The page retrieved for ``q`` and the seconds its search took."""
    start = time.monotonic()
    body = retrieve_auto_context(search, q)
    return body, time.monotonic() - start


def _generate_each(model: ModelBackend, prompts: Iterable[str]) -> Iterator[str | Exception]:
    for prompt in prompts:
        try:
            answer = model.generate(prompt)
        except Exception as exc:  # recorded as the question's error; the run goes on
            answer = exc
        yield answer


class _Lanes:
    """The model slots of one run. Each lane takes the next question from one
    shared iterator, waits for its page, if it has one, and sends its prompt
    while the model still answers the lane's previous prompt; it writes each
    question's record as soon as the answer arrives.

    The first failure anywhere, recorded by :meth:`stop`, stops the run: no
    lane takes another question or sends another prompt, and the queued
    searches are cancelled. Each lane still reads the replies to the prompts
    it has sent, so a wire model stays in step, but writes no more records.
    """

    def __init__(
        self,
        run: dict,
        setting: TaskSetting,
        questions: Sequence[BenchmarkQuestion],
        model: ModelBackend,
        todo: list[int],
        pages: dict[int, Future[tuple[str, float]]],
        paths: list[Path],
        records: list[RunRecord | None],
    ):
        self._run, self._setting, self._questions, self._model = run, setting, questions, model
        self._todo, self._pages, self._paths, self._records = iter(todo), pages, paths, records
        self._lock = threading.Lock()
        self._stopped = threading.Event()
        self.failure: BaseException | None = None

    def stop(self, exc: BaseException) -> None:
        with self._lock:
            self.failure = self.failure or exc  # the first failure is the one raised
        self._stopped.set()
        for page in self._pages.values():
            page.cancel()

    def lane(self) -> None:
        """Ask the questions this lane takes, one after another, until none
        is left or the run stops."""
        generate_many = getattr(self._model, "generate_many", None)
        sent: deque[tuple[int, str, float, float]] = deque()
        prompts = self._prompts(sent)
        answers = generate_many(prompts) if generate_many else _generate_each(self._model, prompts)
        answered = 0.0
        for answer in answers:
            i, prompt, before_s, sent_at = sent.popleft()
            now = time.monotonic()
            # the model starts on a prompt once it has answered the lane's previous one
            elapsed_ms = int((before_s + now - max(sent_at, answered)) * 1000)
            answered = now
            if isinstance(answer, Exception):
                self._record(i, status="error", prompt=prompt, error=f"model backend failed: {answer}")
            else:
                self._record(i, status="ok", prompt=prompt, response=answer, elapsed_ms=elapsed_ms)

    def _prompts(self, sent: deque[tuple[int, str, float, float]]) -> Iterator[str]:
        """The prompt of each question this lane takes, each noted in ``sent``
        as it goes to the model. A question without a prompt is recorded here."""
        while not self._stopped.is_set():
            with self._lock:
                i = next(self._todo, None)
            if i is None:
                return
            try:
                prepared = self._prepare(i)
            except BaseException as exc:  # raised by the caller once every lane has stopped
                self.stop(exc)
                return
            if prepared is not None and not self._stopped.is_set():
                sent.append((i, *prepared))
                yield prepared[0]

    def _prepare(self, i: int) -> tuple[str, float, float] | None:
        """Question ``i``'s prompt, its search and prompt seconds, and the
        time it was built; None once a record says why it has none."""
        q = self._questions[i]
        searched_s = 0.0
        page = self._pages.get(i)
        if page is not None:
            try:
                body, searched_s = page.result()
            except RetrievalError as exc:
                self._record(i, status="skipped", error=str(exc))
                return None
            q = replace(q, auto_context=body)
        start = time.monotonic()
        try:
            prompt = build_prompt(self._setting, q)
        except MissingContextError as exc:
            self._record(i, status="error", error=str(exc))
            return None
        built = time.monotonic()
        return prompt, searched_s + built - start, built

    def _record(self, i: int, **outcome: object) -> None:
        """Write question ``i``'s record, unless the run has stopped; a
        failure stops it."""
        if self._stopped.is_set():
            return
        try:
            record = RunRecord(question_id=self._questions[i].id, **self._run, **outcome)
            write_json(self._paths[i], asdict(record))
        except BaseException as exc:  # a failed write; raised by the caller once every lane has stopped
            self.stop(exc)
        else:
            self._records[i] = record


def check_run(
    setting: TaskSetting,
    questions: Sequence[BenchmarkQuestion],
    *,
    searching: bool,
    max_in_flight: int,
) -> None:
    """Raise ``ConfigError`` for a run that cannot start: ``auto_rag``
    without search while a question has no ``auto_context``, or no question
    allowed to wait on the model."""
    if setting.kind is SettingKind.AUTO_RAG and not searching:
        unsearched = next((q.id for q in questions if not q.auto_context), None)
        if unsearched is not None:
            raise ConfigError(f"question {unsearched!r} has no auto_context, so auto_rag needs --search-cmd")
    if max_in_flight < 1:
        raise ConfigError(f"max_in_flight must be at least 1, got {max_in_flight}")


def run_benchmark(
    setting: TaskSetting,
    questions: Sequence[BenchmarkQuestion],
    model: ModelBackend,
    *,
    out_dir: Path | str,
    search: SearchBackend | None = None,
    max_in_flight: int = 1,
) -> list[tuple[str, str]]:
    """Run one setting over the questions into the run directory ``out_dir``
    and return (question id, response) pairs for every answered question.

    :func:`check_run` refuses a run that cannot start before anything is
    read. Each question gets its own record file under ``responses/``. Per-
    question backend failures are recorded and the run continues; only
    configuration errors abort the whole run.

    A run directory is resumed: it keeps the stored ``ok`` and ``skipped``
    records and asks the other questions, ``error`` ones included, again.
    The stored ``manifest.json`` and every stored record are read and checked
    first; one from another run (another setting, truncation, model id,
    template version or, for the manifest, question set) raises
    ``ConfigError`` and leaves the directory as it was. Then, before the
    first search or model call, the manifest is written with ``status``
    ``incomplete``; it says ``complete`` once every record is written.

    The model answers at most ``max_in_flight`` (at least 1) questions at
    once, and at most as many wait on ``search``. The ``auto_rag`` searches
    are queued up front, in question order, so retrieval runs ahead of the
    model. Each of the ``max_in_flight`` model slots takes the next question
    in question order and sends its prompt while the model still answers the
    slot's previous one, through the model's ``generate_many`` if it has one,
    else one ``generate`` call per prompt; the slot writes each record as its
    answer arrives. A record's ``elapsed_ms`` is the question's own search
    time plus its prompt and model time; the model time runs from the later
    of the prompt's send and the slot's previous answer, so time spent queued
    is not counted. On any exception no slot takes another question or sends
    another prompt, and the queued searches are cancelled; each slot reads
    the answers to the prompts it has sent, writing no more records, and the
    first exception is raised once every slot has stopped.
    """
    check_run(setting, questions, searching=search is not None, max_in_flight=max_in_flight)
    run = {
        "setting": setting.kind.value,
        "truncation_chars": setting.truncation_chars,
        "model_id": getattr(model, "model_id", model.__class__.__name__),
        "template_version": TEMPLATE_VERSION,
    }
    identity = {**run, "questions_digest": _questions_digest(questions)}
    manifest = {
        "schema": "bizcorpus-bench-run/1",
        **identity,
        "num_questions": len(questions),
        "started_at": utcnow(),
    }
    t0 = time.monotonic()

    manifest_path = Path(out_dir) / "manifest.json"
    if manifest_path.exists():
        _check_stored(manifest_path, read_json(manifest_path), identity)
    responses_dir = Path(out_dir) / "responses"
    paths = [responses_dir / f"{_safe_name(q.id)}.json" for q in questions]
    records = [
        _resume(path, {"question_id": q.id, **run}) if path.exists() else None
        for q, path in zip(questions, paths)
    ]
    responses_dir.mkdir(parents=True, exist_ok=True)
    write_json(manifest_path, {**manifest, "status": "incomplete"})

    todo = [i for i, record in enumerate(records) if record is None or record.status == "error"]
    with (
        ThreadPoolExecutor(max_in_flight, thread_name_prefix="bench-search") as searches,
        ThreadPoolExecutor(max_in_flight, thread_name_prefix="bench-model") as slots,
    ):
        pages: dict[int, Future[tuple[str, float]]] = {}
        lanes = _Lanes(run, setting, questions, model, todo, pages, paths, records)
        try:
            for i in todo:  # check_run saw to it that these have a search backend
                if setting.kind is SettingKind.AUTO_RAG and not questions[i].auto_context:
                    pages[i] = searches.submit(_retrieve, search, questions[i])
            for lane in [slots.submit(lanes.lane) for _ in range(max_in_flight)]:
                lane.result()
        except BaseException as exc:  # Ctrl-C here, or a fault in a lane: re-raised below
            lanes.stop(exc)
        if lanes.failure is not None:
            raise lanes.failure

    write_json(
        manifest_path,
        {
            **manifest,
            "status": "complete",
            "status_counts": Counter(record.status for record in records),
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
    """Read a judge's verdict file against a run directory and add the
    resulting judgments to ``<run_dir>/judgments.jsonl``.

    Verdict records are line-delimited JSON:
    ``{"question_id": str, "content_faithful": bool, "instruction_followed": bool}``.
    The id must be a JSON string and both criteria JSON booleans. A verdict
    for a question without an ok response, or with a mistyped field, is an
    error naming the line, and so is a second judgment of one (question,
    setting, model, judge), whether already in ``judgments.jsonl`` or earlier
    in the same file. On any error nothing is added: the earlier judgments,
    as read, and the new ones are written by
    :func:`~bizcorpus.core.write_jsonl`, so an interrupted write leaves the
    file as it was.
    """
    run_dir = Path(run_dir)
    responses_dir = run_dir / "responses"
    records: dict[str, RunRecord] = {}
    for path in sorted(responses_dir.glob("*.json")):
        record = _read_record(path)
        records[record.question_id] = record
    stored = run_dir / "judgments.jsonl"
    earlier = load_judgments(stored) if stored.exists() else []
    judged = {_judgment_key(j) for j in earlier}

    def parse(obj: dict) -> Judgment:
        qid = obj["question_id"]
        if not isinstance(qid, str):
            raise ValueError(f"field 'question_id' must be a string, got {qid!r}")
        record = records.get(qid)
        if record is None:
            raise ValueError(f"no response record for {qid!r}")
        if record.status != "ok":
            raise ValueError(f"question {qid!r} has status {record.status!r}, cannot be judged")
        judgment = Judgment.record(
            question_id=qid,
            setting=record.setting,
            model_id=record.model_id,
            response=record.response,
            content_faithful=obj["content_faithful"],
            instruction_followed=obj["instruction_followed"],
            judge_id=judge_id,
        )
        key = _judgment_key(judgment)
        if key in judged:
            raise ValueError(
                f"question {qid!r} ({judgment.setting.value}, model {judgment.model_id!r}) "
                f"is already judged by {judge_id!r}"
            )
        judged.add(key)
        return judgment

    judgments = read_jsonl(verdicts_path, parse)

    write_jsonl(stored, (judgment.to_dict() for judgment in [*earlier, *judgments]))
    return judgments


def load_judgments(path: Path | str) -> list[Judgment]:
    return read_jsonl(path, functools.partial(_from_fields, Judgment))


def _judgment_key(judgment: Judgment) -> tuple[str, SettingKind, str, str]:
    return judgment.question_id, judgment.setting, judgment.model_id, judgment.judge_id


def compute_accuracy(judgments: Sequence[Judgment]) -> dict[tuple[str, str], float]:
    """Correct-count over total, per (model, setting) group. Empty groups are
    simply absent — never reported as zero."""
    totals = Counter((j.model_id, j.setting.value) for j in judgments)
    correct = Counter((j.model_id, j.setting.value) for j in judgments if j.correct)
    return {key: correct[key] / total for key, total in totals.items()}
