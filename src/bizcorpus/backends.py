"""Wire-level backend adapters.

Classifier, model and search backends plug in over a child process speaking
one JSON object per line: the adapter writes one request object per line to
the child's stdin and reads one response object per line from its stdout, in
request order. A call may send a few requests ahead of the replies it has
read: the language filter up to 32, a model run two, so that the child has
its next request waiting while it answers. A backend called from several
threads at once runs one copy of its command per concurrent caller, so the
command must tolerate that many instances.

Request/response schemas:

* language classifier: ``{"text": ...}`` -> ``{"lang": <string>, "confidence": <number>}``
* model:               ``{"prompt": ...}`` -> ``{"response": <string>}``
* search:              ``{"query": ...}`` -> ``{"results": [{"url", "title", "body"}, ...]}``,
  each of the three a string where present
"""

from __future__ import annotations

import contextlib
import json
import shlex
import subprocess
import threading
from dataclasses import dataclass
from typing import Generator, Iterable, Iterator

from .core import ConfigError, check_field_types


class WireProtocolError(RuntimeError):
    """The child process broke the one-JSON-object-per-line contract."""


# ``json.dumps``'s bytes, from one encoder instead of one built per request
_encode = json.JSONEncoder(ensure_ascii=False).encode

_CLOSED = "backend process closed its stdout"
_ABANDONED = "backend process out of step: an earlier exchange was abandoned with replies unread"


def _parse_reply(reply: str | WireProtocolError) -> dict:
    if isinstance(reply, WireProtocolError):
        raise reply
    try:
        response = json.loads(reply)
    except json.JSONDecodeError as exc:
        raise WireProtocolError(f"backend sent invalid JSON: {reply!r}") from exc
    if not isinstance(response, dict):
        raise WireProtocolError("backend response is not a JSON object")
    return response


_JSON_TYPES = {"string": str, "number": (int, float), "list": list}


def _typed_fields(backend: str, reply: str | WireProtocolError, **kinds: str) -> list:
    """The reply's named fields, each a JSON value of its named type (a
    boolean is never a number); an error quotes the whole ``reply``."""
    obj = _parse_reply(reply)
    for key, kind in kinds.items():
        if key not in obj:
            raise WireProtocolError(f"{backend} reply has no {key!r}: {reply.strip()!r}")
        if not isinstance(obj[key], _JSON_TYPES[kind]) or isinstance(obj[key], bool):
            raise WireProtocolError(f"{backend} reply has a non-{kind} {key!r}: {reply.strip()!r}")
    return [obj[key] for key in kinds]


def command_argv(cmd: object) -> list[str]:
    """The argv of a backend command, a shell-style string or a list of
    strings. Anything else, or a command that names no program, raises
    ``ConfigError``, before any child is started."""
    argv = shlex.split(cmd) if isinstance(cmd, str) else cmd
    if not (isinstance(argv, list) and argv and all(isinstance(part, str) for part in argv)):
        # refused before Popen, which fails on an empty argv with an IndexError
        raise ConfigError(f"backend command must be a program and its arguments, all strings, got {cmd!r}")
    return list(argv)


class JsonLineProcess:
    """Client for identical child processes exchanging one JSON object per line.

    One child is spawned at construction. An exchange takes an idle child once
    it has a first request, for the whole exchange, and spawns another only
    when every child is busy, so there are as many children as the peak number
    of concurrent exchanges. The lock covers only taking and returning a child
    and setting ``_broken``. Once a child has closed its stdout or broken its
    stdin pipe, or an exchange was abandoned with replies unread, ``_broken``
    says why: from then on no exchange sends another request or takes a
    child, including the ones already open.
    """

    WINDOW = 32  # unread replies wait in the pipe: 32 verdicts of ~40 bytes fit any buffer

    def __init__(self, cmd: str | list[str]):
        self.cmd = command_argv(cmd)
        self._lock = threading.Lock()
        self._procs = [self._spawn()]
        self._idle = list(self._procs)
        self._broken: str | None = None

    def _spawn(self) -> subprocess.Popen:
        return subprocess.Popen(
            self.cmd,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def _break(self, cause: str) -> None:
        with self._lock:
            self._broken = self._broken or cause  # the first cause stands

    def _reply(self, stdout) -> str | WireProtocolError:
        """The next reply line, or, once the child has closed its stdout, the
        error, with the backend broken at once so that no exchange sends more."""
        reply = stdout.readline()
        if not reply:
            self._break(_CLOSED)
        return reply or WireProtocolError(_CLOSED)

    def call(self, request: dict) -> str | WireProtocolError:
        (reply,) = self.exchange([request])
        return reply

    def exchange(self, requests: Iterable[dict], window: int = WINDOW) -> Iterator[str | WireProtocolError]:
        """Send the requests in order, up to ``window`` ahead of the replies
        read, and yield each reply line as it is read, or, where none came,
        the WireProtocolError saying why. A request is taken from ``requests``
        only when it is about to be sent, and a child only once there is a
        first request. Requests are flushed in batches of half a window, and
        always before a read, so a child must answer each line as it arrives,
        not wait for EOF. Once the backend is broken nothing more is sent, and
        each request left gets the error in its place. The child is handed
        back once every request sent has been answered and the exchange is
        exhausted or closed; closed earlier, the child is out of step, and no
        later call gets a reply."""
        pending = iter(requests)
        request = next(pending, None)
        if request is None:
            return
        with self._lock:
            if not (self._broken or self._idle):
                self._procs.append(self._spawn())
                self._idle.append(self._procs[-1])
            proc = None if self._broken else self._idle.pop()
        if proc is not None:
            request = yield from self._converse(proc, request, pending, window)
        if request is not None:  # the backend broke before it was sent
            yield WireProtocolError(self._broken)
            yield from (WireProtocolError(self._broken) for _ in pending)

    def _converse(
        self, proc: subprocess.Popen, request: dict | None, pending: Iterator[dict], window: int
    ) -> Generator[str | WireProtocolError, None, dict | None]:
        """``exchange`` with ``proc``, from ``request`` on; returns the first
        request left unsent, or None once ``pending`` has run out."""
        stdin, stdout = proc.stdin, proc.stdout
        assert stdin is not None and stdout is not None
        sent = read = 0
        batch = window // 2
        try:
            try:
                while request is not None and not self._broken:
                    stdin.write(_encode(request) + "\n")
                    sent += 1
                    request = None
                    if sent % batch == 0:
                        stdin.flush()
                        while sent - read > batch:
                            read += 1
                            yield self._reply(stdout)
                    request = next(pending, None)
                stdin.flush()
            except BrokenPipeError:  # the child is gone: what it was sent goes unanswered
                self._break(_CLOSED)
            while read < sent:
                read += 1
                yield self._reply(stdout)
        finally:
            # a child that did not answer every request sent is out of step
            with self._lock:
                if read < sent:
                    self._broken = self._broken or _ABANDONED
                elif not self._broken:
                    self._idle.append(proc)
        return request

    def close(self) -> None:
        for proc in self._procs:
            with contextlib.suppress(BrokenPipeError):  # requests left unsent by a dead child
                proc.stdin.close()
        for proc in self._procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


class SubprocessClassifier:
    """Language classifier backend over the wire protocol."""

    def __init__(self, cmd: str | list[str]):
        self._proc = JsonLineProcess(cmd)

    def classify(self, text: str) -> tuple[str, float]:
        (answer,) = self.classify_many([text])
        if isinstance(answer, WireProtocolError):
            raise answer
        return answer

    def classify_many(self, texts: list[str]) -> Iterator[tuple[str, float] | WireProtocolError]:
        """``(lang, confidence)`` for each text, in order, as its reply is
        read, or the WireProtocolError in its place where no usable answer
        came. Closing the generator ends the exchange at once."""
        with contextlib.closing(self._proc.exchange([{"text": text} for text in texts])) as replies:
            for reply in replies:
                try:
                    answer = tuple(_typed_fields("classifier", reply, lang="string", confidence="number"))
                except WireProtocolError as exc:
                    answer = exc
                yield answer

    def close(self) -> None:
        self._proc.close()


class CommandModel:
    """Model backend over the wire protocol."""

    def __init__(self, cmd: str | list[str], model_id: str | None = None):
        self._proc = JsonLineProcess(cmd)
        self.model_id = model_id or " ".join(self._proc.cmd)

    def generate(self, prompt: str) -> str:
        (response,) = _typed_fields("model", self._proc.call({"prompt": prompt}), response="string")
        return response

    def generate_many(self, prompts: Iterable[str]) -> Iterator[str | WireProtocolError]:
        """The response to each prompt, in order, as its reply is read, or the
        WireProtocolError in its place where no usable answer came. A prompt
        is taken from ``prompts`` only when it is sent, and it is sent while
        the child still answers the one before, so the child does not wait
        for the caller between answers. Closing the generator ends the
        exchange at once."""
        requests = ({"prompt": prompt} for prompt in prompts)
        # a window of 2: one prompt waits in the child's pipe, and its reply
        # is read once the next prompt is sent
        with contextlib.closing(self._proc.exchange(requests, window=2)) as replies:
            for reply in replies:
                try:
                    (response,) = _typed_fields("model", reply, response="string")
                except WireProtocolError as exc:
                    response = exc
                yield response

    def close(self) -> None:
        self._proc.close()


@dataclass(frozen=True)
class SearchResult:
    url: str = ""
    title: str = ""
    body: str = ""

    def __post_init__(self) -> None:
        check_field_types(self)


class CommandSearch:
    """Search backend over the wire protocol."""

    def __init__(self, cmd: str | list[str]):
        self._proc = JsonLineProcess(cmd)

    def search(self, query: str) -> list[SearchResult]:
        """The reply's ``results``, a list of objects whose ``url``, ``title``
        and ``body`` are strings where present and empty where absent."""
        reply = self._proc.call({"query": query})
        (results,) = _typed_fields("search", reply, results="list")
        found = []
        for result in results:
            if not isinstance(result, dict):
                raise WireProtocolError(f"search reply has a non-object result: {reply.strip()!r}")
            try:
                found.append(SearchResult(*(result.get(key, "") for key in ("url", "title", "body"))))
            except ConfigError as exc:
                raise WireProtocolError(f"search reply has a result whose {exc}: {reply.strip()!r}") from exc
        return found

    def close(self) -> None:
        self._proc.close()


class EchoModel:
    """Trivial in-process model: answers with the tail of the prompt. Handy
    for smoke-testing a benchmark run without any real model attached."""

    model_id = "echo"

    def generate(self, prompt: str) -> str:
        return prompt.splitlines()[-1] if prompt else ""
