"""Wire-level backend adapters.

Classifier, model and search backends plug in over a child process speaking
one JSON object per line: the adapter writes a single request object to the
child's stdin and reads a single response object from its stdout, per call.
A backend called from several threads at once runs one copy of its command
per concurrent caller, so the command must tolerate that many instances.

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
from typing import Iterator

from .core import ConfigError, check_field_types


class WireProtocolError(RuntimeError):
    """The child process broke the one-JSON-object-per-line contract."""


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


def command_argv(cmd: str | list[str]) -> list[str]:
    """The argv of a backend command, a shell-style string or a list; a
    command that names no program or has a part that is not a string raises
    ``ConfigError``, before any child is started."""
    argv = shlex.split(cmd) if isinstance(cmd, str) else list(cmd)
    if not argv or not all(isinstance(part, str) for part in argv):
        # refused before Popen, which fails on an empty argv with an IndexError
        raise ConfigError(f"backend command must be a program and its arguments, all strings, got {cmd!r}")
    return argv


class JsonLineProcess:
    """Client for identical child processes exchanging one JSON object per line.

    One child is spawned at construction. A call takes an idle child for its
    whole exchange and spawns another only when every child is busy, so there
    are as many children as the peak number of concurrent callers. The lock
    covers only taking and returning a child. Once a child has closed its
    stdout or broken its stdin pipe, or an exchange was abandoned with replies
    unread, ``_broken`` says why, and no later call gets a reply or a child.
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

    def call(self, request: dict) -> str | WireProtocolError:
        (reply,) = self.exchange([request])
        return reply

    def exchange(self, requests: list[dict]) -> Iterator[str | WireProtocolError]:
        """Send the requests in order, up to ``WINDOW`` ahead of the replies
        read, and yield each reply line as it is read, or, where none came,
        the WireProtocolError saying why. Requests are flushed in batches of
        half a window, and always before a read, so a child must answer each
        line as it arrives, not wait for EOF. The child is taken at the first
        ``next`` and handed back once the last reply is read and the exchange
        is exhausted or closed; closed earlier, the child is out of step, and
        no later call gets a reply."""
        with self._lock:
            if not (self._broken or self._idle):
                self._procs.append(self._spawn())
                self._idle.append(self._procs[-1])
            proc = None if self._broken else self._idle.pop()
        if proc is None:  # the cause, once set, never changes
            yield from (WireProtocolError(self._broken) for _ in requests)
            return
        stdin, stdout = proc.stdin, proc.stdout
        assert stdin is not None and stdout is not None
        sent = read = 0
        reply = ""
        batch = self.WINDOW // 2
        try:
            with contextlib.suppress(BrokenPipeError):  # the child is gone: the rest go unanswered
                for request in requests:
                    stdin.write(json.dumps(request, ensure_ascii=False) + "\n")
                    sent += 1
                    if sent % batch == 0:
                        stdin.flush()
                        while sent - read > batch:
                            read += 1
                            yield (reply := stdout.readline()) or WireProtocolError(_CLOSED)
                stdin.flush()
            while read < sent:
                read += 1
                yield (reply := stdout.readline()) or WireProtocolError(_CLOSED)
        finally:
            # a child that did not answer every request is dead or out of step
            with self._lock:
                if read == len(requests) and (reply or not requests):
                    self._idle.append(proc)
                elif not self._broken:  # the first cause stands
                    self._broken = _ABANDONED if reply and read < sent else _CLOSED
        yield from (WireProtocolError(_CLOSED) for _ in range(len(requests) - sent))

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
