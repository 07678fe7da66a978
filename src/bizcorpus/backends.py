"""Wire-level backend adapters.

Classifier, model and search backends plug in over a child process speaking
one JSON object per line: the adapter writes a single request object to the
child's stdin and reads a single response object from its stdout, per call.
A backend called from several threads at once runs one copy of its command
per concurrent caller, so the command must tolerate that many instances.

Request/response schemas:

* language classifier: ``{"text": ...}`` -> ``{"lang": ..., "confidence": ...}``
* model:               ``{"prompt": ...}`` -> ``{"response": ...}``
* search:              ``{"query": ...}`` -> ``{"results": [{"url", "title", "body"}, ...]}``
"""

from __future__ import annotations

import contextlib
import json
import shlex
import subprocess
import threading
from typing import Generator, Iterator

from .bench import SearchResult


class WireProtocolError(RuntimeError):
    """The child process broke the one-JSON-object-per-line contract."""


def _parse_reply(line: str) -> dict:
    if not line:
        raise WireProtocolError("backend process closed its stdout")
    try:
        response = json.loads(line)
    except json.JSONDecodeError as exc:
        raise WireProtocolError(f"backend sent invalid JSON: {line!r}") from exc
    if not isinstance(response, dict):
        raise WireProtocolError("backend response is not a JSON object")
    return response


class JsonLineProcess:
    """Client for identical child processes exchanging one JSON object per line.

    One child is spawned at construction. A call takes an idle child for its
    whole exchange and spawns another only when every child is busy, so there
    are as many children as the peak number of concurrent callers. The lock
    covers only taking and returning a child. Once any child has closed its
    stdout or broken its stdin pipe, every later call gets no reply and no
    child is spawned again.
    """

    WINDOW = 32  # unread replies wait in the pipe: 32 verdicts of ~40 bytes fit any buffer

    def __init__(self, cmd: str | list[str]):
        argv = shlex.split(cmd) if isinstance(cmd, str) else list(cmd)
        self.cmd = argv
        self._lock = threading.Lock()
        self._procs = [self._spawn()]
        self._idle = list(self._procs)
        self._broken = False

    def _spawn(self) -> subprocess.Popen:
        return subprocess.Popen(
            self.cmd,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def call(self, request: dict) -> dict:
        (reply,) = self.exchange([request])
        return _parse_reply(reply)

    def exchange(self, requests: list[dict]) -> Iterator[str]:
        """Send the requests in order, up to ``WINDOW`` ahead of the replies
        read, and yield each reply line as it is read ("" where none came).
        Requests are flushed in batches of half a window, and always before a
        read, so a child must answer each line as it arrives, not wait for
        EOF. The child is taken at the first ``next`` and handed back once the
        last reply is read and the exchange is exhausted or closed; closed
        earlier, the child is out of step, and no later call gets a reply."""
        with self._lock:
            if not (self._broken or self._idle):
                self._procs.append(self._spawn())
                self._idle.append(self._procs[-1])
            proc = None if self._broken else self._idle.pop()
        if proc is None:
            yield from [""] * len(requests)
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
                            yield (reply := stdout.readline())
                stdin.flush()
            while read < sent:
                read += 1
                yield (reply := stdout.readline())
        finally:
            # a child that did not answer every request is dead or out of step;
            # one that closed its stdout gives "" for every later read
            with self._lock:
                if read == len(requests) and (reply or not requests):
                    self._idle.append(proc)
                else:
                    self._broken = True
        yield from [""] * (len(requests) - sent)

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


class ClassifierAnswers:
    """``(lang, confidence)`` per text, given lazily as the replies arrive,
    None where no usable answer came; ``failure`` is the error behind the
    first None, set by the time that None is given. Iterable once; ``close``
    ends the exchange, so the child goes back to its pool, or, with replies
    unread, is never asked again."""

    failure: WireProtocolError | None = None

    def __init__(self, replies: Generator[str, None, None]):
        self._replies = replies

    def close(self) -> None:
        self._replies.close()

    def __iter__(self) -> Iterator[tuple[str, float] | None]:
        for line in self._replies:
            try:
                answer = _parse_verdict(line)
            except WireProtocolError as exc:
                answer = None
                self.failure = self.failure or exc
            yield answer


def _parse_verdict(line: str) -> tuple[str, float]:
    response = _parse_reply(line)
    try:
        return str(response["lang"]), float(response["confidence"])
    except KeyError as exc:
        raise WireProtocolError(f"classifier reply has no {exc}: {line.strip()!r}") from exc
    except (TypeError, ValueError) as exc:
        raise WireProtocolError(f"classifier reply has a bad confidence: {line.strip()!r}") from exc


class SubprocessClassifier:
    """Language classifier backend over the wire protocol."""

    def __init__(self, cmd: str | list[str]):
        self._proc = JsonLineProcess(cmd)

    def classify(self, text: str) -> tuple[str, float]:
        answers = self.classify_many([text])
        (answer,) = answers
        if answers.failure is not None:
            raise answers.failure
        return answer

    def classify_many(self, texts: list[str]) -> ClassifierAnswers:
        """``(lang, confidence)`` for each text as its reply is read; None
        where no usable answer came."""
        return ClassifierAnswers(self._proc.exchange([{"text": text} for text in texts]))

    def close(self) -> None:
        self._proc.close()


class CommandModel:
    """Model backend over the wire protocol."""

    def __init__(self, cmd: str | list[str], model_id: str | None = None):
        self._proc = JsonLineProcess(cmd)
        self.model_id = model_id or " ".join(self._proc.cmd)

    def generate(self, prompt: str) -> str:
        return str(self._proc.call({"prompt": prompt})["response"])

    def close(self) -> None:
        self._proc.close()


class CommandSearch:
    """Search backend over the wire protocol."""

    def __init__(self, cmd: str | list[str]):
        self._proc = JsonLineProcess(cmd)

    def search(self, query: str) -> list[SearchResult]:
        raw = self._proc.call({"query": query}).get("results", [])
        return [
            SearchResult(
                url=str(r.get("url", "")),
                title=str(r.get("title", "")),
                body=str(r.get("body", "")),
            )
            for r in raw
        ]

    def close(self) -> None:
        self._proc.close()


class EchoModel:
    """Trivial in-process model: answers with the tail of the prompt. Handy
    for smoke-testing a benchmark run without any real model attached."""

    model_id = "echo"

    def generate(self, prompt: str) -> str:
        return prompt.splitlines()[-1] if prompt else ""
