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
            bufsize=1,
        )

    def call(self, request: dict) -> dict:
        return _parse_reply(self.call_many([request])[0])

    def call_many(self, requests: list[dict]) -> list[str]:
        """Send the requests in order, up to ``WINDOW`` ahead of the replies
        read, and return the reply lines ("" where none came)."""
        with self._lock:
            if self._broken:
                return [""] * len(requests)
            if not self._idle:
                self._procs.append(self._spawn())
                self._idle.append(self._procs[-1])
            proc = self._idle.pop()
        stdin, stdout = proc.stdin, proc.stdout
        assert stdin is not None and stdout is not None
        lines: list[str] = []
        sent = 0
        try:
            with contextlib.suppress(BrokenPipeError):  # the child is gone: the rest go unanswered
                for request in requests:
                    stdin.write(json.dumps(request, ensure_ascii=False) + "\n")
                    stdin.flush()
                    sent += 1
                    if sent - len(lines) == self.WINDOW:
                        lines.append(stdout.readline())
            lines += [stdout.readline() for _ in range(sent - len(lines))]
        finally:
            # a child that did not answer every request is dead or out of step
            with self._lock:
                if len(lines) == len(requests) and "" not in lines:
                    self._idle.append(proc)
                else:
                    self._broken = True
        return lines + [""] * (len(requests) - sent)

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
        answer = self.classify_many([text])[0]
        if answer is None:
            raise WireProtocolError("classifier gave no usable answer")
        return answer

    def classify_many(self, texts: list[str]) -> list[tuple[str, float] | None]:
        """``(lang, confidence)`` for each text; None where no usable answer came."""
        answers: list[tuple[str, float] | None] = []
        for line in self._proc.call_many([{"text": text} for text in texts]):
            try:
                response = _parse_reply(line)
                answers.append((str(response["lang"]), float(response["confidence"])))
            except (WireProtocolError, KeyError, TypeError, ValueError):
                answers.append(None)
        return answers

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
