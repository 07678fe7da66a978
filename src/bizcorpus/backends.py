"""Wire-level backend adapters.

Classifier, model and search backends plug in over a child process speaking
one JSON object per line: the adapter writes a single request object to the
child's stdin and reads a single response object from its stdout, per call.

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
    """Client for a child process exchanging one JSON object per line.

    Calls are serialized with a lock: there is one pipe, so concurrent
    callers must not interleave request/response pairs.
    """

    WINDOW = 32  # unread replies wait in the pipe: 32 verdicts of ~40 bytes fit any buffer

    def __init__(self, cmd: str | list[str]):
        argv = shlex.split(cmd) if isinstance(cmd, str) else list(cmd)
        self.cmd = argv
        self._lock = threading.Lock()
        self._proc = subprocess.Popen(
            argv,
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
        lines: list[str] = []
        with self._lock:
            stdin, stdout = self._proc.stdin, self._proc.stdout
            assert stdin is not None and stdout is not None
            sent = 0
            with contextlib.suppress(BrokenPipeError):  # the child is gone: the rest go unanswered
                for request in requests:
                    stdin.write(json.dumps(request, ensure_ascii=False) + "\n")
                    stdin.flush()
                    sent += 1
                    if sent - len(lines) == self.WINDOW:
                        lines.append(stdout.readline())
            lines += [stdout.readline() for _ in range(sent - len(lines))]
        return lines + [""] * (len(requests) - sent)

    def close(self) -> None:
        proc = self._proc
        with contextlib.suppress(BrokenPipeError):  # requests left unsent by a dead child
            proc.stdin.close()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def __enter__(self) -> JsonLineProcess:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SubprocessClassifier:
    """Language classifier backend over the wire protocol."""

    def __init__(self, cmd: str | list[str]):
        self._proc = JsonLineProcess(cmd)

    def classify(self, text: str) -> tuple[str, float]:
        response = self._proc.call({"text": text})
        return str(response["lang"]), float(response["confidence"])

    def classify_many(self, texts: list[str]) -> list[tuple[str, float] | None]:
        """:meth:`classify` for each text; None where no usable answer came."""
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
