"""Deterministic stub backends speaking the README wire protocol.

Run as a child process, one JSON object per line on stdin/stdout::

    python3 benchmarks/stubs.py classifier   # {"text"}   -> {"lang", "confidence"}
    python3 benchmarks/stubs.py model        # {"prompt"} -> {"response"}
    python3 benchmarks/stubs.py search       # {"query"}  -> {"results": [...]}

Every answer, and the model's simulated latency, is a pure function of the
request bytes. The benchmark imports the same functions to derive planted
truth (which documents the classifier hands to the fallback, which questions
get no search body) and to split a model call into simulated work and wait.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
import time

CONFIDENT = 0.99
UNCERTAIN = 0.5
UNCERTAIN_PER_256 = 26  # ~10% of documents go to the fallback heuristic
NO_BODY_PER_256 = 64  # ~25% of search queries return no usable body

_SCRIPTS = (
    ("ja", re.compile("[\u3040-\u30ff]")),
    ("zh", re.compile("[\u3400-\u4dbf\u4e00-\u9fff\uf900-\ufaff]")),
    ("ko", re.compile("[\u1100-\u11ff\uac00-\ud7af]")),
    ("en", re.compile("[A-Za-z\u00c0-\u024f]")),
    ("ru", re.compile("[\u0400-\u04ff]")),
    ("th", re.compile("[\u0e00-\u0e7f]")),
)


def _digest(text: str) -> bytes:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest()


def classifier_uncertain(text: str) -> bool:
    """True when the stub classifier answers with low confidence."""
    return _digest(text)[0] < UNCERTAIN_PER_256


def classify(text: str) -> tuple[str, float]:
    """Any kana means Japanese; otherwise the most frequent script wins."""
    counts = {lang: len(rx.findall(text)) for lang, rx in _SCRIPTS}
    lang = "ja" if counts["ja"] else max(counts, key=lambda k: (counts[k], k))
    if not counts[lang]:
        lang = "und"
    return lang, UNCERTAIN if classifier_uncertain(text) else CONFIDENT


def model_latency_ms(prompt: str) -> float:
    """Simulated generation time: median ~3 ms, a 5% tail at 8-14 ms."""
    d = _digest(prompt)
    u = int.from_bytes(d[1:5], "big") / 2**32
    if d[0] < 13:
        return 8.0 + 6.0 * u
    return 2.0 + 2.0 * u


def model_response(prompt: str) -> str:
    return "回答:" + _digest(prompt).hex()[:16]


def search_has_body(query: str) -> bool:
    return _digest(query)[0] >= NO_BODY_PER_256


def search_results(query: str) -> list[dict]:
    """Three ranked results. The top one never has a body, so retrieval must
    skip to the next ranked result; for ~25% of queries none has a body."""
    rng = random.Random(_digest(query))
    results = [{"url": "https://search.example.jp/0", "title": "見出し", "body": ""}]
    for rank in (1, 2):
        body = ""
        if search_has_body(query):
            n = rng.randrange(400, 2400)
            body = "".join(rng.choice("あいうえおかきくけこ市場企業技術。") for _ in range(n))
        results.append(
            {"url": f"https://search.example.jp/{rank}", "title": f"結果{rank}", "body": body}
        )
    return results


def _serve(handler) -> None:
    for line in sys.stdin:
        reply = handler(json.loads(line))
        sys.stdout.write(json.dumps(reply, ensure_ascii=False) + "\n")
        sys.stdout.flush()


def _classifier(request: dict) -> dict:
    lang, confidence = classify(request["text"])
    return {"lang": lang, "confidence": confidence}


def _model(request: dict) -> dict:
    prompt = request["prompt"]
    time.sleep(model_latency_ms(prompt) / 1000.0)
    return {"response": model_response(prompt)}


def _search(request: dict) -> dict:
    return {"results": search_results(request["query"])}


if __name__ == "__main__":
    handlers = {"classifier": _classifier, "model": _model, "search": _search}
    if len(sys.argv) != 2 or sys.argv[1] not in handlers:
        sys.exit(f"usage: {sys.argv[0]} {{{'|'.join(handlers)}}}")
    _serve(handlers[sys.argv[1]])
