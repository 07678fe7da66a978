"""In-memory span recorder for the traced benchmark run.

A span is one timed call into the program: name, start, end, the span that
caused it and the run it belongs to. Spans stay in memory until the run ends
and are then written out as one JSON file. Spans opened on a worker thread
with nothing open on that thread take the innermost span of the thread that
created the tracer as their parent, so calls made by the program's own
thread pools still nest under the call that started them.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        """Time the body. Yields the span record; keys the caller adds to it,
        during or after the body, are written out with the span."""
        stack = self._stack()
        parents = stack or self._owner_stack
        record = {"id": next(self._ids), "name": name, "parent": parents[-1] if parents else None,
                  "run_id": self.run_id}
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        except BaseException:
            record["error"] = True
            raise
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"run_id": self.run_id, "spans": self.spans}), encoding="utf-8")


class NullTracer:
    """Stand-in for untraced runs: spans record nothing."""

    @contextmanager
    def span(self, name: str):
        yield {}


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time summed per span name: each span's duration minus the part
    of its interval that child spans cover (children on several threads may
    overlap; their union is subtracted)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[str, float] = {}
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, cursor), min(end, s["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
    return out
