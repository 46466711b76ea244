"""In-memory spans for the benchmark's traced pass.

A span records one call into a layer of f2cayley, made from the benchmark's
own code: its name, start and end (perf_counter seconds), the span that was
open when it started, and the operation it belongs to.  Spans stay in memory
until the run ends and are then written out as JSON lines.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List


class Tracer:
    def __init__(self, batch: int = 0) -> None:
        self.batch = batch
        self.spans: List[Dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, op: int, replay: bool = False) -> Iterator[None]:
        """Record the enclosed block as a span.

        `replay` marks a call the benchmark repeats only to time a part that
        another traced call already performed internally.
        """
        rec = {
            "id": len(self.spans), "name": name, "op": op, "batch": self.batch,
            "parent": self._open[-1] if self._open else None,
            "replay": replay, "start": perf_counter(), "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        """Summed duration of the spans called `name`."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def core_s(self) -> float:
        """Time of the top-level spans minus their replayed children.

        This is the traced counterpart of the untraced batch's own work.
        """
        top = sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)
        replayed = sum(s["end"] - s["start"] for s in self.spans if s["replay"])
        return top - replayed


def write_spans(path: str, tracers: List[Tracer]) -> None:
    with open(path, "w") as fh:
        for tr in tracers:
            for s in tr.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
