"""In-memory spans around the public calls of ``iacompat``, and self times.

The tracer wraps functions from outside the library: the stage functions are
replaced in the ``iacompat.verifier`` namespace, where ``check_compatibility``
looks them up at call time, so the traced path is the real one. Spans are
kept in a list while the batch runs and written out once at the end.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional


@dataclass
class Span:
    check: int  # spans of one check share this id
    id: int
    parent: Optional[int]
    name: str
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.check = -1

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``attrs(result, *args)`` adds counts to it."""

        def traced(*args, **kwargs):
            span = Span(
                self.check,
                len(self.spans),
                self._open[-1].id if self._open else None,
                name,
            )
            self.spans.append(span)
            self._open.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
            if attrs is not None:
                span.attrs.update(attrs(result, *args))
            return result

        return traced

    def note(self, **attrs) -> None:
        """Attach counts to the innermost open span."""
        self._open[-1].attrs.update(attrs)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps(s.__dict__, sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls are single-threaded and nested, so children never overlap.
    """
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own
