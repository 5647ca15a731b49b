"""In-memory spans: name, start, end, parent and the run (root span) they belong to.

A span is opened around a call with :meth:`Tracer.span`; spans nest per
thread, and a span opened with an empty stack starts a new run.  Spans stay
in memory until :meth:`Tracer.write` puts them out as JSON lines.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run", "attrs")

    def __init__(self, id: int, name: str, start: float, parent: Optional["Span"]) -> None:
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent.id if parent is not None else None
        self.run = parent.run if parent is not None else id
        self.attrs: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run,
            "attrs": self.attrs,
        }


class Tracer:
    """Records nested spans, one stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span = Span(next(self._ids), name, 0.0, stack[-1] if stack else None)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn: Callable[..., Any], note: Optional[Callable[..., None]] = None) -> Callable[..., Any]:
        """``fn`` inside a span; ``note(span, result, *args)`` may annotate it."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if note is not None:
                    note(span, result, *args, **kwargs)
                return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict(), default=str) + "\n")
