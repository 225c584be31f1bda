"""In-memory spans around package calls, recorded by wrapping module attributes.

A wrapped function records one span per call: its name, start, end, the span
that was open when it was called, and the instance it belongs to.  Spans stay
in memory until :meth:`Tracer.write`; self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter
from types import ModuleType
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: Counter[str] = Counter()
        self._open: list[int] = []
        self._instance = -1
        self._wrapped: list[tuple[ModuleType, str, Any]] = []

    def wrap(
        self,
        module: ModuleType,
        attr: str,
        name: str,
        count: Callable[[Any], dict[str, int]] | None = None,
        root: bool = False,
    ) -> None:
        """Replace module.attr by a recording wrapper until :meth:`unwrap`.

        A root span starts a new instance id; ``count`` maps the call's result
        to counter increments.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if root:
                self._instance += 1
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, self._instance))
            self._open.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                self.spans[index] = (name, start, end, parent, self._instance)
            if count is not None:
                self.counters.update(count(result))
            return result

        setattr(module, attr, wrapper)
        self._wrapped.append((module, attr, original))

    def unwrap(self) -> None:
        while self._wrapped:
            module, attr, original = self._wrapped.pop()
            setattr(module, attr, original)

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """(inclusive, self) seconds summed per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            inclusive[name] += end - start
            own[name] += end - start - child[i]
        return inclusive, own

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, instance) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "instance": instance}) + "\n")
