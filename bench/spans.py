"""Spans around the benchmark's calls into lapshift, kept in memory.

A span charges its duration to one layer name; time spent in spans opened
inside it is subtracted, so every layer's total is self time.  `wrap`
installs the same accounting on a function that one lapshift module calls
in another, for the length of a `with` block, so that the time a call into
`posets` spends in `shifts` and `canon` is charged to those layers.  A
disabled tracer hands out one shared no-op context and installs nothing.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

_NO_SPAN = nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list[float]] = []

    def _enter(self) -> list[float]:
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list[float]) -> None:
        self._stack.pop()
        duration = time.perf_counter() - frame[0]
        self.self_s[name] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration

    def span(self, name: str):
        return self._span(name) if self.enabled else _NO_SPAN

    @contextmanager
    def _span(self, name: str):
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(name, frame)

    @contextmanager
    def wrap(self, targets):
        """Charge calls through module attributes to layers: targets is
        (module, attribute name, layer name) triples, or quadruples whose
        last item maps a call's result to (count name, amount)."""
        if not self.enabled:
            yield
            return
        saved = []
        for module, attr, name, *count in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrapped(original, name, *count))
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrapped(self, func, name: str, count=None):
        def traced(*args, **kwargs):
            frame = self._enter()
            try:
                result = func(*args, **kwargs)
            finally:
                self._exit(name, frame)
            if count is not None:
                key, amount = count(result)
                self.counts[key] += amount
            return result

        return traced
