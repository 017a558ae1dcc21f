"""Spans and counters around the calls one treepack module makes into another.

Nothing under ``src/`` changes: the tracer replaces module and class
attributes with wrappers for the duration of a ``with`` block and puts
the originals back on exit.  Spans are aggregated as they close (calls,
total time, self time) instead of being stored one by one, because a
sweep opens millions of them.  A span's self time is its duration minus
the time covered by the spans opened inside it.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, start, time covered by children]
        self._patches: list[tuple] = []  # (owner, attr, original, wrapper)

    # -- spans ------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        dur = self.clock() - start
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    # -- wrapping ---------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make(original))
        self._patches.append((owner, attr, original, wrapper))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, on_result=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``;
        ``on_result(tracer, result, kwargs)`` may record counts."""

        def make(original):
            def wrapper(*args, **kwargs):
                self.enter(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.exit()
                if on_result is not None:
                    on_result(self, result, kwargs)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def span_iter(self, owner, attr: str, name: str) -> None:
        """Time each step of the iterator that ``owner.attr`` returns."""

        def make(original):
            def wrapper(*args, **kwargs):
                it = iter(original(*args, **kwargs))
                while True:
                    self.enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.exit()
                    yield item

            return wrapper

        self._patch(owner, attr, make)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without timing them."""

        def make(original):
            counts = self.counts

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        self._patch(owner, attr, make)

    # -- lifetime ---------------------------------------------------------

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, _ = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def suspended(self):
        """Run a block (output checks) with every original in place."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        try:
            yield
        finally:
            for owner, attr, _, wrapper in self._patches:
                setattr(owner, attr, wrapper)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
