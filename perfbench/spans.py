"""Spans around rwcosmo's public functions, recorded from outside the package.

A :class:`Tracer` replaces module attributes with timing wrappers and puts
the originals back when its ``with`` block ends, whatever happens inside it,
so untraced runs always execute unwrapped code.  Spans are kept in memory as
(name, start, end, parent, op) and written out once, when the run ends.
Wrappers record only inside :meth:`Tracer.op`, so the harness's own checks
between operations leave no spans.  They do not cross process boundaries:
a traced sweep must run with one worker.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: list[dict[str, float]] = []  # one dict per op
        self._patches: list[tuple[Any, str, Any]] = []
        self._stack: list[int] = []
        self._op: Optional[int] = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def wrap(self, owner: Any, attr: str, span: str,
             on_result: Optional[Callable[[Any], None]] = None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``on_result(result)`` runs after each recorded call, outside its
        span, to add counts for the current op.
        """
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if self._op is None:
                return original(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(Span(span, time.perf_counter(), 0.0, parent, self._op))
            self._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index] = self.spans[index]._replace(end=time.perf_counter())
            if on_result is not None:
                on_result(result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def original(self, owner: Any, attr: str) -> Any:
        """The unwrapped attribute, for harness code that must not be traced."""
        for o, a, orig in self._patches:
            if o is owner and a == attr:
                return orig
        return getattr(owner, attr)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def op(self):
        """Record the calls made inside the block as one operation."""
        self._op = len(self.counts)
        self.counts.append(defaultdict(float))
        try:
            yield
        finally:
            self._op = None

    def count(self, name: str, value: float = 1.0) -> None:
        """Add to a count of the current op, or of the last one once it ended."""
        self.counts[-1][name] += value

    def set_max(self, name: str, value: float) -> None:
        counts = self.counts[-1]
        counts[name] = max(counts.get(name, value), value)

    def per_op(self) -> list[dict[str, float]]:
        """Per op: total and self time of each span name, plus the counts.

        Self time is a span's duration minus that of its direct children;
        children of one span never overlap, since calls are synchronous.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        ops = [defaultdict(float, c) for c in self.counts]
        for i, s in enumerate(self.spans):
            ops[s.op][s.name + ".total_s"] += s.duration
            ops[s.op][s.name + ".self_s"] += s.duration - child_time[i]
            ops[s.op][s.name + ".calls"] += 1
        return ops

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")
