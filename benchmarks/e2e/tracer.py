"""A parent-stack span recorder put around calls into each layer.

Spans are recorded from outside ``src/``: :meth:`SpanRecorder.wrap`
replaces a bound public method on a live instance with a timing
wrapper.  Every span keeps its name, start, end, the index of the span
that caused it and the epoch it belongs to; they stay in memory until
the run ends.  A span's self time is its duration minus the part its
child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class SpanRecorder:
    def __init__(self):
        #: ``[name, start, end, parent_index, epoch]`` per span.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.epoch = -1

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.epoch])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span around every ``owner.attr(...)`` call."""
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return inner(*args, **kwargs)
            finally:
                self.end(index)

        setattr(owner, attr, traced)

    def self_seconds(self) -> dict[str, float]:
        """Total self time by span name."""
        covered = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        total = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += (end - start) - covered[index]
        return dict(total)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, epoch in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "epoch": epoch,
                        }
                    )
                    + "\n"
                )
