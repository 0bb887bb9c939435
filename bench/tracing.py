"""In-memory spans around calls into the package's layers.

A span is (name, trace id, parent span, start, end). Spans of one operation
(a trial, a corpus instance, a decode, a CLI call) share one trace id. The
tracer records spans only while its patches are installed; the package itself
holds no tracing code.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

_NOW = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        # [name index, trace id, parent span index or -1, start ns, end ns]
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self._trace_id = -1

    def _name(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _open(self, idx: int) -> list[int]:
        parent = self._stack[-1] if self._stack else -1
        rec = [idx, self._trace_id, parent, _NOW(), 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list[int]) -> None:
        rec[4] = _NOW()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """A span that starts a new trace id (one operation)."""
        self._trace_id += 1
        rec = self._open(self._name(name))
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, fn, name: str):
        idx = self._name(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    @contextmanager
    def patched(self, targets):
        """Replace each (module, attribute, span name) by a span-recording wrapper."""
        saved = []
        try:
            for module, attr, name in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- aggregation ------------------------------------------------------

    def totals(self, lo: int = 0, hi: int | None = None) -> dict[str, tuple[int, int]]:
        """name -> (span count, summed ns, children included) over spans[lo:hi]."""
        acc: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for idx, _, _, start, end in self.spans[lo:hi]:
            cell = acc[self.names[idx]]
            cell[0] += 1
            cell[1] += end - start
        return {name: (c, ns) for name, (c, ns) in acc.items()}

    def children(self, parent_name: str, lo: int = 0, hi: int | None = None):
        """(number of spans named `parent_name`, name -> (count, summed ns) of
        their direct children), over spans[lo:hi]."""
        spans = self.spans[lo:hi]
        parents = {i for i, rec in enumerate(spans, lo) if self.names[rec[0]] == parent_name}
        acc: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for idx, _, parent, start, end in spans:
            if parent in parents:
                cell = acc[self.names[idx]]
                cell[0] += 1
                cell[1] += end - start
        return len(parents), {name: (c, ns) for name, (c, ns) in acc.items()}

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "trace", "parent", "start_ns", "end_ns"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**meta, "names": self.names, "fields": fields, "spans": self.spans}, handle)
