"""Spans and counts recorded from outside amqd.

amqd code looks its collaborators up at call time (module globals, the
``numpy.random`` and ``multiprocessing.pool`` attributes), so a span can be
put around a call by rebinding the name it is looked up under.  Nothing under
``src/`` is edited; every rebinding is undone when the tracer closes.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import sys
import time


class Tracer:
    """In-memory spans (name, parent, start, end) plus named counters."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._open = []
        self._patches = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, self._open[-1] if self._open else None, time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, func, replacement) -> None:
        """Point every name bound to ``func`` in a loaded amqd module at ``replacement``."""
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "amqd" or mod_name.startswith("amqd.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is func:
                    self.patch(mod, attr, replacement)
                    hits += 1
        if hits == 0:
            raise LookupError(f"{func!r} is not bound in any amqd module")

    def wrap(self, func, span_name: str | None = None, after=None):
        """Rebind ``func`` to a wrapper that opens a span and/or calls ``after(args, result)``."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if span_name is None:
                result = func(*args, **kwargs)
            else:
                with self.span(span_name):
                    result = func(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        self.rebind(func, wrapper)
        return wrapper

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def durations(self, name: str) -> list:
        return [s[3] - s[2] for s in self.spans if s[0] == name]

    def child_totals(self, name: str) -> list:
        """For each span called ``name``: its duration and the summed durations
        of its direct children, keyed by child name."""
        index = {}
        rows = []
        for i, s in enumerate(self.spans):
            if s[0] == name:
                index[i] = {"total": s[3] - s[2]}
                rows.append(index[i])
        for s in self.spans:
            row = index.get(s[1])
            if row is not None:
                row[s[0]] = row.get(s[0], 0.0) + (s[3] - s[2])
        return rows

    def self_time(self, name: str) -> float:
        """Summed duration of spans called ``name`` minus what their children cover."""
        return sum(row["total"] - sum(v for k, v in row.items() if k != "total")
                   for row in self.child_totals(name))

    def dump(self, path) -> None:
        payload = {
            "spans": [{"name": n, "parent": p, "start": a, "end": b} for n, p, a, b in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
