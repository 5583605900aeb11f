"""Span recorder for the traced benchmark run.

The package is measured from outside: `Tracer.install` replaces every
module binding of a traced public function with a wrapper that opens a
span around the call.  Modules import functions by name, so each
binding is listed explicitly (for example `eval_term` is bound in
`declogic.model`, `declogic.probes` and `declogic.imp.equiv`); the
defining module's own binding is wrapped only where the function does
not call itself through it.

A span records its name, start, end, parent span and item id.  Spans
stay in memory and `write` saves them when the run ends.  The three
hottest leaves (`eval_term`, `canonical_key`, `parse_term`) are folded:
a folded call adds its count and duration to its enclosing span instead
of producing a record, which keeps a traced sweep of a million
evaluations within memory.  Self time is a span's duration minus the
time covered by its children, recorded and folded alike, so the self
times of one tree sum to its root's duration.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

_clock = time.perf_counter

# Record layout: [id, name, start, end, parent id, item, child time,
# folded {name: [count, seconds]} or None].
ID, NAME, START, END, PARENT, ITEM, CHILD, FOLDED = range(8)


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.folded: dict[str, list] = {}
        self.unbound: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str, item: str | None = None) -> list:
        parent = self.stack[-1] if self.stack else None
        record = [len(self.spans), name, 0.0, 0.0,
                  parent[ID] if parent else None,
                  parent[ITEM] if parent and item is None else item,
                  0.0, None]
        self.spans.append(record)
        self.stack.append(record)
        record[START] = _clock()
        return record

    def close(self, record: list) -> None:
        record[END] = _clock()
        popped = self.stack.pop()
        if popped is not record:
            raise RuntimeError(f"span {record[NAME]} closed out of order")
        if self.stack:
            self.stack[-1][CHILD] += record[END] - record[START]

    @contextlib.contextmanager
    def span(self, name: str, item: str | None = None):
        """A span around a block of benchmark code, such as one item;
        without `item` it belongs to the enclosing span's item."""
        record = self.open(name, item)
        try:
            yield record
        finally:
            self.close(record)

    def span_wrapper(self, name: str, fn, on_return=None, on_raise=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                tracer.close(record)
                if on_raise is not None:
                    on_raise(tracer, err)
                raise
            tracer.close(record)
            if on_return is not None:
                on_return(tracer, args, kwargs, result, record)
            return result

        return wrapper

    def folded_wrapper(self, name: str, fn):
        total = self.folded.setdefault(name, [0, 0.0])
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = _clock() - start
                total[0] += 1
                total[1] += took
                if stack:
                    top = stack[-1]
                    top[CHILD] += took
                    per_span = top[FOLDED]
                    if per_span is None:
                        per_span = top[FOLDED] = {}
                    entry = per_span.get(name)
                    if entry is None:
                        per_span[name] = [1, took]
                    else:
                        entry[0] += 1
                        entry[1] += took

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap every listed binding; `uninstall` puts the originals back.

        `targets` holds (span name, defining module, attribute, binding
        modules, folded, on_return, on_raise).  A binding module that no
        longer binds the function is listed in `unbound` rather than
        failing the run.
        """
        for name, home, attr, bindings, folded, on_return, on_raise in targets:
            original = getattr(_resolve_owner(home), attr)
            if folded:
                wrapper = self.folded_wrapper(name, original)
            else:
                wrapper = self.span_wrapper(name, original, on_return, on_raise)
            for where in bindings:
                owner = _resolve_owner(where)
                if owner.__dict__.get(attr) is not original:
                    self.unbound.append(f"{where}.{attr}")
                    continue
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, folded names included."""
        totals: dict[str, float] = defaultdict(float)
        for record in self.spans:
            totals[record[NAME]] += record[END] - record[START] - record[CHILD]
        for name, (_, seconds) in self.folded.items():
            totals[name] += seconds
        return totals

    def calls(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for record in self.spans:
            counts[record[NAME]] += 1
        for name, (count, _) in self.folded.items():
            counts[name] += count
        return counts

    def tree_sums(self) -> list[tuple[float, float]]:
        """(root duration, summed self time of its tree) for every root."""
        sums: dict[int, float] = {}
        roots: dict[int, int] = {}
        for record in self.spans:
            parent = record[PARENT]
            root = record[ID] if parent is None else roots[parent]
            roots[record[ID]] = root
            own = record[END] - record[START] - record[CHILD]
            folded = record[FOLDED]
            if folded:
                own += sum(seconds for _, seconds in folded.values())
            sums[root] = sums.get(root, 0.0) + own
        return [(self.spans[root][END] - self.spans[root][START], total)
                for root, total in sums.items()]

    def write(self, path: str) -> None:
        """One JSON object per span, in opening order."""
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps({
                    "id": record[ID], "name": record[NAME],
                    "start": record[START], "end": record[END],
                    "parent": record[PARENT], "item": record[ITEM],
                    "self": record[END] - record[START] - record[CHILD],
                    "folded": record[FOLDED] or {},
                }) + "\n")


def _resolve_owner(where: str):
    """A module, or a class inside one written as `module:Class`."""
    module, _, cls = where.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner
