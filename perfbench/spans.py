"""In-memory span recorder for the traced benchmark run.

Spans are recorded by wrappers placed where each witnesskit module looks a
name up, so the program itself is unchanged.  Every span keeps its name,
start, end, parent span and case id; the list is written out when the run
ends and reduced to per-layer metrics by :func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict

# Span record fields, stored as a list so that ``end`` and ``info`` can be
# filled in when the call returns.
ID, PARENT, CASE, NAME, START, END, INFO = range(7)


class Tracer:
    """Span recorder plus the table of patched lookup sites."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.case = None
        self._stack = []
        self._patches = []

    def begin(self, name: str):
        parent = self._stack[-1][ID] if self._stack else None
        rec = [len(self.spans), parent, self.case, name, self.clock(), None, None]
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def end(self, rec, info=None):
        rec[END] = self.clock()
        rec[INFO] = info
        popped = self._stack.pop()
        if popped is not rec:
            raise RuntimeError(f"span {rec[NAME]!r} closed out of order")

    def parent_name(self):
        return self._stack[-1][NAME] if self._stack else None

    def wrap(self, fn, name, info=None):
        """Wrap ``fn`` in a span.  ``name`` is a string or a function of the
        enclosing span's name; ``info(args, kwargs, result)`` returns the
        counts stored on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(self.parent_name()) if callable(name) else name
            rec = self.begin(span_name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                result = exc
                raise
            finally:
                self.end(rec, info(args, kwargs, result) if info else None)

        return traced

    def patch(self, sites, name, info=None):
        """Replace the attribute at each ``(owner, attr)`` site with one
        traced wrapper around the first site's current value."""
        owner, attr = sites[0]
        wrapped = self.wrap(getattr(owner, attr), name, info)
        for owner, attr in sites:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)

    def unpatch(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        """Write the spans as gzipped JSON lines."""
        keys = ("id", "parent", "case", "name", "start", "end", "info")
        with gzip.open(path, "wt") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def self_times(spans):
    """Span duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for rec in spans:
        if rec[PARENT] is not None:
            children[rec[PARENT]].append((rec[START], rec[END]))
    out = {}
    for rec in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(rec[ID], ())):
            lo, hi = max(lo, rec[START]), min(hi, rec[END])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[rec[ID]] = (rec[END] - rec[START]) - covered
    return out


def summarize(spans):
    """Per span name: calls, inclusive time (outermost spans of that name
    only, so nested same-name spans are not counted twice), self time and
    the summed integer counts found in ``info``."""
    by_id = {rec[ID]: rec for rec in spans}
    own = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": defaultdict(int)})
    for rec in spans:
        row = out[rec[NAME]]
        row["calls"] += 1
        row["self_s"] += own[rec[ID]]
        parent = by_id.get(rec[PARENT])
        while parent is not None and parent[NAME] != rec[NAME]:
            parent = by_id.get(parent[PARENT])
        if parent is None:
            row["s"] += rec[END] - rec[START]
        for key, value in (rec[INFO] or {}).items():
            if key.endswith("_max"):
                row["counts"][key] = max(row["counts"][key], value)
            else:
                row["counts"][key] += value
    return out
