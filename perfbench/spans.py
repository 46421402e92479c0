"""In-memory span recorder that wraps qsts functions from outside the package.

A span is one call of a wrapped function: name, start, end, parent span,
op id, thread, and counters noted while it was the innermost open span on
its thread.  Spans stay in memory and are written out once the run ends.

The wrappers are installed by rebinding each target function in every
``qsts.*`` namespace that holds it (modules import names into their own
namespaces, so patching the defining module alone would miss most calls)
and by rebinding methods on their class.  ``numpy.linalg.eigh`` and
``eigvalsh`` are wrapped as counters, not spans, so an eigensolve counts
toward the function that asked for it without being carved out of its
self time.  ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time

# span record fields, kept as lists for cheap appends
NAME, START, END, PARENT, OP, THREAD, COUNTS = range(7)


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._op = None
        self._restore: list[tuple] = []
        # run-level sums that are not spans (import time, output bytes)
        self.totals: dict[str, float] = {}

    # ------------------------------------------------------------ recording

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str) -> int:
        st = self._stack()
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           st[-1] if st else None, self._op,
                           threading.get_ident(), None])
        st.append(sid)
        return sid

    def close(self, sid: int):
        self.spans[sid][END] = time.perf_counter()
        self._stack().pop()

    def count(self, key: str, value: float = 1):
        """Add ``value`` to counter ``key`` of the innermost open span."""
        st = self._stack()
        if not st:
            return
        rec = self.spans[st[-1]]
        if rec[COUNTS] is None:
            rec[COUNTS] = {}
        rec[COUNTS][key] = rec[COUNTS].get(key, 0) + value

    def op(self, op_id):
        """Context manager marking one benchmark op as a root span."""
        return _OpSpan(self, op_id)

    # ------------------------------------------------------------- wrapping

    def wrap(self, name: str, fn, note=None):
        """Span-recording wrapper; ``note(args, kwargs, result)`` may return counters."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    for key, value in note(args, kwargs, result).items():
                        tracer.count(key, value)
                return result
            finally:
                tracer.close(sid)

        return wrapper

    def counter(self, key: str, fn):
        """Wrapper that only counts calls against the innermost open span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(key)
            return fn(*args, **kwargs)

        return wrapper

    def install(self, targets, counters=()):
        """Wrap ``targets`` = [(span name, owner, attr, note)] and counters.

        ``owner`` is a module or class.  A module-level function is rebound
        in every loaded ``qsts`` namespace that refers to it; a method is
        rebound on its class.  ``counters`` = [(key, module, attr)] are
        rebound on their module only.
        """
        if self._restore:
            raise RuntimeError("tracer already installed")
        namespaces = [m for k, m in sorted(sys.modules.items())
                      if m is not None and (k == "qsts" or k.startswith("qsts."))]
        for name, owner, attr, note in targets:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, note)
            if isinstance(owner, type):
                self._rebind(owner, attr, original, wrapper)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._rebind(ns, key, original, wrapper)
        for key, module, attr in counters:
            original = getattr(module, attr)
            self._rebind(module, attr, original, self.counter(key, original))

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -------------------------------------------------------------- output

    def dump(self, path: str, meta: dict | None = None):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op",
                                  "thread", "counts"],
                       "meta": meta or {}, "spans": self.spans}, fh,
                      separators=(",", ":"))

    def merge_file(self, path: str, op_id, **totals):
        """Append the spans another process dumped to ``path``, as op ``op_id``.

        The file's ``meta`` numbers and ``totals`` are added to ``self.totals``.
        """
        with open(path) as fh:
            data = json.load(fh)
        os.remove(path)
        offset = len(self.spans)
        for rec in data["spans"]:
            if rec[PARENT] is not None:
                rec[PARENT] += offset
            rec[OP] = op_id
            self.spans.append(rec)
        for key, value in list(data["meta"].items()) + list(totals.items()):
            self.totals[key] = self.totals.get(key, 0.0) + value


class _OpSpan:
    def __init__(self, tracer: Tracer, op_id):
        self.tracer, self.op_id = tracer, op_id

    def __enter__(self):
        self.tracer._op = self.op_id
        self.sid = self.tracer.open("op")
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.sid)
        self.tracer._op = None
        return False


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus what its children cover.

    Children may overlap (spans from worker threads), so the covered part
    is the union of their intervals, clipped to the parent.
    """
    children: dict[int, list] = {}
    for rec in spans:
        if rec[PARENT] is not None:
            children.setdefault(rec[PARENT], []).append((rec[START], rec[END]))
    out = []
    for sid, rec in enumerate(spans):
        dur = rec[END] - rec[START]
        kids = children.get(sid)
        out.append(dur - covered(kids, rec[START], rec[END]) if kids else dur)
    return out


def subtree_counts(spans, key: str) -> list[float]:
    """Counter ``key`` summed over each span and all of its descendants."""
    totals = [float((rec[COUNTS] or {}).get(key, 0)) for rec in spans]
    # a child is always recorded after its parent, so one reverse pass
    # pushes every subtotal up to the root
    for sid in range(len(spans) - 1, -1, -1):
        parent = spans[sid][PARENT]
        if parent is not None:
            totals[parent] += totals[sid]
    return totals
