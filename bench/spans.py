"""Span tracing of calls into the spechtdesigns modules, from outside them.

`Tracer.install()` replaces every public function of each layer module by a
timing wrapper, in every module namespace that binds it: the modules import
names from each other directly, so `h1.rank_fp_prefix` and
`linalg.rank_fp_prefix` are two bindings of one function and both must be
wrapped. `uninstall()` puts the originals back, so untraced passes run the
program unchanged.

A span is one row (span id, parent span id, op id, name index, start ns,
end ns). Spans are kept in memory in one flat int64 array and written out
once, at the end of the run. Self time is a span's duration minus the
durations of its direct children; the process is single-threaded, so
children never overlap and the subtraction is exact.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "spechtdesigns"
LAYERS = ("numtheory", "linalg", "tabloid", "designs", "hemmer", "h1", "cli")


class Tracer:
    def __init__(self, hooks=None):
        """hooks maps a span name to hook(counts, args, kwargs, result), called
        after each traced call of that function to add to the counters."""
        self.hooks = dict(hooks or {})
        self.names: list[str] = []
        self.spans = array("q")
        self.counts: dict[str, int] = defaultdict(int)
        self.op = 0
        self._stack = [0]
        self._next_id = 1
        self._wrappers: dict[int, object] | None = None
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        hook = self.hooks.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.extend((sid, parent, self.op, idx, t0, t1))
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def _build(self) -> dict[int, object]:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if callable(fn) and not inspect.isclass(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        return wrappers

    def install(self) -> None:
        """Wrap every binding of a layer's public functions."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        if self._wrappers is None:
            self._wrappers = self._build()
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, val in list(vars(mod).items()):
                w = self._wrappers.get(id(val))
                if w is not None:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, val in self._saved:
            setattr(mod, attr, val)
        self._saved.clear()

    def table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 6)

    def self_times(self, first_row: int = 0) -> dict[str, float]:
        """Seconds of self time per span name, over the spans from row first_row on.

        Parents recorded before first_row lie outside the window and are
        ignored; the harness starts a window only between two CLI calls,
        where no span is open.
        """
        t = self.table()[first_row:]
        out = dict.fromkeys(self.names, 0.0)
        if not len(t):
            return out
        sid, parent, name, dur = t[:, 0], t[:, 1], t[:, 3], t[:, 5] - t[:, 4]
        base = int(sid.min())
        rel = parent - base
        inside = rel >= 0
        child = np.bincount(rel[inside], weights=dur[inside], minlength=len(t))
        self_ns = dur - child[sid - base]
        per_name = np.bincount(name, weights=self_ns, minlength=len(self.names))
        for i, n in enumerate(self.names):
            out[n] = float(per_name[i]) / 1e9
        return out

    def save(self, path) -> None:
        """Write every span, with the table of span names, as an .npz file."""
        np.savez(path, spans=self.table(), names=np.array(self.names))
