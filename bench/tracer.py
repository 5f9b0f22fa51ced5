"""Outside-in tracing: wrap public functions of invarbin, record spans.

A :class:`Tracer` swaps each traced function for a wrapper at every module
attribute that holds it (``fit_ols`` is looked up as ``bimp.fit_ols``,
``invariance.fit_ols`` and ``regression.fit_ols``, so all three names are
rebound), records one span per call and restores the originals on exit.
Spans live in memory as ``(name, start, end, parent, op)`` tuples; ``parent``
is the index of the enclosing span (-1 at top level) and ``op`` the index of
the benchmark operation that caused the call.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.ops: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._child: list[float] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def begin_op(self, label: str) -> None:
        self.ops.append(label)
        self._op = len(self.ops) - 1

    def call(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._child.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            children = self._child.pop()
            duration = end - start
            parent = self._stack[-1] if self._stack else -1
            if self._stack:
                self._child[-1] += duration
            self.spans[index] = (name, start, end, parent, self._op)
            self.calls[name] += 1
            self.inclusive[name] += duration
            self.self_time[name] += duration - children

    # -- patching --------------------------------------------------------------

    def wrap(self, name: str, owner, attr: str, on_result=None) -> None:
        """Trace ``owner.attr`` under ``name`` at every binding of it.

        Functions are rebound in every loaded ``invarbin`` module that holds
        the same object; a method (``owner`` a class) is rebound on the
        class.  ``on_result(result, args, kwargs)`` feeds counters.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.call(name, original, args, kwargs)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        holders = [owner] if isinstance(owner, type) else _holders(owner)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, key, value))
                    setattr(holder, key, traced)

    def unwrap(self) -> None:
        for holder, key, value in reversed(self._patches):
            setattr(holder, key, value)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.unwrap()
        return False


def _holders(owner) -> list:
    """``owner`` plus every loaded invarbin module."""
    mods = [owner]
    for mod_name, mod in list(sys.modules.items()):
        if mod is owner or mod is None:
            continue
        if mod_name == "invarbin" or mod_name.startswith("invarbin."):
            mods.append(mod)
    return mods
