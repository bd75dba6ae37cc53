"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's side: each traced function is
replaced, in every ``sncoint`` module namespace that holds it, by a
wrapper that records a span. Calls inside the package resolve names
through those namespaces at call time, so a call from ``bootstrap`` into
``estimators.im_ols`` is seen, and so is a call from one function of
``estimators`` into another. Nothing in the package itself changes.

A span is ``[name_id, parent_index, op, start_ns, end_ns, raised]``. The
parent is the innermost traced call that was open when the span began;
``op`` is the index of the benchmark operation (one ``run_analysis``,
one ``bootstrap_test``, ...) the span belongs to, so all spans of one
operation share it. Self time is a span's duration minus the time its
direct children cover; calls never overlap within one process, so the
self times of all spans add up to the duration of the root spans.
"""

from __future__ import annotations

import functools
import sys
import time


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.op = -1
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = self._ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name_id, stack[-1] if stack else -1, self.op, clock(), 0, False]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                record[5] = True
                raise
            finally:
                record[4] = clock()
                stack.pop()

        return traced

    def install(self, targets) -> None:
        """Wrap each ``(span_name, owner, attribute)`` target.

        A module-level function is replaced wherever a ``sncoint`` module
        binds it; a class attribute (a method such as ``__init__``) is
        replaced on its class only.
        """
        modules = [
            mod for key, mod in list(sys.modules.items()) if key == "sncoint" or key.startswith("sncoint.")
        ]
        for name, owner, attr in targets:
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            for holder in [owner] if isinstance(owner, type) else modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()


def self_times(spans) -> list[int]:
    """Self time of each span in nanoseconds."""
    own = [end - start for _, _, _, start, end, _ in spans]
    for _, parent, _, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
