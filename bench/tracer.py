"""In-process span tracer for the benchmark's per-layer metrics.

The tracer wraps public functions of the roadhmm modules by module
attribute while a traced run is active. Every call that goes through the
module namespace (``module.func(...)`` from another module, or a bare global
call inside the defining module) records a span: name, start, end, parent
span and run id. Spans stay in memory, in flat arrays, until ``save``. A
target that no longer exists is skipped and reported in ``absent``, so a
refactor that removes or renames a function does not break the benchmark.
Per-step functions (``filter_step``, ``likelihood_vector``) are left alone on
purpose: wrapping them would cost more than the work they do.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from contextlib import contextmanager
from typing import Callable

import numpy as np

#: counter(counts, bound arguments, result) adds to the run's counts
Counter = Callable[[dict, dict, object], None]


class Tracer:
    def __init__(self, targets):
        """``targets``: (module, attribute, counter or None) triples to wrap."""
        self.names: list[str] = []
        self.absent: list[str] = []
        self.uncounted: set[str] = set()
        self.counts: list[dict[str, float]] = []
        self._wrapped = []  # (module, attribute, original, wrapper)
        self._run = array("q")
        self._name = array("q")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._t0 = time.perf_counter()
        for module, attribute, counter in targets:
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attribute}"
            original = getattr(module, attribute, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(original, name, counter)
            self._wrapped.append((module, attribute, original, wrapper))

    def _wrap(self, fn, name: str, counter: Counter | None):
        name_id = len(self.names)
        self.names.append(name)
        runs, names, parents, starts, ends = self._run, self._name, self._parent, self._start, self._end
        stack, clock, t0 = self._stack, time.perf_counter, self._t0
        signature = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            runs.append(len(tracer.counts) - 1)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(span)
            starts.append(clock() - t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock() - t0
                stack.pop()
            if counter is not None:
                try:
                    counter(tracer.counts[-1], signature.bind(*args, **kwargs).arguments, result)
                except (TypeError, KeyError, AttributeError, IndexError):
                    tracer.uncounted.add(name)
            return result

        return traced

    @contextmanager
    def run(self):
        """Install the wrappers for one traced invocation; yields its run id."""
        self.counts.append({})
        for module, attribute, _, wrapper in self._wrapped:
            setattr(module, attribute, wrapper)
        try:
            yield len(self.counts) - 1
        finally:
            for module, attribute, original, _ in self._wrapped:
                setattr(module, attribute, original)

    def summary(self, run_id: int) -> dict[str, dict[str, float]]:
        """Per name: inclusive seconds ``s``, self seconds ``self_s``, ``calls``,
        and ``under_root_s``, the inclusive seconds of its calls made directly
        by a root span.

        Self time is a span's duration minus the durations of its direct
        child spans (calls are sequential, so children never overlap).
        """
        run, name, parent = (np.frombuffer(a, dtype=np.int64) for a in (self._run, self._name, self._parent))
        duration = np.frombuffer(self._end) - np.frombuffer(self._start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        grandparent = np.full_like(parent, -2)
        grandparent[nested] = parent[parent[nested]]
        mine = run == run_id
        top = mine & (grandparent == -1)
        k = len(self.names)
        inclusive = np.bincount(name[mine], weights=duration[mine], minlength=k)
        own = np.bincount(name[mine], weights=(duration - children)[mine], minlength=k)
        under_root = np.bincount(name[top], weights=duration[top], minlength=k)
        calls = np.bincount(name[mine], minlength=k)
        return {
            n: {"s": float(inclusive[i]), "self_s": float(own[i]), "calls": int(calls[i]),
                "under_root_s": float(under_root[i])}
            for i, n in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span: parallel arrays run, name (index into names), parent, start, end."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            run=np.frombuffer(self._run, dtype=np.int64),
            name=np.frombuffer(self._name, dtype=np.int64),
            parent=np.frombuffer(self._parent, dtype=np.int64),
            start_s=np.frombuffer(self._start),
            end_s=np.frombuffer(self._end),
        )


def nbytes(obj) -> int:
    """Bytes held in numpy arrays by ``obj``: an array, a sequence of them, or an object's array fields."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(nbytes(item) for item in obj)
    fields = getattr(obj, "__dict__", {})
    return sum(v.nbytes for v in fields.values() if isinstance(v, np.ndarray))
