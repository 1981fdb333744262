"""Outside-in span tracing: timing wrappers around the program's layers.

The benchmark never edits ``src/``.  Instead, for a traced run it replaces
each public function named in :data:`perfbench.layers.LAYERS` with a thin
wrapper that records a span ``(layer, name, start, end, parent)`` around
the original call:

* a module-level function is replaced *by identity* in every loaded
  ``repro.*`` namespace (and in the benchmark's own modules), so
  ``from x import f`` bindings are caught as well as ``x.f``;
* a method is replaced on the class that defines it.

Spans are kept in memory and summarised when the run ends.  A layer's
self time is the sum over its spans of the span's duration minus the
durations of its direct child spans.  Spans opened in a forked child
process are not recorded (the wrapper checks the owning pid).  When a
call returns a generator, each later ``next()`` on it gets a span of its
own, so the producer's work is charged to its layer and the consumer's
time between items is not.  Spans opened on other threads are kept but
marked, since they overlap the main thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time

#: Attribute set on every installed wrapper; the untraced guard looks for it.
MARKER = "__perfbench_span__"


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.recording = False
        self._owner = os.getpid()
        self._main = threading.main_thread()
        self._local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------ recording
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _active(self) -> bool:
        return self.recording and os.getpid() == self._owner

    def _in_layer(self, layer: str) -> bool:
        return any(self.spans[i][0] == layer for i in self._stack())

    def _open(self, layer: str, name: str):
        stack = self._stack()
        nested = self._in_layer(layer)
        span = [layer, name, time.perf_counter(), 0.0,
                stack[-1] if stack else None,
                threading.current_thread() is self._main, False]
        with self._lock:
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
        return span, nested

    def _close(self, span, failed: bool) -> None:
        span[3] = time.perf_counter()
        span[6] = failed
        self._stack().pop()

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # ------------------------------------------------------------- wrapping
    def _wrap(self, fn, layer: str, name: str, measure):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._active():
                return fn(*args, **kwargs)
            span, nested = tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(span, True)
                raise
            tracer._close(span, False)
            if measure is not None and not nested:
                measure(tracer, args, kwargs, result)
            if inspect.isgenerator(result):
                return tracer._iterate(result, layer, name)
            return result

        setattr(wrapper, MARKER, (layer, name))
        return wrapper

    def _iterate(self, iterator, layer: str, name: str):
        """Yield from ``iterator`` with one span around each ``next()``."""
        while True:
            if not self._active():
                yield from iterator
                return
            span, _ = self._open(layer, name)
            try:
                item = next(iterator)
            except StopIteration:
                self._close(span, False)
                return
            except BaseException:
                self._close(span, True)
                raise
            self._close(span, False)
            yield item

    def install(self, layers, extra_namespaces=()) -> None:
        """Wrap every target of ``layers``.

        ``layers`` maps a layer name to ``(module, attribute, measure)``
        triples; ``attribute`` is ``"func"`` or ``"Class.method"``.
        """
        for layer, targets in layers.items():
            for module_name, attribute, measure in targets:
                module = importlib.import_module(module_name)
                name = f"{module_name}:{attribute}"
                if "." in attribute:
                    cls_name, method = attribute.split(".")
                    cls = getattr(module, cls_name)
                    original = vars(cls)[method]
                    setattr(cls, method,
                            self._wrap(original, layer, name, measure))
                    continue
                original = getattr(module, attribute)
                wrapper = self._wrap(original, layer, name, measure)
                for namespace in _namespaces(extra_namespaces):
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, key, wrapper)

    # ------------------------------------------------------------- summary
    def self_times(self):
        """Per-span self time: duration minus direct children's durations."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            parent = span[4]
            if parent is not None:
                child_time[parent] += span[3] - span[2]
        return [
            (span, (span[3] - span[2]) - child_time[i])
            for i, span in enumerate(self.spans)
        ]


def _namespaces(extra):
    """Every loaded ``repro`` module plus the benchmark's own modules."""
    for name, module in list(sys.modules.items()):
        if module is None:
            continue
        if name == "repro" or name.startswith("repro.") or module in extra:
            yield module


def installed_wrappers(layers) -> list[str]:
    """Names of layer targets that currently hold a wrapper (guard check)."""
    found = []
    for targets in layers.values():
        for module_name, attribute, _ in targets:
            if "." in attribute:
                cls_name, method = attribute.split(".")
                module = sys.modules.get(module_name)
                cls = getattr(module, cls_name, None)
                if hasattr(vars(cls).get(method) if cls else None, MARKER):
                    found.append(f"{module_name}.{attribute}")
    for namespace in _namespaces(()):
        for key, value in list(vars(namespace).items()):
            if callable(value) and hasattr(value, MARKER):
                found.append(f"{namespace.__name__}.{key}")
    return sorted(set(found))
