"""Span tracing of gptsim's layers from outside the package.

A ``Tracer`` wraps every public function of each layer module in a
recording wrapper and, while installed, puts the wrapper at every place a
caller looks the function up: the module's own attribute (which also
serves calls inside the module, through its globals) and every other
gptsim module or package attribute bound to the same object, such as
``transition.solve_nonneg`` or the re-exports in ``gptsim/__init__``.
Nothing in the package changes, and uninstalling restores the originals.
Spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

LAYERS = ("models", "transition", "simplex", "rules", "steering",
          "signaling", "cli")


class Tracer:
    def __init__(self, package: str = "gptsim"):
        self.names = ["op"]   # span name table; 0 is the op's root span
        self.spans = []       # (name id, start ns, end ns, parent, op)
        self.stack = []
        self.op = -1
        self.patches = []     # (namespace, attribute, original, wrapper)
        namespaces = [m for n, m in sys.modules.items()
                      if n == package or n.startswith(package + ".")]
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or isinstance(fn, type)
                        or not callable(fn)
                        or getattr(fn, "__module__", None) != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for namespace in namespaces:
                    for name, value in vars(namespace).items():
                        if value is fn:
                            self.patches.append((namespace, name, fn, wrapper))

    @contextlib.contextmanager
    def installed(self, on: bool = True):
        """Wrappers in place for the duration (when ``on``)."""
        if not on:
            yield
            return
        for namespace, name, _, wrapper in self.patches:
            setattr(namespace, name, wrapper)
        try:
            yield
        finally:
            for namespace, name, fn, _ in self.patches:
                setattr(namespace, name, fn)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # outside an op, e.g. building its input
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op)

        return wrapper

    def begin_op(self, op: int) -> None:
        self.op = op
        self.stack.append(len(self.spans))
        self.spans.append((0, time.perf_counter_ns(), None, -1, op))

    def end_op(self) -> None:
        index = self.stack.pop()
        _, start, _, parent, op = self.spans[index]
        self.spans[index] = (0, start, time.perf_counter_ns(), parent, op)

    def profile(self, count_ops: int) -> dict:
        """{span name: [calls in ops below count_ops, calls, self ns]} for
        every wrapped function, reached or not. Self time is a span's
        duration minus its children's."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = {name: [0, 0, 0] for name in self.names}
        for index, (name_id, start, end, _, op) in enumerate(self.spans):
            row = totals[self.names[name_id]]
            row[0] += op < count_ops
            row[1] += 1
            row[2] += end - start - child_ns[index]
        return totals

    def write(self, path: str) -> None:
        """One JSON line per span: [name, start ns, end ns, parent, op]."""
        with open(path, "w") as fh:
            for name_id, start, end, parent, op in self.spans:
                fh.write(json.dumps([self.names[name_id], start, end, parent,
                                     op]) + "\n")
