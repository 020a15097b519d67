"""In-memory span tracer that wraps functions where their callers look them up.

Installing a target replaces every binding of the target function (a module
global in any of the given modules, or a method in its class) with a wrapper
that records a span and then calls the original.  Spans live in flat arrays,
each with its parent and the request (root span) it belongs to; they are
summarised and written out only when the run ends.  ``uninstall`` puts every
original back.  A target whose module or attribute no longer exists is
skipped and later reads as zero calls.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

#: Attribute set on every wrapper, so that leftovers can be found.
WRAPPER_MARK = "__perfbench_wrapper__"


@dataclass(frozen=True)
class Target:
    """A function to trace: ``module`` and ``qualname`` name its definition
    (``"Class.method"`` for a method).  ``name_of(args, kwargs)`` may pick the
    span name per call; ``before`` runs ahead of the call and its result is
    handed to ``hook(counters, args, kwargs, result, before_state)``."""

    layer: str
    name: str
    module: str
    qualname: str
    name_of: Callable | None = None
    before: Callable | None = None
    hook: Callable | None = None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.labels: list[tuple[str, str]] = []     # label id -> (layer, name)
        self._label_ids: dict[tuple[str, str], int] = {}
        self.label = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.missing: list[Target] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def open(self, layer: str, name: str) -> int:
        key = (layer, name)
        lid = self._label_ids.get(key)
        if lid is None:
            lid = self._label_ids[key] = len(self.labels)
            self.labels.append(key)
        i = len(self.start)
        parent = self._stack[-1] if self._stack else -1
        self.label.append(lid)
        self.parent.append(parent)
        self.root.append(self.root[parent] if parent >= 0 else i)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own."""
        i = self.open(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(i)

    def spans(self):
        """(layer, name, start, end, parent, root) for every span."""
        for i in range(len(self.start)):
            layer, name = self.labels[self.label[i]]
            yield layer, name, self.start[i], self.end[i], self.parent[i], self.root[i]

    def write(self, path) -> None:
        """Write every span as gzipped tab-separated text."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\troot\tlayer\tname\tstart\tend\n")
            for i, (layer, name, start, end, parent, root) in enumerate(self.spans()):
                out.write(f"{i}\t{parent}\t{root}\t{layer}\t{name}\t{start:.9f}\t{end:.9f}\n")

    # -- wrapping ---------------------------------------------------------

    def install(self, targets, module_names) -> None:
        modules = [importlib.import_module(m) for m in module_names]
        for target in targets:
            found = _resolve(target)
            if found is None:
                self.missing.append(target)
                continue
            owner, attr, original = found
            wrapper = self._wrapper(target, original)
            if isinstance(owner, type):
                bindings = [(owner, attr)]
            else:
                bindings = [(m, n) for m in modules for n, v in list(vars(m).items())
                            if v is original]
            for where, name in bindings:
                setattr(where, name, wrapper)
                self._patched.append((where, name, original))

    def uninstall(self) -> None:
        while self._patched:
            where, name, original = self._patched.pop()
            setattr(where, name, original)

    def _wrapper(self, target: Target, original):
        tracer = self
        layer, name, name_of = target.layer, target.name, target.name_of
        before, hook = target.before, target.hook

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name_of(args, kwargs) if name_of else name
            i = tracer.open(layer, span_name)
            try:
                state = tracer._safely(before, args, kwargs) if before else None
                result = original(*args, **kwargs)
                if hook:
                    tracer._safely(hook, tracer.counters, args, kwargs, result, state)
                return result
            finally:
                tracer.close(i)

        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    def _safely(self, fn, *args):
        # A counter that no longer fits the program must not change its answers.
        try:
            return fn(*args)
        except Exception:
            self.counters["trace.hook_errors"] += 1
            return None


def _resolve(target: Target):
    """(owner, attribute, original function), or None if it no longer exists."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, attr = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


def leftover_wrappers(module_names) -> list[str]:
    """Names in the given modules, or in their classes, still bound to a wrapper."""
    found = []
    for module_name in module_names:
        module = importlib.import_module(module_name)
        for name, value in list(vars(module).items()):
            if getattr(value, WRAPPER_MARK, False):
                found.append(f"{module_name}.{name}")
            if isinstance(value, type) and value.__module__ == module_name:
                for attr, member in vars(value).items():
                    if getattr(member, WRAPPER_MARK, False):
                        found.append(f"{module_name}.{name}.{attr}")
    return found


def self_times(layers, start, end, parent) -> dict[str, float]:
    """Per-layer self time: each span's duration minus the part of it that its
    child spans cover, summed over the layer's spans.

    The four sequences are indexed by span; ``parent`` holds the index of the
    enclosing span or -1.  Children of one span are taken not to overlap each
    other, which holds for single-threaded nesting.
    """
    covered = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += max(0.0, min(end[i], end[p]) - max(start[i], start[p]))
    totals: defaultdict[str, float] = defaultdict(float)
    for i, layer in enumerate(layers):
        totals[layer] += (end[i] - start[i]) - covered[i]
    return dict(totals)
