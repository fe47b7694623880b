"""Spans around every public proxlab call, installed from outside the program.

`Tracer.install` replaces each public module-level function and each public
method or property of a public class with a wrapper that opens a span (layer,
name, start, parent) and closes it on return.  Names that other modules
re-imported (``from .resolvent import protoresolvent``) are replaced as well,
so a call is traced whichever module it is made from.  Closed spans are folded
into per-layer totals at once: the span stack carries the parent links, and a
layer's self time is its span time minus the time of its child spans.

Spans are counted only while `active` is set, so the caller can keep its own
use of proxlab (building inputs, checking outputs) out of the figures.  A
hook runs with the tracer inactive, and its time is taken out of the
enclosing spans, so the hooks' own work lands in no layer.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("numerics", "legendre", "operators", "resolvent", "reference", "algorithms", "cli")
# `checks` only orchestrates calls measured under resolvent and reference;
# `errors` holds exception types only.
UNTRACED = ("checks", "errors")


class Tracer:
    def __init__(self):
        self.active = False                # count spans only while set
        self.stack = []                    # open spans, innermost last: [child_s, excluded_s]
        self.self_s = defaultdict(float)   # layer -> self seconds
        self.calls = Counter()             # (layer, name) -> closed spans
        self.hooks = {}                    # (layer, name) -> fn(args, kwargs, result, seconds)
        self._undo = []

    #  installation

    def _modules(self):
        mods = {"__init__": importlib.import_module("proxlab")}
        for name in LAYERS + UNTRACED:
            mods[name] = importlib.import_module(f"proxlab.{name}")
        return mods

    def _wrap(self, layer, name, fn):
        key = (layer, name)
        stack, self_s, calls, hooks = self.stack, self.self_s, self.calls, self.hooks

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                # span time net of the hooks run inside it
                seconds = perf_counter() - start - frame[1]
                stack.pop()
                self_s[layer] += seconds - frame[0]
                calls[key] += 1
                if stack:
                    stack[-1][0] += seconds
                    stack[-1][1] += frame[1]
            hook = hooks.get(key)
            if hook is not None:
                h0 = perf_counter()
                self.active = False
                try:
                    hook(args, kwargs, result, seconds)
                finally:
                    self.active = True
                if stack:
                    stack[-1][1] += perf_counter() - h0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        mods = self._modules()
        replaced = {}
        for layer in LAYERS:
            mod = mods[layer]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(layer, name, obj))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    setattr(mod, name, replaced[id(obj)][1])
                    self._undo.append((mod, name, obj))
        return self

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, property) and raw.fget is not None:
                new = property(self._wrap(layer, attr, raw.fget), raw.fset, raw.fdel, raw.__doc__)
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(layer, attr, raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(layer, attr, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(layer, attr, raw)
            else:
                continue
            setattr(cls, attr, new)
            self._undo.append((cls, attr, raw))

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    #  readings

    def layer_calls(self, layer, name=None) -> int:
        return sum(n for (lay, nm), n in self.calls.items()
                   if lay == layer and (name is None or nm == name))
