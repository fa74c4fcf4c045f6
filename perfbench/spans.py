"""Span tracer that times calls into the program from outside it.

The tracer replaces a module attribute, or a callable field of a frozen
dataclass, with a wrapper that times each call.  Spans nest through a
stack: a layer's self time is the duration of its spans minus the time of
the spans opened inside them.  Only per-layer totals are kept, so tracing a
study of a million calls costs no memory per call.

Counting hooks run after the wrapped call returns.  Their time is charged
to no layer's self time, but it still lies inside the enclosing spans, so
it shows in the trace's overhead and not as work of the program.
"""

from __future__ import annotations

import dataclasses
import inspect
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Per-layer self time, per-layer counts and top-level span time."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.top_level_s = 0.0
        self.missing = defaultdict(list)
        self._child_s = []

    def wrap(self, layer, fn, hook=None):
        """Return ``fn`` timed as a span of ``layer``.

        ``hook(counts, args, kwargs, result, child_s)`` runs after a call
        that returned; ``child_s`` is the time of the spans nested in it.
        """
        stack = self._child_s
        self_s = self.self_s
        counts = self.counts

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            busy = None
            try:
                result = fn(*args, **kwargs)
                busy = perf_counter() - start
                if hook is not None:
                    hook(counts, args, kwargs, result, stack[-1])
                return result
            finally:
                extent = perf_counter() - start
                if busy is None:
                    busy = extent
                self_s[layer] += busy - stack.pop()
                if stack:
                    stack[-1] += extent
                else:
                    self.top_level_s += extent

        traced.__wrapped__ = fn
        return traced

    def patch(self, layer, owner, attr, hook_for=None):
        """Wrap ``owner.attr`` in place.

        ``hook_for(fn)`` builds the counting hook for the original callable
        and raises ``ValueError`` when ``fn`` lacks a parameter it reads.
        An absent attribute, or such a mismatch, marks the layer missing
        instead of recording zeros.
        """
        fn = getattr(owner, attr, None)
        label = f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"
        try:
            if fn is None:
                raise ValueError(label)
            hook = hook_for(fn) if hook_for is not None else None
        except ValueError:
            self.missing[layer].append(label)
            return
        setattr(owner, attr, self.wrap(layer, fn, hook))

    def wrap_fields(self, obj, fields):
        """Copy of a frozen dataclass with its callable fields traced.

        ``fields`` maps a field name to ``(layer, hook)``.
        """
        changes = {}
        for name, (layer, hook) in fields.items():
            fn = getattr(obj, name, None)
            if fn is None:
                self.missing[layer].append(f"{type(obj).__name__}.{name}")
            else:
                changes[name] = self.wrap(layer, fn, hook)
        return dataclasses.replace(obj, **changes)


def arg_getter(fn, name):
    """Read argument ``name`` of a call to ``fn``, by position or keyword.

    Raises ``ValueError`` when ``fn`` has no parameter of that name.
    """
    params = list(inspect.signature(fn).parameters)
    index = params.index(name)

    def get(args, kwargs):
        return args[index] if index < len(args) else kwargs[name]

    return get
