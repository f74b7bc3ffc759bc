"""In-memory spans around calls into longctx's public functions.

The tracer patches function objects from the outside: every binding of a
function in a ``longctx`` module namespace (``from .tokenizer import
train_bpe`` makes one in ``longctx.cli``) is replaced by a wrapper that
records a span.  Nothing in ``src/`` is changed.  Spans stay in memory and
are written out once, when the traced command ends.
"""

from __future__ import annotations

import functools
import sys
import threading
import time


class Tracer:
    """Records (name, start, end, parent, thread, attrs) spans."""

    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, on_call=None, on_return=None):
        """A traced version of ``fn``.

        ``on_call(args, kwargs)`` and ``on_return(args, kwargs, result)``
        return dicts merged into the span's attributes.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = {"name": name, "parent": stack[-1] if stack else None,
                    "thread": threading.get_ident(), "attrs": {}}
            if on_call is not None:
                span["attrs"].update(on_call(args, kwargs))
            with tracer._lock:
                span["id"] = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                span["attrs"].update(on_return(args, kwargs, result))
            return result

        return traced

    def patch_function(self, fn, name: str, **hooks) -> None:
        """Replace every module-level binding of ``fn`` in longctx."""
        traced = self.wrap(fn, name, **hooks)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "longctx" or mod_name.startswith("longctx."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, traced)

    def patch_method(self, cls, attr: str, name: str, **hooks) -> None:
        setattr(cls, attr, self.wrap(cls.__dict__[attr], name, **hooks))


def self_seconds(span: dict, children: list[dict]) -> float:
    """Duration minus the part of it that the child spans cover.

    Children may overlap (worker threads), so their union is subtracted.
    """
    covered = 0.0
    cur_start = cur_end = None
    for child in sorted(children, key=lambda s: s["start"]):
        start = max(child["start"], span["start"])
        end = min(child["end"], span["end"])
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return (span["end"] - span["start"]) - covered
