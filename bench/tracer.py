"""Span tracing of grpsel from outside the library.

Each public function is replaced, in the module namespace where callers look
it up, by a wrapper that records a span: its name (``layer.function``), its
duration and the span that was open when it started (its parent).  Spans are
not kept one per call (composite MCP makes millions of kernel calls); they
are folded into one aggregate per (name, parent name) holding the call
count, the total time and the self time, which is the duration minus the
time covered by child spans.  ``Tracer.restore`` puts every original back.
"""

import functools
import importlib
import time


class Tracer:
    def __init__(self):
        self.agg = {}  # (name, parent) -> [calls, total_s, self_s]
        self.counts = {}  # name -> number, fed by result hooks
        self.first = {}  # name -> duration of the first call seen
        self._stack = [["<root>", 0.0]]  # [name, time spent in child spans]
        self._patched = []

    def reset(self):
        """Start a new repetition: clear the aggregates, keep the patches."""
        self.agg.clear()
        self.counts.clear()

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, name, on_result=None):
        """Return ``fn`` wrapped in a span.

        ``name`` is a string or a callable ``(args, kwargs) -> str``;
        ``on_result(tracer, args, kwargs, result)`` runs after the call,
        outside the timed interval, to record counts.
        """
        stack = self._stack
        agg = self.agg
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(args, kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                key = (span, parent[0])
                slot = agg.get(key)
                if slot is None:
                    agg[key] = [1, elapsed, elapsed - frame[1]]
                    if span not in self.first:
                        self.first[span] = elapsed
                else:
                    slot[0] += 1
                    slot[1] += elapsed
                    slot[2] += elapsed - frame[1]
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    def patch(self, target, attr, name, on_result=None):
        """Replace ``target.attr`` (``target`` a module path or an object)."""
        owner = importlib.import_module(target) if isinstance(target, str) else target
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, on_result))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # --- queries over the aggregates of one repetition -------------------

    def total(self, name, parent=None):
        return sum(v[1] for (s, p), v in self.agg.items()
                   if s == name and (parent is None or p == parent))

    def calls(self, name, parent=None):
        return sum(v[0] for (s, p), v in self.agg.items()
                   if s == name and (parent is None or p == parent))

    def self_time(self, name):
        return sum(v[2] for (s, _), v in self.agg.items() if s == name)

    def layer_self(self):
        """Self time summed per layer (the span-name prefix before the dot)."""
        out = {}
        for (span, _), v in self.agg.items():
            layer = span.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + v[2]
        return out
