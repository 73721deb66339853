"""In-memory span tracer for the benchmark's traced run.

The tracer times calls into each simulator layer from outside: it
replaces a layer's entry points (class attributes) with wrappers that
open a span, call the original, and close the span.  Nothing inside the
simulator is changed, so the wrappers have to be installed *before* any
world is built — several layers bind methods such as
``MemoryHierarchy.access_line`` into closures at construction time.

Every span carries its layer, its parent span and an op id (the root
call it runs under: one ``am_pingpong`` or one ``ChainKV`` operation).
Per-layer totals (calls, inclusive time, self time = span time minus the
time of the spans nested directly in it) are kept for every span; the
span records themselves are kept in memory up to a cap and written out
when the benchmark ends.

Generator entry points (simulation process bodies such as
``Connection.send_jam``) run in slices, each resumed by the DES kernel;
each slice is a span of its own, nested under whatever span resumed it.
"""

from __future__ import annotations

import json
import time

clock = time.perf_counter_ns
#: Span records kept in memory (and written out); totals count every span.
SPAN_CAP = 200_000


class Tracer:
    """Per-layer span accounting; ``enabled`` switches recording on/off.

    While disabled the wrappers stay installed but only forward the call
    (one attribute test); that is the state during set-up.  The baseline
    the overhead figure is taken against is a separate process that
    installs no wrappers at all.
    """

    def __init__(self, layers: list[str]):
        self.layers = list(layers)
        self.index = {name: i for i, name in enumerate(self.layers)}
        n = len(self.layers)
        self.self_ns = [0] * n
        self.total_ns = [0] * n
        self.calls = [0] * n
        self.tally: dict[str, int] = {}
        # frame = [span id, ns covered by child spans]; the bottom frame
        # is a sentinel that absorbs root spans' durations.
        self.stack: list[list[int]] = [[-1, 0]]
        self.spans: list[tuple] = []
        self.nspans = 0
        self.op = 0
        self.op_labels: dict[int, str] = {}
        # self ns per layer, split by the label of the op they ran under
        self.label_self_ns: dict[str, list[int]] = {}
        self._label = ""
        self._label_ns = self._label_row("")
        self.enabled = False

    # -- accounting ---------------------------------------------------------

    def _label_row(self, label: str) -> list[int]:
        return self.label_self_ns.setdefault(label, [0] * len(self.layers))

    def set_label(self, label: str) -> None:
        """Label the root ops that start from now on (e.g. "stash-64")."""
        self._label = label
        self._label_ns = self._label_row(label)

    def reset_totals(self) -> None:
        n = len(self.layers)
        self.self_ns = [0] * n
        self.total_ns = [0] * n
        self.calls = [0] * n
        self.tally = {}
        self.label_self_ns = {}
        self._label_ns = self._label_row(self._label)
        self.stack[0][1] = 0

    def root_ns(self) -> int:
        """Total duration of root spans since the last reset."""
        return self.stack[0][1]

    def snapshot(self) -> dict:
        return {name: {"calls": self.calls[i], "self_ns": self.self_ns[i],
                       "total_ns": self.total_ns[i]}
                for i, name in enumerate(self.layers)}

    def _enter(self) -> list[int]:
        sid = self.nspans
        self.nspans = sid + 1
        if len(self.stack) == 1:
            self.op += 1
            self.op_labels[self.op] = self._label
        frame = [sid, 0]
        self.stack.append(frame)
        return frame

    def _exit(self, layer: int, frame: list[int], t0: int, t1: int) -> None:
        stack = self.stack
        stack.pop()
        dur = t1 - t0
        own = dur - frame[1]
        self.self_ns[layer] += own
        self._label_ns[layer] += own
        self.total_ns[layer] += dur
        self.calls[layer] += 1
        parent = stack[-1]
        parent[1] += dur
        if frame[0] < SPAN_CAP:
            self.spans.append((layer, parent[0], self.op, frame[0], t0, t1))

    # -- wrappers -----------------------------------------------------------

    def wrap_call(self, fn, layer: str, tally=None):
        """Wrap a plain function.  ``tally(counts, args, kwargs)`` adds
        exact counts observed at the call boundary to ``self.tally``."""
        li = self.index[layer]
        enter, exit_ = self._enter, self._exit

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if tally is not None:
                tally(self.tally, args, kwargs)
            frame = enter()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(li, frame, t0, clock())

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_gen(self, fn, layer: str, tally=None):
        """Wrap a generator function: every resume is one span; ``tally``
        as for :meth:`wrap_call`, applied when the generator is made."""
        li = self.index[layer]

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not self.enabled:
                return gen
            if tally is not None:
                tally(self.tally, args, kwargs)
            return self._drive(gen, li)

        wrapper.__wrapped__ = fn
        return wrapper

    def _drive(self, gen, li: int):
        # The DES only ever send()s into process bodies.
        enter, exit_, send = self._enter, self._exit, gen.send
        value = None
        while True:
            frame = enter()
            t0 = clock()
            try:
                yielded = send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                exit_(li, frame, t0, clock())
            value = yield yielded

    @staticmethod
    def patch(owner, name: str, wrapper_factory, layer: str, **kw) -> None:
        """Replace ``owner.name`` (a class or module attribute) for the
        rest of the process."""
        setattr(owner, name, wrapper_factory(owner.__dict__[name], layer,
                                             **kw))

    # -- output -------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """JSON lines: one header object, then one span per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"layers": self.layers,
                                 "spans_recorded": len(self.spans),
                                 "spans_total": self.nspans,
                                 "ops": self.op_labels}) + "\n")
            for layer, parent, op, sid, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "layer": self.layers[layer],
                                     "t0_ns": t0, "t1_ns": t1}) + "\n")

