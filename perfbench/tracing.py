"""Spans and memory peaks recorded from outside the library.

`Recorder` swaps library functions for timing wrappers at the places their
callers look them up at call time (module attributes), records one span per
call (name, start, end, parent, attributes) in memory, and puts every
original back on exit. The wrappers pass arguments and results through
untouched, so a traced run trains the same bytes as an untraced one; the
benchmark checks that.

`MemoryProbe` wraps train_step, its block phases and evaluate to read
`tracemalloc` peaks, in passes of their own, because tracking allocations
slows every call.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import tracemalloc

# span names of the four phases of a hidden block, as called by train_step
PHASES = {
    "layers.block_forward": "forward",
    "losses.local_block_loss": "local_loss",
    "layers.block_local_backward": "backward",
    "layers.block_backward": "backward",
    "layers.update_params": "update",
}


def span_name(fn) -> str:
    """`<module>.<function>` of the module that defines fn."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


# a block's local-loss head tensors, which local_block_loss receives by
# name instead of the block
HEADS = ("cls_w", "sim_w", "proj")


def block_labels(net) -> dict:
    """id of each block, of its head tensors and of the output layer ->
    label (block index, or "out")."""
    labels = {id(net.out): "out"}
    for k, block in enumerate(net.blocks):
        labels[id(block)] = k
        for name in HEADS:
            tensor = getattr(block, name)
            if tensor is not None:
                labels[id(tensor)] = k
    return labels


def block_of(labels: dict, args, kwargs):
    """Label of the block a phase call works on: its first argument for the
    block functions and update_params, its head tensors for
    local_block_loss; None for a call outside the labelled net."""
    if args and id(args[0]) in labels:
        return labels[id(args[0])]
    for name in HEADS:
        tensor = kwargs.get(name)
        if tensor is not None and id(tensor) in labels:
            return labels[id(tensor)]
    return None


class Patcher:
    """Installs wrappers as module attributes and restores the originals."""

    def __init__(self):
        self._saved = []

    def patch(self, owner, attr, make_wrapper):
        if any(o is owner and a == attr for o, a, _ in self._saved):
            return  # wrapping a wrapper would record every call twice
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make_wrapper(original))
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "ok")

    def __init__(self, name, start, parent, attrs):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs
        self.ok = False

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder(Patcher):
    """Records a span for every call of the functions passed to `wrap`.

    `attrs(recorder, args, kwargs)` runs before the call, outside the span,
    and returns what the metrics need from the arguments (flop counts,
    which block, batch size).
    """

    def __init__(self):
        super().__init__()
        self.spans: list = []
        self.labels: dict = {}
        self._stack: list = []

    def wrap(self, owner, attr, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(original):
            name = span_name(original)

            def wrapper(*args, **kwargs):
                info = attrs(self, args, kwargs) if attrs else None
                span = Span(name, 0.0, stack[-1] if stack else None, info)
                spans.append(span)
                stack.append(span)
                span.start = clock()
                try:
                    result = original(*args, **kwargs)
                    span.ok = True
                    return result
                finally:
                    span.end = clock()
                    stack.pop()

            return wrapper

        self.patch(owner, attr, make)


def write_spans(spans: list, path) -> None:
    """One JSON object per line: name, start, end (perf_counter seconds),
    parent (line index, -1 at the top) and the recorded attributes."""
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w") as f:
        for s in spans:
            parent = index[id(s.parent)] if s.parent is not None else -1
            row = {"name": s.name, "start": s.start, "end": s.end, "parent": parent, "attrs": s.attrs}
            f.write(json.dumps(row, default=str) + "\n")


class MemoryProbe(Patcher):
    """Peak traced bytes above the step-start (or evaluate-start) baseline,
    for each train_step, each evaluate and each block phase, while
    tracemalloc runs (see `tracking`).

    Phases run one after another inside a step, so resetting the peak at
    each phase start gives every phase its own peak; the step's peak is the
    largest of all the segments.
    """

    def __init__(self):
        super().__init__()
        self.step_peaks: list = []
        self.eval_peaks: list = []
        self.phase_peaks: dict = {}
        self._base = None
        self._max = 0
        self._labels: dict = {}

    def watch_training(self, trainer) -> "MemoryProbe":
        self.patch(trainer, "train_step", self._step)
        for attr in ("block_forward", "local_block_loss", "block_local_backward", "block_backward", "update_params"):
            self.patch(trainer, attr, self._phase)
        return self

    def watch_evaluate(self, owner) -> "MemoryProbe":
        """Wrap `evaluate` as owner (trainer, or cli for `locallearn eval`)
        looks it up."""
        self.patch(owner, "evaluate", self._evaluate)
        return self

    @contextlib.contextmanager
    def tracking(self):
        """tracemalloc on and the wrappers installed, for one with-block."""
        tracemalloc.start()
        try:
            with self:
                yield self
        finally:
            tracemalloc.stop()

    def _step(self, original):
        def wrapper(net, *args, **kwargs):
            self._labels = block_labels(net)
            self._base = tracemalloc.get_traced_memory()[0]
            self._max = self._base
            tracemalloc.reset_peak()
            try:
                return original(net, *args, **kwargs)
            finally:
                self._max = max(self._max, tracemalloc.get_traced_memory()[1])
                self.step_peaks.append(self._max - self._base)
                self._base = None

        return wrapper

    def _evaluate(self, original):
        def wrapper(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return original(*args, **kwargs)
            finally:
                self.eval_peaks.append(tracemalloc.get_traced_memory()[1] - base)

        return wrapper

    def _phase(self, original):
        def wrapper(*args, **kwargs):
            if self._base is None:  # eval-mode forward, outside any step
                return original(*args, **kwargs)
            label = block_of(self._labels, args, kwargs)
            self._max = max(self._max, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            try:
                return original(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                self._max = max(self._max, peak)
                self.phase_peaks[label] = max(self.phase_peaks.get(label, 0), peak - self._base)

        return wrapper
