"""In-memory span tracer over edgediag's public functions and methods.

``Tracer.installed()`` replaces, for the duration of a ``with`` block,

* every public function defined in a traced module, in every loaded
  ``edgediag`` or ``perfbench`` module namespace that holds a reference to
  it (so the benchmark's own by-name imports, such as ``train_cloud``, are
  traced too), and
* every public method of the public classes defined there (inherited
  methods are wrapped once, on the class that defines them),

with a wrapper that records one span per call. Backward rules handed to
``tensor.custom_op`` are wrapped as well, so the time a tape replay
spends in each op's backward shows up as its own span. Nothing in the
package is edited; leaving the block restores every original.

A span is (name, start_ns, end_ns, parent index, step id, kind, model).
``kind`` is the layer kind of the benchmark's per-layer tables (conv3x3,
conv1x1, dwconv, pwconv, bn, relu, add, gap, dense) and ``model`` is
cloud or edge; spans without their own tag inherit their parent's, and
a backward span inherits the tags of the forward op that recorded it.
Spans stay in memory and are written out by :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager

TRACED_MODULES = ("tensor", "layers", "models", "losses", "training",
                  "datagen", "archive", "complexity")


def conv_kind(layer) -> str:
    """Per-layer kind of a Conv2dLayer: depthwise, pointwise, 1x1 or 3x3."""
    if layer.groups > 1 and layer.groups == layer.in_channels:
        return "dwconv"
    if layer.kernel == (1, 1):
        return "pwconv" if layer.name.endswith(".pw") else "conv1x1"
    return "conv3x3"


_FIXED_KINDS = {
    "layers.BatchNormLayer.forward": "bn",
    "layers.DenseLayer.forward": "dense",
    "layers.global_avg_pool": "gap",
    "tensor.relu": "relu",
    "tensor.add": "add",
}


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans: list = []      # [name, start, end, parent, step, kind, model]
        self._stack: list = []
        self.step = -1             # spans outside any step carry -1
        self.steps_begun = 0
        self._restore: list = []

    # --- recording --------------------------------------------------------

    def begin_step(self) -> None:
        """Spans from here to end_step() carry the next step id (0, 1, ...)."""
        self.step = self.steps_begun
        self.steps_begun += 1

    def end_step(self) -> None:
        self.step = -1

    def _open(self, name: str, kind, model) -> int:
        parent = self._stack[-1] if self._stack else -1
        if parent >= 0:
            p = self.spans[parent]
            kind = kind or p[5]
            model = model or p[6]
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.step, kind, model])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self
        fixed_kind = _FIXED_KINDS.get(name)
        is_conv = name == "layers.Conv2dLayer.forward"
        is_model = name.startswith("models.") and "." in name[len("models."):]
        is_custom_op = name == "tensor.custom_op"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            kind, model = fixed_kind, None
            if is_conv:
                kind = conv_kind(args[0])
            elif is_model and args and getattr(args[0], "kind", "") in ("cloud", "edge"):
                model = args[0].kind
            idx = tracer._open(name, kind, model)
            try:
                if is_custom_op:
                    args = tracer._wrap_backward(*args, **kwargs)
                    kwargs = {}
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return wrapper

    def _wrap_backward(self, op, inputs, out_data, backward_fn):
        """custom_op arguments with the backward rule wrapped in a span."""
        rec = self.spans[self._stack[-1]]
        kind, model = rec[5], rec[6]
        module = backward_fn.__module__.rpartition(".")[2]
        name = f"{module}.{op}.backward"
        tracer = self

        def traced_bwd(g):
            idx = tracer._open(name, kind, model)
            try:
                return backward_fn(g)
            finally:
                tracer._close(idx)

        return op, inputs, out_data, traced_bwd

    # --- installation -----------------------------------------------------

    @contextmanager
    def installed(self):
        mods = {n: importlib.import_module(f"edgediag.{n}") for n in TRACED_MODULES}
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and n.partition(".")[0] in ("edgediag", "perfbench")]
        try:
            replaced, seen = {}, set()
            for short, mod in mods.items():
                for attr, obj in list(vars(mod).items()):
                    if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                        continue
                    if inspect.isfunction(obj):
                        replaced[obj] = self._wrap(obj, f"{short}.{attr}")
                    elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                        self._wrap_class(short, obj, seen)
            for mod in namespaces:
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in replaced:
                        self._restore.append((mod, attr, obj))
                        setattr(mod, attr, replaced[obj])
            yield self
        finally:
            while self._restore:
                owner, attr, orig = self._restore.pop()
                setattr(owner, attr, orig)

    def _wrap_class(self, short: str, cls, seen: set) -> None:
        for klass in cls.__mro__:
            if klass.__module__ != cls.__module__:
                continue
            for attr, raw in list(vars(klass).items()):
                if attr.startswith("_") or (klass, attr) in seen:
                    continue
                name = f"{short}.{klass.__name__}.{attr}"
                if inspect.isfunction(raw):
                    new = self._wrap(raw, name)
                elif isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name))
                else:
                    continue
                seen.add((klass, attr))
                self._restore.append((klass, attr, raw))
                setattr(klass, attr, new)

    # --- analysis ---------------------------------------------------------

    def self_times(self) -> list:
        """Per span: duration minus the part its children cover, in ns."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def write(self, path) -> None:
        """One JSON array per line after a header line naming the fields."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "name", "start_ns", "end_ns", "parent", "step",
                                 "kind", "model"]) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, *s]) + "\n")
