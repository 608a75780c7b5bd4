"""Dense float32 tensors with reverse-mode automatic differentiation.

Values are stored as contiguous row-major float32 arrays. The engine's
own ops are ``add`` and ``relu``; the layers record their fused kernels
through :func:`custom_op`. Accumulating kernels (reductions, matrix
products) run their inner loops in float64 before rounding the result
back to float32, which keeps sums stable at edge-device storage
precision.

Differentiation is tape-based: while a :class:`Tape` is active, every
operation that touches a gradient-requiring tensor appends a node with a
backward rule. ``Tape.backward`` then replays the tape in reverse and can
return gradients for *any* recorded node, intermediates included, not
only leaf parameters. A replay runs only from the loss down to the
lowest requested target, so a pass that asks for an intermediate node
alone (a feature output, say) touches only the ops above it. The loss
may also be a weighted sum of several scalars, with the weights applied
in float64 at the seeds. A tape may be replayed any number of times;
replays are pure and return identical maps as long as nothing mutates
tensor data. Every consumer of a node has a higher id, so a node's
float64 gradient is complete when the replay reaches it; the replay
frees it once the node's rule has run, keeping only the targets'
gradients to the end.

A backward rule may return None for an input that does not require a
gradient (the layers and ``lmmd`` do). A target whose tensor has
``requires_grad=False`` therefore gets a zero gradient, like a target
that does not influence the loss.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "GradientMap",
    "ShapeError",
    "NonFiniteError",
    "TapeError",
    "custom_op",
    "recording",
    "label",
    "add",
    "relu",
    "grad_l2_norm",
]


class ShapeError(ValueError):
    """Operand shapes do not conform to an op's rule."""


class NonFiniteError(ArithmeticError):
    """A forward op produced NaN or Inf from finite inputs (overflow is an error)."""


class TapeError(RuntimeError):
    """Invalid use of the differentiation tape."""


ArrayLike = Union[np.ndarray, float, int, Sequence]


class Tensor:
    """N-dimensional float32 value, optionally attached to the active tape.

    ``node`` is the tensor's id on the tape identified by ``tape_id``;
    a tensor reused on a later tape (parameters are, every step) is
    re-registered there as a fresh leaf. Tensors are treated as immutable
    during a taped forward pass; the optimizer mutates parameter ``data``
    in place only between steps, after the step's tape has been discarded.
    """

    __slots__ = ("data", "requires_grad", "node", "tape_id")

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        arr = np.ascontiguousarray(data, dtype=np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.node: Optional[int] = None
        self.tape_id: int = -1

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={list(self.shape)}{grad})"


class _TapeEntry:
    """One recorded value: a leaf or the output of an op.

    ``name`` and ``layer`` are set by :func:`label` when the op belongs
    to a named part of a model (a layer, or a block's ReLU or join).
    """

    __slots__ = ("op", "inputs", "backward_fn", "shape", "name", "layer")

    def __init__(self, op, inputs, backward_fn, shape):
        self.op = op
        self.inputs = inputs          # tuple of node ids
        self.backward_fn = backward_fn  # fn(g: float64 array) -> per-input grads, or None for leaves
        self.shape = shape
        self.name = None
        self.layer = None


_active: Optional["Tape"] = None  # the tape ops record on, if any
_tape_ids = itertools.count(1)


class Tape:
    """Recording of one forward pass; one active tape per process.

    Append-only and topologically ordered by construction: an op's
    inputs always receive ids before its output.
    """

    def __init__(self):
        self.tape_id = next(_tape_ids)
        self.entries: list[_TapeEntry] = []

    def __enter__(self) -> "Tape":
        global _active
        if _active is not None:
            raise TapeError("a tape is already active")
        _active = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _active
        _active = None
        return False

    def __len__(self) -> int:
        return len(self.entries)

    def _register(self, t: Tensor) -> int:
        if t.tape_id == self.tape_id and t.node is not None:
            return t.node
        idx = len(self.entries)
        self.entries.append(_TapeEntry("leaf", (), None, t.data.shape))
        t.node = idx
        t.tape_id = self.tape_id
        return idx

    def _record(self, op: str, input_ids: tuple, out: Tensor, backward_fn) -> None:
        idx = len(self.entries)
        self.entries.append(_TapeEntry(op, input_ids, backward_fn, out.data.shape))
        out.node = idx
        out.tape_id = self.tape_id

    def backward(self, loss: Union[Tensor, Sequence[tuple]], targets: Iterable) -> "GradientMap":
        """Reverse-accumulate d(loss)/d(target) for every requested node.

        ``loss`` is a scalar Tensor, or a sequence of ``(scalar Tensor,
        weight)`` pairs standing for the weighted sum of those losses;
        each weight seeds its loss's node in float64. ``targets`` may mix
        Tensors and raw node ids. Targets that do not influence the loss
        receive zero gradients of matching shape. The replay stops at the
        lowest target id: no node below it can reach a target.
        """
        seeds = [(loss, 1.0)] if isinstance(loss, Tensor) else list(loss)
        if not seeds:
            raise TapeError("backward needs at least one loss")
        for t, _ in seeds:
            if t.data.size != 1:
                raise ShapeError(f"backward needs a scalar loss, got shape {t.shape}")
            if t.node is None or t.tape_id != self.tape_id:
                raise TapeError("loss is not recorded on this tape")

        target_ids = []
        for t in targets:
            if isinstance(t, Tensor):
                if t.tape_id != self.tape_id:
                    raise TapeError(f"backward target {t!r} is not on this tape")
                nid = t.node
            else:
                nid = t
            if not isinstance(nid, (int, np.integer)) or nid is True or nid is False:
                raise TapeError(f"invalid backward target: {t!r}")
            if nid is None or not (0 <= nid < len(self.entries)):
                raise TapeError(f"backward target {t!r} is not on this tape")
            target_ids.append(int(nid))

        # float64 accumulation buffers, one per reached node; a stored
        # buffer may alias an op's output and is never written in place.
        # All of a node's consumers have higher ids, so its buffer is
        # complete when the replay reaches it and is dropped there unless
        # the node is a target.
        buffers: dict[int, np.ndarray] = {}
        for t, weight in seeds:
            seed = np.full(self.entries[t.node].shape, float(weight), dtype=np.float64)
            buf = buffers.get(t.node)
            buffers[t.node] = seed if buf is None else buf + seed
        keep = set(target_ids)
        top = max(buffers)
        for idx in range(top, min(target_ids, default=top), -1):
            g = buffers.get(idx) if idx in keep else buffers.pop(idx, None)
            entry = self.entries[idx]
            if g is None or entry.backward_fn is None:
                continue
            contribs = entry.backward_fn(g)
            for input_id, contrib in zip(entry.inputs, contribs):
                if contrib is None:
                    continue
                contrib = np.asarray(contrib, dtype=np.float64)
                buf = buffers.get(input_id)
                buffers[input_id] = contrib if buf is None else buf + contrib

        grads = {}
        for nid in target_ids:
            buf = buffers.get(nid)
            if buf is None:
                buf = np.zeros(self.entries[nid].shape, dtype=np.float64)
            grads[nid] = Tensor(buf.astype(np.float32))
        return GradientMap(grads)


class GradientMap:
    """Node id -> gradient tensor, as returned by a backward pass."""

    def __init__(self, grads: dict):
        self._grads = grads

    def _key(self, key) -> int:
        nid = key.node if isinstance(key, Tensor) else key
        return nid if nid is not None else -1

    def __getitem__(self, key) -> Tensor:
        nid = self._key(key)
        if nid not in self._grads:
            raise KeyError(f"node {nid} not present in gradient map")
        return self._grads[nid]


def grad_l2_norm(grads: GradientMap, node) -> float:
    """sqrt of the sum of squared gradient entries for one node (float64 sum)."""
    g = grads[node].data
    return float(np.sqrt(np.sum(np.square(g, dtype=np.float64))))


# ---------------------------------------------------------------------------
# op plumbing

def _check_finite(op: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op} produced a non-finite value")


def recording(inputs: Sequence[Tensor]) -> bool:
    """True when an op on ``inputs`` goes on the tape: one is active and an input needs a gradient.

    Layers ask this before choosing how to compute their output, so they
    keep what a backward rule needs exactly when :func:`custom_op` records it.
    """
    return _active is not None and any(t.requires_grad for t in inputs)


def custom_op(
    op: str,
    inputs: Sequence[Tensor],
    out_data: np.ndarray,
    backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]],
) -> Tensor:
    """Record an externally implemented primitive on the active tape.

    ``backward_fn`` receives the float64 output gradient and must return
    one gradient array (or None) per input, each matching that input's
    shape. This is the extension point used by the layer library for
    fused kernels (convolution, batch norm, losses).
    """
    out_arr = np.ascontiguousarray(out_data, dtype=np.float32)
    _check_finite(op, out_arr)
    out = Tensor(out_arr, requires_grad=any(t.requires_grad for t in inputs))
    if recording(inputs):
        tape = _active
        ids = tuple(tape._register(t) for t in inputs)
        tape._record(op, ids, out, backward_fn)
    return out


def label(t: Tensor, name: str, layer=None) -> Tensor:
    """Name the tape entry that recorded ``t``; returns ``t``.

    A no-op when no tape is active or ``t`` is not on it, so forward
    passes may label every op unconditionally.
    """
    tape = _active
    if tape is not None and t.tape_id == tape.tape_id:
        entry = tape.entries[t.node]
        entry.name = name
        entry.layer = layer
    return t


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of equal shape."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {list(a.shape)} and {list(b.shape)} differ")
    return custom_op("add", (a, b), a.data + b.data, lambda g: (g, g))


# ---------------------------------------------------------------------------
# nonlinearities

def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    mask = a.data > 0 if recording((a,)) else None  # read only by a recorded backward

    def bwd(g):
        return (g * mask,)

    return custom_op("relu", (a,), out, bwd)
