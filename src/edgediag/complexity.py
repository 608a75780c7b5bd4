"""Static model-complexity analysis and the inference-latency protocol.

Conventions, fixed and auditable:

* FLOPs = 2 x multiply-accumulates. A convolution producing C' x H' x W'
  from C input channels with a k_h x k_w kernel in g groups costs
  2 * C'H'W' * (C/g * k_h * k_w). A dense layer costs 2 * in * out plus
  out for its bias.
* Batch norm counts 2 ops per output element (scale, shift); ReLU,
  residual adds and pooling count 1 op per element they touch.
* Params counts trainable elements only (batch-norm running statistics
  are state, not parameters).
* Memory is the sum of forward activation bytes at batch size 1 and
  32-bit storage, an inference-footprint proxy.

The latency benchmark times single-sample eval-mode forward passes on a
monotonic clock: a warm-up burst, then ``repeats`` rounds of ``iters``
inferences; each round contributes its mean, and the report carries the
mean and standard deviation across rounds.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .layers import BatchNormLayer, Conv2dLayer, DenseLayer
from .tensor import Tensor

__all__ = [
    "LayerStats",
    "conv_stats",
    "dense_stats",
    "ModelStats",
    "BenchReport",
    "AnalysisError",
    "analyze",
    "bench_inference",
    "format_comparison",
]

BYTES_PER_VALUE = 4


class AnalysisError(ValueError):
    """A model contains an op the analyzer has no convention for."""


@dataclass
class LayerStats:
    name: str
    kind: str
    out_shape: tuple
    params: int
    memory_bytes: int
    flops: int


@dataclass
class ModelStats:
    layers: List[LayerStats] = field(default_factory=list)

    @property
    def total_params(self) -> int:
        return sum(l.params for l in self.layers)

    @property
    def total_memory_bytes(self) -> int:
        return sum(l.memory_bytes for l in self.layers)

    @property
    def total_flops(self) -> int:
        return sum(l.flops for l in self.layers)

    def to_text(self) -> str:
        rows = [("layer", "kind", "out shape", "params", "memory (B)", "flops")]
        for l in self.layers:
            rows.append(
                (l.name, l.kind, "x".join(map(str, l.out_shape)),
                 str(l.params), str(l.memory_bytes), str(l.flops))
            )
        rows.append(
            ("total", "", "", str(self.total_params),
             str(self.total_memory_bytes), str(self.total_flops))
        )
        return _table(rows)


def _table(rows) -> str:
    """Left-aligned columns two spaces apart, a dashed rule under the header row."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows]
    lines.insert(1, "-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines)


def _numel(shape) -> int:
    return int(np.prod(shape))


def conv_stats(layer: Conv2dLayer, out_shape) -> tuple:
    """(params, flops) of one convolution at the given [C',H',W'] output."""
    c_out, ho, wo = out_shape
    kh, kw = layer.kernel
    macs_per_out = (layer.in_channels // layer.groups) * kh * kw
    return layer.weight.size, 2 * c_out * ho * wo * macs_per_out


def dense_stats(layer: DenseLayer) -> tuple:
    """(params, flops) of one dense layer."""
    flops = 2 * layer.in_features * layer.out_features + layer.out_features
    return layer.weight.size + layer.bias.size, flops


def analyze(model) -> ModelStats:
    """Per-layer params / activation memory / FLOPs at batch size 1.

    One row per op of the model's traced forward (``model.architecture``).
    """
    stats = ModelStats()
    for entry in model.architecture():
        out_elems = _numel(entry.out_shape)
        mem = out_elems * BYTES_PER_VALUE
        if entry.kind == "conv":
            params, flops = conv_stats(entry.layer, entry.out_shape)
        elif entry.kind == "dense":
            params, flops = dense_stats(entry.layer)
        elif entry.kind == "bn":
            layer: BatchNormLayer = entry.layer
            params = layer.gamma.size + layer.beta.size
            flops = 2 * out_elems
        elif entry.kind in ("relu", "add"):
            params = 0
            flops = out_elems
        elif entry.kind == "gap":
            params = 0
            flops = _numel(entry.in_shape)
        else:
            raise AnalysisError(f"no complexity convention for op kind {entry.kind!r}")
        stats.layers.append(
            LayerStats(entry.name, entry.kind, entry.out_shape, params, mem, flops)
        )

    attributed = stats.total_params
    declared = model.store.element_count()
    if attributed != declared:
        raise AnalysisError(
            f"parameter attribution mismatch: layers sum to {attributed}, "
            f"store holds {declared}"
        )
    return stats


@dataclass
class BenchReport:
    per_repeat_ms: List[float]
    repeats: int
    iters: int
    warmup: int

    @property
    def mean_ms(self) -> float:
        return float(np.mean(self.per_repeat_ms))

    @property
    def std_ms(self) -> float:
        return float(np.std(self.per_repeat_ms))

    def to_text(self) -> str:
        per = ", ".join(f"{v:.3f}" for v in self.per_repeat_ms)
        return (
            f"latency: {self.mean_ms:.3f} ms +/- {self.std_ms:.3f} "
            f"({self.repeats} repeats x {self.iters} inferences, warmup {self.warmup})\n"
            f"per-repeat means (ms): {per}"
        )

    def to_record(self) -> dict:
        return {
            "mean_ms": self.mean_ms,
            "std_ms": self.std_ms,
            "per_repeat_ms": self.per_repeat_ms,
            "repeats": self.repeats,
            "iters": self.iters,
            "warmup": self.warmup,
        }


def bench_inference(
    model,
    repeats: int = 10,
    iters: int = 1000,
    warmup: int = 100,
    seed: int = 0,
) -> BenchReport:
    """Single-sample forward latency under the repeat/average protocol."""
    if repeats < 1 or iters < 1 or warmup < 0:
        raise ValueError("repeats and iters must be >= 1, warmup >= 0")
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((1, *model.config.input_shape)).astype(np.float32))
    per_repeat = []
    with model.eval_mode():
        for _ in range(warmup):
            model.forward_logits(x)
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(iters):
                model.forward_logits(x)
            elapsed = time.perf_counter() - t0
            if elapsed <= 0.0:
                warnings.warn("timer resolution too coarse for this benchmark", RuntimeWarning)
            per_repeat.append(elapsed / iters * 1e3)
    return BenchReport(per_repeat_ms=per_repeat, repeats=repeats, iters=iters, warmup=warmup)


def format_comparison(stats_by_name: dict, bench_by_name: Optional[dict] = None) -> str:
    """Aligned cloud-vs-edge complexity table (plus latency when measured)."""
    header = ["model", "params", "memory (MB)", "flops (MFlops)"]
    if bench_by_name:
        header.append("latency (ms)")
    rows = [tuple(header)]
    for name, st in stats_by_name.items():
        row = [
            name,
            f"{st.total_params:,}",
            f"{st.total_memory_bytes / 1e6:.3f}",
            f"{st.total_flops / 1e6:.3f}",
        ]
        if bench_by_name:
            b = bench_by_name.get(name)
            row.append(f"{b.mean_ms:.3f} +/- {b.std_ms:.3f}" if b else "-")
        rows.append(tuple(row))
    return _table(rows)
