"""Layer primitives shared by the cloud and edge networks.

Convolution, batch norm and dense layers are registered on the tape as
fused primitives with hand-derived backward rules (cheaper and easier to
audit than composing them from elementwise ops). Convolution is grouped
im2col, one code path for standard, grouped and depthwise convolutions:
one casting copy fills a float64 patch matrix [groups, C_g*kh*kw, N*H'*W']
(rows (c, kh, kw), columns (n, h', w')) and a batched float64 GEMM with
the weights gives the output. Every forward, taped or not, fills and
multiplies the matrix in tiles of whole samples that fit an L2-sized
byte budget, writing each tile straight into the float32 output. A taped
conv keeps only its float32 (padded) input and float64 weights for its
backward rule, not the matrix (9 doubles per input value for a 3x3
kernel): the rule rebuilds the whole batch's matrix once for the weight
gradient dW = g @ cols^T, one GEMM so that its sum over N*H'*W' keeps
its order, and drops it before the input gradient (recomputation instead
of storage, Chen et al. 2016, arXiv:1604.06174). The input gradient goes one sample tile at
a time. Tiled and whole-batch results are held to the same bits by the
tests; a BLAS kernel rounds the columns of a ragged last column block
differently, so input-gradient tiles span whole blocks. Batch norm
normalizes the whole batch in one pass (an untaped eval-mode batch norm
of a model runs inside its conv's tiles, see below); train mode keeps
one float64 copy of its input, centred and normalized in place.
For stride 1 the input gradient is the full correlation of the output
gradient, padded by k-1-p, with the flipped kernels, in and out channels
swapped within each group (Chellapilla et al. 2006); it goes through the
same patch builder, and a 1x1 kernel needs no patch matrix at all. Larger
strides scatter the per-tap input gradient back in [C, N, H, W] order.
Like ``lmmd``, each layer's backward rule returns None for an input that
does not require a gradient (a data batch, or a frozen block's precomputed
output), skipping that input-gradient computation entirely.

Every conv -> batch norm (-> ReLU) step of the models is one
:class:`ConvBN` unit, and each block keeps its steps in one ``units``
list. Under a tape, or with the batch norm in train mode, a unit's
forward is the composition of the three ops, tape entries and names
included. Otherwise (untaped, batch norm in eval mode or frozen) the
conv's forward runs the conv's and the batch norm's tile kernels back to
back on each sample tile while the tile is in cache, checks each op's
output for finiteness in the composition's order and clamps in place,
without a Tensor or tape bookkeeping for the intermediates.
Batch norm is not folded into the conv weights: that would drop the
float32 rounding between the two and change the output bits.

Parameters live in a :class:`ParamStore`: an ordered, uniquely named
collection of tensors with per-entry trainable and frozen flags. The
store is the unit of serialization, sharing and freezing; layers hold
references to the same tensors.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

import numpy as np

from .tensor import (
    ShapeError, Tensor, _check_finite, add, custom_op, label, recording, relu,
)

__all__ = [
    "BuildError",
    "ParamStore",
    "Conv2dLayer",
    "BatchNormLayer",
    "ConvBN",
    "DenseLayer",
    "DepthwiseSeparableBlock",
    "ResidualBlock",
    "global_avg_pool",
    "he_uniform",
]


class BuildError(ValueError):
    """A layer or model was configured inconsistently at build time."""


class _Entry:
    __slots__ = ("tensor", "trainable", "frozen")

    def __init__(self, tensor: Tensor, trainable: bool):
        self.tensor = tensor
        self.trainable = trainable
        self.frozen = False


class ParamStore:
    """Ordered name -> tensor map with trainable/frozen flags.

    Iteration order is insertion order and therefore deterministic for a
    fixed build sequence. Frozen entries are skipped by the optimizer but
    still participate in forward/backward passes.
    """

    def __init__(self):
        self._entries: dict[str, _Entry] = {}

    def add(self, name: str, tensor: Tensor, trainable: bool = True) -> Tensor:
        if name in self._entries:
            raise BuildError(f"duplicate parameter name: {name}")
        tensor.requires_grad = trainable
        self._entries[name] = _Entry(tensor, trainable)
        return tensor

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name].tensor

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list:
        return list(self._entries)

    def items(self) -> Iterator:
        for name, e in self._entries.items():
            yield name, e.tensor

    def is_frozen(self, name: str) -> bool:
        return self._entries[name].frozen

    def freeze_prefix(self, prefix: str) -> int:
        n = 0
        for name, e in self._entries.items():
            if name.startswith(prefix):
                e.frozen = True
                n += 1
        return n

    def optimizable(self) -> list:
        """(name, tensor) pairs the optimizer may update."""
        return [
            (name, e.tensor)
            for name, e in self._entries.items()
            if e.trainable and not e.frozen
        ]

    def element_count(self) -> int:
        """Number of trainable values."""
        return sum(e.tensor.size for e in self._entries.values() if e.trainable)

    def snapshot(self) -> dict:
        return {name: e.tensor.data.copy() for name, e in self._entries.items()}


def he_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


# ---------------------------------------------------------------------------
# convolution

def _patch_view(xp: np.ndarray, k: int, stride: int, ho: int, wo: int):
    n, c, _, _ = xp.shape
    sn, sc, sh, sw = xp.strides
    shape = (n, c, ho, wo, k, k)
    strides = (sn, sc, sh * stride, sw * stride, sh, sw)
    return np.lib.stride_tricks.as_strided(xp, shape, strides)


def _pad_hw(a: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Zero-pad the last two axes by ph >= 0 and pw >= 0 on each side."""
    if ph == pw == 0:
        return a
    h, w = a.shape[-2:]
    out = np.zeros(a.shape[:-2] + (h + 2 * ph, w + 2 * pw), dtype=a.dtype)
    out[..., ph:ph + h, pw:pw + w] = a
    return out


def _patches(xp: np.ndarray, k: int, stride: int, groups: int) -> np.ndarray:
    """Float64 patch matrix [groups, C_g*k*k, N*H'*W'] of a padded [N, C, H, W] array.

    Rows follow (c, kh, kw) and columns (n, h', w'); one casting copy
    from a strided view fills it.
    """
    n, c, h, w = xp.shape
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    cols = np.empty((groups, c // groups * k * k, n * ho * wo))
    cols.reshape(c, k, k, n, ho, wo)[...] = (
        _patch_view(xp, k, stride, ho, wo).transpose(1, 4, 5, 0, 2, 3)
    )
    return cols


# Bytes of float64 intermediates (a conv's patch matrix) a conv's forward
# or input gradient works on at a time: small enough to stay in one
# core's L2 cache from one pass over them to the next.
_TILE_BYTES = 1 << 20

# GEMM columns a BLAS kernel computes as one block. OpenBLAS's double
# kernels round the columns of a ragged last block differently from a
# full one, so a conv's dx tiles span whole blocks: each float64 value
# then comes from the same kernel code as in the whole batch's product.
_COL_BLOCK = 8


def _sample_tiles(n: int, sample_bytes: int, cols: int = 0):
    """(start, stop) ranges of whole samples covering a batch of n.

    As many samples per range as fit _TILE_BYTES, and at least one. Given
    the GEMM columns per sample ``cols``, every range but the last spans
    whole _COL_BLOCK blocks.
    """
    tile = max(1, _TILE_BYTES // sample_bytes)
    if cols:
        step = _COL_BLOCK // math.gcd(_COL_BLOCK, cols)
        tile = max(step, tile // step * step)
    return [(i, min(i + tile, n)) for i in range(0, n, tile)]


class Conv2dLayer:
    """2-D cross-correlation with an odd square kernel, zero padding of
    kernel // 2 on each side and optional grouping.

    weight: [out_channels, in_channels/groups, k, k]. There is no bias:
    every conv of the models feeds a batch norm, whose beta does that job.
    Output spatial size is (H - 1) // stride + 1 per axis.
    """

    def __init__(
        self,
        store: ParamStore,
        name: str,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        groups: int = 1,
        rng: Optional[np.random.Generator] = None,
    ):
        if kernel % 2 == 0:
            raise BuildError(f"{name}: kernel {kernel} is not odd")
        if in_channels % groups != 0 or out_channels % groups != 0:
            raise BuildError(
                f"{name}: channels ({in_channels}->{out_channels}) not divisible by groups={groups}"
            )
        self.name = name
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = (kernel, kernel)
        self.stride = stride
        self.padding = kernel // 2
        self.groups = groups
        rng = rng or np.random.default_rng(0)
        fan_in = (in_channels // groups) * kernel * kernel
        wshape = (out_channels, in_channels // groups, kernel, kernel)
        self.weight = store.add(name + ".weight", Tensor(he_uniform(rng, wshape, fan_in)))

    def out_shape(self, in_shape) -> tuple:
        _, h, w = in_shape[-3:]
        s = self.stride
        return (self.out_channels, (h - 1) // s + 1, (w - 1) // s + 1)

    def _prepare(self, x: Tensor) -> tuple:
        """(padded input, float64 weights [G, og, C_g*k*k], empty float32
        output, float64 patch-matrix bytes per sample) of a forward on x."""
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ShapeError(
                f"conv2d {self.name}: expected {self.in_channels} input channels, got {c}"
            )
        k = self.kernel[0]
        co, ho, wo = self.out_shape(x.shape)
        g = self.groups
        xp = _pad_hw(x.data, self.padding, self.padding)
        w2 = self.weight.data.reshape(g, co // g, -1).astype(np.float64)
        out = np.empty((n, co, ho, wo), dtype=np.float32)
        return xp, w2, out, 8 * c * k * k * ho * wo

    def _tile(self, xp: np.ndarray, w2: np.ndarray, out: np.ndarray) -> None:
        """Convolve the padded samples xp into their float32 output rows out.

        Fills their float64 patch matrix, multiplies it in float64 and
        rounds into out once.
        """
        out_b = w2 @ _patches(xp, self.kernel[0], self.stride, self.groups)  # [G, og, samples*ho*wo]
        out[...] = out_b.reshape(out.shape[1], -1, *out.shape[2:]).transpose(1, 0, 2, 3)

    def forward(self, x: Tensor, bn: Optional[BatchNormLayer] = None,
                with_relu: bool = False) -> Tensor:
        """The convolution of x, recorded on the active tape.

        Given ``bn``, the untaped path of :meth:`ConvBN.forward` instead
        (which checks that no tape records the unit and bn is in eval mode
        or frozen): bn(conv(x)), clamped by a ReLU if ``with_relu``. It runs
        here so that a profile of the forward attributes the unit to its conv.
        """
        if bn is not None:
            return self._forward_bn(x, bn, with_relu)
        n, c, h, w = x.shape
        k = self.kernel[0]
        s, p, g = self.stride, self.padding, self.groups
        xp, w2, out, sample_bytes = self._prepare(x)
        co, ho, wo = out.shape[1:]
        cg = c // g
        og = co // g
        for i, j in _sample_tiles(n, sample_bytes):
            self._tile(xp[i:j], w2, out[i:j])
        need_dx = x.requires_grad
        wt = w2.transpose(0, 2, 1)
        if s == 1 and k != 1:
            # the flipped kernels, in and out channels swapped within each group
            wt = (
                w2.reshape(g, og, cg, k, k)[..., ::-1, ::-1]
                .transpose(0, 2, 1, 3, 4)
                .reshape(g, cg, og * k * k)
            )
        # float64 bytes and GEMM columns per sample of a dx tile: the padded
        # gradient's patch matrix for stride 1, dcols (the forward's shape) otherwise
        dx_bytes, dx_cols = (8 * co * k * k * h * w, h * w) if s == 1 else (sample_bytes, ho * wo)

        def dx_tile(g_t: np.ndarray) -> np.ndarray:
            """dx [c, t, h, w] of the output gradient g_t [co, t, ho, wo]."""
            t = g_t.shape[1]
            if s == 1 and k == 1:
                return (wt @ g_t.reshape(g, og, t * h * w)).reshape(c, t, h, w)
            if s == 1:
                # full correlation of the gradient, padded by k-1-p = p, with the flipped kernels
                gp = _pad_hw(g_t, p, p)
                return (wt @ _patches(gp.transpose(1, 0, 2, 3), k, 1, g)).reshape(c, t, h, w)
            dcols = (wt @ g_t.reshape(g, og, t * ho * wo)).reshape(c, k, k, t, ho, wo)
            dxp = np.zeros((c, t, h + 2 * p, w + 2 * p))
            for i in range(k):
                for j in range(k):
                    dxp[:, :, i:i + s * ho:s, j:j + s * wo:s] += dcols[:, i, j]
            return dxp[:, :, p:p + h, p:p + w]

        def bwd(gout):
            g_b = np.ascontiguousarray(gout.transpose(1, 0, 2, 3))  # [co, N, ho, wo]
            # dW is one GEMM over the whole batch's patch matrix, rebuilt
            # from the kept float32 input rather than held since the forward
            cols = _patches(xp, k, s, g)
            dw = (g_b.reshape(g, og, n * ho * wo) @ cols.transpose(0, 2, 1))
            del cols
            dx = None
            if need_dx:
                dx = np.empty((c, n, h, w))  # [c, N, h, w] order
                for i, j in _sample_tiles(n, dx_bytes, cols=dx_cols):
                    dx[:, i:j] = dx_tile(g_b[:, i:j])
                dx = dx.transpose(1, 0, 2, 3)
            return dx, dw.reshape(self.weight.data.shape)

        return label(custom_op("conv2d", (x, self.weight), out, bwd), self.name, self)

    def _forward_bn(self, x: Tensor, bn: BatchNormLayer, with_relu: bool) -> Tensor:
        """One pass per tile of whole samples that fit the conv's patch
        budget: the conv's tile kernel rounds into the float32 output, the
        batch norm's rounds its affine map of those rows back over them and
        the ReLU clamps them in place. Each op's output is checked for
        finiteness under its own name, in the composition's order: a
        batch-norm fault is reported once every conv tile has passed."""
        xp, w2, out, sample_bytes = self._prepare(x)
        bn._check(out)
        affine = bn._affine(bn.running_mean.data, bn.running_var.data)
        inputs = (x, self.weight, bn.gamma, bn.beta)
        bn_fault = None
        for i, j in _sample_tiles(len(out), sample_bytes):
            tile = out[i:j]
            self._tile(xp[i:j], w2, tile)
            _check_finite("conv2d", tile)
            if bn_fault is not None:
                continue
            bn._tile(tile.astype(np.float64), affine, tile)
            if not np.isfinite(tile).all():
                bn_fault = tile  # kept unclamped: a ReLU would zero an overflow to -inf
            elif with_relu:
                np.maximum(tile, 0.0, out=tile)
        if bn_fault is not None:
            _check_finite("batchnorm", bn_fault)
        return Tensor(out, requires_grad=any(t.requires_grad for t in inputs))


# ---------------------------------------------------------------------------
# batch normalization

class BatchNormLayer:
    """Per-channel batch normalization over [N, C, H, W].

    Train mode normalizes with batch statistics and updates the running
    estimates (unbiased variance, momentum blend). Eval mode is a fixed
    affine map using the running statistics. A frozen layer behaves as
    eval regardless of the training flag and never updates its stats.
    """

    momentum = 0.1
    eps = 1e-5

    def __init__(self, store: ParamStore, name: str, channels: int):
        self.name = name
        self.channels = channels
        self.training = True
        self.frozen = False
        self.gamma = store.add(name + ".gamma", Tensor(np.ones(channels, dtype=np.float32)))
        self.beta = store.add(name + ".beta", Tensor(np.zeros(channels, dtype=np.float32)))
        self.running_mean = store.add(
            name + ".running_mean", Tensor(np.zeros(channels, dtype=np.float32)), trainable=False
        )
        self.running_var = store.add(
            name + ".running_var", Tensor(np.ones(channels, dtype=np.float32)), trainable=False
        )

    def set_training(self, flag: bool) -> None:
        if not self.frozen:
            self.training = flag

    def freeze(self) -> None:
        self.frozen = True
        self.training = False

    def _check(self, x: np.ndarray) -> None:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeError(f"batchnorm {self.name}: bad input shape {list(x.shape)}")

    def _affine(self, mean: np.ndarray, var: np.ndarray) -> tuple:
        """float64 [1, C, 1, 1] (mean, invstd, gamma, beta) of
        y = ((x - mean) * invstd) * gamma + beta."""
        def f64(a):
            return a.astype(np.float64).reshape(1, -1, 1, 1)

        invstd = 1.0 / np.sqrt(f64(var) + self.eps)
        return f64(mean), invstd, f64(self.gamma.data), f64(self.beta.data)

    @staticmethod
    def _tile(xn: np.ndarray, affine: tuple, out: np.ndarray,
              y: Optional[np.ndarray] = None) -> None:
        """Normalize the float64 samples xn in place and round the affine
        output into their float32 rows out, through y if given (fixed
        order). A shift of None means xn is centred already."""
        shift, scale, gamma_b, beta_b = affine
        if shift is not None:
            xn -= shift
        xn *= scale
        y = np.multiply(xn, gamma_b, out=y)
        y += beta_b
        out[...] = y

    def forward(self, x: Tensor) -> Tensor:
        self._check(x.data)
        x64 = y = None
        if self.training:
            m = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
            if m < 2:
                raise ShapeError(f"batchnorm {self.name}: needs >1 value per channel in train mode")
            # one float64 copy, centred in place; the variance is np.var's
            # arithmetic (add.reduce of the squares, then / m) on it, and
            # the squares' buffer is then reused for the affine output
            x64 = x.data.astype(np.float64)
            mean = x64.mean(axis=(0, 2, 3), keepdims=True)
            x64 -= mean
            y = np.multiply(x64, x64)
            var = np.add.reduce(y, axis=(0, 2, 3)) / m
            mean = mean.reshape(-1)
            rm = (1 - self.momentum) * self.running_mean.data + self.momentum * mean
            rv = (1 - self.momentum) * self.running_var.data + self.momentum * var * m / (m - 1)
            self.running_mean.data[...] = rm.astype(np.float32)
            self.running_var.data[...] = rv.astype(np.float32)
            affine = (None,) + self._affine(mean, var)[1:]
        else:
            affine = self._affine(self.running_mean.data, self.running_var.data)
        _, scale, gamma_b, _ = affine
        inputs = (x, self.gamma, self.beta)
        out = np.empty(x.shape, dtype=np.float32)
        # train mode normalizes the copy its statistics came from; xn is
        # the batch's normalized values, which the backward rule reads
        xn = x.data.astype(np.float64) if x64 is None else x64
        self._tile(xn, affine, out, y)
        train_stats = self.training
        need_dx = x.requires_grad

        def bwd(g):
            t = g * xn
            dgamma = np.sum(t, axis=(0, 2, 3))
            dbeta = np.sum(g, axis=(0, 2, 3))
            if not need_dx:
                return None, dgamma, dbeta
            dx = g * gamma_b
            if train_stats:
                # scale * ((dx - mean(dx)) - xn * mean(dx * xn)), in t and dx
                dx_mean = dx.mean(axis=(0, 2, 3), keepdims=True)
                np.multiply(dx, xn, out=t)
                np.multiply(xn, t.mean(axis=(0, 2, 3), keepdims=True), out=t)
                dx -= dx_mean
                dx -= t
            dx *= scale
            return dx, dgamma, dbeta

        return label(custom_op("batchnorm", inputs, out, bwd), self.name, self)


# ---------------------------------------------------------------------------
# conv -> batch norm (-> ReLU) units

class ConvBN:
    """One conv -> batch norm (-> ReLU) step: ``conv``, ``bn`` and
    ``relu_name``, the tape name of its ReLU (None: no ReLU).

    The conv is built before the batch norm, so store order and rng draws
    follow the step order. While a tape records the unit, or the batch
    norm normalizes with batch statistics, the forward is exactly the
    composition of the three ops and their tape entries. Otherwise the
    conv's forward runs the unit fused, one pass per sample tile, and
    builds one Tensor with the composition's bits.
    """

    def __init__(
        self,
        store: ParamStore,
        name: str,
        bn_name: str,
        relu_name: Optional[str],
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        groups: int = 1,
        rng: Optional[np.random.Generator] = None,
    ):
        self.conv = Conv2dLayer(
            store, name, in_channels, out_channels, kernel, stride=stride, groups=groups, rng=rng
        )
        self.bn = BatchNormLayer(store, bn_name, out_channels)
        self.relu_name = relu_name

    def forward(self, x: Tensor) -> Tensor:
        conv, bn = self.conv, self.bn
        if bn.training or recording((x, conv.weight, bn.gamma, bn.beta)):
            h = bn.forward(conv.forward(x))
            return h if self.relu_name is None else label(relu(h), self.relu_name)
        return conv.forward(x, bn, self.relu_name is not None)


# ---------------------------------------------------------------------------
# dense

class DenseLayer:
    """Affine map y = x W^T + b with weight [out, in]."""

    def __init__(
        self,
        store: ParamStore,
        name: str,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
    ):
        self.name = name
        self.in_features = in_features
        self.out_features = out_features
        rng = rng or np.random.default_rng(0)
        self.weight = store.add(
            name + ".weight",
            Tensor(he_uniform(rng, (out_features, in_features), in_features)),
        )
        self.bias = store.add(name + ".bias", Tensor(np.zeros(out_features, dtype=np.float32)))

    def forward(self, x: Tensor) -> Tensor:
        if x.data.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"dense {self.name}: expected [N, {self.in_features}], got {list(x.shape)}"
            )
        x64 = x.data.astype(np.float64)
        w64 = self.weight.data.astype(np.float64)
        out = x64 @ w64.T + self.bias.data.astype(np.float64)
        need_dx = x.requires_grad

        def bwd(g):
            return g @ w64 if need_dx else None, g.T @ x64, g.sum(axis=0)

        return label(
            custom_op("dense", (x, self.weight, self.bias), out, bwd), self.name, self
        )


# ---------------------------------------------------------------------------
# composite blocks

class DepthwiseSeparableBlock:
    """Depthwise 3x3 (per-channel) followed by pointwise 1x1, BN+ReLU after
    each: ``units`` [dw, pw]."""

    def __init__(
        self,
        store: ParamStore,
        name: str,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
    ):
        self.units = [
            ConvBN(store, name + ".dw", name + ".dw_bn", name + ".dw_relu",
                   in_channels, in_channels, 3, stride=stride, groups=in_channels, rng=rng),
            ConvBN(store, name + ".pw", name + ".pw_bn", name + ".pw_relu",
                   in_channels, out_channels, 1, rng=rng),
        ]

    def forward(self, x: Tensor) -> Tensor:
        for unit in self.units:
            x = unit.forward(x)
        return x


class ResidualBlock:
    """conv-BN-ReLU-conv-BN plus shortcut, ReLU after the join.

    ``units`` is [conv1, conv2], plus a third, the 1x1 projection
    shortcut with BN, when the shapes differ; otherwise the shortcut is
    the identity.
    """

    def __init__(
        self,
        store: ParamStore,
        name: str,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
    ):
        self.units = [
            ConvBN(store, name + ".conv1", name + ".bn1", name + ".relu1",
                   in_channels, out_channels, 3, stride=stride, rng=rng),
            ConvBN(store, name + ".conv2", name + ".bn2", None,
                   out_channels, out_channels, 3, rng=rng),
        ]
        if in_channels != out_channels or stride != 1:
            self.units.append(ConvBN(store, name + ".proj", name + ".proj_bn", None,
                                     in_channels, out_channels, 1, stride=stride, rng=rng))
        self._add = name + ".add"
        self._relu2 = name + ".relu2"

    def forward(self, x: Tensor) -> Tensor:
        conv1, conv2, *proj = self.units
        h = conv2.forward(conv1.forward(x))
        sc = proj[0].forward(x) if proj else x
        return label(relu(label(add(h, sc), self._add)), self._relu2)


def global_avg_pool(x: Tensor) -> Tensor:
    """[N, C, H, W] -> [N, C] spatial mean, summed in float64."""
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool expects [N,C,H,W], got {list(x.shape)}")
    shape = x.data.shape
    out = np.mean(x.data, axis=(2, 3), dtype=np.float64)

    def bwd(g):
        return (np.broadcast_to((g / (shape[2] * shape[3]))[:, :, None, None], shape),)

    return custom_op("mean", (x,), out, bwd)
