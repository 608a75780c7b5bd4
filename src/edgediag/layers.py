"""Layer primitives shared by the cloud and edge networks.

Convolution, batch norm and dense layers are registered on the tape as
fused primitives with hand-derived backward rules (cheaper and easier to
audit than composing them from elementwise ops). Convolution is grouped
im2col, one code path for standard, grouped and depthwise convolutions:
one casting copy fills a float64 patch matrix [groups, C_g*kh*kw, N*H'*W']
(rows (c, kh, kw), columns (n, h', w')) and a batched float64 GEMM with
the weights gives the output. A taped forward builds the matrix for the
whole batch, and the weight gradient reuses it. An untaped forward (no
tape will record the op) fills and multiplies it in tiles of whole
samples that fit an L2-sized byte budget, writing each tile straight into
the float32 output. Each output value is the same dot product either way,
and the tests hold the two forwards to the same bits. Batch norm follows
the same rule: an untaped forward normalizes in sample tiles, a taped one
the whole batch, whose normalized values its backward rule reads.
For stride 1 the input gradient is the full correlation of the output
gradient, padded by k-1-p (cropped where that is negative), with the
flipped kernels, in and out channels swapped within each group (Chellapilla
et al. 2006); it goes through the same patch builder, and a 1x1 kernel
needs no patch matrix at all. Larger strides scatter the per-tap input
gradient back in [C, N, H, W] order. Like
``lmmd``, each layer's backward rule returns None for an input that does
not require a gradient (a data batch, or a frozen block's precomputed
output), skipping that input-gradient computation entirely.

Parameters live in a :class:`ParamStore`: an ordered, uniquely named
collection of tensors with per-entry trainable and frozen flags. The
store is the unit of serialization, sharing and freezing; layers hold
references to the same tensors.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from .tensor import ShapeError, Tensor, add, custom_op, label, recording, relu, tmean

__all__ = [
    "BuildError",
    "ParamStore",
    "Conv2dLayer",
    "BatchNormLayer",
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

    def is_trainable(self, name: str) -> bool:
        return self._entries[name].trainable

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

    def element_count(self, trainable_only: bool = True) -> int:
        return sum(
            e.tensor.size
            for e in self._entries.values()
            if e.trainable or not trainable_only
        )

    def snapshot(self) -> dict:
        return {name: e.tensor.data.copy() for name, e in self._entries.items()}


def he_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


# ---------------------------------------------------------------------------
# convolution

def _conv_out_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _patch_view(xp: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int):
    n, c, _, _ = xp.shape
    sn, sc, sh, sw = xp.strides
    shape = (n, c, ho, wo, kh, kw)
    strides = (sn, sc, sh * stride, sw * stride, sh, sw)
    return np.lib.stride_tricks.as_strided(xp, shape, strides)


def _pad_hw(a: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Zero-pad the last two axes by ph and pw on each side; a negative amount crops."""
    h, w = a.shape[-2:]
    a = a[..., max(-ph, 0):h - max(-ph, 0), max(-pw, 0):w - max(-pw, 0)]
    if ph <= 0 and pw <= 0:
        return a
    ph, pw = max(ph, 0), max(pw, 0)
    h, w = a.shape[-2:]
    out = np.zeros(a.shape[:-2] + (h + 2 * ph, w + 2 * pw), dtype=a.dtype)
    out[..., ph:ph + h, pw:pw + w] = a
    return out


def _patches(xp: np.ndarray, kh: int, kw: int, stride: int, groups: int) -> np.ndarray:
    """Float64 patch matrix [groups, C_g*kh*kw, N*H'*W'] of a padded [N, C, H, W] array.

    Rows follow (c, kh, kw) and columns (n, h', w'); one casting copy
    from a strided view fills it.
    """
    n, c, h, w = xp.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    cols = np.empty((groups, c // groups * kh * kw, n * ho * wo))
    cols.reshape(c, kh, kw, n, ho, wo)[...] = (
        _patch_view(xp, kh, kw, stride, ho, wo).transpose(1, 4, 5, 0, 2, 3)
    )
    return cols


# Bytes of float64 intermediates (a conv's patch matrix, a batch norm's
# normalized copy) an untaped forward works on at a time: small enough to
# stay in one core's L2 cache from one pass over them to the next.
_TILE_BYTES = 1 << 20


def _sample_tiles(inputs, n: int, sample_bytes: int):
    """(start, stop) ranges of whole samples covering a batch of n.

    One range, the whole batch, when a tape records the op: its backward
    rule reads the batch's intermediates. Otherwise as many samples per
    range as fit _TILE_BYTES, and at least one.
    """
    tile = n if recording(inputs) else max(1, _TILE_BYTES // sample_bytes)
    return [(i, min(i + tile, n)) for i in range(0, n, tile)]


class Conv2dLayer:
    """2-D cross-correlation with optional grouping.

    weight: [out_channels, in_channels/groups, kh, kw]; bias: [out] or None.
    Output spatial size is floor((H + 2p - kh)/stride) + 1 per axis.
    """

    def __init__(
        self,
        store: ParamStore,
        name: str,
        in_channels: int,
        out_channels: int,
        kernel,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        bias: bool = False,
        rng: Optional[np.random.Generator] = None,
    ):
        kh, kw = (kernel, kernel) if isinstance(kernel, int) else kernel
        if in_channels % groups != 0 or out_channels % groups != 0:
            raise BuildError(
                f"{name}: channels ({in_channels}->{out_channels}) not divisible by groups={groups}"
            )
        self.name = name
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = (kh, kw)
        self.stride = stride
        self.padding = padding
        self.groups = groups
        rng = rng or np.random.default_rng(0)
        fan_in = (in_channels // groups) * kh * kw
        wshape = (out_channels, in_channels // groups, kh, kw)
        self.weight = store.add(name + ".weight", Tensor(he_uniform(rng, wshape, fan_in)))
        self.bias = (
            store.add(name + ".bias", Tensor(np.zeros(out_channels, dtype=np.float32)))
            if bias
            else None
        )

    def out_shape(self, in_shape) -> tuple:
        c, h, w = in_shape[-3:]
        kh, kw = self.kernel
        ho = _conv_out_size(h, kh, self.stride, self.padding)
        wo = _conv_out_size(w, kw, self.stride, self.padding)
        if ho < 1 or wo < 1:
            raise ShapeError(f"{self.name}: kernel {self.kernel} does not fit input {in_shape}")
        return (self.out_channels, ho, wo)

    def forward(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ShapeError(
                f"conv2d {self.name}: expected {self.in_channels} input channels, got {c}"
            )
        kh, kw = self.kernel
        s, p, g = self.stride, self.padding, self.groups
        co, ho, wo = self.out_shape(x.shape)
        cg = c // g
        og = co // g
        kk = cg * kh * kw

        bias_t = self.bias
        inputs = (x, self.weight) + ((bias_t,) if bias_t is not None else ())
        xp = _pad_hw(x.data, p, p)
        w2 = self.weight.data.reshape(g, og, kk).astype(np.float64)
        out = np.empty((n, co, ho, wo), dtype=np.float32)
        for i, j in _sample_tiles(inputs, n, 8 * c * kh * kw * ho * wo):
            cols = _patches(xp[i:j], kh, kw, s, g)
            out_b = w2 @ cols  # [G, og, (j-i)*ho*wo]
            if bias_t is not None:
                out_b += bias_t.data.reshape(g, og, 1)
            out[i:j] = out_b.reshape(co, -1, ho, wo).transpose(1, 0, 2, 3)
        need_dx = x.requires_grad

        def bwd(gout):
            g_b = np.ascontiguousarray(gout.transpose(1, 0, 2, 3))  # [co, N, ho, wo]
            g_m = g_b.reshape(g, og, n * ho * wo)
            dw = (g_m @ cols.transpose(0, 2, 1)).reshape(self.weight.data.shape)
            dx = None
            if need_dx:
                # dx in [c, N, h, w] order
                if s == 1:
                    # full correlation of the padded gradient with the flipped
                    # kernels, in and out channels swapped within each group
                    gp = _pad_hw(g_b, kh - 1 - p, kw - 1 - p)
                    if (kh, kw) == (1, 1):
                        dx = w2.transpose(0, 2, 1) @ gp.reshape(g, og, n * h * w)
                    else:
                        wt = (
                            w2.reshape(g, og, cg, kh, kw)[..., ::-1, ::-1]
                            .transpose(0, 2, 1, 3, 4)
                            .reshape(g, cg, og * kh * kw)
                        )
                        dx = wt @ _patches(gp.transpose(1, 0, 2, 3), kh, kw, 1, g)
                    dx = dx.reshape(c, n, h, w)
                else:
                    dcols = (w2.transpose(0, 2, 1) @ g_m).reshape(c, kh, kw, n, ho, wo)
                    dxp = np.zeros((c, n, h + 2 * p, w + 2 * p))
                    for i in range(kh):
                        for j in range(kw):
                            dxp[:, :, i:i + s * ho:s, j:j + s * wo:s] += dcols[:, i, j]
                    dx = _pad_hw(dxp, -p, -p)
                dx = dx.transpose(1, 0, 2, 3)
            grads = [dx, dw]
            if bias_t is not None:
                grads.append(gout.sum(axis=(0, 2, 3)))
            return grads

        return label(custom_op("conv2d", inputs, out, bwd), self.name, self)


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

    def forward(self, x: Tensor) -> Tensor:
        if x.data.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeError(f"batchnorm {self.name}: bad input shape {list(x.shape)}")
        x64 = None
        if self.training:
            x64 = x.data.astype(np.float64)
            m = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
            if m < 2:
                raise ShapeError(f"batchnorm {self.name}: needs >1 value per channel in train mode")
            mean = x64.mean(axis=(0, 2, 3))
            var = x64.var(axis=(0, 2, 3))
            rm = (1 - self.momentum) * self.running_mean.data + self.momentum * mean
            rv = (1 - self.momentum) * self.running_var.data + self.momentum * var * m / (m - 1)
            self.running_mean.data[...] = rm.astype(np.float32)
            self.running_var.data[...] = rv.astype(np.float32)
        else:
            mean = self.running_mean.data.astype(np.float64)
            var = self.running_var.data.astype(np.float64)
        invstd = 1.0 / np.sqrt(var + self.eps)
        shift, scale = mean.reshape(1, -1, 1, 1), invstd.reshape(1, -1, 1, 1)
        gamma_b = self.gamma.data.astype(np.float64).reshape(1, -1, 1, 1)
        beta_b = self.beta.data.astype(np.float64).reshape(1, -1, 1, 1)
        inputs = (x, self.gamma, self.beta)
        out = np.empty(x.shape, dtype=np.float32)
        for i, j in _sample_tiles(inputs, x.shape[0], 8 * x.data[0].size):
            # normalize a private float64 copy in place: the same arithmetic
            # with fewer temporaries
            xn = x.data[i:j].astype(np.float64) if x64 is None else x64[i:j]
            xn -= shift
            xn *= scale
            y = xn * gamma_b
            y += beta_b
            out[i:j] = y
        train_stats = self.training
        need_dx = x.requires_grad

        def bwd(g):
            dgamma = np.sum(g * xn, axis=(0, 2, 3))
            dbeta = np.sum(g, axis=(0, 2, 3))
            if not need_dx:
                return None, dgamma, dbeta
            dxn = g * gamma_b
            if train_stats:
                dx = scale * (
                    dxn
                    - dxn.mean(axis=(0, 2, 3), keepdims=True)
                    - xn * (dxn * xn).mean(axis=(0, 2, 3), keepdims=True)
                )
            else:
                dx = dxn * scale
            return dx, dgamma, dbeta

        return label(custom_op("batchnorm", inputs, out, bwd), self.name, self)


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
    """Depthwise 3x3 (per-channel) followed by pointwise 1x1, BN+ReLU after each."""

    def __init__(
        self,
        store: ParamStore,
        name: str,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        kernel: int = 3,
        rng: Optional[np.random.Generator] = None,
    ):
        self.name = name
        pad = (kernel - 1) // 2
        self.depthwise = Conv2dLayer(
            store, name + ".dw", in_channels, in_channels, kernel,
            stride=stride, padding=pad, groups=in_channels, rng=rng,
        )
        self.dw_bn = BatchNormLayer(store, name + ".dw_bn", in_channels)
        self.pointwise = Conv2dLayer(
            store, name + ".pw", in_channels, out_channels, 1, rng=rng
        )
        self.pw_bn = BatchNormLayer(store, name + ".pw_bn", out_channels)
        self._dw_relu = name + ".dw_relu"
        self._pw_relu = name + ".pw_relu"

    def forward(self, x: Tensor) -> Tensor:
        h = label(relu(self.dw_bn.forward(self.depthwise.forward(x))), self._dw_relu)
        return label(relu(self.pw_bn.forward(self.pointwise.forward(h))), self._pw_relu)

    def bn_layers(self):
        return [self.dw_bn, self.pw_bn]


class ResidualBlock:
    """conv-BN-ReLU-conv-BN plus shortcut, ReLU after the join.

    The shortcut is the identity when shapes already match; otherwise a
    1x1 projection conv (with BN) is built.
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
        self.name = name
        self.conv1 = Conv2dLayer(
            store, name + ".conv1", in_channels, out_channels, 3,
            stride=stride, padding=1, rng=rng,
        )
        self.bn1 = BatchNormLayer(store, name + ".bn1", out_channels)
        self.conv2 = Conv2dLayer(
            store, name + ".conv2", out_channels, out_channels, 3, padding=1, rng=rng
        )
        self.bn2 = BatchNormLayer(store, name + ".bn2", out_channels)
        if in_channels != out_channels or stride != 1:
            self.proj = Conv2dLayer(
                store, name + ".proj", in_channels, out_channels, 1, stride=stride, rng=rng
            )
            self.proj_bn = BatchNormLayer(store, name + ".proj_bn", out_channels)
        else:
            self.proj = None
            self.proj_bn = None
        self._relu1 = name + ".relu1"
        self._add = name + ".add"
        self._relu2 = name + ".relu2"

    def forward(self, x: Tensor) -> Tensor:
        h = label(relu(self.bn1.forward(self.conv1.forward(x))), self._relu1)
        h = self.bn2.forward(self.conv2.forward(h))
        sc = x if self.proj is None else self.proj_bn.forward(self.proj.forward(x))
        return label(relu(label(add(h, sc), self._add)), self._relu2)

    def bn_layers(self):
        bns = [self.bn1, self.bn2]
        if self.proj_bn is not None:
            bns.append(self.proj_bn)
        return bns


def global_avg_pool(x: Tensor) -> Tensor:
    """[N, C, H, W] -> [N, C] spatial mean."""
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool expects [N,C,H,W], got {list(x.shape)}")
    return tmean(x, axis=(2, 3))
