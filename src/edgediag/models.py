"""Cloud (C) and edge (E) diagnosis networks.

Both networks share a structurally identical front feature extractor
(the ``pre_fe.*`` subtree): two 3x3 conv+BN+ReLU stages. The cloud model
continues with residual stages, the edge model with exactly four
depthwise-separable stages; each stage is one stride-2 block, built by
one loop shared by both models. The posterior ends in global average
pooling and a projection dense layer to a common feature width, so the
two feature vectors are directly comparable for distribution alignment.
A single dense layer maps features to class logits. Each conv+BN(+ReLU)
step of both networks is one ``layers.ConvBN`` unit: ``pre_fe`` is a
list of them and every posterior block keeps its own in ``units``, so
the batch norms are one walk over units, and an untaped eval-mode
forward (inference, the transfer stage's reference activations) runs
them fused, with the same bits as a taped forward.

``share_pre_fe`` copies (never aliases) the front block cloud -> edge;
``freeze_pre_fe`` locks those weights and pins their batch-norm layers
to eval mode so the running statistics captured at the end of cloud
training stay fixed.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import List

import numpy as np

from .datagen import CHANNELS, PLANE
from .layers import (
    BuildError,
    ConvBN,
    DenseLayer,
    DepthwiseSeparableBlock,
    ParamStore,
    ResidualBlock,
    global_avg_pool,
)
from .tensor import Tape, Tensor, label, relu

__all__ = [
    "ModelConfig",
    "ArchEntry",
    "CModel",
    "EModel",
    "build_model",
    "share_pre_fe",
    "freeze_pre_fe",
]

PRE_FE_PREFIX = "pre_fe."

# tape op -> ArchEntry kind; an op missing here keeps its own name and
# the analyzer rejects it
_OP_KINDS = {
    "conv2d": "conv",
    "batchnorm": "bn",
    "relu": "relu",
    "add": "add",
    "mean": "gap",
    "dense": "dense",
}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters shared by both models.

    ``pre_fe_channels`` is the single shared front-block definition;
    ``e_stage_channels`` must name exactly four depthwise-separable
    stages. Defaults are sized for CPU training while keeping the edge
    model far smaller than the cloud model.
    """

    input_shape: tuple = (CHANNELS, *PLANE)
    num_classes: int = 5
    pre_fe_channels: tuple = (12, 12)
    c_stage_channels: tuple = (32, 48, 64, 96)
    e_stage_channels: tuple = (16, 24, 32, 48)
    feature_dim: int = 48

    def validate(self) -> None:
        if len(self.input_shape) != 3 or any(int(s) <= 0 for s in self.input_shape):
            raise BuildError(f"input_shape must be [C,H,W] of positive sizes, got {self.input_shape}")
        if self.num_classes < 2:
            raise BuildError(f"num_classes must be >= 2, got {self.num_classes}")
        if len(self.e_stage_channels) != 4:
            raise BuildError(
                f"e_stage_channels must have exactly 4 stages, got {len(self.e_stage_channels)}"
            )
        for fld in ("pre_fe_channels", "c_stage_channels", "e_stage_channels"):
            vals = getattr(self, fld)
            if not vals or any(int(v) <= 0 for v in vals):
                raise BuildError(f"{fld} must be non-empty positive widths, got {vals}")
        if self.feature_dim < 1:
            raise BuildError(f"feature_dim must be >= 1, got {self.feature_dim}")


@dataclass
class ArchEntry:
    """One atomic op of a model's forward pass, for complexity analysis.

    Built from one entry of a traced forward (see ``architecture``);
    ``layer`` is the Conv2d/BatchNorm/Dense layer that ran the op, if any.
    """

    name: str
    kind: str  # conv | bn | relu | add | gap | dense
    in_shape: tuple  # per-sample [C,H,W] or [D]
    out_shape: tuple
    layer: object = None


class _Model:
    """Shared body of both networks: ``pre_fe``, one stride-2 posterior
    block per stage width, pooling, ``proj`` and the classifier. A
    subclass names its block class, the ``ModelConfig`` field that holds
    its stage widths and the name pattern of stage i's block."""

    kind = ""
    _pos_name = ""  # name prefix of the posterior
    _block = None
    _stage_field = ""
    _block_name = ""  # str.format pattern, filled with the 1-based stage index

    def __init__(self, config: ModelConfig, seed: int):
        config.validate()
        self.config = config
        self.store = ParamStore()
        rng = np.random.default_rng(seed)
        self.pre_fe: List[ConvBN] = []
        in_c = config.input_shape[0]
        for i, width in enumerate(config.pre_fe_channels, start=1):
            self.pre_fe.append(ConvBN(self.store, f"pre_fe.conv{i}", f"pre_fe.bn{i}",
                                      f"pre_fe.relu{i}", in_c, int(width), 3, rng=rng))
            in_c = int(width)
        self.blocks = []
        for i, width in enumerate(getattr(config, self._stage_field), start=1):
            self.blocks.append(self._block(self.store, self._block_name.format(i), in_c,
                                           int(width), stride=2, rng=rng))
            in_c = int(width)
        self.proj = DenseLayer(self.store, self._pos_name + ".proj", in_c, config.feature_dim, rng=rng)
        self.classifier = DenseLayer(
            self.store, "classifier", config.feature_dim, config.num_classes, rng=rng
        )
        self._gap_name = self._pos_name + ".gap"
        self._proj_relu_name = self._pos_name + ".proj_relu"

    def bn_layers(self) -> list:
        return [u.bn for u in self.pre_fe + [u for b in self.blocks for u in b.units]]

    def set_training(self, flag: bool) -> None:
        for bn in self.bn_layers():
            bn.set_training(flag)

    @contextmanager
    def eval_mode(self):
        """Every batch norm in eval mode inside the block, each one's
        training flag restored on leaving it."""
        bns = self.bn_layers()
        flags = [bn.training for bn in bns]
        self.set_training(False)
        try:
            yield
        finally:
            for bn, flag in zip(bns, flags):
                bn.training = flag

    def forward_pre_fe(self, x: Tensor) -> Tensor:
        for unit in self.pre_fe:
            x = unit.forward(x)
        return x

    def features_from_pre_fe(self, h: Tensor) -> Tensor:
        for b in self.blocks:
            h = b.forward(h)
        pooled = label(global_avg_pool(h), self._gap_name)
        return label(relu(self.proj.forward(pooled)), self._proj_relu_name)

    def forward_features(self, x: Tensor) -> Tensor:
        """Pooled feature vector [N, feature_dim]; the alignment target."""
        return self.features_from_pre_fe(self.forward_pre_fe(x))

    def classify(self, features: Tensor) -> Tensor:
        return self.classifier.forward(features)

    def forward_logits(self, x: Tensor) -> Tensor:
        return self.classify(self.forward_features(x))

    # --- structure description -------------------------------------------

    def architecture(self) -> List[ArchEntry]:
        """The ops of one batch-1, eval-mode forward pass, traced on a tape.

        Every non-leaf tape entry becomes one ArchEntry, in execution
        order, with per-sample shapes. Batch-norm training flags are
        restored afterwards; eval mode leaves parameters and running
        statistics untouched. No other tape may be active.
        """
        with self.eval_mode(), Tape() as tape:
            x = Tensor(np.zeros((1, *self.config.input_shape)), requires_grad=True)
            self.forward_logits(x)
        entries = tape.entries
        return [
            ArchEntry(e.name, _OP_KINDS.get(e.op, e.op), entries[e.inputs[0]].shape[1:],
                      e.shape[1:], e.layer)
            for e in entries
            if e.op != "leaf"
        ]


class CModel(_Model):
    """Deep residual cloud network."""

    kind = "cloud"
    _pos_name = "c_pos_fe"
    _block = ResidualBlock
    _stage_field = "c_stage_channels"
    _block_name = "c_pos_fe.stage{}.block1"


class EModel(_Model):
    """Lightweight edge network: four depthwise-separable stages."""

    kind = "edge"
    _pos_name = "e_pos_fe"
    _block = DepthwiseSeparableBlock
    _stage_field = "e_stage_channels"
    _block_name = "e_pos_fe.stage{}"


def build_model(config: ModelConfig, kind: str, seed: int):
    """Deterministically initialized model; same (config, seed) -> same bits."""
    if kind == "cloud":
        return CModel(config, seed)
    if kind == "edge":
        return EModel(config, seed)
    raise BuildError(f"unknown model kind: {kind!r} (expected 'cloud' or 'edge')")


def _pre_fe_names(store: ParamStore) -> list:
    return [n for n in store.names() if n.startswith(PRE_FE_PREFIX)]


def share_pre_fe(source: CModel, target: EModel) -> None:
    """Copy every pre_fe.* tensor from source to target (copy, not alias)."""
    src_names = _pre_fe_names(source.store)
    tgt_names = _pre_fe_names(target.store)
    if src_names != tgt_names:
        extra = next(iter(set(src_names) ^ set(tgt_names)))
        raise BuildError(f"pre_fe structure mismatch at entry {extra!r}")
    for name in src_names:
        src = source.store[name]
        tgt = target.store[name]
        if src.shape != tgt.shape:
            raise BuildError(
                f"pre_fe shape mismatch at {name!r}: {list(src.shape)} vs {list(tgt.shape)}"
            )
        tgt.data[...] = src.data.copy()


def freeze_pre_fe(model: _Model) -> None:
    """Flag pre_fe.* entries frozen and pin its batch norms to eval mode."""
    model.store.freeze_prefix(PRE_FE_PREFIX)
    for unit in model.pre_fe:
        unit.bn.freeze()
