"""Cloud-side supervised training and edge-side knowledge transfer.

Both stages run one epoch loop, ``_fit``: per step it records the
stage's forward pass on a fresh tape, runs one full backward pass of
alpha * l_f + beta * l_c (weights applied in float64 at the seeds; the
cloud stage has no l_f and alpha = 0, beta = 1), applies one Adam update
at the cosine learning rate, and maps a non-finite value to
``TrainingDiverged``. A stage supplies only its batches and its step.

Transfer runs after the front block has been shared and frozen. Each
iteration draws one class-balanced source batch and one target batch and
computes the alignment loss between the (fixed) cloud features of the
source batch and the edge features of the target batch, and the
smoothed cross entropy of the target batch. The loss weights come from
the gradient norms of the two losses at the shared feature node; two
short backward passes that stop at that node give them, replaying only
the loss and classifier ops. Since the weights are constants for
backpropagation, one full backward pass of alpha * l_f + beta * l_c
(weights applied in float64 at the seeds) then gives the parameter
update. After 90% of the epochs the schedule drops the alignment term
and trains on the classification loss alone, with a single backward
pass per step.

Because the frozen front block and the cloud model never change during
transfer, their activations for the fixed fine-tuning pool are
precomputed once; the per-iteration tape starts at the edge posterior
block. This is bit-identical to recomputing them every iteration.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .datagen import SampleSet
from .losses import (
    KernelConfig,
    LossTerms,
    SmoothingConfig,
    adaptive_weights,
    in_weighted_phase,
    lmmd,
    smoothed_cross_entropy,
)
from .models import PRE_FE_PREFIX, CModel, EModel
from .tensor import NonFiniteError, Tape, Tensor

__all__ = [
    "TrainConfig",
    "EpochReport",
    "ConfusionMatrix",
    "TrainingDiverged",
    "Adam",
    "cosine_lr",
    "one_hot",
    "train_cloud",
    "transfer_edge",
    "evaluate",
    "write_reports",
    "VARIANTS",
]

VARIANTS = ("proposed", "wo_domain_adaptation", "wo_adaptation_adjustment")


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the epoch and batch it happened in."""

    def __init__(self, stage: str, epoch: int, batch: int, detail: str):
        super().__init__(
            f"{stage} diverged at epoch {epoch}, batch {batch}: {detail}"
        )
        self.epoch = epoch
        self.batch = batch


@dataclass
class TrainConfig:
    """Hyperparameters for one training stage (cloud or transfer)."""

    batch_size: int = 32
    num_epoch: int = 100
    lr_max: float = 1e-3
    lr_min: float = 0.0
    seed: int = 0
    smoothing_epsilon: float = 0.1
    delta: float = 1e-8
    kernel: KernelConfig = field(default_factory=KernelConfig)

    def validate(self) -> None:
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.num_epoch < 0:
            raise ValueError(f"num_epoch must be >= 0, got {self.num_epoch}")
        if self.lr_max < self.lr_min:
            raise ValueError("lr_max must be >= lr_min")
        if not 0.0 <= self.smoothing_epsilon < 1.0:
            raise ValueError(f"smoothing_epsilon must be in [0, 1), got {self.smoothing_epsilon}")
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        self.kernel.validate()


@dataclass
class EpochReport:
    """Per-epoch training record. Wall time is kept out of to_record so
    metrics files stay byte-reproducible; writers segregate it.

    ``w_a``/``w_b`` are the epoch means of the gradient norms at the
    feature node over the steps whose weights were computed adaptively,
    0.0 in an epoch without such a step."""

    epoch: int
    loss_feature: float
    loss_classify: float
    alpha: float
    beta: float
    lr: float
    train_accuracy: float
    wall_time_s: float
    w_a: float = 0.0
    w_b: float = 0.0

    def to_record(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "wall_time_s"}


@dataclass
class ConfusionMatrix:
    """K x K counts; rows are true labels, columns predictions."""

    counts: np.ndarray

    @classmethod
    def from_predictions(cls, y_true, y_pred, num_classes: int) -> "ConfusionMatrix":
        counts = np.zeros((num_classes, num_classes), dtype=np.int64)
        for t, p in zip(np.asarray(y_true), np.asarray(y_pred)):
            counts[int(t), int(p)] += 1
        return cls(counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.counts)) / max(self.total, 1)

    def row_sums(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def to_text(self, class_names: Optional[Sequence[str]] = None) -> str:
        k = self.counts.shape[0]
        names = list(class_names) if class_names else [str(i) for i in range(k)]
        width = max(6, max(len(n) for n in names) + 1)
        header = " " * width + "".join(f"{n:>{width}}" for n in names)
        lines = [header]
        for i, row in enumerate(self.counts):
            lines.append(f"{names[i]:>{width}}" + "".join(f"{v:>{width}}" for v in row))
        lines.append(f"accuracy: {self.accuracy:.4f}")
        return "\n".join(lines)


def cosine_lr(t: int, total: int, lr_max: float, lr_min: float) -> float:
    """lr(t) = lr_min + 0.5 (lr_max - lr_min)(1 + cos(pi t / total)), t from 0."""
    if total <= 0:
        return lr_max
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * t / total))


def one_hot(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


class Adam:
    """Adam over a ParamStore; frozen and non-trainable entries are never touched."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, store):
        self.store = store
        self.t = 0
        self._m: dict = {}
        self._v: dict = {}

    def step(self, lr: float, grads: dict) -> None:
        """Apply one update from {param name: gradient array}."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, tensor in self.store.optimizable():
            g = grads.get(name)
            if g is None:
                continue
            assert not self.store.is_frozen(name), f"optimizer touched frozen entry {name}"
            g = np.asarray(g, dtype=np.float64)
            m = self._m.get(name)
            if m is None:
                m = np.zeros(tensor.data.shape, dtype=np.float64)
                self._m[name] = m
                self._v[name] = np.zeros(tensor.data.shape, dtype=np.float64)
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            tensor.data[...] = (tensor.data.astype(np.float64) - update).astype(np.float32)


def _balanced_batch_indices(rng, class_pools, batch_size: int) -> np.ndarray:
    """Class-balanced draw: every class contributes floor(b/K) or one more."""
    k = len(class_pools)
    base, rem = divmod(batch_size, k)
    counts = np.full(k, base, dtype=np.int64)
    if rem:
        counts[rng.permutation(k)[:rem]] += 1
    picked = []
    for pool, take in zip(class_pools, counts):
        if take == 0:
            continue
        picked.append(rng.choice(pool, size=take, replace=take > len(pool)))
    idx = np.concatenate(picked)
    return idx[rng.permutation(len(idx))]


def _class_pools(labels: np.ndarray) -> list:
    classes = sorted(set(labels.tolist()))
    return [np.flatnonzero(labels == c) for c in classes]


# ---------------------------------------------------------------------------
# the epoch loop both stages share

class _Step(NamedTuple):
    """One recorded forward pass, as a stage's step function returns it."""
    l_f: Optional[Tensor]  # alignment loss; None in a stage without one
    l_c: Tensor            # classification loss
    alpha: float
    beta: float
    logits: Tensor
    labels: np.ndarray
    norms: Optional[tuple] = None  # (w_a, w_b) of an adaptively weighted step


def _column_means(rows: list, width: int) -> list:
    return [float(np.mean(col)) for col in zip(*rows)] if rows else [0.0] * width


def _fit(stage: str, store, cfg: TrainConfig, batches, step) -> list:
    """Train the optimizable entries of ``store``; one EpochReport per epoch.

    ``batches()`` yields one epoch's batches; ``step(tape, epoch, batch)``
    records the forward pass on ``tape`` and returns a :class:`_Step`.
    Reports hold per-step means; ``w_a``/``w_b`` average the adaptive steps.
    """
    adam = Adam(store)
    params = store.optimizable()
    targets = [t for _, t in params]
    reports = []
    for epoch in range(1, cfg.num_epoch + 1):
        t0 = time.perf_counter()
        lr = cosine_lr(epoch - 1, cfg.num_epoch, cfg.lr_max, cfg.lr_min)
        rows, norms, hits, seen = [], [], 0, 0
        for i, batch in enumerate(batches()):
            try:
                with Tape() as tape:
                    s = step(tape, epoch, batch)
                    seeds = [(s.l_f, s.alpha)] if s.alpha != 0.0 else []
                    g = tape.backward(seeds + [(s.l_c, s.beta)], targets)
                    grads = {name: g[t].data for name, t in params}
            except NonFiniteError as err:
                raise TrainingDiverged(stage, epoch, i, str(err))
            adam.step(lr, grads)
            l_f = 0.0 if s.l_f is None else s.l_f.item()
            rows.append((l_f, s.l_c.item(), s.alpha, s.beta))
            if s.norms is not None:
                norms.append(s.norms)
            hits += int(np.sum(np.argmax(s.logits.data, axis=1) == s.labels))
            seen += len(s.labels)
        loss_feature, loss_classify, alpha, beta = _column_means(rows, 4)
        w_a, w_b = _column_means(norms, 2)
        reports.append(EpochReport(
            epoch, loss_feature, loss_classify, alpha, beta, lr,
            hits / max(seen, 1), time.perf_counter() - t0, w_a, w_b,
        ))
    return reports


# ---------------------------------------------------------------------------
# stage 1: cloud training

def train_cloud(model: CModel, d_training: SampleSet, cfg: TrainConfig) -> list:
    """Supervised training on source-condition data; returns epoch reports."""
    cfg.validate()
    if np.any(d_training.cond != d_training.cond[0]):
        raise ValueError("cloud training data must come from a single condition")
    smoothing = SmoothingConfig(cfg.smoothing_epsilon, model.config.num_classes)
    rng = np.random.default_rng([cfg.seed, 17])
    labels_1h = one_hot(d_training.y, model.config.num_classes)
    model.set_training(True)

    def batches():
        n = len(d_training)
        order = rng.permutation(n)
        for b0 in range(0, n, cfg.batch_size):
            idx = order[b0:b0 + cfg.batch_size]
            if len(idx) >= 2:  # batch norm needs more than one row
                yield Tensor(d_training.x[idx]), idx

    def step(tape, epoch, batch):
        xb, idx = batch
        logits = model.forward_logits(xb)
        loss = smoothed_cross_entropy(logits, labels_1h[idx], smoothing)
        return _Step(None, loss, 0.0, 1.0, logits, d_training.y[idx])

    return _fit("cloud training", model.store, cfg, batches, step)


# ---------------------------------------------------------------------------
# stage 2: edge knowledge transfer

def _batched_no_tape(forward, x: np.ndarray) -> np.ndarray:
    return np.concatenate([forward(Tensor(x[i:i + 64])).data for i in range(0, len(x), 64)])


def transfer_edge(
    c_model: CModel,
    e_model: EModel,
    d_finetune_src: SampleSet,
    d_finetune_tgt: SampleSet,
    cfg: TrainConfig,
    variant: str = "proposed",
) -> list:
    """Fine-tune the edge posterior block and classifier (stage 2).

    ``variant`` selects the full method or one of its two ablations:
    "wo_domain_adaptation" trains on cross entropy alone and
    "wo_adaptation_adjustment" sums both losses with unit weights for
    the whole run. A step with alpha == 0 seeds only the classification
    loss, so it updates exactly as a cross-entropy-only step.
    """
    cfg.validate()
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    frozen = [n for n in e_model.store.names() if n.startswith(PRE_FE_PREFIX)]
    if not frozen or not all(e_model.store.is_frozen(n) for n in frozen):
        raise ValueError("transfer requires share_pre_fe + freeze_pre_fe first")

    k = e_model.config.num_classes
    smoothing = SmoothingConfig(cfg.smoothing_epsilon, k)

    # fixed reference activations: the cloud features of the source pool and
    # the frozen front block's output on the target pool (bit-identical to
    # recomputing per iteration; both paths are eval-mode and frozen)
    c_model.set_training(False)
    f_src_all = _batched_no_tape(c_model.forward_features, d_finetune_src.x)
    h_tgt_all = _batched_no_tape(e_model.forward_pre_fe, d_finetune_tgt.x)
    e_model.set_training(True)

    rng = np.random.default_rng([cfg.seed, 23])
    src_pools = _class_pools(d_finetune_src.y)
    tgt_pools = _class_pools(d_finetune_tgt.y)
    tgt_1h = one_hot(d_finetune_tgt.y, k)
    iters = max(1, math.ceil(len(d_finetune_tgt) / cfg.batch_size))

    def batches():
        for _ in range(iters):
            yield (_balanced_batch_indices(rng, src_pools, cfg.batch_size),
                   _balanced_batch_indices(rng, tgt_pools, cfg.batch_size))

    def step(tape, epoch, batch):
        src_idx, tgt_idx = batch
        y_tgt = d_finetune_tgt.y[tgt_idx]
        feat = e_model.features_from_pre_fe(Tensor(h_tgt_all[tgt_idx]))
        logits = e_model.classify(feat)
        l_c = smoothed_cross_entropy(logits, tgt_1h[tgt_idx], smoothing)
        l_f = lmmd(Tensor(f_src_all[src_idx]), feat, d_finetune_src.y[src_idx], y_tgt, cfg.kernel)
        if variant == "wo_adaptation_adjustment":
            return _Step(l_f, l_c, 1.0, 1.0, logits, y_tgt)
        if variant == "wo_domain_adaptation" or not in_weighted_phase(epoch, cfg.num_epoch):
            return _Step(l_f, l_c, 0.0, 1.0, logits, y_tgt)
        # short passes: stop at feat, above the edge blocks
        w = adaptive_weights(
            tape.backward(l_f, [feat]), tape.backward(l_c, [feat]),
            feat, LossTerms(l_f.item(), l_c.item()), cfg.delta,
        )
        return _Step(l_f, l_c, w.alpha, w.beta, logits, y_tgt, (w.w_a, w.w_b))

    return _fit("transfer", e_model.store, cfg, batches, step)


# ---------------------------------------------------------------------------
# evaluation

def evaluate(model, d_test: SampleSet):
    """Argmax accuracy and confusion matrix in eval mode; restores BN modes."""
    modes = [(bn, bn.training) for bn in model.bn_layers()]
    model.set_training(False)
    try:
        logits = _batched_no_tape(model.forward_logits, d_test.x)
    finally:
        for bn, was_training in modes:
            bn.set_training(was_training)
    preds = np.argmax(logits, axis=1)
    conf = ConfusionMatrix.from_predictions(d_test.y, preds, model.config.num_classes)
    return conf.accuracy, conf


def write_reports(reports, metrics_path, timing_path=None) -> None:
    """One JSON object per line; wall times go to a separate timing file."""
    with open(metrics_path, "w", encoding="utf-8") as fh:
        for r in reports:
            fh.write(json.dumps(r.to_record(), sort_keys=True) + "\n")
    if timing_path is not None:
        with open(timing_path, "w", encoding="utf-8") as fh:
            for r in reports:
                fh.write(
                    json.dumps({"epoch": r.epoch, "wall_time_s": r.wall_time_s}) + "\n"
                )
