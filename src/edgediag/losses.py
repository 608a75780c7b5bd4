"""Alignment and classification losses plus the adaptive weighting rule.

``lmmd`` is the class-conditional (local) maximum mean discrepancy: a
biased MMD^2 V-statistic computed per class between source and target
feature batches, with per-class weights normalized to sum to 1 on each
side, summed over the classes present on both sides. The kernel is a
mean of Gaussians whose bandwidths are spread geometrically around a
median-heuristic base. The biased estimator is provably nonnegative,
which the tests rely on.

``lmmd`` and ``smoothed_cross_entropy`` evaluate in float64 end to end.
Called with plain arrays they return a float; called with engine tensors
they record a single fused node (float32 result, analytic backward) on
the active tape. Bandwidths are treated as constants when
differentiating, the usual convention for kernel alignment losses.

The weighting rule turns the two loss values and the two gradient norms
at the shared feature node into coefficients:

    alpha = w_a/(w_a+w_b+delta) * (l_a+l_b)/(l_a+delta)
    beta  = w_b/(w_a+w_b+delta) * (l_a+l_b)/(l_b+delta)

and the total objective uses the weighted sum for the first 90% of
epochs, then the classification term alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tensor import GradientMap, Tensor, custom_op, grad_l2_norm

__all__ = [
    "KernelConfig",
    "LossTerms",
    "AdaptiveWeights",
    "SmoothingConfig",
    "lmmd",
    "smoothed_cross_entropy",
    "adaptive_weights",
    "weights_from_norms",
    "in_weighted_phase",
]

LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class KernelConfig:
    """Multi-kernel Gaussian family for the alignment loss.

    Bandwidths are base * multiplier**j for j centered on zero
    (kernel_count of them). The base is the median of pairwise squared
    distances over the joint batch unless ``fixed_bandwidth`` pins it;
    a degenerate all-identical batch falls back to base 1.0.
    """

    kernel_count: int = 5
    bandwidth_multiplier: float = 2.0
    fixed_bandwidth: Optional[float] = None

    def validate(self) -> None:
        if self.kernel_count < 1:
            raise ValueError(f"kernel_count must be >= 1, got {self.kernel_count}")
        if self.bandwidth_multiplier <= 0:
            raise ValueError("bandwidth_multiplier must be positive")
        if self.fixed_bandwidth is not None and self.fixed_bandwidth <= 0:
            raise ValueError("fixed_bandwidth must be positive")

    def bandwidths(self, base: float) -> list:
        self.validate()
        k = self.kernel_count
        return [base * self.bandwidth_multiplier ** (j - k // 2) for j in range(k)]


@dataclass
class LossTerms:
    """The two scalar objectives of one training step."""

    loss_feature: float
    loss_classify: float

    def validate(self) -> None:
        if not (np.isfinite(self.loss_feature) and np.isfinite(self.loss_classify)):
            raise ValueError(
                f"loss terms must be finite, got {self.loss_feature}, {self.loss_classify}"
            )


@dataclass
class AdaptiveWeights:
    alpha: float
    beta: float
    w_a: float
    w_b: float


@dataclass(frozen=True)
class SmoothingConfig:
    epsilon: float = 0.1
    num_classes: int = 5

    def validate(self) -> None:
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")


def _as_array(x) -> np.ndarray:
    return np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64)


# ---------------------------------------------------------------------------
# local maximum mean discrepancy

def _pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    an = np.sum(a * a, axis=1)
    bn = np.sum(b * b, axis=1)
    d2 = an[:, None] + bn[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0)


def _class_weight_matrices(y_src, y_tgt, n, m):
    """P = sum_c w_c w_c^T, Q likewise for the target, R the cross block."""
    P = np.zeros((n, n))
    Q = np.zeros((m, m))
    R = np.zeros((n, m))
    shared = sorted(set(y_src.tolist()) & set(y_tgt.tolist()))
    for c in shared:
        ws = (y_src == c).astype(np.float64)
        wt = (y_tgt == c).astype(np.float64)
        ws /= ws.sum()
        wt /= wt.sum()
        P += np.outer(ws, ws)
        Q += np.outer(wt, wt)
        R += np.outer(ws, wt)
    return P, Q, R


def lmmd(f_src, f_tgt, y_src, y_tgt, kcfg: KernelConfig = KernelConfig()):
    """Class-local MMD^2 between source and target feature batches.

    Labels are integer class ids; classes absent from either side
    contribute zero. Returns a float for array inputs, or a scalar
    tensor recorded on the active tape for Tensor inputs (gradients
    flow to both feature batches; bandwidths are constants).
    """
    fs = _as_array(f_src)
    ft = _as_array(f_tgt)
    ys = np.asarray(y_src, dtype=np.int64)
    yt = np.asarray(y_tgt, dtype=np.int64)
    if fs.ndim != 2 or ft.ndim != 2 or fs.shape[1] != ft.shape[1]:
        raise ValueError(f"lmmd: feature shapes {fs.shape} and {ft.shape} do not align")
    n, m = fs.shape[0], ft.shape[0]
    if n < 2 or m < 2:
        raise ValueError(f"lmmd needs at least 2 samples per side, got {n} and {m}")
    if ys.shape != (n,) or yt.shape != (m,):
        raise ValueError("lmmd: label lengths do not match feature batches")

    d_ss = _pairwise_sq_dists(fs, fs)
    d_tt = _pairwise_sq_dists(ft, ft)
    d_st = _pairwise_sq_dists(fs, ft)

    if kcfg.fixed_bandwidth is not None:
        base = float(kcfg.fixed_bandwidth)
        kcfg.validate()
    else:
        joint = np.concatenate(
            [
                d_ss[np.triu_indices(n, k=1)],
                d_tt[np.triu_indices(m, k=1)],
                d_st.ravel(),
            ]
        )
        base = float(np.median(joint)) if joint.size else 0.0
        if base <= 0.0:
            base = 1.0  # degenerate identical batch
    bandwidths = kcfg.bandwidths(base)

    P, Q, R = _class_weight_matrices(ys, yt, n, m)

    value = 0.0
    kernels = []
    for bw in bandwidths:
        k_ss = np.exp(-d_ss / bw)
        k_tt = np.exp(-d_tt / bw)
        k_st = np.exp(-d_st / bw)
        kernels.append((bw, k_ss, k_tt, k_st))
        value += float(np.sum(P * k_ss) + np.sum(Q * k_tt) - 2.0 * np.sum(R * k_st))
    value /= len(bandwidths)

    if not (isinstance(f_src, Tensor) or isinstance(f_tgt, Tensor)):
        return value

    src_t = f_src if isinstance(f_src, Tensor) else Tensor(fs)
    tgt_t = f_tgt if isinstance(f_tgt, Tensor) else Tensor(ft)

    def bwd(g):
        gs = float(g.reshape(()))
        d_fs = np.zeros_like(fs)
        d_ft = np.zeros_like(ft)
        for bw, k_ss, k_tt, k_st in kernels:
            M_ss = P * k_ss
            M_tt = Q * k_tt
            N = R * k_st
            r_ss = M_ss.sum(axis=1)
            r_tt = M_tt.sum(axis=1)
            n_row = N.sum(axis=1)
            n_col = N.sum(axis=0)
            d_fs += (-4.0 / bw) * (r_ss[:, None] * fs - M_ss @ fs) \
                + (4.0 / bw) * (n_row[:, None] * fs - N @ ft)
            d_ft += (-4.0 / bw) * (r_tt[:, None] * ft - M_tt @ ft) \
                + (4.0 / bw) * (n_col[:, None] * ft - N.T @ fs)
        scale = gs / len(kernels)
        return (
            d_fs * scale if src_t.requires_grad else None,
            d_ft * scale if tgt_t.requires_grad else None,
        )

    return custom_op("lmmd", (src_t, tgt_t), np.asarray([value]), bwd)


# ---------------------------------------------------------------------------
# label smoothing and cross entropy

def _check_rows_stochastic(rows: np.ndarray, what: str) -> None:
    if rows.ndim != 2:
        raise ValueError(f"{what} must be [N, K], got shape {rows.shape}")
    err = np.max(np.abs(rows.sum(axis=1) - 1.0)) if rows.size else 0.0
    if err > 1e-4:
        raise ValueError(f"{what} rows must sum to 1 (worst error {err:.3g})")


def smoothed_cross_entropy(logits, labels_onehot, cfg: SmoothingConfig):
    """Mean over the batch of -sum_k smooth(label)_k * log(smooth(softmax(logits))_k).

    smooth(r) = (1-eps) * r + eps/K is applied to the prediction and the
    label rows alike; the log input is clamped at 1e-12. Differentiates
    w.r.t. the logits only.
    """
    cfg.validate()
    z = _as_array(logits)
    t = _as_array(labels_onehot)
    if z.ndim != 2 or z.shape != t.shape:
        raise ValueError(f"cross entropy: logits {z.shape} and labels {t.shape} must match")
    if z.shape[1] != cfg.num_classes:
        raise ValueError(f"cross entropy: {z.shape[1]} columns but num_classes={cfg.num_classes}")
    _check_rows_stochastic(t, "label")

    zs = z - z.max(axis=1, keepdims=True)
    e = np.exp(zs)
    p = e / e.sum(axis=1, keepdims=True)
    eps = cfg.epsilon
    k = cfg.num_classes
    p_s = (1.0 - eps) * p + eps / k
    t_s = (1.0 - eps) * t + eps / k
    p_c = np.maximum(p_s, LOG_FLOOR)
    value = float(np.mean(-np.sum(t_s * np.log(p_c), axis=1)))

    if not isinstance(logits, Tensor):
        return value

    batch = z.shape[0]
    # c_k = t_s/p_s where the clamp is inactive, else 0 (saturated log)
    c = np.where(p_s >= LOG_FLOOR, t_s / p_c, 0.0)

    def bwd(g):
        gs = float(g.reshape(()))
        inner = np.sum(c * p, axis=1, keepdims=True)
        dz = (1.0 - eps) * p * (inner - c) / batch
        return (dz * gs,)

    return custom_op("smoothed_cross_entropy", (logits,), np.asarray([value]), bwd)


# ---------------------------------------------------------------------------
# adaptive weighting and the epoch schedule

def weights_from_norms(
    l_a: float, l_b: float, w_a: float, w_b: float, delta: float = 1e-8
) -> AdaptiveWeights:
    """Closed-form weights from loss magnitudes and gradient norms."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    l_a, l_b, w_a, w_b = abs(float(l_a)), abs(float(l_b)), float(w_a), float(w_b)
    share = w_a + w_b + delta
    total = l_a + l_b
    alpha = (w_a / share) * (total / (l_a + delta))
    beta = (w_b / share) * (total / (l_b + delta))
    return AdaptiveWeights(alpha=alpha, beta=beta, w_a=w_a, w_b=w_b)


def adaptive_weights(
    grad_feature: GradientMap,
    grad_classify: GradientMap,
    node,
    terms: LossTerms,
    delta: float = 1e-8,
) -> AdaptiveWeights:
    """Weights from two backward passes evaluated at the same shared node.

    ``node`` is the edge model's feature output feeding both objectives;
    w_a and w_b are the L2 norms of each loss's gradient there, l_a and
    l_b the loss magnitudes.
    """
    terms.validate()
    w_a = grad_l2_norm(grad_feature, node)
    w_b = grad_l2_norm(grad_classify, node)
    return weights_from_norms(terms.loss_feature, terms.loss_classify, w_a, w_b, delta)


def in_weighted_phase(epoch: int, num_epoch: int) -> bool:
    """True while epoch <= 0.9 * num_epoch, compared exactly in integers."""
    if not 1 <= epoch <= num_epoch:
        raise ValueError(f"epoch must be in 1..{num_epoch}, got {epoch}")
    return 10 * int(epoch) <= 9 * int(num_epoch)

