import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from gradcheck import check_grads, weighted_sum
from edgediag.losses import (
    KernelConfig,
    LossTerms,
    SmoothingConfig,
    adaptive_weights,
    in_weighted_phase,
    lmmd,
    smoothed_cross_entropy,
    weights_from_norms,
)
from edgediag.tensor import Tape, Tensor, custom_op

FIXED1 = KernelConfig(kernel_count=1, fixed_bandwidth=1.0)


def _random_instance(rng, max_n=6, max_d=4, num_classes=3):
    n = int(rng.integers(2, max_n + 1))
    m = int(rng.integers(2, max_n + 1))
    d = int(rng.integers(1, max_d + 1))
    fs = rng.standard_normal((n, d))
    ft = rng.standard_normal((m, d))
    ys = rng.integers(0, num_classes, n)
    yt = rng.integers(0, num_classes, m)
    return fs, ft, ys, yt


# ---------------------------------------------------------------------------
# lmmd

def test_lmmd_identical_batches_zero():
    rng = np.random.default_rng(0)
    f = rng.standard_normal((6, 3))
    y = np.array([0, 0, 1, 1, 2, 2])
    assert abs(lmmd(f, f, y, y)) <= 1e-9
    assert abs(lmmd(f, f, y, y, FIXED1)) <= 1e-9


def test_lmmd_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(50):
        fs, ft, ys, yt = _random_instance(rng)
        assert lmmd(fs, ft, ys, yt) >= -1e-9
        assert lmmd(fs, ft, ys, yt, FIXED1) >= -1e-9


def test_lmmd_hand_instance_matches_double_sum():
    # 2 classes, 2 samples per class per side, D=1, single bandwidth 1.0
    fs = np.array([[0.0], [0.4], [2.0], [2.5]])
    ft = np.array([[0.1], [0.6], [1.8], [2.2]])
    ys = np.array([0, 0, 1, 1])
    yt = np.array([0, 0, 1, 1])
    got = lmmd(fs, ft, ys, yt, FIXED1)
    want = oracles.lmmd_ref(fs, ft, ys, yt, 2, [1.0])
    assert abs(got - want) < 1e-10


@pytest.mark.parametrize("seed", range(25))
def test_lmmd_random_instances_match_oracle(seed):
    rng = np.random.default_rng(2000 + seed)
    fs, ft, ys, yt = _random_instance(rng)
    got = lmmd(fs, ft, ys, yt, FIXED1)
    want = oracles.lmmd_ref(fs, ft, ys, yt, 3, [1.0])
    assert abs(got - want) < 1e-10


def test_lmmd_multi_kernel_matches_oracle():
    rng = np.random.default_rng(42)
    fs, ft, ys, yt = _random_instance(rng)
    kcfg = KernelConfig(kernel_count=3, bandwidth_multiplier=2.0, fixed_bandwidth=1.0)
    got = lmmd(fs, ft, ys, yt, kcfg)
    want = oracles.lmmd_ref(fs, ft, ys, yt, 3, [0.5, 1.0, 2.0])
    assert abs(got - want) < 1e-10


def test_lmmd_symmetric_under_swap():
    rng = np.random.default_rng(3)
    for _ in range(10):
        fs, ft, ys, yt = _random_instance(rng)
        a = lmmd(fs, ft, ys, yt, FIXED1)
        b = lmmd(ft, fs, yt, ys, FIXED1)
        assert abs(a - b) <= 1e-9


def test_lmmd_absent_class_contributes_zero():
    fs = np.array([[0.0], [0.1], [5.0], [5.1]])
    ys = np.array([0, 0, 2, 2])
    ft = np.array([[0.05], [0.15], [9.0], [9.5]])
    yt = np.array([0, 0, 1, 1])  # class 2 missing on target, class 1 on source
    got = lmmd(fs, ft, ys, yt, FIXED1)
    only_class0 = oracles.lmmd_ref(fs[:2], ft[:2], [0, 0], [0, 0], 1, [1.0])
    assert abs(got - only_class0) < 1e-12


def test_lmmd_translation_toward_source_decreases():
    # target class clusters slide along a line onto the source clusters
    rng = np.random.default_rng(7)
    src = np.concatenate([rng.normal(0.0, 0.1, (5, 2)), rng.normal(3.0, 0.1, (5, 2))])
    ys = np.array([0] * 5 + [1] * 5)
    tgt0 = np.concatenate([rng.normal(0.0, 0.1, (5, 2)), rng.normal(3.0, 0.1, (5, 2))])
    shift = np.array([1.5, -1.0])
    vals = []
    for t in [1.0, 0.8, 0.6, 0.4, 0.2, 0.0]:
        vals.append(lmmd(src, tgt0 + t * shift, ys, ys, FIXED1))
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_lmmd_small_batch_rejected():
    f = np.zeros((1, 2))
    g = np.zeros((3, 2))
    with pytest.raises(ValueError, match="2 samples"):
        lmmd(f, g, [0], [0, 0, 0])
    with pytest.raises(ValueError, match="2 samples"):
        lmmd(g, f, [0, 0, 0], [0])


def test_lmmd_degenerate_batch_falls_back():
    f = np.ones((3, 2))
    y = np.array([0, 0, 1])
    assert abs(lmmd(f, f, y, y)) <= 1e-9  # zero median -> bandwidth 1.0, no crash


@pytest.mark.parametrize(
    "seed, ys, yt",
    [(s, [0, 0, 1, 1], [0, 1, 1, 0, 1]) for s in range(5)]
    # class 2 only on the source side, class 3 only on the target side
    + [(5, [0, 0, 1, 1, 2], [0, 1, 1, 0, 1, 3])],
    ids=[str(s) for s in range(5)] + ["one_sided_classes"],
)
def test_lmmd_gradient_finite_difference(seed, ys, yt):
    rng = np.random.default_rng(3000 + seed)
    ys, yt = np.array(ys), np.array(yt)
    fs = rng.standard_normal((len(ys), 3))
    ft = rng.standard_normal((len(yt), 3))
    kcfg = KernelConfig(kernel_count=3, bandwidth_multiplier=2.0, fixed_bandwidth=1.5)
    bws = [0.75, 1.5, 3.0]
    num_classes = int(max(ys.max(), yt.max())) + 1

    def engine(ts):
        return lmmd(ts[0], ts[1], ys, yt, kcfg)

    def oracle(ar):
        return np.asarray([oracles.lmmd_ref(ar[0], ar[1], ys, yt, num_classes, bws)])

    check_grads(engine, oracle, [fs, ft], seed=seed)

    # rows of a class missing from the other side take no part in the loss
    with Tape() as tape:
        a = Tensor(fs, requires_grad=True)
        b = Tensor(ft, requires_grad=True)
        g = tape.backward(engine([a, b]), [a, b])
    assert np.all(g[a].data[~np.isin(ys, yt)] == 0.0)
    assert np.all(g[b].data[~np.isin(yt, ys)] == 0.0)


def test_lmmd_tensor_scalar_shape():
    rng = np.random.default_rng(4)
    fs, ft, ys, yt = _random_instance(rng)
    with Tape() as tape:
        a = Tensor(fs, requires_grad=True)
        b = Tensor(ft, requires_grad=True)
        out = lmmd(a, b, ys, yt, FIXED1)
        assert out.shape == (1,)
        g = tape.backward(out, [a, b])
    assert g[a].shape == a.shape and g[b].shape == b.shape


# ---------------------------------------------------------------------------
# smoothed cross entropy

def test_ce_confident_correct_is_tiny():
    logits = np.array([[20.0, 0.0, 0.0]])
    labels = np.array([[1.0, 0.0, 0.0]])
    val = smoothed_cross_entropy(logits, labels, SmoothingConfig(0.0, 3))
    assert val < 1e-6


def test_ce_uniform_prediction_is_log_k():
    for k in (2, 5, 9):
        logits = np.zeros((3, k))
        labels = np.eye(k)[np.zeros(3, dtype=int)]
        val = smoothed_cross_entropy(logits, labels, SmoothingConfig(0.0, k))
        assert abs(val - math.log(k)) < 1e-9


def test_ce_hand_evaluated_smoothed_case():
    # softmax output (0.8, 0.2), true class 0, eps=0.1
    logits = np.log(np.array([[0.8, 0.2]]))
    labels = np.array([[1.0, 0.0]])
    val = smoothed_cross_entropy(logits, labels, SmoothingConfig(0.1, 2))
    want = -(0.95 * math.log(0.77) + 0.05 * math.log(0.23))
    assert abs(val - want) < 1e-12


def test_ce_reduces_to_plain_cross_entropy():
    rng = np.random.default_rng(6)
    for _ in range(20):
        logits = rng.standard_normal((5, 4)) * 3
        labels = np.eye(4)[rng.integers(0, 4, 5)]
        got = smoothed_cross_entropy(logits, labels, SmoothingConfig(0.0, 4))
        p = oracles.softmax_ref(logits)
        want = float(np.mean(-np.log(np.sum(p * labels, axis=1))))
        assert abs(got - want) < 1e-7


def test_ce_matches_reference_with_smoothing():
    rng = np.random.default_rng(7)
    for eps in (0.05, 0.1, 0.3):
        logits = rng.standard_normal((6, 5)) * 2
        labels = np.eye(5)[rng.integers(0, 5, 6)]
        got = smoothed_cross_entropy(logits, labels, SmoothingConfig(eps, 5))
        want = oracles.cross_entropy_ref(logits, labels, eps)
        assert abs(got - want) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_ce_gradient_finite_difference(seed):
    rng = np.random.default_rng(4000 + seed)
    logits = rng.standard_normal((4, 3)) * 2
    labels = np.eye(3)[rng.integers(0, 3, 4)]
    eps = [0.0, 0.1, 0.2, 0.0, 0.3][seed]

    def engine(ts):
        return smoothed_cross_entropy(ts[0], labels, SmoothingConfig(eps, 3))

    def oracle(ar):
        return np.asarray([oracles.cross_entropy_ref(ar[0], labels, eps)])

    check_grads(engine, oracle, [logits], seed=seed)


def test_ce_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="match"):
        smoothed_cross_entropy(np.zeros((2, 3)), np.zeros((2, 4)), SmoothingConfig(0.1, 3))


# ---------------------------------------------------------------------------
# adaptive weights

def test_weights_symmetry():
    w = weights_from_norms(0.7, 0.7, 1.3, 1.3)
    assert abs(w.alpha - w.beta) < 1e-6


def test_weights_hand_case():
    w = weights_from_norms(2.0, 1.0, 3.0, 1.0, delta=1e-8)
    assert abs(w.alpha - 1.125) < 1e-6
    assert abs(w.beta - 0.75) < 1e-6


def test_weights_delta_guards_zero_denominators():
    w = weights_from_norms(1.0, 0.0, 1.0, 0.0)
    assert np.isfinite(w.alpha) and np.isfinite(w.beta)
    w = weights_from_norms(0.0, 0.0, 0.0, 0.0)
    assert np.isfinite(w.alpha) and np.isfinite(w.beta)


def test_weights_nonpositive_delta_rejected():
    with pytest.raises(ValueError, match="delta"):
        weights_from_norms(1.0, 1.0, 1.0, 1.0, delta=-1e-8)
    with pytest.raises(ValueError, match="delta"):
        weights_from_norms(1.0, 1.0, 1.0, 1.0, delta=0.0)


def test_weights_scale_covariant_exact_fractions():
    # the delta=0 formula is exactly invariant under (l, w) -> (c*l, c*w)
    def alpha_beta(l_a, l_b, w_a, w_b):
        share = w_a + w_b
        total = l_a + l_b
        return (w_a / share) * (total / l_a), (w_b / share) * (total / l_b)

    rng = np.random.default_rng(8)
    for _ in range(20):
        vals = [Fraction(int(v), 100) for v in rng.integers(1, 500, 4)]
        c = Fraction(int(rng.integers(1, 50)), 7)
        a0, b0 = alpha_beta(*vals)
        a1, b1 = alpha_beta(*[c * v for v in vals])
        assert a0 == a1 and b0 == b1


def test_weights_scale_covariant_numeric():
    rng = np.random.default_rng(9)
    for _ in range(200):
        l_a, l_b, w_a, w_b = rng.uniform(0.05, 5.0, 4)
        c = rng.uniform(0.5, 20.0)
        w0 = weights_from_norms(l_a, l_b, w_a, w_b)
        w1 = weights_from_norms(c * l_a, c * l_b, c * w_a, c * w_b)
        assert abs(w0.alpha - w1.alpha) / max(w0.alpha, 1e-12) < 1e-5
        assert abs(w0.beta - w1.beta) / max(w0.beta, 1e-12) < 1e-5


def test_adaptive_weights_from_gradient_maps():
    with Tape() as tape:
        x = Tensor([1.0, 2.0], requires_grad=True)
        feat = custom_op("double", (x,), 2.0 * x.data, lambda g: (2.0 * g,))
        f = feat.data.astype(np.float64)
        l_f = custom_op("sum_of_squares", (feat,), np.sum(f * f).reshape(1), lambda g: (2.0 * f * g,))
        l_c = weighted_sum(feat)
        gf = tape.backward(l_f, [feat])
        gc = tape.backward(l_c, [feat])
        terms = LossTerms(l_f.item(), l_c.item())
        w = adaptive_weights(gf, gc, feat, terms)
    # grad of l_f at feat is 2*feat = [4, 8], norm sqrt(80); grad of l_c is ones, norm sqrt(2)
    assert abs(w.w_a - math.sqrt(80.0)) < 1e-4
    assert abs(w.w_b - math.sqrt(2.0)) < 1e-6
    ref = weights_from_norms(terms.loss_feature, terms.loss_classify, w.w_a, w.w_b)
    assert abs(w.alpha - ref.alpha) < 1e-12


# ---------------------------------------------------------------------------
# weighted-phase schedule

@pytest.mark.parametrize(
    "num_epoch,last_weighted", [(10, 9), (100, 90), (20, 18), (7, 6), (1000, 900), (13, 11)]
)
def test_weighted_phase_boundary_exact(num_epoch, last_weighted):
    assert in_weighted_phase(last_weighted, num_epoch)
    if last_weighted + 1 <= num_epoch:
        assert not in_weighted_phase(last_weighted + 1, num_epoch)


def test_weighted_phase_epoch_range_enforced():
    with pytest.raises(ValueError):
        in_weighted_phase(0, 10)
    with pytest.raises(ValueError):
        in_weighted_phase(11, 10)


def test_loss_terms_must_be_finite():
    with pytest.raises(ValueError, match="finite"):
        LossTerms(float("nan"), 1.0).validate()
