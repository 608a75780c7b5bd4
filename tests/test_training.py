import json
import math

import numpy as np
import pytest

from edgediag.datagen import ConditionSpec, SampleSet, SplitCounts, fault_taxonomy, make_splits
from edgediag import layers, training
from edgediag.losses import KernelConfig, LossTerms, adaptive_weights, weights_from_norms
from edgediag.models import ModelConfig, build_model, freeze_pre_fe, share_pre_fe
from edgediag.training import (
    Adam,
    ConfusionMatrix,
    EpochReport,
    TrainConfig,
    TrainingDiverged,
    VARIANTS,
    cosine_lr,
    evaluate,
    one_hot,
    train_cloud,
    transfer_edge,
    write_reports,
)
from edgediag.tensor import NonFiniteError, Tape

TINY_MODEL = ModelConfig(
    input_shape=(2, 8, 8),
    num_classes=2,
    pre_fe_channels=(4,),
    c_stage_channels=(6, 8),
    e_stage_channels=(4, 4, 6, 6),
    feature_dim=8,
)

XFER_MODEL = ModelConfig(
    input_shape=(6, 32, 32),
    num_classes=3,
    pre_fe_channels=(6,),
    c_stage_channels=(8, 12),
    e_stage_channels=(6, 6, 8, 8),
    feature_dim=12,
)

SRC = ConditionSpec(speed=30.0, load=0.0, noise_sigma=0.2)
TGT = ConditionSpec(speed=20.0, load=1.0, noise_sigma=0.2)


def _toy_set(n_per_class=20, seed=0) -> SampleSet:
    rng = np.random.default_rng(seed)
    x0 = 0.5 + 0.1 * rng.standard_normal((n_per_class, 2, 8, 8))
    x1 = -0.5 + 0.1 * rng.standard_normal((n_per_class, 2, 8, 8))
    x = np.concatenate([x0, x1]).astype(np.float32)
    y = np.array([0] * n_per_class + [1] * n_per_class, dtype=np.int64)
    return SampleSet(x=x, y=y, cond=np.zeros(2 * n_per_class, dtype=np.int64), role="training")


def _xfer_fixture(seed=0, counts=SplitCounts(8, 4, 6)):
    splits = make_splits(SRC, TGT, fault_taxonomy(3), counts, seed=seed)
    c = build_model(XFER_MODEL, "cloud", seed)
    cloud_cfg = TrainConfig(batch_size=8, num_epoch=2, seed=seed)
    train_cloud(c, splits.d_training, cloud_cfg)
    return splits, c


# ---------------------------------------------------------------------------
# schedule

def test_cosine_lr_endpoints_and_midpoint():
    assert cosine_lr(0, 10, 1e-3, 1e-5) == pytest.approx(1e-3)
    assert cosine_lr(10, 10, 1e-3, 1e-5) == pytest.approx(1e-5)
    assert cosine_lr(5, 10, 1e-3, 1e-5) == pytest.approx((1e-3 + 1e-5) / 2)


# ---------------------------------------------------------------------------
# cloud training

def test_zero_epochs_is_noop():
    model = build_model(TINY_MODEL, "cloud", seed=1)
    snap = model.store.snapshot()
    reports = train_cloud(model, _toy_set(), TrainConfig(batch_size=8, num_epoch=0, seed=1))
    assert reports == []
    for name, arr in model.store.snapshot().items():
        assert arr.tobytes() == snap[name].tobytes()


def test_cloud_training_deterministic():
    final = []
    for _ in range(2):
        model = build_model(TINY_MODEL, "cloud", seed=3)
        train_cloud(model, _toy_set(seed=5), TrainConfig(batch_size=8, num_epoch=3, seed=3))
        final.append(model.store.snapshot())
    for name in final[0]:
        assert final[0][name].tobytes() == final[1][name].tobytes()


def test_cloud_learns_separable_toy_set():
    model = build_model(TINY_MODEL, "cloud", seed=2)
    data = _toy_set(n_per_class=20, seed=4)
    reports = train_cloud(
        model, data, TrainConfig(batch_size=8, num_epoch=30, lr_max=3e-3, seed=2)
    )
    assert reports[-1].train_accuracy >= 0.99
    acc, _ = evaluate(model, data)
    assert acc >= 0.99


def test_cloud_divergence_reports_epoch_and_batch():
    model = build_model(TINY_MODEL, "cloud", seed=0)
    data = _toy_set()
    data.x[0, 0, 0, 0] = np.inf
    with pytest.raises(TrainingDiverged, match="epoch 1"):
        train_cloud(model, data, TrainConfig(batch_size=40, num_epoch=1, seed=0))


@pytest.mark.parametrize("stage", ["cloud training", "transfer"])
def test_divergence_names_stage_epoch_and_step(stage, monkeypatch):
    if stage == "cloud training":
        model = build_model(TINY_MODEL, "cloud", seed=0)
        steps_per_epoch = 5  # 40 windows, batch 8
        run = lambda: train_cloud(model, _toy_set(), TrainConfig(batch_size=8, num_epoch=3))
    else:
        splits, c = _xfer_fixture(seed=1)
        steps_per_epoch = 2  # 12 target windows, batch 6
        run = lambda: transfer_edge(c, _shared_edge(c), splits.d_finetune_src,
                                    splits.d_finetune_tgt, TrainConfig(batch_size=6, num_epoch=3))
    calls = []
    plain = training.smoothed_cross_entropy

    def failing(*args):
        calls.append(None)
        if len(calls) == steps_per_epoch + 2:  # epoch 2, step index 1
            raise NonFiniteError("forced")
        return plain(*args)

    monkeypatch.setattr(training, "smoothed_cross_entropy", failing)
    with pytest.raises(TrainingDiverged) as info:
        run()
    assert (info.value.epoch, info.value.batch) == (2, 1)
    assert str(info.value) == f"{stage} diverged at epoch 2, batch 1: forced"


def test_cloud_rejects_mixed_conditions():
    data = _toy_set()
    data.cond[0] = 1
    with pytest.raises(ValueError, match="single condition"):
        train_cloud(build_model(TINY_MODEL, "cloud", 0), data, TrainConfig(num_epoch=1))


# ---------------------------------------------------------------------------
# optimizer / freezing

def test_adam_never_touches_frozen_entries():
    model = build_model(TINY_MODEL, "edge", seed=7)
    freeze_pre_fe(model)
    snap = model.store.snapshot()
    adam = Adam(model.store)
    rng = np.random.default_rng(0)
    for _ in range(10):
        grads = {n: rng.standard_normal(t.data.shape) for n, t in model.store.optimizable()}
        adam.step(1e-2, grads)
    for n, arr in snap.items():
        if n.startswith("pre_fe."):
            assert model.store[n].data.tobytes() == arr.tobytes()
    # the complement (nonzero gradients, not frozen) did move
    assert not np.array_equal(model.store["e_pos_fe.stage1.dw.weight"].data,
                              snap["e_pos_fe.stage1.dw.weight"])
    assert not np.array_equal(model.store["classifier.weight"].data, snap["classifier.weight"])


def test_adam_updates_move_nonfrozen_params():
    model = build_model(TINY_MODEL, "edge", seed=7)
    freeze_pre_fe(model)
    before = model.store["classifier.weight"].data.copy()
    adam = Adam(model.store)
    grads = {n: np.ones(t.data.shape) for n, t in model.store.optimizable()}
    adam.step(1e-2, grads)
    assert not np.array_equal(model.store["classifier.weight"].data, before)


# ---------------------------------------------------------------------------
# transfer

def test_transfer_requires_frozen_pre_fe():
    splits, c = _xfer_fixture()
    e = build_model(XFER_MODEL, "edge", 1)
    share_pre_fe(c, e)  # shared but not frozen
    with pytest.raises(ValueError, match="freeze"):
        transfer_edge(c, e, splits.d_finetune_src, splits.d_finetune_tgt,
                      TrainConfig(batch_size=6, num_epoch=1))


def test_transfer_rejects_unknown_variant():
    splits, c = _xfer_fixture()
    e = build_model(XFER_MODEL, "edge", 1)
    share_pre_fe(c, e)
    freeze_pre_fe(e)
    with pytest.raises(ValueError, match="variant"):
        transfer_edge(c, e, splits.d_finetune_src, splits.d_finetune_tgt,
                      TrainConfig(batch_size=6, num_epoch=1), variant="nope")


def test_transfer_preserves_frozen_pre_fe_bitwise():
    splits, c = _xfer_fixture()
    e = build_model(XFER_MODEL, "edge", 1)
    share_pre_fe(c, e)
    freeze_pre_fe(e)
    snap = {n: e.store[n].data.copy() for n in e.store.names() if n.startswith("pre_fe.")}
    transfer_edge(c, e, splits.d_finetune_src, splits.d_finetune_tgt,
                  TrainConfig(batch_size=6, num_epoch=4, seed=5))
    for n, arr in snap.items():
        assert e.store[n].data.tobytes() == arr.tobytes()
    # and the shared front block still computes bit-identical activations
    from edgediag.tensor import Tensor

    x = Tensor(splits.d_test.x[:4])
    c.set_training(False)
    assert c.forward_pre_fe(x).data.tobytes() == e.forward_pre_fe(x).data.tobytes()


def test_transfer_deterministic_and_wall_time_segregated(tmp_path):
    runs = []
    for _ in range(2):
        splits, c = _xfer_fixture(seed=2)
        e = build_model(XFER_MODEL, "edge", 3)
        share_pre_fe(c, e)
        freeze_pre_fe(e)
        reports = transfer_edge(c, e, splits.d_finetune_src, splits.d_finetune_tgt,
                                TrainConfig(batch_size=6, num_epoch=3, seed=5))
        path = tmp_path / f"m{len(runs)}.jsonl"
        write_reports(reports, path, tmp_path / f"t{len(runs)}.jsonl")
        runs.append((reports, path.read_bytes()))
    assert runs[0][1] == runs[1][1]  # metrics byte-identical
    rec = json.loads(runs[0][1].splitlines()[0])
    assert "wall_time_s" not in rec and "epoch" in rec


def test_degenerate_transfer_equals_wo_da_bit_for_bit(monkeypatch):
    # the full method with alpha pinned to 0 (no weighted epoch) and eps=0
    # must reproduce the cross-entropy-only ablation exactly: same loss
    # traces, same final weights
    results = []
    for mode in ("unweighted", "variant"):
        splits, c = _xfer_fixture(seed=4)
        e = build_model(XFER_MODEL, "edge", 9)
        share_pre_fe(c, e)
        freeze_pre_fe(e)
        cfg = TrainConfig(batch_size=6, num_epoch=5, seed=7, smoothing_epsilon=0.0)
        if mode == "unweighted":
            with monkeypatch.context() as m:
                m.setattr(training, "in_weighted_phase", lambda epoch, num_epoch: False)
                reports = transfer_edge(c, e, splits.d_finetune_src, splits.d_finetune_tgt,
                                        cfg, variant="proposed")
            assert all(r.alpha == 0.0 and r.beta == 1.0 for r in reports)
        else:
            reports = transfer_edge(c, e, splits.d_finetune_src, splits.d_finetune_tgt,
                                    cfg, variant="wo_domain_adaptation")
        results.append((reports, e.store.snapshot()))
    ra, rb = results[0][0], results[1][0]
    assert [r.loss_classify for r in ra] == [r.loss_classify for r in rb]
    assert [r.loss_feature for r in ra] == [r.loss_feature for r in rb]
    for name in results[0][1]:
        assert results[0][1][name].tobytes() == results[1][1][name].tobytes()


def test_transfer_schedule_switch_visible_in_reports():
    splits, c = _xfer_fixture(seed=1)
    e = build_model(XFER_MODEL, "edge", 2)
    share_pre_fe(c, e)
    freeze_pre_fe(e)
    reports = transfer_edge(c, e, splits.d_finetune_src, splits.d_finetune_tgt,
                            TrainConfig(batch_size=6, num_epoch=10, seed=3))
    for r in reports:
        if r.epoch <= 9:
            assert r.alpha > 0.0
        else:
            assert r.alpha == 0.0 and r.beta == 1.0


def _shared_edge(c, seed=9):
    e = build_model(XFER_MODEL, "edge", seed)
    share_pre_fe(c, e)
    freeze_pre_fe(e)
    return e


def test_weighted_step_replays_each_edge_conv_once(monkeypatch):
    calls = []
    plain = layers.custom_op

    def counting(op, inputs, out_data, backward_fn):
        slot = len(calls)
        calls.append(0)

        def bwd(g):
            calls[slot] += 1
            return backward_fn(g)

        out = plain(op, inputs, out_data, bwd if op == "conv2d" else backward_fn)
        if op != "conv2d" or out.node is None:
            calls.pop()  # untaped (precomputed) forwards never run backward
        return out

    splits, c = _xfer_fixture(seed=2)
    monkeypatch.setattr(layers, "custom_op", counting)
    reports = transfer_edge(c, _shared_edge(c), splits.d_finetune_src, splits.d_finetune_tgt,
                            TrainConfig(batch_size=6, num_epoch=2, seed=5))
    assert reports[0].w_a > 0.0 and reports[1].w_a == 0.0  # weighted, then not
    steps = 2 * math.ceil(len(splits.d_finetune_tgt) / 6)
    assert len(calls) == 8 * steps  # four depthwise-separable stages, two convs each
    assert set(calls) == {1}


@pytest.mark.parametrize("variant", ["proposed", "wo_adaptation_adjustment"])
def test_one_step_update_is_the_weighted_sum_of_two_passes(variant, monkeypatch):
    calls, steps = [], []
    plain_backward, plain_step = Tape.backward, Adam.step

    def logged_backward(tape, loss, targets):
        targets = list(targets)  # kept as node ids: parameters move to each new tape
        calls.append((tape, loss, [t.node for t in targets]))
        return plain_backward(tape, loss, targets)

    def logged_step(adam, lr, grads):
        steps.append({name: np.array(g, dtype=np.float64) for name, g in grads.items()})
        return plain_step(adam, lr, grads)

    splits, c = _xfer_fixture(seed=3)
    e = _shared_edge(c)
    names = [n for n, _ in e.store.optimizable()]
    monkeypatch.setattr(Tape, "backward", logged_backward)
    monkeypatch.setattr(Adam, "step", logged_step)
    transfer_edge(c, e, splits.d_finetune_src, splits.d_finetune_tgt,
                  TrainConfig(batch_size=6, num_epoch=10, seed=4), variant=variant)

    # the first step's weighted pass, checked against two full replays
    tape, seeds, targets = calls[2 if variant == "proposed" else 0]
    (l_f, alpha), (l_c, beta) = seeds
    feat = calls[0][2] if variant == "proposed" else []  # the short passes' one target
    g_f = plain_backward(tape, l_f, feat + targets)
    g_c = plain_backward(tape, l_c, feat + targets)
    if variant == "proposed":
        w = adaptive_weights(g_f, g_c, feat[0], LossTerms(l_f.item(), l_c.item()))
        assert (alpha, beta) == (w.alpha, w.beta)
    else:
        assert (alpha, beta) == (1.0, 1.0)
    for name, t in zip(names, targets):
        want = alpha * g_f[t].data.astype(np.float64) + beta * g_c[t].data.astype(np.float64)
        scale = max(float(np.max(np.abs(want))), 1e-12)
        assert float(np.max(np.abs(steps[0][name] - want))) <= 1e-6 * scale, name


def test_wo_aa_matches_proposed_in_symmetric_case():
    # alpha = beta = 1 exactly when both losses and both gradient norms agree
    w = weights_from_norms(0.8, 0.8, 2.0, 2.0)
    assert abs(w.alpha - 1.0) < 1e-6 and abs(w.beta - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# evaluation

def _balanced_test_set(k=4, per_class=5) -> SampleSet:
    rng = np.random.default_rng(0)
    n = k * per_class
    return SampleSet(
        x=rng.standard_normal((n, 6, 32, 32)).astype(np.float32),
        y=np.repeat(np.arange(k), per_class).astype(np.int64),
        cond=np.ones(n, dtype=np.int64),
        role="test",
    )


def test_constant_predictor_scores_one_over_k():
    cfg = ModelConfig(
        input_shape=(6, 32, 32), num_classes=4, pre_fe_channels=(4,),
        c_stage_channels=(4, 4), e_stage_channels=(4, 4, 4, 4), feature_dim=6,
    )
    model = build_model(cfg, "edge", 0)
    model.classifier.weight.data[...] = 0.0
    model.classifier.bias.data[...] = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.float32)
    data = _balanced_test_set(k=4)
    acc, conf = evaluate(model, data)
    assert acc == pytest.approx(0.25)
    assert np.all(conf.counts[:, 0] == 5)


def test_confusion_matrix_row_sums_and_trace():
    y_true = [0, 0, 1, 1, 2, 2]
    y_pred = [0, 1, 1, 1, 0, 2]
    conf = ConfusionMatrix.from_predictions(y_true, y_pred, 3)
    assert conf.row_sums().tolist() == [2, 2, 2]
    assert conf.accuracy == pytest.approx(np.trace(conf.counts) / conf.total)
    assert conf.total == 6


def test_evaluate_restores_bn_modes():
    model = build_model(TINY_MODEL, "edge", 0)
    model.set_training(True)
    evaluate(model, _toy_set(n_per_class=3))
    assert all(bn.training for bn in model.bn_layers())


def test_report_record_roundtrip():
    r = EpochReport(3, 0.5, 1.5, 0.9, 1.1, 1e-3, 0.8, 12.5)
    rec = r.to_record()
    assert rec["epoch"] == 3 and "wall_time_s" not in rec
    assert json.loads(json.dumps(rec)) == rec


def test_report_weights_are_trailing_fields():
    r = EpochReport(3, 0.5, 1.5, 0.9, 1.1, 1e-3, 0.8, 12.5)
    assert (r.w_a, r.w_b) == (0.0, 0.0)
    rec = EpochReport(3, 0.5, 1.5, 0.9, 1.1, 1e-3, 0.8, 12.5, 2.0, 0.25).to_record()
    assert (rec["w_a"], rec["w_b"]) == (2.0, 0.25)


def test_transfer_reports_gradient_norms_only_for_adaptive_steps():
    splits, c = _xfer_fixture(seed=1)
    cfg = TrainConfig(batch_size=6, num_epoch=10, seed=3)
    for variant in VARIANTS:
        reports = transfer_edge(c, _shared_edge(c, 2), splits.d_finetune_src,
                                splits.d_finetune_tgt, cfg, variant=variant)
        adaptive = [variant == "proposed" and r.epoch <= 9 for r in reports]
        assert [r.w_a > 0.0 and r.w_b > 0.0 for r in reports] == adaptive
        assert all(r.w_a == r.w_b == 0.0 for r, a in zip(reports, adaptive) if not a)


def test_one_hot_shape_and_values():
    out = one_hot([0, 2, 1], 3)
    assert out.shape == (3, 3)
    assert np.array_equal(out, np.eye(3, dtype=np.float32)[[0, 2, 1]])
