"""Acceptance suite: one test per shipping criterion.

Each test prints a [PASS]/[FAIL] line (run pytest with -s to see them
inline; the summary also lands in the captured output). The slow grid
criteria are marked `slow`; the whole suite is meant to run green with
plain `pytest`.
"""

import json
import time

import numpy as np
import pytest

import oracles
from gradcheck import check_grads
from edgediag import cli
from edgediag.archive import ArchiveError, Manifest, load_archive, load_subset, save_archive
from edgediag.complexity import analyze, bench_inference, conv_stats, dense_stats
from edgediag.config import ExperimentConfig
from edgediag.datagen import ConditionSpec, SplitCounts, fault_taxonomy, make_splits
from edgediag.layers import (
    BatchNormLayer, Conv2dLayer, DenseLayer, DepthwiseSeparableBlock, ParamStore, ResidualBlock,
    global_avg_pool,
)
from edgediag.losses import KernelConfig, lmmd, weights_from_norms
from edgediag.models import ModelConfig, build_model, freeze_pre_fe, share_pre_fe
from edgediag.tensor import Tensor, add, relu
from edgediag.training import TrainConfig, train_cloud, transfer_edge

PASSED = "[PASS]"


def report(criterion: str, detail: str) -> None:
    print(f"{PASSED} {criterion}: {detail}")


def _kink_safe_draw(draw_fn, pre_acts_fn, seed, margin=0.01, tries=40):
    """Redraw until every ReLU pre-activation sits clear of the kink.

    Central differences at h=1e-3 move pre-activations by at most a few
    multiples of h here, so a 0.01 margin guarantees no sign crossing
    during the perturbations and keeps the check meaningful.
    """
    best = None
    for attempt in range(tries):
        ctx, arrays = draw_fn(np.random.default_rng([seed, attempt]))
        closest = min(float(np.min(np.abs(p))) for p in pre_acts_fn(arrays))
        if best is None or closest > best[0]:
            best = (closest, ctx, arrays)
        if closest > margin:
            break
    return best[1], best[2]


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness everywhere, < 2 min

def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    checks = 0

    def track(err):
        nonlocal worst, checks
        worst = max(worst, err)
        checks += 1

    for seed in range(20):
        rng = np.random.default_rng(10_000 + seed)
        shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        a = rng.standard_normal(shape)
        b = rng.standard_normal(shape)
        track(check_grads(lambda ts: add(ts[0], ts[1]), lambda ar: ar[0] + ar[1], [a, b], seed=seed))
        track(check_grads(lambda ts: global_avg_pool(ts[0]),
                          lambda ar: oracles.global_avg_pool_ref(ar[0]), [np.stack([a, b])[None]], seed=seed))
        away = np.where(np.abs(a) < 0.05, a + 0.2, a)
        track(check_grads(lambda ts: relu(ts[0]), lambda ar: oracles.relu_ref(ar[0]), [away], seed=seed))

    # every layer kind
    for seed in range(4):
        rng = np.random.default_rng(20_000 + seed)
        x = rng.standard_normal((2, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3)) * 0.5

        def conv_engine(ts):
            layer = Conv2dLayer(ParamStore(), "c", 2, 3, 3, stride=1 + seed % 2)
            layer.weight = ts[1]
            return layer.forward(ts[0])

        stride = 1 + seed % 2
        track(check_grads(
            conv_engine,
            lambda ar: oracles.conv2d_ref(ar[0], ar[1], None, stride=stride, padding=1),
            [x, w], seed=seed,
        ))

        xg = rng.standard_normal((1, 4, 4, 4))
        wg = rng.standard_normal((4, 1, 3, 3)) * 0.5

        def dw_engine(ts):
            layer = Conv2dLayer(ParamStore(), "d", 4, 4, 3, groups=4)
            layer.weight = ts[1]
            return layer.forward(ts[0])

        track(check_grads(
            dw_engine,
            lambda ar: oracles.conv2d_ref(ar[0], ar[1], None, padding=1, groups=4),
            [xg, wg], seed=seed,
        ))

        xd = rng.standard_normal((3, 4))
        wd = rng.standard_normal((5, 4)) * 0.5
        bd = rng.standard_normal(5) * 0.2

        def dense_engine(ts):
            layer = DenseLayer(ParamStore(), "f", 4, 5)
            layer.weight, layer.bias = ts[1], ts[2]
            return layer.forward(ts[0])

        track(check_grads(dense_engine, lambda ar: oracles.dense_ref(*ar), [xd, wd, bd], seed=seed))

        xb = rng.standard_normal((3, 2, 3, 3))
        gm = rng.uniform(0.5, 1.5, 2)
        bt = rng.standard_normal(2) * 0.3

        def bn_train_engine(ts):
            bn = BatchNormLayer(ParamStore(), "b", 2)
            bn.gamma, bn.beta = ts[1], ts[2]
            return bn.forward(ts[0])

        track(check_grads(
            bn_train_engine,
            lambda ar: oracles.batchnorm_ref(ar[0], ar[1], ar[2], 1e-5, training=True),
            [xb, gm, bt], seed=seed,
        ))

        rm = rng.standard_normal(2) * 0.2
        rv = rng.uniform(0.5, 1.5, 2)

        def bn_eval_engine(ts):
            bn = BatchNormLayer(ParamStore(), "b", 2)
            bn.gamma, bn.beta = ts[1], ts[2]
            bn.running_mean.data[...] = rm.astype(np.float32)
            bn.running_var.data[...] = rv.astype(np.float32)
            bn.set_training(False)
            return bn.forward(ts[0])

        track(check_grads(
            bn_eval_engine,
            lambda ar: oracles.batchnorm_ref(
                ar[0], ar[1], ar[2], 1e-5,
                running_mean=rm.astype(np.float32), running_var=rv.astype(np.float32),
                training=False),
            [xb, gm, bt], seed=seed,
        ))

        def res_oracle(ar):
            h = oracles.conv2d_ref(ar[0], ar[1], None, stride=2, padding=1)
            h = oracles.batchnorm_ref(h, np.ones(3), np.zeros(3), 1e-5, training=True)
            h = oracles.relu_ref(h)
            h = oracles.conv2d_ref(h, ar[2], None, padding=1)
            h = oracles.batchnorm_ref(h, np.ones(3), np.zeros(3), 1e-5, training=True)
            sc = oracles.conv2d_ref(ar[0], ar[3], None, stride=2)
            sc = oracles.batchnorm_ref(sc, np.ones(3), np.zeros(3), 1e-5, training=True)
            return oracles.relu_ref(h + sc)

        def res_pre_activations(ar):
            h = oracles.conv2d_ref(ar[0], ar[1], None, stride=2, padding=1)
            pre1 = oracles.batchnorm_ref(h, np.ones(3), np.zeros(3), 1e-5, training=True)
            h = oracles.conv2d_ref(oracles.relu_ref(pre1), ar[2], None, padding=1)
            h = oracles.batchnorm_ref(h, np.ones(3), np.zeros(3), 1e-5, training=True)
            sc = oracles.conv2d_ref(ar[0], ar[3], None, stride=2)
            sc = oracles.batchnorm_ref(sc, np.ones(3), np.zeros(3), 1e-5, training=True)
            return [pre1, h + sc]

        def draw_res(sub):
            store = ParamStore()
            block = ResidualBlock(store, "r", 2, 3, stride=2, rng=sub)
            arrays = [
                sub.standard_normal((2, 2, 4, 4)),
                *(unit.conv.weight.data.astype(np.float64) for unit in block.units),
            ]
            return block, arrays

        res, res_arrays = _kink_safe_draw(draw_res, res_pre_activations, 30_000 + seed)

        def res_engine(ts):
            for unit, w in zip(res.units, ts[1:]):
                unit.conv.weight = w
            return res.forward(ts[0])

        track(check_grads(res_engine, res_oracle, res_arrays, seed=seed))

        def dws_oracle(ar):
            h = oracles.conv2d_ref(ar[0], ar[1], None, padding=1, groups=2)
            h = oracles.batchnorm_ref(h, np.ones(2), np.zeros(2), 1e-5, training=True)
            h = oracles.relu_ref(h)
            h = oracles.conv2d_ref(h, ar[2], None)
            h = oracles.batchnorm_ref(h, np.ones(3), np.zeros(3), 1e-5, training=True)
            return oracles.relu_ref(h)

        def dws_pre_activations(ar):
            h = oracles.conv2d_ref(ar[0], ar[1], None, padding=1, groups=2)
            pre1 = oracles.batchnorm_ref(h, np.ones(2), np.zeros(2), 1e-5, training=True)
            h = oracles.conv2d_ref(oracles.relu_ref(pre1), ar[2], None)
            pre2 = oracles.batchnorm_ref(h, np.ones(3), np.zeros(3), 1e-5, training=True)
            return [pre1, pre2]

        def draw_dws(sub):
            store = ParamStore()
            block = DepthwiseSeparableBlock(store, "s", 2, 3, rng=sub)
            arrays = [
                sub.standard_normal((2, 2, 4, 4)),
                *(unit.conv.weight.data.astype(np.float64) for unit in block.units),
            ]
            return block, arrays

        dws, dws_arrays = _kink_safe_draw(draw_dws, dws_pre_activations, 40_000 + seed)

        def dws_engine(ts):
            for unit, w in zip(dws.units, ts[1:]):
                unit.conv.weight = w
            return dws.forward(ts[0])

        track(check_grads(dws_engine, dws_oracle, dws_arrays, seed=seed))

    elapsed = time.perf_counter() - t0
    assert worst < 1e-4
    assert elapsed < 120.0
    report("criterion 1",
           f"{checks} finite-difference checks, worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: LMMD oracle equivalence, < 30 s

def test_criterion_2_lmmd_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    fixed = KernelConfig(kernel_count=1, fixed_bandwidth=1.0)
    worst = 0.0
    for _ in range(100):
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        d = int(rng.integers(1, 5))
        fs = rng.standard_normal((n, d))
        ft = rng.standard_normal((m, d))
        ys = rng.integers(0, 3, n)
        yt = rng.integers(0, 3, m)
        got = lmmd(fs, ft, ys, yt, fixed)
        want = oracles.lmmd_ref(fs, ft, ys, yt, 3, [1.0])
        worst = max(worst, abs(got - want))
        assert abs(got - want) < 1e-10
        assert got >= -1e-9
        same = min(n, m)
        zero = lmmd(fs[:same], fs[:same], ys[:same], ys[:same], fixed) if same >= 2 else 0.0
        assert abs(zero) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report("criterion 2", f"100 instances, worst oracle gap {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: adaptive-weight closed form, < 5 s

def test_criterion_3_adaptive_weights():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    delta = 1e-8
    worst = 0.0
    for _ in range(1000):
        l_a, l_b, w_a, w_b = rng.uniform(1e-4, 10.0, 4)
        w = weights_from_norms(l_a, l_b, w_a, w_b, delta)
        alpha = (w_a / (w_a + w_b + delta)) * ((l_a + l_b) / (l_a + delta))
        beta = (w_b / (w_a + w_b + delta)) * ((l_a + l_b) / (l_b + delta))
        worst = max(worst, abs(w.alpha - alpha) / alpha, abs(w.beta - beta) / beta)
        assert abs(w.alpha - alpha) / alpha < 1e-6
        assert abs(w.beta - beta) / beta < 1e-6
    sym = weights_from_norms(0.3, 0.3, 1.7, 1.7, delta)
    assert abs(sym.alpha - sym.beta) < 1e-6
    guarded = weights_from_norms(0.0, 0.0, 0.0, 0.0, delta)
    assert np.isfinite(guarded.alpha) and np.isfinite(guarded.beta)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report("criterion 3", f"1000 tuples, worst rel err {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# shared tiny transfer fixture for criteria 4 and 5

XFER_MODEL = ModelConfig(
    input_shape=(6, 32, 32),
    num_classes=3,
    pre_fe_channels=(6,),
    c_stage_channels=(8, 12),
    e_stage_channels=(6, 6, 8, 8),
    feature_dim=12,
)


@pytest.fixture(scope="module")
def full_transfer():
    src = ConditionSpec(30.0, 0.0, 0.3)
    tgt = ConditionSpec(20.0, 1.0, 0.3)
    splits = make_splits(src, tgt, fault_taxonomy(3), SplitCounts(10, 4, 6), seed=3)
    c_model = build_model(XFER_MODEL, "cloud", 3)
    train_cloud(c_model, splits.d_training, TrainConfig(batch_size=8, num_epoch=2, seed=3))
    e_model = build_model(XFER_MODEL, "edge", 4)
    share_pre_fe(c_model, e_model)
    freeze_pre_fe(e_model)
    shared_snapshot = {
        n: e_model.store[n].data.copy()
        for n in e_model.store.names() if n.startswith("pre_fe.")
    }
    reports = transfer_edge(
        c_model, e_model, splits.d_finetune_src, splits.d_finetune_tgt,
        TrainConfig(batch_size=8, num_epoch=100, seed=5), variant="proposed",
    )
    return c_model, e_model, reports, shared_snapshot, splits


def test_criterion_4_schedule_switch(full_transfer):
    _, _, reports, _, _ = full_transfer
    assert len(reports) == 100
    for r in reports:
        total = r.alpha * r.loss_feature + r.beta * r.loss_classify
        if r.epoch <= 90:
            assert r.alpha > 0.0, f"epoch {r.epoch} lost its weighted phase"
        else:
            assert r.alpha == 0.0 and r.beta == 1.0
            assert total == r.loss_classify
    report("criterion 4", "weighted phase through epoch 90, classify-only from 91 (num_epoch=100)")


def test_criterion_5_freeze_share_contracts(full_transfer):
    c_model, e_model, _, shared_snapshot, splits = full_transfer
    for name, arr in shared_snapshot.items():
        assert e_model.store[name].data.tobytes() == arr.tobytes()
    c_model.set_training(False)
    probes = Tensor(splits.d_test.x[:8])
    hc = c_model.forward_pre_fe(probes)
    he = e_model.forward_pre_fe(probes)
    assert hc.data.tobytes() == he.data.tobytes()
    report("criterion 5",
           "pre-FE tensors bit-identical after a full transfer; activations bit-equal on probes")


# ---------------------------------------------------------------------------
# criterion 6: ablation ordering on the default task (the slow one)

@pytest.mark.slow
def test_criterion_6_ablation_ordering(tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig()
    seeds = list(range(5))
    accs = cli.run_grid(cfg, seeds, str(tmp_path / "grid"))
    elapsed = time.perf_counter() - t0
    prop = float(np.mean(accs["proposed"]))
    wo_aa = float(np.mean(accs["wo_adaptation_adjustment"]))
    wo_da = float(np.mean(accs["wo_domain_adaptation"]))
    detail = (f"proposed {prop:.3f} > wo-adaptation {wo_aa:.3f} > wo-domain {wo_da:.3f}, "
              f"margin {100 * (prop - wo_da):.1f} pts, {elapsed / 60:.1f} min")
    assert prop > wo_aa > wo_da, detail
    assert prop - wo_da >= 0.05, detail
    assert elapsed < 1800.0, detail
    report("criterion 6", detail)


# ---------------------------------------------------------------------------
# criterion 7: lightweight ratios and measured latency ordering

@pytest.mark.slow
def test_criterion_7_lightweight_ratios():
    cfg = ModelConfig()
    cloud = build_model(cfg, "cloud", 0)
    edge = build_model(cfg, "edge", 0)
    sc, se = analyze(cloud), analyze(edge)
    p_ratio = se.total_params / sc.total_params
    f_ratio = se.total_flops / sc.total_flops
    assert p_ratio <= 0.10
    assert f_ratio <= 0.30
    bench_c = bench_inference(cloud, repeats=10, iters=1000, warmup=100)
    bench_e = bench_inference(edge, repeats=10, iters=1000, warmup=100)
    assert bench_e.mean_ms < bench_c.mean_ms
    report("criterion 7",
           f"params ratio {p_ratio:.3%}, flops ratio {f_ratio:.3%}, "
           f"latency edge {bench_e.mean_ms:.2f} ms < cloud {bench_c.mean_ms:.2f} ms")


# ---------------------------------------------------------------------------
# criterion 8: complexity analyzer exactness

def test_criterion_8_analyzer_exactness():
    dense = DenseLayer(ParamStore(), "d", 128, 10)
    assert dense_stats(dense) == (1290, 2570)
    conv = Conv2dLayer(ParamStore(), "c", 3, 8, 3)
    assert conv_stats(conv, (8, 8, 8)) == (216, 2 * 8 * 8 * 8 * 27)
    store = ParamStore()
    dw = Conv2dLayer(store, "dw", 8, 8, 3, groups=8)
    pw = Conv2dLayer(store, "pw", 8, 16, 1)
    assert conv_stats(dw, (8, 4, 4))[0] + conv_stats(pw, (16, 4, 4))[0] == 200
    for kind in ("cloud", "edge"):
        model = build_model(ModelConfig(), kind, 0)
        stats = analyze(model)
        assert stats.total_params == model.store.element_count()
    report("criterion 8", "hand counts exact; per-layer params sum to the store for both models")


# ---------------------------------------------------------------------------
# criterion 9: serialization round-trips and corruption detection

def test_criterion_9_serialization(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "w.edgewts"
    for trial in range(1000):
        store = ParamStore()
        for i in range(int(rng.integers(1, 4))):
            shape = tuple(int(d) for d in rng.integers(1, 4, size=int(rng.integers(1, 3))))
            store.add(f"t{i}", Tensor(rng.standard_normal(shape).astype(np.float32)))
        manifest = Manifest(kind="edge", config_hash=f"h{trial}", seed=trial)
        save_archive(store, manifest, path)
        loaded = load_archive(path)
        assert loaded.names() == store.names()
        for name in store.names():
            assert loaded[name].data.tobytes() == store[name].data.tobytes()

    big = build_model(ModelConfig(), "cloud", 1)
    save_archive(big.store, Manifest(kind="cloud", config_hash="x"), path)
    blob = bytearray(path.read_bytes())
    corrupt = tmp_path / "corrupt.edgewts"
    detected = 0
    trials = 300
    for _ in range(trials):
        pos = int(rng.integers(0, len(blob)))
        bit = int(rng.integers(0, 8))
        mutated = bytearray(blob)
        mutated[pos] ^= 1 << bit
        corrupt.write_bytes(bytes(mutated))
        try:
            load_archive(corrupt)
        except ArchiveError:
            detected += 1
    assert detected == trials

    cloud = build_model(ModelConfig(), "cloud", 2)
    edge_mem = build_model(ModelConfig(), "edge", 3)
    share_pre_fe(cloud, edge_mem)
    save_archive(cloud.store, Manifest(kind="cloud", config_hash="x"), path)
    edge_arch = build_model(ModelConfig(), "edge", 3)
    sub = load_subset(path, "pre_fe.")
    for name in sub.names():
        edge_arch.store[name].data[...] = sub[name].data
    for name in edge_mem.store.names():
        assert edge_mem.store[name].data.tobytes() == edge_arch.store[name].data.tobytes()
    report("criterion 9",
           f"1000 round-trips bit-exact; {detected}/{trials} bit flips detected; "
           "archive sharing equals in-memory sharing")


# ---------------------------------------------------------------------------
# criterion 10: end-to-end determinism of the reproduce command

TINY_GRID_CFG = """
model.pre_fe_channels = 6
model.c_stage_channels = 8,12
model.e_stage_channels = 6,6,8,8
model.feature_dim = 12
model.num_classes = 3
cloud.num_epoch = 2
transfer.num_epoch = 10
data.n_train = 8
data.n_finetune = 4
data.n_test = 6
"""


@pytest.mark.slow
def test_criterion_10_reproduce_determinism(tmp_path):
    cfg = ExperimentConfig.from_text(TINY_GRID_CFG)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cli.run_grid(cfg, [0, 1], str(out))
        outs.append(out)
    compared = 0
    for rel in sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file()):
        if str(rel).startswith("timings"):
            continue  # wall-time lives only here, segregated by design
        a = (outs[0] / rel).read_bytes()
        b = (outs[1] / rel).read_bytes()
        assert a == b, f"{rel} differs between identical runs"
        compared += 1
    assert compared >= 10
    rows = (outs[0] / "reports" / "accuracy.jsonl").read_text().splitlines()
    assert len(rows) == 6 and all(json.loads(r) for r in rows)
    report("criterion 10", f"{compared} files byte-identical across two reproduce runs")
