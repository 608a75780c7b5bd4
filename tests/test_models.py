import tracemalloc

import numpy as np
import pytest

from gradcheck import weighted_sum
from edgediag import layers
from edgediag.complexity import analyze
from edgediag.layers import BuildError
from edgediag.losses import SmoothingConfig, smoothed_cross_entropy
from edgediag.models import ModelConfig, build_model, freeze_pre_fe, share_pre_fe
from edgediag.tensor import NonFiniteError, Tape, Tensor, relu
from edgediag.training import _batched_no_tape, one_hot

CFG = ModelConfig()

SMALL = ModelConfig(
    input_shape=(2, 16, 16),
    num_classes=3,
    pre_fe_channels=(4,),
    c_stage_channels=(6, 8),
    e_stage_channels=(4, 6, 6, 8),
    feature_dim=8,
)


def test_build_determinism_bit_identical():
    a = build_model(CFG, "edge", seed=42)
    b = build_model(CFG, "edge", seed=42)
    for (na, ta), (nb, tb) in zip(a.store.items(), b.store.items()):
        assert na == nb
        assert ta.data.tobytes() == tb.data.tobytes()


def test_build_different_seeds_differ():
    a = build_model(CFG, "cloud", seed=1)
    b = build_model(CFG, "cloud", seed=2)
    assert a.store["pre_fe.conv1.weight"].data.tobytes() != b.store["pre_fe.conv1.weight"].data.tobytes()


def test_edge_logits_shape_contract():
    model = build_model(CFG, "edge", seed=0)
    model.set_training(False)
    x = Tensor(np.random.default_rng(0).standard_normal((3, 6, 32, 32)).astype(np.float32))
    out = model.forward_logits(x)
    assert out.shape == (3, CFG.num_classes)


def test_cloud_logits_shape_contract():
    model = build_model(CFG, "cloud", seed=0)
    model.set_training(False)
    x = Tensor(np.random.default_rng(1).standard_normal((2, 6, 32, 32)).astype(np.float32))
    assert model.forward_logits(x).shape == (2, CFG.num_classes)


def test_unknown_kind_rejected():
    with pytest.raises(BuildError, match="kind"):
        build_model(CFG, "fog", seed=0)


def test_invalid_stage_spec_names_field():
    bad = ModelConfig(e_stage_channels=(8, 8, 8))
    with pytest.raises(BuildError, match="e_stage_channels"):
        build_model(bad, "edge", seed=0)
    with pytest.raises(BuildError, match="num_classes"):
        build_model(ModelConfig(num_classes=1), "cloud", seed=0)


def test_param_ratio_under_default_config():
    c = build_model(CFG, "cloud", seed=0)
    e = build_model(CFG, "edge", seed=0)
    ratio = e.store.element_count() / c.store.element_count()
    assert ratio <= 0.10
    assert c.store.element_count() >= 10 * e.store.element_count()


def test_param_ordering_any_valid_config():
    c = build_model(SMALL, "cloud", seed=3)
    e = build_model(SMALL, "edge", seed=3)
    assert e.store.element_count() < c.store.element_count()


def test_feature_dims_equal_across_models():
    c = build_model(CFG, "cloud", seed=0)
    e = build_model(CFG, "edge", seed=0)
    c.set_training(False)
    e.set_training(False)
    x = Tensor(np.random.default_rng(2).standard_normal((2, 6, 32, 32)).astype(np.float32))
    fc = c.forward_features(x)
    fe = e.forward_features(x)
    assert fc.shape == fe.shape == (2, CFG.feature_dim)


def test_zero_input_zero_stem_finite():
    model = build_model(CFG, "edge", seed=0)
    for unit in model.pre_fe:
        unit.conv.weight.data[...] = 0.0
    model.set_training(False)
    x = Tensor(np.zeros((2, 6, 32, 32), dtype=np.float32))
    out = model.forward_features(x)  # NonFiniteError would propagate from the engine
    assert np.all(np.isfinite(out.data))


def test_pre_fe_structural_identity():
    for cfg in (CFG, SMALL):
        c = build_model(cfg, "cloud", seed=9)
        e = build_model(cfg, "edge", seed=10)
        c_names = [n for n in c.store.names() if n.startswith("pre_fe.")]
        e_names = [n for n in e.store.names() if n.startswith("pre_fe.")]
        assert c_names == e_names
        for n in c_names:
            assert c.store[n].shape == e.store[n].shape


def test_share_pre_fe_copies_bit_equal():
    c = build_model(CFG, "cloud", seed=1)
    e = build_model(CFG, "edge", seed=2)
    share_pre_fe(c, e)
    for n in c.store.names():
        if n.startswith("pre_fe."):
            assert c.store[n].data.tobytes() == e.store[n].data.tobytes()


def test_share_pre_fe_no_aliasing():
    c = build_model(CFG, "cloud", seed=1)
    e = build_model(CFG, "edge", seed=2)
    share_pre_fe(c, e)
    snap = e.store["pre_fe.conv1.weight"].data.copy()
    c.store["pre_fe.conv1.weight"].data[...] += 1.0
    assert np.array_equal(e.store["pre_fe.conv1.weight"].data, snap)


def test_share_pre_fe_structure_mismatch_reported():
    c = build_model(CFG, "cloud", seed=1)
    e = build_model(ModelConfig(pre_fe_channels=(12, 12, 12)), "edge", seed=2)
    with pytest.raises(BuildError, match="pre_fe"):
        share_pre_fe(c, e)


def test_share_pre_fe_shape_mismatch_reported():
    c = build_model(CFG, "cloud", seed=1)
    e = build_model(ModelConfig(pre_fe_channels=(12, 16)), "edge", seed=2)
    with pytest.raises(BuildError, match="pre_fe"):
        share_pre_fe(c, e)


def test_shared_pre_fe_activations_bit_exact():
    c = build_model(CFG, "cloud", seed=1)
    e = build_model(CFG, "edge", seed=2)
    share_pre_fe(c, e)
    freeze_pre_fe(e)
    c.set_training(False)
    e.set_training(False)
    x = Tensor(np.random.default_rng(3).standard_normal((2, 6, 32, 32)).astype(np.float32))
    hc = c.forward_pre_fe(x)
    he = e.forward_pre_fe(x)
    assert hc.data.tobytes() == he.data.tobytes()


def test_freeze_flags_and_bn_mode():
    e = build_model(CFG, "edge", seed=0)
    freeze_pre_fe(e)
    for n in e.store.names():
        assert e.store.is_frozen(n) == n.startswith("pre_fe.")
    for unit in e.pre_fe:
        assert unit.bn.frozen and not unit.bn.training
    e.set_training(True)
    for unit in e.pre_fe:
        assert not unit.bn.training  # frozen BN stays in eval
    for b in e.blocks:
        assert all(unit.bn.training for unit in b.units)


def test_frozen_params_still_get_gradients():
    e = build_model(CFG, "edge", seed=0)
    freeze_pre_fe(e)
    e.set_training(True)
    x = Tensor(np.random.default_rng(4).standard_normal((2, 6, 32, 32)).astype(np.float32))
    w = e.store["pre_fe.conv1.weight"]
    with Tape() as tape:
        loss = weighted_sum(e.forward_logits(x))
        g = tape.backward(loss, [w])
    assert np.any(g[w].data != 0.0)  # skipped at update time, not detached


@pytest.mark.parametrize("kind", ["cloud", "edge"])
def test_untaped_logits_equal_taped_at_batch_64(kind):
    model = build_model(CFG, kind, seed=5)
    rng = np.random.default_rng(6)
    for bn in model.bn_layers():
        bn.running_mean.data[...] = rng.standard_normal(bn.channels) * 0.1
        bn.running_var.data[...] = rng.uniform(0.5, 2.0, bn.channels)
    model.set_training(False)
    x = rng.standard_normal((64, *CFG.input_shape)).astype(np.float32)
    untaped = model.forward_logits(Tensor(x)).data
    with Tape():
        taped = model.forward_logits(Tensor(x, requires_grad=True)).data
    assert untaped.tobytes() == taped.tobytes()


def _randomize_bn(model, rng):
    for bn in model.bn_layers():
        for t in (bn.running_mean, bn.gamma, bn.beta):
            t.data[...] = rng.standard_normal(bn.channels)
        bn.running_var.data[...] = rng.uniform(0.2, 3.0, bn.channels)


def _layer_ops(monkeypatch) -> list:
    """Names of the ops layers.py records through custom_op, in call order."""
    ops = []
    custom_op = layers.custom_op

    def counted(op, *args):
        ops.append(op)
        return custom_op(op, *args)

    monkeypatch.setattr(layers, "custom_op", counted)
    return ops


def _patch_bytes(entry) -> int:
    kh, kw = entry.layer.kernel
    return 8 * entry.in_shape[0] * kh * kw * entry.out_shape[1] * entry.out_shape[2]


@pytest.mark.parametrize("n", [1, 5, 64])
@pytest.mark.parametrize("kind", ["cloud", "edge"])
def test_fused_untaped_logits_equal_taped(monkeypatch, kind, n):
    model = build_model(CFG, kind, seed=7)
    rng = np.random.default_rng(70 + n)
    _randomize_bn(model, rng)
    model.set_training(False)
    convs = [a for a in model.architecture() if a.kind == "conv"]
    # the first conv's tiles split the batch mid-way; the others follow their own sizes
    budget = _patch_bytes(convs[0]) * ((n + 1) // 2)
    monkeypatch.setattr(layers, "_TILE_BYTES", budget)
    tiles = []
    patches = layers._patches

    def counted(xp, *args):
        tiles.append(xp.shape[0])
        return patches(xp, *args)

    monkeypatch.setattr(layers, "_patches", counted)
    ops = _layer_ops(monkeypatch)

    def sizes(t):
        return [min(t, n - i) for i in range(0, n, t)]

    want = []
    for entry in convs:
        want += sizes(max(1, budget // _patch_bytes(entry)))
    # the backward, last conv first: dW's whole-batch patch matrix, then a
    # stride-1 dx's tiles of the padded gradient, spanning whole column blocks
    backward = []
    for entry in reversed(convs):
        backward.append(n)
        kh, kw = entry.layer.kernel
        if entry.layer.stride == 1 and (kh, kw) != (1, 1):
            h, w = entry.in_shape[1:]
            step = layers._COL_BLOCK // np.gcd(layers._COL_BLOCK, h * w)
            per_sample = 8 * entry.out_shape[0] * kh * kw * h * w
            backward += sizes(max(step, budget // per_sample // step * step))
    x = rng.standard_normal((n, *CFG.input_shape)).astype(np.float32)
    with Tape() as tape:
        xt = Tensor(x, requires_grad=True)
        logits = model.forward_logits(xt)
        assert tiles == want
        tape.backward(weighted_sum(logits), [xt])
    assert tiles == want + backward
    taped = logits.data
    assert ops.count("conv2d") == ops.count("batchnorm") == len(convs)
    tiles.clear()
    ops.clear()
    untaped = model.forward_logits(Tensor(x)).data
    assert tiles == want
    if n > 1:
        assert tiles[:2] == [(n + 1) // 2, n // 2]
    assert ops == ["mean", "dense", "dense"]  # every conv and batch norm ran inside a fused unit
    assert untaped.tobytes() == taped.tobytes()


def test_taped_cloud_forward_holds_no_patch_matrices():
    # a taped conv keeps its float32 input, not its float64 patch matrix
    # (9 doubles per input value for a 3x3 kernel); the whole-batch
    # matrices of a batch-32 cloud forward alone would hold over 70 MiB
    model = build_model(CFG, "cloud", seed=0)
    x = Tensor(np.random.default_rng(0).standard_normal((32, *CFG.input_shape)).astype(np.float32))
    tracemalloc.start()
    try:
        with Tape():
            model.forward_logits(x)
            held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 50 << 20


def test_taped_cloud_train_step_peak_memory():
    # the replay frees each node's float64 gradient once its rule has run,
    # so a batch-32 step peaks near 66 MiB; holding every gradient until
    # the pass returns peaks above 93 MiB
    model = build_model(CFG, "cloud", seed=0)
    model.set_training(True)
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((32, *CFG.input_shape)).astype(np.float32))
    y = one_hot(rng.integers(0, CFG.num_classes, 32), CFG.num_classes)
    targets = [t for _, t in model.store.optimizable()]
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = smoothed_cross_entropy(model.forward_logits(x), y,
                                          SmoothingConfig(0.1, CFG.num_classes))
            tape.backward(loss, targets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 80 << 20


def test_frozen_pre_fe_fuses_while_posterior_trains(monkeypatch):
    cloud = build_model(CFG, "cloud", seed=3)
    edge = build_model(CFG, "edge", seed=4)
    rng = np.random.default_rng(9)
    _randomize_bn(cloud, rng)
    share_pre_fe(cloud, edge)
    freeze_pre_fe(edge)
    edge.set_training(True)
    x = rng.standard_normal((70, *CFG.input_shape)).astype(np.float32)
    ops = _layer_ops(monkeypatch)
    # transfer_edge's reference activations of the target pool
    h = _batched_no_tape(edge.forward_pre_fe, x)
    assert ops == []
    ref = Tensor(x)
    for unit in edge.pre_fe:
        ref = relu(unit.bn.forward(unit.conv.forward(ref)))
    assert h.tobytes() == ref.data.tobytes()
    before = edge.store.snapshot()
    with Tape() as tape:
        edge.features_from_pre_fe(Tensor(h[:8]))
    block = ["conv2d", "batchnorm", "relu"] * 2
    assert [e.op for e in tape.entries if e.op != "leaf"] == block * 4 + ["mean", "dense", "relu"]
    names = [e.name for e in tape.entries if e.op != "leaf"]
    assert names[:6] == [f"e_pos_fe.stage1.{p}" for p in ("dw", "dw_bn", "dw_relu", "pw", "pw_bn", "pw_relu")]
    after = edge.store.snapshot()
    moved = {n for n in before if before[n].tobytes() != after[n].tobytes()}
    assert moved and all(n.startswith("e_pos_fe.") and n.endswith(("running_mean", "running_var"))
                         for n in moved)


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("op", ["conv2d", "batchnorm"])
def test_untaped_unit_raises_on_overflow_a_relu_would_zero(op):
    model = build_model(CFG, "edge", seed=2)
    model.set_training(False)
    conv, bn = model.pre_fe[0].conv, model.pre_fe[0].bn
    if op == "conv2d":
        conv.weight.data[...] = -3e38  # -inf in float32 on an all-ones input
    else:
        bn.running_mean.data[...] = 1e3  # every normalized value is negative...
        bn.gamma.data[...] = 3e38  # ...and scaled past float32's range
    x = np.ones((2, *CFG.input_shape), dtype=np.float32)
    with pytest.raises(NonFiniteError, match=f"^{op} produced a non-finite value"):
        model.forward_logits(Tensor(x))
    with pytest.raises(NonFiniteError, match=f"^{op} produced a non-finite value"):
        with Tape():
            model.forward_logits(Tensor(x, requires_grad=True))


@pytest.mark.parametrize("kind", ["cloud", "edge"])
def test_untaped_train_mode_updates_running_stats_as_taped(kind):
    models = [build_model(CFG, kind, seed=11) for _ in range(2)]
    x = np.random.default_rng(12).standard_normal((6, *CFG.input_shape)).astype(np.float32)
    for m in models:
        m.set_training(True)
    untaped = models[0].forward_logits(Tensor(x)).data
    with Tape():
        taped = models[1].forward_logits(Tensor(x, requires_grad=True)).data
    assert untaped.tobytes() == taped.tobytes()
    fresh = build_model(CFG, kind, seed=11).store.snapshot()
    a, b = models[0].store.snapshot(), models[1].store.snapshot()
    assert {n: v.tobytes() for n, v in a.items()} == {n: v.tobytes() for n, v in b.items()}
    assert any(a[n].tobytes() != fresh[n].tobytes() for n in a if n.endswith("running_var"))


def test_architecture_covers_all_parameters():
    for kind in ("cloud", "edge"):
        model = build_model(CFG, kind, seed=0)
        arch = model.architecture()
        named = [a for a in arch if a.layer is not None]
        total = 0
        for a in named:
            layer = a.layer
            for attr in ("weight", "bias", "gamma", "beta"):
                t = getattr(layer, attr, None)
                if t is not None:
                    total += t.size
        assert total == model.store.element_count()
        assert arch[-1].out_shape == (CFG.num_classes,)


def test_architecture_shapes_match_forward():
    model = build_model(CFG, "edge", seed=0)
    model.set_training(False)
    x = Tensor(np.random.default_rng(5).standard_normal((1, 6, 32, 32)).astype(np.float32))
    out = model.forward_logits(x)
    assert out.shape[1:] == model.architecture()[-1].out_shape


def _state(model):
    snap = model.store.snapshot()
    return ({n: a.tobytes() for n, a in snap.items()},
            [(bn.training, bn.frozen) for bn in model.bn_layers()])


@pytest.mark.parametrize("kind,frozen", [("cloud", False), ("edge", False), ("edge", True)])
def test_architecture_leaves_model_state_unchanged(kind, frozen):
    model = build_model(SMALL, kind, seed=0)
    if frozen:
        freeze_pre_fe(model)
    model.set_training(True)
    before = _state(model)
    first = model.architecture()
    analyze(model)
    assert _state(model) == before  # parameters, running stats, BN flags
    if frozen:
        assert all(unit.bn.frozen and not unit.bn.training for unit in model.pre_fe)
    assert any(bn.training for bn in model.bn_layers())
    assert model.architecture() == first

