import numpy as np
import pytest

import oracles
from gradcheck import check_grads, max_rel_err, weighted_sum
from edgediag import layers
from edgediag.layers import (
    BatchNormLayer,
    BuildError,
    Conv2dLayer,
    DenseLayer,
    DepthwiseSeparableBlock,
    ParamStore,
    ResidualBlock,
    _pad_hw,
    global_avg_pool,
)
from edgediag.tensor import NonFiniteError, ShapeError, Tape, Tensor


def _conv(in_c, out_c, kernel, rng=None, **kw):
    store = ParamStore()
    return Conv2dLayer(store, "c", in_c, out_c, kernel, rng=rng, **kw)


# ---------------------------------------------------------------------------
# conv2d forward

def test_conv_identity_kernel():
    layer = _conv(1, 1, 1)
    layer.weight.data[...] = 1.0
    x = Tensor(np.random.default_rng(0).standard_normal((2, 1, 4, 4)).astype(np.float32))
    out = layer.forward(x)
    assert np.allclose(out.data, x.data, atol=1e-6)


def test_conv_ones_counting():
    layer = _conv(1, 1, 3)
    layer.weight.data[...] = 1.0
    out = layer.forward(Tensor(np.ones((1, 1, 3, 3), dtype=np.float32)))
    assert out.shape == (1, 1, 1, 1)
    assert abs(out.item() - 9.0) < 1e-6


def test_conv_matches_naive_oracle():
    rng = np.random.default_rng(2)
    layer = _conv(2, 3, 3, rng=rng, bias=True)
    layer.bias.data[...] = rng.standard_normal(3).astype(np.float32)
    x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
    got = layer.forward(Tensor(x)).data
    want = oracles.conv2d_ref(x, layer.weight.data, layer.bias.data)
    assert max_rel_err(got, want) < 1e-5


@pytest.mark.parametrize("stride,pad,groups", [(1, 1, 1), (2, 1, 1), (1, 0, 2), (2, 1, 4)])
def test_conv_variants_match_oracle(stride, pad, groups):
    rng = np.random.default_rng(stride * 7 + pad * 3 + groups)
    layer = _conv(4, 8, 3, rng=rng, stride=stride, padding=pad, groups=groups)
    x = rng.standard_normal((2, 4, 6, 6)).astype(np.float32)
    got = layer.forward(Tensor(x)).data
    want = oracles.conv2d_ref(x, layer.weight.data, None, stride=stride, padding=pad, groups=groups)
    assert max_rel_err(got, want) < 1e-5


def test_conv_depthwise_matches_oracle():
    rng = np.random.default_rng(5)
    layer = _conv(6, 6, 3, rng=rng, padding=1, groups=6)
    x = rng.standard_normal((2, 6, 5, 5)).astype(np.float32)
    got = layer.forward(Tensor(x)).data
    want = oracles.conv2d_ref(x, layer.weight.data, None, stride=1, padding=1, groups=6)
    assert max_rel_err(got, want) < 1e-5


def test_conv_channel_mismatch():
    layer = _conv(3, 4, 3)
    with pytest.raises(ShapeError, match="channels"):
        layer.forward(Tensor(np.ones((1, 2, 5, 5))))


def test_conv_groups_must_divide():
    with pytest.raises(BuildError):
        _conv(3, 4, 3, groups=2)


def test_conv_output_size_formula():
    layer = _conv(1, 1, 3, stride=2, padding=1)
    assert layer.out_shape((1, 9, 9)) == (1, 5, 5)  # floor((9+2-3)/2)+1


# ---------------------------------------------------------------------------
# residual block

def _zero_conv_weights(block):
    block.conv1.weight.data[...] = 0.0
    block.conv2.weight.data[...] = 0.0


def test_residual_zero_branch_positive_input():
    store = ParamStore()
    block = ResidualBlock(store, "r", 4, 4)
    _zero_conv_weights(block)
    for bn in block.bn_layers():
        bn.set_training(False)
    x = np.abs(np.random.default_rng(1).standard_normal((2, 4, 5, 5))).astype(np.float32)
    out = block.forward(Tensor(x))
    assert np.allclose(out.data, x, atol=1e-6)


def test_residual_zero_branch_is_relu():
    store = ParamStore()
    block = ResidualBlock(store, "r", 3, 3)
    _zero_conv_weights(block)
    for bn in block.bn_layers():
        bn.set_training(False)
    x = np.random.default_rng(2).standard_normal((2, 3, 4, 4)).astype(np.float32)
    out = block.forward(Tensor(x))
    assert np.allclose(out.data, np.maximum(x, 0.0), atol=1e-6)


def test_residual_matches_composition_oracle():
    rng = np.random.default_rng(3)
    store = ParamStore()
    block = ResidualBlock(store, "r", 3, 5, stride=2, rng=rng)
    x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
    got = block.forward(Tensor(x)).data

    h = oracles.conv2d_ref(x, block.conv1.weight.data, None, stride=2, padding=1)
    h = oracles.batchnorm_ref(h, block.bn1.gamma.data, block.bn1.beta.data, block.bn1.eps)
    h = oracles.relu_ref(h)
    h = oracles.conv2d_ref(h, block.conv2.weight.data, None, stride=1, padding=1)
    h = oracles.batchnorm_ref(h, block.bn2.gamma.data, block.bn2.beta.data, block.bn2.eps)
    sc = oracles.conv2d_ref(x, block.proj.weight.data, None, stride=2)
    sc = oracles.batchnorm_ref(sc, block.proj_bn.gamma.data, block.proj_bn.beta.data, block.proj_bn.eps)
    want = oracles.relu_ref(h + sc)
    assert max_rel_err(got, want) < 1e-5


def test_residual_projection_exactly_when_shape_changes():
    for out_c, stride in [(3, 1), (5, 1), (3, 2), (5, 2)]:
        store = ParamStore()
        block = ResidualBlock(store, "r", 3, out_c, stride=stride)
        needed = out_c != 3 or stride != 1
        assert (block.proj is not None) == needed
        assert (block.proj_bn is not None) == needed
        assert ("r.proj.weight" in store) == needed


# ---------------------------------------------------------------------------
# depthwise separable block

def test_dwsep_identity_factorization():
    store = ParamStore()
    block = DepthwiseSeparableBlock(store, "d", 3, 3, kernel=1)
    block.depthwise.weight.data[...] = 1.0
    block.pointwise.weight.data[...] = np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1)
    for bn in block.bn_layers():
        bn.gamma.data[...] = np.sqrt(1.0 + bn.eps)  # cancel the eps shrink of unit variance
        bn.set_training(False)
    x = np.abs(np.random.default_rng(0).standard_normal((2, 3, 4, 4))).astype(np.float32)
    out = block.forward(Tensor(x))
    assert np.allclose(out.data, x, atol=1e-5)


def test_dwsep_equals_two_step_oracle():
    rng = np.random.default_rng(7)
    store = ParamStore()
    block = DepthwiseSeparableBlock(store, "d", 4, 6, stride=2, rng=rng)
    x = rng.standard_normal((2, 4, 8, 8)).astype(np.float32)
    got = block.forward(Tensor(x)).data

    h = oracles.conv2d_ref(x, block.depthwise.weight.data, None, stride=2, padding=1, groups=4)
    h = oracles.batchnorm_ref(h, block.dw_bn.gamma.data, block.dw_bn.beta.data, block.dw_bn.eps)
    h = oracles.relu_ref(h)
    h = oracles.conv2d_ref(h, block.pointwise.weight.data, None)
    h = oracles.batchnorm_ref(h, block.pw_bn.gamma.data, block.pw_bn.beta.data, block.pw_bn.eps)
    want = oracles.relu_ref(h)
    assert max_rel_err(got, want) < 1e-5


def test_dwsep_param_count_by_hand():
    # dw-sep C_in=8 -> C_out=16, 3x3 with conv biases: 8*9+8 + 16*8+16 = 224
    store = ParamStore()
    dw = Conv2dLayer(store, "dw", 8, 8, 3, padding=1, groups=8, bias=True)
    pw = Conv2dLayer(store, "pw", 8, 16, 1, bias=True)
    total = sum(t.size for _, t in store.items())
    assert total == 224
    assert dw.weight.size + dw.bias.size == 8 * 9 + 8
    assert pw.weight.size + pw.bias.size == 16 * 8 + 16


# ---------------------------------------------------------------------------
# pooling

def test_global_avg_pool_constant():
    x = np.full((2, 3, 4, 4), 0.0, dtype=np.float32)
    x[:, 0], x[:, 1], x[:, 2] = 1.5, -2.0, 7.0
    out = global_avg_pool(Tensor(x))
    assert np.allclose(out.data, [[1.5, -2.0, 7.0]] * 2, atol=1e-6)


def test_global_avg_pool_arithmetic():
    out = global_avg_pool(Tensor([[[[1.0, 2.0], [3.0, 4.0]]]]))
    assert abs(out.item() - 2.5) < 1e-7


def test_global_avg_pool_random_oracle():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 5, 6, 7)).astype(np.float32)
    got = global_avg_pool(Tensor(x)).data
    assert max_rel_err(got, oracles.global_avg_pool_ref(x)) < 1e-6


@pytest.mark.parametrize("ph, pw", [(1, 2), (0, 0), (2, 0), (-1, -2), (-1, 2), (1, -2), (0, -1)])
@pytest.mark.parametrize("transposed", [False, True])
def test_pad_hw_matches_np_pad_and_slicing(ph, pw, transposed):
    a = np.random.default_rng(12).standard_normal((2, 3, 5, 6))
    if transposed:
        a = a.transpose(1, 0, 2, 3)  # the [C, N, H, W] view the backward pads
    h, w = a.shape[-2:]
    want = a[..., max(-ph, 0):h - max(-ph, 0), max(-pw, 0):w - max(-pw, 0)]
    want = np.pad(want, ((0, 0), (0, 0), (max(ph, 0),) * 2, (max(pw, 0),) * 2))
    got = _pad_hw(a.astype(np.float32), ph, pw)
    assert got.dtype == np.float32
    assert got.shape == want.shape and np.array_equal(got, want.astype(np.float32))


# ---------------------------------------------------------------------------
# batch norm

@pytest.mark.parametrize("training", [True, False])
def test_untaped_batchnorm_tiles_match_taped(monkeypatch, training):
    rng = np.random.default_rng(14)
    x = (rng.standard_normal((11, 3, 5, 6)) * 2 + 1).astype(np.float32)
    params = [rng.uniform(0.5, 2.0, 3), rng.standard_normal(3),
              rng.standard_normal(3), rng.uniform(0.5, 2.0, 3)]
    monkeypatch.setattr(layers, "_TILE_BYTES", 3 * 8 * x[0].size)
    spans = []
    sample_tiles = layers._sample_tiles

    def recorded(*args):
        spans.append(sample_tiles(*args))
        return spans[-1]

    monkeypatch.setattr(layers, "_sample_tiles", recorded)
    results = []
    for taped in (True, False):
        bn = BatchNormLayer(ParamStore(), "b", 3)
        for t, value in zip((bn.gamma, bn.beta, bn.running_mean, bn.running_var), params):
            t.data[...] = value
        bn.training = training
        if taped:
            with Tape():
                out = bn.forward(Tensor(x, requires_grad=True))
        else:
            out = bn.forward(Tensor(x))
        results.append([a.tobytes() for a in (out.data, bn.running_mean.data, bn.running_var.data)])
    assert spans == [[(0, 11)], [(0, 3), (3, 6), (6, 9), (9, 11)]]
    assert results[0] == results[1]


@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_matches_reference_formula(training):
    rng = np.random.default_rng(13)
    bn = BatchNormLayer(ParamStore(), "b", 3)
    bn.gamma.data[...] = rng.uniform(0.5, 2.0, 3)
    bn.beta.data[...] = rng.standard_normal(3)
    bn.running_mean.data[...] = rng.standard_normal(3)
    bn.running_var.data[...] = rng.uniform(0.5, 2.0, 3)
    bn.training = training
    rm, rv = bn.running_mean.data.copy(), bn.running_var.data.copy()
    x = (rng.standard_normal((4, 3, 5, 6)) * 2 + 1).astype(np.float32)
    gout = rng.standard_normal(x.shape)
    with Tape() as tape:
        out = bn.forward(Tensor(x, requires_grad=True))
    got = tape.entries[out.node].backward_fn(gout)
    gamma, beta = bn.gamma.data, bn.beta.data
    want = oracles.batchnorm_ref(x, gamma, beta, bn.eps, rm, rv, training=training)
    assert max_rel_err(out.data, want) < 1e-6
    refs = oracles.batchnorm_grad_ref(x, gamma, gout, bn.eps, rm, rv, training=training)
    for g, ref in zip(got, refs):
        assert g.shape == ref.shape and max_rel_err(g, ref) < 1e-12


def test_batchnorm_eval_is_affine():
    store = ParamStore()
    bn = BatchNormLayer(store, "b", 3)
    rng = np.random.default_rng(4)
    bn.gamma.data[...] = rng.uniform(0.5, 2.0, 3).astype(np.float32)
    bn.beta.data[...] = rng.standard_normal(3).astype(np.float32)
    bn.running_mean.data[...] = rng.standard_normal(3).astype(np.float32)
    bn.running_var.data[...] = rng.uniform(0.5, 2.0, 3).astype(np.float32)
    bn.set_training(False)
    x1 = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
    x2 = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
    alpha = 0.3
    mix = bn.forward(Tensor(alpha * x1 + (1 - alpha) * x2)).data
    sep = alpha * bn.forward(Tensor(x1)).data + (1 - alpha) * bn.forward(Tensor(x2)).data
    assert max_rel_err(mix, sep) < 1e-5


def test_batchnorm_train_updates_running_stats():
    store = ParamStore()
    bn = BatchNormLayer(store, "b", 2)
    before = bn.running_mean.data.copy()
    bn.forward(Tensor(np.random.default_rng(0).standard_normal((4, 2, 3, 3)).astype(np.float32)))
    assert not np.array_equal(bn.running_mean.data, before)


def test_batchnorm_frozen_ignores_set_training():
    bn = BatchNormLayer(ParamStore(), "b", 2)
    bn.freeze()
    bn.set_training(True)
    assert bn.training is False
    rm = bn.running_mean.data.copy()
    bn.forward(Tensor(np.ones((2, 2, 3, 3), dtype=np.float32)))
    assert np.array_equal(bn.running_mean.data, rm)


# ---------------------------------------------------------------------------
# gradient checks through every layer kind

def _layer_gradcheck(engine_fn, oracle_fn, arrays, seed):
    return check_grads(engine_fn, oracle_fn, arrays, seed=seed)


@pytest.mark.parametrize("seed", range(5))
def test_fd_conv2d(seed):
    rng = np.random.default_rng(800 + seed)
    stride = 1 + seed % 2
    x = rng.standard_normal((2, 2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3)) * 0.5
    b = rng.standard_normal(3) * 0.2

    def engine(ts):
        layer = _conv(2, 3, 3, stride=stride, padding=1, bias=True)
        layer.weight, layer.bias = ts[1], ts[2]
        return layer.forward(ts[0])

    _layer_gradcheck(
        engine,
        lambda ar: oracles.conv2d_ref(ar[0], ar[1], ar[2], stride=stride, padding=1),
        [x, w, b],
        seed,
    )


@pytest.mark.parametrize("seed", range(3))
def test_fd_conv2d_grouped(seed):
    rng = np.random.default_rng(830 + seed)
    x = rng.standard_normal((1, 4, 4, 4))
    w = rng.standard_normal((4, 1, 3, 3)) * 0.5

    def engine(ts):
        layer = _conv(4, 4, 3, padding=1, groups=4)
        layer.weight = ts[1]
        return layer.forward(ts[0])

    _layer_gradcheck(
        engine,
        lambda ar: oracles.conv2d_ref(ar[0], ar[1], None, padding=1, groups=4),
        [x, w],
        seed,
    )


# (kernel, stride, padding, groups, H, W, bias): both dx rules (stride 1 as a
# correlation of the padded gradient, stride 2 as a scatter), a flipped-kernel
# pad k-1-p below zero, even inputs whose last padded row a stride-2 conv skips
CONV_LAYOUTS = [
    (3, 1, 1, 1, 4, 5, True),
    (3, 1, 0, 2, 5, 4, False),
    (3, 1, 2, 4, 4, 4, False),
    (3, 2, 1, 1, 4, 4, True),
    (3, 2, 0, 4, 5, 5, False),
    (3, 2, 2, 2, 5, 4, False),
    (1, 1, 0, 1, 4, 5, True),
    (1, 1, 1, 2, 4, 4, False),
    (1, 2, 0, 1, 5, 5, False),
    (1, 2, 0, 4, 4, 4, False),
    ((1, 3), 1, 1, 1, 5, 4, False),
    ((1, 3), 1, 2, 4, 4, 5, True),
    ((1, 3), 2, 1, 2, 5, 5, False),
]


def _layout_case(i):
    kernel, stride, pad, groups, h, w, bias = CONV_LAYOUTS[i]
    kh, kw = (kernel, kernel) if isinstance(kernel, int) else kernel
    rng = np.random.default_rng(900 + i)
    arrays = [rng.standard_normal((2, 4, h, w)),
              rng.standard_normal((4, 4 // groups, kh, kw)) * 0.5]
    if bias:
        arrays.append(rng.standard_normal(4) * 0.2)
    layer = _conv(4, 4, kernel, stride=stride, padding=pad, groups=groups, bias=bias)
    return layer, arrays, dict(stride=stride, padding=pad, groups=groups)


@pytest.mark.parametrize("i", range(len(CONV_LAYOUTS)))
def test_fd_conv2d_layouts(i):
    layer, arrays, kw = _layout_case(i)

    def engine(ts):
        layer.weight = ts[1]
        if len(ts) > 2:
            layer.bias = ts[2]
        return layer.forward(ts[0])

    _layer_gradcheck(
        engine,
        lambda ar: oracles.conv2d_ref(ar[0], ar[1], ar[2] if len(ar) > 2 else None, **kw),
        arrays,
        i,
    )


@pytest.mark.parametrize("i", range(len(CONV_LAYOUTS)))
def test_conv_input_without_grad_has_no_dx(i):
    layer, arrays, _ = _layout_case(i)
    layer.weight.data[...] = arrays[1]
    params = [layer.weight] + ([layer.bias] if layer.bias is not None else [])
    grads = {}
    for needs in (True, False):
        with Tape() as tape:
            out = layer.forward(Tensor(arrays[0], requires_grad=needs))
            gout = np.random.default_rng(i).standard_normal(out.shape)
            grads[needs] = tape.entries[out.node].backward_fn(gout)
    assert grads[True][0].shape == arrays[0].shape
    assert grads[False][0] is None
    for with_dx, without_dx in zip(grads[True][1:], grads[False][1:]):
        assert with_dx.tobytes() == without_dx.tobytes()


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("i", range(len(CONV_LAYOUTS)))
def test_untaped_conv_tiles_match_taped(monkeypatch, i, bias):
    kernel, stride, pad, groups, h, w, _ = CONV_LAYOUTS[i]
    rng = np.random.default_rng(950 + i)
    layer = _conv(4, 4, kernel, rng=rng, stride=stride, padding=pad, groups=groups, bias=bias)
    if bias:
        layer.bias.data[...] = rng.standard_normal(4)
    x = rng.standard_normal((11, 4, h, w)).astype(np.float32)
    kh, kw = layer.kernel
    _, ho, wo = layer.out_shape(x.shape)
    # a budget of three samples' patch columns: untaped tiles of 3, 3, 3 and 2
    monkeypatch.setattr(layers, "_TILE_BYTES", 3 * 8 * 4 * kh * kw * ho * wo)
    tiles = []
    patches = layers._patches

    def counted(xp, *args):
        tiles.append(xp.shape[0])
        return patches(xp, *args)

    monkeypatch.setattr(layers, "_patches", counted)
    with Tape():
        taped = layer.forward(Tensor(x, requires_grad=True)).data
    assert tiles == [11]
    untaped = layer.forward(Tensor(x)).data
    assert tiles == [11, 3, 3, 3, 2]
    assert untaped.dtype == np.float32
    assert untaped.tobytes() == taped.tobytes()


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("i", range(len(CONV_LAYOUTS)))
def test_conv_bn_unit_matches_composition(monkeypatch, i, relu):
    kernel, stride, pad, groups, h, w, _ = CONV_LAYOUTS[i]
    rng = np.random.default_rng(970 + i)
    store = ParamStore()
    conv = Conv2dLayer(store, "c", 4, 4, kernel, stride=stride, padding=pad, groups=groups,
                       bias=True, rng=rng)
    bn = BatchNormLayer(store, "b", 4)
    for t in (conv.bias, bn.running_mean, bn.gamma, bn.beta):
        t.data[...] = rng.standard_normal(4)
    bn.running_var.data[...] = rng.uniform(0.2, 3.0, 4)
    bn.training = False
    x = rng.standard_normal((11, 4, h, w)).astype(np.float32)
    kh, kw = conv.kernel
    _, ho, wo = conv.out_shape(x.shape)
    monkeypatch.setattr(layers, "_TILE_BYTES", 3 * 8 * 4 * kh * kw * ho * wo)
    name = "r" if relu else None
    with Tape() as tape:
        taped = layers.conv_bn(conv, bn, Tensor(x, requires_grad=True), name)
    assert [(e.op, e.name) for e in tape.entries if e.op != "leaf"] == (
        [("conv2d", "c"), ("batchnorm", "b")] + ([("relu", "r")] if relu else []))
    tiles = []
    patches = layers._patches

    def counted(xp, *args):
        tiles.append(xp.shape[0])
        return patches(xp, *args)

    monkeypatch.setattr(layers, "_patches", counted)
    fused = layers.conv_bn(conv, bn, Tensor(x), name)
    assert tiles == [3, 3, 3, 2]
    assert fused.requires_grad and fused.data.dtype == np.float32
    assert fused.data.tobytes() == taped.data.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("conv_fault", [False, True])
def test_conv_bn_unit_names_the_op_the_composition_names(monkeypatch, conv_fault):
    # sample 0's batch norm overflows to -inf, which the ReLU would zero;
    # with conv_fault, sample 1's conv overflows too, in the next tile
    store = ParamStore()
    conv = Conv2dLayer(store, "c", 2, 2, 1)
    conv.weight.data[...] = 2 * np.eye(2, dtype=np.float32).reshape(2, 2, 1, 1)
    bn = BatchNormLayer(store, "b", 2)
    bn.gamma.data[...] = -1e10
    bn.training = False
    x = np.ones((2, 2, 3, 3), dtype=np.float32)
    x[0] = 1e30
    if conv_fault:
        x[1] = 3e38
    op = "conv2d" if conv_fault else "batchnorm"
    with pytest.raises(NonFiniteError, match=f"^{op} produced a non-finite value"):
        with Tape():
            layers.conv_bn(conv, bn, Tensor(x, requires_grad=True), "r")
    monkeypatch.setattr(layers, "_TILE_BYTES", 8 * 2 * 3 * 3)  # one sample per tile
    tiles = []
    patches = layers._patches

    def counted(xp, *args):
        tiles.append(xp.shape[0])
        return patches(xp, *args)

    monkeypatch.setattr(layers, "_patches", counted)
    with pytest.raises(NonFiniteError, match=f"^{op} produced a non-finite value"):
        layers.conv_bn(conv, bn, Tensor(x), "r")
    assert tiles == [1, 1]


@pytest.mark.parametrize("seed", range(5))
def test_fd_dense(seed):
    rng = np.random.default_rng(850 + seed)
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((5, 4)) * 0.5
    b = rng.standard_normal(5) * 0.2

    def engine(ts):
        layer = DenseLayer(ParamStore(), "d", 4, 5)
        layer.weight, layer.bias = ts[1], ts[2]
        return layer.forward(ts[0])

    _layer_gradcheck(engine, lambda ar: oracles.dense_ref(ar[0], ar[1], ar[2]), [x, w, b], seed)


@pytest.mark.parametrize("seed", range(5))
def test_fd_batchnorm_train(seed):
    rng = np.random.default_rng(870 + seed)
    x = rng.standard_normal((3, 2, 3, 3))
    gamma = rng.uniform(0.5, 1.5, 2)
    beta = rng.standard_normal(2) * 0.3

    def engine(ts):
        bn = BatchNormLayer(ParamStore(), "b", 2)
        bn.gamma, bn.beta = ts[1], ts[2]
        return bn.forward(ts[0])

    _layer_gradcheck(
        engine,
        lambda ar: oracles.batchnorm_ref(ar[0], ar[1], ar[2], 1e-5, training=True),
        [x, gamma, beta],
        seed,
    )


@pytest.mark.parametrize("seed", range(3))
def test_fd_batchnorm_eval(seed):
    rng = np.random.default_rng(890 + seed)
    x = rng.standard_normal((2, 2, 3, 3))
    gamma = rng.uniform(0.5, 1.5, 2)
    beta = rng.standard_normal(2) * 0.3
    rm = rng.standard_normal(2) * 0.2
    rv = rng.uniform(0.5, 1.5, 2)

    def engine(ts):
        bn = BatchNormLayer(ParamStore(), "b", 2)
        bn.gamma, bn.beta = ts[1], ts[2]
        bn.running_mean.data[...] = rm.astype(np.float32)
        bn.running_var.data[...] = rv.astype(np.float32)
        bn.set_training(False)
        return bn.forward(ts[0])

    _layer_gradcheck(
        engine,
        lambda ar: oracles.batchnorm_ref(
            ar[0], ar[1], ar[2], 1e-5,
            running_mean=np.asarray(rm, dtype=np.float32),
            running_var=np.asarray(rv, dtype=np.float32),
            training=False,
        ),
        [x, gamma, beta],
        seed,
    )


@pytest.mark.parametrize("seed", range(3))
def test_fd_residual_block(seed):
    rng = np.random.default_rng(910 + seed)
    store = ParamStore()
    block = ResidualBlock(store, "r", 2, 3, stride=2, rng=rng)
    x = rng.standard_normal((2, 2, 4, 4))
    w1 = block.conv1.weight.data.astype(np.float64)
    w2 = block.conv2.weight.data.astype(np.float64)
    wp = block.proj.weight.data.astype(np.float64)

    def oracle(ar):
        h = oracles.conv2d_ref(ar[0], ar[1], None, stride=2, padding=1)
        h = oracles.batchnorm_ref(h, np.ones(3), np.zeros(3), 1e-5, training=True)
        h = oracles.relu_ref(h)
        h = oracles.conv2d_ref(h, ar[2], None, padding=1)
        h = oracles.batchnorm_ref(h, np.ones(3), np.zeros(3), 1e-5, training=True)
        sc = oracles.conv2d_ref(ar[0], ar[3], None, stride=2)
        sc = oracles.batchnorm_ref(sc, np.ones(3), np.zeros(3), 1e-5, training=True)
        return oracles.relu_ref(h + sc)

    def engine(ts):
        block.conv1.weight, block.conv2.weight, block.proj.weight = ts[1], ts[2], ts[3]
        return block.forward(ts[0])

    _layer_gradcheck(engine, oracle, [x, w1, w2, wp], seed)


@pytest.mark.parametrize("seed", range(3))
def test_fd_dwsep_block(seed):
    rng = np.random.default_rng(930 + seed)
    store = ParamStore()
    block = DepthwiseSeparableBlock(store, "d", 2, 3, rng=rng)
    x = rng.standard_normal((2, 2, 4, 4))
    wd = block.depthwise.weight.data.astype(np.float64)
    wp = block.pointwise.weight.data.astype(np.float64)

    def oracle(ar):
        h = oracles.conv2d_ref(ar[0], ar[1], None, padding=1, groups=2)
        h = oracles.batchnorm_ref(h, np.ones(2), np.zeros(2), 1e-5, training=True)
        h = oracles.relu_ref(h)
        h = oracles.conv2d_ref(h, ar[2], None)
        h = oracles.batchnorm_ref(h, np.ones(3), np.zeros(3), 1e-5, training=True)
        return oracles.relu_ref(h)

    def engine(ts):
        block.depthwise.weight, block.pointwise.weight = ts[1], ts[2]
        return block.forward(ts[0])

    _layer_gradcheck(engine, oracle, [x, wd, wp], seed)


# ---------------------------------------------------------------------------
# inputs that need no gradient

def _no_grad_cases():
    rng = np.random.default_rng(41)
    conv = _conv(3, 4, 3, rng=rng, stride=2, padding=1, bias=True)
    dwconv = _conv(3, 3, 3, rng=rng, padding=1, groups=3)
    dense = DenseLayer(ParamStore(), "d", 5, 4, rng=rng)
    bn_train = BatchNormLayer(ParamStore(), "b", 3)
    bn_eval = BatchNormLayer(ParamStore(), "e", 3)
    bn_eval.set_training(False)
    img = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
    return {
        "conv": (conv, img, [conv.weight, conv.bias]),
        "dwconv": (dwconv, img, [dwconv.weight]),
        "dense": (dense, rng.standard_normal((3, 5)).astype(np.float32),
                  [dense.weight, dense.bias]),
        "bn-train": (bn_train, img, [bn_train.gamma, bn_train.beta]),
        "bn-eval": (bn_eval, img, [bn_eval.gamma, bn_eval.beta]),
    }


@pytest.mark.parametrize("case", ["conv", "dwconv", "dense", "bn-train", "bn-eval"])
def test_input_without_grad_gets_zero_and_same_param_grads(case):
    layer, x_arr, params = _no_grad_cases()[case]
    readout = np.random.default_rng(42).standard_normal(
        layer.forward(Tensor(x_arr)).size)
    grads = {}
    for needs in (True, False):
        with Tape() as tape:
            x = Tensor(x_arr, requires_grad=needs)
            loss = weighted_sum(layer.forward(x), readout)
            g = tape.backward(loss, [x] + params)
        grads[needs] = [g[t].data for t in [x] + params]
    assert not np.array_equal(grads[True][0], np.zeros_like(x_arr))
    assert np.array_equal(grads[False][0], np.zeros_like(x_arr))
    for with_dx, without_dx in zip(grads[True][1:], grads[False][1:]):
        assert with_dx.tobytes() == without_dx.tobytes()


# ---------------------------------------------------------------------------
# ParamStore

def test_paramstore_unique_names():
    store = ParamStore()
    store.add("a.w", Tensor([1.0]))
    with pytest.raises(BuildError, match="duplicate"):
        store.add("a.w", Tensor([2.0]))


def test_paramstore_order_and_freeze():
    store = ParamStore()
    for name in ["pre.w1", "pre.w2", "head.w"]:
        store.add(name, Tensor([0.0]))
    assert store.names() == ["pre.w1", "pre.w2", "head.w"]
    assert store.freeze_prefix("pre.") == 2
    assert [n for n, _ in store.optimizable()] == ["head.w"]
    assert store.is_frozen("pre.w1") and not store.is_frozen("head.w")


def test_paramstore_nontrainable_not_optimizable():
    store = ParamStore()
    store.add("bn.running_mean", Tensor([0.0]), trainable=False)
    store.add("w", Tensor([0.0]))
    assert [n for n, _ in store.optimizable()] == ["w"]
    assert store.element_count(trainable_only=True) == 1
    assert store.element_count(trainable_only=False) == 2
