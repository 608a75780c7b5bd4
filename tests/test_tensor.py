import weakref

import numpy as np
import pytest

import oracles
from gradcheck import check_grads, max_rel_err, weighted_sum
from edgediag.layers import DenseLayer, ParamStore, global_avg_pool
from edgediag.tensor import (
    GradientMap,
    NonFiniteError,
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    add,
    custom_op,
    grad_l2_norm,
    label,
    relu,
)


def _square(x):
    """x * x, computed in float64."""
    xd = x.data.astype(np.float64)
    return custom_op("square", (x,), xd * xd, lambda g: (2.0 * xd * g,))


def _scale(x, k):
    """k * x for a constant k, computed in float64."""
    return custom_op("scale", (x,), k * x.data.astype(np.float64), lambda g: (k * g,))


def test_relu_definition():
    out = relu(Tensor([-1.0, 0.5]))
    assert np.array_equal(out.data, [0.0, 0.5])


def test_backward_sum_of_squares():
    with Tape() as tape:
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        loss = weighted_sum(_square(x))
        g = tape.backward(loss, [x])
    assert np.allclose(g[x].data, [2.0, 4.0, 6.0], atol=1e-6)


def test_backward_linearity_scalars():
    with Tape() as tape:
        a = Tensor([2.0], requires_grad=True)
        b = Tensor([5.0], requires_grad=True)
        loss = add(_scale(a, 0.7), _scale(b, 1.3))
        g = tape.backward(loss, [a, b])
    assert abs(g[a].item() - 0.7) < 1e-6
    assert abs(g[b].item() - 1.3) < 1e-6


def test_backward_linearity_combination():
    # d(a*L1 + b*L2) == a*dL1 + b*dL2 elementwise
    rng = np.random.default_rng(3)
    with Tape() as tape:
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        l1 = weighted_sum(_square(x))
        l2 = weighted_sum(_square(_square(x)), np.full((4, 3), 0.3 / 12))
        combo = add(_scale(l1, 0.6), _scale(l2, 2.5))
        g1 = tape.backward(l1, [x])[x].data
        g2 = tape.backward(l2, [x])[x].data
        gc = tape.backward(combo, [x])[x].data
        seeded = tape.backward([(l1, 0.6), (l2, 2.5)], [x])[x].data
        unit = tape.backward([(l1, 1.0)], [x])[x].data
    assert np.max(np.abs(gc - (0.6 * g1 + 2.5 * g2))) < 1e-6
    assert np.max(np.abs(seeded - (0.6 * g1 + 2.5 * g2))) < 1e-6
    assert unit.tobytes() == g1.tobytes()


def test_backward_repeat_identical():
    rng = np.random.default_rng(11)
    with Tape() as tape:
        x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        loss = weighted_sum(relu(_square(x)))
        g1 = tape.backward(loss, [x])[x].data
        g2 = tape.backward(loss, [x])[x].data
    assert np.array_equal(g1, g2)


def test_backward_intermediate_target():
    # gradients w.r.t. a non-leaf node, the mechanism the transfer loop relies on
    with Tape() as tape:
        x = Tensor([1.0, -2.0], requires_grad=True)
        h = _scale(x, 3.0)
        loss = weighted_sum(_square(h))
        g = tape.backward(loss, [h, x])
    assert np.allclose(g[h].data, 2 * np.array([3.0, -6.0]), atol=1e-5)
    assert np.allclose(g[x].data, 6 * np.array([3.0, -6.0]), atol=1e-4)


def test_backward_unreached_target_zero():
    with Tape() as tape:
        x = Tensor([1.0], requires_grad=True)
        y = Tensor([2.0], requires_grad=True)
        sink = _square(y)  # noqa: F841 - recorded but unused by loss
        loss = _square(x)
        g = tape.backward(loss, [y])
    assert np.array_equal(g[y].data, [0.0])


def _counted(name, x, calls):
    """Identity-shaped op x -> 2x whose backward rule counts its calls."""

    def bwd(g):
        calls[name] = calls.get(name, 0) + 1
        return (2.0 * g,)

    return custom_op(name, (x,), 2.0 * x.data, bwd)


def test_backward_stops_at_lowest_target():
    calls = {}
    with Tape() as tape:
        x = Tensor([1.0, -2.0, 0.5], requires_grad=True)
        a = _counted("a", x, calls)
        b = _counted("b", relu(a), calls)
        loss = weighted_sum(_square(b), [0.3, 1.1, -0.7])
        short = tape.backward(loss, [b])
        assert calls == {}  # nothing at or below b was replayed
        full = tape.backward(loss, [x, b])
    assert calls == {"a": 1, "b": 1}
    assert short[b].data.tobytes() == full[b].data.tobytes()


def _watched(name, x, refs, alive):
    """Op x -> 2x whose rule notes which gradients earlier rules received
    are still alive, then keeps a weak reference to its own."""

    def bwd(g):
        alive[name] = {other for other, ref in refs.items() if ref() is not None}
        refs[name] = weakref.ref(g)
        return (2.0 * g,)

    return custom_op(name, (x,), 2.0 * x.data, bwd)


def test_replay_frees_each_gradient_once_its_rule_has_run():
    # the rules run d, c, b, a; b is a target, so its gradient outlives the
    # replay, while c's and d's are freed as soon as the replay moves below
    # them; the tape replays twice with the same frees and the same bytes
    w = np.array([0.5, -1.25, 3.0])
    refs, alive = {}, {}
    with Tape() as tape:
        x = Tensor([1.0, -2.0, 0.5], requires_grad=True)
        a = _watched("a", x, refs, alive)
        b = _watched("b", a, refs, alive)
        c = _watched("c", b, refs, alive)
        d = _watched("d", c, refs, alive)
        loss = weighted_sum(d, w)
        maps = []
        for _ in range(2):
            refs.clear()
            maps.append(tape.backward(loss, [x, b]))
            assert alive == {"d": set(), "c": set(), "b": set(), "a": {"b"}}
    first, second = maps
    assert first[b].data.tobytes() == (4.0 * w).astype(np.float32).tobytes()
    assert first[x].data.tobytes() == (16.0 * w).astype(np.float32).tobytes()
    for node in (x, b):
        assert first[node].data.tobytes() == second[node].data.tobytes()


def test_shared_node_gets_summed_gradient_and_replays_agree():
    # h feeds an add twice (the add's rule hands back one array for both
    # inputs) and a mean (weights of 1/4): accumulation must not write
    # into stored buffers
    rng = np.random.default_rng(8)
    w = rng.standard_normal(4)
    with Tape() as tape:
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        h = relu(x)
        s = add(h, h)
        loss = add(weighted_sum(s, w), weighted_sum(h, np.full(4, 0.25)))
        g1 = tape.backward(loss, [x, h, s])
        g2 = tape.backward(loss, [x, h, s])
    assert np.allclose(g1[s].data, w.astype(np.float32))
    assert np.allclose(g1[h].data, 2.0 * w + 0.25, atol=1e-6)
    for node in (x, h, s):
        assert g1[node].data.tobytes() == g2[node].data.tobytes()


def test_mlp_finite_difference():
    # random 3-layer MLP of dense layers, every parameter checked against
    # central differences
    rng = np.random.default_rng(7)
    sizes = [(4, 5), (5, 4), (4, 2)]
    params = []
    for n_in, n_out in sizes:
        params += [rng.standard_normal((n_out, n_in)) * 0.5, rng.standard_normal(n_out) * 0.2]
    x = rng.standard_normal((3, 4))

    def oracle(arrs):
        h = x
        for i in range(len(sizes)):
            h = oracles.dense_ref(h, arrs[2 * i], arrs[2 * i + 1])
            h = oracles.relu_ref(h) if i < 2 else h
        return h

    def engine(ts):
        h = Tensor(x)
        for i, (n_in, n_out) in enumerate(sizes):
            layer = DenseLayer(ParamStore(), f"d{i}", n_in, n_out)
            layer.weight, layer.bias = ts[2 * i], ts[2 * i + 1]
            h = layer.forward(h)
            h = relu(h) if i < 2 else h
        return h

    worst = check_grads(engine, oracle, params, seed=7)
    assert worst < 1e-4


def test_grad_l2_norm_345():
    g = GradientMap({0: Tensor([3.0, 4.0])})
    assert abs(grad_l2_norm(g, 0) - 5.0) < 1e-9


def test_grad_l2_norm_zero():
    g = GradientMap({0: Tensor(np.zeros(4))})
    assert grad_l2_norm(g, 0) == 0.0


def test_grad_l2_norm_random_oracle():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(10).astype(np.float32)
    expect = float(np.sqrt(sum(float(x) ** 2 for x in v.astype(np.float64))))
    got = grad_l2_norm(GradientMap({0: Tensor(v)}), 0)
    assert abs(got - expect) / expect < 1e-6


def test_grad_l2_norm_missing_node():
    with pytest.raises(KeyError):
        grad_l2_norm(GradientMap({}), 3)


# ---------------------------------------------------------------------------
# per-op finite-difference sweeps (the criterion-1 workhorse)

def _rand_shape(rng, max_rank=3, max_dim=5):
    rank = int(rng.integers(1, max_rank + 1))
    return tuple(int(rng.integers(1, max_dim + 1)) for _ in range(rank))


def _away_from(rng, shape, gap=0.05):
    # values bounded away from 0 so kinked ops are FD-safe at h=1e-3
    mag = rng.uniform(gap + 0.05, 1.5, size=shape)
    return mag * np.where(rng.random(shape) < 0.5, -1.0, 1.0)


@pytest.mark.parametrize("seed", range(20))
def test_fd_elementwise_binary(seed):
    rng = np.random.default_rng(100 + seed)
    shape = _rand_shape(rng)
    a = rng.standard_normal(shape)
    b = rng.standard_normal(shape)
    check_grads(lambda ts: add(ts[0], ts[1]), lambda ar: ar[0] + ar[1], [a, b], seed=seed)


@pytest.mark.parametrize("seed", range(20))
def test_fd_matmul(seed):
    # the engine's matmul is the dense layer's x W^T + b
    rng = np.random.default_rng(300 + seed)
    n, k, m = (int(rng.integers(1, 5)) for _ in range(3))
    arrays = [rng.standard_normal((n, k)), rng.standard_normal((m, k)), rng.standard_normal(m)]

    def engine(ts):
        layer = DenseLayer(ParamStore(), "d", k, m)
        layer.weight, layer.bias = ts[1], ts[2]
        return layer.forward(ts[0])

    check_grads(engine, lambda ar: oracles.dense_ref(*ar), arrays, seed=seed)


@pytest.mark.parametrize("seed", range(20))
def test_fd_reductions(seed):
    # the engine's one reduction is global pooling's spatial mean
    rng = np.random.default_rng(400 + seed)
    x = rng.standard_normal(tuple(int(rng.integers(1, 5)) for _ in range(4)))
    check_grads(lambda ts: global_avg_pool(ts[0]),
                lambda ar: oracles.global_avg_pool_ref(ar[0]), [x], seed=seed)


@pytest.mark.parametrize("seed", range(20))
def test_fd_unary(seed):
    rng = np.random.default_rng(500 + seed)
    shape = _rand_shape(rng)
    x = _away_from(rng, shape)
    check_grads(lambda ts: relu(ts[0]), lambda ar: oracles.relu_ref(ar[0]), [x], seed=seed)


# ---------------------------------------------------------------------------
# invariants

def test_sum_float64_accumulation():
    # the mean's sum of 1 + 1e-4 repeated: a float32 running sum would drift
    # far more than this
    x = Tensor(np.full((1, 1, 100000, 1), 1.0001, dtype=np.float32))
    total = global_avg_pool(x).item() * x.size
    expect = 100000 * np.float64(np.float32(1.0001))
    assert abs(total - expect) / expect < 1e-6


# ---------------------------------------------------------------------------
# error handling

def test_shape_mismatch_names_op_and_shapes():
    with pytest.raises(ShapeError, match=r"add.*\[2\].*\[3\]"):
        add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


def test_add_rejects_unequal_shapes():
    # no broadcasting: a size-1 axis or a one-element operand is a mismatch too
    with pytest.raises(ShapeError, match=r"add.*\[2, 3\].*\[1, 3\]"):
        add(Tensor(np.ones((2, 3))), Tensor(np.ones((1, 3))))
    with pytest.raises(ShapeError, match=r"add.*\[3\].*\[1\]"):
        add(Tensor(np.ones(3)), Tensor(np.ones(1)))


def test_overflow_is_error():
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        _scale(Tensor([3e38]), 10.0)


def test_nonscalar_loss_rejected():
    with Tape() as tape:
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = _square(x)
        with pytest.raises(ShapeError):
            tape.backward(y, [x])
        with pytest.raises(ShapeError):
            tape.backward([(y, 0.5)], [x])
        with pytest.raises(TapeError):
            tape.backward([], [x])


def test_target_off_tape_rejected():
    with Tape() as tape:
        x = Tensor([1.0], requires_grad=True)
        loss = _square(x)
        with pytest.raises(TapeError):
            tape.backward(loss, [9999])


def test_nested_tape_rejected():
    with Tape():
        with pytest.raises(TapeError):
            with Tape():
                pass


def test_tape_slot_is_released_on_error():
    with pytest.raises(ShapeError):
        with Tape():
            add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))
    with Tape() as tape:
        assert len(tape) == 0


def test_no_tape_means_no_recording():
    x = Tensor([1.0], requires_grad=True)
    y = _square(x)
    assert y.node is None
    assert label(y, "square") is y and y.node is None


def test_label_names_only_its_own_entry():
    layer = object()
    with Tape() as tape:
        x = Tensor([1.0, -2.0], requires_grad=True)
        h = label(_square(x), "square", layer)
        y = relu(h)
    assert len(tape) == 3  # the leaf and two ops: labels add no entries
    assert (tape.entries[h.node].name, tape.entries[h.node].layer) == ("square", layer)
    assert tape.entries[y.node].name is None and tape.entries[y.node].layer is None
    assert tape.entries[x.node].name is None


def test_forward_error_metric_is_scale_relative():
    assert max_rel_err([1e-9, 0.0], [0.0, 0.0]) < 1.0
