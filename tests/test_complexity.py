import hashlib

import numpy as np
import pytest

from edgediag.complexity import (
    AnalysisError,
    analyze,
    bench_inference,
    conv_stats,
    dense_stats,
    format_comparison,
)
from edgediag.layers import Conv2dLayer, DenseLayer, ParamStore
from edgediag.models import ArchEntry, ModelConfig, build_model
from edgediag.tensor import custom_op

CFG = ModelConfig()

TINY = ModelConfig(
    input_shape=(2, 16, 16),
    num_classes=3,
    pre_fe_channels=(4,),
    c_stage_channels=(4, 6),
    e_stage_channels=(4, 4, 6, 6),
    feature_dim=6,
)


def test_dense_hand_count():
    layer = DenseLayer(ParamStore(), "d", 128, 10)
    params, flops = dense_stats(layer)
    assert params == 1290  # 128*10 + 10
    assert flops == 2570   # 2*1280 + 10


def test_conv_hand_count_same_padded():
    layer = Conv2dLayer(ParamStore(), "c", 3, 8, 3)
    params, flops = conv_stats(layer, (8, 8, 8))
    assert params == 216  # 8*3*9
    assert flops == 2 * 8 * 8 * 8 * 27


def test_depthwise_separable_hand_count():
    # dw 8ch 3x3 + pw 8->16: 8*9 + 16*8 = 200
    store = ParamStore()
    dw = Conv2dLayer(store, "dw", 8, 8, 3, groups=8)
    pw = Conv2dLayer(store, "pw", 8, 16, 1)
    p_dw, f_dw = conv_stats(dw, (8, 4, 4))
    p_pw, f_pw = conv_stats(pw, (16, 4, 4))
    assert p_dw + p_pw == 200
    assert f_dw == 2 * 8 * 4 * 4 * 9   # groups divide the MACs
    assert f_pw == 2 * 16 * 4 * 4 * 8


def test_analyze_attribution_is_exact():
    for kind in ("cloud", "edge"):
        model = build_model(CFG, kind, seed=0)
        stats = analyze(model)
        assert stats.total_params == model.store.element_count()


def test_analyze_covers_every_store_entry_once():
    model = build_model(TINY, "edge", seed=0)
    arch = model.architecture()
    owned = []
    for e in arch:
        if e.layer is None:
            continue
        for attr in ("weight", "bias", "gamma", "beta", "running_mean", "running_var"):
            t = getattr(e.layer, attr, None)
            if t is not None:
                owned.append(f"{e.name}.{attr}")
    assert sorted(owned) == sorted(model.store.names())


def test_lightweight_ratios_default_config():
    c = analyze(build_model(CFG, "cloud", seed=0))
    e = analyze(build_model(CFG, "edge", seed=0))
    assert e.total_params / c.total_params <= 0.10
    assert e.total_flops / c.total_flops <= 0.30
    assert e.total_memory_bytes < c.total_memory_bytes


def test_flops_quadruple_when_input_doubles():
    base = analyze(build_model(CFG, "edge", seed=0))
    big = analyze(build_model(ModelConfig(input_shape=(6, 64, 64)), "edge", seed=0))
    first_conv = lambda st: next(l for l in st.layers if l.kind == "conv")
    assert first_conv(big).flops == 4 * first_conv(base).flops
    # params never depend on the input plane
    assert big.total_params == base.total_params


def test_memory_is_activation_sum():
    model = build_model(TINY, "edge", seed=0)
    stats = analyze(model)
    by_hand = sum(4 * int(np.prod(l.out_shape)) for l in stats.layers)
    assert stats.total_memory_bytes == by_hand


def test_unknown_op_kind_is_an_error():
    model = build_model(TINY, "edge", seed=0)
    real = model.architecture

    def with_mystery():
        entries = real()
        entries.append(ArchEntry("mystery", "fft", (4,), (4,)))
        return entries

    model.architecture = with_mystery
    with pytest.raises(AnalysisError, match="fft"):
        analyze(model)


def test_op_without_convention_in_forward_is_an_error():
    # the traced forward meets an op the analyzer has no convention for
    model = build_model(TINY, "edge", seed=0)
    classify = model.classify

    def doubled(f):
        logits = classify(f)
        return custom_op("double", (logits,), 2.0 * logits.data, lambda g: (2.0 * g,))

    model.classify = doubled
    with pytest.raises(AnalysisError, match="double"):
        analyze(model)


# sha256 of analyze(...).to_text() on the default config: a change to any
# layer name, shape or count in either table changes it
DEFAULT_TABLE_SHA256 = {
    "cloud": "47cbe573818cee411662bb796f38798559557f8cb875eacb2e0192f441ff4ad6",
    "edge": "21eadf5b23dd4e39051ad9c1a1e2e151b24bc0d694ef0234d2441e51b5a6e7dc",
}


@pytest.mark.parametrize("kind", ["cloud", "edge"])
def test_default_tables_are_pinned(kind):
    text = analyze(build_model(ModelConfig(), kind, 0)).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_TABLE_SHA256[kind]


def test_stats_table_renders():
    stats = analyze(build_model(TINY, "edge", seed=0))
    text = stats.to_text()
    assert "total" in text and "pre_fe.conv1" in text
    cmp = format_comparison({"cloud": stats, "edge": stats})
    assert "params" in cmp and "MFlops" in cmp.splitlines()[0] or "flops" in cmp


# ---------------------------------------------------------------------------
# latency protocol

def _tiny_model():
    return build_model(TINY, "edge", seed=0)


def test_bench_protocol_counts():
    model = _tiny_model()
    rep = bench_inference(model, repeats=1, iters=1, warmup=0)
    assert len(rep.per_repeat_ms) == 1
    assert rep.iters == 1 and rep.repeats == 1
    assert all(bn.training for bn in model.bn_layers())  # eval mode only while timing


def test_bench_report_statistics():
    rep = bench_inference(_tiny_model(), repeats=4, iters=5, warmup=2)
    assert len(rep.per_repeat_ms) == 4
    assert rep.mean_ms == pytest.approx(float(np.mean(rep.per_repeat_ms)))
    assert rep.std_ms == pytest.approx(float(np.std(rep.per_repeat_ms)))
    assert all(v > 0 for v in rep.per_repeat_ms)


def test_bench_stability_sanity():
    # two benchmarks of one model agree within 3 pooled sigmas (plus a small
    # floor so a quantized-zero sigma cannot fail the run on a quiet machine)
    model = _tiny_model()
    a = bench_inference(model, repeats=5, iters=40, warmup=20)
    b = bench_inference(model, repeats=5, iters=40, warmup=20)
    slack = 3.0 * (a.std_ms + b.std_ms) + 0.05 * max(a.mean_ms, b.mean_ms)
    assert abs(a.mean_ms - b.mean_ms) <= slack


def test_bench_rejects_bad_protocol():
    with pytest.raises(ValueError):
        bench_inference(_tiny_model(), repeats=0)
