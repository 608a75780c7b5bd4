"""Per-module metrics: per-layer microbenches, traced standard steps, probes.

Every traced run reports the same per-layer metric set, whatever its
workload, so this suite does not depend on the workload beyond the
generated splits it borrows:

* ``layers.<model>.<kind>.*``: each ``ArchEntry`` of a fresh model is run
  alone (eval-mode batch-1 forward without a tape; train-mode batch-32
  forward on a tape, then that op's recorded backward rule), joined with
  the analyzer's FLOPs and summed per kind. ``self_ms_per_step`` comes
  from traced training steps: a cloud step and a weighted ``proposed``
  transfer step.
* ``tensor.*``, ``models.*``, ``losses.*``, ``training.*``,
  ``complexity.*``, ``archive.*`` and ``datagen.*`` time the public entry
  points of those modules; counts are exact.
* ``machine.*``: a float64 GEMM peak and a copy bandwidth, the roofline
  that the per-layer GFLOP/s and FLOP/byte are read against.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, replace
from statistics import median

import numpy as np

from edgediag.archive import Manifest, load_archive, save_archive
from edgediag.complexity import analyze, bench_inference
from edgediag.datagen import load_splits, save_splits
from edgediag.layers import global_avg_pool
from edgediag.losses import KernelConfig, LossTerms, SmoothingConfig, adaptive_weights, lmmd, \
    smoothed_cross_entropy
from edgediag.models import build_model, freeze_pre_fe, share_pre_fe
from edgediag.tensor import GradientMap, Tape, Tensor, add, custom_op, relu
from edgediag.training import Adam, one_hot, train_cloud, transfer_edge

from .trace import Tracer, conv_kind
from .workloads import TRANSFER_EPOCHS, StepClock, spread_subset

MODEL_KINDS = {
    "cloud": ("conv3x3", "conv1x1", "bn", "relu", "add", "gap", "dense"),
    "edge": ("conv3x3", "dwconv", "pwconv", "bn", "relu", "gap", "dense"),
}
FLOP_KINDS = ("conv3x3", "conv1x1", "dwconv", "pwconv", "dense")
TRACED_MODULE_METRICS = ("tensor", "layers", "models", "losses", "training")
BYTES = 4


@dataclass(frozen=True)
class MicroPlan:
    reps_b1: int = 30
    reps_b32: int = 5
    batch: int = 32
    op_calls: int = 2000
    gemm_n: int = 768
    copy_mib: int = 256            # per array; source + destination = 512 MiB
    bench_repeats: int = 3
    bench_iters: int = 100
    cloud_step_windows: int = 96   # three traced cloud steps at batch 32


TINY_MICRO = MicroPlan(reps_b1=2, reps_b32=1, batch=4, op_calls=50, gemm_n=64, copy_mib=1,
                       bench_repeats=1, bench_iters=2, cloud_step_windows=8)


def _med_ms(fn, reps: int) -> float:
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append((time.perf_counter() - t0) * 1e3)
    return float(median(out))


def _entry_kind(entry) -> str:
    return conv_kind(entry.layer) if entry.kind == "conv" else entry.kind


def _entry_fn(entry):
    if entry.kind in ("conv", "bn", "dense"):
        return entry.layer.forward
    if entry.kind == "relu":
        return relu
    if entry.kind == "gap":
        return global_avg_pool
    if entry.kind == "add":
        return lambda x: add(x, x)
    raise ValueError(f"no microbench for op kind {entry.kind!r}")


def layer_table(model, mp: MicroPlan, rng) -> list:
    """One row per ArchEntry: ms at batch 1 and batch b, analyzer counts."""
    rows = []
    stats = analyze(model)
    for entry, ls in zip(model.architecture(), stats.layers):
        fn = _entry_fn(entry)
        bn = entry.layer if entry.kind == "bn" else None
        x1 = Tensor(rng.standard_normal((1, *entry.in_shape)).astype(np.float32))
        xb = Tensor(rng.standard_normal((mp.batch, *entry.in_shape)).astype(np.float32),
                    requires_grad=True)
        if bn is not None:
            bn.training = False
        fwd_b1 = _med_ms(lambda: fn(x1), mp.reps_b1)
        if bn is not None:
            bn.training = True
        fwd_b, bwd_b = [], []
        for _ in range(mp.reps_b32):
            with Tape() as tape:
                t0 = time.perf_counter()
                out = fn(xb)
                fwd_b.append((time.perf_counter() - t0) * 1e3)
            g = np.ones(out.shape, dtype=np.float64)
            bwd_fn = tape.entries[-1].backward_fn
            t0 = time.perf_counter()
            bwd_fn(g)
            bwd_b.append((time.perf_counter() - t0) * 1e3)
        weights = ls.params * BYTES
        act_bytes = (int(np.prod(entry.in_shape)) + int(np.prod(entry.out_shape))) * BYTES
        rows.append({
            "name": entry.name, "kind": _entry_kind(entry),
            "in_shape": list(entry.in_shape), "out_shape": list(entry.out_shape),
            "params": ls.params, "flops_b1": ls.flops,
            "bytes_b": act_bytes * mp.batch + weights,
            "fwd_ms_b1": fwd_b1, "fwd_ms_b32": float(median(fwd_b)),
            "bwd_ms_b32": float(median(bwd_b)),
        })
    return rows


def kind_metrics(model_kind: str, rows: list, mp: MicroPlan, machine: dict) -> dict:
    """Per-kind sums of a layer table, with achieved GFLOP/s and FLOP/byte."""
    out = {}
    for kind in MODEL_KINDS[model_kind]:
        sel = [r for r in rows if r["kind"] == kind]
        fwd_b = sum(r["fwd_ms_b32"] for r in sel)
        flops_b = sum(r["flops_b1"] for r in sel) * mp.batch
        pre = f"layers.{model_kind}.{kind}"
        out[f"{pre}.fwd_ms_b1"] = sum(r["fwd_ms_b1"] for r in sel)
        out[f"{pre}.fwd_ms_b32"] = fwd_b
        out[f"{pre}.bwd_ms_b32"] = sum(r["bwd_ms_b32"] for r in sel)
        out[f"{pre}.gflops_b32"] = flops_b / (fwd_b * 1e-3) / 1e9
        if kind in FLOP_KINDS:
            out[f"{pre}.flop_per_byte"] = flops_b / sum(r["bytes_b"] for r in sel)
    for r in rows:
        flops = r["flops_b1"] * mp.batch
        r["gflops_b32"] = flops / (r["fwd_ms_b32"] * 1e-3) / 1e9
        r["flop_per_byte"] = flops / r["bytes_b"]
        roof = min(machine["gemm_f64_gflops"], r["flop_per_byte"] * machine["copy_gbs"])
        r["roofline_frac"] = r["gflops_b32"] / roof
    return out


def machine_probes(mp: MicroPlan) -> dict:
    rng = np.random.default_rng(0)
    n = mp.gemm_n
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    a @ b
    gemm_ms = _med_ms(lambda: a @ b, 5)
    elems = mp.copy_mib * 2**20 // 8
    src = np.ones(elems)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    copy_ms = _med_ms(lambda: np.copyto(dst, src), 5)
    del src, dst
    return {
        "gemm_f64_gflops": 2 * n**3 / (gemm_ms * 1e-3) / 1e9,
        "copy_gbs": 2 * elems * 8 / (copy_ms * 1e-3) / 1e9,   # read + write
        "nproc": float(os.cpu_count() or 0),
        "blas_threads": float(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "gemm_n": n,
        "copy_bytes_per_array": elems * 8,
    }


def traced_steps(splits, cfg, seeds, mp: MicroPlan) -> dict:
    """Trace cloud and proposed steps; count wo_da steps. Per-step metrics."""
    out = {}
    mcfg = cfg.model_config()
    cloud = build_model(mcfg, "cloud", seed=seeds.cloud)
    sub = spread_subset(splits.d_training, mp.cloud_step_windows)
    ccfg = replace(cfg.cloud_train_config(seeds.train), num_epoch=1)
    tcfg = replace(cfg.transfer_train_config(seeds.train), num_epoch=TRANSFER_EPOCHS)
    fs, ft = splits.d_finetune_src, splits.d_finetune_tgt

    def edge():
        e = build_model(mcfg, "edge", seed=seeds.edge)
        share_pre_fe(cloud, e)
        freeze_pre_fe(e)
        return e

    for label, model, run in (
        ("cloud", "cloud", lambda: train_cloud(cloud, sub, ccfg)),
        ("proposed", "edge", lambda: transfer_edge(cloud, edge(), fs, ft, tcfg, "proposed")),
    ):
        tracer = Tracer()
        clock = StepClock(tracer)
        clock.label = label
        with tracer.installed(), clock.installed():
            run()
        steps = clock.steps
        # proposed: the weighted-phase steps only, the ones with the most backward calls
        most = max(s[3] for s in steps)
        keep = {i for i, s in enumerate(steps) if s[3] == most}
        selfs = tracer.self_times()
        by_kind = {k: 0 for k in MODEL_KINDS[model]}
        bwd_ns = {i: 0 for i in keep}
        for span, self_ns in zip(tracer.spans, selfs):
            if span[4] not in keep:
                continue
            if span[6] == model and span[5] in by_kind:
                by_kind[span[5]] += self_ns
            if span[0] == "tensor.Tape.backward":
                bwd_ns[span[4]] += span[2] - span[1]
        for k, ns in by_kind.items():
            out[f"layers.{model}.{k}.self_ms_per_step"] = ns / 1e6 / len(keep)
        out[f"tensor.backward_ms.{label}"] = float(median(bwd_ns.values())) / 1e6
        out.update(_count_metrics(clock, label))

    clock = StepClock()
    clock.label = "wo_da"
    with clock.installed():
        transfer_edge(cloud, edge(), fs, ft, replace(tcfg, num_epoch=1), "wo_domain_adaptation")
    out.update(_count_metrics(clock, "wo_da"))
    return out


def _count_metrics(clock: StepClock, label: str) -> dict:
    return {f"tensor.{k}.{label}": v for k, v in clock.counts()[label].items()}


def module_benches(splits, cfg, seeds, complexity: dict, mp: MicroPlan, rng,
                   workdir: str) -> dict:
    out = {}
    mcfg = cfg.model_config()
    models = {k: build_model(mcfg, k, seed=getattr(seeds, k)) for k in ("cloud", "edge")}
    x1 = Tensor(splits.d_test.x[:1])

    # tensor: custom_op bookkeeping on a 1-element input, no tape
    one = Tensor(np.ones(1, dtype=np.float32))
    arr = np.ones(1, dtype=np.float32)
    calls = mp.op_calls

    def op_loop():
        for _ in range(calls):
            custom_op("probe", (one,), arr, lambda g: (g,))

    out["tensor.op_overhead_us"] = _med_ms(op_loop, 5) * 1e3 / calls

    for kind, m in models.items():
        m.set_training(False)
        h = m.forward_pre_fe(x1)
        f = m.features_from_pre_fe(h)
        out[f"models.{kind}.forward_pre_fe_ms_b1"] = _med_ms(
            lambda: m.forward_pre_fe(x1), mp.reps_b1)
        out[f"models.{kind}.features_from_pre_fe_ms_b1"] = _med_ms(
            lambda: m.features_from_pre_fe(h), mp.reps_b1)
        out[f"models.{kind}.classify_ms_b1"] = _med_ms(lambda: m.classify(f), mp.reps_b1)

        for k, v in complexity[kind].items():
            out[f"complexity.{kind}.{k}"] = float(v)
        rep = bench_inference(m, repeats=mp.bench_repeats, iters=mp.bench_iters,
                              warmup=max(1, mp.bench_iters // 10), seed=seeds.order)
        out[f"complexity.{kind}.bench_inference_mean_ms"] = rep.mean_ms

    # losses at the transfer batch size, on features of the models' width
    b, k = mp.batch, mcfg.num_classes
    width = mcfg.feature_dim
    ys = np.arange(b) % k
    yt = rng.permutation(ys)
    fs = Tensor(rng.standard_normal((b, width)).astype(np.float32))
    ft = Tensor(rng.standard_normal((b, width)).astype(np.float32), requires_grad=True)
    kcfg = KernelConfig()
    fwd = []
    for _ in range(mp.reps_b1):
        with Tape() as tape:
            t0 = time.perf_counter()
            l_f = lmmd(fs, ft, ys, yt, kcfg)
            fwd.append((time.perf_counter() - t0) * 1e3)
    bwd_fn = tape.entries[-1].backward_fn
    out["losses.lmmd_fwd_ms"] = float(median(fwd))
    out["losses.lmmd_bwd_ms"] = _med_ms(lambda: bwd_fn(np.ones(1)), mp.reps_b1)
    logits = Tensor(rng.standard_normal((b, k)).astype(np.float32), requires_grad=True)
    labels = one_hot(yt, k)
    smoothing = SmoothingConfig(0.1, k)

    def ce():
        with Tape() as tape:
            loss = smoothed_cross_entropy(logits, labels, smoothing)
            tape.backward(loss, [logits])

    out["losses.smoothed_ce_ms"] = _med_ms(ce, mp.reps_b1)
    gf = GradientMap({0: Tensor(rng.standard_normal((b, width)).astype(np.float32))})
    gc = GradientMap({0: Tensor(rng.standard_normal((b, width)).astype(np.float32))})
    terms = LossTerms(l_f.item(), 1.6)
    out["losses.adaptive_weights_ms"] = _med_ms(lambda: adaptive_weights(gf, gc, 0, terms),
                                                mp.reps_b1)

    # training: one Adam update of every parameter the stage optimises
    share_pre_fe(models["cloud"], models["edge"])
    freeze_pre_fe(models["edge"])
    for kind, m in models.items():
        adam = Adam(m.store)
        grads = {n: rng.standard_normal(t.shape).astype(np.float32)
                 for n, t in m.store.optimizable()}
        adam.step(1e-3, grads)
        out[f"training.adam_step_ms.{kind}"] = _med_ms(lambda: adam.step(1e-3, grads), mp.reps_b1)

    # archive: save and load of the dataset and both models
    with tempfile.TemporaryDirectory(prefix="archive-", dir=workdir) as tmp:
        path = os.path.join(tmp, "dataset.edgewts")
        out["archive.dataset.save_ms"] = _med_ms(lambda: save_splits(splits, path), 3)
        out["archive.dataset.load_ms"] = _med_ms(lambda: load_splits(path), 3)
        out["archive.dataset.bytes"] = float(os.path.getsize(path))
        for kind, m in models.items():
            path = os.path.join(tmp, f"{kind}.edgewts")
            man = Manifest(kind=kind, config_hash=cfg.model_hash(), seed=getattr(seeds, kind))
            out[f"archive.{kind}.save_ms"] = _med_ms(lambda: save_archive(m.store, man, path), 3)
            out[f"archive.{kind}.load_ms"] = _med_ms(lambda: load_archive(path, man), 3)
            out[f"archive.{kind}.bytes"] = float(os.path.getsize(path))
    return out


def run_micro(splits, cfg, seeds, stages: dict, complexity: dict, mp: MicroPlan,
              workdir: str) -> tuple:
    """All per-module metrics except ``trace.*``, plus the per-entry tables.

    ``complexity`` is the analyzer's totals per model, as the run records them.
    """
    rng = np.random.default_rng([seeds.order, 2])
    machine = machine_probes(mp)
    metrics = {f"machine.{k}": machine[k]
               for k in ("gemm_f64_gflops", "copy_gbs", "nproc", "blas_threads")}
    tables = {}
    for kind in ("cloud", "edge"):
        model = build_model(cfg.model_config(), kind, seed=getattr(seeds, kind))
        rows = layer_table(model, mp, rng)
        metrics.update(kind_metrics(kind, rows, mp, machine))
        tables[kind] = rows
    metrics.update(traced_steps(splits, cfg, seeds, mp))
    metrics.update(module_benches(splits, cfg, seeds, complexity, mp, rng, workdir))
    metrics["datagen.make_splits_s"] = stages["datagen.make_splits_s"]
    metrics["datagen.windows_per_s"] = stages["datagen.windows"] / stages["datagen.make_splits_s"]
    return metrics, tables, machine
