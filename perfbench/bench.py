"""One benchmark run: set up, measure, check, and assemble the result.

Metric names and units are declared once, in ``BENCHMARK.json`` at the
checkout root; a run that would emit an undeclared metric fails.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from statistics import median

import numpy as np

from edgediag.complexity import analyze
from edgediag.models import build_model

from . import micro as mic
from . import workloads as wl
from .trace import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def catalog(path: str = os.path.join(ROOT, "BENCHMARK.json")) -> dict:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} as declared."""
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def git_commit(root: str = ROOT):
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def complexity_counts(st) -> dict:
    """Analyzer totals of both models and the edge/cloud ratios; exact."""
    out = {}
    for kind in ("cloud", "edge"):
        model = getattr(st, kind) or build_model(st.cfg.model_config(), kind, seed=0)
        stats = analyze(model)
        out[kind] = {"params": stats.total_params, "flops": stats.total_flops,
                     "memory_bytes": stats.total_memory_bytes}
    out["edge_over_cloud"] = {k: out["edge"][k] / out["cloud"][k] for k in out["edge"]}
    return out


def execute(name: str, seed: int, seconds: float, trace: bool, plan=None, micro_plan=None,
            out_dir: str = OUT) -> tuple:
    """Run one workload; returns (result line, full record)."""
    plan = plan or wl.Plan()
    micro_plan = micro_plan or mic.MicroPlan()
    units = catalog()["per_layer" if trace else "end_to_end"]
    oc = wl.Outcome()
    seeds = wl.Seeds.derive(seed)
    measure = wl.MEASURE[name]
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "seeds": vars(seeds), "env": environment()}
    with wl.workdir(out_dir) as wdir:
        st, setup_times, stages = wl.run_setups(name, seeds, plan, wdir, oc)
        record["setup_s"] = setup_times
        record["setup_stages_s"] = stages
        record["complexity"] = complexity_counts(st)
        if not trace:
            res = measure(st, plan, seconds, oc)
            metrics, record["named_metrics"], record["op_samples"] = wl.end_to_end(name, res)
            metrics["setup_s"] = median(setup_times)
            metrics["peak_rss_mb"] = wl.peak_rss_mb()
        else:
            # untraced and traced quarters alternate, so that both see the same
            # stretch of machine time; the untraced ones are the overhead's baseline
            tracer = Tracer()
            plain_ms, traced_ms, traced_ns = [], [], 0
            for _ in range(2):
                plain_ms += measure(st, plan, seconds / 4, oc)["op_ms"]
                t0 = time.perf_counter_ns()
                with tracer.installed():
                    res = measure(st, plan, seconds / 4, oc, tracer)
                traced_ns += time.perf_counter_ns() - t0
                traced_ms += res["op_ms"]
            metrics = {"trace.overhead_frac": median(traced_ms) / median(plain_ms) - 1.0}
            by_module = dict.fromkeys(mic.TRACED_MODULE_METRICS, 0)
            for span, self_ns in zip(tracer.spans, tracer.self_times()):
                module = span[0].split(".", 1)[0]
                if module in by_module:
                    by_module[module] += self_ns
            for module, ns in by_module.items():
                metrics[f"trace.{module}.self_frac"] = ns / traced_ns
            micro_metrics, tables, machine = mic.run_micro(
                st.splits, st.cfg, seeds, stages, record["complexity"], micro_plan, wdir)
            metrics.update(micro_metrics)
            spans_path = os.path.join(out_dir, f"{name}-seed{seed}.spans.jsonl")
            tracer.write(spans_path)
            record.update(layer_tables=tables, machine=machine, spans=spans_path,
                          span_count=len(tracer.spans))
        record["samples"] = wl.sample_counts(name, res)
        record["exact_counts"] = wl.exact_counts(res)
    record["notes"] = oc.notes
    if not trace:
        metrics["ops_ok_frac"] = 1.0 - oc.failed / max(oc.attempted, 1)
    result = {
        "correct": oc.failed == 0,
        "attempted": oc.attempted,
        "failed": oc.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    missing = set(units) - set(metrics)
    if missing:
        raise KeyError(f"declared metrics not measured: {sorted(missing)}")
    record["result"] = result
    return result, record
