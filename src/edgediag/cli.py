"""Command line for the cloud-to-edge diagnosis pipeline.

Subcommands cover the whole workflow: synthetic data generation, cloud
training, edge knowledge transfer (full method or either ablation),
evaluation, static complexity analysis, latency benchmarking, and a
reproduce command that runs the complete ablation grid over several
seeds and summarizes it.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 training
divergence, 5 archive/integrity error. Every failure prints one
machine-parsable line naming the stage, then the resolved config echo.
Outputs are deterministic for fixed inputs; wall-clock measurements are
segregated under timings/ so the metrics and reports trees stay
byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .archive import (
    ArchiveError,
    Manifest,
    ManifestMismatchError,
    load_archive,
    read_manifest,
    save_archive,
)
from .complexity import analyze, bench_inference, format_comparison
from .config import ConfigError, ExperimentConfig, default_config_text
from .datagen import DataError, load_splits, make_splits, save_splits
from .layers import BuildError
from .models import build_model, freeze_pre_fe, share_pre_fe
from .training import (
    TrainingDiverged,
    evaluate,
    train_cloud,
    transfer_edge,
    write_reports,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4
EXIT_ARCHIVE = 5

VARIANT_NAMES = {
    "proposed": "proposed",
    "wo-da": "wo_domain_adaptation",
    "wo-aa": "wo_adaptation_adjustment",
}


def _edge_seed(seed: int) -> int:
    # fixed convention so CLI runs and library runs line up exactly
    return seed + 1


def _ensure_dir(path) -> None:
    os.makedirs(path, exist_ok=True)


def _prepare_file(path) -> str:
    _ensure_dir(os.path.dirname(path) or ".")
    return path


def _echo_config(cfg: ExperimentConfig, out_dir) -> None:
    _ensure_dir(out_dir)
    with open(os.path.join(out_dir, "config-echo.txt"), "w", encoding="utf-8") as fh:
        fh.write(cfg.echo_text())


def _dataset_manifest(cfg: ExperimentConfig, seed: int) -> Manifest:
    return Manifest(kind="dataset", config_hash=cfg.data_hash(), seed=seed)


def _model_manifest(cfg: ExperimentConfig, kind: str, seed: int) -> Manifest:
    return Manifest(kind=kind, config_hash=cfg.model_hash(), seed=seed)


def _load_dataset(cfg: ExperimentConfig, path):
    if not os.path.exists(path):
        raise DataError(f"dataset archive not found: {path}")
    splits = load_splits(path, _dataset_manifest(cfg, 0))
    shape, k = cfg.model_config().input_shape, cfg["model.num_classes"]
    for name, split in vars(splits).items():
        if split.x.shape[1:] != shape:
            raise DataError(f"{name} samples have shape {list(split.x.shape[1:])}, "
                            f"the model takes {list(shape)}")
        if split.y.max() >= k:
            raise DataError(f"{name} holds label {split.y.max()}, the model has {k} classes")
    return splits


def _apply_weights(model, store) -> None:
    for name in model.store.names():
        if name not in store:
            raise ArchiveError(f"archive is missing entry {name!r}")
        src = store[name].data
        dst = model.store[name].data
        if src.shape != dst.shape:
            raise ArchiveError(
                f"entry {name!r} has shape {list(src.shape)}, model needs {list(dst.shape)}"
            )
        dst[...] = src


def _load_model(cfg: ExperimentConfig, path, kind=None):
    if not os.path.exists(path):
        raise ArchiveError(f"weights archive not found: {path}")
    manifest = read_manifest(path)
    kind = kind or manifest.kind
    if kind not in ("cloud", "edge"):
        raise ManifestMismatchError(f"archive holds a {kind!r} model, expected 'cloud' or 'edge'")
    store = load_archive(path, _model_manifest(cfg, kind, manifest.seed))
    model = build_model(cfg.model_config(), kind, seed=manifest.seed)
    _apply_weights(model, store)
    return model, manifest


# ---------------------------------------------------------------------------
# the two pipeline stages, shared by their subcommands and the grid

def _cloud_stage(cfg: ExperimentConfig, splits, seed: int, weights, metrics, timing):
    """Build and train the cloud model; save its archive and epoch reports."""
    model = build_model(cfg.model_config(), "cloud", seed=seed)
    reports = train_cloud(model, splits.d_training, cfg.cloud_train_config(seed))
    save_archive(model.store, _model_manifest(cfg, "cloud", seed), _prepare_file(weights))
    write_reports(reports, _prepare_file(metrics), _prepare_file(timing))
    return model, reports


def _edge_stage(cfg: ExperimentConfig, c_model, splits, seed: int, variant: str,
                weights, metrics, timing):
    """Build the edge model, share and freeze the cloud's pre_fe, transfer
    with one variant; save its archive and epoch reports. Every variant of
    one seed starts from the same state, which keeps the ablation controlled."""
    e_model = build_model(cfg.model_config(), "edge", seed=_edge_seed(seed))
    share_pre_fe(c_model, e_model)
    freeze_pre_fe(e_model)
    reports = transfer_edge(
        c_model,
        e_model,
        splits.d_finetune_src,
        splits.d_finetune_tgt,
        cfg.transfer_train_config(seed),
        variant=variant,
    )
    save_archive(e_model.store, _model_manifest(cfg, "edge", seed), _prepare_file(weights))
    write_reports(reports, _prepare_file(metrics), _prepare_file(timing))
    return e_model


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_data(args, cfg: ExperimentConfig) -> int:
    _echo_config(cfg, args.out)
    seed = cfg["run.seed"] if args.seed is None else args.seed
    src, tgt = cfg.conditions()
    splits = make_splits(src, tgt, cfg.faults(), cfg.split_counts(), seed=seed)
    path = os.path.join(args.out, "dataset.edgewts")
    save_splits(splits, path, _dataset_manifest(cfg, seed))
    print(f"dataset written: {path} "
          f"({len(splits.d_training)} train / {len(splits.d_finetune_src)}+"
          f"{len(splits.d_finetune_tgt)} fine-tune / {len(splits.d_test)} test)")
    return EXIT_OK


def cmd_train_cloud(args, cfg: ExperimentConfig) -> int:
    _echo_config(cfg, os.path.dirname(args.out_weights) or ".")
    seed = cfg["run.seed"] if args.seed is None else args.seed
    splits = _load_dataset(cfg, args.data)
    _, reports = _cloud_stage(
        cfg, splits, seed, args.out_weights, args.metrics, args.metrics + ".timing"
    )
    final = reports[-1].train_accuracy if reports else float("nan")
    print(f"cloud model written: {args.out_weights} (train accuracy {final:.4f})")
    return EXIT_OK


def cmd_transfer(args, cfg: ExperimentConfig) -> int:
    _echo_config(cfg, os.path.dirname(args.out_weights) or ".")
    seed = cfg["run.seed"] if args.seed is None else args.seed
    splits = _load_dataset(cfg, args.data)
    c_model, _ = _load_model(cfg, args.cloud_weights, kind="cloud")
    _edge_stage(cfg, c_model, splits, seed, VARIANT_NAMES[args.variant],
                args.out_weights, args.metrics, args.metrics + ".timing")
    print(f"edge model written: {args.out_weights} (variant {args.variant})")
    return EXIT_OK


def cmd_eval(args, cfg: ExperimentConfig) -> int:
    splits = _load_dataset(cfg, args.data)
    model, _ = _load_model(cfg, args.weights)
    accuracy, conf = evaluate(model, splits.d_test)
    names = [f.name for f in cfg.faults()]
    text = conf.to_text(names)
    if args.report:
        with open(_prepare_file(args.report), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        with open(args.report + ".jsonl", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(
                {"accuracy": accuracy, "confusion": conf.counts.tolist()},
                sort_keys=True,
            ) + "\n")
    print(text)
    return EXIT_OK


def cmd_analyze(args, cfg: ExperimentConfig) -> int:
    model = build_model(cfg.model_config(), args.kind, seed=cfg["run.seed"])
    stats = analyze(model)
    print(stats.to_text())
    if args.report:
        with open(_prepare_file(args.report), "w", encoding="utf-8") as fh:
            fh.write(stats.to_text() + "\n")
    return EXIT_OK


def cmd_bench(args, cfg: ExperimentConfig) -> int:
    model, manifest = _load_model(cfg, args.weights)
    report = bench_inference(
        model, repeats=args.repeats, iters=args.iters, warmup=args.warmup
    )
    print(f"model kind: {manifest.kind}")
    print(report.to_text())
    if args.report:
        with open(_prepare_file(args.report), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report.to_record()) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# the full ablation grid

def _run_seed(cfg: ExperimentConfig, seed: int, out_dir: str) -> dict:
    """Both stages for one seed; {variant: test accuracy of its edge model}."""
    src, tgt = cfg.conditions()
    splits = make_splits(src, tgt, cfg.faults(), cfg.split_counts(), seed=seed)
    tag = f"seed{seed:03d}"

    def paths(weights_name: str, name: str) -> tuple:
        return (os.path.join(out_dir, "weights", f"{tag}_{weights_name}.edgewts"),
                os.path.join(out_dir, "metrics", f"{tag}_{name}.jsonl"),
                os.path.join(out_dir, "timings", f"{tag}_{name}.jsonl"))

    c_model, _ = _cloud_stage(cfg, splits, seed, *paths("cloud", "cloud"))
    result = {}
    for cli_name, variant in VARIANT_NAMES.items():
        e_model = _edge_stage(cfg, c_model, splits, seed, variant,
                              *paths(f"edge_{cli_name}", cli_name))
        result[variant] = evaluate(e_model, splits.d_test)[0]
    return result


def run_grid(cfg: ExperimentConfig, seeds, out_dir, bench: bool = False):
    """Run gen/train/transfer/eval for every (seed, variant); write summaries.

    Returns {variant: [accuracy per seed]} in seed order. Seeds run one
    after another, each as a complete independent pipeline writing its
    own files.
    """
    _echo_config(cfg, out_dir)
    for sub in ("weights", "metrics", "reports", "timings"):
        _ensure_dir(os.path.join(out_dir, sub))
    seeds = list(seeds)
    results = [_run_seed(cfg, s, out_dir) for s in seeds]

    accuracies = {v: [r[v] for r in results] for v in VARIANT_NAMES.values()}
    with open(os.path.join(out_dir, "reports", "accuracy.jsonl"), "w", encoding="utf-8") as fh:
        for seed, res in zip(seeds, results):
            for variant in VARIANT_NAMES.values():
                fh.write(json.dumps(
                    {"seed": seed, "variant": variant, "accuracy": res[variant]},
                    sort_keys=True,
                ) + "\n")

    model_cfg = cfg.model_config()
    stats = {
        "cloud": analyze(build_model(model_cfg, "cloud", seed=seeds[0])),
        "edge": analyze(build_model(model_cfg, "edge", seed=seeds[0])),
    }
    lines = ["ablation accuracy over seeds " + ",".join(map(str, seeds)), ""]
    for variant in VARIANT_NAMES.values():
        vals = accuracies[variant]
        lines.append(
            f"{variant:<28} mean {np.mean(vals):.4f}  std {np.std(vals):.4f}  "
            + " ".join(f"{v:.4f}" for v in vals)
        )
    lines += ["", "model complexity", format_comparison(stats)]
    with open(os.path.join(out_dir, "reports", "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    if bench:
        bench_reports = {
            kind: bench_inference(build_model(model_cfg, kind, seed=seeds[0]))
            for kind in ("cloud", "edge")
        }
        with open(os.path.join(out_dir, "timings", "latency.txt"), "w", encoding="utf-8") as fh:
            fh.write(format_comparison(stats, bench_reports) + "\n")
    return accuracies


def cmd_reproduce(args, cfg: ExperimentConfig) -> int:
    seeds = [cfg["run.seed"] + i for i in range(args.seeds)]
    accuracies = run_grid(cfg, seeds, args.out, bench=args.bench)
    with open(os.path.join(args.out, "reports", "summary.txt"), encoding="utf-8") as fh:
        print(fh.read().rstrip())
    proposed = float(np.mean(accuracies["proposed"]))
    wo_da = float(np.mean(accuracies["wo_domain_adaptation"]))
    print(f"\nproposed mean accuracy beats cross-entropy-only by "
          f"{(proposed - wo_da) * 100:.2f} points")
    return EXIT_OK


def cmd_default_config(args, cfg) -> int:
    sys.stdout.write(default_config_text())
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgediag",
        description="cloud-to-edge cross-condition fault diagnosis pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset archive")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_gen_data, stage="gen-data")

    p = sub.add_parser("train-cloud", help="train the cloud model on source data")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True, help="dataset archive")
    p.add_argument("--out-weights", required=True)
    p.add_argument("--metrics", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_train_cloud, stage="train-cloud")

    p = sub.add_parser("transfer", help="transfer cloud knowledge to the edge model")
    p.add_argument("--config", required=True)
    p.add_argument("--cloud-weights", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--variant", choices=sorted(VARIANT_NAMES), default="proposed")
    p.add_argument("--out-weights", required=True)
    p.add_argument("--metrics", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_transfer, stage="transfer")

    p = sub.add_parser("eval", help="evaluate a model archive on the test split")
    p.add_argument("--config", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(fn=cmd_eval, stage="eval")

    p = sub.add_parser("analyze", help="static params/memory/FLOPs analysis")
    p.add_argument("--config", required=True)
    p.add_argument("--kind", choices=("cloud", "edge"), required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(fn=cmd_analyze, stage="analyze")

    p = sub.add_parser("bench", help="inference latency benchmark")
    p.add_argument("--config", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--warmup", type=int, default=100)
    p.add_argument("--report", default=None)
    p.set_defaults(fn=cmd_bench, stage="bench")

    p = sub.add_parser("reproduce", help="run the full ablation grid over N seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--out", required=True)
    p.add_argument("--bench", action="store_true", help="also measure latency")
    p.set_defaults(fn=cmd_reproduce, stage="reproduce")

    p = sub.add_parser("default-config", help="print the documented default config")
    p.set_defaults(fn=cmd_default_config, stage="default-config")
    return parser


_ERROR_CODES = (
    (ConfigError, EXIT_CONFIG),
    (BuildError, EXIT_CONFIG),
    (TrainingDiverged, EXIT_DIVERGED),
    (DataError, EXIT_DATA),
    (ArchiveError, EXIT_ARCHIVE),
    (ValueError, EXIT_CONFIG),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = None
    try:
        if hasattr(args, "config"):
            cfg = ExperimentConfig.from_file(args.config)
            cfg.validate()
        return args.fn(args, cfg)
    except Exception as err:  # mapped to documented exit codes below
        for exc_type, code in _ERROR_CODES:
            if isinstance(err, exc_type):
                break
        else:
            raise
        print(f"error stage={args.stage} code={code}: {err}", file=sys.stderr)
        if cfg is not None:
            sys.stderr.write(cfg.echo_text())
        return code


if __name__ == "__main__":
    sys.exit(main())
