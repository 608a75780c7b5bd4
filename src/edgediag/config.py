"""Flat key=value experiment configuration.

One UTF-8 text file drives every command: ``key = value`` lines, ``#``
comments, no sections. Unknown keys are rejected, every key has a
documented default, and the fully resolved mapping is echoed into each
run's output directory so results stay attributable.

The model architecture keys are hashed (sha256, first 16 hex digits)
into weight-archive manifests; loading refuses archives whose hash does
not match the active configuration. Data keys are hashed the same way
for dataset archives.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

from .datagen import ConditionSpec, SplitCounts, fault_taxonomy
from .losses import KernelConfig
from .models import ModelConfig
from .training import TrainConfig

__all__ = ["ConfigError", "ExperimentConfig", "SCHEMA", "default_config_text"]


class ConfigError(ValueError):
    """Bad configuration file or value."""


def _parse_int(s: str) -> int:
    return int(s)


def _parse_float(s: str) -> float:
    return float(s)


def _parse_int_list(s: str) -> tuple:
    vals = tuple(int(v.strip()) for v in s.split(",") if v.strip())
    if not vals:
        raise ValueError("empty list")
    return vals


@dataclass(frozen=True)
class _Key:
    default: object
    parse: Callable
    doc: str


SCHEMA: dict = {
    # architecture (hashed into weight manifests)
    "model.input_channels": _Key(6, _parse_int, "input channels per sample"),
    "model.input_height": _Key(32, _parse_int, "input plane height"),
    "model.input_width": _Key(32, _parse_int, "input plane width"),
    "model.num_classes": _Key(5, _parse_int, "fault classes (label 0 is healthy)"),
    "model.pre_fe_channels": _Key((12, 12), _parse_int_list,
                                  "front block conv widths, shared by both models"),
    "model.c_stage_channels": _Key((32, 48, 64, 96), _parse_int_list,
                                   "cloud residual stage widths (stride 2 per stage)"),
    "model.c_blocks_per_stage": _Key(1, _parse_int, "residual blocks per cloud stage"),
    "model.e_stage_channels": _Key((16, 24, 32, 48), _parse_int_list,
                                   "edge depthwise-separable stage widths (exactly 4)"),
    "model.feature_dim": _Key(48, _parse_int, "shared feature width after pooling"),
    # cloud training
    "cloud.batch_size": _Key(32, _parse_int, "cloud training batch size"),
    "cloud.num_epoch": _Key(12, _parse_int, "cloud training epochs"),
    "cloud.lr_max": _Key(1e-3, _parse_float, "cosine schedule peak learning rate"),
    "cloud.lr_min": _Key(0.0, _parse_float, "cosine schedule final learning rate"),
    "cloud.smoothing_epsilon": _Key(0.1, _parse_float, "label smoothing strength"),
    # edge transfer
    "transfer.batch_size": _Key(32, _parse_int, "transfer batch size (per side)"),
    "transfer.num_epoch": _Key(100, _parse_int, "transfer epochs (weighted phase ends at 90%)"),
    "transfer.lr_max": _Key(1e-3, _parse_float, "cosine schedule peak learning rate"),
    "transfer.lr_min": _Key(0.0, _parse_float, "cosine schedule final learning rate"),
    "transfer.smoothing_epsilon": _Key(0.1, _parse_float, "label smoothing strength"),
    "transfer.delta": _Key(1e-8, _parse_float, "division guard in the weight formulas"),
    "transfer.kernel_count": _Key(5, _parse_int, "Gaussian kernels in the alignment loss"),
    "transfer.bandwidth_multiplier": _Key(2.0, _parse_float,
                                          "geometric spacing of kernel bandwidths"),
    # synthetic data (hashed into dataset manifests)
    "data.source_speed": _Key(30.0, _parse_float, "source condition: rotations per second"),
    "data.source_load": _Key(0.0, _parse_float, "source condition: load units"),
    "data.target_speed": _Key(20.0, _parse_float, "target condition: rotations per second"),
    "data.target_load": _Key(1.0, _parse_float, "target condition: load units"),
    "data.noise_sigma": _Key(0.2, _parse_float, "additive noise level, both conditions"),
    "data.n_train": _Key(80, _parse_int, "training windows per class (source)"),
    "data.n_finetune": _Key(10, _parse_int, "fine-tuning windows per class and side"),
    "data.n_test": _Key(100, _parse_int, "test windows per class (target)"),
    # run control
    "run.seed": _Key(0, _parse_int, "base seed; commands may override with --seed"),
}


def default_config_text() -> str:
    lines = ["# edgediag experiment configuration (defaults)"]
    for key in sorted(SCHEMA):
        spec = SCHEMA[key]
        val = spec.default
        if isinstance(val, tuple):
            val = ",".join(map(str, val))
        lines.append(f"# {spec.doc}")
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


class ExperimentConfig:
    """Resolved configuration: schema defaults overlaid with file values."""

    def __init__(self, values: Optional[dict] = None):
        self.values = {k: spec.default for k, spec in SCHEMA.items()}
        for key, val in (values or {}).items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown configuration key: {key}")
            self.values[key] = val

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        parsed = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in SCHEMA:
                raise ConfigError(f"line {lineno}: unknown configuration key: {key}")
            if key in parsed:
                raise ConfigError(f"line {lineno}: duplicate key: {key}")
            try:
                parsed[key] = SCHEMA[key].parse(val)
            except ValueError as err:
                raise ConfigError(f"line {lineno}: bad value for {key}: {err}") from None
        return cls(parsed)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_text(fh.read())
        except OSError as err:
            raise ConfigError(f"cannot read config {path}: {err}") from None

    def __getitem__(self, key: str):
        return self.values[key]

    def echo_text(self) -> str:
        lines = []
        for key in sorted(self.values):
            val = self.values[key]
            if isinstance(val, tuple):
                val = ",".join(map(str, val))
            lines.append(f"{key} = {val}")
        return "\n".join(lines) + "\n"

    def _hash(self, prefixes: tuple) -> str:
        h = hashlib.sha256()
        for key in sorted(self.values):
            if key.startswith(prefixes):
                h.update(f"{key}={self.values[key]}\n".encode("utf-8"))
        return h.hexdigest()[:16]

    def model_hash(self) -> str:
        return self._hash(("model.",))

    def data_hash(self) -> str:
        return self._hash(("data.", "model.num_classes", "model.input_"))

    # ------------------------------------------------------------------
    # typed views

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            input_shape=(
                self["model.input_channels"],
                self["model.input_height"],
                self["model.input_width"],
            ),
            num_classes=self["model.num_classes"],
            pre_fe_channels=tuple(self["model.pre_fe_channels"]),
            c_stage_channels=tuple(self["model.c_stage_channels"]),
            c_blocks_per_stage=self["model.c_blocks_per_stage"],
            e_stage_channels=tuple(self["model.e_stage_channels"]),
            feature_dim=self["model.feature_dim"],
        )

    def _train_config(self, stage: str, seed: Optional[int], **extra) -> TrainConfig:
        keys = ("batch_size", "num_epoch", "lr_max", "lr_min", "smoothing_epsilon")
        return TrainConfig(
            seed=self["run.seed"] if seed is None else seed,
            **{k: self[f"{stage}.{k}"] for k in keys},
            **extra,
        )

    def cloud_train_config(self, seed: Optional[int] = None) -> TrainConfig:
        return self._train_config("cloud", seed)

    def transfer_train_config(self, seed: Optional[int] = None) -> TrainConfig:
        return self._train_config(
            "transfer", seed,
            delta=self["transfer.delta"],
            kernel=KernelConfig(
                kernel_count=self["transfer.kernel_count"],
                bandwidth_multiplier=self["transfer.bandwidth_multiplier"],
            ),
        )

    def validate(self) -> None:
        """Check the model and both training stages before any work starts."""
        for prefix, view in (("model", self.model_config), ("cloud", self.cloud_train_config),
                             ("transfer", self.transfer_train_config)):
            try:
                view().validate()
            except ValueError as err:
                raise ConfigError(f"{prefix}.*: {err}") from None

    def conditions(self) -> tuple:
        sigma = self["data.noise_sigma"]
        return (
            ConditionSpec(self["data.source_speed"], self["data.source_load"], sigma),
            ConditionSpec(self["data.target_speed"], self["data.target_load"], sigma),
        )

    def split_counts(self) -> SplitCounts:
        return SplitCounts(
            n_train=self["data.n_train"],
            n_finetune=self["data.n_finetune"],
            n_test=self["data.n_test"],
        )

    def faults(self):
        return fault_taxonomy(self["model.num_classes"])
