"""Synthetic multi-channel vibration signals for cross-condition experiments.

Stands in for a physical gearbox test rig: six accelerometer channels
(two sensor locations x three axes) sampled at 1024 samples per unit
time. Each recording is a sum of shaft harmonics at multiples of the
rotation speed, a fault-specific signature (extra harmonics plus a train
of exponentially decaying resonance bursts locked to the rotation), and
white Gaussian noise. Load scales all deterministic amplitudes by
(1 + 0.3*load) and amplitude-modulates the signal at a low frequency
with depth 0.25*load, so changing (speed, load) shifts the data
distribution while the per-class signature structure survives.

Windows are cut back to back (no overlap), 1024 samples each, and each
channel's window is laid out row-major as a 32x32 plane, giving the
[6, 32, 32] sample tensors both networks consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .archive import Manifest, load_archive, save_archive
from .layers import ParamStore
from .tensor import Tensor

__all__ = [
    "DataError",
    "ConditionSpec",
    "FaultSpec",
    "SampleSet",
    "Splits",
    "SplitCounts",
    "fault_taxonomy",
    "generate_signal",
    "amplitude_bound",
    "window_and_reshape",
    "make_splits",
    "save_splits",
    "load_splits",
]

SAMPLE_RATE = 1024
WINDOW_LEN = 1024
CHANNELS = 6
PLANE = (32, 32)

BASE_HARMONICS = ((1, 1.0), (2, 0.6), (3, 0.35))
LOAD_AMP_GAIN = 0.3
LOAD_MOD_DEPTH = 0.25
LOAD_MOD_FREQ = 2.0
CHANNEL_GAIN_STEP = 0.06
BURST_CUTOFF_TAUS = 6.0


class DataError(ValueError):
    """Dataset construction failed (bad counts, short signals, ...)."""


@dataclass(frozen=True)
class ConditionSpec:
    """One operating condition of the simulated machine.

    ``speed_wobble`` is a slow sinusoidal drift of the instantaneous
    rotation speed (relative amplitude at ``wobble_freq``), and
    ``amp_drift`` a slow gain drift; both make windows within one
    recording genuinely diverse, the way real rigs are nonstationary.
    """

    speed: float  # rotations per second
    load: float   # abstract load units
    noise_sigma: float = 0.2
    speed_wobble: float = 0.08
    wobble_freq: float = 0.7
    amp_drift: float = 0.15

    def validate(self) -> None:
        if self.speed <= 0:
            raise DataError(f"speed must be positive, got {self.speed}")
        if self.noise_sigma < 0:
            raise DataError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not 0 <= self.speed_wobble < 1:
            raise DataError(f"speed_wobble must be in [0, 1), got {self.speed_wobble}")
        if self.amp_drift < 0 or self.wobble_freq <= 0:
            raise DataError("amp_drift must be >= 0 and wobble_freq positive")


@dataclass(frozen=True)
class FaultSpec:
    """Signature of one fault class.

    ``harmonics`` are (speed multiplier, amplitude) pairs added on top of
    the base shaft harmonics; ``impulse_rate`` is resonance bursts per
    revolution (0 for none). Label 0 is the healthy state and carries an
    empty signature.
    """

    label: int
    name: str = ""
    harmonics: tuple = ()
    impulse_rate: float = 0.0
    impulse_amp: float = 0.0
    impulse_decay: float = 0.01
    resonance_freq: float = 260.0

    def validate(self) -> None:
        if self.label < 0:
            raise DataError(f"fault label must be >= 0, got {self.label}")
        if self.label == 0 and (self.harmonics or self.impulse_rate):
            raise DataError("label 0 (Normal) must have an empty fault signature")


def fault_taxonomy(num_classes: int = 5) -> List[FaultSpec]:
    """The five-class gearbox taxonomy, extended procedurally beyond 5."""
    base = [
        FaultSpec(0, "normal"),
        FaultSpec(1, "broken", ((1.5, 0.5),), impulse_rate=1.0, impulse_amp=1.4,
                  impulse_decay=0.012, resonance_freq=290.0),
        FaultSpec(2, "miss", ((2.5, 0.45),), impulse_rate=1.0, impulse_amp=2.0,
                  impulse_decay=0.006, resonance_freq=320.0),
        FaultSpec(3, "root", ((0.75, 0.5),), impulse_rate=1.0, impulse_amp=0.9,
                  impulse_decay=0.025, resonance_freq=230.0),
        FaultSpec(4, "pitting", ((3.5, 0.4),), impulse_rate=4.0, impulse_amp=0.7,
                  impulse_decay=0.008, resonance_freq=350.0),
    ]
    if num_classes < 1:
        raise DataError(f"need at least one class, got {num_classes}")
    faults = base[:num_classes]
    for label in range(len(faults), num_classes):
        faults.append(
            FaultSpec(
                label,
                f"synthetic{label}",
                ((1.2 + 0.35 * (label % 4), 0.45),),
                impulse_rate=float(label % 3 + 1),
                impulse_amp=0.8 + 0.15 * (label % 5),
                impulse_decay=0.006 + 0.004 * (label % 4),
                resonance_freq=200.0 + 28.0 * label,
            )
        )
    return faults


def amplitude_bound(cond: ConditionSpec, fault: FaultSpec) -> float:
    """Hard bound on |signal|: deterministic amplitudes plus a 10-sigma noise margin."""
    amp = sum(a for _, a in BASE_HARMONICS) + sum(a for _, a in fault.harmonics)
    if fault.impulse_rate > 0:
        fastest = cond.speed * (1.0 + cond.speed_wobble) * fault.impulse_rate
        overlap = int(np.ceil(BURST_CUTOFF_TAUS * fault.impulse_decay * fastest)) + 1
        amp += fault.impulse_amp * overlap
    scale = (1.0 + LOAD_AMP_GAIN * cond.load) * (1.0 + LOAD_MOD_DEPTH * abs(cond.load))
    scale *= 1.0 + cond.amp_drift
    return scale * amp + 10.0 * cond.noise_sigma


def generate_signal(
    cond: ConditionSpec, fault: FaultSpec, seed: int, length: int
) -> np.ndarray:
    """Deterministic [6, length] float32 recording for one (condition, fault)."""
    cond.validate()
    fault.validate()
    if length < WINDOW_LEN:
        raise DataError(f"length must be >= {WINDOW_LEN}, got {length}")

    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64) / SAMPLE_RATE

    harmonics = list(BASE_HARMONICS) + list(fault.harmonics)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=len(harmonics))
    channel_phase = 2.0 * np.pi * np.arange(CHANNELS) / CHANNELS
    channel_gain = 1.0 - CHANNEL_GAIN_STEP * np.arange(CHANNELS)

    # cumulative revolutions under a slowly wobbling speed; rev(0) = 0 and
    # d rev/dt = speed * (1 + wobble * sin(2 pi f t + phase))
    if cond.speed_wobble > 0:
        wobble_phase = rng.uniform(0.0, 2.0 * np.pi)
        two_pi_f = 2.0 * np.pi * cond.wobble_freq
        rev = cond.speed * (
            t + cond.speed_wobble / two_pi_f
            * (np.cos(wobble_phase) - np.cos(two_pi_f * t + wobble_phase))
        )
    else:
        rev = cond.speed * t

    tone = np.zeros((CHANNELS, length))
    for (mult, amp), ph in zip(harmonics, phases):
        arg = 2.0 * np.pi * mult * rev
        tone += amp * np.sin(arg[None, :] + ph + channel_phase[:, None])

    if fault.impulse_rate > 0:
        burst_len = int(min(length, np.ceil(BURST_CUTOFF_TAUS * fault.impulse_decay * SAMPLE_RATE)))
        tau = np.arange(burst_len, dtype=np.float64) / SAMPLE_RATE
        burst = fault.impulse_amp * np.exp(-tau / fault.impulse_decay) * np.sin(
            2.0 * np.pi * fault.resonance_freq * tau
        )
        train = np.zeros(length)
        offset = rng.uniform(0.0, 1.0)
        hits = (np.arange(int(rev[-1] * fault.impulse_rate) + 1) + offset) / fault.impulse_rate
        for i in np.searchsorted(rev, hits[hits < rev[-1]]):
            chunk = min(burst_len, length - int(i))
            if chunk > 0:
                train[i:i + chunk] += burst[:chunk]
        tone += train[None, :]

    tone *= channel_gain[:, None]
    tone *= 1.0 + LOAD_AMP_GAIN * cond.load
    if cond.load != 0.0:
        tone *= 1.0 + LOAD_MOD_DEPTH * cond.load * np.sin(2.0 * np.pi * LOAD_MOD_FREQ * t)[None, :]
    if cond.amp_drift > 0:
        drift_phase = rng.uniform(0.0, 2.0 * np.pi)
        tone *= 1.0 + cond.amp_drift * np.sin(
            2.0 * np.pi * 0.31 * t + drift_phase
        )[None, :]
    if cond.noise_sigma > 0:
        tone = tone + rng.normal(0.0, cond.noise_sigma, size=tone.shape)

    bound = amplitude_bound(cond, fault)
    peak = float(np.max(np.abs(tone)))
    if not np.isfinite(peak) or peak > bound:
        raise DataError(f"generator exceeded its amplitude bound: {peak:.3f} > {bound:.3f}")
    return tone.astype(np.float32)


def window_and_reshape(signal: np.ndarray) -> List[np.ndarray]:
    """Cut disjoint 1024-sample windows and fold each channel into 32x32."""
    signal = np.asarray(signal)
    if signal.ndim != 2 or signal.shape[0] != CHANNELS:
        raise DataError(f"expected [{CHANNELS}, length] signal, got {list(signal.shape)}")
    count = signal.shape[1] // WINDOW_LEN
    windows = []
    for i in range(count):
        chunk = signal[:, i * WINDOW_LEN:(i + 1) * WINDOW_LEN]
        windows.append(np.ascontiguousarray(chunk.reshape(CHANNELS, *PLANE), dtype=np.float32))
    return windows


@dataclass
class SampleSet:
    """Labeled, reshaped windows for one role, with per-sample provenance."""

    x: np.ndarray      # [n, 6, 32, 32] float32
    y: np.ndarray      # [n] int64 fault labels
    cond: np.ndarray   # [n] int64 condition ids (0 = source, 1 = target)
    role: str          # training | fine_tuning | test

    def __len__(self) -> int:
        return int(self.x.shape[0])


@dataclass
class SplitCounts:
    n_train: int
    n_finetune: int
    n_test: int

    def validate(self) -> None:
        if self.n_train < 1 or self.n_finetune < 1 or self.n_test < 1:
            raise DataError(f"split counts must be positive, got {self}")
        if self.n_finetune > self.n_train:
            raise DataError(
                f"fine-tuning draws from the training windows: need n_finetune <= n_train, "
                f"got {self.n_finetune} > {self.n_train}"
            )


@dataclass
class Splits:
    d_training: SampleSet
    d_finetune_src: SampleSet
    d_finetune_tgt: SampleSet
    d_test: SampleSet


SOURCE_COND_ID = 0
TARGET_COND_ID = 1


def _stack(parts, role) -> SampleSet:
    """One SampleSet from (windows, label, condition id) groups, in order."""
    return SampleSet(
        x=np.stack([w for windows, _, _ in parts for w in windows]),  # float32 windows
        y=np.asarray([y for windows, y, _ in parts for _ in windows], dtype=np.int64),
        cond=np.asarray([c for windows, _, c in parts for _ in windows], dtype=np.int64),
        role=role,
    )


def _recording(cond: ConditionSpec, cond_id: int, fault: FaultSpec, seed: int, n: int):
    """The ``n`` windows of one (condition, fault) recording in shuffled
    order, and the rng that shuffled them."""
    rng = np.random.default_rng([seed, cond_id, fault.label])
    signal = generate_signal(cond, fault, seed=int(rng.integers(2**31)), length=n * WINDOW_LEN)
    windows = window_and_reshape(signal)
    return [windows[i] for i in rng.permutation(len(windows))], rng


def make_splits(
    source_cond: ConditionSpec,
    target_cond: ConditionSpec,
    faults: Sequence[FaultSpec],
    counts: SplitCounts,
    seed: int,
) -> Splits:
    """Class-balanced training/fine-tuning/test splits.

    Per class: the training set holds the ``n_train`` windows of one
    source recording; the source fine-tuning half is a random subset of
    those; the target fine-tuning and test sets come from disjoint
    windows of one target recording.
    """
    counts.validate()

    parts = {attr: [] for _, attr, _ in _SPLIT_KEYS}
    for fault in faults:
        src, rng = _recording(source_cond, SOURCE_COND_ID, fault, seed, counts.n_train)
        fine = rng.choice(counts.n_train, size=counts.n_finetune, replace=False)
        tgt, _ = _recording(target_cond, TARGET_COND_ID, fault, seed,
                            counts.n_finetune + counts.n_test)
        for attr, windows, cond_id in (
            ("d_training", src, SOURCE_COND_ID),
            ("d_finetune_src", [src[i] for i in fine], SOURCE_COND_ID),
            ("d_finetune_tgt", tgt[:counts.n_finetune], TARGET_COND_ID),
            ("d_test", tgt[counts.n_finetune:], TARGET_COND_ID),
        ):
            parts[attr].append((windows, fault.label, cond_id))
    return Splits(**{attr: _stack(parts[attr], role) for _, attr, role in _SPLIT_KEYS})


# ---------------------------------------------------------------------------
# dataset containers (weight-archive reuse, tagged as data tensors)

_SPLIT_KEYS = (
    ("training", "d_training", "training"),
    ("finetune_src", "d_finetune_src", "fine_tuning"),
    ("finetune_tgt", "d_finetune_tgt", "fine_tuning"),
    ("test", "d_test", "test"),
)


def save_splits(splits: Splits, path, manifest=None) -> None:
    """Persist all four splits in one archive so runs replay without regeneration."""
    store = ParamStore()
    for key, attr, _ in _SPLIT_KEYS:
        s: SampleSet = getattr(splits, attr)
        store.add(f"{key}.x", Tensor(s.x), trainable=False)
        store.add(f"{key}.y", Tensor(s.y.astype(np.float32)), trainable=False)
        store.add(f"{key}.cond", Tensor(s.cond.astype(np.float32)), trainable=False)
    save_archive(store, manifest or Manifest(kind="dataset"), path)


def load_splits(path, expected_manifest=None) -> Splits:
    store = load_archive(path, expected_manifest)
    sets = {}
    for key, attr, role in _SPLIT_KEYS:
        try:
            x = store[f"{key}.x"].data
            y = store[f"{key}.y"].data
            cond = store[f"{key}.cond"].data
        except KeyError:
            raise DataError(f"dataset archive is missing the {key!r} split") from None
        sets[attr] = _checked_split(key, x, y, cond, role)
    return Splits(**sets)


def _checked_split(key: str, x, y, cond, role: str) -> SampleSet:
    """A split read from an archive, or DataError naming the first rule it breaks."""
    if x.ndim != 4 or x.shape[0] == 0:
        raise DataError(f"{key!r} split: x must be [n >= 1, C, H, W], got {list(x.shape)}")
    # min and max propagate NaN and reach +-inf without a temporary array
    if not (np.isfinite(x.min()) and np.isfinite(x.max())):
        raise DataError(f"{key!r} split: x holds a non-finite value")
    ints = []
    for name, arr in (("y", y), ("cond", cond)):
        if arr.shape != (x.shape[0],):
            raise DataError(
                f"{key!r} split: {name} has shape {list(arr.shape)}, x has {x.shape[0]} rows"
            )
        if not np.all(np.isfinite(arr) & (arr >= 0) & (arr == np.floor(arr))):
            raise DataError(f"{key!r} split: {name} must hold non-negative integers")
        ints.append(arr.astype(np.int64))
    return SampleSet(x=x, y=ints[0], cond=ints[1], role=role)
