import numpy as np
import pytest

import oracles
from edgediag.config import ExperimentConfig
from edgediag.datagen import (
    SAMPLE_RATE,
    WINDOW_LEN,
    ConditionSpec,
    DataError,
    FaultSpec,
    SplitCounts,
    amplitude_bound,
    fault_taxonomy,
    generate_signal,
    make_splits,
    window_and_reshape,
)

SRC = ConditionSpec(speed=30.0, load=0.0, noise_sigma=0.2)
TGT = ConditionSpec(speed=20.0, load=1.0, noise_sigma=0.2)


def test_normal_noiseless_is_harmonic_sum():
    cond = ConditionSpec(speed=30.0, load=0.0, noise_sigma=0.0,
                         speed_wobble=0.0, amp_drift=0.0)
    fault = fault_taxonomy()[0]
    sig = generate_signal(cond, fault, seed=5, length=2048)
    again = generate_signal(cond, fault, seed=5, length=2048)
    assert sig.dtype == np.float32 and sig.shape == (6, 2048)
    assert np.array_equal(sig, again)
    # three base harmonics only: spectrum is concentrated at speed*(1,2,3)
    spec = np.abs(np.fft.rfft(sig[0].astype(np.float64)))
    freqs = np.fft.rfftfreq(2048, d=1.0 / 1024)
    top = freqs[np.argsort(spec)[-3:]]
    assert sorted(np.round(top).astype(int).tolist()) == [30, 60, 90]


def test_generation_deterministic_per_seed():
    fault = fault_taxonomy()[2]
    a = generate_signal(TGT, fault, seed=9, length=4096)
    b = generate_signal(TGT, fault, seed=9, length=4096)
    c = generate_signal(TGT, fault, seed=10, length=4096)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_generation_respects_amplitude_bound():
    for fault in fault_taxonomy(9):
        for cond in (SRC, TGT):
            sig = generate_signal(cond, fault, seed=fault.label, length=8192)
            assert np.max(np.abs(sig)) <= amplitude_bound(cond, fault)
            assert np.all(np.isfinite(sig))


def test_short_signal_rejected():
    with pytest.raises(DataError, match="length"):
        generate_signal(SRC, fault_taxonomy()[0], seed=0, length=512)


def test_normal_label_must_be_clean():
    with pytest.raises(DataError, match="Normal"):
        FaultSpec(0, "bad", ((1.5, 0.2),)).validate()


def test_taxonomy_labels_and_size():
    faults = fault_taxonomy(9)
    assert [f.label for f in faults] == list(range(9))
    assert faults[0].harmonics == () and faults[0].impulse_rate == 0.0


# ---------------------------------------------------------------------------
# windowing

def test_window_count():
    sig = np.zeros((6, 3072), dtype=np.float32)
    assert len(window_and_reshape(sig)) == 3


def test_window_reshape_bijection():
    rng = np.random.default_rng(0)
    sig = rng.standard_normal((6, 2048)).astype(np.float32)
    wins = window_and_reshape(sig)
    for c in range(6):
        flat = wins[0][c].reshape(-1)
        assert np.array_equal(flat, sig[c, :1024])


def test_windows_disjoint_reconstruct_signal():
    rng = np.random.default_rng(1)
    sig = rng.standard_normal((6, 4096)).astype(np.float32)
    wins = window_and_reshape(sig)
    rebuilt = np.concatenate([w.reshape(6, 1024) for w in wins], axis=1)
    assert np.array_equal(rebuilt, sig)


def test_window_partial_tail_dropped():
    sig = np.zeros((6, 1024 + 500), dtype=np.float32)
    assert len(window_and_reshape(sig)) == 1


# ---------------------------------------------------------------------------
# splits

def test_split_sizes_default_protocol():
    faults = fault_taxonomy(5)
    splits = make_splits(SRC, TGT, faults, SplitCounts(250, 10, 100), seed=0)
    assert len(splits.d_training) == 1250
    assert len(splits.d_finetune_src) == 50
    assert len(splits.d_finetune_tgt) == 50
    assert len(splits.d_test) == 500


@pytest.mark.slow
def test_split_sizes_nine_class_profile():
    faults = fault_taxonomy(9)
    splits = make_splits(SRC, TGT, faults, SplitCounts(1023, 20, 100), seed=0)
    assert len(splits.d_training) == 9207
    assert len(splits.d_finetune_src) == 180
    assert len(splits.d_finetune_tgt) == 180
    assert len(splits.d_test) == 900


def test_splits_class_balanced():
    splits = make_splits(SRC, TGT, fault_taxonomy(5), SplitCounts(12, 4, 6), seed=3)
    for s, per_class in [
        (splits.d_training, 12),
        (splits.d_finetune_src, 4),
        (splits.d_finetune_tgt, 4),
        (splits.d_test, 6),
    ]:
        assert np.all(np.bincount(s.y) == per_class)


def test_splits_roles_and_provenance():
    splits = make_splits(SRC, TGT, fault_taxonomy(3), SplitCounts(8, 2, 4), seed=1)
    assert splits.d_training.role == "training"
    assert splits.d_finetune_src.role == splits.d_finetune_tgt.role == "fine_tuning"
    assert splits.d_test.role == "test"
    assert np.all(splits.d_training.cond == 0)
    assert np.all(splits.d_finetune_src.cond == 0)
    assert np.all(splits.d_finetune_tgt.cond == 1)
    assert np.all(splits.d_test.cond == 1)


def test_finetune_src_subset_of_training():
    splits = make_splits(SRC, TGT, fault_taxonomy(4), SplitCounts(10, 3, 5), seed=7)
    train_bytes = {s.tobytes() for s in splits.d_training.x}
    for s in splits.d_finetune_src.x:
        assert s.tobytes() in train_bytes


def test_test_disjoint_from_finetune_target():
    splits = make_splits(SRC, TGT, fault_taxonomy(5), SplitCounts(6, 3, 5), seed=2)
    ft = {s.tobytes() for s in splits.d_finetune_tgt.x}
    for s in splits.d_test.x:
        assert s.tobytes() not in ft


def test_splits_deterministic():
    a = make_splits(SRC, TGT, fault_taxonomy(3), SplitCounts(6, 2, 3), seed=11)
    b = make_splits(SRC, TGT, fault_taxonomy(3), SplitCounts(6, 2, 3), seed=11)
    assert np.array_equal(a.d_training.x, b.d_training.x)
    assert np.array_equal(a.d_test.x, b.d_test.x)


def test_bad_counts_report_required_vs_available():
    with pytest.raises(DataError, match="n_finetune <= n_train"):
        make_splits(SRC, TGT, fault_taxonomy(2), SplitCounts(4, 10, 5), seed=0)
    with pytest.raises(DataError, match="positive"):
        make_splits(SRC, TGT, fault_taxonomy(2), SplitCounts(0, 1, 1), seed=0)


# ---------------------------------------------------------------------------
# distribution shift

def _rms_summaries(cond, fault, seed, n_windows=30):
    sig = generate_signal(cond, fault, seed=seed, length=n_windows * 1024)
    wins = window_and_reshape(sig)
    return np.stack([np.sqrt(np.mean(w.reshape(6, -1) ** 2, axis=1)) for w in wins])


@pytest.mark.parametrize("seed", range(10))
def test_cross_condition_shift_exceeds_sampling_noise(seed):
    # per-window channel RMS summaries: MMD across conditions must beat
    # the MMD between two independent draws of the same condition
    fault = fault_taxonomy()[1]
    a = _rms_summaries(SRC, fault, seed=1000 + seed)
    b = _rms_summaries(SRC, fault, seed=2000 + seed)
    c = _rms_summaries(TGT, fault, seed=3000 + seed)
    pooled = np.concatenate([a, b, c])
    d2 = ((pooled[:, None, :] - pooled[None, :, :]) ** 2).sum(-1)
    bw = float(np.median(d2[np.triu_indices(len(pooled), 1)]))
    same = oracles.mmd_ref(a, b, bw)
    cross = oracles.mmd_ref(a, c, bw)
    assert cross > same


def _resonance_band(x):
    """log|rfft| of each channel's window over the 200-400 Hz bins, flattened."""
    spec = np.abs(np.fft.rfft(x.reshape(len(x), x.shape[1], WINDOW_LEN).astype(np.float64)))
    freqs = np.fft.rfftfreq(WINDOW_LEN, d=1.0 / SAMPLE_RATE)
    return np.log(spec[..., (freqs >= 200) & (freqs <= 400)]).reshape(len(x), -1)


@pytest.mark.parametrize("seed", range(3))
def test_resonance_band_probe_transfers_source_to_target(seed):
    # the fault signature a network could learn: a nearest-centroid
    # classifier on the resonance band, fit on the source training split,
    # classifies the target test split
    cfg = ExperimentConfig()
    splits = make_splits(*cfg.conditions(), cfg.faults(), cfg.split_counts(), seed)
    train = _resonance_band(splits.d_training.x)
    test = _resonance_band(splits.d_test.x)
    classes = np.unique(splits.d_training.y)
    centroids = np.stack([train[splits.d_training.y == k].mean(axis=0) for k in classes])
    d2 = ((test[:, None, :] - centroids[None]) ** 2).sum(axis=-1)
    accuracy = np.mean(classes[np.argmin(d2, axis=1)] == splits.d_test.y)
    assert accuracy >= 0.95
