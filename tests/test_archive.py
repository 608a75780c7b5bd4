import hashlib
import pathlib
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgediag.archive import (
    MAGIC,
    ArchiveError,
    BadMagicError,
    CrcError,
    Manifest,
    ManifestMismatchError,
    TruncatedError,
    VersionError,
    load_archive,
    load_subset,
    read_manifest,
    save_archive,
)
from edgediag.datagen import ConditionSpec, SplitCounts, fault_taxonomy, load_splits, make_splits, save_splits
from edgediag.layers import ParamStore
from edgediag.models import ModelConfig, build_model, share_pre_fe
from edgediag.tensor import Tensor


ROOT = pathlib.Path(__file__).resolve().parent.parent

# sha256 of the archive of a default-config model built with seed 0: pins
# the store's entry names, order and shapes and the initial draws
MODEL_ARCHIVE_SHA256 = {
    "cloud": "00542d5cd8ca17fc3dee779c5195501a9e52410c4d2cbdc10c61167218a4ead1",
    "edge": "4172adf4c9a1fe94bb6da3225595e32b86a9e41a599e086a3357ba89767218a9",
}


def _store(seed=0, entries=4):
    rng = np.random.default_rng(seed)
    store = ParamStore()
    for i in range(entries):
        shape = tuple(int(d) for d in rng.integers(1, 5, size=int(rng.integers(1, 4))))
        store.add(f"layer{i}.weight", Tensor(rng.standard_normal(shape).astype(np.float32)))
    store.add("layer0.bn.running_mean", Tensor(rng.standard_normal(3).astype(np.float32)),
              trainable=False)
    return store


def _manifest(**kw):
    base = dict(kind="cloud", config_hash="abc123", seed=7, source_condition=0)
    base.update(kw)
    return Manifest(**base)


def test_roundtrip_bit_exact_and_ordered(tmp_path):
    store = _store()
    path = tmp_path / "w.edgewts"
    save_archive(store, _manifest(), path)
    loaded = load_archive(path)
    assert loaded.names() == store.names()
    for name in store.names():
        assert loaded[name].data.tobytes() == store[name].data.tobytes()
        assert loaded[name].data.shape == store[name].data.shape
    optimizable = {name for name, _ in loaded.optimizable()}
    assert "layer0.bn.running_mean" not in optimizable
    assert "layer1.weight" in optimizable


def test_format_md_worked_example_is_the_encoding(tmp_path):
    text = (ROOT / "FORMAT.md").read_text(encoding="utf-8").split("## Worked example", 1)[1]
    manifest = Manifest.from_json(re.search(r"`(\{.*\})`", text).group(1))
    expected = b""
    for line in text.split("```")[1].strip().splitlines():
        offset, *hex_bytes = line.split("|", 1)[0].split()
        assert int(offset, 16) == len(expected)
        expected += bytes.fromhex("".join(hex_bytes))
    assert len(expected) == 121
    store = ParamStore()
    store.add("w", Tensor(np.array([1.0, -2.0], dtype=np.float32)))
    path = tmp_path / "w.edgewts"
    save_archive(store, manifest, path)
    assert path.read_bytes() == expected


@pytest.mark.parametrize("kind", sorted(MODEL_ARCHIVE_SHA256))
def test_default_model_archive_is_pinned(tmp_path, kind):
    path = tmp_path / "m.edgewts"
    save_archive(build_model(ModelConfig(), kind, 0).store, Manifest(kind=kind), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MODEL_ARCHIVE_SHA256[kind]


# sha256 of the archive of the 24 MiB store below: streaming the parts
# must write the same bytes as joining them
BIG_STORE_SHA256 = "8ae690643ec7c6d37364e8bd0c04ef0bd1d4a52bc988cabb52fb8e81e1990d30"


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_large_store_streams_without_whole_file_copies(tmp_path):
    # the writer streams each payload straight from its array, and the
    # reader copies each payload once, out of the one file-sized read
    rng = np.random.default_rng(24)
    store = ParamStore()
    store.add("x", Tensor(rng.standard_normal((1024, 6, 32, 32), dtype=np.float32)),
              trainable=False)
    store.add("y", Tensor(rng.integers(0, 5, 1024).astype(np.float32)), trainable=False)
    payload = sum(t.data.nbytes for _, t in store.items())
    path = tmp_path / "big.edgewts"
    _, save_peak = _traced_peak(save_archive, store, Manifest(kind="dataset", seed=24), path)
    assert save_peak < 4 << 20
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BIG_STORE_SHA256
    loaded, load_peak = _traced_peak(load_archive, path)
    assert load_peak < 2.2 * payload
    assert loaded.names() == store.names()
    for name in store.names():
        assert loaded[name].data.tobytes() == store[name].data.tobytes()
    manifest, manifest_peak = _traced_peak(read_manifest, path)
    assert manifest.seed == 24 and manifest_peak < 1.1 * payload  # the read alone


def test_save_is_deterministic(tmp_path):
    store = _store(3)
    p1, p2 = tmp_path / "a", tmp_path / "b"
    save_archive(store, _manifest(), p1)
    save_archive(store, _manifest(), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_store_is_valid(tmp_path):
    path = tmp_path / "empty.edgewts"
    save_archive(ParamStore(), _manifest(), path)
    loaded = load_archive(path)
    assert len(loaded) == 0
    assert read_manifest(path).kind == "cloud"


def test_manifest_roundtrip(tmp_path):
    m = _manifest(metadata={"note": "run-1", "n": 3})
    path = tmp_path / "w.edgewts"
    save_archive(_store(), m, path)
    got = read_manifest(path)
    assert got.kind == m.kind and got.config_hash == m.config_hash
    assert got.seed == 7 and got.metadata == {"note": "run-1", "n": 3}


def test_manifest_mismatch_refused(tmp_path):
    path = tmp_path / "w.edgewts"
    save_archive(_store(), _manifest(config_hash="abc123"), path)
    load_archive(path, _manifest(config_hash="abc123"))  # matching passes
    with pytest.raises(ManifestMismatchError, match="config hash"):
        load_archive(path, _manifest(config_hash="zzz"))
    with pytest.raises(ManifestMismatchError, match="model"):
        load_archive(path, _manifest(kind="edge"))


def test_bad_magic(tmp_path):
    path = tmp_path / "w.edgewts"
    save_archive(_store(), _manifest(), path)
    blob = bytearray(path.read_bytes())
    blob[:8] = b"NOTMAGIC"
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagicError):
        load_archive(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "w.edgewts"
    save_archive(_store(), _manifest(), path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 8, 99)  # bump version, then re-seal the CRC
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionError):
        load_archive(path)


def test_single_flipped_payload_byte_is_caught(tmp_path):
    path = tmp_path / "w.edgewts"
    save_archive(_store(), _manifest(), path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x40
    path.write_bytes(bytes(blob))
    with pytest.raises(CrcError):
        load_archive(path)


@settings(max_examples=60, deadline=None)
@given(bit=st.integers(min_value=0, max_value=7), frac=st.floats(0.0, 1.0))
def test_any_single_bit_flip_is_detected(tmp_path_factory, bit, frac):
    # property: no single-bit corruption anywhere in the file goes unnoticed
    path = tmp_path_factory.mktemp("flip") / "w.edgewts"
    save_archive(_store(1), _manifest(), path)
    blob = bytearray(path.read_bytes())
    pos = min(int(frac * len(blob)), len(blob) - 1)
    blob[pos] ^= 1 << bit
    path.write_bytes(bytes(blob))
    with pytest.raises(ArchiveError):
        load_archive(path)


def test_truncated_file_is_structured_error(tmp_path):
    path = tmp_path / "w.edgewts"
    save_archive(_store(), _manifest(), path)
    blob = path.read_bytes()
    for cut in (4, 11, len(blob) // 2, len(blob) - 2):
        path.write_bytes(blob[:cut])
        with pytest.raises((TruncatedError, CrcError, BadMagicError)):
            load_archive(path)


def _sealed(manifest: bytes, count: int = 0, entries: bytes = b"") -> bytes:
    """A CRC-valid version-1 archive around the given raw sections."""
    body = MAGIC + struct.pack("<II", 1, len(manifest)) + manifest
    body += struct.pack("<I", count) + entries
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


_GOOD_MANIFEST = _manifest().to_json().encode()

# CRC-valid files whose content is malformed; each must raise TruncatedError
MALFORMED = {
    "list_manifest": _sealed(b"[]"),
    "null_seed": _sealed(b'{"kind":"cloud","seed":null}'),
    "dims_overflow_int64": _sealed(
        _GOOD_MANIFEST, 1, struct.pack("<H", 1) + b"w" + struct.pack("<BII", 2, 2**32 - 1, 2**32 - 1)
    ),
    "name_not_utf8": _sealed(
        _GOOD_MANIFEST, 1, struct.pack("<H", 1) + b"\xff" + struct.pack("<BI", 1, 1) + bytes(4)
    ),
    "duplicate_name": _sealed(
        _GOOD_MANIFEST, 2, 2 * (struct.pack("<H", 1) + b"w" + struct.pack("<BI", 1, 1) + bytes(4))
    ),
    "negative_seed": _sealed(b'{"kind":"cloud","seed":-1}'),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_archive_is_truncated_error(tmp_path, case):
    path = tmp_path / "w.edgewts"
    path.write_bytes(MALFORMED[case])
    for load in (load_archive, lambda p: load_subset(p, "w"), read_manifest):
        with pytest.raises(TruncatedError):
            load(path)


def test_load_subset_filters_by_prefix(tmp_path):
    cfg = ModelConfig()
    model = build_model(cfg, "cloud", seed=0)
    path = tmp_path / "c.edgewts"
    save_archive(model.store, _manifest(), path)
    sub = load_subset(path, "pre_fe.")
    assert sub.names() == [n for n in model.store.names() if n.startswith("pre_fe.")]
    assert load_subset(path, "nonexistent.").names() == []


def test_subset_tolerates_hand_appended_entry(tmp_path):
    path = tmp_path / "w.edgewts"
    save_archive(_store(2, entries=2), _manifest(), path)
    blob = bytearray(path.read_bytes())
    body = bytes(blob[:-4])
    # append one unknown 2-float entry and re-seal count + CRC
    name = b"future.widget"
    extra = struct.pack("<H", len(name)) + name + struct.pack("<B", 1) + struct.pack("<I", 2)
    extra += np.asarray([1.5, -2.5], dtype="<f4").tobytes()
    count_off = 8 + 4 + 4 + struct.unpack("<I", body[12:16])[0]
    count = struct.unpack("<I", body[count_off:count_off + 4])[0]
    body = body[:count_off] + struct.pack("<I", count + 1) + body[count_off + 4:] + extra
    body += struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    path.write_bytes(body)
    sub = load_subset(path, "layer0.")
    assert all(n.startswith("layer0.") for n in sub.names()) and len(sub) > 0
    full = load_archive(path)
    assert np.array_equal(full["future.widget"].data, [1.5, -2.5])


def test_share_via_archive_equals_in_memory(tmp_path):
    cfg = ModelConfig(
        input_shape=(6, 32, 32), num_classes=3, pre_fe_channels=(6,),
        c_stage_channels=(8, 8), e_stage_channels=(6, 6, 8, 8), feature_dim=8,
    )
    cloud = build_model(cfg, "cloud", seed=1)
    e_mem = build_model(cfg, "edge", seed=2)
    share_pre_fe(cloud, e_mem)

    path = tmp_path / "c.edgewts"
    save_archive(cloud.store, _manifest(), path)
    e_arch = build_model(cfg, "edge", seed=2)
    sub = load_subset(path, "pre_fe.")
    for name in sub.names():
        e_arch.store[name].data[...] = sub[name].data
    for name in e_mem.store.names():
        assert e_mem.store[name].data.tobytes() == e_arch.store[name].data.tobytes()


# ---------------------------------------------------------------------------
# dataset container reuse

def test_dataset_container_roundtrip(tmp_path):
    src = ConditionSpec(speed=30.0, load=0.0)
    tgt = ConditionSpec(speed=20.0, load=1.0)
    splits = make_splits(src, tgt, fault_taxonomy(3), SplitCounts(5, 2, 3), seed=0)
    path = tmp_path / "data.edgewts"
    save_splits(splits, path, Manifest(kind="dataset", config_hash="datahash"))
    back = load_splits(path)
    for attr in ("d_training", "d_finetune_src", "d_finetune_tgt", "d_test"):
        a, b = getattr(splits, attr), getattr(back, attr)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.cond, b.cond)
        assert a.role == b.role
    assert read_manifest(path).kind == "dataset"
