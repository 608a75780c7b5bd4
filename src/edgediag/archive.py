"""Binary weight archives for the cloud-to-edge handoff.

Single-file container for a named tensor collection plus a manifest,
with a trailing CRC-32. Everything is little-endian and the writer is
fully deterministic: identical inputs produce identical bytes, and files
are written atomically (temp file + rename). The complete byte layout is
documented in FORMAT.md at the repository root.

The writer streams each part to the temp file as it goes, folding it
into a running CRC-32, and hands each payload over as a view of its
float32 array, so saving builds no copy of the file. The reader makes
one read of the file and parses views into it; each payload is copied
once, into the array the loaded store holds, and ``read_manifest``
copies none.

    magic           8 bytes  b"EDGEWTS1"
    version         u32      currently 1
    manifest_len    u32      length of the UTF-8 manifest JSON
    manifest        bytes    canonical JSON (sorted keys)
    entry_count     u32
    entries         repeated: name_len u16, name UTF-8, ndim u8,
                    dims u32 each, payload float32 little-endian
    crc32           u32      IEEE CRC-32 over every preceding byte

Entries whose names end in ``.running_mean``/``.running_var`` load as
non-trainable state; everything else loads trainable. Loading checks
magic, version, CRC and (when an expectation is given) the manifest's
model kind and config hash, each failure with its own error type; a
manifest whose seed fields are not non-negative integers and a repeated
entry name raise ``TruncatedError``.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .layers import ParamStore
from .tensor import Tensor

__all__ = [
    "MAGIC",
    "VERSION",
    "Manifest",
    "ArchiveError",
    "BadMagicError",
    "VersionError",
    "CrcError",
    "ManifestMismatchError",
    "TruncatedError",
    "save_archive",
    "load_archive",
    "load_subset",
    "read_manifest",
]

MAGIC = b"EDGEWTS1"
VERSION = 1

_NONTRAINABLE_SUFFIXES = (".running_mean", ".running_var")


class ArchiveError(Exception):
    """Base for every weight-archive failure."""


class BadMagicError(ArchiveError):
    pass


class VersionError(ArchiveError):
    pass


class CrcError(ArchiveError):
    pass


class ManifestMismatchError(ArchiveError):
    pass


class TruncatedError(ArchiveError):
    pass


@dataclass
class Manifest:
    """Provenance carried with a weight archive."""

    kind: str = ""
    config_hash: str = ""
    seed: int = 0
    source_condition: int = 0
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "config_hash": self.config_hash,
                "seed": self.seed,
                "source_condition": self.source_condition,
                "metadata": self.metadata,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        """ValueError unless the text is a JSON object with non-negative
        integer seed fields."""
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError(f"expected a JSON object, got {type(raw).__name__}")
        for key in ("seed", "source_condition"):
            val = raw.get(key, 0)
            if type(val) is not int or val < 0:
                raise ValueError(f"{key} must be a non-negative integer, got {val!r}")
        return cls(
            kind=raw.get("kind", ""),
            config_hash=raw.get("config_hash", ""),
            seed=raw.get("seed", 0),
            source_condition=raw.get("source_condition", 0),
            metadata=raw.get("metadata", {}),
        )

    def check_compatible(self, other: "Manifest") -> None:
        """Refuse a load when the structural identity does not match."""
        if self.kind != other.kind:
            raise ManifestMismatchError(
                f"archive holds a {other.kind!r} model, expected {self.kind!r}"
            )
        if self.config_hash != other.config_hash:
            raise ManifestMismatchError(
                f"config hash mismatch: expected {self.config_hash}, "
                f"archive has {other.config_hash}"
            )


def _write(fh, store: ParamStore, manifest: Manifest) -> None:
    """Stream the archive to ``fh`` under a running CRC-32; each payload
    goes out as a view of its array, so no copy of the file is built."""
    crc = 0

    def put(part) -> None:
        nonlocal crc
        crc = zlib.crc32(part, crc)
        fh.write(part)

    mjson = manifest.to_json().encode("utf-8")
    names = store.names()
    put(MAGIC + struct.pack("<II", VERSION, len(mjson)) + mjson + struct.pack("<I", len(names)))
    for name in names:
        data = store[name].data
        nb = name.encode("utf-8")
        if len(nb) > 0xFFFF:
            raise ArchiveError(f"entry name too long: {name[:40]}...")
        put(struct.pack("<H", len(nb)) + nb + struct.pack(f"<B{data.ndim}I", data.ndim, *data.shape))
        put(memoryview(np.ascontiguousarray(data, dtype="<f4")))
    fh.write(struct.pack("<I", crc & 0xFFFFFFFF))


def save_archive(store: ParamStore, manifest: Manifest, path) -> None:
    """Write atomically; byte output is a pure function of the inputs."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".edgewts-")
    try:
        with os.fdopen(fd, "wb") as fh:
            _write(fh, store, manifest)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    """Cursor over a memoryview; ``take`` returns views, never copies."""

    def __init__(self, blob: memoryview):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> memoryview:
        if self.pos + n > len(self.blob):
            raise TruncatedError(
                f"file ends inside {what} (need {n} bytes at offset {self.pos})"
            )
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self, what) -> int:
        return self.take(1, what)[0]

    def u16(self, what) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def _read_blob(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _parse(blob: bytes):
    """The manifest and name -> read-only array views into ``blob``, in file order.

    Checks run in order: magic, length, CRC, then structure.
    """
    if len(blob) < len(MAGIC) + 4:
        raise TruncatedError("file shorter than the fixed header")
    if blob[:len(MAGIC)] != MAGIC:
        raise BadMagicError(f"bad magic {blob[:8]!r}, expected {MAGIC!r}")
    if len(blob) < len(MAGIC) + 8:
        raise TruncatedError("file ends before the checksum")
    body = memoryview(blob)[:-4]
    stored = struct.unpack("<I", blob[-4:])[0]
    actual = zlib.crc32(body) & 0xFFFFFFFF
    if stored != actual:
        raise CrcError(f"checksum mismatch: stored {stored:#010x}, actual {actual:#010x}")
    rd = _Reader(body)
    rd.take(len(MAGIC), "magic")
    version = rd.u32("version")
    if version != VERSION:
        raise VersionError(f"unsupported archive version {version}")
    mlen = rd.u32("manifest length")
    try:
        manifest = Manifest.from_json(str(rd.take(mlen, "manifest"), "utf-8"))
    except (ValueError, UnicodeDecodeError) as err:
        raise TruncatedError(f"manifest does not parse: {err}") from None
    count = rd.u32("entry count")
    entries = {}
    for i in range(count):
        nlen = rd.u16(f"entry {i} name length")
        try:
            name = str(rd.take(nlen, f"entry {i} name"), "utf-8")
        except UnicodeDecodeError:
            raise TruncatedError(f"entry {i} name is not UTF-8") from None
        if name in entries:
            raise TruncatedError(f"entry {i} repeats the name {name!r}")
        ndim = rd.u8(f"entry {i} rank")
        dims = tuple(rd.u32(f"entry {i} dim") for _ in range(ndim))
        payload = rd.take(4 * math.prod(dims), f"entry {i} payload")
        entries[name] = np.frombuffer(payload, dtype="<f4").reshape(dims)
    if rd.pos != len(rd.blob):
        raise TruncatedError(f"{len(rd.blob) - rd.pos} trailing bytes after the last entry")
    return manifest, entries


def read_manifest(path) -> Manifest:
    manifest, _ = _parse(_read_blob(path))
    return manifest


def _store_from(entries) -> ParamStore:
    store = ParamStore()
    for name, arr in entries.items():
        trainable = not name.endswith(_NONTRAINABLE_SUFFIXES)
        store.add(name, Tensor(arr.copy()), trainable=trainable)  # the one copy of a payload
    return store


def load_archive(path, expected_manifest: Optional[Manifest] = None) -> ParamStore:
    """Full load with integrity and (optional) identity checks."""
    manifest, entries = _parse(_read_blob(path))
    if expected_manifest is not None:
        expected_manifest.check_compatible(manifest)
    return _store_from(entries)


def load_subset(path, name_prefix: str) -> ParamStore:
    """Load only the entries whose names start with the prefix.

    Unknown extra entries are ignored by construction, which is the
    forward-compatibility contract of subset loading. An absent prefix
    yields an empty store, not an error.
    """
    _, entries = _parse(_read_blob(path))
    return _store_from({n: a for n, a in entries.items() if n.startswith(name_prefix)})
