"""Binary tensor files, dataset manifests, lazily read datasets and
checkpoint serialization.

The on-disk tensor format is deliberately minimal and fixed little-endian
so that files are byte-identical across platforms:

    magic "LPT1" | dtype code (1 byte) | ndim (1 byte) | dims (u32 LE each)
    | raw row-major data (LE)

Supported dtypes: f32 (code 1), u16 (code 2), u8 (code 3).
"""

from __future__ import annotations

import hashlib
import os
import struct
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

MAGIC = b"LPT1"
CHECKPOINT_MAGIC = b"LPC1"

_DTYPE_CODES = {
    np.dtype("<f4"): 1,
    np.dtype("<u2"): 2,
    np.dtype("u1"): 3,
}
_CODE_DTYPES = {code: dt for dt, code in _DTYPE_CODES.items()}

MAX_NDIM = 4


class TensorFormatError(ValueError):
    """Raised on malformed tensor files or unsupported tensors."""


class ManifestError(ValueError):
    """Raised on malformed or inconsistent dataset manifests."""


def _check_tensor(t: np.ndarray) -> np.ndarray:
    t = np.ascontiguousarray(t)
    dt = t.dtype.newbyteorder("<")
    if dt not in _DTYPE_CODES:
        raise TensorFormatError(f"unsupported dtype {t.dtype}; use f32/u16/u8")
    if t.ndim < 1 or t.ndim > MAX_NDIM:
        raise TensorFormatError(f"ndim must be 1..{MAX_NDIM}, got {t.ndim}")
    if any(d < 1 for d in t.shape):
        raise TensorFormatError(f"shape entries must be >= 1, got {t.shape}")
    return t.astype(dt, copy=False)


def _holds(path: Path, data: bytes) -> bool:
    """Whether *path* already holds exactly *data* (a deterministic re-run
    rewrites identical bytes, which then need no write)."""
    try:
        return path.stat().st_size == len(data) and path.read_bytes() == data
    except FileNotFoundError:
        return False


def _replace(path: Path, data: bytes) -> None:
    """Write *data* to a temporary file beside *path*, then ``os.replace`` it
    over *path*, so readers see the old file or the new one, never a part."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_bytes(path: str | Path, data: bytes) -> None:
    """Write a binary artifact that records its own length (LPT1, LPC1,
    PPM): an existing file through :func:`_replace` (unless it already holds
    *data*), a new one in place, removed if the write fails; a truncated new
    file left by a killed process does not load. On ext4 a create and a
    rename per file made dataset generation measurably slower.
    """
    path = Path(path)
    try:
        fh = open(path, "xb")
    except FileExistsError:
        if not _holds(path, data):
            _replace(path, data)
        return
    try:
        with fh:
            fh.write(data)
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def read_text(path: str | Path) -> str:
    """The UTF-8 text of *path*; raises ``ValueError`` naming the file when
    it is not UTF-8."""
    try:
        return Path(path).read_bytes().decode()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None


def write_text(path: str | Path, text: str) -> None:
    """Write a text artifact atomically.

    Text formats do not record their own length, so a truncated file could
    load as a valid shorter one: every write goes through :func:`_replace`,
    unless the file already holds exactly this text.
    """
    path, data = Path(path), text.encode()
    if not _holds(path, data):
        _replace(path, data)


def write_tensor(t: np.ndarray, path: str | Path) -> None:
    """Write *t* to *path* in the LPT1 format (fixed little-endian layout)."""
    data = tensor_bytes(t)
    try:
        write_bytes(path, data)
    except OSError as exc:
        raise TensorFormatError(f"cannot write tensor to {path}: {exc}") from exc


def tensor_bytes(t: np.ndarray) -> bytes:
    """LPT1 serialization of *t* as a byte string (used inside checkpoints)."""
    t = _check_tensor(t)
    header = MAGIC + struct.pack("<BB", _DTYPE_CODES[t.dtype], t.ndim)
    header += struct.pack(f"<{t.ndim}I", *t.shape)
    return header + t.tobytes()


def _read_tensor_from(buf: bytes, offset: int, origin: str) -> tuple[np.ndarray, int]:
    if buf[offset : offset + 4] != MAGIC:
        raise TensorFormatError(f"{origin}: bad magic {buf[offset:offset + 4]!r}")
    offset += 4
    if len(buf) < offset + 2:
        raise TensorFormatError(f"{origin}: truncated header")
    code, ndim = struct.unpack_from("<BB", buf, offset)
    offset += 2
    if code not in _CODE_DTYPES:
        raise TensorFormatError(f"{origin}: unknown dtype code {code}")
    if ndim < 1 or ndim > MAX_NDIM:
        raise TensorFormatError(f"{origin}: bad ndim {ndim}")
    if len(buf) < offset + 4 * ndim:
        raise TensorFormatError(f"{origin}: truncated dims")
    shape = struct.unpack_from(f"<{ndim}I", buf, offset)
    offset += 4 * ndim
    if any(d < 1 for d in shape):
        raise TensorFormatError(f"{origin}: zero dimension in {shape}")
    dt = _CODE_DTYPES[code]
    nbytes = int(np.prod(shape)) * dt.itemsize
    if len(buf) < offset + nbytes:
        raise TensorFormatError(
            f"{origin}: payload truncated, need {nbytes} bytes, "
            f"have {len(buf) - offset}"
        )
    data = np.frombuffer(buf, dtype=dt, count=int(np.prod(shape)), offset=offset)
    return data.reshape(shape).copy(), offset + nbytes


def read_tensor(path: str | Path) -> np.ndarray:
    """Read an LPT1 tensor file back into a numpy array."""
    try:
        buf = Path(path).read_bytes()
    except OSError as exc:
        raise TensorFormatError(f"cannot read tensor from {path}: {exc}") from exc
    t, end = _read_tensor_from(buf, 0, str(path))
    if end != len(buf):
        raise TensorFormatError(f"{path}: {len(buf) - end} trailing bytes")
    return t


@dataclass
class ManifestRecord:
    id: str
    feature_path: Path
    attention_path: Path | None = None
    mask_path: Path | None = None


@dataclass
class DatasetManifest:
    """Line-per-record dataset index.

    Record lines look like ``id=<s> feature=<path> [attention=<path>]
    [mask=<path>]``; paths are relative to the manifest file. The token
    grid and feature dimensionality may be declared in ``# grid=HxW`` /
    ``# dim=D`` comment lines, otherwise they are taken from the first
    feature tensor loaded; every later load is validated against them.
    """

    records: list[ManifestRecord]
    token_grid: tuple[int, int] | None = None
    feature_dim: int | None = None
    root: Path = field(default_factory=Path)

    def __len__(self) -> int:
        return len(self.records)

    def load_features(self, rec: ManifestRecord) -> np.ndarray:
        """Load the D x H' x W' feature tensor of *rec*, validating shape."""
        t = read_tensor(self.root / rec.feature_path)
        if t.ndim != 3:
            raise ManifestError(f"{rec.id}: feature tensor must be D x H' x W'")
        d, h, w = t.shape
        if self.feature_dim is None:
            self.feature_dim = d
        if self.token_grid is None:
            self.token_grid = (h, w)
        if d != self.feature_dim or (h, w) != self.token_grid:
            raise ManifestError(
                f"{rec.id}: feature tensor {t.shape} does not match manifest "
                f"dim={self.feature_dim} grid={self.token_grid}"
            )
        return t

    def load_attention(self, rec: ManifestRecord) -> np.ndarray | None:
        if rec.attention_path is None:
            return None
        t = read_tensor(self.root / rec.attention_path)
        if t.ndim == 2:
            t = t[None]
        if self.token_grid is not None and tuple(t.shape[1:]) != self.token_grid:
            raise ManifestError(
                f"{rec.id}: attention grid {t.shape[1:]} != {self.token_grid}"
            )
        return t

    def load_mask(self, rec: ManifestRecord) -> np.ndarray | None:
        """The (C, H, W) mask of *rec*, channel 0 its object classes."""
        if rec.mask_path is None:
            return None
        t = read_tensor(self.root / rec.mask_path)
        if t.ndim != 3:
            raise ManifestError(f"{rec.id}: mask tensor must be C x H x W, got {t.shape}")
        return t


def load_manifest(path: str | Path) -> DatasetManifest:
    """Parse and validate a manifest file."""
    path = Path(path)
    token_grid = None
    feature_dim = None
    records: list[ManifestRecord] = []
    seen: set[str] = set()
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            meta = line.lstrip("#").strip()
            try:
                if meta.startswith("grid="):
                    h, w = meta.removeprefix("grid=").split("x")
                    token_grid = (int(h), int(w))
                elif meta.startswith("dim="):
                    feature_dim = int(meta.removeprefix("dim="))
            except ValueError as exc:
                raise ManifestError(f"{path}:{lineno}: malformed {meta!r}: {exc}") from None
            continue
        fields = {}
        for part in line.split():
            if "=" not in part:
                raise ManifestError(f"{path}:{lineno}: malformed field {part!r}")
            key, value = part.split("=", 1)
            fields[key] = value
        if "id" not in fields:
            raise ManifestError(f"{path}:{lineno}: missing id")
        if "feature" not in fields:
            raise ManifestError(
                f"{path}:{lineno}: record {fields['id']!r} missing feature path"
            )
        if fields["id"] in seen:
            raise ManifestError(f"{path}: duplicate id {fields['id']!r}")
        seen.add(fields["id"])
        records.append(
            ManifestRecord(
                id=fields["id"],
                feature_path=Path(fields["feature"]),
                attention_path=Path(fields["attention"]) if "attention" in fields else None,
                mask_path=Path(fields["mask"]) if "mask" in fields else None,
            )
        )
    return DatasetManifest(
        records=records,
        token_grid=token_grid,
        feature_dim=feature_dim,
        root=path.parent,
    )


def write_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    lines = []
    if manifest.token_grid is not None:
        lines.append(f"# grid={manifest.token_grid[0]}x{manifest.token_grid[1]}")
    if manifest.feature_dim is not None:
        lines.append(f"# dim={manifest.feature_dim}")
    for rec in manifest.records:
        parts = [f"id={rec.id}", f"feature={rec.feature_path}"]
        if rec.attention_path is not None:
            parts.append(f"attention={rec.attention_path}")
        if rec.mask_path is not None:
            parts.append(f"mask={rec.mask_path}")
        lines.append(" ".join(parts))
    write_text(path, "\n".join(lines) + "\n")


def stack_tensors(tensors: Iterable[np.ndarray | None], names: list[str], kind: str,
                  error: type[ValueError] = ManifestError) -> np.ndarray | None:
    """The tensors named *names* as one (N, ...) array, filled in place one
    by one; None if every tensor is None. Every tensor must have the first
    one's shape and dtype, or all be None, else *error* names the first
    that differs."""
    def describe(key):
        return f"no {kind}" if key is None else f"{kind} {key[1]} {key[0]}"

    out = first = None
    for i, (name, t) in enumerate(zip(names, tensors)):
        key = None if t is None else (t.shape, t.dtype)
        if i == 0:
            first = key
            out = None if t is None else np.empty((len(names),) + t.shape, t.dtype)
        elif key != first:
            raise error(f"{name}: {describe(key)}, the first has {describe(first)}")
        if t is not None:
            out[i] = t
    return out


class Dataset:
    """A manifest's tensors, one array per kind: raw features, attention
    and ground truth.

    Each kind is read, for every record at once, on first access and kept,
    so a stage reads only the kinds it uses; :func:`stack_tensors` checks
    that it has one shape and dtype. Attention read before the features is
    checked against the manifest's ``# grid=`` header, or else against the
    first feature tensor.
    """

    def __init__(self, manifest: DatasetManifest):
        if not manifest.records:
            raise ManifestError(f"the dataset manifest under {manifest.root} lists no records")
        self.manifest = manifest

    def _stack(self, kind: str, load) -> np.ndarray | None:
        records = self.manifest.records
        return stack_tensors(map(load, records), [rec.id for rec in records], kind)

    @cached_property
    def features(self) -> np.ndarray:
        """(N, D, H, W) raw token grids."""
        return self._stack("feature tensor", self.manifest.load_features)

    @cached_property
    def attn_stacks(self) -> np.ndarray | None:
        """(N, heads, H, W) attention stacks; None if no record has any."""
        manifest = self.manifest
        if manifest.token_grid is None:
            manifest.load_features(manifest.records[0])
        return self._stack("attention", manifest.load_attention)

    @cached_property
    def object_maps(self) -> np.ndarray | None:
        """(N, H, W) object-class maps, 0 = background, from channel 0 of
        each mask; None if no record has a mask."""
        masks = self._stack("mask", self.manifest.load_mask)
        return None if masks is None else masks[:, 0].astype(np.int64)


def load_dataset(manifest: DatasetManifest) -> Dataset:
    """The dataset of *manifest*; each kind of tensor is read on first use."""
    return Dataset(manifest)


PROTO_NORM_TOL = 1e-5


@dataclass
class Checkpoint:
    """Named parameter tensors plus step counter and config hash."""

    tensors: dict[str, np.ndarray]
    step: int
    config_hash: str

    def validate(self) -> None:
        for name, t in self.tensors.items():
            is_param = not name.startswith(("adam_m/", "adam_v/"))
            if name.split("/")[-1] == "prototypes" and is_param:
                norms = np.linalg.norm(t.astype(np.float64), axis=1)
                if not np.allclose(norms, 1.0, atol=PROTO_NORM_TOL):
                    raise TensorFormatError(
                        f"checkpoint tensor {name!r}: prototype rows not unit-norm "
                        f"(max deviation {np.abs(norms - 1).max():.2e})"
                    )


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    ckpt.validate()
    hash_bytes = ckpt.config_hash.encode()
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<QH", ckpt.step, len(hash_bytes))
    out += hash_bytes
    out += struct.pack("<I", len(ckpt.tensors))
    for name in sorted(ckpt.tensors):
        name_bytes = name.encode()
        out += struct.pack("<H", len(name_bytes))
        out += name_bytes
        out += tensor_bytes(ckpt.tensors[name])
    write_bytes(path, bytes(out))


def load_checkpoint(path: str | Path) -> Checkpoint:
    buf = Path(path).read_bytes()
    if buf[:4] != CHECKPOINT_MAGIC:
        raise TensorFormatError(f"{path}: bad checkpoint magic {buf[:4]!r}")
    try:
        step, hash_len = struct.unpack_from("<QH", buf, 4)
        offset = 4 + 10
        config_hash = buf[offset : offset + hash_len].decode()
        offset += hash_len
        (count,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", buf, offset)
            offset += 2
            name = buf[offset : offset + name_len].decode()
            offset += name_len
            if name in tensors:
                raise TensorFormatError(f"{path}: duplicate tensor {name!r}")
            tensors[name], offset = _read_tensor_from(buf, offset, f"{path}:{name}")
    except (struct.error, UnicodeDecodeError) as exc:
        raise TensorFormatError(f"{path}: truncated or malformed checkpoint: {exc}") from exc
    if offset != len(buf):
        raise TensorFormatError(f"{path}: {len(buf) - offset} trailing bytes")
    ckpt = Checkpoint(tensors=tensors, step=step, config_hash=config_hash)
    ckpt.validate()
    return ckpt


def config_hash(text: str) -> str:
    """Stable hash of a canonical config rendering."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]
