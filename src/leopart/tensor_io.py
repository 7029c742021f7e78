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
import math
import os
import struct
from collections.abc import Iterable
from contextlib import contextmanager
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
    """Raised on malformed or inconsistent dataset manifests, and on a stage
    outputs manifest that is missing or does not match the files it lists."""


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


def read_lines(path: str | Path) -> tuple[str, list[tuple[str, list[str]]]]:
    """The UTF-8 text of *path*, and ``("<path>:<n>", fields)`` for each of
    its non-blank lines: n counts every line from 1, and the fields are the
    line split at whitespace."""
    text = read_text(path)
    return text, [(f"{path}:{n}", fields) for n, line in enumerate(text.splitlines(), start=1)
                  if (fields := line.split())]


@contextmanager
def named_line(where: str, fields: list[str], error: type[ValueError] = ValueError):
    """Re-raise a ``ValueError`` from parsing the line *fields* at *where*
    (``"<path>:<n>"``) as *error* ``"<where>: <reason>: '<line>'"``."""
    try:
        yield
    except ValueError as exc:
        raise error(f"{where}: {exc}: {' '.join(fields)!r}") from None


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
    count = math.prod(shape)  # exact, where np.prod would wrap in int64
    nbytes = count * dt.itemsize
    if len(buf) < offset + nbytes:
        raise TensorFormatError(
            f"{origin}: payload truncated, need {nbytes} bytes, "
            f"have {len(buf) - offset}"
        )
    data = np.frombuffer(buf, dtype=dt, count=count, offset=offset)
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


RECORD_FIELDS = ("id", "feature", "attention", "mask")
HEADER_SIZES = {"grid": 2, "dim": 1}  # "# grid=HxW", "# dim=D"


@dataclass
class ManifestRecord:
    id: str
    feature_path: Path
    attention_path: Path | None = None
    mask_path: Path | None = None


@dataclass(frozen=True)
class DatasetManifest:
    """Line-per-record dataset index, as parsed; reading its tensors (see
    :class:`Dataset`) never changes it.

    Record lines look like ``id=<s> feature=<path> [attention=<path>]
    [mask=<path>]``; paths are relative to the manifest file. The token
    grid and feature dimensionality may be declared in ``# grid=HxW`` /
    ``# dim=D`` comment lines; None where the manifest declares none.
    """

    records: list[ManifestRecord]
    token_grid: tuple[int, int] | None = None
    feature_dim: int | None = None
    root: Path = field(default_factory=Path)

    def __len__(self) -> int:
        return len(self.records)


def load_manifest(path: str | Path) -> DatasetManifest:
    """Parse and validate a manifest file: a record holds only
    ``RECORD_FIELDS``, each at most once, and ``id`` and ``feature`` always;
    ids are unique, and ``# grid=HxW`` and ``# dim=D`` values at least 1.
    Raises ``ManifestError`` naming the file and line."""
    path = Path(path)
    header: dict[str, tuple[int, ...]] = {}
    records: dict[str, ManifestRecord] = {}
    for where, fields in read_lines(path)[1]:
        with named_line(where, fields, ManifestError):
            if fields[0].startswith("#"):
                key, eq, value = " ".join(fields).lstrip("#").strip().partition("=")
                if eq and key in HEADER_SIZES:
                    header[key] = tuple(int(size) for size in value.split("x"))
                    if len(header[key]) != HEADER_SIZES[key] or min(header[key]) < 1:
                        raise ValueError("expected # grid=HxW or # dim=D, sizes at least 1")
                continue
            values: dict[str, str] = {}
            for key, eq, value in (part.partition("=") for part in fields):
                if not eq or key not in RECORD_FIELDS or key in values:
                    raise ValueError(f"{'repeated' if key in values else 'unknown'} field {key!r}")
                values[key] = value
            if "id" not in values or "feature" not in values:
                raise ValueError("a record needs an id and a feature")
            if values["id"] in records:
                raise ValueError(f"duplicate id {values['id']!r}")
            records[values["id"]] = ManifestRecord(values["id"], **{
                f"{key}_path": Path(value) for key, value in values.items() if key != "id"})
    return DatasetManifest(list(records.values()), header.get("grid"),
                           header.get("dim", (None,))[0], path.parent)


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
    so a stage reads only the kinds it uses. :func:`stack_tensors` checks
    that a kind has one shape and dtype, and each stack is then checked once
    against the manifest's headers: features against ``# dim=`` and
    ``# grid=``, attention against ``# grid=`` or else the features' grid.
    Features must be finite, and attention finite and non-negative. Every
    refusal is a ``ManifestError`` naming a record.
    """

    def __init__(self, manifest: DatasetManifest):
        if not manifest.records:
            raise ManifestError(f"the dataset manifest under {manifest.root} lists no records")
        self.manifest = manifest

    def _stack(self, kind: str, attr: str, lift=lambda t: t) -> np.ndarray | None:
        """The *attr* tensors of every record, each through *lift*, as one
        stack; None if no record has one."""
        root, records = self.manifest.root, self.manifest.records
        paths = [getattr(rec, attr) for rec in records]
        tensors = (None if p is None else lift(read_tensor(root / p)) for p in paths)
        return stack_tensors(tensors, [rec.id for rec in records], kind)

    def _check_values(self, stack: np.ndarray, ok, message: str) -> None:
        """Refuse *stack* unless ``ok(lo, hi)`` holds for each record's
        least and greatest value; NaN carries into both. The error names
        the first record that fails."""
        axes = tuple(range(1, stack.ndim))
        bad = ~ok(stack.min(axis=axes), stack.max(axis=axes))
        if bad.any():
            raise ManifestError(f"{self.manifest.records[int(np.argmax(bad))].id}: {message}")

    def _error(self, message: str) -> ManifestError:
        """An error naming the first record: a stack's records share one
        shape, so the first is as wrong as any."""
        return ManifestError(f"{self.manifest.records[0].id}: {message}")

    @cached_property
    def features(self) -> np.ndarray:
        """(N, D, H, W) raw token grids."""
        feats = self._stack("feature tensor", "feature_path")
        shape, m = feats.shape[1:], self.manifest
        if feats.ndim != 4:
            raise self._error(f"feature tensor must be D x H' x W', got {shape}")
        if m.feature_dim not in (None, shape[0]) or m.token_grid not in (None, shape[1:]):
            raise self._error(f"feature tensor {shape} does not match manifest "
                              f"dim={m.feature_dim} grid={m.token_grid}")
        self._check_values(feats, lambda lo, hi: np.isfinite(lo) & np.isfinite(hi),
                           "feature tensor has a non-finite value")
        return feats

    @cached_property
    def attn_stacks(self) -> np.ndarray | None:
        """(N, heads, H, W) attention stacks, a 2-D record one head; None if
        no record has any."""
        attn = self._stack("attention", "attention_path",
                           lambda t: t[None] if t.ndim == 2 else t)
        if attn is None:
            return None
        grid = self.manifest.token_grid or self.features.shape[2:]
        if attn.shape[2:] != grid:
            raise self._error(f"attention grid {attn.shape[2:]} != {grid}")
        self._check_values(attn, lambda lo, hi: (lo >= 0) & np.isfinite(hi),
                           "attention entries must be finite and non-negative")
        return attn

    @cached_property
    def object_maps(self) -> np.ndarray | None:
        """(N, H, W) object-class maps, 0 = background, from channel 0 of
        each (C, H, W) mask; None if no record has a mask."""
        masks = self._stack("mask", "mask_path")
        if masks is None:
            return None
        if masks.ndim != 4:
            raise self._error(f"mask tensor must be C x H x W, got {masks.shape[1:]}")
        return masks[:, 0].astype(np.int64)


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
                if t.ndim != 2:
                    raise TensorFormatError(
                        f"checkpoint tensor {name!r}: prototypes must be 2-D (K, D), "
                        f"got shape {t.shape}")
                norms = np.linalg.norm(t.astype(np.float64), axis=1)
                if not np.allclose(norms, 1.0, atol=PROTO_NORM_TOL):
                    raise TensorFormatError(
                        f"checkpoint tensor {name!r}: prototype rows not unit-norm "
                        f"(max deviation {np.abs(norms - 1).max():.2e})"
                    )


def match_tensors(tensors: dict[str, np.ndarray], expected: dict[str, np.ndarray],
                  kind: str, need: str) -> None:
    """Refuse checkpoint *tensors* unless their names are those of
    *expected* and each has the shape and dtype of its namesake there.

    ``TensorFormatError`` names the first tensor, in name order, that is
    missing, that is extra (not *kind*, say "a model parameter"), or that
    differs; in the last case *need* (say "this config needs") leads the
    wanted dtype and shape.
    """
    missing = sorted(expected.keys() - tensors.keys())
    if missing:
        raise TensorFormatError(f"checkpoint has no tensor {missing[0]!r}")
    for name, t in sorted(tensors.items()):
        if name not in expected:
            raise TensorFormatError(f"checkpoint tensor {name!r} is not {kind}")
        want = expected[name]
        if t.shape != want.shape or t.dtype != want.dtype:
            raise TensorFormatError(f"checkpoint tensor {name!r} is {t.dtype} {t.shape}; "
                                    f"{need} {want.dtype} {want.shape}")


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
