import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leopart import tensor_io


def test_file_layout_f32_2x2(tmp_path):
    path = tmp_path / "t.lpt"
    tensor_io.write_tensor(np.array([[1, 2], [3, 4]], dtype=np.float32), path)
    raw = path.read_bytes()
    assert raw[:4] == b"LPT1"
    assert raw[4] == 1  # f32 code
    assert raw[5] == 2  # ndim
    assert struct.unpack("<2I", raw[6:14]) == (2, 2)
    assert len(raw) == 14 + 16
    assert np.frombuffer(raw[14:], dtype="<f4").tolist() == [1, 2, 3, 4]


def test_zero_shape_rejected(tmp_path):
    with pytest.raises(tensor_io.TensorFormatError):
        tensor_io.write_tensor(np.zeros((0,), dtype=np.float32), tmp_path / "t.lpt")


def test_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    t = rng.normal(size=(3, 5, 7)).astype(np.float32)
    path = tmp_path / "t.lpt"
    tensor_io.write_tensor(t, path)
    back = tensor_io.read_tensor(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, t)
    assert back.tobytes() == t.tobytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "t.lpt"
    path.write_bytes(b"XXXX" + bytes(20))
    with pytest.raises(tensor_io.TensorFormatError, match="magic"):
        tensor_io.read_tensor(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.lpt"
    tensor_io.write_tensor(np.arange(100, dtype=np.float32), path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 200])  # keep 50 of 100 values
    with pytest.raises(tensor_io.TensorFormatError, match="truncated"):
        tensor_io.read_tensor(path)


@settings(max_examples=50, deadline=None)
@given(
    dtype=st.sampled_from(["f4", "u2", "u1"]),
    shape=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    seed=st.integers(0, 2**31),
)
def test_roundtrip_property(tmp_path_factory, dtype, shape, seed):
    rng = np.random.default_rng(seed)
    if dtype == "f4":
        t = rng.normal(size=shape).astype(np.float32)
    else:
        t = rng.integers(0, 200, size=shape).astype(np.dtype(dtype))
    path = tmp_path_factory.mktemp("rt") / "t.lpt"
    tensor_io.write_tensor(t, path)
    back = tensor_io.read_tensor(path)
    assert back.dtype == t.dtype and np.array_equal(back, t)


def _write_feature(tmp_path, name, shape=(4, 3, 3)):
    t = np.zeros(shape, dtype=np.float32)
    tensor_io.write_tensor(t, tmp_path / name)


def test_manifest_two_records(tmp_path):
    _write_feature(tmp_path, "a.lpt")
    _write_feature(tmp_path, "b.lpt")
    mpath = tmp_path / "manifest.txt"
    mpath.write_text("id=img1 feature=a.lpt\nid=img2 feature=b.lpt\n")
    m = tensor_io.load_manifest(mpath)
    assert len(m) == 2
    assert m.records[0].id == "img1"


def test_manifest_duplicate_id(tmp_path):
    mpath = tmp_path / "manifest.txt"
    mpath.write_text("id=img1 feature=a.lpt\nid=img1 feature=b.lpt\n")
    with pytest.raises(tensor_io.ManifestError, match="img1"):
        tensor_io.load_manifest(mpath)


def test_manifest_missing_feature(tmp_path):
    mpath = tmp_path / "manifest.txt"
    mpath.write_text("id=img1 attention=a.lpt\n")
    with pytest.raises(tensor_io.ManifestError, match="feature"):
        tensor_io.load_manifest(mpath)


def test_manifest_dim_mismatch_on_first_load(tmp_path):
    _write_feature(tmp_path, "a.lpt", shape=(64, 3, 3))
    mpath = tmp_path / "manifest.txt"
    mpath.write_text("# dim=32\nid=img1 feature=a.lpt\n")
    m = tensor_io.load_manifest(mpath)
    with pytest.raises(tensor_io.ManifestError):
        m.load_features(m.records[0])


def test_manifest_roundtrip(tmp_path):
    _write_feature(tmp_path, "a.lpt")
    m = tensor_io.DatasetManifest(
        records=[tensor_io.ManifestRecord(id="x", feature_path="a.lpt")],
        token_grid=(3, 3), feature_dim=4, root=tmp_path,
    )
    tensor_io.write_manifest(m, tmp_path / "m.txt")
    back = tensor_io.load_manifest(tmp_path / "m.txt")
    assert back.token_grid == (3, 3) and back.feature_dim == 4
    assert back.records[0].id == "x"


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    protos = rng.normal(size=(5, 8)).astype(np.float32)
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    ckpt = tensor_io.Checkpoint(
        tensors={"student/prototypes": protos,
                 "student/encoder.w": rng.normal(size=(4, 4)).astype(np.float32)},
        step=17, config_hash="abc123",
    )
    tensor_io.save_checkpoint(ckpt, tmp_path / "c.lpc")
    back = tensor_io.load_checkpoint(tmp_path / "c.lpc")
    assert back.step == 17 and back.config_hash == "abc123"
    for name in ckpt.tensors:
        assert np.array_equal(back.tensors[name], ckpt.tensors[name])


def test_checkpoint_rejects_unnormalized_prototypes(tmp_path):
    ckpt = tensor_io.Checkpoint(
        tensors={"student/prototypes": np.ones((3, 4), dtype=np.float32)},
        step=0, config_hash="h",
    )
    with pytest.raises(tensor_io.TensorFormatError, match="unit-norm"):
        tensor_io.save_checkpoint(ckpt, tmp_path / "c.lpc")


def small_checkpoint_bytes(tmp_path):
    ckpt = tensor_io.Checkpoint(tensors={"student/encoder.w": np.eye(3, dtype=np.float32)},
                                step=3, config_hash="0123456789abcdef")
    tensor_io.save_checkpoint(ckpt, tmp_path / "full.lpc")
    return (tmp_path / "full.lpc").read_bytes()


@pytest.mark.parametrize("cut", [6, 20])
def test_checkpoint_truncated_header_is_named_error(tmp_path, cut):
    path = tmp_path / "cut.lpc"
    path.write_bytes(small_checkpoint_bytes(tmp_path)[:cut])
    with pytest.raises(tensor_io.TensorFormatError, match="truncated"):
        tensor_io.load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "padded.lpc"
    path.write_bytes(small_checkpoint_bytes(tmp_path) + b"\0\0\0")
    with pytest.raises(tensor_io.TensorFormatError, match="3 trailing bytes"):
        tensor_io.load_checkpoint(path)


@pytest.mark.parametrize("cut", [6, 20])
def test_cli_truncated_checkpoint_exits_1(tmp_path, capsys, cut):
    from leopart import cli

    cfg = tmp_path / "run.cfg"
    cfg.write_text("[synth]\nn_images = 2\nraw_dim = 16\n")
    data = tmp_path / "data"
    assert cli.main(["--config", str(cfg), "gen", "--out", str(data)]) == 0
    path = tmp_path / "cut.lpc"
    path.write_bytes(small_checkpoint_bytes(tmp_path)[:cut])
    capsys.readouterr()
    code = cli.main(["--config", str(cfg), "cluster", "--data", str(data),
                     "--out", str(tmp_path / "o"), "--checkpoint", str(path)])
    assert code == 1
    assert "cut.lpc: truncated or malformed checkpoint" in capsys.readouterr().err


class _FailingFile:
    """A file whose write stores half of the data and then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("no space left on device")


@pytest.mark.parametrize("existing", [True, False])
@pytest.mark.parametrize("kind", ["tensor", "checkpoint"])
def test_failed_write_keeps_old_file_and_leaves_no_part(tmp_path, monkeypatch, kind, existing):
    def ckpt(step):
        return tensor_io.Checkpoint(tensors={"student/w": np.ones((3, 2), np.float32)},
                                    step=step, config_hash="abc")

    if kind == "tensor":
        path = tmp_path / "t.lpt"
        write = lambda v: tensor_io.write_tensor(np.full(12, v, dtype=np.float32), path)
        error = tensor_io.TensorFormatError
    else:
        path = tmp_path / "c.lpc"
        write = lambda v: tensor_io.save_checkpoint(ckpt(v), path)
        error = OSError
    if existing:
        write(1)
        old = path.read_bytes()
    monkeypatch.setattr(tensor_io, "open", lambda p, mode: _FailingFile(open(p, mode)),
                        raising=False)
    with pytest.raises(error, match="no space"):
        write(2)
    if existing:
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
    else:
        assert list(tmp_path.iterdir()) == []


def test_overwrite_replaces_the_file_and_keeps_identical_bytes(tmp_path):
    path = tmp_path / "t.lpt"
    tensor_io.write_tensor(np.zeros(3, dtype=np.float32), path)
    tensor_io.write_tensor(np.ones((2, 2), dtype=np.uint8), path)
    np.testing.assert_array_equal(tensor_io.read_tensor(path), np.ones((2, 2), dtype=np.uint8))
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    inode = path.stat().st_ino
    tensor_io.write_tensor(np.ones((2, 2), dtype=np.uint8), path)  # same bytes: left alone
    assert path.stat().st_ino == inode
    tensor_io.write_tensor(np.ones((2, 2), dtype=np.float32), path)
    assert tensor_io.read_tensor(path).dtype == np.float32


def _text_writers(tmp_path):
    """name -> (path, write(v)) for every text artifact the pipeline writes."""
    from pathlib import Path

    from leopart import cbfe, cli, community, config, training

    def manifest(v):
        records = [tensor_io.ManifestRecord(id=f"r{v}", feature_path=Path("r.lpt"))]
        tensor_io.write_manifest(tensor_io.DatasetManifest(records=records), tmp_path / "m.txt")

    def graph(v):
        w = np.array([[0.0, v / 4], [v / 4, 0.0]])
        community.write_graph(community.CoocGraph(w, np.array([3, v])), tmp_path / "g.txt")

    def fg_map(v):
        fg = cbfe.ForegroundMap(theta=np.array([True, v == 2]),
                                precision=np.array([0.9, v / 4]), threshold=0.35)
        cbfe.write_foreground_map(fg, tmp_path / "fg_map.txt")

    return {
        "manifest": (tmp_path / "m.txt", manifest),
        "graph": (tmp_path / "g.txt", graph),
        "partition": (tmp_path / "p.txt", lambda v: community.write_partition(
            community.Partition(np.array([0, v, -1])), tmp_path / "p.txt")),
        "fg_map": (tmp_path / "fg_map.txt", fg_map),
        "loss_curve": (tmp_path / "c.csv",
                       lambda v: training.write_loss_curve([(1, v)], tmp_path / "c.csv")),
        "outputs": (tmp_path / "train_outputs.txt", lambda v: cli.write_outputs_manifest(
            tmp_path, "train", config.Config(), [tmp_path / f"o{v}.lpc"])),
        "text": (tmp_path / "key.txt", lambda v: tensor_io.write_text(tmp_path / "key.txt",
                                                                      f"parts={v}\n")),
    }


@pytest.mark.parametrize("existing", [True, False])
@pytest.mark.parametrize("name", ["manifest", "graph", "partition", "fg_map", "loss_curve",
                                  "outputs", "text"])
def test_failed_text_write_keeps_old_file_and_leaves_no_part(tmp_path, monkeypatch, name,
                                                             existing):
    """A text file records no length, so even a new one appears only once
    complete: a write that fails halfway leaves the old file or none."""
    path, write = _text_writers(tmp_path)[name]
    if existing:
        write(1)
        old = path.read_bytes()
    monkeypatch.setattr(tensor_io, "open", lambda p, mode: _FailingFile(open(p, mode)),
                        raising=False)
    with pytest.raises(OSError, match="no space"):
        write(2)
    if existing:
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
    else:
        assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    write(2)
    assert path.read_bytes() != (old if existing else b"")


def test_checkpoint_rejects_duplicate_tensor_names(tmp_path):
    raw = small_checkpoint_bytes(tmp_path)
    count_at = 4 + 10 + len("0123456789abcdef")
    entry = raw[count_at + 4:]  # the one tensor: name length, name, LPT1 bytes
    path = tmp_path / "dup.lpc"
    path.write_bytes(raw[:count_at] + struct.pack("<I", 2) + entry + entry)
    with pytest.raises(tensor_io.TensorFormatError, match="duplicate tensor 'student/encoder.w'"):
        tensor_io.load_checkpoint(path)


# ------------------------------------------------------------- dataset stacks


def write_records(root, records):
    """Write each record's tensors (kind -> array, or None for none) and a
    manifest listing them, ids img0, img1, ...; returns the manifest path."""
    lines = []
    for i, rec in enumerate(records):
        parts = [f"id=img{i}"]
        for kind, t in rec.items():
            if t is not None:
                tensor_io.write_tensor(t, root / f"img{i}_{kind}.lpt")
                parts.append(f"{kind}=img{i}_{kind}.lpt")
        lines.append(" ".join(parts))
    (root / "manifest.txt").write_text("\n".join(lines) + "\n")
    return root / "manifest.txt"


def record(feature_dtype=np.float32, heads=1, attn_dtype=np.float32, mask_shape=(2, 3, 3),
           mask_dtype=np.uint16, attention=True, mask=True):
    return {"feature": np.ones((4, 3, 3), feature_dtype),
            "attention": np.ones((heads, 3, 3), attn_dtype) if attention else None,
            "mask": np.ones(mask_shape, mask_dtype) if mask else None}


def test_dataset_stacks_each_kind(tmp_path):
    rng = np.random.default_rng(0)
    recs = [{"feature": rng.normal(size=(4, 3, 3)).astype(np.float32),
             "attention": rng.uniform(size=(2, 3, 3)).astype(np.float32),
             "mask": rng.integers(0, 3, size=(2, 3, 3)).astype(np.uint16)} for _ in range(3)]
    dataset = tensor_io.load_dataset(tensor_io.load_manifest(write_records(tmp_path, recs)))
    assert dataset.features.dtype == np.float32 and dataset.features.shape == (3, 4, 3, 3)
    assert dataset.attn_stacks.dtype == np.float32 and dataset.attn_stacks.shape == (3, 2, 3, 3)
    assert dataset.object_maps.dtype == np.int64 and dataset.object_maps.shape == (3, 3, 3)
    for i, rec in enumerate(recs):
        assert np.array_equal(dataset.features[i], rec["feature"])
        assert np.array_equal(dataset.attn_stacks[i], rec["attention"])
        assert np.array_equal(dataset.object_maps[i], rec["mask"][0])


def test_dataset_without_attention_or_masks_has_none(tmp_path):
    recs = [record(attention=False, mask=False)] * 2
    dataset = tensor_io.load_dataset(tensor_io.load_manifest(write_records(tmp_path, recs)))
    assert dataset.attn_stacks is None and dataset.object_maps is None


INCONSISTENT_RECORDS = {
    "feature_dtype": ([record(), record(feature_dtype=np.uint16)], "features",
                      "img1: feature tensor uint16 (4, 3, 3), the first has "
                      "feature tensor float32 (4, 3, 3)"),
    "attention_heads": ([record(), record(heads=2)], "attn_stacks",
                        "img1: attention float32 (2, 3, 3), the first has "
                        "attention float32 (1, 3, 3)"),
    "attention_dtype": ([record(), record(attn_dtype=np.uint8)], "attn_stacks",
                        "img1: attention uint8 (1, 3, 3), the first has "
                        "attention float32 (1, 3, 3)"),
    "attention_missing": ([record(), record(attention=False)], "attn_stacks",
                          "img1: no attention, the first has attention float32 (1, 3, 3)"),
    "attention_only_later": ([record(attention=False), record()], "attn_stacks",
                             "img1: attention float32 (1, 3, 3), the first has no attention"),
    "mask_not_chw": ([record(), record(mask_shape=(3, 3))], "object_maps",
                     "img1: mask tensor must be C x H x W, got (3, 3)"),
    "mask_channels": ([record(), record(mask_shape=(1, 3, 3))], "object_maps",
                      "img1: mask uint16 (1, 3, 3), the first has mask uint16 (2, 3, 3)"),
    "mask_grid": ([record(), record(mask_shape=(2, 4, 4))], "object_maps",
                  "img1: mask uint16 (2, 4, 4), the first has mask uint16 (2, 3, 3)"),
    "mask_dtype": ([record(), record(mask_dtype=np.uint8)], "object_maps",
                   "img1: mask uint8 (2, 3, 3), the first has mask uint16 (2, 3, 3)"),
    "mask_missing": ([record(), record(mask=False)], "object_maps",
                     "img1: no mask, the first has mask uint16 (2, 3, 3)"),
}


@pytest.mark.parametrize("case", sorted(INCONSISTENT_RECORDS))
def test_dataset_refuses_a_record_unlike_the_first(tmp_path, capsys, case):
    """Each kind has one shape and dtype per dataset, on every record or on
    none; the loader names the first record that differs, and so does the CLI."""
    from leopart import cli

    records, kind, message = INCONSISTENT_RECORDS[case]
    dataset = tensor_io.load_dataset(tensor_io.load_manifest(write_records(tmp_path, records)))
    with pytest.raises(tensor_io.ManifestError) as exc:
        getattr(dataset, kind)
    assert str(exc.value) == message
    assert cli.main(["eval", "--data", str(tmp_path), "--protocol", "fg"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_dataset_of_no_records_is_a_named_error(tmp_path, capsys):
    from leopart import cli

    (tmp_path / "manifest.txt").write_text("# grid=3x3\n")
    with pytest.raises(tensor_io.ManifestError, match="lists no records"):
        tensor_io.load_dataset(tensor_io.load_manifest(tmp_path / "manifest.txt"))
    for argv in (["cluster", "--out", str(tmp_path / "c")],
                 ["train", "--out", str(tmp_path / "t")], ["eval", "--protocol", "overcluster"]):
        assert cli.main(argv + ["--data", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "lists no records" in err
