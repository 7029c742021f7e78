"""Fuzzing of every artifact reader: a reader given any bytes either returns
a valid object or raises a named error, never another exception."""

import math
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from leopart import cbfe, cli, community, config, render, tensor_io

NAMED_ERRORS = (tensor_io.TensorFormatError, tensor_io.ManifestError, ValueError,
                community.CommunityError)


def valid_tensor() -> bytes:
    return tensor_io.tensor_bytes(np.arange(12, dtype=np.float32).reshape(3, 4))


def valid_checkpoint(tmp_path) -> bytes:
    protos = np.eye(2, 3, dtype=np.float32)
    ckpt = tensor_io.Checkpoint(tensors={"student/prototypes": protos,
                                         "student/encoder.w": np.ones((3, 3), np.float32)},
                                step=4, config_hash="0123456789abcdef")
    tensor_io.save_checkpoint(ckpt, tmp_path / "valid.lpc")
    return (tmp_path / "valid.lpc").read_bytes()


VALID_TEXT = {
    "manifest": b"# grid=4x4\n# dim=8\nid=a feature=a.lpt attention=a_attn.lpt mask=a_mask.lpt\n"
                b"id=b feature=b.lpt\n",
    "graph": b"nodes 3\nnode 0 10\nnode 1 4\nnode 2 7\n0 1 0.5\n1 2 0.25\n",
    "partition": b"0 0\n1 bg\n2 1\n",
    "fg_map": b"0 0.900000 fg\n1 0.200000 bg\n2 0.350000 bg\n",
}


@st.composite
def mutated(draw, base: bytes):
    """*base* with a few random byte edits: overwrite, insert, delete, truncate."""
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["set", "insert", "delete", "truncate"]))
        pos = draw(st.integers(0, len(data)))
        if op == "set" and pos < len(data):
            data[pos] = draw(st.integers(0, 255))
        elif op == "insert":
            data[pos:pos] = draw(st.binary(min_size=1, max_size=8))
        elif op == "delete":
            del data[pos:pos + draw(st.integers(1, 8))]
        else:
            del data[pos:]
    return bytes(data)


def fuzz_inputs(base: bytes):
    return st.one_of(st.binary(max_size=64), mutated(base))


def check_reader(tmp_path, reader, data: bytes, name: str):
    path = tmp_path / name
    path.write_bytes(data)
    try:
        return reader(path)
    except NAMED_ERRORS as exc:
        assert str(exc)
        return None


FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(data=fuzz_inputs(valid_tensor()))
def test_read_tensor_returns_a_tensor_or_a_named_error(tmp_path, data):
    t = check_reader(tmp_path, tensor_io.read_tensor, data, "t.lpt")
    if t is not None:
        assert tensor_io.tensor_bytes(t) == data  # a valid file is read exactly


@FUZZ
@given(data=st.data())
def test_load_checkpoint_returns_a_checkpoint_or_a_named_error(tmp_path, data):
    raw = data.draw(fuzz_inputs(valid_checkpoint(tmp_path)))
    ckpt = check_reader(tmp_path, tensor_io.load_checkpoint, raw, "c.lpc")
    if ckpt is not None:  # every byte was read: saving it again loses nothing
        tensor_io.save_checkpoint(ckpt, tmp_path / "again.lpc")
        assert len((tmp_path / "again.lpc").read_bytes()) == len(raw)


@FUZZ
@given(data=fuzz_inputs(VALID_TEXT["manifest"]))
def test_load_manifest_returns_a_manifest_or_a_named_error(tmp_path, data):
    manifest = check_reader(tmp_path, tensor_io.load_manifest, data, "manifest.txt")
    if manifest is not None:
        assert len({rec.id for rec in manifest.records}) == len(manifest)


def graph_inputs():
    """Mutated graphs, and the valid body under a header of any node count."""
    body = VALID_TEXT["graph"].split(b"\n", 1)[1]
    headers = st.integers(-3, 10**12).map(lambda n: f"nodes {n}\n".encode())
    return st.one_of(fuzz_inputs(VALID_TEXT["graph"]),
                     st.tuples(headers, mutated(body)).map(b"".join))


@FUZZ
@given(data=graph_inputs())
def test_read_graph_returns_a_graph_or_a_named_error(tmp_path, data):
    graph = check_reader(tmp_path, community.read_graph, data, "graph.txt")
    if graph is not None:
        assert graph.weights.shape == (graph.n, graph.n) and len(graph.node_counts) == graph.n


@FUZZ
@given(data=fuzz_inputs(VALID_TEXT["partition"]))
def test_read_partition_returns_a_partition_or_a_named_error(tmp_path, data):
    check_reader(tmp_path, community.read_partition, data, "partition.txt")


@FUZZ
@given(data=fuzz_inputs(VALID_TEXT["fg_map"]))
def test_read_foreground_map_returns_flags_or_a_named_error(tmp_path, data):
    theta = check_reader(tmp_path, cbfe.read_foreground_map, data, "fg_map.txt")
    if theta is not None:
        assert theta.dtype == bool


def valid_outputs(tmp_path) -> bytes:
    """A ``cluster_outputs.txt`` listing one tensor beside it."""
    (tmp_path / "a.lpt").write_bytes(valid_tensor())
    path = cli.write_outputs_manifest(tmp_path, "cluster", config.Config(),
                                      [tmp_path / "a.lpt"], {"manifest.txt": "0" * 64}, 2)
    return path.read_bytes()


@FUZZ
@given(data=st.data())
def test_read_outputs_returns_checked_outputs_or_a_named_error(tmp_path, data):
    raw = data.draw(fuzz_inputs(valid_outputs(tmp_path)))
    outputs = check_reader(tmp_path, lambda p: cli.read_outputs(p.parent, "cluster"), raw,
                           "cluster_outputs.txt")
    if outputs is not None:  # only the one file beside it can match its record
        assert set(outputs.files) <= {"a.lpt"}


VALID_PPM = b"P6\n5 4\n255\n" + bytes(range(60))


@FUZZ
@given(data=fuzz_inputs(VALID_PPM))
def test_read_ppm_returns_an_image_or_a_named_error(tmp_path, data):
    image = check_reader(tmp_path, render.read_ppm, data, "map.ppm")
    if image is not None:  # the payload is exactly the image's bytes
        assert image.dtype == np.uint8 and image.shape[2:] == (3,)
        assert data.endswith(b"\n" + image.tobytes())


@pytest.mark.parametrize("shape", [(65536,) * 4, (65536, 65536, 65536, 32768)])
def test_a_size_past_int64_is_a_truncated_payload(tmp_path, shape):
    """A header whose element count wraps in int64 (to 0 or below) is
    refused as a truncated payload naming the file, in a tensor file and in
    a checkpoint alike: the size is an exact integer."""
    header = tensor_io.MAGIC + struct.pack(f"<BB{len(shape)}I", 3, len(shape), *shape)
    name = b"student/w"
    files = {"t.lpt": (tensor_io.read_tensor, header + b"\0" * 8),
             "c.lpc": (tensor_io.load_checkpoint,
                       tensor_io.CHECKPOINT_MAGIC + struct.pack("<QHIH", 0, 0, 1, len(name))
                       + name + header + b"\0" * 8)}
    for file, (reader, data) in files.items():
        (tmp_path / file).write_bytes(data)
        with pytest.raises(tensor_io.TensorFormatError) as exc:
            reader(tmp_path / file)
        assert str(tmp_path / file) in str(exc.value), file
        assert f"payload truncated, need {math.prod(shape)} bytes, have 8" in str(exc.value)


def test_valid_ppm_loads(tmp_path):
    path = tmp_path / "map.ppm"
    path.write_bytes(VALID_PPM)
    assert render.read_ppm(path).shape == (4, 5, 3)


@pytest.mark.parametrize("name, reader", [
    ("manifest", tensor_io.load_manifest), ("graph", community.read_graph),
    ("partition", community.read_partition), ("fg_map", cbfe.read_foreground_map)])
def test_valid_text_artifacts_load(tmp_path, name, reader):
    """The seeds of the mutations are themselves valid."""
    path = tmp_path / f"{name}.txt"
    path.write_bytes(VALID_TEXT[name])
    assert reader(path) is not None


FAILING_FUZZ_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails_for_non_negative_numbers(n):
    assert n < 0
"""


def test_a_failing_fuzz_test_reports_its_falsifying_example(tmp_path):
    """Under this repository's pytest settings (every warning an error), a
    failing hypothesis test shows its falsifying example, not an
    INTERNALERROR from a warning raised inside hypothesis's report."""
    (tmp_path / "test_failing.py").write_text(FAILING_FUZZ_TEST)
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(pyproject),
         "--rootdir", str(tmp_path), str(tmp_path / "test_failing.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example: test_fails_for_non_negative_numbers(" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
