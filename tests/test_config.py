"""Config parsing, defaults, validation and hashing."""

import ast
import dataclasses
import hashlib
import re
from pathlib import Path

import pytest

from leopart import config, crops, sinkhorn, synth, training


def test_empty_config_is_all_defaults():
    cfg = config.Config()
    assert cfg["train"]["temperature"] == 0.1
    assert cfg["train"]["n_prototypes"] == 300
    assert cfg["sinkhorn"]["epsilon"] == 0.05
    assert cfg["sinkhorn"]["queue_capacity"] == 8192
    assert cfg["cbfe"]["threshold"] == 0.35
    assert cfg["cd"]["edge_threshold"] == 0.09
    assert cfg["cd"]["markov_time"] == 2.0
    assert cfg["run"]["seed"] == 0
    # the defaults, and so every checkpoint's and manifest's config hash, are pinned
    assert cfg.hash() == "a9ccbc43479487e9"
    assert training.TrainConfig().hash() == "d0c577acbf39f503"
    text = config.default_config_text().encode()
    assert hashlib.sha256(text).hexdigest().startswith("5bc66daae5a299b5")
    assert cfg.train_config() == training.TrainConfig()
    assert cfg.synth_spec() == synth.SynthSpec()
    assert training.TrainConfig().crop_spec() == crops.CropSpec()
    # every dataclass field is a key, apart from those that other sections set
    for section, spec, elsewhere in [
            ("synth", synth.SynthSpec, {"seed"}),
            ("train", training.TrainConfig,
             {"seed", "epsilon", "sinkhorn_iters", "queue_capacity"})]:
        names = {f.name for f in dataclasses.fields(spec)}
        assert elsewhere <= names
        assert set(cfg[section]) == names - elsewhere


def config_key_reads(source: str) -> set[tuple[str, str]]:
    """(section, key) of each ``…["<section>"]["<key>"]`` subscript in *source*."""
    return {(node.value.slice.value, node.slice.value) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Subscript)
            and all(isinstance(n.slice, ast.Constant) and isinstance(n.slice.value, str)
                    for n in (node, node.value))}


def test_every_config_key_is_read():
    """No config key goes unread: the package source reads each key of a
    section that no dataclass builds as ``…["<section>"]["<key>"]``."""
    assert config_key_reads('cfg["eval"]["k"]\n"""cfg["cd"]["k"]"""\nx[0]["k"]\n') == {
        ("eval", "k")}
    source = Path(config.__file__).parent
    reads = set().union(*(config_key_reads(p.read_text()) for p in source.glob("*.py")))
    keys = {(section, key) for section, schema in config.SCHEMA.items()
            if section not in ("synth", "train") for key in schema}
    assert sorted(keys - reads) == []


def test_a_field_type_without_a_parser_is_refused():
    @dataclasses.dataclass
    class Spec:
        flag: "bool" = False

    with pytest.raises(TypeError, match="Spec.flag: no config parser for 'bool'"):
        config._fields_section(Spec, set())


def test_load_none_gives_defaults():
    assert config.load_config(None).values == config.Config().values


def test_load_and_override(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("""
[train]
epochs = 3
global_scale = 0.5 0.9
token_dim = none

[run]
seed = 42
""")
    cfg = config.load_config(path)
    assert cfg["train"]["epochs"] == 3
    assert cfg["train"]["global_scale"] == (0.5, 0.9)
    assert cfg["train"]["token_dim"] is None
    assert cfg["run"]["seed"] == 42
    # untouched keys keep defaults
    assert cfg["train"]["batch_size"] == 32


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[nonsense]\nx = 1\n")
    with pytest.raises(config.ConfigError, match="nonsense"):
        config.load_config(path)


def test_unknown_key_rejected_by_name(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[train]\nlearning_rate = 0.1\n")
    with pytest.raises(config.ConfigError, match="train.learning_rate"):
        config.load_config(path)


@pytest.mark.parametrize("section, key", [("cd", "k"), ("run", "threads"),
                                          ("eval", "probe_epochs"), ("eval", "probe_lr")])
def test_removed_keys_rejected_by_name(tmp_path, section, key):
    path = tmp_path / "old.cfg"
    path.write_text(f"[{section}]\n{key} = 1\n")
    with pytest.raises(config.ConfigError, match=f"unknown key {section}.{key}"):
        config.load_config(path)


def test_bad_value_rejected_by_name(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[train]\nepochs = soon\n")
    with pytest.raises(config.ConfigError, match="train.epochs"):
        config.load_config(path)


def test_pair_values_accept_commas(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[synth]\ngrid = 8, 12\n")
    cfg = config.load_config(path)
    assert cfg["synth"]["grid"] == (8, 12)


def test_hash_stable_and_sensitive(tmp_path):
    a = config.Config()
    b = config.Config()
    assert a.hash() == b.hash()
    path = tmp_path / "run.cfg"
    path.write_text("[run]\nseed = 1\n")
    assert config.load_config(path).hash() != a.hash()


def test_synth_spec_and_train_config_builders(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("""
[synth]
n_images = 5
raw_dim = 8

[train]
epochs = 2

[sinkhorn]
n_iters = 7

[run]
seed = 9
""")
    cfg = config.load_config(path)
    spec = cfg.synth_spec()
    assert spec.n_images == 5 and spec.raw_dim == 8 and spec.seed == 9
    tc = cfg.train_config()
    assert tc.epochs == 2 and tc.sinkhorn_iters == 7 and tc.seed == 9


def test_seed_env_sets_run_seed_at_load(tmp_path, monkeypatch):
    """LEOPART_SEED replaces [run] seed as the config loads, with or without
    a file, so the config hash and both builders see the seed that runs."""
    path = tmp_path / "run.cfg"
    path.write_text("[run]\nseed = 9\n")
    monkeypatch.setenv("LEOPART_SEED", "7")
    for cfg in (config.load_config(None), config.load_config(path)):
        assert cfg["run"]["seed"] == 7
        assert cfg.synth_spec().seed == 7 and cfg.train_config().seed == 7
        assert cfg.hash() == config.Config(values={"run": {"seed": 7}}).hash()
    monkeypatch.setenv("LEOPART_SEED", "seven")
    with pytest.raises(config.ConfigError, match="LEOPART_SEED is not an integer: 'seven'"):
        config.load_config(None)


def test_a_config_that_is_not_utf8_is_named(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("[run]\n# café\nseed = 1\n".encode("latin-1"))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
        config.load_config(path)


def test_default_config_text_roundtrips(tmp_path):
    text = config.default_config_text()
    path = tmp_path / "defaults.cfg"
    path.write_text(text)
    cfg = config.load_config(path)
    assert cfg.values == config.Config().values


@pytest.mark.parametrize("setting", [
    "[eval]\nk = 0", "[eval]\nn_seeds = -2", "[cbfe]\nk = 0",
    "[cbfe]\nthreshold = -0.01", "[cbfe]\nthreshold = 1.01", "[cd]\nmarkov_time = 0",
    "[cd]\ntarget_m = -1", "[cd]\nedge_threshold = 1.5", "[cd]\nedge_threshold = -0.01",
    "[cd]\nedge_threshold = nan", "[cd]\ndistance = 0",
])
def test_out_of_range_values_are_refused_by_key(tmp_path, setting):
    section, line = setting[1:].split("]\n")
    path = tmp_path / "run.cfg"
    path.write_text(setting + "\n")
    key = line.split(" = ")[0]
    with pytest.raises(config.ConfigError, match=rf"bad value for {section}\.{key}: must be"):
        config.load_config(path)


@pytest.mark.parametrize("setting", [
    "[eval]\nk = 1\nn_seeds = 1",
    "[cbfe]\nk = 1\nthreshold = 0\n[cd]\nmarkov_time = 1e-9\ntarget_m = none",
    "[cbfe]\nthreshold = 1\n[cd]\ntarget_m = 1",
    "[cd]\nedge_threshold = 0\ndistance = 1", "[cd]\nedge_threshold = 1",
    f"[sinkhorn]\nepsilon = {sinkhorn.MIN_EPSILON!r}\nn_iters = 1\nqueue_capacity = 1",
    "[synth]\nn_objects = 0\nn_bg_parts = 1", "[train]\nn_global = 1\nn_local = 1",
    "[train]\nn_global = 2\nn_local = 0",
])
def test_range_edges_are_accepted(tmp_path, setting):
    path = tmp_path / "run.cfg"
    path.write_text(setting + "\n")
    config.load_config(path)


@pytest.mark.parametrize("field, value, message", [
    ("epsilon", 0.005, "epsilon must be at least sinkhorn.MIN_EPSILON"),
    ("epsilon", float("nan"), "epsilon must be at least sinkhorn.MIN_EPSILON"),
    ("sinkhorn_iters", 0, "n_iters must be at least 1, got 0"),
    ("queue_capacity", -4, "queue_capacity must be at least 1, got -4"),
])
def test_train_config_rejects_sinkhorn_values(field, value, message):
    with pytest.raises(ValueError, match=message):
        training.TrainConfig(**{field: value})
