"""Structured-text run configuration.

Configs are INI-style ``key = value`` files with one section per pipeline
stage. Every key has a typed default, so an empty file is a complete
configuration; the ``[synth]`` and ``[train]`` keys are the fields of
``SynthSpec`` and ``TrainConfig``. Some command reads every key (``eval
--protocol unsupseg`` the same ``[cbfe]``/``[cd]``/``[eval]`` keys as the
CLI stages). Unknown sections or keys are rejected by name; the canonical
serialized form feeds the config hash that ties artifacts to the settings
that produced them.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from . import cbfe, cluster_eval, community, sinkhorn, synth, tensor_io, training


class ConfigError(ValueError):
    """A config file failed schema validation; the message names the key."""


def _pair(kind):
    def parse(text: str):
        parts = text.replace(",", " ").split()
        if len(parts) != 2:
            raise ValueError(f"expected two values, got {text!r}")
        return (kind(parts[0]), kind(parts[1]))
    return parse


def _optional_int(text: str):
    if text.strip().lower() in ("", "none"):
        return None
    return int(text)


def _ranged(parse, ok, requirement: str):
    """*parse*, refusing a value that fails *ok* (None always passes)."""
    def checked(text: str):
        value = parse(text)
        if value is not None and not ok(value):
            raise ValueError(f"must be {requirement}, got {value}")
        return value
    return checked


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


_count = _ranged(int, lambda v: v >= 1, "at least 1")
_positive = _ranged(_finite, lambda v: v > 0, "positive")
_unit = _ranged(float, lambda v: 0 <= v <= 1, "in [0, 1]")


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# a dataclass field's annotation -> the parser of its config value
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "int | None": _optional_int,
    "tuple[int, int]": _pair(int),
    "tuple[float, float]": _pair(float),
}


def _fields_section(spec, exclude: set[str]) -> dict[str, tuple[Any, Any]]:
    """One config key per field of the dataclass *spec*, apart from *exclude*."""
    section = {}
    for f in fields(spec):
        if f.name in exclude:
            continue
        if f.type not in _PARSERS:
            raise TypeError(f"{spec.__name__}.{f.name}: no config parser for {f.type!r}")
        section[f.name] = (_PARSERS[f.type], f.default)
    return section


# section -> key -> (parser, default); the seed comes from [run], and the
# TrainConfig fields of the Sinkhorn and the queue from [sinkhorn]
SCHEMA: dict[str, dict[str, tuple[Any, Any]]] = {
    "synth": _fields_section(synth.SynthSpec, {"seed"}),
    "train": _fields_section(training.TrainConfig,
                             {"seed", "epsilon", "sinkhorn_iters", "queue_capacity"}),
    "sinkhorn": {
        "epsilon": (float, sinkhorn.DEFAULT_EPSILON),
        "n_iters": (int, sinkhorn.DEFAULT_ITERS),
        "queue_capacity": (int, sinkhorn.QUEUE_CAPACITY),
    },
    "cbfe": {
        "k": (_count, cbfe.DEFAULT_K),
        "threshold": (_unit, cbfe.THRESHOLD_SINGLE_DATASET),
    },
    "cd": {
        "edge_threshold": (_unit, community.DEFAULT_EDGE_THRESHOLD),
        "markov_time": (_positive, community.DEFAULT_MARKOV_TIME),
        "distance": (_count, community.DEFAULT_DISTANCE),
        "target_m": (_ranged(_optional_int, lambda v: v >= 1, "at least 1"),
                     None),  # `communities` refuses None; unsupseg reads no target_m
    },
    "eval": {
        "k": (_count, 20),
        "n_seeds": (_count, cluster_eval.DEFAULT_SEEDS),
        "use_head": (_bool, True),
    },
    "run": {
        "seed": (_ranged(int, lambda v: v >= 0, "at least 0"), 0),
    },
}


@dataclass
class Config:
    """Parsed configuration; one dict of typed values per schema section."""

    values: dict[str, dict[str, Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        merged = {s: {k: d for k, (_, d) in keys.items()} for s, keys in SCHEMA.items()}
        for section, keys in self.values.items():
            merged[section].update(keys)
        self.values = merged

    def __getitem__(self, section: str) -> dict[str, Any]:
        return self.values[section]

    def canonical_text(self) -> str:
        lines = []
        for section in sorted(self.values):
            lines.append(f"[{section}]")
            for key in sorted(self.values[section]):
                lines.append(f"{key} = {self.values[section][key]!r}")
        return "\n".join(lines) + "\n"

    def hash(self) -> str:
        return tensor_io.config_hash(self.canonical_text())

    def synth_spec(self) -> synth.SynthSpec:
        """The [synth] keys are the SynthSpec fields of the same names."""
        return synth.SynthSpec(**self["synth"], seed=self["run"]["seed"])

    def train_config(self) -> training.TrainConfig:
        """The [train] keys are the TrainConfig fields of the same names."""
        return training.TrainConfig(
            **self["train"], epsilon=self["sinkhorn"]["epsilon"],
            sinkhorn_iters=self["sinkhorn"]["n_iters"],
            queue_capacity=self["sinkhorn"]["queue_capacity"], seed=self["run"]["seed"])


def load_config(path: str | Path | None) -> Config:
    """Parse and validate a config file: each value's type and range, then
    the checks of ``SynthSpec`` and ``TrainConfig`` (an error in a
    ``[sinkhorn]`` key names that section), so that every command rejects a
    bad setting; None gives all defaults. ``LEOPART_SEED`` replaces ``[run]
    seed`` here, so the config hash covers the seed a run uses."""
    parser = configparser.ConfigParser(interpolation=None)
    text = "" if path is None else tensor_io.read_text(path)
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    values: dict[str, dict[str, Any]] = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        values[section] = {}
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key {section}.{key}")
            parse, _ = SCHEMA[section][key]
            try:
                values[section][key] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"{path}: bad value for {section}.{key}: {exc}") from exc
    env = os.environ.get("LEOPART_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"LEOPART_SEED is not an integer: {env!r}") from None
        if seed < 0:
            raise ConfigError(f"LEOPART_SEED must be at least 0, got {seed}")
        values.setdefault("run", {})["seed"] = seed
    cfg = Config(values=values)
    checks = (("synth", cfg.synth_spec),
              # the [sinkhorn] keys alone, every [train] key at its default
              ("sinkhorn", Config(values={"sinkhorn": cfg["sinkhorn"]}).train_config),
              ("train", cfg.train_config))
    for section, build in checks:
        try:
            build()
        except ValueError as exc:
            raise ConfigError(f"{path}: [{section}] {exc}") from exc
    return cfg


def default_config_text() -> str:
    """A fully commented config file with every key at its default."""
    lines = ["# all keys shown at their default values"]
    for section in SCHEMA:
        lines.append(f"\n[{section}]")
        for key, (_, default) in SCHEMA[section].items():
            if isinstance(default, tuple):
                rendered = " ".join(str(v) for v in default)
            elif default is None:
                rendered = "none"
            else:
                rendered = str(default)
            lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"
