"""What the config loads, every stage runs: ``[synth]``, ``[train]`` and
``[sinkhorn]`` values drawn in and around their bounds either fail to load
with a named error, or ``gen`` (at most 6 images) and a 1-step ``train``
each run or exit 1 with a named error. Neither may end in a traceback, and
``train`` may not exit 0 with a zero or non-finite final loss."""

import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from leopart import cli, config

# key -> (values in bounds, their edges included; values just beyond them).
# Every size is capped, so that no example allocates much memory, and
# epochs = 1 with batch_size >= n_images makes the run one step.
SETTINGS = {
    ("synth", "n_images"): (["1", "2", "6"], ["0", "-1"]),
    ("synth", "grid"): (["2 4", "3 5", "6 6", "4 8"], ["1 6", "6 3", "0 0"]),
    ("synth", "raw_dim"): (["1", "2", "8"], ["0"]),
    ("synth", "n_objects"): (["0", "1", "3"], ["-1"]),
    ("synth", "parts_per_object"): (["1", "2", "3"], ["0"]),
    ("synth", "n_bg_parts"): (["1", "2", "4"], ["0"]),
    ("synth", "min_angle_deg"): (["0", "30", "60"], ["-10", "190", "nan", "inf"]),
    ("synth", "noise_sigma"): (["0", "0.1", "1"], ["-0.1", "inf", "nan"]),
    ("synth", "objects_per_image"): (["0 0", "0 3", "1 1", "2 5"], ["-1 2", "2 1"]),
    ("synth", "attention_flip"): (["0", "0.1", "0.9"], ["1", "-0.1", "nan"]),
    ("train", "temperature"): (["0.01", "0.1", "10"], ["0", "-1", "inf", "nan"]),
    ("train", "lr_head"): (["0", "0.001", "1"], ["-0.001", "inf", "nan"]),
    ("train", "lr_encoder"): (["0", "0.0001", "1"], ["-1", "inf"]),
    ("train", "weight_decay"): (["0", "0.1", "10"], ["-0.1", "nan"]),
    ("train", "epochs"): (["1"], ["0", "-1"]),
    ("train", "batch_size"): (["6", "8"], ["0"]),
    ("train", "ema_start"): (["0", "0.5", "1"], ["-0.1", "1.1", "nan"]),
    ("train", "n_prototypes"): (["2", "3", "8"], ["0", "1"]),
    ("train", "fg_masking"): (["all", "fg", "bg"], ["none"]),
    ("train", "hidden_dim"): (["1", "4", "16"], ["0"]),
    ("train", "out_dim"): (["2", "3", "8"], ["0", "1"]),
    ("train", "token_dim"): (["none", "1", "8"], ["0"]),
    ("train", "align_size"): (["1", "3", "7"], ["0"]),
    ("train", "global_grid"): (["1", "2", "5"], ["0"]),
    ("train", "local_grid"): (["1", "3"], ["0"]),
    ("train", "n_global"): (["1", "2", "3"], ["0"]),
    ("train", "n_local"): (["0", "1", "3"], ["-1"]),
    ("train", "global_scale"): (["0.4 1", "1 1", "0.05 0.3"], ["0 1", "0.5 1.5", "0.9 0.4"]),
    ("train", "local_scale"): (["0.05 0.4", "0.4 0.4", "0.01 1"], ["-0.1 0.4", "0.4 0.05"]),
    ("train", "min_intersection"): (["0.001", "0.01", "0.3"], ["0", "1", "nan"]),
    ("train", "aspect"): (["0.75 1.3333", "1 1", "0.2 5"], ["0 1", "2 0.5"]),
    ("sinkhorn", "epsilon"): (["0.006", "0.05", "10"], ["0.001", "inf", "nan"]),
    ("sinkhorn", "n_iters"): (["1", "3"], ["0"]),
    ("sinkhorn", "queue_capacity"): (["1", "5", "64"], ["0"]),
}


@st.composite
def config_texts(draw) -> str:
    """A config of every key above, each in bounds but (at most) one."""
    beyond = draw(st.one_of(st.none(), st.sampled_from(sorted(SETTINGS))))
    sections: dict[str, list[str]] = {}
    for (section, key), (valid, invalid) in SETTINGS.items():
        value = draw(st.sampled_from(invalid if (section, key) == beyond else valid))
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{name}]\n" + "\n".join(lines) + "\n\n" for name, lines in sections.items())


def run(argv: list[str], capsys) -> tuple[int, str]:
    """``cli.main(argv)``'s exit code and stdout; exit 1 prints one named error."""
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    return code, out


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=config_texts())
def test_every_loaded_config_runs_gen_and_a_train_step(capsys, text):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg = root / "run.cfg"
        cfg.write_text(text)
        try:
            config.load_config(cfg)
        except config.ConfigError:
            return
        data, train = root / "data", root / "train"
        if run(["--config", str(cfg), "gen", "--out", str(data)], capsys)[0]:
            return
        code, out = run(["--config", str(cfg), "train", "--data", str(data),
                         "--out", str(train)], capsys)
        if code == 0:
            assert out.startswith("trained 1 steps;"), out
            loss = float((train / "loss_curve.csv").read_text().splitlines()[-1].split(",")[1])
            assert math.isfinite(loss) and loss > 0, text
