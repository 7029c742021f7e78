"""Regenerate the checkpoint that the ``ladder`` workload evaluates.

Trains criterion 6's configuration (``_train(seed=0, epochs=40)`` in the
acceptance battery) on the canonical seed-0 dataset and writes
``fixtures/ladder.lpc`` plus ``fixtures/ladder.json``, which records the
checkpoint's sha256, this command and the four ladder scores at seed 0.
Training is deterministic, so a rerun at the same source revision writes the
same bytes. Run from the repository root:

    python3 perfbench/make_fixture.py
"""

from __future__ import annotations

import hashlib
import json
import shutil

import common

COMMAND = "python3 perfbench/make_fixture.py"
EPOCHS = 40


def main() -> int:
    common.import_leopart()
    from leopart import pipeline, synth, tensor_io, training

    data_dir = common.WORK / "fixture_data"
    shutil.rmtree(data_dir, ignore_errors=True)
    manifest, _ = synth.generate(synth.SynthSpec(seed=0), data_dir)
    ckpt, _ = training.train(manifest, common.acceptance_train_config(seed=0, epochs=EPOCHS))
    common.FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    tensor_io.save_checkpoint(ckpt, common.FIXTURE)

    params = {k.removeprefix("student/"): v for k, v in ckpt.tensors.items()
              if k.startswith("student/")}
    ladder = pipeline.run_ladder(pipeline.load_dataset(manifest), params,
                                 overcluster_k=20, cbfe_threshold=0.35, seed=0)
    info = {
        "sha256": hashlib.sha256(common.FIXTURE.read_bytes()).hexdigest(),
        "command": COMMAND,
        "train": f"acceptance config, seed 0, {EPOCHS} epochs, canonical seed-0 dataset",
        "ladder_seed0": ladder.as_dict(),
    }
    common.FIXTURE_INFO.write_text(json.dumps(info, indent=2) + "\n")
    shutil.rmtree(data_dir)
    print(json.dumps(info, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
