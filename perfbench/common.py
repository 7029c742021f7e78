"""Shared set-up for the benchmark scripts.

Importing this module pins the BLAS/OpenMP thread pools to one thread before
numpy is loaded, and makes ``leopart`` importable from the ``src`` directory
of the checkout this file lives in. It raises ``BenchSetupError`` when that
source tree is missing, so the benchmark never measures some other copy of
the package.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
FIXTURE = BENCH_DIR / "fixtures" / "ladder.lpc"
FIXTURE_INFO = BENCH_DIR / "fixtures" / "ladder.json"


class BenchSetupError(RuntimeError):
    """The checkout cannot be benchmarked (no sources, bad fixture)."""


def import_leopart():
    """Import ``leopart`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "leopart" / "__init__.py").is_file():
        raise BenchSetupError(f"no leopart sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import leopart
    import leopart.cli  # noqa: F401  (cli imports every layer module)

    origin = Path(leopart.__file__).resolve()
    if SRC not in origin.parents:
        raise BenchSetupError(f"leopart imported from {origin}, not from {SRC}")
    return leopart


def acceptance_train_config(seed: int, epochs: int):
    """The acceptance-battery training config (criterion 6's ``_train``)."""
    from leopart import training

    return training.TrainConfig(
        epochs=epochs, batch_size=16, n_prototypes=8, queue_capacity=512,
        hidden_dim=64, out_dim=32, global_grid=5, local_grid=3, align_size=5,
        lr_head=1e-3, lr_encoder=1e-4, seed=seed, fg_masking="fg")
