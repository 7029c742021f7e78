"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/measure.py --workloads train ladder cli_k150 --seeds 0-9 \
        --out perfbench/baseline.json
    python3 perfbench/measure.py --workloads train ladder cli_k150 --seeds 0-1 \
        --trace 1 --out perfbench/baseline.json

Runs ``run.py`` once per workload and seed, one run at a time, and prints,
for every metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median.
Each workload's summary goes into the JSON file ``--out`` under
``end_to_end`` (``--trace 0``) or ``per_layer`` (``--trace 1``); entries
already in the file for other workloads are kept. ``baseline.json`` in this
directory was made by the two commands above.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def dump(obj) -> str:
    """JSON with one key per line and each list of numbers on one line."""
    text = json.dumps(obj, indent=1)
    return re.sub(r"\[([^\[\]{}]*)\]", lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  text) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((common.ROOT / "BENCHMARK.json").read_text())
                        ["run_seconds"])
    parser.add_argument("--out", type=Path, default=common.WORK / "measure.json")
    args = parser.parse_args()

    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    summary = out.setdefault("end_to_end" if args.trace == 0 else "per_layer", {})
    for workload in args.workloads:
        runs, walls = [], []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=common.ROOT, capture_output=True, text=True, timeout=600)
            walls.append(time.perf_counter() - t0)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
            for line in lines:
                if line.startswith("environment "):
                    out["environment"] = json.loads(line.split(" ", 1)[1])
            runs.append(result)
            print(f"{workload} seed {seed}: {walls[-1]:.1f} s, exit {proc.returncode}, "
                  f"correct {result['correct']}", flush=True)
        names = runs[0]["metrics"].keys()
        summary[workload] = {
            "seeds": args.seeds,
            "seconds": args.seconds,
            "all_correct": all(r["correct"] for r in runs),
            "run_wall_s": summarise(walls),
            "metrics": {n: summarise([r["metrics"][n]["value"] for r in runs]) for n in names},
        }
        for name, s in summary[workload]["metrics"].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {workload:<9} {name:<40} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {spread}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(dump(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
