"""Run a workload on several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload plan --seeds 1,2,3,4,5

Each run measures BENCHMARK.json's ``run_seconds``.  Spread is the
inter-quartile distance of the per-seed values, as
``statistics.quantiles(values, n=4)`` gives them, over their median; a
metric is steady when its spread is well inside its bound in
BENCHMARK.json.  Runs are sequential and each one's last stdout line is
kept under ``.perfbench_work/spread-<workload>.jsonl``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = ROOT / ".perfbench_work" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in args.seeds.split(","):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", seed, "--seconds", str(seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": int(seed), **last}) + "\n")
        print(seed, last["correct"], last["attempted"], last["failed"],
              " ".join(f"{k}={v['value']:.5g}" for k, v in last["metrics"].items()), flush=True)
        for name in values:
            values[name].append(last["metrics"][name]["value"])
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name}: median={statistics.median(vals):.6g} spread={(q3 - q1) / statistics.median(vals):.4f}"
              f" bound={bounds[name]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
