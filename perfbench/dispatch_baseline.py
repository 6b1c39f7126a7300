"""Record per-seed dispatch quality of the current sources.

    python3 perfbench/dispatch_baseline.py

Runs ``scheduler.benchmark`` on ``table1_bench`` for each seed of
``gen.DISPATCH_POOL``, the pool the ``dispatch`` workload draws from, with
the scenario's own parameters, and writes the per-(method, task type)
after-hours and after-cost to ``perfbench/dispatch_baseline.json``.  The
dispatch check compares every timed run against this file, so a change that
moves seeded trajectories cannot buy speed with a worse dispatch.
Regenerate it only on the commit whose quality is the reference, and say so
in the change log.
"""
from __future__ import annotations

import json
from pathlib import Path

import boot
import gen

OUT = Path(__file__).resolve().parent / "dispatch_baseline.json"


def per_seed_rows(scenario, seed: int) -> dict:
    from fabflow import scheduler

    table = scheduler.benchmark(
        scenario,
        [seed],
        scenario.metaheuristic.ga,
        scenario.metaheuristic.sa,
        scenario.metaheuristic.aco,
    )
    out: dict = {}
    for row in table.rows:
        out.setdefault(row.method, {})[row.task_type] = [row.after_hours, row.after_cost]
    return out


def main() -> int:
    boot.bootstrap()
    from fabflow.scenario import load_fixture, scenario_digest

    scenario = load_fixture("table1_bench")
    doc = {
        "scenario": "table1_bench",
        "scenario_digest": scenario_digest(scenario),
        "seeds": {},
    }
    for seed in gen.DISPATCH_POOL:
        doc["seeds"][str(seed)] = per_seed_rows(scenario, seed)
        print(f"seed {seed} done", flush=True)
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
