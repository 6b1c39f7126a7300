"""Span recorder for the traced run.

``Tracer.install()`` wraps the public layer functions listed in TRACED with
recorders and ``Tracer.uninstall()`` puts the originals back; the fabflow
sources are never edited.  A wrapped function is replaced wherever a
fabflow module holds a reference to it (``from .x import f`` bindings
included), so calls between layers are traced too.

A span is (name index, start, end, parent span index, question id), kept
in memory and written out by ``write``.  Self time is a span's duration
minus the durations of its direct children.  Counters observed from
arguments and return values sit next to the spans.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path

TRACED = (
    ("cli", "main"),
    ("scenario", "scenario_from_dict"),
    ("scenario", "scenario_digest"),
    ("scenario", "emit_report"),
    ("netflow", "build_network"),
    ("netflow", "max_flow"),
    ("netflow", "min_cut"),
    ("netflow", "min_cost_flow"),
    ("queueing", "wip"),
    ("queueing", "wip_totals_batch"),
    ("queueing", "wip_gradient"),
    ("queueing", "check_monotonicity"),
    ("queueing", "steepest_feasible_direction"),
    ("simplex", "project_capped_simplex"),
    ("simplex", "halton_simplex"),
    ("robust_planner", "plan_fleet"),
    ("robust_planner", "worst_case_direction"),
    ("robust_planner", "check_constraints"),
    ("scheduler", "benchmark"),
    ("scheduler", "ga_optimize"),
    ("scheduler", "sa_optimize"),
    ("scheduler", "aco_optimize"),
)
NAMES = tuple(f"{m}.{f}" for m, f in TRACED)
TASK_TYPES = "ABCDE"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.qid = ""
        self.counters: dict[str, float] = defaultdict(float)
        self.type_s: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, idx: int, name: str, fn):
        spans, stack = self.spans, self.stack
        observe = getattr(self, "_observe_" + name.replace(".", "__"), None)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[me] = (idx, t0, t1, parent, self.qid)
            if observe is not None:
                observe(args, kwargs, result, t1 - t0)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import importlib

        for idx, (mod_name, fn_name) in enumerate(TRACED):
            mod = importlib.import_module(f"fabflow.{mod_name}")
            original = getattr(mod, fn_name)
            wrapper = self._wrap(idx, NAMES[idx], original)
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "fabflow" or name.startswith("fabflow.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # --- counters observed from arguments and return values ---------------------

    def _observe_queueing__wip_totals_batch(self, args, kwargs, result, dt):
        _, stable = result
        self.counters["queueing.wip_totals_batch.rows"] += len(stable)
        self.counters["queueing.wip_totals_batch.stable_rows"] += int(stable.sum())

    def _observe_robust_planner__plan_fleet(self, args, kwargs, result, dt):
        self.counters["robust_planner.plan_fleet.candidates"] += len(result.examined)
        self.counters["robust_planner.plan_fleet.feasible"] += sum(o.feasible for o in result.examined)

    def _observe_netflow__min_cost_flow(self, args, kwargs, result, dt):
        self.counters["netflow.min_cost_flow.edges"] += len(args[0].edges)

    def _observe_scenario__emit_report(self, args, kwargs, result, dt):
        self.counters["scenario.emit_report.bytes"] += sum(Path(p).stat().st_size for p in result)

    def _observe_scheduler__ga_optimize(self, args, kwargs, result, dt):
        self.counters["scheduler.ga_optimize.front_members"] += len(result.members)
        self.type_s[f"scheduler.ga_optimize.type_{args[0].tasks[0].task_type.value}_s"] += dt

    def _observe_scheduler__sa_optimize(self, args, kwargs, result, dt):
        self.type_s[f"scheduler.sa_optimize.type_{args[0].tasks[0].task_type.value}_s"] += dt

    def _observe_scheduler__aco_optimize(self, args, kwargs, result, dt):
        self.type_s[f"scheduler.aco_optimize.type_{args[0].tasks[0].task_type.value}_s"] += dt

    # --- reduction --------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as CSV: name,start_s,end_s,parent,question (times from the first span)."""
        t_base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,question\n")
            for idx, t0, t1, parent, qid in self.spans:
                fh.write(f"{NAMES[idx]},{t0 - t_base:.9f},{t1 - t_base:.9f},{parent},{qid}\n")


def layer_totals(spans) -> dict[str, dict[str, float]]:
    child_time = [0.0] * len(spans)
    for idx, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in NAMES}
    for i, (idx, t0, t1, _, _) in enumerate(spans):
        rec = out[NAMES[idx]]
        rec["calls"] += 1
        rec["total_s"] += t1 - t0
        rec["self_s"] += (t1 - t0) - child_time[i]
    return out


def descendants_per_call(spans, ancestor: str, names: tuple[str, ...]) -> dict[str, float]:
    anc = NAMES.index(ancestor)
    wanted = {NAMES.index(n): n for n in names}
    counts = {n: 0 for n in names}
    calls = 0
    # a span's nearest `ancestor`-named ancestor; spans come parent-first
    owner = [-1] * len(spans)
    for i, (idx, _, _, parent, _) in enumerate(spans):
        if idx == anc:
            calls += 1
            owner[i] = i
        elif parent >= 0:
            owner[i] = owner[parent]
        if idx in wanted and owner[i] >= 0 and owner[i] != i:
            counts[wanted[idx]] += 1
    return {n: (c / calls if calls else 0.0) for n, c in counts.items()}
