"""fabflow end-to-end benchmark.

    python3 perfbench/run.py --workload plan|dispatch|queries --seed N \
        --seconds S --trace 0|1

One caller asks the workload's fixed, seeded list of questions in a closed
loop (each question starts when the previous one has answered), in one
process with BLAS pinned to one thread.  The list is asked again, round
after round, until the next round would end after ``--seconds``; at least
one round always runs.  Every answer is checked (see verify.py) and every
repeat must reproduce its first answer exactly.  Every time is scaled to
the reference machine speed by kernel samples taken while fabflow is
paused (see speed.py).

``--trace 0`` reports the end-to-end metrics of untraced rounds.
``--trace 1`` alternates untraced and traced rounds and reports per-layer
metrics of the traced ones (per round), plus the tracing overhead.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  Details (environment, input digests, the tail percentile and its
sample count, known-crash probes) go to the lines before it and to
``.perfbench_work/<workload>-<seed>-<trace>/result.json``; traced runs also
write their spans there as ``spans.csv``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import boot
from speed import SpeedSampler

SETUP_REPEATS = 9
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import fabflow, fabflow.cli, fabflow.scenario, fabflow.netflow, fabflow.queueing\n"
    "import fabflow.simplex, fabflow.robust_planner, fabflow.scheduler\n"
    "print(time.perf_counter() - t0)\n"
    "print(fabflow.__file__)\n"
)
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}


# --- statistics ------------------------------------------------------------------

def tail_latency(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile with ten samples beyond it.

    The value is the sample of rank n - 10 in ascending order, so exactly
    ten samples lie beyond it; its percentile is 100 (n - 10) / n.  With
    fewer than 11 samples no percentile qualifies and the maximum is
    reported as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n, n


# --- environment -----------------------------------------------------------------

def _git_sha() -> str:
    head = boot.ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        target = boot.ROOT / ".git" / ref[5:]
        if target.is_file():
            return target.read_text(encoding="utf-8").strip()
        return "unavailable (packed ref)"
    return ref


def source_digest() -> str:
    """SHA-256 over the fabflow sources and fixtures, in path order."""
    h = hashlib.sha256()
    pkg = boot.SRC / "fabflow"
    for path in sorted(p for p in pkg.rglob("*") if p.suffix in (".py", ".json")):
        h.update(str(path.relative_to(pkg)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older NumPy has no dict mode
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in boot.THREAD_ENV},
        "git_sha": _git_sha(),
        "source_digest": source_digest(),
    }


# --- measurement -----------------------------------------------------------------

def measure_setup() -> tuple[float, list[float]]:
    """Seconds to import fabflow and its layers in fresh interpreters.

    Each interpreter's import time is scaled to the reference machine speed
    by the kernel samples taken around it (see speed.py), while no
    interpreter runs.  Returns the median of the scaled times and
    the raw samples.
    """
    sampler = SpeedSampler()
    raw, when = [], []
    for _ in range(SETUP_REPEATS):
        sampler.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            capture_output=True,
            text=True,
            env=boot.child_env(),
            cwd=boot.ROOT,
            timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import in a fresh interpreter failed:\n{proc.stderr}")
        seconds, origin = proc.stdout.split("\n")[:2]
        if Path(origin).resolve().parent != boot.SRC / "fabflow":
            raise RuntimeError(f"fresh interpreter imported fabflow from {origin}")
        raw.append(float(seconds))
        when.append((t0, time.perf_counter()))
    sampler.sample()
    return statistics.median(r * sampler.factor(*w) for r, w in zip(raw, when)), raw


class Round:
    def __init__(self, traced: bool):
        self.traced = traced
        self.times: list[float] = []   # raw seconds per question
        self.when: list[tuple[float, float]] = []
        self.scaled: list[float] = []  # seconds at the reference machine speed
        self.answers: list = []        # answer, or the exception text
        self.crashed: list[bool] = []
        self.cpu = 0.0

    @property
    def wall(self) -> float:
        return sum(self.times)

    @property
    def scaled_wall(self) -> float:
        return sum(self.scaled)


def ask_round(questions, sampler, tracer=None) -> Round:
    rnd = Round(tracer is not None)
    if tracer is not None:
        tracer.install()
    try:
        for q in questions:
            if tracer is not None:
                tracer.qid = q.qid
            c0, s0, t0 = time.process_time(), sampler.stolen, time.perf_counter()
            try:
                answer, crashed = q.ask(), False
            except Exception as exc:  # a crash is a failed question, not a harness error
                answer, crashed = f"{type(exc).__name__}: {exc}", True
            t1 = time.perf_counter()
            stolen = sampler.stolen - s0
            rnd.cpu += time.process_time() - c0 - stolen
            rnd.times.append(t1 - t0 - stolen)
            rnd.when.append((t0, t1))
            rnd.answers.append(answer)
            rnd.crashed.append(crashed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return rnd


def run_rounds(questions, seconds: float, tracer=None) -> tuple[list[Round], SpeedSampler]:
    """Closed loop until the next round (or traced pair) would overrun `seconds`."""
    rounds: list[Round] = []
    sampler = SpeedSampler()
    sampler.sample()
    sampler.start()
    try:
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            rounds.append(ask_round(questions, sampler))
            if tracer is not None:
                rounds.append(ask_round(questions, sampler, tracer))
            now = time.perf_counter()
            if now - start + (now - t0) > seconds:
                break
    finally:
        sampler.stop()
    sampler.sample()
    for rnd in rounds:
        rnd.scaled = [dt * sampler.factor(a, b) for dt, (a, b) in zip(rnd.times, rnd.when)]
    return rounds, sampler


def check_answers(workload, rounds: list[Round]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every question instance of every round."""
    reasons = []
    verdicts = []
    first = rounds[0]
    for i, q in enumerate(workload.questions):
        if first.crashed[i]:
            verdicts.append(None)
            reasons.append(f"{q.qid}: crashed: {first.answers[i]}")
            continue
        try:
            reason = q.check(first.answers[i])
        except Exception as exc:  # an answer the checker cannot read is a wrong answer
            reason = f"unreadable answer ({type(exc).__name__}: {exc})"
        if reason:
            reasons.append(f"{q.qid}: {reason}")
        verdicts.append((reason is None, q.fingerprint(first.answers[i])))
    joint_ok = True
    for name, fn in workload.joint_checks.items():
        try:
            reason = fn()
        except Exception as exc:  # as for single answers: unreadable means wrong
            reason = f"unreadable answers ({type(exc).__name__}: {exc})"
        if reason:
            joint_ok = False
            reasons.append(f"{name}: {reason}")
    attempted = failed = 0
    for rnd in rounds:
        for i, q in enumerate(workload.questions):
            attempted += 1
            v = verdicts[i]
            ok = (
                v is not None
                and v[0]
                and joint_ok
                and not rnd.crashed[i]
                and q.fingerprint(rnd.answers[i]) == v[1]
            )
            if not ok:
                failed += 1
                if v is not None and v[0] and joint_ok:
                    reasons.append(f"{q.qid}: repeat differs from the first answer")
    return attempted, failed, reasons


def run_probes(probes) -> dict[str, str]:
    """Outcome per probe: "as expected", "crash <exception>" or "mismatch: <reason>"."""
    out = {}
    for q in probes:
        try:
            answer = q.ask()
        except Exception as exc:
            out[q.qid] = f"crash {type(exc).__name__}"
            continue
        try:
            reason = q.check(answer)
        except Exception as exc:  # as for questions: unreadable means wrong
            reason = f"unreadable answer ({type(exc).__name__})"
        out[q.qid] = f"mismatch: {reason}" if reason else "as expected"
    return out


# --- metrics ----------------------------------------------------------------------

def question_medians(questions, rounds: list[Round]) -> dict[str, float]:
    """Median seconds per question, at the reference machine speed."""
    return {q.qid: statistics.median(r.scaled[i] for r in rounds) for i, q in enumerate(questions)}


def end_to_end(questions, rounds: list[Round], setup, sampler) -> tuple[dict, dict]:
    samples = [t for r in rounds for t in r.scaled]
    tail, pct, n = tail_latency(samples)
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    values = {
        "setup_s": setup[0],
        "wall_s": statistics.median(r.scaled_wall for r in rounds),
        "latency_p50_s": statistics.median(samples),
        "latency_tail_s": tail,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    detail = {
        "rounds": len(rounds),
        "questions": len(samples),
        "raw_wall_s": statistics.median(r.wall for r in rounds),
        "round_wall_s": [r.wall for r in rounds],
        "round_scaled_wall_s": [r.scaled_wall for r in rounds],
        "round_cpu_s": [r.cpu for r in rounds],
        "speed_kernel_s": sampler.summary(),
        "question_median_s": question_medians(questions, rounds),
        "latency_tail_percentile": pct,
        "latency_tail_samples": n,
        "setup_samples_s": setup[1],
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, detail


def per_layer(rounds: list[Round], tracer, summary: dict, crashed_probes: int) -> dict:
    from spans import TASK_TYPES, descendants_per_call, layer_totals

    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    k = len(traced)
    out: dict[str, tuple[float, str]] = {}
    totals = layer_totals(tracer.spans)
    for name, rec in totals.items():
        out[f"{name}.calls"] = (rec["calls"] / k, "count")
        out[f"{name}.total_s"] = (rec["total_s"] / k, "s")
        out[f"{name}.self_s"] = (rec["self_s"] / k, "s")
    c = tracer.counters
    rows = c["queueing.wip_totals_batch.rows"]
    cands = c["robust_planner.plan_fleet.candidates"]
    out["queueing.wip_totals_batch.rows"] = (rows / k, "count")
    out["queueing.wip_totals_batch.stable_frac"] = (
        c["queueing.wip_totals_batch.stable_rows"] / rows if rows else 0.0, "ratio")
    out["robust_planner.plan_fleet.candidates"] = (cands / k, "count")
    out["robust_planner.plan_fleet.feasible_frac"] = (
        c["robust_planner.plan_fleet.feasible"] / cands if cands else 0.0, "ratio")
    per_call = descendants_per_call(
        tracer.spans,
        "robust_planner.worst_case_direction",
        ("simplex.project_capped_simplex", "queueing.wip_gradient"),
    )
    out["robust_planner.worst_case_direction.projections_per_call"] = (
        per_call["simplex.project_capped_simplex"], "count")
    out["robust_planner.worst_case_direction.gradients_per_call"] = (
        per_call["queueing.wip_gradient"], "count")
    for method in ("ga", "sa", "aco"):
        for t in TASK_TYPES:
            key = f"scheduler.{method}_optimize.type_{t}_s"
            out[key] = (tracer.type_s.get(key, 0.0) / k, "s")
    ga_calls = totals["scheduler.ga_optimize"]["calls"]
    out["scheduler.ga_optimize.front_size"] = (
        c["scheduler.ga_optimize.front_members"] / ga_calls if ga_calls else 0.0, "count")
    mcf_calls = totals["netflow.min_cost_flow"]["calls"]
    out["netflow.min_cost_flow.edges"] = (
        c["netflow.min_cost_flow.edges"] / mcf_calls if mcf_calls else 0.0, "count")
    out["scenario.emit_report.bytes"] = (c["scenario.emit_report.bytes"] / k, "bytes")
    for key in ("ga_after_hours", "sa_after_hours", "aco_after_hours", "ga_after_cost"):
        out[f"scheduler.benchmark.{key}"] = (summary.get(key, 0.0), "h" if "hours" in key else "cost")
    out["run.known_crash_probes"] = (crashed_probes, "count")
    out["run.cpu_s"] = (statistics.median(r.cpu for r in plain), "s")
    # the first round also pays one-off warm-up; leave it out when others exist
    warm = plain[1:] or plain
    out["run.tracing_overhead_frac"] = (
        statistics.median(r.scaled_wall for r in traced)
        / statistics.median(r.scaled_wall for r in warm) - 1.0,
        "ratio")
    return {name: {"value": v, "unit": u} for name, (v, u) in out.items()}


# --- entry point ------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        boot.bootstrap()
    except boot.MissingSources as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = boot.WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup = measure_setup()
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    rounds, sampler = run_rounds(workload.questions, args.seconds, tracer)
    attempted, failed, reasons = check_answers(workload, rounds)
    probes = run_probes(workload.probes)
    summary = workload.summary() if failed == 0 else {}

    inputs_digest = hashlib.sha256(json.dumps(workload.inputs).encode()).hexdigest()
    crashed_probes = sum(v != "as expected" for v in probes.values())
    if args.trace:
        metrics = per_layer(rounds, tracer, summary, crashed_probes)
        detail = {"rounds": len(rounds), "spans": len(tracer.spans)}
        tracer.write(work / "spans.csv")
    else:
        metrics, detail = end_to_end(workload.questions, rounds, setup, sampler)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "inputs": workload.inputs,
        "inputs_digest": inputs_digest,
        "detail": detail,
        "failed_frac": failed / attempted,
        "failures": reasons,
        "known_crash_probes": probes,
        "dispatch_aggregates": summary,
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} inputs_digest={inputs_digest}")
    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"failed_frac={failed / attempted:.6g} base={attempted} (questions attempted)")
    for reason in reasons[:20]:
        print(f"FAILED {reason}")
    if not args.trace:
        print(
            f"latency_tail_s is the p{detail['latency_tail_percentile']:.2f} "
            f"of {detail['latency_tail_samples']} questions over {detail['rounds']} round(s)"
        )
    if probes:
        print(f"known-crash probes (outside the timed loop): {crashed_probes}/{len(probes)} not as expected: "
              + " ".join(f"{k}={v.replace(' ', '_')}" for k, v in probes.items()))
    for key, val in summary.items():
        print(f"{key}={val!r}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
