"""Benchmark runner: set-up, timed passes under a wall budget, checks, metrics.

Load shape: a closed loop. One process runs one solve at a time; a pass runs
every config of the workload once on the instance built during set-up.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace

import numpy as np
import scipy

from tensoropt import harness
from tensoropt.policies import AccuracyPolicy

from tracing import LAYERS, Tracer, aggregate, layer_self_s
from workloads import WORKLOADS

TARGETS = (1e-4, 1e-6, 1e-8)
COST_METRICS = ("iters_to_1e-8", "hvp_to_1e-4", "hvp_to_1e-6", "hvp_to_1e-8", "grad_to_1e-8")
END_TO_END_UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    **{name: "count" for name in COST_METRICS}}
GAP_TOL = 1e-8        # allowed |F_final - F*| for a healthy solve
SETUP_SLICE_S = 0.1   # set-up timing between passes: at least one build, this long


class BudgetExceeded(BaseException):
    """Raised from the SIGALRM handler when a solve outlives its wall budget.

    A BaseException, so that no ``except Exception`` inside the library or
    its dependencies can swallow it.
    """


def _expire(signum, frame):
    raise BudgetExceeded


@contextmanager
def wall_budget(seconds: float):
    """Interrupt the block after ``seconds`` of wall time, in this thread."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextmanager
def iteration_marks(marks: list):
    """Append a timestamp to ``marks`` whenever an accuracy policy is queried.

    Every method queries its policy once per outer iteration (the accelerated
    scheme also once per inner step), so the marks cut a solve into the same
    short segments on every pass.
    """
    raw = AccuracyPolicy.__dict__["delta"]
    clock = time.perf_counter

    def delta(self, *args, **kwargs):
        marks.append(clock())
        return raw(self, *args, **kwargs)

    AccuracyPolicy.delta = delta
    try:
        yield
    finally:
        AccuracyPolicy.delta = raw


@dataclass
class Solve:
    cfg: harness.ExperimentConfig
    run: object            # SolverRun, or None when the solve did not return
    wall_s: float          # the solve and its persistence
    failure: str | None    # budget | error | gap | status | nondeterministic
    segments: np.ndarray | None = None  # seconds between iteration marks (untraced passes)


def wrong_output(wl, s: Solve) -> bool:
    """Whether a solve's failure makes the run incorrect.

    Every failure of a counted config does. The uncounted stall repro may stop
    short (budget, status or gap) without that, but an error or a trace that
    differs between passes is a wrong output on any config.
    """
    return s.failure is not None and (wl.counted(s.cfg)
                                      or s.failure in ("error", "nondeterministic"))


def cost_to_gap(records, fstar: float, target: float):
    """(iterations, HVPs, gradients) at the first record with F - fstar <= target, else None."""
    for r in records:
        if r.F - fstar <= target:
            return r.k, r.hvp_count, r.grad_count
    return None


def pass_costs(solves, fstar: float, counted) -> dict:
    """Cost-to-gap totals over the pass's successful, counted solves.

    The gap is measured against the smallest objective seen (the known or
    reference optimum, or any run's best value), as gate 10 does. A counted
    solve that never reaches a target is marked failed.
    """
    fs = min([fstar] + [r.F for s in solves if s.run is not None for r in s.run.records])
    totals = dict.fromkeys(COST_METRICS, 0)
    for s in solves:
        if s.failure or not counted(s.cfg):
            continue
        costs = [cost_to_gap(s.run.records, fs, t) for t in TARGETS]
        if any(c is None for c in costs):
            s.failure = "gap"
            continue
        (_, hvp4, _), (_, hvp6, _), (it8, hvp8, grad8) = costs
        for name, v in zip(COST_METRICS, (it8, hvp4, hvp6, hvp8, grad8)):
            totals[name] += v
    return totals


def check_solves(wl, solves, fstar: float, traces: list, first_traces: dict) -> None:
    """Mark missed optima, wrong statuses and traces that differ from the first pass.

    The optimum is checked first, whatever the status, so a solve that stops
    far from F* is always marked "gap".
    """
    for i, (s, data) in enumerate(zip(solves, traces)):
        if s.failure:
            continue
        if abs(s.run.f_final - fstar) > GAP_TOL:
            s.failure = "gap"
        elif s.run.status not in wl.expected_status:
            s.failure = "status"
        elif first_traces.setdefault(i, data) != data:
            s.failure = "nondeterministic"


def run_pass(wl, problem, x0, configs, out_dir, tracer=None):
    """One solve per config, each persisted like ``harness.run_experiment`` does.

    An untraced pass also records each solve's segments between iteration
    marks. Returns (solves, wall seconds).
    """
    solves, marks = [], []
    t_pass = time.perf_counter()
    with nullcontext() if tracer is not None else iteration_marks(marks):
        for i, cfg in enumerate(configs):
            del marks[:]
            t0 = time.perf_counter()
            run, failure = None, None
            try:
                with wall_budget(wl.budget_s):
                    run = harness.METHOD_TABLE[cfg.method](problem, x0, harness.solver_config(cfg))
            except BudgetExceeded:
                failure = "budget"
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failure = "error"
            if failure and tracer is not None:
                tracer.heal()
            if run is not None:
                d = os.path.join(out_dir, f"config{i}")
                os.makedirs(d, exist_ok=True)
                harness.write_trace_csv(os.path.join(d, "trace.csv"), run.records)
                source = "known" if run.fstar is not None else "reference"
                harness.write_json(os.path.join(d, "summary.json"),
                                   harness.summarize(run, cfg, source))
            t1 = time.perf_counter()
            segments = None if tracer is not None else np.diff([t0, *marks, t1])
            solves.append(Solve(cfg, run, t1 - t0, failure, segments))
    return solves, time.perf_counter() - t_pass


def charged_s(wl, solves, wall: float) -> float:
    """A pass's wall time with every failed solve charged the full budget."""
    return wall + sum(wl.budget_s - s.wall_s for s in solves if s.failure)


def pass_time(wl, passes: list) -> float:
    """Seconds for one pass: per-segment minima over the untraced passes.

    A config that failed in any pass is charged the full budget. Otherwise
    each segment between its iteration marks costs the least time it took in
    any pass, and the config costs the sum. A segment lasts at most about a
    tenth of a second, so its minimum comes from a moment when the machine ran
    at full speed; the speed of a shared host drifts over seconds and minutes,
    which a median of whole passes follows. Should the mark counts differ between passes, the
    config costs its median solve time instead.
    """
    total = 0.0
    for runs in zip(*passes):              # one config's solves, one per pass
        if any(s.failure for s in runs):
            total += wl.budget_s
        elif len({s.segments.size for s in runs}) > 1:
            total += statistics.median(s.wall_s for s in runs)
        else:
            total += float(np.min([s.segments for s in runs], axis=0).sum())
    return total


def build(wl, seed: int):
    """Set-up: the instance, its start, and F* (known, or a fresh reference solve)."""
    configs = wl.configs(seed)
    cfg = configs[0]
    problem = harness.build_problem(cfg.problem, cfg.seed)
    x0 = harness.starting_point(cfg.x0, problem.dim, cfg.seed)
    if cfg.subsolver == "exact":
        # The exact step's eigendecomposition of the norm is computed on first
        # use and cached on the instance: set-up pays for it, not a pass.
        problem.norm.inv_sqrt_apply(x0)
    if wl.reference:
        fstar, _ = harness.reference_fstar(cfg)
    else:
        fstar = problem.known_optimum[1]
    return configs, problem, x0, fstar


def read_traces(out_dir, solves) -> list:
    out = []
    for i, s in enumerate(solves):
        if s.run is None:
            out.append(None)
            continue
        with open(os.path.join(out_dir, f"config{i}", "trace.csv"), "rb") as fh:
            out.append(fh.read())
    return out


def dir_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict, stats: dict, solves, wall: float) -> dict:
    """Per-layer metrics of one traced pass (times are self times)."""
    def calls(n):
        return agg[n][0]

    def self_s(n):
        return agg[n][1]

    runs = [s.run for s in solves if s.run is not None]
    outer = sum(r.records[-1].k for r in runs)
    accel_outer = sum(r.records[-1].k for r in runs if r.method == "accelerated")
    ratios = [r.delta_certified / r.delta_requested for run in runs for r in run.records
              if r.delta_certified is not None and r.delta_requested]
    layers = layer_self_s(agg)
    m = {}
    for op in ("hvp", "grad", "value", "hessian"):
        m[f"problems.{op}_calls"] = calls(f"problems.{op}")
        m[f"problems.{op}_s"] = self_s(f"problems.{op}")
    m.update({
        "linalg.solve_calls": calls("linalg.solve"),
        "linalg.solve_s": self_s("linalg.solve"),
        "linalg.norm_calls": calls("linalg.norm"),
        "linalg.norm_s": self_s("linalg.norm"),
        "linalg.apply_s": self_s("linalg.apply"),
        "linalg.inv_sqrt_calls": calls("linalg.inv_sqrt"),
        "linalg.inv_sqrt_s": self_s("linalg.inv_sqrt"),
        "model.builds": calls("model.build"),
        "model.build_s": self_s("model.build"),
        "model.value_calls": calls("model.value"),
        "model.value_s": self_s("model.value"),
        "model.grad_calls": calls("model.grad"),
        "model.grad_s": self_s("model.grad"),
        "model.hvp_per_inner": _ratio(calls("problems.hvp"), stats["inner_iters"]),
        "subsolvers.fgm_calls": calls("subsolvers.fgm"),
        "subsolvers.fgm_s": self_s("subsolvers.fgm"),
        "subsolvers.inner_iters": stats["inner_iters"],
        "subsolvers.exact_calls": calls("subsolvers.exact"),
        "subsolvers.exact_s": self_s("subsolvers.exact"),
        "subsolvers.refine_ratio": _ratio(calls("subsolvers.solve_model"),
                                          calls("subsolvers.monotone_step")),
        "subsolvers.stalls": stats["stalls"],
        "policies.delta_min": stats["delta_min"] if math.isfinite(stats["delta_min"]) else 0.0,
        "policies.cert_ratio": statistics.median(ratios) if ratios else 0.0,
        "methods.outer_iters": outer,
        "methods.solves_per_iter": _ratio(calls("subsolvers.solve_model"), outer),
        "accel.subproblems": calls("accel.build"),
        "accel.build_s": self_s("accel.build"),
        "accel.cert_calls": calls("accel.cert"),
        "accel.cert_s": self_s("accel.cert"),
        "accel.steps_per_outer": _ratio(calls("subsolvers.monotone_step"), accel_outer),
        "harness.write_s": self_s("harness.write"),
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layers[layer]
    m["trace.coverage"] = sum(layers.values()) / wall
    return m


def setup_layer_metrics(agg: dict) -> dict:
    return {
        "problems.build_s": agg["problems.build"][1],
        # the set-up's one inv_sqrt_apply call computes the eigendecomposition
        "linalg.factor_s": agg["linalg.factor"][1] + agg["linalg.inv_sqrt"][1],
        # the reference solve's whole cost, children included
        "harness.reference_s": agg["harness.reference"][2],
    }


def _medians(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def git_commit(root) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' elsewhere."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root, wl, seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(root),
        "seed": seed,
        "instance_seed": wl.instance_seed(seed),
        "load": "closed loop: one process, one solve at a time",
    }


def measure(name: str, seed: int, seconds: float, trace: bool, root, out_root) -> dict:
    """Run one workload; returns the result record (metrics, counts, environment)."""
    wl = WORKLOADS[name]
    tracer = Tracer() if trace else None
    setup_times, setup_rows, segments = [], [], []
    untraced, traced = [], []          # charged seconds with cost totals / per-layer rows
    untraced_solves = []               # per untraced pass, its solves without their runs
    first_traces: dict = {}
    failures, attempted, wrong = [], 0, 0

    def timed_build():
        if tracer is None:
            t0 = time.perf_counter()
            built = build(wl, seed)
            setup_times.append(time.perf_counter() - t0)
            return built
        with tracer.installed():
            tracer.begin()
            t0 = time.perf_counter()
            built = build(wl, seed)
            setup_times.append(time.perf_counter() - t0)
            seg = tracer.snapshot()
        setup_rows.append(setup_layer_metrics(aggregate(seg, tracer.span_names)))
        segments.append(("setup", seg))
        return built

    with tempfile.TemporaryDirectory(dir=out_root) as out_dir:
        # The passes use the first (cold) build. Further builds are timed
        # between passes, so that the set-up median samples the same machine
        # conditions as the passes do.
        configs, problem, x0, fstar = timed_build()
        min_passes = 4 if trace else 3     # with --trace: alternating untraced/traced
        deadline = time.perf_counter() + seconds
        i = 0
        while i < min_passes or time.perf_counter() < deadline:
            t_slice = time.perf_counter() + SETUP_SLICE_S
            timed_build()
            while time.perf_counter() < t_slice:
                timed_build()
            gc.collect()
            with_trace = trace and i % 2 == 1
            if with_trace:
                with tracer.installed():
                    tracer.begin()
                    solves, wall = run_pass(wl, problem, x0, configs, out_dir, tracer)
                    seg = tracer.snapshot()
                segments.append(("pass", seg))
            else:
                solves, wall = run_pass(wl, problem, x0, configs, out_dir)
            check_solves(wl, solves, fstar, read_traces(out_dir, solves), first_traces)
            costs = pass_costs(solves, fstar, wl.counted)
            charged = charged_s(wl, solves, wall)
            if with_trace:
                row = layer_metrics(aggregate(seg, tracer.span_names), seg["stats"], solves, wall)
                row["harness.write_bytes"] = dir_bytes(out_dir)
                traced.append((charged, row))
            else:
                untraced.append((charged, costs))
                untraced_solves.append([replace(s, run=None) for s in solves])
            attempted += len(solves)
            failures += [s.failure for s in solves if s.failure]
            wrong += sum(wrong_output(wl, s) for s in solves)
            i += 1

    q1, med, q3 = statistics.quantiles([c for c, _ in untraced], n=4)
    result = {
        "workload": name,
        "environment": environment(root, wl, seed),
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": len(failures),
        "failures": {f: failures.count(f) for f in sorted(set(failures))},
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "pass_wall_s_quartiles": [q1, med, q3],
        "setup_reps": len(setup_times),
        "setup_cold_s": setup_times[0],
        "budget_s": wl.budget_s,
    }
    if trace:
        per_layer = _medians([row for _, row in traced])
        per_layer.update(_medians(setup_rows))
        traced_med = statistics.median(c for c, _ in traced)
        per_layer["trace.pass_s"] = traced_med
        per_layer["trace.overhead"] = traced_med / med
        result["metrics"] = per_layer
        result["segments"] = segments
        result["span_names"] = list(tracer.span_names)
    else:
        metrics = {"pass_s": pass_time(wl, untraced_solves), "setup_s": statistics.median(setup_times),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics.update(_medians([costs for _, costs in untraced]))
        result["metrics"] = metrics
    return result


def write_spans(path, result) -> None:
    """All recorded spans of a traced run, one row per span, tagged by segment."""
    segs = result["segments"]
    np.savez_compressed(
        path,
        span_names=np.array(result["span_names"]),
        segment=np.concatenate([np.full(s["name_ids"].size, i, dtype=np.int32)
                                for i, (_, s) in enumerate(segs)]),
        segment_kind=np.array([kind for kind, _ in segs]),
        name_id=np.concatenate([s["name_ids"] for _, s in segs]),
        parent=np.concatenate([s["parents"] for _, s in segs]),
        start=np.concatenate([s["starts"] for _, s in segs]),
        end=np.concatenate([s["ends"] for _, s in segs]),
    )


def unit_of(metric: str) -> str:
    """Unit of a metric, from its name."""
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_s"):
        return "s"
    if metric == "policies.delta_min":
        return "F"
    if metric.endswith(("_calls", "_iters", ".builds", ".subproblems", ".stalls")):
        return "count"
    return "ratio"


def print_result(result: dict, path) -> None:
    """Print one line per metric and save the result record (without spans)."""
    env = result["environment"]
    print(f"# workload {result['workload']}: seed {env['seed']} "
          f"(instance seed {env['instance_seed']}), commit {env['commit']}, "
          f"nproc {env['nproc']}, BLAS threads {env['blas_threads']}, "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}")
    print(f"# passes: {result['passes']['untraced']} untraced, {result['passes']['traced']} traced; "
          f"per-solve budget {result['budget_s']:g} s")
    for name, value in result["metrics"].items():
        print(f"{result['workload']:<15} {name:<28} {value:>16.6g} {unit_of(name)}")
    frac = result["failed"] / result["attempted"]
    for name, value in zip(("pass_wall_s_q1", "pass_wall_s_median", "pass_wall_s_q3"),
                           result["pass_wall_s_quartiles"]):
        print(f"{result['workload']:<15} {name:<28} {value:>16.6g} s")
    print(f"{result['workload']:<15} {'setup_cold_s':<28} {result['setup_cold_s']:>16.6g} s  "
          f"(setup_s: median of {result['setup_reps']} builds spread over the run, first one cold)")
    print(f"{result['workload']:<15} {'failed_frac':<28} {frac:>16.6g} frac  "
          f"({result['failed']} of {result['attempted']} solves: {result['failures'] or 'none'})")
    record = {k: v for k, v in result.items() if k not in ("segments", "span_names")}
    record["failed_frac"] = frac
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def summary_line(results: list) -> dict:
    """The closing JSON object; metric names carry a workload prefix when several ran."""
    metrics = {}
    for r in results:
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        for name, value in r["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit_of(name)}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
