"""Experiment runner: config files, problem registry, traces, rate fits.

A run is fully described by a JSON-serializable config. Executing it writes
three files into its output directory:

* ``config.json``  -- the resolved configuration (round-trips losslessly),
* ``trace.csv``    -- one row per outer iteration, fixed column set,
* ``summary.json`` -- final gap, status, oracle-call counts, optional rate fit.

Traces are byte-identical across repeat runs with the same seed; per-row wall
time is therefore opt-in (``measure_time``) and kept out of default runs,
while the total wall time always lands in the summary (which is not part of
the determinism contract).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .accel import accelerated
from .methods import SolverConfig, SolverRun, TRACE_COLUMNS, averaging, monotone1, monotone2
from .policies import AccuracyPolicy
from .problems import (
    PowerComposite,
    ProblemInstance,
    QuadraticComposite,
    ZeroComposite,
    generate_shifted_logsumexp,
    logistic_oracle,
    parse_libsvm,
    powered_chain_oracle,
    synthetic_logistic,
)

SCHEMA_VERSION = 1

METHOD_TABLE = {
    "monotone1": monotone1,
    "monotone2": monotone2,
    "averaging": averaging,
    "accelerated": accelerated,
}

SUCCESS_STATUSES = {"target_reached", "max_iters", "monotone_floor", "stationary"}


@dataclass
class ExperimentConfig:
    problem: dict
    method: str = "monotone2"
    p: int = 2
    H: str = "lipschitz"               # "fixed:<v>" | "lipschitz" | "linesearch:<v>"
    policy: str = "power:1:3"
    zeta_policy: str | None = None     # accelerated only
    inner_policy: str | None = None    # accelerated only
    composite: str | None = None       # "power:MU:Q" | "quadratic:MU" | None
    x0: str = "ones"                   # "ones" | "zeros" | "e1" | "gauss"
    subsolver: str = "fgm"
    stop: str = "bound"
    max_iters: int = 100
    target_gap: float | None = None
    seed: int = 0
    measure_time: bool = False
    out: str | None = None

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["schema"] = SCHEMA_VERSION
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        d = dict(d)
        d.pop("schema", None)
        return ExperimentConfig(**d)

    @staticmethod
    def load(path) -> "ExperimentConfig":
        with open(path) as fh:
            return ExperimentConfig.from_dict(json.load(fh))

    def save(self, path) -> None:
        write_json(path, self.to_dict())


# ---------------------------------------------------------------------------
# problem registry
# ---------------------------------------------------------------------------

def build_problem(spec: dict, seed: int) -> ProblemInstance:
    """Instantiate a problem from its config stanza."""
    spec = dict(spec)
    name = spec.pop("name")
    if name == "logsumexp":
        n = int(spec.pop("n", 100))
        m = int(spec.pop("m", 6 * n))
        mu = float(spec.pop("mu", 0.05))
        _reject_extras(name, spec)
        return generate_shifted_logsumexp(n, m, mu, seed)
    if name == "logistic":
        path = spec.pop("path")
        l2 = float(spec.pop("l2", 0.0))
        _reject_extras(name, spec)
        data = parse_libsvm(path)
        oracle = logistic_oracle(data, l2=l2)
        return ProblemInstance(
            smooth=oracle, composite=ZeroComposite(oracle.dim),
            name=f"logistic({os.path.basename(str(path))},l2={l2})",
        )
    if name == "logistic-synth":
        n = int(spec.pop("n", 50))
        m = int(spec.pop("m", 300))
        l2 = float(spec.pop("l2", 1e-2))
        scale = float(spec.pop("scale", 1.0))
        _reject_extras(name, spec)
        return synthetic_logistic(n, m, l2, seed, scale=scale)
    if name == "chain":
        n = int(spec.pop("n", 20))
        q = float(spec.pop("q", 3.0))
        c = float(spec.pop("c", 1.0))
        _reject_extras(name, spec)
        return powered_chain_oracle(n, q=q, c=c)
    raise ValueError(f"unknown problem {name!r}")


def _reject_extras(name, extras):
    if extras:
        raise ValueError(f"unknown parameters for problem {name!r}: {sorted(extras)}")


def attach_composite(problem: ProblemInstance, spec: str | None) -> ProblemInstance:
    """Add a simple regularizer; keeps the known optimum when it is preserved."""
    if not spec or spec == "none":
        return problem
    parts = spec.split(":")
    center = np.zeros(problem.dim)
    if parts[0] == "power":
        mu, q = float(parts[1]), float(parts[2])
        comp = PowerComposite(mu, q, center, problem.norm)
    elif parts[0] == "quadratic":
        mu = float(parts[1])
        comp = QuadraticComposite(mu, center, problem.norm)
    else:
        raise ValueError(f"bad composite spec {spec!r}")
    known = None
    if problem.known_optimum is not None:
        x_star, f_star = problem.known_optimum
        if np.allclose(x_star, center):
            # gradient of the new term vanishes at its center: optimum unchanged
            known = (x_star, f_star + comp.value(x_star))
    return ProblemInstance(
        smooth=problem.smooth, composite=comp,
        name=f"{problem.name}+{spec}", known_optimum=known,
    )


def starting_point(kind: str, dim: int, seed: int) -> np.ndarray:
    if kind == "ones":
        return np.ones(dim)
    if kind == "zeros":
        return np.zeros(dim)
    if kind == "e1":
        x = np.zeros(dim)
        x[0] = 1.0
        return x
    if kind == "gauss":
        return np.random.default_rng(seed ^ 0x5EED).normal(size=dim)
    raise ValueError(f"unknown starting point {kind!r}")


def parse_h_mode(spec: str) -> tuple[str, float | None]:
    if spec == "lipschitz":
        return "lipschitz", None
    if spec.startswith("fixed:"):
        return "fixed", float(spec.split(":", 1)[1])
    if spec.startswith("linesearch"):
        parts = spec.split(":")
        return "linesearch", float(parts[1]) if len(parts) > 1 else 1.0
    raise ValueError(f"bad H mode {spec!r}")


def solver_config(cfg: ExperimentConfig) -> SolverConfig:
    h_mode, h_value = parse_h_mode(cfg.H)
    return SolverConfig(
        p=cfg.p,
        h_mode=h_mode,
        h_value=h_value,
        policy=AccuracyPolicy.parse(cfg.policy),
        subsolver=cfg.subsolver,
        stop=cfg.stop,
        max_iters=cfg.max_iters,
        target_gap=cfg.target_gap,
        measure_time=cfg.measure_time,
        zeta_policy=AccuracyPolicy.parse(cfg.zeta_policy) if cfg.zeta_policy else None,
        inner_policy=AccuracyPolicy.parse(cfg.inner_policy) if cfg.inner_policy else None,
    )


# ---------------------------------------------------------------------------
# trace and summary files
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_trace_csv(path, records) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for r in records:
            row = [_fmt(getattr(r, col)) for col in TRACE_COLUMNS]
            fh.write(",".join(row) + "\n")


def read_trace_csv(path) -> dict:
    """Columns of a trace file as lists (floats where possible, None for blanks)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        cols = {h: [] for h in header}
        for line in fh:
            parts = line.rstrip("\n").split(",")
            for h, val in zip(header, parts):
                cols[h].append(float(val) if val else None)
    return cols


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def summarize(run: SolverRun, cfg: ExperimentConfig, fstar_source: str | None) -> dict:
    final_gap = None
    if run.fstar is not None:
        final_gap = run.f_final - run.fstar
    return {
        "schema": SCHEMA_VERSION,
        "problem": run.problem_name,
        "method": run.method,
        "status": run.status,
        "iterations": run.records[-1].k if run.records else 0,
        "final_objective": run.f_final,
        "final_gap": final_gap,
        "fstar": run.fstar,
        "fstar_source": fstar_source,
        "counts": run.counts,
        "radius_proxy": run.radius_proxy,
        "wall_time_s": run.wall_time_s,
        "seed": cfg.seed,
    }


# ---------------------------------------------------------------------------
# reference optimum cache
# ---------------------------------------------------------------------------

def _reference_key(cfg: ExperimentConfig) -> str:
    # every field the reference solve below reads
    payload = json.dumps(
        {"problem": cfg.problem, "composite": cfg.composite, "seed": cfg.seed,
         "p": cfg.p, "x0": cfg.x0, "max_iters": cfg.max_iters},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def reference_fstar(cfg: ExperimentConfig, cache_dir=None) -> tuple[float, str]:
    """Best objective value from a long, tight reference solve (cached)."""
    key = _reference_key(cfg)
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        cache_path = os.path.join(cache_dir, f"fstar-{key}.json")
        if os.path.exists(cache_path):
            with open(cache_path) as fh:
                return json.load(fh)["fstar"], "reference-cached"
    problem = attach_composite(build_problem(cfg.problem, cfg.seed), cfg.composite)
    x0 = starting_point(cfg.x0, problem.dim, cfg.seed)
    ref_cfg = SolverConfig(
        p=cfg.p,
        h_mode="linesearch" if problem.smooth.lipschitz.get(cfg.p) is None else "lipschitz",
        h_value=1.0,
        policy=AccuracyPolicy.parse("adaptive:1:2"),
        subsolver="exact",
        stop="bound",
        max_iters=10 * cfg.max_iters,
    )
    run = monotone2(problem, x0, ref_cfg)
    fstar = min(r.F for r in run.records)
    if cache_dir:
        write_json(cache_path, {"fstar": fstar, "status": run.status})
    return fstar, "reference-run"


# ---------------------------------------------------------------------------
# run / fit / compare
# ---------------------------------------------------------------------------

def execute(cfg: ExperimentConfig) -> SolverRun:
    problem = attach_composite(build_problem(cfg.problem, cfg.seed), cfg.composite)
    x0 = starting_point(cfg.x0, problem.dim, cfg.seed)
    scfg = solver_config(cfg)
    method = METHOD_TABLE.get(cfg.method)
    if method is None:
        raise ValueError(f"unknown method {cfg.method!r}")
    return method(problem, x0, scfg)


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> tuple[SolverRun, dict]:
    """Execute a config and persist config/trace/summary into out_dir."""
    out_dir = out_dir or cfg.out
    run = execute(cfg)
    summary = summarize(run, cfg, "known" if run.fstar is not None else None)
    if run.fstar is not None:
        try:
            fit = fit_rate(
                [r.k for r in run.records], [r.F for r in run.records], run.fstar,
                exponent=(cfg.p + 1) / 2.0,
            )
            summary["rate_fit"] = fit.to_dict()
        except ValueError:
            summary["rate_fit"] = None  # too few pre-plateau points to fit
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        cfg.save(os.path.join(out_dir, "config.json"))
        write_trace_csv(os.path.join(out_dir, "trace.csv"), run.records)
        write_json(os.path.join(out_dir, "summary.json"), summary)
    return run, summary


@dataclass
class RateFit:
    window: tuple
    slope: float
    intercept: float
    residual: float
    ratios: list = field(default_factory=list)
    fstar_source: str = "known"
    truncated: bool = False

    def to_dict(self):
        return {
            "window": list(self.window),
            "slope": self.slope,
            "intercept": self.intercept,
            "residual": self.residual,
            "superlinear_ratios": self.ratios,
            "fstar_source": self.fstar_source,
            "truncated": self.truncated,
        }


def fit_rate(ks, Fs, fstar: float, window=None, exponent: float = 1.5,
             fstar_source: str = "known") -> RateFit:
    """Least-squares slope of log(F - fstar) against log k, plus tail ratios.

    The window is clipped where the gap reaches the numerical plateau (or is
    nonpositive), and that truncation is reported on the fit.
    """
    ks = np.asarray(ks, dtype=float)
    Fs = np.asarray(Fs, dtype=float)
    gaps = Fs - fstar
    plateau = max(1e-15 * max(1.0, abs(fstar)), 0.0)
    valid = (ks >= 1) & (gaps > plateau)
    if window is not None:
        lo, hi = window
        inside = valid & (ks >= lo) & (ks <= hi)
        truncated = bool(np.count_nonzero(inside) < np.count_nonzero((ks >= lo) & (ks <= hi)))
    else:
        inside = valid
        truncated = bool(np.count_nonzero(valid) < np.count_nonzero(ks >= 1))
    if np.count_nonzero(inside) < 2:
        raise ValueError("fewer than two usable trace points in the fit window")
    lk = np.log(ks[inside])
    lg = np.log(gaps[inside])
    A = np.vstack([lk, np.ones_like(lk)]).T
    coef, res, _, _ = np.linalg.lstsq(A, lg, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    residual = float(res[0]) if res.size else 0.0
    ratios = []
    idx = np.nonzero(valid)[0]
    for j in idx:
        if j + 2 < len(gaps) and gaps[j] > plateau and gaps[j + 2] > plateau:
            ratios.append(float(gaps[j + 2] / gaps[j] ** exponent))
    kept = (float(ks[inside][0]), float(ks[inside][-1]))
    return RateFit(kept, slope, intercept, residual, ratios, fstar_source, truncated)


def _cost_to_gap(records, fstar, target):
    """(iterations, hvp count, wall time) at the first record reaching the gap."""
    for r in records:
        if r.F - fstar <= target:
            return r.k, r.hvp_count, r.time_s
    return None, None, None


def compare(configs, out_root=None) -> dict:
    """Run several configs on the same instance and tabulate cost-to-gap.

    All configs must agree on the problem stanza, composite, start, and seed;
    wall-time columns are informative only and never decide a gate.
    """
    if len(configs) < 2:
        raise ValueError("compare needs at least two configs")
    base = (json.dumps(configs[0].problem, sort_keys=True), configs[0].composite,
            configs[0].x0, configs[0].seed)
    for cfg in configs[1:]:
        other = (json.dumps(cfg.problem, sort_keys=True), cfg.composite, cfg.x0, cfg.seed)
        if other != base:
            raise ValueError("compare requires identical problem instances and seeds")

    runs = []
    for i, cfg in enumerate(configs):
        out_dir = os.path.join(out_root, f"run{i:02d}") if out_root else None
        run, summary = run_experiment(cfg, out_dir)
        runs.append((cfg, run, summary))

    fstar = None
    for _, run, _ in runs:
        if run.fstar is not None:
            fstar = run.fstar
            break
    if fstar is None:
        fstar, _ = reference_fstar(configs[0], cache_dir=out_root)
    fstar = min([fstar] + [min(r.F for r in run.records) for _, run, _ in runs])

    labels = [f"{cfg.method}/{cfg.policy}" for cfg, _, _ in runs]
    report = {"schema": SCHEMA_VERSION, "fstar": fstar, "labels": labels, "targets": {}}
    for target in (1e-4, 1e-6, 1e-8):
        entry = {"iterations": {}, "hvp_count": {}, "time_s": {}}
        for label, (_, run, _) in zip(labels, runs):
            it, hvp, t = _cost_to_gap(run.records, fstar, target)
            entry["iterations"][label] = it
            entry["hvp_count"][label] = hvp
            entry["time_s"][label] = t
        for metric in ("iterations", "hvp_count"):
            reached = {k: v for k, v in entry[metric].items() if v is not None}
            entry[f"winner_{metric}"] = min(reached, key=reached.get) if reached else None
        report["targets"][f"{target:g}"] = entry
    gap_table = {
        label: [r.F - fstar for r in run.records] for label, (_, run, _) in zip(labels, runs)
    }
    report["gap_by_iteration"] = gap_table
    if out_root:
        os.makedirs(out_root, exist_ok=True)
        write_json(os.path.join(out_root, "comparison.json"), report)
    return report


def render_comparison(report: dict) -> str:
    lines = []
    for target, entry in report["targets"].items():
        lines.append(f"gap <= {target}:")
        for label in report["labels"]:
            it = entry["iterations"].get(label)
            hvp = entry["hvp_count"].get(label)
            t = entry["time_s"].get(label)
            it_s = "-" if it is None else str(it)
            hvp_s = "-" if hvp is None else str(int(hvp))
            t_s = "-" if t is None else f"{t:.3f}s"
            lines.append(f"  {label:<40s} iters={it_s:>6s} hvp={hvp_s:>9s} time={t_s:>9s}")
        lines.append(
            f"  winners: iterations={entry['winner_iterations']} "
            f"hvp={entry['winner_hvp_count']}"
        )
    return "\n".join(lines)
