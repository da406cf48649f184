"""Experiment runner: config files, traces, rate fits.

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
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .accel import accelerated
from .methods import (SolverConfig, SolverRun, TRACE_COLUMNS, averaging, is_number, monotone1,
                      monotone2)
from .policies import AccuracyPolicy, parse_spec
from .problems import (
    FAMILIES,
    PowerComposite,
    ProblemInstance,
    build_problem,
    check_composite,
    problem_params,
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
    problem: dict | None = None        # required; a run's --problem may supply it
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
        if not isinstance(d, dict):
            raise ValueError(f"a config must be an object of fields, got {type(d).__name__}")
        d = dict(d)
        d.pop("schema", None)
        unknown = sorted(set(d) - {f.name for f in dataclasses.fields(ExperimentConfig)})
        if unknown:
            raise ValueError(f"unknown config fields: {', '.join(unknown)}")
        return ExperimentConfig(**d)

    @staticmethod
    def load(path) -> "ExperimentConfig":
        """The config file at ``path``; one that cannot be read raises ValueError."""
        try:
            with open(path) as fh:
                return ExperimentConfig.from_dict(json.load(fh))
        except OSError as exc:
            raise ValueError(f"cannot read config file {path}: {exc.strerror}") from exc

    def save(self, path) -> None:
        write_json(path, self.to_dict())


def parse_composite(spec: str | None) -> tuple[float, float] | None:
    """(mu, q) of ``power:MU:Q`` or ``quadratic:MU`` (q = 2); None for no composite."""
    if spec is None or spec == "none":
        return None
    kind, values = parse_spec(spec, {"power": (2, 2), "quadratic": (1, 1)})
    mu, q = values if kind == "power" else (values[0], 2.0)
    try:
        check_composite(mu, q)
    except ValueError as exc:
        raise ValueError(f"bad spec {spec!r}: {exc}") from None
    return mu, q


def attach_composite(problem: ProblemInstance, spec: str | None) -> ProblemInstance:
    """Add a simple regularizer; keeps the known optimum when it is preserved."""
    params = parse_composite(spec)
    if params is None:
        return problem
    center = np.zeros(problem.dim)
    comp = PowerComposite(*params, center, problem.norm)
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


X0_KINDS = ("ones", "zeros", "e1", "gauss")


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
    """``lipschitz``, ``linesearch`` (start at 1), ``linesearch:<v>`` or ``fixed:<v>``."""
    mode, values = parse_spec(spec, {"lipschitz": (0, 0), "linesearch": (0, 1), "fixed": (1, 1)})
    default = 1.0 if mode == "linesearch" else None
    return mode, values[0] if values else default


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
        zeta_policy=None if cfg.zeta_policy is None else AccuracyPolicy.parse(cfg.zeta_policy),
        inner_policy=None if cfg.inner_policy is None else AccuracyPolicy.parse(cfg.inner_policy),
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
    """Columns of a trace file as lists of floats, None for blanks; a file that
    cannot be read, or a cell that is not a number, raises ValueError."""
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            cols = {h: [] for h in header}
            for lineno, line in enumerate(fh, start=2):
                for h, val in zip(header, line.rstrip("\n").split(",")):
                    try:
                        cols[h].append(float(val) if val else None)
                    except ValueError:
                        raise ValueError(f"trace file {path}, line {lineno}: {h}={val!r} "
                                         "is not a number") from None
    except OSError as exc:
        raise ValueError(f"cannot read trace file {path}: {exc.strerror}") from exc
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

# A line-searched H fits the local curvature; H = p·L from a global Lipschitz
# bound can be far larger and slow the reference solve by an order of magnitude.
REFERENCE_H = "linesearch:1"


def _reference_key(ref: ExperimentConfig) -> str:
    # the reference run's whole config, and the bytes of the data file it reads
    fields = ref.to_dict()
    name, params = problem_params(ref.problem)
    if name == "logistic":
        with open(params["path"], "rb") as fh:
            fields["data_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    payload = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def reference_fstar(cfg: ExperimentConfig, cache_dir=None) -> tuple[float, str]:
    """Best objective value from a long, tight ``execute`` of ``cfg``'s instance
    and start (cached), with exact steps where the composite allows them."""
    ref = dataclasses.replace(
        cfg, method="monotone2", H=REFERENCE_H, policy="adaptive:1:2",
        zeta_policy=None, inner_policy=None, stop="bound",
        subsolver="exact" if closed_form_fits("monotone2", cfg.composite) else "fgm",
        max_iters=10 * cfg.max_iters, target_gap=None, measure_time=False, out=None)
    key = _reference_key(ref)
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        cache_path = os.path.join(cache_dir, f"fstar-{key}.json")
        if os.path.exists(cache_path):
            with open(cache_path) as fh:
                return json.load(fh)["fstar"], "reference-cached"
    run = execute(ref)
    fstar = min(r.F for r in run.records)
    if cache_dir:
        write_json(cache_path, {"fstar": fstar, "status": run.status})
    return fstar, "reference-run"


# ---------------------------------------------------------------------------
# run / fit / compare
# ---------------------------------------------------------------------------

def closed_form_fits(method: str, composite: str | None) -> bool:
    """Whether ``method``'s closed-form steps fold in the ``composite`` spec: only a
    quadratic one does; accelerated's subproblem adds a Bregman term to it, which
    folds in only when the composite is zero."""
    params = parse_composite(composite)
    return params is None or (params[1] == 2 and method != "accelerated")


def resolve(cfg: ExperimentConfig):
    """The driver and validated solver config of ``cfg``; every spec in it, the
    problem stanza, the start, the output path, the L_p of H = p·L_p and the
    composite of a closed-form step included, is checked without building the
    instance."""
    method = METHOD_TABLE.get(cfg.method) if isinstance(cfg.method, str) else None
    if method is None:
        raise ValueError(f"unknown method {cfg.method!r}")
    if cfg.out is not None and not (isinstance(cfg.out, (str, os.PathLike)) and os.fspath(cfg.out)):
        raise ValueError(f"out must be None or a directory path, got {cfg.out!r}")
    if cfg.problem is None:
        raise ValueError("config needs a problem stanza")
    name, params = problem_params(cfg.problem)
    if cfg.x0 not in X0_KINDS:
        raise ValueError(f"unknown starting point {cfg.x0!r}; expected one of "
                         f"{', '.join(X0_KINDS)}")
    if not is_number(cfg.seed, numbers.Integral) or cfg.seed < 0:
        raise ValueError(f"seed must be an int of at least 0, got {cfg.seed!r}")
    if not isinstance(cfg.measure_time, bool):
        raise ValueError(f"measure_time must be true or false, got {cfg.measure_time!r}")
    fits = closed_form_fits(cfg.method, cfg.composite)
    scfg = solver_config(cfg)
    scfg.validate(cfg.method, FAMILIES[name][3](params))
    if "exact" in (cfg.subsolver, cfg.stop) and not fits:
        raise ValueError("closed-form steps support only zero or quadratic composites")
    return method, scfg


def prepare(cfg: ExperimentConfig):
    """``cfg``'s solve, built and checked but not started: ``resolve``'s checks, then
    the L_p of H = p·L_p against the built instance, which only its data may lack
    (a logistic file of all-zero features has L₂ = 0). The solve raises its own errors."""
    method, scfg = resolve(cfg)
    problem = attach_composite(build_problem(cfg.problem, cfg.seed), cfg.composite)
    scfg.validate(cfg.method, [p for p, L in problem.smooth.lipschitz.items() if L > 0])
    x0 = starting_point(cfg.x0, problem.dim, cfg.seed)
    return lambda: method(problem, x0, scfg)


def execute(cfg: ExperimentConfig) -> SolverRun:
    return prepare(cfg)()


def run_experiment(cfg: ExperimentConfig, out_dir=None, solve=None) -> tuple[SolverRun, dict]:
    """Execute a config, or its ``prepare``d ``solve``, and persist config/trace/summary."""
    out_dir = out_dir or cfg.out
    run = execute(cfg) if solve is None else solve()
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


def check_comparable(configs) -> list:
    """Raise ValueError unless there are two or more configs, of one instance, that resolve
    and that the built instance accepts; return each config's ``prepare``d solve."""
    if len(configs) < 2:
        raise ValueError("compare needs at least two configs")
    instances = set()
    for cfg in configs:
        resolve(cfg)
        instances.add((json.dumps(cfg.problem, sort_keys=True), cfg.composite, cfg.x0, cfg.seed))
    if len(instances) > 1:
        raise ValueError("compare requires identical problem instances and seeds")
    return [prepare(cfg) for cfg in configs]


def compare(configs, out_root=None, solves=None) -> dict:
    """Run several configs on the same instance and tabulate cost-to-gap.

    All configs must agree on the problem stanza, composite, start, and seed;
    wall-time columns are informative only and never decide a gate. ``solves``,
    if given, are the configs' solves from ``check_comparable``.
    """
    solves = check_comparable(configs) if solves is None else solves
    runs = []
    for i, (cfg, solve) in enumerate(zip(configs, solves)):
        out_dir = os.path.join(out_root, f"run{i:02d}") if out_root else None
        run, summary = run_experiment(cfg, out_dir, solve=solve)
        runs.append((cfg, run, summary))

    fstar = None
    for _, run, _ in runs:
        if run.fstar is not None:
            fstar = run.fstar
            break
    if fstar is None:
        fstar, _ = reference_fstar(configs[0], cache_dir=out_root)
    fstar = min([fstar] + [min(r.F for r in run.records) for _, run, _ in runs])

    # method/policy names a run unless another config shares it; then every
    # sharer gets its config index, so no run overwrites another in the tables
    labels = [f"{cfg.method}/{cfg.policy}" for cfg, _, _ in runs]
    labels = [f"{lab}#{i}" if labels.count(lab) > 1 else lab for i, lab in enumerate(labels)]
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
