"""Outer optimization loops with per-iteration tracing.

Three non-accelerated drivers share the same machinery:

* ``monotone1`` -- candidate steps are accepted only when they strictly
  decrease the objective; rejected candidates are kept as warm starts and the
  next tolerance is capped at half the rejected one.
* ``monotone2`` -- every iteration produces a strictly decreasing point by
  refining the tolerance in place under every H mode (see
  ``subsolvers.monotone_step``).
* ``averaging`` -- steps are taken from a convex combination of the current
  iterate and the starting point; no monotonicity is enforced.

The regularization weight H is fixed, derived from a known Lipschitz constant
(H = p * L_p), or fitted by a doubling line search on the upper-bound property
F(T) <= model(T), restarting each search from half the previous estimate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .model import TensorModel
from .policies import AccuracyPolicy, power, precision_floor
from .subsolvers import SubsolverStall, model_solver, monotone_step, solve_model

TRACE_COLUMNS = (
    "k", "F", "gap", "delta_requested", "delta_certified",
    "H_used", "inner_iters", "hvp_count", "grad_count", "time_s",
)


class DivergenceError(RuntimeError):
    """Line search exceeded its doubling budget; the order is likely wrong."""


@dataclass
class SolverConfig:
    p: int = 2
    h_mode: str = "lipschitz"          # "fixed" | "lipschitz" | "linesearch"
    h_value: float | None = None       # fixed weight, or line-search start
    policy: AccuracyPolicy = field(default_factory=lambda: power(1.0, 3.0))
    subsolver: str = "fgm"             # "exact" | "fgm"
    stop: str = "bound"                # "bound" | "exact"
    max_iters: int = 100
    target_gap: float | None = None
    grad_tol: float | None = None
    measure_time: bool = False
    zeta_policy: AccuracyPolicy | None = None   # accelerated only
    inner_policy: AccuracyPolicy | None = None  # accelerated only

    def validate(self):
        if self.p not in (1, 2):
            raise ValueError("order p must be 1 or 2")
        if self.h_mode not in ("fixed", "lipschitz", "linesearch"):
            raise ValueError(f"unknown H mode {self.h_mode!r}")
        if self.h_mode == "fixed" and not self.h_value:
            raise ValueError("fixed H mode needs h_value")
        if self.subsolver not in ("exact", "fgm"):
            raise ValueError(f"unknown subsolver {self.subsolver!r}")
        if self.stop not in ("bound", "exact"):
            raise ValueError(f"unknown stop rule {self.stop!r}")


@dataclass
class TraceRecord:
    k: int
    F: float
    gap: float | None
    delta_requested: float | None
    delta_certified: float | None
    H_used: float | None
    inner_iters: int | None
    hvp_count: int
    grad_count: int
    time_s: float | None
    grad_norm: float | None = None  # dual norm of the last model gradient


class CountingOracle:
    """Wrapper counting oracle calls; one per solver run."""

    def __init__(self, inner):
        self.inner = inner
        self.n_value = 0
        self.n_grad = 0
        self.n_hvp = 0
        self.n_hess = 0

    @property
    def dim(self):
        return self.inner.dim

    @property
    def norm(self):
        return self.inner.norm

    @property
    def lipschitz(self):
        return self.inner.lipschitz

    def value(self, x):
        self.n_value += 1
        return self.inner.value(x)

    def gradient(self, x):
        self.n_grad += 1
        return self.inner.gradient(x)

    def hessian_vec(self, x, h):
        self.n_hvp += 1
        return self.inner.hessian_vec(x, h)

    def hessian(self, x):
        self.n_hess += 1
        return self.inner.hessian(x)

    def note_hvp(self, k: int = 1):
        # products against a cached dense Hessian count the same as oracle calls
        self.n_hvp += k

    def counts(self) -> dict:
        return {
            "value": self.n_value,
            "gradient": self.n_grad,
            "hessian_vec": self.n_hvp,
            "hessian": self.n_hess,
        }


@dataclass
class SolverRun:
    method: str
    problem_name: str
    status: str
    records: list
    points: list
    x_final: np.ndarray
    f_final: float
    fstar: float | None
    counts: dict
    radius_proxy: float | None = None
    wall_time_s: float = 0.0

    def objective_series(self):
        return [r.F for r in self.records]


class _Runner:
    """Shared state for one solve: counters, timing, trace, H bookkeeping."""

    def __init__(self, problem, config: SolverConfig, x0, method: str):
        config.validate()
        config.policy.warn_if_invalid(config.p)
        self.problem = problem
        self.config = config
        self.method = method
        self.oracle = CountingOracle(problem.smooth)
        self.composite = problem.composite
        self.x0 = np.asarray(x0, dtype=float).copy()
        if self.x0.shape != (problem.dim,):
            raise ValueError("starting point has the wrong dimension")
        self.norm = problem.norm
        self.want_hessian = config.subsolver == "exact" or config.stop == "exact"
        self.fstar = problem.known_optimum[1] if problem.known_optimum else None
        self.records: list[TraceRecord] = []
        self.points: list[np.ndarray] = []
        self.t0 = time.perf_counter()
        self.H_state = config.h_value if config.h_value else 1.0
        self.H_used = None  # weight of the last step

    # -- objective and models ------------------------------------------------

    def F(self, x) -> float:
        return self.oracle.value(x) + self.composite.value(x)

    def build_model(self, center, H) -> TensorModel:
        return TensorModel(self.oracle, self.composite, center, H, p=self.config.p,
                           want_hessian=self.want_hessian)

    def fixed_H(self) -> float:
        cfg = self.config
        if cfg.h_mode == "fixed":
            return float(cfg.h_value)
        if cfg.h_mode == "lipschitz":
            L = self.oracle.lipschitz.get(cfg.p)
            if L is None or L <= 0:
                raise ValueError(
                    f"no known Lipschitz constant of order {cfg.p} for this problem; "
                    "use fixed or linesearch H"
                )
            return cfg.p * L
        raise ValueError("line-search mode has no fixed H")

    def line_search(self, center, delta, warm=None):
        """Double H until F(T) <= model(T); the accepted weight lands in H_used.

        H_state holds the starting weight for the next search: the first
        search starts at the configured value, later ones at half the weight
        last accepted.
        """
        H = max(self.H_state, 1e-12)
        H_start = H
        while True:
            model = self.build_model(center, H)
            res = solve_model(model, delta, warm_start=warm,
                              kind=self.config.subsolver, stop=self.config.stop)
            fT = self.F(res.point)
            if fT <= res.model_value + 1e-12 * max(1.0, abs(res.model_value)):
                self.H_state = H / 2.0
                self.H_used = H
                res.objective_value = fT
                return res
            warm = res.point
            H *= 2.0
            if H > 2.0**60 * H_start:
                raise DivergenceError(
                    "line search exceeded 2^60 doublings; derivative order likely not Lipschitz"
                )

    def solver(self, center):
        """``solve(delta, warm)`` at a center under the configured H mode.

        Each step comes back with ``objective_value`` set. A fixed or
        Lipschitz weight builds the model once, here, for every call.
        """
        if self.config.h_mode == "linesearch":
            return lambda delta, warm=None: self.line_search(center, delta, warm)
        self.H_used = self.fixed_H()
        return model_solver(self.build_model(center, self.H_used), self.F,
                            kind=self.config.subsolver, stop=self.config.stop)

    # -- tracing ---------------------------------------------------------------

    def record(self, k, f_val, x, delta_req=None, delta_cert=None, H=None,
               inner=None, grad_norm=None):
        gap = None if self.fstar is None else f_val - self.fstar
        t = time.perf_counter() - self.t0 if self.config.measure_time else None
        self.records.append(TraceRecord(
            k=k, F=f_val, gap=gap, delta_requested=delta_req,
            delta_certified=delta_cert, H_used=H, inner_iters=inner,
            hvp_count=self.oracle.n_hvp, grad_count=self.oracle.n_grad,
            time_s=t, grad_norm=grad_norm,
        ))
        self.points.append(np.asarray(x, dtype=float).copy())

    def hit_target(self, f_val) -> bool:
        tg = self.config.target_gap
        return tg is not None and self.fstar is not None and f_val - self.fstar <= tg

    def grad_converged(self, x) -> bool:
        if self.config.grad_tol is None:
            return False
        g = self.oracle.gradient(x) + self.composite.gradient(x)
        return self.norm.dual(g) <= self.config.grad_tol

    def finish(self, status, x, f_val) -> SolverRun:
        ref = self.problem.known_optimum[0] if self.problem.known_optimum else None
        if ref is None and self.points:
            best = int(np.argmin([r.F for r in self.records]))
            ref = self.points[best]
        radius = None
        if ref is not None and self.points:
            radius = max(self.norm.primal(pt - ref) for pt in self.points)
        return SolverRun(
            method=self.method,
            problem_name=self.problem.name,
            status=status,
            records=self.records,
            points=self.points,
            x_final=np.asarray(x, dtype=float).copy(),
            f_final=f_val,
            fstar=self.fstar,
            counts=self.oracle.counts(),
            radius_proxy=radius,
            wall_time_s=time.perf_counter() - self.t0,
        )


def monotone1(problem, x0, config: SolverConfig) -> SolverRun:
    """Correction scheme: keep the previous point unless the candidate improves."""
    run = _Runner(problem, config, x0, "monotone1")
    x = run.x0.copy()
    f_x = run.F(x)
    floor = precision_floor(f_x)
    values = [f_x]
    run.record(0, f_x, x)
    if run.hit_target(f_x):
        return run.finish("target_reached", x, f_x)
    warm = None
    delta_cap = np.inf
    status = "max_iters"
    for k in range(1, config.max_iters + 1):
        delta = min(config.policy.delta(k, values), delta_cap)
        try:
            res = run.solver(x)(max(delta, floor), warm)
        except SubsolverStall:
            status = "stalled"
            break
        if res.objective_value < f_x:
            x, f_x = res.point, res.objective_value
            warm = None
            delta_cap = np.inf
        else:
            # rejected: warm-start the next subsolve, demand at least twice the accuracy
            warm = res.point
            delta_cap = delta / 2.0
            if res.certified_residual <= 0.0:
                run.record(k, f_x, x, delta, res.certified_residual, run.H_used,
                           res.inner_iterations, res.grad_dual_norm)
                values.append(f_x)
                status = "stationary"
                break
        values.append(f_x)
        run.record(k, f_x, x, delta, res.certified_residual, run.H_used,
                   res.inner_iterations, res.grad_dual_norm)
        if run.hit_target(f_x) or run.grad_converged(x):
            status = "target_reached"
            break
    return run.finish(status, x, f_x)


def monotone2(problem, x0, config: SolverConfig) -> SolverRun:
    """Strictly decreasing scheme with in-place tolerance refinement."""
    run = _Runner(problem, config, x0, "monotone2")
    x = run.x0.copy()
    f_x = run.F(x)
    floor = precision_floor(f_x)
    values = [f_x]
    run.record(0, f_x, x)
    if run.hit_target(f_x):
        return run.finish("target_reached", x, f_x)
    status = "max_iters"
    for k in range(1, config.max_iters + 1):
        delta_req = config.policy.delta(k, values)
        try:
            res = monotone_step(f_x, run.solver(x), delta_req, floor)
        except SubsolverStall:
            status = "stalled"
            break
        if res.stationary:
            status = "monotone_floor"
            break
        x, f_x = res.point, res.objective_value
        values.append(f_x)
        run.record(k, f_x, x, delta_req, res.certified_residual, run.H_used,
                   res.inner_iterations, res.grad_dual_norm)
        if run.hit_target(f_x) or run.grad_converged(x):
            status = "target_reached"
            break
    return run.finish(status, x, f_x)


def averaging(problem, x0, config: SolverConfig) -> SolverRun:
    """Steps taken from lambda_k x_k + (1 - lambda_k) x_0 with lambda_k = (k/(k+1))^{p+1}."""
    if config.policy.kind == "adaptive":
        raise ValueError("averaging does not support an adaptive policy: "
                         "it keeps no monotone objective history")
    run = _Runner(problem, config, x0, "averaging")
    x = run.x0.copy()
    f_x = run.F(x)
    run.record(0, f_x, x)
    if run.hit_target(f_x):
        return run.finish("target_reached", x, f_x)
    status = "max_iters"
    floor = precision_floor(f_x)
    for k in range(config.max_iters):
        lam = (k / (k + 1.0)) ** (config.p + 1)
        y = lam * x + (1.0 - lam) * run.x0
        delta = max(config.policy.delta(k + 1), floor)
        try:
            res = run.solver(y)(delta)
        except SubsolverStall:
            status = "stalled"
            break
        x, f_x = res.point, res.objective_value
        run.record(k + 1, f_x, x, delta, res.certified_residual, run.H_used,
                   res.inner_iterations, res.grad_dual_norm)
        if run.hit_target(f_x) or run.grad_converged(x):
            status = "target_reached"
            break
    return run.finish(status, x, f_x)
