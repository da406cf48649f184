"""Outer optimization loops with per-iteration tracing.

Every driver, ``accel.accelerated`` included, is a generator of steps run
by one outer loop, ``_Runner.drive``, which owns the trace, the stop rules and
the stall handling. The three non-accelerated drivers:

* ``monotone1`` -- candidate steps are accepted only when they lower the
  objective by more than the precision floor; a rejected candidate keeps the
  center and its model, the next subsolve resumes the rejected step, its F
  included, and the next tolerance is capped at half the rejected one. A
  rejected step ends the run ``stationary`` under ``is_stationary``.
* ``monotone2`` -- every iteration lowers the objective by more than the
  floor, refining the tolerance in place under every H mode, or ends the run
  ``monotone_floor`` (see ``subsolvers.monotone_step``).
* ``averaging`` -- steps are taken from a convex combination of the current
  iterate and the starting point; no monotonicity is enforced.

The regularization weight H is fixed, derived from a known Lipschitz constant
(H = p * L_p), or fitted by a doubling line search on the upper-bound property
F(T) <= model(T), restarting each search from half the previous estimate.

A run under a factored norm B = L Lᵀ solves ``problem.whitened(x0)``. When
the oracle and the composite both have a view in the coordinates
z = Lᵀ(x − x0), every driver and subsolver works there, from z = 0, under the
identity norm, with no Gram solve, and the trace's points and final point
are mapped back to x at the end; otherwise the run works in x under the
problem's norm. The Lipschitz constants, the known optimum's value and every
F in the trace are those of the original problem.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .model import TensorModel
from .policies import AccuracyPolicy, power, precision_floor
from .subsolvers import SubsolverStall, is_stationary, monotone_step, solve_model

class DivergenceError(RuntimeError):
    """Line search exceeded its doubling budget; the order is likely wrong."""


# The line search's constants. Each search starts at half the weight last
# accepted, so H halves at every center whose first weight passes: H_MIN stops
# it there, long before it underflows to the zero weight a model refuses.
H_MIN = 1e-12
# F(T) and m(T) carry rounding relative to their size; the bound test forgives a
# relative excess well above it, so a model that majorizes F is not rejected.
BOUND_SLACK = 1e-12
# a weight 2^MAX_DOUBLINGS times the start that still fails: no Lipschitz constant
MAX_DOUBLINGS = 60


def is_number(val, kind=numbers.Real) -> bool:
    """Whether ``val`` is a ``kind`` (a ``numbers`` class) and not a bool."""
    return isinstance(val, kind) and not isinstance(val, bool)


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
    measure_time: bool = False
    zeta_policy: AccuracyPolicy | None = None   # accelerated only
    inner_policy: AccuracyPolicy | None = None  # accelerated only

    def validate(self, method: str | None = None, orders=None):
        """Raise ValueError on a setting no driver can run, or ``method`` cannot, or
        cannot on a problem whose positive known Lipschitz constants have ``orders``,
        or would never read."""
        if not is_number(self.p, numbers.Integral) or self.p not in (1, 2):
            raise ValueError(f"order p must be 1 or 2, got {self.p!r}")
        if not is_number(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an int of at least 1, got {self.max_iters!r}")
        gap = self.target_gap
        if gap is not None and not (is_number(gap) and 0 <= gap < np.inf):
            raise ValueError(f"target_gap must be None or finite and nonnegative, got {gap!r}")
        if self.h_mode not in ("fixed", "lipschitz", "linesearch"):
            raise ValueError(f"unknown H mode {self.h_mode!r}")
        if self.h_mode == "fixed" and self.h_value is None:
            raise ValueError("fixed H mode needs h_value")
        if self.h_value is not None and not 0 < self.h_value < np.inf:
            raise ValueError("h_value must be finite and positive")
        if self.subsolver not in ("exact", "fgm"):
            raise ValueError(f"unknown subsolver {self.subsolver!r}")
        if self.stop not in ("bound", "exact"):
            raise ValueError(f"unknown stop rule {self.stop!r}")
        if method == "averaging" and self.policy.kind == "adaptive":
            raise ValueError("averaging does not support an adaptive policy: "
                             "it keeps no monotone objective history")
        if method == "accelerated":
            if self.zeta_policy is not None and self.zeta_policy.kind == "adaptive":
                raise ValueError("accelerated does not support an adaptive zeta_policy: "
                                 "the outer loop keeps no monotone objective history")
            if self.h_mode == "linesearch":
                raise ValueError("accelerated does not support linesearch H: its scaling "
                                 "schedule needs the known L_p (lipschitz) or a fixed "
                                 "surrogate (fixed:<v>)")
        if orders is not None and self.h_mode == "lipschitz" and self.p not in orders:
            if method == "accelerated":
                raise ValueError("the accelerated scheme needs a known Lipschitz "
                                 "constant L_p or a fixed surrogate for it")
            raise ValueError(f"no known Lipschitz constant of order {self.p} for this "
                             "problem; use fixed or linesearch H")
        if method == "accelerated" and self.stop == "exact":
            raise ValueError("accelerated does not support stop exact: inner solves use the bound")
        if method == "accelerated" and self.p == 2 and self.subsolver == "exact":
            raise ValueError("accelerated at p = 2 does not support subsolver exact; use fgm")
        if self.subsolver == "exact" and self.stop == "exact":
            raise ValueError("stop exact is never read under subsolver exact; use stop bound")
        unread = [n for n in ("zeta_policy", "inner_policy") if getattr(self, n) is not None]
        if unread and method in ("monotone1", "monotone2", "averaging"):
            raise ValueError(f"{unread[0]} is never read by {method}, only by accelerated")


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


TRACE_COLUMNS = tuple(f.name for f in dataclasses.fields(TraceRecord))


class CountingOracle:
    """Wrapper counting oracle calls; one per solver run."""

    def __init__(self, inner):
        self.inner = inner
        self.dim, self.norm, self.lipschitz = inner.dim, inner.norm, inner.lipschitz
        self.n_value = 0
        self.n_grad = 0
        self.n_hvp = 0
        self.n_hess = 0

    def value(self, x):
        self.n_value += 1
        return self.inner.value(x)

    def gradient(self, x):
        self.n_grad += 1
        return self.inner.gradient(x)

    def value_gradient_state(self, x):
        # one value and one gradient call, as separate calls would count; the
        # state is not an oracle call (the products that use it are counted)
        self.n_value += 1
        self.n_grad += 1
        return self.inner.value_gradient_state(x)

    def hessian_vec(self, x, h, state=None):
        self.n_hvp += 1
        return self.inner.hessian_vec(x, h, state)

    def hessian(self, x, state=None):
        self.n_hess += 1
        return self.inner.hessian(x, state)

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


class _Runner:
    """Shared state for one solve: counters, timing, trace, H bookkeeping.

    The solve runs on ``problem.whitened(x0)``: from z = 0 under the identity
    norm when the problem has a factor-coordinate view, and ``finish`` maps the
    points back; otherwise on the problem as given, from x0, under its norm.
    """

    def __init__(self, problem, config: SolverConfig, x0, method: str):
        config.validate(method, [p for p, L in problem.smooth.lipschitz.items() if L > 0])
        # the schedule the driver reads; accelerated's default inner one is always valid
        schedule = config.inner_policy if method == "accelerated" else config.policy
        if schedule is not None:
            schedule.warn_if_invalid(config.p)
        origin = np.asarray(x0, dtype=float).copy()
        if origin.shape != (problem.dim,):
            raise ValueError("starting point has the wrong dimension")
        self.source = problem
        self.origin = origin
        self.problem = problem.whitened(origin)
        self.config = config
        self.method = method
        self.oracle = CountingOracle(self.problem.smooth)
        self.composite = self.problem.composite
        self.x0 = origin if self.problem is problem else np.zeros(problem.dim)
        self.norm = self.problem.norm
        self.fstar = problem.known_optimum[1] if problem.known_optimum else None
        self.records: list[TraceRecord] = []
        self.points: list[np.ndarray] = []
        self.t0 = time.perf_counter()
        self.H_state = config.h_value if config.h_value else 1.0
        self.H_used = None  # weight of the last step

    # -- objective and models ------------------------------------------------

    def F(self, x) -> float:
        return self.oracle.value(x) + self.composite.value(x)

    def line_search(self, model, models, delta, warm=None):
        """Double H until F(T) <= model(T); the accepted weight lands in H_used.

        Each trial weight solves its copy of the model frozen at the center,
        kept in ``models`` for the center's later searches, so a (center,
        weight) pair has one model, and one exact minimum under stop="exact".
        ``warm`` and each rejected trial are resumed by the next trial (a
        curvature product holds under every weight). F at a trial's point is
        called only when the step does not report it (see ``fgm_step``).
        H_state holds the starting weight for the next search: the first
        search starts at the configured value, later ones at half the weight
        last accepted.
        """
        H = max(self.H_state, H_MIN)
        H_start = H
        while True:
            if H not in models:
                models[H] = model.with_weight(H)
            res = solve_model(models[H], delta, warm_start=warm, kind=self.config.subsolver,
                              stop=self.config.stop, objective=self.F)
            slack = BOUND_SLACK * max(1.0, abs(res.model_value))
            if res.objective_value <= res.model_value + slack:
                self.H_state = H / 2.0
                self.H_used = H
                return res
            warm = res
            H *= 2.0
            if H > 2.0**MAX_DOUBLINGS * H_start:
                raise DivergenceError(f"line search exceeded 2^{MAX_DOUBLINGS} doublings; "
                                      "derivative order likely not Lipschitz")

    def solver(self, center):
        """``solve(delta, warm)`` at a center under the configured H mode.

        Each step comes back with ``objective_value`` set, and a ``warm`` step
        is resumed. The model is built once, here, for every call; a line
        search solves a copy of it per weight, kept in a dict made here.
        """
        cfg = self.config
        if cfg.h_mode == "linesearch":
            model = TensorModel(self.oracle, self.composite, center, self.H_state, p=cfg.p)
            models = {}
            return lambda delta, warm=None: self.line_search(model, models, delta, warm)
        # validate has checked that a lipschitz weight's constant is known
        self.H_used = float(cfg.h_value) if cfg.h_mode == "fixed" else (
            cfg.p * self.oracle.lipschitz[cfg.p])
        model = TensorModel(self.oracle, self.composite, center, self.H_used, p=cfg.p)
        return functools.partial(solve_model, model, kind=cfg.subsolver, stop=cfg.stop,
                                 objective=self.F)

    # -- tracing ---------------------------------------------------------------

    def record(self, k, f_val, x, delta_req=None, delta_cert=None, H=None, inner=None):
        gap = None if self.fstar is None else f_val - self.fstar
        t = time.perf_counter() - self.t0 if self.config.measure_time else None
        self.records.append(TraceRecord(
            k=k, F=f_val, gap=gap, delta_requested=delta_req,
            delta_certified=delta_cert, H_used=H, inner_iters=inner,
            hvp_count=self.oracle.n_hvp, grad_count=self.oracle.n_grad,
            time_s=t,
        ))
        self.points.append(np.asarray(x, dtype=float).copy())

    def hit_target(self, f_val) -> bool:
        tg = self.config.target_gap
        return tg is not None and self.fstar is not None and f_val - self.fstar <= tg

    def drive(self, steps) -> SolverRun:
        """The outer loop every driver shares.

        ``steps(x0, F(x0))`` yields iteration k = 1, 2, ... as its trace row
        (x, F(x), delta requested, delta certified, H, inner iterations, stop
        status or None), or returns a status to end without a row. A row's stop
        status wins over the target gap, both over ``max_iters``; a
        ``SubsolverStall`` ends the run "stalled" at the last recorded point.
        """
        x = self.x0.copy()
        f_x = self.F(x)
        self.record(0, f_x, x)
        if self.hit_target(f_x):
            return self.finish("target_reached", x, f_x)
        rows = steps(x, f_x)
        status = "max_iters"
        try:
            for k in range(1, self.config.max_iters + 1):
                x, f_x, *fields, stop = next(rows)
                self.record(k, f_x, x, *fields)
                if stop or self.hit_target(f_x):
                    status = stop or "target_reached"
                    break
        except StopIteration as end:
            status = end.value
        except SubsolverStall:
            status = "stalled"
        return self.finish(status, x, f_x)

    def finish(self, status, x, f_val) -> SolverRun:
        ref = self.problem.known_optimum[0] if self.problem.known_optimum else None
        if ref is None:
            ref = self.points[int(np.argmin([r.F for r in self.records]))]
        radius = max(self.norm.primal(pt - ref) for pt in self.points)
        points = self.points
        if self.problem is not self.source:
            # x = origin + L⁻ᵀz for every point, solved as the rows of one matrix
            X = self.source.norm.factor_solve(points, trans=True)
            X += self.origin
            points, x = list(X), X[-1]
        return SolverRun(
            method=self.method,
            problem_name=self.problem.name,
            status=status,
            records=self.records,
            points=points,
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

    def steps(x, f_x):
        floor = precision_floor(f_x)
        warm = None
        delta_cap = np.inf
        solve = None
        for k in itertools.count(1):
            # the policy history is the trace's F column
            delta = min(config.policy.delta(k, [r.F for r in run.records[-2:]]), delta_cap)
            delta_eff = max(delta, floor)
            if solve is None:
                solve = run.solver(x)
            res = solve(delta_eff, warm)
            stop = "stationary" if is_stationary(res, f_x, delta_eff, floor) else None
            if not stop and res.objective_value < f_x:
                x, f_x = res.point, res.objective_value
                warm = None
                delta_cap = np.inf
                solve = None
            else:
                # rejected: the center and its model stay, the next subsolve
                # resumes this one and demands at least twice the accuracy
                warm = res
                delta_cap = delta / 2.0
            yield (x, f_x, delta, res.certified_residual, run.H_used,
                   res.inner_iterations, stop)

    return run.drive(steps)


def monotone2(problem, x0, config: SolverConfig) -> SolverRun:
    """Strictly decreasing scheme with in-place tolerance refinement."""
    run = _Runner(problem, config, x0, "monotone2")

    def steps(x, f_x):
        floor = precision_floor(f_x)
        for k in itertools.count(1):
            delta_req = config.policy.delta(k, [r.F for r in run.records[-2:]])
            res = monotone_step(f_x, run.solver(x), delta_req, floor)
            if res.stationary:
                return "monotone_floor"
            x, f_x = res.point, res.objective_value
            yield (x, f_x, delta_req, res.certified_residual, run.H_used,
                   res.inner_iterations, None)

    return run.drive(steps)


def averaging(problem, x0, config: SolverConfig) -> SolverRun:
    """Steps taken from lambda_k x_k + (1 - lambda_k) x_0 with lambda_k = (k/(k+1))^{p+1}."""
    run = _Runner(problem, config, x0, "averaging")

    def steps(x, f_x):
        floor = precision_floor(f_x)
        for k in itertools.count():
            lam = (k / (k + 1.0)) ** (config.p + 1)
            y = lam * x + (1.0 - lam) * run.x0
            delta = max(config.policy.delta(k + 1), floor)
            res = run.solver(y)(delta)
            x = res.point
            yield (x, res.objective_value, delta, res.certified_residual, run.H_used,
                   res.inner_iterations, None)

    return run.drive(steps)
