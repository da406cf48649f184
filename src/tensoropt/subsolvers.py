"""Inexact model minimization with certified functional residuals.

Three ways to produce a step:

* ``exact_cubic_step``  -- global minimizer of the order-2 model through an
  eigendecomposition and a scalar secular equation (zero residual).
* ``gradient_step``     -- closed-form order-1 step, optionally with a
  quadratic composite folded in (zero residual).
* ``fgm_step``          -- accelerated gradient loop with backtracking step
  sizes and function-increase restarts, stopped by a computable residual
  certificate or by comparison against the exact model minimum.

The certificate comes from uniform convexity of the model: a function that is
uniformly convex of degree q with parameter sigma satisfies

    g(y) - min g <= (q-1)/q * sigma^(-1/(q-1)) * ||grad g(y)||_*^(q/(q-1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import TensorModel

SECULAR_REL_TOL = 1e-12


@dataclass
class StepResult:
    """Outcome of one model minimization."""

    point: np.ndarray
    certified_residual: float
    inner_iterations: int
    certification: str            # "bound" | "exact_oracle" | "closed_form"
    model_value: float
    grad_dual_norm: float | None = None
    delta_used: float | None = None
    objective_value: float | None = None  # F at point, when the caller measured it
    stationary: bool = False


class SubsolverStall(RuntimeError):
    """Iteration cap exceeded; carries the best iterate found so far."""

    def __init__(self, message: str, best: StepResult):
        super().__init__(message)
        self.best = best


def residual_bound(grad_dual_norm: float, sigma: float, q: float) -> float:
    """Upper bound on the functional residual via uniform convexity of degree q."""
    if sigma <= 0:
        raise ValueError("uniform convexity parameter must be positive")
    if q < 2:
        raise ValueError("degree must be at least 2")
    gn = max(0.0, float(grad_dual_norm))
    return (q - 1.0) / q * sigma ** (-1.0 / (q - 1.0)) * gn ** (q / (q - 1.0))


# ---------------------------------------------------------------------------
# closed-form order-1 step
# ---------------------------------------------------------------------------

def gradient_step(model: TensorModel) -> StepResult:
    """Exact minimizer of the order-1 model (preconditioned gradient step)."""
    if model.p != 1:
        raise ValueError("closed-form step requires an order-1 model")
    comp = model.composite
    if comp.is_zero:
        d = -model.norm.solve(model.g0) / model.H
    else:
        quad = comp.quadratic_coeff
        if quad is None:
            raise ValueError("closed-form step supports only zero or quadratic composites")
        mu, c0 = quad
        rhs = model.g0 + mu * model.norm.apply(model.center - c0)
        d = -model.norm.solve(rhs) / (model.H + mu)
    T = model.center + d
    return StepResult(
        point=T,
        certified_residual=0.0,
        inner_iterations=1,
        certification="closed_form",
        model_value=model.value(T),
        grad_dual_norm=0.0,
        delta_used=0.0,
    )


# ---------------------------------------------------------------------------
# exact order-2 step: eigendecomposition + secular equation
# ---------------------------------------------------------------------------

def _fold_quadratic(model: TensorModel):
    """Effective (gradient, Hessian) with a quadratic composite absorbed."""
    if model.hess is None:
        raise ValueError("exact step needs the dense Hessian on the model")
    comp = model.composite
    if comp.is_zero:
        return model.g0.copy(), model.hess.copy()
    quad = comp.quadratic_coeff
    if quad is None:
        raise ValueError("exact step supports only zero or quadratic composites")
    mu, c0 = quad
    B = model.norm.as_matrix()
    g = model.g0 + mu * model.norm.apply(model.center - c0)
    return g, model.hess + mu * B


def _secular_root(lam: np.ndarray, c2: np.ndarray, H: float) -> float:
    """Solve sum_i c_i^2 / (lam_i + H r / 2)^2 = r^2 for the step length r.

    Safeguarded Newton with a bisection bracket; the left endpoint is
    max(0, -2 lam_min / H) where the shifted spectrum becomes singular.
    """
    r_edge = max(0.0, -2.0 * lam[0] / H)

    def s_norm(r):
        den = lam + 0.5 * H * r
        return math.sqrt(float(np.sum(c2 / den**2)))

    lo = r_edge
    hi = max(1.0, 2.0 * r_edge)
    for _ in range(400):
        if s_norm(hi) <= hi:
            break
        hi *= 2.0
    else:
        raise RuntimeError("failed to bracket the secular root")

    r = 0.5 * (lo + hi) if lo > 0 else min(hi, max(s_norm(hi), 1e-16))
    for _ in range(300):
        den = lam + 0.5 * H * r
        s2 = float(np.sum(c2 / den**2))
        s = math.sqrt(s2)
        f = s - r
        if f > 0:
            lo = max(lo, r)
        else:
            hi = min(hi, r)
        if hi - lo <= SECULAR_REL_TOL * max(1.0, hi):
            break
        ds = -0.5 * H * float(np.sum(c2 / den**3)) / max(s, 1e-300)
        step = f / (1.0 - ds)
        r_new = r + step
        if not (lo < r_new < hi):
            r_new = 0.5 * (lo + hi)
        r = r_new
    return max(r, r_edge)


def exact_cubic_step(model: TensorModel) -> StepResult:
    """Global minimizer of the cubic-regularized order-2 model.

    Works in coordinates where the norm operator is the identity, solves the
    secular equation for the step length, and handles the hard case (gradient
    orthogonal to the bottom eigenspace, no interior root) by a boundary
    solution with an eigenvector correction.
    """
    if model.p != 2:
        raise ValueError("exact cubic step requires an order-2 model")
    g, A = _fold_quadratic(model)
    H = model.H
    norm = model.norm

    A_t = norm.inv_sqrt_apply(norm.inv_sqrt_apply(A).T)
    A_t = 0.5 * (A_t + A_t.T)
    g_t = norm.inv_sqrt_apply(g)

    lam, V = np.linalg.eigh(A_t)
    c = V.T @ g_t
    c2 = c**2
    scale = max(1.0, float(np.abs(lam).max()), float(np.linalg.norm(c)))
    bottom = lam - lam[0] <= 1e-14 * scale

    if float(np.linalg.norm(c)) == 0.0:
        u = np.zeros_like(c)
        if lam[0] < 0:
            u[0] = -2.0 * lam[0] / H  # boundary solution along the bottom eigenvector
        d = norm.inv_sqrt_apply(V @ u)
        T = model.center + d
        return StepResult(T, 0.0, 1, "exact_oracle", model.value(T), delta_used=0.0)

    r_edge = max(0.0, -2.0 * lam[0] / H)
    hard = False
    if lam[0] < 0 and float(np.sum(c2[bottom])) <= 1e-28 * float(np.sum(c2)):
        den = lam[~bottom] + 0.5 * H * r_edge
        s_edge = math.sqrt(float(np.sum(c2[~bottom] / den**2))) if np.any(~bottom) else 0.0
        if s_edge <= r_edge:
            hard = True

    if hard:
        u = np.zeros_like(c)
        den = lam + 0.5 * H * r_edge
        u[~bottom] = -c[~bottom] / den[~bottom]
        slack = r_edge**2 - float(np.sum(u**2))
        u[np.argmax(bottom)] = math.sqrt(max(0.0, slack))
    else:
        r = _secular_root(lam, c2, H)
        u = -c / (lam + 0.5 * H * r)

    d = norm.inv_sqrt_apply(V @ u)
    T = model.center + d
    return StepResult(
        point=T,
        certified_residual=0.0,
        inner_iterations=1,
        certification="exact_oracle",
        model_value=model.value(T),
        grad_dual_norm=model.norm.dual(model.gradient(T)),
        delta_used=0.0,
    )


# ---------------------------------------------------------------------------
# accelerated first-order subsolver with restarts
# ---------------------------------------------------------------------------

def _default_cap(delta: float) -> int:
    if delta >= 1.0:
        return 10_000
    return 10_000 * max(1, math.ceil(math.log(1.0 / delta)))


def fgm_step(model: TensorModel, delta: float, warm_start=None, stop: str = "bound",
             model_min: float | None = None, max_iters: int | None = None) -> StepResult:
    """Accelerated gradient loop on the model, stopped by a residual rule.

    stop = "bound": accept the first iterate whose uniform-convexity
    certificate is at most delta. stop = "exact": accept once the model value
    is within delta of ``model_min`` (the caller supplies the exact minimum).
    Momentum restarts whenever the model value fails to improve on the best
    seen, which keeps the recorded best value non-increasing.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if stop not in ("bound", "exact"):
        raise ValueError("stop must be 'bound' or 'exact'")
    if stop == "exact" and model_min is None:
        raise ValueError("stop='exact' needs the exact model minimum")
    cap = _default_cap(delta) if max_iters is None else max_iters

    norm = model.norm
    x = np.asarray(warm_start, dtype=float).copy() if warm_start is not None else model.center.copy()
    x_prev = x.copy()
    f_x = model.value(x)
    best_x, best_f = x.copy(), f_x

    def finish(point, cert, gn, iters):
        return StepResult(
            point=point.copy(),
            certified_residual=max(0.0, float(cert)),
            inner_iterations=iters,
            certification="exact_oracle" if stop == "exact" else "bound",
            model_value=model.value(point),
            grad_dual_norm=gn,
            delta_used=delta,
        )

    grad0 = model.gradient(x)
    gn0 = norm.dual(grad0)
    cert0 = (f_x - model_min) if stop == "exact" else residual_bound(
        gn0, model.uniform_convexity(), model.p + 1)
    if cert0 <= delta:
        return finish(x, cert0, gn0, 0)

    L = 1.0
    t_prev, t_acc = 1.0, 1.0
    for it in range(1, cap + 1):
        beta = (t_prev - 1.0) / t_acc
        y = x + beta * (x - x_prev)
        grad_y = model.gradient(y)
        gn = norm.dual(grad_y)
        if stop == "bound":
            cert = residual_bound(gn, model.uniform_convexity(), model.p + 1)
            if cert <= delta:
                return finish(y, cert, gn, it)
            f_y = model.value(y)
        else:
            f_y = model.value(y)
            cert = f_y - model_min
            if cert <= delta:
                return finish(y, cert, gn, it)

        step_dir = norm.solve(grad_y)
        gn2 = float(grad_y @ step_dir)
        L = max(L * 0.5, 1e-12)
        for _ in range(120):
            x_new = y - step_dir / L
            f_new = model.value(x_new)
            if f_new <= f_y - 0.5 * gn2 / L + 1e-15 * abs(f_y):
                break
            L *= 2.0
        x_prev, x = x, x_new
        t_prev, t_acc = t_acc, 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc**2))
        if f_new > best_f:
            # overshoot: restart the momentum from the best point
            x_prev, x = best_x.copy(), best_x.copy()
            t_prev, t_acc = 1.0, 1.0
        else:
            best_x, best_f = x_new.copy(), f_new

    grad_b = model.gradient(best_x)
    gn_b = norm.dual(grad_b)
    cert_b = (best_f - model_min) if stop == "exact" else residual_bound(
        gn_b, model.uniform_convexity(), model.p + 1)
    best = finish(best_x, cert_b, gn_b, cap)
    raise SubsolverStall(f"no certificate <= {delta:g} within {cap} iterations", best)


# ---------------------------------------------------------------------------
# dispatch and monotone refinement
# ---------------------------------------------------------------------------

def solve_model(model: TensorModel, delta: float, warm_start=None,
                kind: str = "fgm", stop: str = "bound") -> StepResult:
    """Run the requested subsolver on a frozen model."""
    if kind == "exact":
        return gradient_step(model) if model.p == 1 else exact_cubic_step(model)
    if kind != "fgm":
        raise ValueError(f"unknown subsolver kind {kind!r}")
    model_min = None
    if stop == "exact":
        ref = gradient_step(model) if model.p == 1 else exact_cubic_step(model)
        model_min = ref.model_value
    return fgm_step(model, delta, warm_start=warm_start, stop=stop, model_min=model_min)


def model_solver(model: TensorModel, objective, kind: str = "fgm", stop: str = "bound"):
    """``monotone_step``'s ``solve`` callable for one frozen model and objective F."""
    def solve(delta, warm=None):
        res = solve_model(model, delta, warm_start=warm, kind=kind, stop=stop)
        res.objective_value = objective(res.point)
        return res
    return solve


def monotone_step(f_center: float, solve, delta: float, floor: float) -> StepResult:
    """Inexact step with enforced strict decrease of the true objective.

    ``solve(delta, warm)`` returns a step at tolerance delta started from
    ``warm`` (None, on the first call: the center) with ``objective_value`` set to F at its
    point. If that value does not decrease F below ``f_center``, the tolerance
    is halved and ``solve`` resumes from the rejected point; inner iterations
    are summed across the retries. A step that does not decrease F is
    reported as stationary when its certificate is zero (it minimizes the
    model, so halving cannot help) or when the halved tolerance would fall
    below the floor (the center is floor-optimal for the model, hence nearly
    stationary for F).
    """
    if floor <= 0:
        raise ValueError("floor must be positive")
    delta_eff = max(float(delta), floor)
    total_inner = 0
    warm = None
    while True:
        res = solve(delta_eff, warm)
        total_inner += res.inner_iterations
        res.inner_iterations = total_inner
        res.delta_used = delta_eff
        if res.objective_value < f_center:
            return res
        if res.certified_residual <= 0.0 or 0.5 * delta_eff < floor:
            res.stationary = True
            return res
        delta_eff *= 0.5
        warm = res.point
