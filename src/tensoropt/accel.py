"""Accelerated outer loop built on contracted-and-regularized subproblems.

Each outer iteration k minimizes

    h(x) = A_{k+1} f((a_{k+1} x + A_k x_k) / A_{k+1}) + a_{k+1} psi(x)
           + bregman(v_k; x)

over x, where the Bregman divergence comes from the power prox-function
d(x) = ||x - x_0||^{p+1} / (p+1). The subproblem is uniformly convex of degree
p+1 with parameter 2^{1-p}, so a computable gradient-based certificate bounds
its residual; the inner solver is the strictly monotone scheme, warm-started
at the previous prox-center, and stops once the certificate reaches the outer
tolerance zeta. Scaling A_{k+1} = (k+1)^{p+1} / L_p keeps the contracted
smooth part's Lipschitz constant at most (p+1)^{p+1}.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import NormOperator
from .model import TensorModel
from .problems import Composite, ProblemInstance, SmoothOracle
from .methods import SolverConfig, SolverRun, _Runner
from .policies import power, precision_floor
from .subsolvers import SubsolverStall, model_solver, monotone_step, residual_bound


class PowerProx:
    """Prox-function d(x) = ||x - anchor||^{p+1} / (p+1) and its Bregman divergence."""

    def __init__(self, anchor, p: int, norm: NormOperator):
        self.anchor = np.asarray(anchor, dtype=float).copy()
        self.p = int(p)
        self.norm = norm

    def value(self, x) -> float:
        r = self.norm.primal(np.asarray(x, dtype=float) - self.anchor)
        return r ** (self.p + 1) / (self.p + 1.0)

    def gradient(self, x) -> np.ndarray:
        d = np.asarray(x, dtype=float) - self.anchor
        r = self.norm.primal(d)
        return r ** (self.p - 1) * self.norm.apply(d)

    def bregman(self, v, x) -> float:
        v = np.asarray(v, dtype=float)
        x = np.asarray(x, dtype=float)
        return self.value(x) - self.value(v) - float(self.gradient(v) @ (x - v))


class BregmanComposite(Composite):
    """beta_d(v; .) of a power prox-function, used as a composite term.

    Uniformly convex of degree p+1 with parameter 2^{1-p} (inherited from d).
    """

    def __init__(self, prox: PowerProx, v):
        self.prox = prox
        self.v = np.asarray(v, dtype=float).copy()
        self._grad_v = prox.gradient(self.v)

    def value(self, x):
        return self.prox.value(x) - self.prox.value(self.v) - float(
            self._grad_v @ (np.asarray(x, dtype=float) - self.v))

    def gradient(self, x):
        return self.prox.gradient(x) - self._grad_v

    def uniform_convexity(self, degree):
        if degree == self.prox.p + 1:
            return 2.0 ** (1.0 - self.prox.p)
        return 0.0

    @property
    def quadratic_coeff(self):
        if self.prox.p == 1:
            return 1.0, self.v  # degree-2 Bregman gap is 0.5 ||x - v||^2
        return None


class ScaledComposite(Composite):
    """a * psi plus a Bregman term; the composite slot of the subproblem."""

    def __init__(self, base: Composite, a: float, bregman: BregmanComposite):
        self.base = base
        self.a = float(a)
        self.breg = bregman

    def value(self, x):
        return self.a * self.base.value(x) + self.breg.value(x)

    def gradient(self, x):
        return self.a * self.base.gradient(x) + self.breg.gradient(x)

    def uniform_convexity(self, degree):
        return self.a * self.base.uniform_convexity(degree) + self.breg.uniform_convexity(degree)

    @property
    def is_zero(self):
        return False

    @property
    def quadratic_coeff(self):
        if self.base.is_zero:
            return self.breg.quadratic_coeff
        return None


class ContractedOracle(SmoothOracle):
    """g(x) = scale * f(shift + theta * x): the smooth part under contraction.

    Derivatives follow the affine chain rule; the order-p Lipschitz constant
    scales by theta^{p+1} * scale.
    """

    def __init__(self, base: SmoothOracle, scale: float, theta: float, shift):
        self.base = base
        self.scale = float(scale)
        self.theta = float(theta)
        self.shift = np.asarray(shift, dtype=float).copy()
        self.dim = base.dim
        self.norm = base.norm
        self.lipschitz = {
            p: self.scale * self.theta ** (p + 1) * L for p, L in base.lipschitz.items()
        }

    def _arg(self, x):
        return self.shift + self.theta * np.asarray(x, dtype=float)

    def value(self, x):
        return self.scale * self.base.value(self._arg(x))

    def gradient(self, x):
        return self.scale * self.theta * self.base.gradient(self._arg(x))

    def hessian_vec(self, x, h):
        return self.scale * self.theta**2 * self.base.hessian_vec(self._arg(x), h)

    def hessian(self, x):
        return self.scale * self.theta**2 * self.base.hessian(self._arg(x))


def build_subproblem(problem: ProblemInstance, oracle, x_k, v_k, A_k: float,
                     A_next: float, prox: PowerProx) -> ProblemInstance:
    """Assemble the contracted subproblem around the current outer state.

    ``oracle`` is the (possibly counting) view of the problem's smooth part so
    that inner work is attributed to the run that owns it.
    """
    if not A_next > A_k >= 0:
        raise ValueError("scaling coefficients must strictly increase from A_k >= 0")
    a = A_next - A_k
    theta = a / A_next
    shift = (A_k / A_next) * np.asarray(x_k, dtype=float)
    smooth = ContractedOracle(oracle, A_next, theta, shift)
    composite = ScaledComposite(problem.composite, a, BregmanComposite(prox, v_k))
    return ProblemInstance(smooth=smooth, composite=composite,
                           name=f"{problem.name}/contracted")


def subproblem_certificate(sub: ProblemInstance, y, p: int, grad=None):
    """Residual bound for the subproblem from its degree-(p+1) uniform convexity."""
    g = sub.gradient(y) if grad is None else grad
    gn = sub.norm.dual(g)
    sigma = sub.composite.uniform_convexity(p + 1)
    return residual_bound(gn, sigma, p + 1), gn


def accelerated(problem: ProblemInstance, x0, config: SolverConfig) -> SolverRun:
    """Accelerated scheme: prox-center updates plus convex-combination iterates.

    The scaling schedule divides by the order-p Lipschitz constant; with
    ``h_mode="fixed"`` the configured value is used as a fixed surrogate for
    it instead (the scheme runs a fixed schedule either way, without any line
    search on the inner regularization).
    """
    run = _Runner(problem, config, x0, "accelerated")
    p = config.p
    if config.h_mode == "fixed":
        L = float(config.h_value)
    else:
        L = problem.smooth.lipschitz.get(p)
    if L is None or L <= 0:
        raise ValueError("the accelerated scheme needs a known Lipschitz constant L_p "
                         "or a fixed surrogate for it")
    zeta_policy = config.zeta_policy or power(1.0, p + 2)
    if zeta_policy.kind == "adaptive":
        raise ValueError("accelerated does not support an adaptive zeta_policy: "
                         "the outer loop keeps no monotone objective history")
    inner_policy = config.inner_policy or power(1.0, 1.0)

    x = run.x0.copy()
    v = run.x0.copy()
    prox = PowerProx(run.x0, p, run.norm)
    A = 0.0
    f_x = run.F(x)
    run.record(0, f_x, x)
    if run.hit_target(f_x):
        return run.finish("target_reached", x, f_x)

    # Bregman composites of order two fold into closed forms; for p = 2 the
    # inner models need the first-order subsolver with the certificate rule.
    inner_kind = config.subsolver if p == 1 else "fgm"
    inner_cap = 60
    status = "max_iters"

    for k in range(config.max_iters):
        A_next = (k + 1.0) ** (p + 1) / L
        a = A_next - A
        zeta = zeta_policy.delta(k + 1)
        sub = build_subproblem(problem, run.oracle, x, v, A, A_next, prox)
        H_in = p * (a ** (p + 1) / A_next**p) * L
        w = v.copy()
        h_w = sub.value(w)
        floor = precision_floor(h_w)
        h_values = [h_w]
        inner_total = 0
        cert = math.inf
        grad_norm = None
        stalled = False
        for j in range(1, inner_cap + 1):
            if inner_policy.kind == "adaptive":
                delta_in = inner_policy.delta(j, h_values)
            else:
                delta_in = inner_policy.delta(k + 1)
            model = TensorModel(sub.smooth, sub.composite, w, H_in, p=p,
                                want_hessian=(inner_kind == "exact" and p == 2))
            try:
                res = monotone_step(h_w, model_solver(model, sub.value, kind=inner_kind),
                                    max(delta_in, floor), floor)
            except SubsolverStall:
                stalled = True
                break
            inner_total += res.inner_iterations
            w = res.point
            h_w = res.objective_value
            h_values.append(h_w)
            cert, grad_norm = subproblem_certificate(sub, w, p)
            if cert <= zeta:
                break
            if res.stationary:
                break
        else:
            stalled = True
        if stalled or cert > zeta:
            status = "stalled"
            break
        v = w
        x = (a * v + A * x) / A_next
        A = A_next
        f_x = run.F(x)
        run.record(k + 1, f_x, x, zeta, cert, H_in, inner_total, grad_norm)
        if run.hit_target(f_x) or run.grad_converged(x):
            status = "target_reached"
            break
    return run.finish(status, x, f_x)
