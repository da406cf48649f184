"""Accelerated outer loop built on contracted-and-regularized subproblems.

Each outer iteration k minimizes

    h(x) = A_{k+1} f((a_{k+1} x + A_k x_k) / A_{k+1}) + a_{k+1} psi(x)
           + bregman(v_k; x)

over x, where the Bregman divergence comes from the power prox-function
d(x) = ||x - x_0||^{p+1} / (p+1), a ``PowerComposite`` of weight one; the
composite slot ``ScaledComposite`` holds a * psi and that divergence, with
d(v) and its gradient cached. The subproblem is uniformly convex of degree
p+1 with parameter 2^{1-p}, so a computable gradient-based certificate bounds
its residual; the inner solver is the strictly monotone scheme, warm-started
at the previous prox-center, and stops once the certificate reaches the outer
tolerance zeta. The model built at each inner center supplies the
certificate's gradient there and serves the next inner step, so one oracle
evaluation per center covers both; an FGM probe takes d's value and gradient
from one norm. Scaling A_{k+1} = (k+1)^{p+1} / L_p keeps the contracted
smooth part's Lipschitz constant at most (p+1)^{p+1}. The outer loop is
``methods._Runner.drive``, which also ends the run "stalled" when an inner
subsolve raises ``SubsolverStall``.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .model import TensorModel
from .problems import Composite, PowerComposite, ProblemInstance, SmoothOracle
from .methods import SolverConfig, SolverRun, _Runner
from .policies import power, precision_floor
from .subsolvers import monotone_step, residual_bound, solve_model

# Strictly monotone inner steps per outer iteration; a subproblem whose
# certificate is still above zeta after them ends the run "stalled". The
# chain (n = 150) certifies every subproblem within 6 when zeta and the inner
# tolerances both fall as 1/k, and an inner step at the subproblem's
# precision floor ends the loop earlier (``stationary``), so the cap only
# bounds a subproblem that keeps decreasing without reaching zeta.
INNER_STEPS = 60


class ScaledComposite(Composite):
    """a * psi + beta_d(v; .), the composite slot of the subproblem.

    beta_d(v; x) = d(x) - d(v) - <grad d(v), x - v> is the Bregman divergence
    of the prox-function d at v; d(v) and grad d(v) are cached. The term is
    uniformly convex with psi's parameter scaled by a plus d's. A zero psi
    adds nothing to a value or a gradient.
    """

    def __init__(self, base: Composite, a: float, prox: PowerComposite, v):
        self.base = base
        self.a = float(a)
        self.prox = prox
        self.v = np.asarray(v, dtype=float).copy()
        self._grad_v = prox.gradient(self.v)
        self._value_v = prox.value(self.v)

    def _gap(self, x, d_x):
        """The Bregman divergence at x, given d(x)."""
        return d_x - self._value_v - float(self._grad_v.dot(np.asarray(x, dtype=float) - self.v))

    def value(self, x):
        gap = self._gap(x, self.prox.value(x))
        return gap if self.base.is_zero else self.a * self.base.value(x) + gap

    def gradient(self, x):
        return self.value_and_gradient(x)[1]

    def value_and_gradient(self, x):
        d_x, dd_x = self.prox.value_and_gradient(x)
        gap, dgap = self._gap(x, d_x), dd_x - self._grad_v
        if self.base.is_zero:
            return gap, dgap
        psi, dpsi = self.base.value_and_gradient(x)
        return self.a * psi + gap, self.a * dpsi + dgap

    def uniform_convexity(self, degree):
        return self.a * self.base.uniform_convexity(degree) + self.prox.uniform_convexity(degree)

    @property
    def quadratic_coeff(self):
        if self.base.is_zero and self.prox.q == 2.0:
            return self.prox.mu, self.v  # a degree-2 Bregman gap is mu/2 ||x - v||^2
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

    def value_gradient_state(self, x):
        f, g, hs = self.base.value_gradient_state(self._arg(x))
        return self.scale * f, self.scale * self.theta * g, hs

    # with a state, x is not read, so the base oracle is not handed shift + theta·x
    def hessian_vec(self, x, h, state=None):
        arg = x if state is not None else self._arg(x)
        return self.scale * self.theta**2 * self.base.hessian_vec(arg, h, state)

    def hessian(self, x, state=None):
        arg = x if state is not None else self._arg(x)
        return self.scale * self.theta**2 * self.base.hessian(arg, state)


def build_subproblem(problem: ProblemInstance, oracle, x_k, v_k, A_k: float,
                     A_next: float, prox: PowerComposite) -> ProblemInstance:
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
    composite = ScaledComposite(problem.composite, a, prox, v_k)
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
    it instead. The schedule is fixed either way, so ``SolverConfig.validate``
    rejects ``h_mode="linesearch"``, as it does an adaptive ``zeta_policy`` and
    an unknown L_p; it also rejects ``stop="exact"`` (the inner solves stop on
    the certificate) and, at p = 2, ``subsolver="exact"`` (no closed form).
    """
    run = _Runner(problem, config, x0, "accelerated")
    p = config.p
    L = float(config.h_value) if config.h_mode == "fixed" else problem.smooth.lipschitz[p]
    zeta_policy = config.zeta_policy or power(1.0, p + 2)
    inner_policy = config.inner_policy or power(1.0, 1.0)

    prox = PowerComposite(1.0, p + 1, run.x0, run.norm)

    def steps(x, f_x):
        v = x.copy()
        A = 0.0
        for k in itertools.count():
            A_next = (k + 1.0) ** (p + 1) / L
            a = A_next - A
            zeta = zeta_policy.delta(k + 1)
            sub = build_subproblem(run.problem, run.oracle, x, v, A, A_next, prox)
            H_in = p * (a ** (p + 1) / A_next**p) * L
            w = v.copy()
            model = TensorModel(sub.smooth, sub.composite, w, H_in, p=p)
            h_w = model.f0 + sub.composite.value(w)
            floor = precision_floor(h_w)
            h_values = [h_w]
            inner_total = 0
            cert = math.inf
            for j in range(1, INNER_STEPS + 1):
                if inner_policy.kind == "adaptive":
                    delta_in = inner_policy.delta(j, h_values)
                else:
                    delta_in = inner_policy.delta(k + 1)
                solve = functools.partial(solve_model, model, kind=config.subsolver,
                                          objective=sub.value)
                res = monotone_step(h_w, solve, delta_in, floor)
                inner_total += res.inner_iterations
                w = res.point
                h_w = res.objective_value
                h_values.append(h_w)
                model = TensorModel(sub.smooth, sub.composite, w, H_in, p=p)
                cert = subproblem_certificate(
                    sub, w, p, grad=model.g0 + sub.composite.gradient(w))[0]
                if cert <= zeta or res.stationary:
                    break
            if cert > zeta:
                return "stalled"
            v = w
            x = (a * v + A * x) / A_next
            A = A_next
            yield x, run.F(x), zeta, cert, H_in, inner_total, None

    return run.drive(steps)
