"""Gate instruments: finite-difference derivative checks, the majorization
check of a frozen model, and the constants of the strongly convex rate.

No run reads these; the tests use them to check the library's oracles,
models and schedules against independent computations.
"""

import math
from dataclasses import dataclass, field

import numpy as np


# ---------------------------------------------------------------------------
# derivative verification
# ---------------------------------------------------------------------------

@dataclass
class DerivativeReport:
    max_gradient_error: float
    max_hessian_vec_error: float
    tolerance: float
    trials: int
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.max_gradient_error <= self.tolerance
            and self.max_hessian_vec_error <= self.tolerance
        )


def fd_step(x) -> float:
    """Central-difference step balancing truncation against rounding."""
    eps = np.finfo(float).eps
    return eps ** (1.0 / 3.0) * (1.0 + float(np.linalg.norm(x)))


def fd_gradient(fn, x, step=None) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    t = fd_step(x) if step is None else step
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = t
        g[i] = (fn(x + e) - fn(x - e)) / (2.0 * t)
    return g


def fd_directional_hessian(grad_fn, x, h, step=None) -> np.ndarray:
    """Central differences of the gradient along h, approximating H(x) h."""
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    t = fd_step(x) if step is None else step
    return (grad_fn(x + t * h) - grad_fn(x - t * h)) / (2.0 * t)


def check_derivatives(oracle, trials: int = 50, seed: int = 0,
                      tol: float = 1e-4, scale: float = 0.5) -> DerivativeReport:
    """Compare analytic gradient / hessian_vec against central differences."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    max_g = 0.0
    max_h = 0.0
    failures = []
    for t in range(trials):
        x = rng.normal(size=oracle.dim) * scale
        h = rng.normal(size=oracle.dim)
        h /= np.linalg.norm(h)
        g_fd = fd_gradient(oracle.value, x)
        g_an = oracle.gradient(x)
        err_g = float(np.linalg.norm(g_fd - g_an) / (1.0 + np.linalg.norm(g_an)))
        hv_fd = fd_directional_hessian(oracle.gradient, x, h)
        hv_an = oracle.hessian_vec(x, h)
        err_h = float(np.linalg.norm(hv_fd - hv_an) / (1.0 + np.linalg.norm(hv_an)))
        max_g = max(max_g, err_g)
        max_h = max(max_h, err_h)
        if err_g > tol or err_h > tol:
            failures.append((t, err_g, err_h))
    return DerivativeReport(max_g, max_h, tol, trials, failures)


# ---------------------------------------------------------------------------
# model majorization
# ---------------------------------------------------------------------------

@dataclass
class UpperBoundReport:
    samples: int
    max_excess: float          # max over samples of F(y) - model(y)
    max_taylor_excess: float   # max violation of the two-sided Taylor bound
    tolerance: float
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.max_excess <= self.tolerance and self.max_taylor_excess <= self.tolerance


def model_upper_bound_check(model, problem, samples: int = 100,
                            seed: int = 0, radius: float = 2.0,
                            tol: float = 1e-10) -> UpperBoundReport:
    """Sample y in a ball around the center and verify the majorization.

    Checks F(y) <= model(y) + tol and |f(y) - taylor(y)| <= L_p r^{p+1}/(p+1)!
    + tol; requires the oracle's Lipschitz constant of order p to be known and
    model.H to be at least that constant.
    """
    Lp = problem.smooth.lipschitz.get(model.p)
    if Lp is None:
        raise ValueError("Lipschitz constant of the model order is not known")
    if model.H < Lp:
        raise ValueError("model weight H is below the Lipschitz constant")
    rng = np.random.default_rng(seed)
    max_excess = -np.inf
    max_taylor = -np.inf
    violations = []
    fact = math.factorial(model.p + 1)
    for i in range(samples):
        step = rng.normal(size=model.center.size)
        r = model.norm.primal(step)
        if r > 0:
            step *= rng.uniform(0.0, radius) / r
        y = model.center + step
        r = model.norm.primal(step)
        excess = problem.value(y) - model.value(y)
        taylor_excess = abs(problem.smooth.value(y) - model.taylor_value(y)) - Lp * r ** (model.p + 1) / fact
        max_excess = max(max_excess, excess)
        max_taylor = max(max_taylor, taylor_excess)
        if excess > tol or taylor_excess > tol:
            violations.append((i, excess, taylor_excess))
    return UpperBoundReport(samples, float(max_excess), float(max_taylor), tol, violations)


# ---------------------------------------------------------------------------
# constants of the strongly convex (linear) rate
# ---------------------------------------------------------------------------

def condition_number(p: int, lipschitz: float, sigma: float) -> float:
    """Degree-p condition number max{(p+1)^2 L_p / (p! sigma_{p+1}), 1}."""
    if sigma <= 0:
        raise ValueError("uniform convexity parameter must be positive")
    return max((p + 1) ** 2 * lipschitz / (math.factorial(p) * sigma), 1.0)


def strong_convexity_c_bound(p: int, omega: float) -> tuple[float, float]:
    """(supremum, recommended value) of c for a linear rate at condition number omega."""
    if omega < 1:
        raise ValueError("condition number must be at least 1")
    sup = p / (p + 1.0) * omega ** (-1.0 / p)
    return sup, 0.5 * sup
