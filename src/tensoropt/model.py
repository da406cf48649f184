"""Regularized Taylor model of the composite objective, frozen at a center.

For order p in {1, 2} the model of F = f + psi around x is

    taylor_p(f, x; y) + H * ||y - x||^{p+1} / (p+1)! + psi(y),

which upper-bounds F once H is at least the Lipschitz constant of the p-th
derivative. The (p+1)! in the regularizer (6 for p = 2, not 3) is easy to get
wrong; a dedicated unit test pins it.

An exact step reads ``TensorModel.whitened_hessian``, built from the lower
triangle of the oracle's dense Hessian, which is all ``SmoothOracle.hessian``
promises: whitening, the Lanczos products (``dsymv``) and the tridiagonal
reduction read that triangle alone. It assumes a convex model, a positive
semidefinite Hessian and a composite weight >= 0, as every oracle of the
library gives (see ``subsolvers.exact_cubic_step``).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .linalg import tridiagonal_form


class TensorModel:
    """Order-p model frozen at a center point; immutable once built, but for
    ``minimum``, the exact model minimum that a stop="exact" solve keeps on it,
    and the dense curvature of an order-2 model's center, ``dense_curvature``.

    The oracle's center state is fetched here by ``value_gradient_state``,
    together with the value and gradient, and every Hessian-vector product
    reuses it. An exact step, or an exact stopping rule, reads
    ``whitened_hessian``: its first read fetches ``oracle.hessian`` from the
    same state and whitens it by the norm's factor (``norm.whiten``; the
    identity norm leaves it as it is), and the center keeps it. A step that
    Lanczos converges on (see ``subsolvers.exact_cubic_step``) needs nothing
    more. Only a fallback reads ``reduction``, which reduces M to tridiagonal
    form in place, rejecting a non-finite lower triangle with ``LinAlgError``;
    from then on the center keeps the (d, e, V, tau) of
    ``linalg.tridiagonal_form`` instead of M, and every exact step on it
    solves on that T. Both live in ``dense_curvature``, which ``with_weight``
    copies share, so a center makes at most one ``hessian`` call and is
    reduced at most once. A copy has its own ``minimum``; the line search, the
    one caller that tries several weights at a center, keeps one copy per
    weight (see ``methods._Runner.solver``). Model values and gradients never
    read the dense Hessian; their curvature action is always the oracle's
    Hessian-vector product.

    A run works in factor coordinates, under the identity norm, when its oracle
    and its composite both have a view there, and otherwise in x under the
    problem's norm. Under the identity norm (``identity_norm``, read once) an
    evaluation makes no ``NormOperator`` call: B·d is d itself, and ‖d‖ the
    expression ``norm.primal`` or ``norm.apply_and_primal`` computes, bit for
    bit. A zero composite adds nothing to a value or a gradient.
    """

    def __init__(self, oracle, composite, center, H: float, p: int = 2):
        if p not in (1, 2):
            raise ValueError("model order must be 1 or 2")
        if H <= 0:
            raise ValueError("regularization weight H must be positive")
        self.p = int(p)
        self.H = float(H)
        self.center = np.asarray(center, dtype=float).copy()
        self.oracle = oracle
        self.composite = composite
        self.norm = oracle.norm
        self.identity_norm = self.norm.kind == "identity"
        self._psi = None if composite.is_zero else composite
        self.f0, self.g0, self._hess_state = oracle.value_gradient_state(self.center)
        # shared by with_weight copies: M until its reduction overwrites it, that
        # reduction, and the Lanczos state of exact steps on M
        self.dense_curvature = (SimpleNamespace(hessian=None, reduction=None, lanczos=None)
                                if p == 2 else None)
        self._reg_scale = self.H / math.factorial(self.p + 1)
        self.minimum = None

    @property
    def whitened_hessian(self) -> np.ndarray:
        """M = L⁻¹ ∇²f(center) L⁻ᵀ for the norm's factor L, Fortran-ordered, of
        which only the lower triangle is meaningful; fetched on first read and
        kept until ``reduction`` overwrites it."""
        curv = self.dense_curvature
        if curv.hessian is None:
            hess = np.asfortranarray(self.oracle.hessian(self.center, self._hess_state))
            curv.hessian = hess if self.identity_norm else self.norm.whiten(hess)
        return curv.hessian

    @property
    def reduction(self):
        """(d, e, V, tau) of M, reduced in place on first read; None for an order-1 model."""
        curv = self.dense_curvature
        if curv is None:
            return None
        if curv.reduction is None:
            M = self.whitened_hessian
            curv.hessian = curv.lanczos = None
            curv.reduction = tridiagonal_form(M)
        return curv.reduction

    def hess_action(self, d) -> np.ndarray:
        """Curvature action of the frozen smooth part on a direction."""
        if self.p == 1:
            return np.zeros_like(self.center)
        return self.oracle.hessian_vec(self.center, d, self._hess_state)

    def _at(self, y, hd):
        """(y, d = y − center, hd), with the curvature product computed when omitted."""
        y = np.asarray(y, dtype=float)
        d = y - self.center
        if self.p == 2 and hd is None:
            hd = self.hess_action(d)
        return y, d, hd

    def _taylor(self, d, hd) -> float:
        t = self.f0 + float(self.g0.dot(d))
        if self.p == 2:
            t += 0.5 * float(hd.dot(d))
        return t

    def _value(self, d, hd, r) -> float:
        return self._taylor(d, hd) + self._reg_scale * r ** (self.p + 1)

    def _gradient(self, hd, bd, r) -> np.ndarray:
        g = self.g0 + hd if self.p == 2 else self.g0
        return g + (self.H / math.factorial(self.p)) * r ** (self.p - 1) * bd

    def taylor_value(self, y, hd=None) -> float:
        """Value of the order-p Taylor polynomial of f alone."""
        _, d, hd = self._at(y, hd)
        return self._taylor(d, hd)

    def value(self, y, hd=None) -> float:
        """Model value at y; ``hd``, if given, is the curvature product H·(y − center)."""
        y, d, hd = self._at(y, hd)
        m = self._value(d, hd, math.sqrt(d.dot(d)) if self.identity_norm else self.norm.primal(d))
        return m if self._psi is None else m + self._psi.value(y)

    def gradient(self, y, hd=None) -> np.ndarray:
        """Model gradient at y; ``hd`` as in ``value``, computed here when omitted."""
        return self.value_and_gradient(y, hd)[1]

    def value_and_gradient(self, y, hd=None):
        """``(value(y, hd), gradient(y, hd))``, sharing one curvature product, B·d and psi."""
        y, d, hd = self._at(y, hd)
        bd, r = ((d, math.sqrt(max(0.0, float(d.dot(d))))) if self.identity_norm
                 else self.norm.apply_and_primal(d))
        m, g = self._value(d, hd, r), self._gradient(hd, bd, r)
        if self._psi is None:
            return m, g
        psi, dpsi = self._psi.value_and_gradient(y)
        return m + psi, g + dpsi

    def with_weight(self, H: float) -> "TensorModel":
        """The same frozen model under another regularization weight (no oracle
        call): a new model that shares this one's ``dense_curvature``, with no ``minimum``."""
        if H <= 0:
            raise ValueError("regularization weight H must be positive")
        other = copy.copy(self)
        other.H = float(H)
        other._reg_scale = other.H / math.factorial(self.p + 1)
        other.minimum = None
        return other

    def uniform_convexity(self) -> float:
        """Degree-(p+1) uniform convexity available from the regularizer and psi.

        The power regularizer contributes H * 2^(1-p) / p!; a composite that is
        itself uniformly convex of degree p+1 adds its own parameter.
        """
        sigma = self.H * 2.0 ** (1.0 - self.p) / math.factorial(self.p)
        return sigma + self.composite.uniform_convexity(self.p + 1)


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


def model_upper_bound_check(model: TensorModel, problem, samples: int = 100,
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
