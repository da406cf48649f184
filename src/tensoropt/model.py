"""Regularized Taylor model of the composite objective, frozen at a center.

For order p in {1, 2} the model of F = f + psi around x is

    taylor_p(f, x; y) + H * ||y - x||^{p+1} / (p+1)! + psi(y),

which upper-bounds F once H is at least the Lipschitz constant of the p-th
derivative. The (p+1)! in the regularizer (6 for p = 2, not 3) is easy to get
wrong; a dedicated unit test pins it.

An exact step solves on the center's dense curvature, which
``subsolvers`` fetches, whitens, reduces and keeps in the model's
``dense_curvature`` slot (see ``subsolvers.exact_cubic_step``); it assumes a
convex model, a positive semidefinite Hessian and a composite weight >= 0, as
every oracle of the library gives. The checks that a model majorizes F live
with the tests (``tests/instruments.py``), since no run reads them.
"""

from __future__ import annotations

import copy
import math

import numpy as np


class TensorModel:
    """Order-p model frozen at a center point; immutable once built, but for
    ``minimum``, the exact model minimum that a stop="exact" solve keeps on it,
    and the dense curvature of an order-2 model's center, ``dense_curvature``.

    The oracle's center state is fetched here by ``value_gradient_state``,
    together with the value and gradient, and kept as ``center_state``; every
    Hessian-vector product reuses it, and so does the one dense Hessian an
    exact step fetches. ``dense_curvature`` is a dict, empty at construction,
    in which ``subsolvers`` keeps what an exact step has of the center's dense
    curvature (the whitened Hessian, its tridiagonal reduction or a Lanczos
    basis); ``with_weight`` copies share it, so a center makes at most one
    ``hessian`` call and is reduced at most once. A copy has its own
    ``minimum``; the line search, the one caller that tries several weights at
    a center, keeps one copy per weight (see ``methods._Runner.solver``). Model
    values and gradients never read the dense Hessian; their curvature action
    is always the oracle's Hessian-vector product.

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
        self.f0, self.g0, self.center_state = oracle.value_gradient_state(self.center)
        self.dense_curvature = {} if p == 2 else None  # shared by with_weight copies
        self._reg_scale = self.H / math.factorial(self.p + 1)
        self.minimum = None

    def hess_action(self, d) -> np.ndarray:
        """Curvature action of the frozen smooth part on a direction."""
        if self.p == 1:
            return np.zeros_like(self.center)
        return self.oracle.hessian_vec(self.center, d, self.center_state)

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
