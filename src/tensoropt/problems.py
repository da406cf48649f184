"""Problem oracles: smooth objectives, simple composite terms, logistic data.

Each smooth oracle exposes value / gradient / hessian_vec / hessian together
with the norm operator its Lipschitz constants refer to.
``value_gradient_state(x)`` returns value, gradient and the center state: what
every Hessian-vector product at x, and the dense Hessian there, would recompute
(the logistic curvature weights, the smoothed max's softmax weights together
with its gradient, the chain's second derivatives), all from one evaluation of
what they share. A caller that applies the Hessian at one fixed point fetches
the state once and passes it to ``hessian_vec`` or ``hessian``, which then do
not read the point. ``hessian`` returns the dense Hessian in the lower triangle
of a matrix the caller owns, and leaves the strict upper triangle unspecified;
both data oracles' dense Hessians are the lower triangle ``linalg.weighted_syrk``
returns, one sweep over their rows through one cache-sized buffer. The logistic
oracle checks the features and labels it is given and keeps its own copy of the
features in the form they come in: dense from ``synthetic_logistic``, products
by BLAS matvecs, or CSR from ``parse_libsvm``, with a CSR Xᵀ built once. Either
way a gradient or a Hessian-vector product is two matvecs and builds no matrix.
Composite terms are differentiable and report their uniform-convexity
parameters where known; ``PowerComposite`` also serves as the accelerated
scheme's prox-function.

``FAMILIES`` registers the problem families a config stanza names: parameters,
ranges, builder, and the orders whose Lipschitz constant an instance knows.

``ProblemInstance.whitened(origin)`` is the instance in the coordinates
z = Lᵀ(x − origin) of its norm's factor B = L Lᵀ, under the identity norm,
when both its parts have a view there: the smoothed max over its whitened
rows, and a zero composite or a ``PowerComposite`` on the same norm object,
recentred. A run works in those coordinates when the instance has them, and
otherwise in x under the problem's norm.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg.blas import dsyr

from .linalg import FactorizationError, NormOperator, weighted_syrk


# ---------------------------------------------------------------------------
# parameter ranges
# ---------------------------------------------------------------------------

# The range of each oracle and generator parameter, one rule per name. The
# oracles and generators below check theirs through ``check_ranges``, and so
# does ``problem_params`` before anything is built.
PARAM_RANGES = {
    "n": (lambda v: v >= 1, "at least 1"),
    "m": (lambda v: v >= 1, "at least 1"),
    "mu": (lambda v: 0 < v < math.inf, "finite and positive"),
    "l2": (lambda v: 0 <= v < math.inf, "finite and nonnegative"),
    "q": (lambda v: 2 <= v < math.inf, "finite and at least 2"),
    "c": (lambda v: v in (1, 2), "1 or 2"),
    "scale": (math.isfinite, "finite"),
}


def check_ranges(**params) -> None:
    """Raise a ValueError naming the first parameter outside its ``PARAM_RANGES`` rule."""
    for key, val in params.items():
        inside, rule = PARAM_RANGES[key]
        if not inside(val):
            raise ValueError(f"{key} must be {rule}, got {val!r}")


def check_composite(mu, q) -> None:
    """Raise a ValueError unless mu/q·‖x − center‖^q is a convex composite term: mu
    finite and nonnegative, q by its ``PARAM_RANGES`` rule."""
    if not 0 <= mu < math.inf:
        raise ValueError(f"mu must be finite and nonnegative, got {mu!r}")
    check_ranges(q=q)


# ---------------------------------------------------------------------------
# smooth oracles
# ---------------------------------------------------------------------------

class SmoothOracle:
    """Convex, several-times differentiable objective component.

    Subclasses are pure given their data: safe for concurrent evaluation.
    ``lipschitz`` maps derivative order p to a known Lipschitz constant of the
    p-th derivative under ``norm`` (absent entries mean unknown).
    """

    dim: int
    norm: NormOperator
    lipschitz: dict

    def value(self, x) -> float:
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        raise NotImplementedError

    def hessian_vec(self, x, h, state=None) -> np.ndarray:
        """Hessian at x applied to h; ``state``, if given, is ``value_gradient_state(x)[2]``,
        and x is then not read."""
        raise NotImplementedError

    def value_gradient_state(self, x):
        """``(value(x), gradient(x), state)``: the state the Hessian-vector products and
        the dense Hessian at x reuse, or None when there is none. The smoothed max's
        state is (pi, gradient(x)), the softmax weights and the same gradient array."""
        return self.value(x), self.gradient(x), None

    def hessian(self, x, state=None) -> np.ndarray:
        """Dense Hessian at x in the lower triangle of a matrix the caller owns; the
        strict upper triangle is unspecified. ``state``, if given, is
        ``value_gradient_state(x)[2]``, and x is then not read. The smoothed max
        returns it Fortran-ordered, the layout whose lower triangle ``dsygst`` and
        ``dsytrd`` read in place with ``lower=1``."""
        raise NotImplementedError("dense Hessian not available for this oracle")


class QuadraticOracle(SmoothOracle):
    """f(x) = 0.5 <A(x - x0), x - x0> + <b, x>. Mostly a testing aid."""

    def __init__(self, A, b=None, center=None, norm=None):
        self.A = np.asarray(A, dtype=float)
        self.dim = self.A.shape[0]
        self.b = np.zeros(self.dim) if b is None else np.asarray(b, dtype=float)
        self.center = np.zeros(self.dim) if center is None else np.asarray(center, dtype=float)
        self.norm = norm if norm is not None else NormOperator.identity(self.dim)
        self.lipschitz = {2: 0.0}

    def value(self, x):
        d = np.asarray(x, dtype=float) - self.center
        return 0.5 * float(d @ (self.A @ d)) + float(self.b @ x)

    def gradient(self, x):
        d = np.asarray(x, dtype=float) - self.center
        return self.A @ d + self.b

    def hessian_vec(self, x, h, state=None):
        return self.A @ np.asarray(h, dtype=float)

    def hessian(self, x, state=None):
        return self.A.copy()


def _softplus(t):
    # log(1 + exp(t)), stable for large |t|
    t = np.asarray(t, dtype=float)
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


class LogisticOracle(SmoothOracle):
    """Two-class logistic loss (1/m) sum_i log(1 + exp(-y_i <a_i, x>)) + l2/2 ||x||^2.

    The ridge term is folded into the smooth part, so the composite slot of the
    problem stays free. Lipschitz constants refer to the standard Euclidean
    norm; the bound on the third derivative uses max_t |s(t)s(-t)(1-2s(t))| =
    1/(6 sqrt(3)) per example, averaged over the data.

    The oracle keeps its own copy of the features in the form they come in: a dense
    X with Xᵀ its ``.T`` view, or CSR copies of a sparse X and of Xᵀ, built once.
    Non-finite features, and dense ones that are not a matrix, are rejected.
    """

    def __init__(self, features, labels, l2: float = 0.0):
        # the oracle owns its matrices: a later edit of the caller's matrix reaches none
        sparse = scipy.sparse.issparse(features)
        X = features.tocsr(copy=True) if sparse else np.array(features, dtype=float, order="C")
        if X.ndim != 2:
            raise ValueError("features must be a matrix of rows")
        self.y = np.asarray(labels, dtype=float)
        if X.shape[0] == 0:
            raise ValueError("empty dataset")
        if X.shape[0] != self.y.size:
            raise ValueError("feature/label count mismatch")
        if not np.all(np.isfinite(X.data if sparse else X)):
            raise ValueError("features contain non-finite entries")
        if not np.all(np.isin(self.y, (-1.0, 1.0))):
            raise ValueError("labels must be in {-1, +1}")
        check_ranges(l2=l2)
        self.m, self.dim = X.shape
        self.l2 = float(l2)
        self.norm = NormOperator.identity(self.dim)
        # squared row norms, one reduceat in either form: the same bits with no zero entry
        sq = (np.asarray(X.multiply(X).sum(axis=1)).ravel() if sparse else
              np.add.reduceat(np.square(X).ravel(), np.arange(0, X.size, self.dim)))
        L2 = float(np.sum(np.sqrt(sq) ** 3)) / (6.0 * math.sqrt(3.0) * self.m)
        self.lipschitz = {2: L2}
        self.X, self.XT = X, (X.T.tocsr() if sparse else X.T)

    def _margins(self, x):
        return self.y * (self.X @ np.asarray(x, dtype=float))

    def _value(self, x, t):
        return float(_softplus(-t).mean()) + 0.5 * self.l2 * float(x @ x)

    def _gradient(self, x, log_s):
        # d/dt log(1+e^{-t}) = -sigma(-t) = -exp(-log_s), overflow-free
        return -(self.XT @ (self.y * np.exp(-log_s))) / self.m + self.l2 * x

    @staticmethod
    def _state(t, log_s):
        """Curvature weights sigma(t) * sigma(-t) of the margins, overflow-free."""
        return np.exp(-log_s - np.logaddexp(0.0, -t))

    def _curvature(self, x):
        t = self._margins(x)
        return self._state(t, np.logaddexp(0.0, t))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self._value(x, self._margins(x))

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        return self._gradient(x, np.logaddexp(0.0, self._margins(x)))

    def value_gradient_state(self, x):
        x = np.asarray(x, dtype=float)
        t = self._margins(x)
        log_s = np.logaddexp(0.0, t)
        return self._value(x, t), self._gradient(x, log_s), self._state(t, log_s)

    def hessian_vec(self, x, h, state=None):
        h = np.asarray(h, dtype=float)
        w = self._curvature(x) if state is None else state
        u = self.X @ h  # the m-vector temporary is scaled in place
        u *= w
        return (self.XT @ u) / self.m + self.l2 * h

    def hessian(self, x, state=None):
        """Xᵀ·diag(w)·X / m + l2·I. Dense X: in the lower triangle ``weighted_syrk`` fills.
        CSR X: whole, Xᵀ·diag(w) by scaling a copy's values, one sparse product."""
        w = self._curvature(x) if state is None else state
        if isinstance(self.X, np.ndarray):
            H = weighted_syrk(self.X, w, 1.0)
            H /= self.m
        else:
            XTw = self.XT.copy()
            XTw.data *= w[XTw.indices]
            H = (XTw @ self.X).toarray() / self.m
        H[np.diag_indices(self.dim)] += self.l2
        return H


class LogSumExpOracle(SmoothOracle):
    """Smoothed max f(x) = mu * log(sum_i exp((<a_i, x> - b_i)/mu)).

    Evaluation subtracts the running max before exponentiating, so it cannot
    overflow. When the norm is the Gram operator of the rows, the Lipschitz
    constants are 1/mu, 2/mu^2, 4/mu^3 for orders 1..3. A is not copied, and the
    first ``whitened`` view caches the whitened rows W = A L⁻ᵀ, which
    ``norm.factor_solve(A)`` returns C-ordered, so A must not change after
    construction.

    The oracle keeps the softmax (pi, log-sum-exp) of the last point evaluated,
    keyed on its bytes, so F at an accepted step and the next model's
    ``value_gradient_state`` there share one; a point edited in place, a flipped
    signed zero or a point without a finite log-sum-exp is computed afresh.
    Callers share the returned pi, and the gradient with the state (pi, gradient)
    that ``value_gradient_state`` returns, and never write either.
    """

    def __init__(self, A, b=None, mu: float = 1.0, norm=None):
        self.A = np.asarray(A, dtype=float)
        if self.A.ndim != 2:
            raise ValueError("A must be a matrix of rows")
        self.m, self.dim = self.A.shape
        self.b = np.zeros(self.m) if b is None else np.asarray(b, dtype=float)
        if self.b.shape != (self.m,):
            raise ValueError("b must have one entry per row of A")
        check_ranges(mu=mu)
        self.mu = float(mu)
        if norm is None:
            self.norm = NormOperator.gram(self.A)
            self.lipschitz = {1: 1.0 / mu, 2: 2.0 / mu**2, 3: 4.0 / mu**3}
        else:
            self.norm = norm
            self.lipschitz = {}
        self._rows = None  # W = A L⁻ᵀ, built by the first whitened view
        self._last = (None, None, None)  # (bytes of x, pi, lse) of the last point

    def _weights(self, x):
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        last = self._last
        if last[0] == key:
            return last[1:]
        z = (self.A @ x - self.b) / self.mu
        zmax = float(z.max())
        e = np.exp(z - zmax)
        total = float(e.sum())
        pi, lse = e / total, zmax + math.log(total)
        if math.isfinite(lse):
            self._last = (key, pi, lse)
        return pi, lse

    def value(self, x):
        _, lse = self._weights(x)
        return self.mu * lse

    def gradient(self, x):
        pi, _ = self._weights(x)
        return self.A.T @ pi

    def value_gradient_state(self, x):
        pi, lse = self._weights(x)
        g = self.A.T @ pi
        return self.mu * lse, g, (pi, g)

    def hessian_vec(self, x, h, state=None):
        h = np.asarray(h, dtype=float)
        pi = self._weights(x)[0] if state is None else state[0]
        u = self.A @ h  # the m-vector temporary is centred and scaled in place
        u -= float(pi @ u)
        u *= pi
        return (self.A.T @ u) / self.mu

    def hessian(self, x, state=None):
        """Aᵀ(diag pi − pi piᵀ)A / mu in the lower triangle of a Fortran-ordered matrix:
        ``weighted_syrk`` with weights pi, then one ``dsyr`` of the gradient Aᵀpi."""
        pi, g = self.value_gradient_state(x)[2] if state is None else state
        hess = weighted_syrk(self.A, pi, 1.0 / self.mu)
        return dsyr(-1.0 / self.mu, g, lower=1, a=hess, overwrite_a=1)

    def whitened(self, origin) -> "LogSumExpOracle":
        """z ↦ f(origin + L⁻ᵀz) under the identity norm: the smoothed max over the
        whitened rows W = A L⁻ᵀ (cached on the first call) with offsets
        b − A·origin, and this oracle's Lipschitz constants, which the change of
        variables preserves. At z = 0 its arguments are those of f at origin,
        rounded alike, so its value there is f(origin) bit for bit."""
        if self._rows is None:
            self._rows = self.norm.factor_solve(self.A)
        view = LogSumExpOracle(self._rows, self.b - self.A @ np.asarray(origin, dtype=float),
                               self.mu, norm=NormOperator.identity(self.dim))
        view.lipschitz = dict(self.lipschitz)
        return view


class PoweredChainOracle(SmoothOracle):
    """f(x) = |x_1|^q + sum_{i>=2} |x_i - c x_{i-1}|^q, global minimum at 0.

    Twice differentiable for q >= 2. The differences u = M x and the products
    with Mᵀ, M the bidiagonal differencing matrix, take O(n) without forming M.
    For q = 3 the third derivative is globally bounded, with Lipschitz constant
    6 * smax(M)^3 in the standard norm, smax^2 the top eigenvalue of MᵀM.
    """

    def __init__(self, n: int, q: float = 3.0, c: float = 1.0):
        check_ranges(n=n, q=q, c=c)
        self.dim = int(n)
        self.q = float(q)
        self.c = float(c)
        self.norm = NormOperator.identity(self.dim)
        if self.q == 3.0:
            # MᵀM is tridiagonal: diagonal 1 + c², ..., 1 + c², 1 and off-diagonal -c
            diag = np.append(np.full(self.dim - 1, 1.0 + self.c**2), 1.0)
            top = scipy.linalg.eigvalsh_tridiagonal(diag, np.full(self.dim - 1, -self.c),
                                                    select="i", select_range=(self.dim - 1,) * 2)
            self.lipschitz = {2: 6.0 * math.sqrt(top[0]) ** 3}
        else:
            self.lipschitz = {}

    def _u(self, x):
        """M x: the differences x_i - c x_{i-1}, after x_1."""
        x = np.asarray(x, dtype=float)
        u = x.copy()
        u[1:] -= self.c * x[:-1]
        return u

    def _mt(self, s):
        """Mᵀ s, the adjoint difference s_i - c s_{i+1}, before s_n."""
        out = s.copy()
        out[:-1] -= self.c * s[1:]
        return out

    def _value(self, u):
        return float((np.abs(u) ** self.q).sum())

    def _gradient(self, u):
        return self._mt(self.q * np.sign(u) * np.abs(u) ** (self.q - 1.0))

    def _phi2(self, u):
        """Second derivatives of the powers at the differences u = M x."""
        return self.q * (self.q - 1.0) * np.abs(u) ** (self.q - 2.0)

    def value(self, x):
        return self._value(self._u(x))

    def gradient(self, x):
        return self._gradient(self._u(x))

    def value_gradient_state(self, x):
        u = self._u(x)
        return self._value(u), self._gradient(u), self._phi2(u)

    def hessian_vec(self, x, h, state=None):
        phi2 = self._phi2(self._u(x)) if state is None else state
        return self._mt(phi2 * self._u(h))

    def hessian(self, x, state=None):
        """The tridiagonal Mᵀ diag(phi2) M: diagonal phi2_i + c² phi2_{i+1}, off-diagonal
        -c phi2_{i+1}."""
        phi2 = self._phi2(self._u(x)) if state is None else state
        off = np.diag(-self.c * phi2[1:], 1)
        return np.diag(phi2 + np.append(self.c**2 * phi2[1:], 0.0)) + off + off.T


# ---------------------------------------------------------------------------
# composite terms
# ---------------------------------------------------------------------------

class Composite:
    """Differentiable simple convex term added to the smooth objective."""

    def value(self, x) -> float:
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        raise NotImplementedError

    def value_and_gradient(self, x):
        """``(value(x), gradient(x))``; a subclass may share work between the two."""
        return self.value(x), self.gradient(x)

    def uniform_convexity(self, degree: int) -> float:
        """Known uniform-convexity parameter of the given degree (0 if none)."""
        return 0.0

    @property
    def is_zero(self) -> bool:
        return False

    @property
    def quadratic_coeff(self):
        """(mu, center) when the term is mu/2 ||x - center||^2, else None."""
        return None

    def whitened(self, norm: NormOperator, origin) -> "Composite | None":
        """z ↦ psi(origin + L⁻ᵀz) for the factor L of the problem's ``norm``, as a
        term under the identity norm, or None when the term has no such view."""
        return None


class ZeroComposite(Composite):
    def __init__(self, dim: int):
        self.dim = dim

    def whitened(self, norm, origin):
        return self

    def value(self, x):
        return 0.0

    def gradient(self, x):
        return np.zeros(self.dim)

    @property
    def is_zero(self):
        return True


class PowerComposite(Composite):
    """mu/q * ||x - center||^q in the norm of the problem.

    Uniformly convex of degree q with parameter mu * 2^(2-q).
    """

    def __init__(self, mu: float, q: float, center, norm: NormOperator):
        check_composite(mu, q)
        self.mu = float(mu)
        self.q = float(q)
        self.center = np.asarray(center, dtype=float)
        self.norm = norm

    def value(self, x):
        d = np.asarray(x, dtype=float) - self.center
        r = math.sqrt(d.dot(d)) if self.norm.kind == "identity" else self.norm.primal(d)
        return self.mu * r**self.q / self.q

    def gradient(self, x):
        return self.value_and_gradient(x)[1]

    def value_and_gradient(self, x):
        """Both from one B·d, d = x − center, which also gives the norm; under the
        identity B·d is d, and both norms are ``norm``'s expressions, with no call."""
        d = np.asarray(x, dtype=float) - self.center
        bd, r = ((d, math.sqrt(max(0.0, float(d.dot(d))))) if self.norm.kind == "identity"
                 else self.norm.apply_and_primal(d))
        return self.mu * r**self.q / self.q, self.mu * r ** (self.q - 2.0) * bd

    def uniform_convexity(self, degree):
        if degree == self.q:
            return self.mu * 2.0 ** (2.0 - self.q)
        return 0.0

    @property
    def quadratic_coeff(self):
        if self.q == 2.0:
            return self.mu, self.center
        return None

    def whitened(self, norm, origin):
        """On its own norm, the same term under the identity norm, centred at
        Lᵀ(center − origin): ‖x − center‖_B = ‖z − Lᵀ(center − origin)‖. On any
        other norm object, None."""
        if norm is not self.norm:
            return None
        return PowerComposite(self.mu, self.q, norm.factor_apply(self.center - origin),
                              NormOperator.identity(norm.dim))


# ---------------------------------------------------------------------------
# problem instances
# ---------------------------------------------------------------------------

@dataclass
class ProblemInstance:
    """Composite objective F = f + psi with optional known optimum."""

    smooth: SmoothOracle
    composite: Composite
    name: str = "problem"
    known_optimum: tuple | None = None  # (x_star, F_star)

    @property
    def dim(self):
        return self.smooth.dim

    @property
    def norm(self):
        return self.smooth.norm

    def value(self, x) -> float:
        return self.smooth.value(x) + self.composite.value(x)

    def gradient(self, x) -> np.ndarray:
        return self.smooth.gradient(x) + self.composite.gradient(x)

    def whitened(self, origin) -> "ProblemInstance":
        """z ↦ F(origin + L⁻ᵀz) under the identity norm, for the factor L of the
        norm B = L Lᵀ, with the known optimum mapped to (Lᵀ(x* − origin), F*),
        when both parts have a view of their own: the oracle's
        ``whitened(origin)`` and the composite's ``whitened(norm, origin)``.
        Otherwise, and under the identity norm, this instance itself, which a
        run then solves in x under its own norm. The composite is asked first,
        so an instance that keeps its coordinates builds no oracle view."""
        norm = self.norm
        if norm.kind == "identity":
            return self
        origin = np.asarray(origin, dtype=float)
        composite = self.composite.whitened(norm, origin)
        view = getattr(self.smooth, "whitened", None)
        if composite is None or view is None:
            return self
        known = self.known_optimum
        if known is not None:
            known = (norm.factor_apply(known[0] - origin), known[1])
        return ProblemInstance(view(origin), composite, self.name, known)


def logistic_oracle(features, labels, l2: float = 0.0) -> LogisticOracle:
    return LogisticOracle(features, labels, l2=l2)


def check_shifted_logsumexp(n: int, m: int, mu: float) -> None:
    """Raise a ValueError unless the parameters of a shifted instance are in range."""
    check_ranges(n=n, m=m, mu=mu)
    if m <= n:
        raise ValueError(f"need m > n: the shift leaves rank(A) <= m - 1, got n={n}, m={m}")


def generate_shifted_logsumexp(n: int, m: int, mu: float, seed: int) -> ProblemInstance:
    """Random smoothed-max instance with the optimum placed at the origin.

    Coefficients are uniform on [-1, 1]; rows are then shifted by the gradient
    at zero so the shifted objective has exactly zero gradient at the origin.
    The shift leaves Aᵀπ = 0 for the softmax weights π at the origin, so
    rank(A) <= m - 1 and a full-rank Gram operator needs m > n. Regenerates on
    a rank-deficient Gram operator, failing after 10 attempts.
    """
    check_shifted_logsumexp(n, m, mu)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        A_raw = rng.uniform(-1.0, 1.0, size=(m, n))
        b = rng.uniform(-1.0, 1.0, size=m)
        pre = LogSumExpOracle(A_raw, b=b, mu=mu, norm=NormOperator.identity(n))
        A_raw -= pre.gradient(np.zeros(n))[None, :]  # in place: one m×n array at a time
        try:
            oracle = LogSumExpOracle(A_raw, b=b, mu=mu)  # Gram norm of the shifted rows
        except FactorizationError:
            continue
        x_star = np.zeros(n)
        return ProblemInstance(
            smooth=oracle,
            composite=ZeroComposite(n),
            name=f"logsumexp(n={n},m={m},mu={mu})",
            known_optimum=(x_star, oracle.value(x_star)),
        )
    raise RuntimeError("could not generate a full-rank instance in 10 attempts")


def powered_chain_oracle(n: int, q: float = 3.0, c: float = 1.0) -> ProblemInstance:
    oracle = PoweredChainOracle(n, q=q, c=c)
    return ProblemInstance(
        smooth=oracle,
        composite=ZeroComposite(n),
        name=f"chain(n={n},q={q},c={c})",
        known_optimum=(np.zeros(n), 0.0),
    )


def synthetic_logistic(n: int, m: int, l2: float, seed: int, scale: float = 1.0) -> ProblemInstance:
    """Random two-class logistic instance with labels from a planted predictor."""
    check_ranges(n=n, m=m, l2=l2, scale=scale)
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(m, n)) * scale
    w = rng.normal(size=n)
    margins = X @ w + 0.5 * rng.normal(size=m)
    y = np.where(margins >= 0, 1.0, -1.0)
    return ProblemInstance(logistic_oracle(X, y, l2=l2), ZeroComposite(n),
                           f"logistic-synth(n={n},m={m},l2={l2})")


def parse_libsvm(path) -> tuple[scipy.sparse.csr_matrix, np.ndarray]:
    """``(features, labels)``, CSR and ±1, of a text file of lines ``label idx:val ...``.

    Indices are 1-based and strictly ascending within a line, labels and values
    finite; the two label values map, in sorted order, to -1 and +1.
    """
    labels = []
    rows = []
    cols = []
    vals = []
    n_max = 0
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            try:
                label = float(tokens[0])
                if not math.isfinite(label):
                    raise ValueError
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad label {tokens[0]!r}") from exc
            prev_idx = 0
            for tok in tokens[1:]:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx = int(idx_s)
                    val = float(val_s)
                    if not math.isfinite(val):
                        raise ValueError
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: bad entry {tok!r}") from exc
                if idx <= prev_idx:
                    raise ValueError(f"line {lineno}: indices must be ascending (got {idx})")
                prev_idx = idx
                rows.append(len(labels))
                cols.append(idx - 1)
                vals.append(val)
                n_max = max(n_max, idx)
            labels.append(label)
    if not labels:
        raise ValueError("empty dataset file")
    y = np.asarray(labels)
    uniq = np.unique(y)
    if uniq.size != 2:
        raise ValueError(f"expected two label classes, found {uniq.size}")
    mapped = np.where(y == uniq[0], -1.0, 1.0)
    X = scipy.sparse.csr_matrix(
        (vals, (rows, cols)), shape=(len(labels), n_max), dtype=float
    )
    return X, mapped


def libsvm_logistic(path, l2: float = 0.0) -> ProblemInstance:
    oracle = logistic_oracle(*parse_libsvm(path), l2=l2)
    return ProblemInstance(smooth=oracle, composite=ZeroComposite(oracle.dim),
                           name=f"logistic({os.path.basename(path)},l2={l2})")


# ---------------------------------------------------------------------------
# problem registry
# ---------------------------------------------------------------------------

# name -> ({param: (type, default)}, range check, build(seed, **params), orders(params)).
# A callable default derives the value from the parameters before it, and None makes
# the parameter required; builders are looked up by their module name at each call.
FAMILIES = {
    "logsumexp": ({"n": (int, 100), "m": (int, lambda params: 6 * params["n"]),
                   "mu": (float, 0.05)}, check_shifted_logsumexp,
                  lambda seed, **k: generate_shifted_logsumexp(**k, seed=seed),
                  lambda params: (1, 2, 3)),
    "logistic": ({"path": (str, None), "l2": (float, 0.0)},
                 lambda path, l2: check_ranges(l2=l2),
                 lambda seed, **k: libsvm_logistic(**k), lambda params: (2,)),
    "logistic-synth": ({"n": (int, 50), "m": (int, 300), "l2": (float, 1e-2),
                        "scale": (float, 1.0)}, check_ranges,
                       lambda seed, **k: synthetic_logistic(**k, seed=seed),
                       lambda params: (2,) if params["scale"] else ()),
    "chain": ({"n": (int, 20), "q": (float, 3.0), "c": (float, 1.0)}, check_ranges,
              lambda seed, **k: powered_chain_oracle(**k),
              lambda params: (2,) if params["q"] == 3 else ()),
}


def _convert(kind, val):
    """``kind(val)``, refusing a bool, and, for an int, a float with a fractional
    part instead of truncating it."""
    if isinstance(val, bool) or (kind is int and isinstance(val, float)
                                 and not val.is_integer()):
        raise ValueError
    return kind(val)


def problem_params(spec: dict) -> tuple[str, dict]:
    """(name, parameters) of a problem stanza, each parameter converted to its
    type and checked against its range, defaults filled in; a ValueError names
    the stanza's first fault, a bad value before a missing one. Nothing is
    generated or read."""
    name = spec.get("name") if isinstance(spec, dict) else None
    family = FAMILIES.get(name) if isinstance(name, str) else None
    if family is None:
        raise ValueError(f"problem stanza {spec!r} names none of {', '.join(FAMILIES)}")
    table, check, _, _ = family
    given = {key: val for key, val in spec.items() if key != "name"}
    extras = set(given) - set(table)
    if extras:
        raise ValueError(f"unknown parameters for problem {name!r}: {sorted(extras)}")
    for key, val in given.items():
        kind = table[key][0]
        try:
            given[key] = _convert(kind, val)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"problem {name!r}: {key}={val!r} is not a valid "
                             f"{kind.__name__}") from None
    params = {}
    for key, (_, default) in table.items():
        val = given.get(key, default)
        if val is None:
            raise ValueError(f"problem {name!r} needs a {key}")
        params[key] = val(params) if callable(val) else val
    try:
        check(**params)
    except ValueError as exc:
        raise ValueError(f"problem {name!r}: {exc}") from None
    return name, params


def build_problem(spec: dict, seed: int) -> ProblemInstance:
    """Instantiate a problem from its config stanza."""
    name, params = problem_params(spec)
    return FAMILIES[name][2](seed, **params)

