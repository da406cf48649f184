"""Problem oracles: smooth objectives, simple composite terms, data handling.

Each smooth oracle exposes value / gradient / hessian_vec / hessian together
with the norm operator its Lipschitz constants refer to. Composite terms are
differentiable and report their uniform-convexity parameters where known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .linalg import FactorizationError, NormOperator


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

    def hessian_vec(self, x, h) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, x) -> np.ndarray:
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

    def hessian_vec(self, x, h):
        return self.A @ np.asarray(h, dtype=float)

    def hessian(self, x):
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
    """

    def __init__(self, features, labels, l2: float = 0.0):
        if scipy.sparse.issparse(features):
            self.X = features.tocsr()
        else:
            self.X = scipy.sparse.csr_matrix(np.asarray(features, dtype=float))
        self.y = np.asarray(labels, dtype=float)
        if self.X.shape[0] == 0:
            raise ValueError("empty dataset")
        if self.X.shape[0] != self.y.size:
            raise ValueError("feature/label count mismatch")
        if not np.all(np.isin(self.y, (-1.0, 1.0))):
            raise ValueError("labels must be in {-1, +1}")
        if l2 < 0:
            raise ValueError("l2 must be nonnegative")
        self.m, self.dim = self.X.shape
        self.l2 = float(l2)
        self.norm = NormOperator.identity(self.dim)
        row_norms = np.sqrt(np.asarray(self.X.multiply(self.X).sum(axis=1)).ravel())
        L2 = float(np.sum(row_norms**3)) / (6.0 * math.sqrt(3.0) * self.m)
        self.lipschitz = {2: L2}

    def _margins(self, x):
        return self.y * (self.X @ np.asarray(x, dtype=float))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        t = self._margins(x)
        return float(np.mean(_softplus(-t))) + 0.5 * self.l2 * float(x @ x)

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        t = self._margins(x)
        # d/dt log(1+e^{-t}) = -sigma(-t), computed overflow-free
        s = np.exp(-np.logaddexp(0.0, t))
        g = -(self.X.T @ (self.y * s)) / self.m
        return np.asarray(g).ravel() + self.l2 * x

    def _curvature_weights(self, x):
        # sigma(t) * sigma(-t), overflow-free
        t = self._margins(x)
        return np.exp(-np.logaddexp(0.0, t) - np.logaddexp(0.0, -t))

    def hessian_vec(self, x, h):
        h = np.asarray(h, dtype=float)
        w = self._curvature_weights(x)
        v = self.X @ h
        out = (self.X.T @ (w * v)) / self.m
        return np.asarray(out).ravel() + self.l2 * h

    def hessian(self, x):
        w = self._curvature_weights(x)
        Xw = self.X.multiply(w[:, None])
        H = (Xw.T @ self.X).toarray() / self.m
        return H + self.l2 * np.eye(self.dim)


class LogSumExpOracle(SmoothOracle):
    """Smoothed max f(x) = mu * log(sum_i exp((<a_i, x> - b_i)/mu)).

    Evaluation subtracts the running max before exponentiating, so it cannot
    overflow. When the norm is the Gram operator of the rows, the Lipschitz
    constants are 1/mu, 2/mu^2, 4/mu^3 for orders 1..3.
    """

    def __init__(self, A, b=None, mu: float = 1.0, norm=None):
        self.A = np.asarray(A, dtype=float)
        if self.A.ndim != 2:
            raise ValueError("A must be a matrix of rows")
        self.m, self.dim = self.A.shape
        self.b = np.zeros(self.m) if b is None else np.asarray(b, dtype=float)
        if self.b.shape != (self.m,):
            raise ValueError("b must have one entry per row of A")
        if mu <= 0:
            raise ValueError("mu must be positive")
        self.mu = float(mu)
        if norm is None:
            self.norm = NormOperator.gram(self.A)
            self.lipschitz = {1: 1.0 / mu, 2: 2.0 / mu**2, 3: 4.0 / mu**3}
        else:
            self.norm = norm
            self.lipschitz = {}

    def _weights(self, x):
        z = (self.A @ np.asarray(x, dtype=float) - self.b) / self.mu
        zmax = float(np.max(z))
        e = np.exp(z - zmax)
        total = float(np.sum(e))
        return e / total, zmax + math.log(total)

    def value(self, x):
        _, lse = self._weights(x)
        return self.mu * lse

    def gradient(self, x):
        pi, _ = self._weights(x)
        return self.A.T @ pi

    def hessian_vec(self, x, h):
        h = np.asarray(h, dtype=float)
        pi, _ = self._weights(x)
        u = self.A @ h
        mean_u = float(pi @ u)
        return (self.A.T @ (pi * (u - mean_u))) / self.mu

    def hessian(self, x):
        pi, _ = self._weights(x)
        Apw = self.A * pi[:, None]
        g = self.A.T @ pi
        return (Apw.T @ self.A - np.outer(g, g)) / self.mu


class PoweredChainOracle(SmoothOracle):
    """f(x) = |x_1|^q + sum_{i>=2} |x_i - c x_{i-1}|^q, global minimum at 0.

    Twice differentiable for q >= 2. For q = 3 the third derivative is globally
    bounded, with Lipschitz constant 6 * smax(M)^3 in the standard norm, where
    M is the differencing matrix and smax its largest singular value.
    """

    def __init__(self, n: int, q: float = 3.0, c: float = 1.0):
        if n < 1:
            raise ValueError("n must be positive")
        if q < 2:
            raise ValueError("q must be at least 2 for twice differentiability")
        if c not in (1.0, 2.0, 1, 2):
            raise ValueError("c must be 1 or 2")
        self.dim = int(n)
        self.q = float(q)
        self.c = float(c)
        M = np.eye(self.dim)
        idx = np.arange(1, self.dim)
        M[idx, idx - 1] = -self.c
        self.M = M
        self.norm = NormOperator.identity(self.dim)
        if self.q == 3.0:
            smax = float(np.linalg.norm(M, ord=2))
            self.lipschitz = {2: 6.0 * smax**3}
        else:
            self.lipschitz = {}

    def _u(self, x):
        return self.M @ np.asarray(x, dtype=float)

    def value(self, x):
        u = self._u(x)
        return float(np.sum(np.abs(u) ** self.q))

    def gradient(self, x):
        u = self._u(x)
        phi1 = self.q * np.sign(u) * np.abs(u) ** (self.q - 1.0)
        return self.M.T @ phi1

    def hessian_vec(self, x, h):
        u = self._u(x)
        phi2 = self.q * (self.q - 1.0) * np.abs(u) ** (self.q - 2.0)
        return self.M.T @ (phi2 * (self.M @ np.asarray(h, dtype=float)))

    def hessian(self, x):
        u = self._u(x)
        phi2 = self.q * (self.q - 1.0) * np.abs(u) ** (self.q - 2.0)
        return self.M.T @ (phi2[:, None] * self.M)


# ---------------------------------------------------------------------------
# composite terms
# ---------------------------------------------------------------------------

class Composite:
    """Differentiable simple convex term added to the smooth objective."""

    def value(self, x) -> float:
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        raise NotImplementedError

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


class ZeroComposite(Composite):
    def __init__(self, dim: int):
        self.dim = dim

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
        if mu < 0:
            raise ValueError("mu must be nonnegative")
        if q < 2:
            raise ValueError("q must be at least 2")
        self.mu = float(mu)
        self.q = float(q)
        self.center = np.asarray(center, dtype=float)
        self.norm = norm

    def value(self, x):
        r = self.norm.primal(np.asarray(x, dtype=float) - self.center)
        return self.mu / self.q * r**self.q

    def gradient(self, x):
        d = np.asarray(x, dtype=float) - self.center
        r = self.norm.primal(d)
        return self.mu * r ** (self.q - 2.0) * self.norm.apply(d)

    def uniform_convexity(self, degree):
        if degree == self.q:
            return self.mu * 2.0 ** (2.0 - self.q)
        return 0.0

    @property
    def quadratic_coeff(self):
        if self.q == 2.0:
            return self.mu, self.center
        return None


class QuadraticComposite(PowerComposite):
    """mu/2 * ||x - center||^2; a power term of degree two."""

    def __init__(self, mu: float, center, norm: NormOperator):
        super().__init__(mu, 2.0, center, norm)


# ---------------------------------------------------------------------------
# datasets and problem instances
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    """Sparse row-major feature matrix with two-class labels."""

    features: scipy.sparse.csr_matrix
    labels: np.ndarray
    source: str = ""

    def __post_init__(self):
        if self.features.shape[0] != self.labels.size:
            raise ValueError("feature/label count mismatch")
        if np.any(~np.isfinite(self.features.data)) or np.any(~np.isfinite(self.labels)):
            raise ValueError("dataset contains non-finite entries")

    @property
    def m(self):
        return self.features.shape[0]

    @property
    def n(self):
        return self.features.shape[1]


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


def logistic_oracle(data: Dataset, l2: float = 0.0) -> LogisticOracle:
    return LogisticOracle(data.features, data.labels, l2=l2)


def logsumexp_oracle(A, b=None, mu: float = 1.0, norm=None) -> LogSumExpOracle:
    return LogSumExpOracle(A, b=b, mu=mu, norm=norm)


def generate_shifted_logsumexp(n: int, m: int, mu: float, seed: int) -> ProblemInstance:
    """Random smoothed-max instance with the optimum placed at the origin.

    Coefficients are uniform on [-1, 1]; rows are then shifted by the gradient
    at zero so the shifted objective has exactly zero gradient at the origin.
    Regenerates on a rank-deficient Gram operator, failing after 10 attempts.
    """
    if not (m >= n >= 1):
        raise ValueError("need m >= n >= 1")
    rng = np.random.default_rng(seed)
    for _ in range(10):
        A_raw = rng.uniform(-1.0, 1.0, size=(m, n))
        b = rng.uniform(-1.0, 1.0, size=m)
        pre = LogSumExpOracle(A_raw, b=b, mu=mu, norm=NormOperator.identity(n))
        A = A_raw - pre.gradient(np.zeros(n))[None, :]
        try:
            norm = NormOperator.gram(A)
        except FactorizationError:
            continue
        oracle = LogSumExpOracle(A, b=b, mu=mu, norm=norm)
        oracle.lipschitz = {1: 1.0 / mu, 2: 2.0 / mu**2, 3: 4.0 / mu**3}
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
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(m, n)) * scale
    w = rng.normal(size=n)
    margins = X @ w + 0.5 * rng.normal(size=m)
    y = np.where(margins >= 0, 1.0, -1.0)
    data = Dataset(scipy.sparse.csr_matrix(X), y, source=f"synthetic(seed={seed})")
    oracle = logistic_oracle(data, l2=l2)
    return ProblemInstance(
        smooth=oracle,
        composite=ZeroComposite(n),
        name=f"logistic-synth(n={n},m={m},l2={l2})",
    )


def parse_libsvm(path) -> Dataset:
    """Read a sparse text file with lines ``label idx:val idx:val ...``.

    Indices are 1-based and must be strictly ascending within a line. The two
    distinct label values are mapped, in sorted order, to -1 and +1.
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
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad label {tokens[0]!r}") from exc
            prev_idx = 0
            for tok in tokens[1:]:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx = int(idx_s)
                    val = float(val_s)
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
    return Dataset(X, mapped, source=str(path))


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


def check_derivatives(oracle: SmoothOracle, trials: int = 50, seed: int = 0,
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
