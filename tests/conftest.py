"""Shared helpers: independent brute-force oracles for the cubic subproblem."""

import numpy as np
import scipy.optimize

from tensoropt.linalg import NormOperator
from tensoropt.model import TensorModel
from tensoropt.problems import QuadraticOracle, ZeroComposite


def random_norm(rng, n):
    kind = rng.integers(0, 3)
    if kind == 0:
        return NormOperator.identity(n)
    if kind == 1:
        return NormOperator.diagonal(rng.uniform(0.5, 3.0, n))
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    return NormOperator.dense(Q @ np.diag(rng.uniform(0.5, 3.0, n)) @ Q.T)


def random_cubic_model(rng, n=None, convex=True):
    """Random frozen order-2 model (PSD curvature unless convex=False)."""
    n = int(rng.integers(2, 11)) if n is None else n
    norm = random_norm(rng, n)
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    eigs = rng.uniform(0.0, 3.0, n)
    if convex:
        eigs[rng.random(n) < 0.2] = 0.0
    else:
        eigs[: max(1, n // 3)] = -rng.uniform(0.2, 2.0, max(1, n // 3))
    A = Q @ np.diag(eigs) @ Q.T
    g = rng.normal(size=n)
    H = rng.uniform(0.5, 5.0)
    oracle = QuadraticOracle(A, b=g, norm=norm)
    return TensorModel(oracle, ZeroComposite(n), np.zeros(n), H, p=2, want_hessian=True)


def brute_force_model_min(model, rng, n_starts=8):
    """Multistart quasi-Newton plus damped Newton polish on the model gradient.

    Independent of the secular-equation path: only model.value / model.gradient
    and generic root finding are used.
    """
    n = model.center.size
    best = None
    scale = 1.0 + float(np.linalg.norm(model.norm.solve(model.g0)))
    starts = [np.zeros(n)] + [rng.normal(size=n) * scale for _ in range(n_starts)]
    B = model.norm.as_matrix()
    for s0 in starts:
        res = scipy.optimize.minimize(
            lambda d: model.value(model.center + d), s0, method="L-BFGS-B",
            options={"gtol": 1e-12, "ftol": 1e-16, "maxiter": 2000},
        )
        d = res.x
        for _ in range(60):
            y = model.center + d
            g = model.gradient(y)
            nd = model.norm.primal(d)
            if nd > 0:
                Bd = model.norm.apply(d)
                J = model.hess + 0.5 * model.H * (nd * B + np.outer(Bd, Bd) / nd)
            else:
                J = model.hess.copy()
            try:
                step = np.linalg.solve(J + 1e-14 * np.eye(n), -g)
            except np.linalg.LinAlgError:
                break
            t = 1.0
            v0 = model.value(y)
            while t > 1e-6 and model.value(model.center + d + t * step) > v0:
                t *= 0.5
            d = d + t * step
            if np.linalg.norm(t * step) <= 1e-14 * (1.0 + np.linalg.norm(d)):
                break
        v = model.value(model.center + d)
        best = v if best is None else min(best, v)
    return best


def forbid_oracle_calls(monkeypatch, oracle):
    """Make every oracle call on ``oracle`` fail the test."""
    def fail(*args):
        raise AssertionError("oracle called")
    for attr in ("value", "gradient", "hessian_vec", "hessian"):
        monkeypatch.setattr(oracle, attr, fail)
