"""Inexact model minimization with certified functional residuals.

Three ways to produce a step:

* ``exact_cubic_step``  -- global minimizer of a convex order-2 model (zero
  residual), from a scalar secular equation whose evaluations are tridiagonal
  solves. From ``LANCZOS_MIN_DIM`` on it first runs Lanczos on the oracle's
  Hessian, whitened by the norm's factor, and solves on the small T_k until
  the model gradient |beta_k y_k| vanishes to ``LANCZOS_TOL``; otherwise, and
  below that dimension, it solves on the full tridiagonal form T of the
  Hessian, which the center then reduces once; the model's ``dense_curvature``
  keeps what it has of that curvature (``whitened_hessian``, ``reduction``).
  Exact steps assume a convex model, as every oracle of the library is. A
  nonconvex one is refused only when the tridiagonal form solved on makes its
  step miss its secular root, as in the hard case; Lanczos, on T_k, may
  return a wrong step instead.
* ``gradient_step``     -- closed-form order-1 step, optionally with a
  quadratic composite folded in (zero residual).
* ``fgm_step``          -- accelerated gradient loop with backtracking step
  sizes and function-increase restarts, stopped by a computable residual
  certificate or by comparison against the exact model minimum. It carries
  the curvature products H·(x − center) next to its iterates, so an iteration
  costs one Hessian-vector product, one norm solve and, per probe, one B·d
  shared by the model value and gradient (neither under the identity norm of
  factor coordinates: B·d is d, B⁻¹∇m is ∇m); a backtracking step size that
  the curvature along the step direction rules out costs no model evaluation;
  every certificate it returns is recomputed from a fresh product. When its
  best model value stops decreasing, the tolerance is below what double
  precision can certify, and it returns its best iterate flagged ``at_floor``.
  A returned step carries that fresh product and its probe, so a refinement
  retry warm-started from the step itself resumes it instead of paying for
  them again, and a step that stops at its start reports F there without
  calling the objective.

The certificate comes from uniform convexity of the model: a function that is
uniformly convex of degree q with parameter sigma satisfies

    g(y) - min g <= (q-1)/q * sigma^(-1/(q-1)) * ||grad g(y)||_*^(q/(q-1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsymv
from scipy.linalg.lapack import dptsv, dpttrs

from .linalg import apply_q, tridiagonal_form
from .model import TensorModel

SECULAR_REL_TOL = 1e-12

# Relative backward error that ``_secular_step`` grants the rounding of T and
# of its shifted solves before it refuses a step.
ROUNDING = 16.0 * np.finfo(float).eps

# Dimension from which an exact step tries Lanczos before the full tridiagonal
# reduction (see ``exact_cubic_step``); the crossover's measurements are in the
# CHANGES.md entry "Exact steps take convexity as their contract".
LANCZOS_MIN_DIM = 200

# Lanczos steps a center takes at most, as a fraction of the dimension, before
# it falls back to the reduction: at n = 500, 50 steps with their subspace
# solves took 8.6 ms, against 9.8 ms for the reduction.
LANCZOS_STEP_FRACTION = 0.1

# Checks after the first from which Lanczos extrapolates the model gradient's
# mean decay per step so far, and stops once that predicts more steps than the
# cap. Krylov residuals decay faster as they go, so the prediction errs long,
# on steps that would have cost about as much as the reduction. Without it,
# logsumexp(n, 6n) at mu = 0.05 (set up as for LANCZOS_MIN_DIM, 7 rounds)
# solved 52 %, 30 % and 18 % slower than on the reduction alone at n = 240, 300
# and 400, as every step near the optimum ran to the cap; with it, -7 %, +6 %
# and -2 %, and -1 % at 500.
LANCZOS_RATE_STEPS = 4

# Model gradient norm |beta_k y_k|, relative to ||c||, at which Lanczos stops:
# below the error that the secular root's tolerance leaves in the reduction's
# step. On exact-n500's instance its steps took 5 to 20 Lanczos steps and came
# within 2e-12 (relative) of the reduction's.
LANCZOS_TOL = 1e-13

# Consecutive FGM iterations without a strict decrease of the best model value
# that end a solve at the precision floor. Windows of 3 and 5 also fired in
# healthy logistic solves near the floor and changed their traces; 8 was the
# shortest tried that did not, so 10 leaves a margin.
FLOOR_WINDOW = 10

# Step sizes 1/L one FGM backtracking search tries, doubling L from half the
# last accepted one. From the floor L = 1e-12 they reach L ≈ 1e24, far past
# the curvature of any model the solvers build; the limit ends a search whose
# test never passes, as with a non-finite model value, on its last try.
BACKTRACK_TRIES = 120

# Relative slack of the backtracking decrease test, m(x) <= m(y) - gn²/(2L)
# + slack·|m(y)|: a few ulps of the model value, so that a decrease lost to
# the rounding of m(x) and m(y) does not reject the step size.
DECREASE_SLACK = 1e-15

# Rounding margin of the curvature bound by which backtracking skips step
# sizes (``_skip_ruled_out``), relative to the size of the quantities that the
# decrease test and the bound round: max(1, |m(y)|, |f0|) for the two model
# values, whose sums start at f0 and come to m(y), plus the magnitudes of the
# bound's terms, which are also the amounts by which m(x) moves away from
# m(y). Each is computed to a few ulps of its size, or a few dozen for the
# dot products; 1e-13 is about 450 ulps, so rounding cannot make a skipped
# step size one that the test would pass. Skipped step sizes fail the test by
# as little as 3e-13 on random cubic models, and with neither this margin nor
# the test's slack the bound skips one that passes on the accelerated chain's
# subproblem.
SKIP_MARGIN = 1e-13


@dataclass
class StepResult:
    """Outcome of one model minimization."""

    point: np.ndarray
    certified_residual: float
    inner_iterations: int
    model_value: float
    grad_dual_norm: float | None = None
    objective_value: float | None = None  # F at point, when known (see fgm_step) or measured
    stationary: bool = False
    at_floor: bool = False        # FGM stopped making progress before certifying delta
    # FGM steps only, so that a retry can resume from this one: the curvature
    # product H·(point − center) from a fresh oracle product, and the probe's
    # step direction at point with the model it was computed on
    curvature: np.ndarray | None = None
    probe: tuple | None = None    # (model, step direction)


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

def _fold_quadratic(model: TensorModel):
    """(g, mu): the center gradient with a quadratic composite mu/2 ||x - c0||^2
    folded in, or (g0, 0.0) for a zero composite.

    The composite's Hessian mu·B adds mu to the weight of B in a closed-form
    step, and shifts the whitened spectrum by mu in the exact one.
    """
    comp = model.composite
    if comp.is_zero:
        return model.g0, 0.0
    quad = comp.quadratic_coeff
    if quad is None:
        raise ValueError("closed-form steps support only zero or quadratic composites")
    mu, c0 = quad
    return model.g0 + mu * model.norm.apply(model.center - c0), float(mu)


def gradient_step(model: TensorModel) -> StepResult:
    """Exact minimizer of the order-1 model (preconditioned gradient step)."""
    if model.p != 1:
        raise ValueError("closed-form step requires an order-1 model")
    g, mu = _fold_quadratic(model)
    T = model.center - model.norm.solve(g) / (model.H + mu)
    return StepResult(
        point=T,
        certified_residual=0.0,
        inner_iterations=1,
        model_value=model.value(T),
        grad_dual_norm=0.0,
    )


# ---------------------------------------------------------------------------
# exact order-2 step: the center's dense curvature + secular equation
# ---------------------------------------------------------------------------

def whitened_hessian(model: TensorModel) -> np.ndarray:
    """M = L⁻¹ ∇²f(center) L⁻ᵀ for the norm's factor L, Fortran-ordered, of
    which only the lower triangle is meaningful. The first read fetches
    ``oracle.hessian`` from the model's center state and whitens it
    (``norm.whiten``; the identity norm leaves it as it is); the model's
    ``dense_curvature`` keeps it until ``reduction`` overwrites it."""
    curv = model.dense_curvature
    if "hessian" not in curv:
        hess = np.asfortranarray(model.oracle.hessian(model.center, model.center_state))
        curv["hessian"] = hess if model.identity_norm else model.norm.whiten(hess)
    return curv["hessian"]


def reduction(model: TensorModel):
    """(d, e, V, tau) of ``linalg.tridiagonal_form`` of M, which reduces M in
    place on the first read and rejects a non-finite lower triangle with
    ``LinAlgError``; from then on the model's ``dense_curvature`` keeps the
    reduction alone, and every exact step at the center solves on its T."""
    curv = model.dense_curvature
    if "reduction" not in curv:
        M = whitened_hessian(model)
        curv.clear()
        curv["reduction"] = tridiagonal_form(M)
    return curv["reduction"]


def _shifted_solve(d, e, shift, b):
    """(x, factor): (T + shift·I) x = b by LAPACK ``dptsv``, whose LDLᵀ factor
    ``dpttrs(*factor, y)[0]`` reuses. Raises ``LinAlgError`` when rounding
    leaves T + shift·I not positive definite."""
    # the wrapper rejects the empty off-diagonal of a 1×1 matrix
    df, ef, x, info = dptsv(d + shift, e if e.size else np.zeros(1), b)
    if info != 0:
        raise np.linalg.LinAlgError("shifted tridiagonal matrix is not positive definite")
    return x, (df, ef)


def _secular_step(d: np.ndarray, e: np.ndarray, c: np.ndarray, H: float) -> np.ndarray:
    """The minimizer u = -(T + (H r/2) I)⁻¹ c, of length r, of the cubic
    cᵀu + uᵀTu/2 + H‖u‖³/6 on the tridiagonal T (diagonal d, off-diagonal e).

    T must be positive semidefinite. Then T + (H r/2) I is positive definite
    for every r > 0, and the stationary point at the root r of
    ‖(T + (H r/2) I)⁻¹ c‖ = r is the global minimizer (Nesterov & Polyak
    2006); a zero c gives the zero step. Safeguarded Newton with a bisection
    bracket from [0, hi], where doubling hi from 1 brackets the root. An
    evaluation is one LDLᵀ factorization and two solves: s = ‖w‖ for
    w = (T + σI)⁻¹c, and ds/dr = -(H/2) wᵀz / s for z = (T + σI)⁻¹w. One whose
    factorization fails counts as s = ∞, left of the root. The step is -w
    from the last evaluation.

    A T that breaks the contract is refused with ``ValueError`` only on
    evidence that rounding cannot explain. A factorization failing at a shift
    above ``ROUNDING``·n·‖T‖ shows negative curvature; the step is then refused
    when the factorization fails at the root or its length misses r by more
    than the root's tolerance, as in the hard case. Otherwise the length may
    also miss r by ``ROUNDING``·‖T + σI‖·‖z‖, the first-order change of s under
    that backward error (s is a staircase in r where T + σI is ill-conditioned),
    and a bracket whose left end failed puts the root anywhere in [0, hi],
    whose step is taken.
    """
    def t_norm():
        return float(np.abs(d).max() + 2.0 * np.abs(e).max(initial=0.0))

    curved = False  # a factorization failed at a shift above ROUNDING·n·‖T‖

    def evaluate(r):
        """(s, w, z) at σ = H r / 2; s is infinite where T + σI is not definite."""
        nonlocal curved
        try:
            w, factor = _shifted_solve(d, e, 0.5 * H * r, c)
        except np.linalg.LinAlgError:
            curved = curved or 0.5 * H * r > ROUNDING * d.size * t_norm()
            return math.inf, None, None
        return math.sqrt(float(w.dot(w))), w, dpttrs(*factor, w)[0]

    lo, hi = 0.0, 1.0
    for _ in range(400):
        s_hi, w_hi, _ = evaluate(hi)
        if s_hi <= hi:
            break
        hi *= 2.0
    else:
        raise RuntimeError("failed to bracket the secular root")

    r, lo_failed = max(s_hi, 1e-16), False
    for _ in range(300):
        s, w, z = evaluate(r)
        f = s - r
        if f > 0:
            lo, lo_failed = max(lo, r), w is None
        else:
            hi, w_hi = r, w
        if hi - lo <= SECULAR_REL_TOL * max(1.0, hi):
            if lo_failed and not curved:
                return -w_hi
            # on a convex model |d(s - r)/dr| <= 1 + s/r, so s misses r by
            # about twice the bracket's width, plus rounding, at most
            miss = abs(f) - 4.0 * SECULAR_REL_TOL * max(1.0, r)
            if w is None or miss > 0.0 and (curved or miss > ROUNDING * (
                    t_norm() + 0.5 * H * r) * math.sqrt(float(z.dot(z)))):
                raise ValueError("exact cubic steps assume a convex model (positive "
                                 "semidefinite Hessian, composite weight >= 0): this "
                                 "one's step misses its secular root")
            return -w
        # Newton with ds/dr = -(H/2) wᵀz / s
        r_new = r + f / (1.0 + 0.5 * H * float(w.dot(z)) / max(s, 1e-300)) if s < math.inf else hi
        if not (lo < r_new < hi):
            r_new = 0.5 * (lo + hi)
        r = r_new
    raise RuntimeError("the secular iteration did not converge")


class _Lanczos:
    """Lanczos on a center's whitened Hessian M from the whitened gradient c.

    After k steps the rows Q[0..k] are an orthonormal basis of the Krylov space
    K_{k+1}(M, c), and M Q_kᵀ = Q_kᵀ T_k + beta[k-1] Q[k] e_kᵀ for the
    tridiagonal T_k with diagonal alpha[:k] and off-diagonal beta[:k-1].
    """

    def __init__(self, c, c_norm: float):
        self.cap = int(LANCZOS_STEP_FRACTION * c.size)
        self.Q = np.empty((self.cap + 1, c.size))
        self.Q[0] = c / c_norm
        self.alpha = np.empty(self.cap)
        self.beta = np.empty(self.cap)
        self.k = 0
        self.c_norm = c_norm

    def extend(self, M) -> bool:
        """One more step, from one ``dsymv`` on M's lower triangle and two
        classical Gram–Schmidt passes against the whole basis; False at the cap,
        after a zero residual, or when the step meets a non-finite number."""
        j, Q = self.k, self.Q
        if j == self.cap or (j and not 0.0 < self.beta[j - 1] < math.inf):
            return False
        w = dsymv(1.0, M, Q[j], lower=1)
        a = float(Q[j].dot(w))
        for _ in range(2):
            w -= (Q[:j + 1] @ w) @ Q[:j + 1]
        b = math.sqrt(float(w.dot(w)))
        self.alpha[j], self.beta[j], self.k = a, b, j + 1
        if 0.0 < b < math.inf:
            Q[j + 1] = w / b
        return math.isfinite(b)


def _lanczos_step(model: TensorModel, c: np.ndarray, mu: float):
    """Q_kᵀ y, the whitened step that minimizes the model over the center's
    Krylov space, once the model gradient there is at most ``LANCZOS_TOL``·‖c‖;
    None when Lanczos gives up (see ``exact_cubic_step``)."""
    M = whitened_hessian(model)
    curv = model.dense_curvature
    lz = curv.get("lanczos")
    if lz is None:
        c_norm = math.sqrt(float(c.dot(c)))
        if c_norm == 0.0:
            return None
        lz = curv["lanczos"] = _Lanczos(c, c_norm)
    if lz.k == 0 and not lz.extend(M):
        return None
    first = None
    while True:
        k = lz.k
        rhs = np.zeros(k)
        rhs[0] = lz.c_norm
        y = _secular_step(lz.alpha[:k] + mu, lz.beta[:k - 1], rhs, model.H)
        # the model gradient at Q_kᵀ y is beta[k-1] y[-1] Q[k]
        res = abs(lz.beta[k - 1] * y[-1]) / lz.c_norm
        if res <= LANCZOS_TOL:
            return y @ lz.Q[:k]
        if first is None:
            first = (k, res)
        elif k - first[0] >= LANCZOS_RATE_STEPS:
            # the residual's mean decay per step since the first check, extrapolated
            rate = (res / first[1]) ** (1.0 / (k - first[0]))
            if rate >= 1.0 or k + math.log(LANCZOS_TOL / res) / math.log(rate) > lz.cap:
                return None
        if not lz.extend(M):
            return None


def _reduced_step(model: TensorModel, c: np.ndarray, mu: float) -> np.ndarray:
    """The whitened step Q u from the secular equation on the center's full
    tridiagonal reduction M = Q T Qᵀ (see ``exact_cubic_step``)."""
    d, e, V, tau = reduction(model)
    u = _secular_step(d + mu, e, apply_q(V, tau, c, trans=True), model.H)
    return apply_q(V, tau, u, trans=False)


def exact_cubic_step(model: TensorModel) -> StepResult:
    """Global minimizer of the cubic-regularized order-2 model, which must be
    convex: a positive semidefinite Hessian and a quadratic composite of
    weight mu >= 0.

    Works where the norm is the identity: with B = L Lᵀ, the step d = L⁻ᵀ v
    turns ||d||_B into ||v||, the Hessian A into M = L⁻¹ A L⁻ᵀ
    (``whitened_hessian``) and the gradient g into c = L⁻¹ g; a quadratic
    composite is folded into g and shifts M by mu. Every step is the
    stationary point that ``_secular_step`` finds on a tridiagonal T, which a
    convex model makes the global minimizer. A model it finds to break the
    contract is refused with ``ValueError``, but the check sees only the T it
    solves on: a nonconvex model whose bottom eigenvector stays outside
    Lanczos's Krylov space may get a wrong step instead.

    From ``LANCZOS_MIN_DIM`` on, ``_lanczos_step`` runs Lanczos on M from c and
    solves on its tridiagonal T_k until the model gradient |beta_k y_k| is at
    most ``LANCZOS_TOL``·||c||. The center keeps the basis, which a reweighted
    copy of the model reuses and extends. A zero gradient, a breakdown, no
    convergence within the cap, or a decay too slow to converge there, and
    every smaller model, solve on the center's ``reduction`` M = Q T Qᵀ
    (``_reduced_step``), which the first fallback at a center computes in
    place; a quadratic composite shifts T's diagonal. Either way the center
    makes one ``hessian`` call: the model's ``dense_curvature``, which its
    ``with_weight`` copies share, keeps M and the basis, or the reduction.
    Every step reports its model value and its model gradient's dual norm,
    evaluated at the step from one Hessian-vector product.
    """
    if model.p != 2:
        raise ValueError("exact cubic step requires an order-2 model")
    g, mu = _fold_quadratic(model)
    norm = model.norm
    c = norm.factor_solve(g)
    u = None
    if c.size >= LANCZOS_MIN_DIM and "reduction" not in model.dense_curvature:
        u = _lanczos_step(model, c, mu)
    if u is None:
        u = _reduced_step(model, c, mu)
    T = model.center + norm.factor_solve(u, trans=True)
    f_T, g_T = model.value_and_gradient(T)
    return StepResult(
        point=T,
        certified_residual=0.0,
        inner_iterations=1,
        model_value=f_T,
        grad_dual_norm=norm.dual(g_T),
    )


# ---------------------------------------------------------------------------
# accelerated first-order subsolver with restarts
# ---------------------------------------------------------------------------

def _skip_ruled_out(model: TensorModel, y, hy, step_dir, hs, gn: float, f_y: float,
                    L: float):
    """(L, tries): the first backtracking step size 1/L from ``L`` on that the
    curvature along the step direction does not rule out, and the tries left
    for it and the doublings after it.

    Along x(t) = y − t·s, with s = ``step_dir`` and hs = H·s, the carried
    product is hy − t·hs, so the Taylor part of the model is a quadratic in t;
    the regularizer and psi are convex, and gn² = ∇m(y)·s. Hence

        m(x(t)) − m(y) + t·gn²/2 ≥ t/2·(t·sᵀhs − gn² + skew),

    where skew = hyᵀs − hsᵀ(y − center) is zero but for the rounding drift of
    the carried products. While the right-hand side at t = 1/L exceeds the
    decrease test's slack by the rounding margin ``SKIP_MARGIN``, 1/L fails
    the test, and L is doubled without a model evaluation. Each skip spends a
    try; the last of the ``BACKTRACK_TRIES`` is never skipped, so a search in
    which every try fails ends where it would without the skip.
    """
    tries = BACKTRACK_TRIES
    curv = float(step_dir.dot(hs))
    gn2 = gn * gn
    if not curv > gn2 * L:  # the bound is negative at the first step size, and after it
        return L, tries
    hy_s = float(hy.dot(step_dir))
    hs_d = float(hs.dot(y - model.center))
    skew = hy_s - hs_d
    drift = abs(hy_s) + abs(hs_d)
    allowance = DECREASE_SLACK * abs(f_y) + SKIP_MARGIN * max(1.0, abs(f_y), abs(model.f0))
    while tries > 1 and 0.5 / L * (curv / L - gn2 + skew) > (
            allowance + SKIP_MARGIN * 0.5 / L * (curv / L + gn2 + drift)):
        L *= 2.0
        tries -= 1
    return L, tries


def _default_cap(delta: float) -> int:
    if delta >= 1.0:
        return 10_000
    return 10_000 * max(1, math.ceil(math.log(1.0 / delta)))


def fgm_step(model: TensorModel, delta: float, warm_start=None,
             model_min: float | None = None, max_iters: int | None = None) -> StepResult:
    """Accelerated gradient loop on the model, stopped by a residual rule.

    With no ``model_min``, accept the first iterate whose uniform-convexity
    certificate is at most delta; given the model's exact minimum
    ``model_min``, accept once the model value is within delta of it.
    Momentum restarts whenever the model value fails to improve on the best
    seen, which keeps the recorded best value non-increasing.

    The curvature part of the model is linear, so the products H·(x − center)
    are carried next to the iterates and updated the way the iterates are:
    each iteration spends one Hessian-vector product, on the step direction
    B⁻¹∇m(y), and one norm solve, which also gives the dual norm. A run works
    in factor coordinates when both its oracle and its composite have a view
    there, and otherwise in x under the problem's norm; under the model's
    ``identity_norm`` the direction is ∇m(y) itself, with no solve. The
    certificate's factor and exponent are computed once per solve. Backtracking
    probes and restarts cost none, and a step size that the curvature along
    the step direction proves will fail the decrease test costs no model
    evaluation either (``_skip_ruled_out``): the step sizes evaluated, and so
    the steps, are those of a search without the skip. A certificate that
    passes on a carried product is recomputed from a fresh one before it is
    returned, so rounding drift in the carried products can steer the path
    but never the reported certificate, model value or gradient norm; the
    stall path does the same.
    A cold start uses the zero product at the center, and an array warm start
    costs one product. A ``StepResult`` warm start, an earlier FGM step on this
    model or on a ``with_weight`` copy of it (the center is the same), resumes
    that step: it reuses the step's fresh product, and on the same model
    object (the line search keeps one per weight) also its probe, so a retry
    that stops at its start spends no product and no model evaluation. A step
    that stops at its start (zero inner iterations) sets ``objective_value``:
    a resumed step's F, or at a cold start the model value at the center,
    which is F there bit for bit (the Taylor and regularizer terms vanish);
    after an array warm start it stays None.

    After a restart the next probe starts at the best point, where
    backtracking guarantees a decrease of gn²/(2L) up to rounding. So when the
    best model value has not strictly decreased for ``FLOOR_WINDOW``
    consecutive iterations, that decrease is at rounding level and delta
    cannot be certified in double precision: the loop returns its best
    iterate, certified on a fresh product like the stall path, with
    ``at_floor`` set. ``SubsolverStall`` is raised only at the cap.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    cap = _default_cap(delta) if max_iters is None else max_iters
    center = model.center
    q = model.p + 1.0  # residual_bound(gn, sigma, q) is scale·gn^power, in its product order
    scale, power = residual_bound(1.0, model.uniform_convexity(), q), q / (q - 1.0)

    def certificate(f, gn):
        return scale * gn**power if model_min is None else f - model_min

    def probe(y, hy):
        """(step direction, dual gradient norm, model value, certificate) at y."""
        f, grad = model.value_and_gradient(y, hy)
        step_dir = grad if model.identity_norm else model.norm.solve(grad)
        gn = math.sqrt(max(0.0, float(grad.dot(step_dir))))
        return step_dir, gn, f, certificate(f, gn)

    def finish(point, hp, step_dir, gn, f, cert, iters):
        """The step at ``point``, whose product ``hp`` is fresh."""
        return StepResult(
            point=point.copy(),
            certified_residual=max(0.0, float(cert)),
            inner_iterations=iters,
            model_value=f,
            grad_dual_norm=gn,
            curvature=hp,
            probe=(model, step_dir),
        )

    def finish_best(iters, at_floor):
        """The best iterate so far, certified on a fresh product."""
        hb = model.hess_action(best_x - center)
        res = finish(best_x, hb, *probe(best_x, hb), iters)
        res.at_floor = at_floor
        return res

    # arrays are never updated in place, so iterates and products may alias
    resumed = isinstance(warm_start, StepResult) and warm_start.curvature is not None
    if warm_start is None:
        x, hx = center, np.zeros_like(center)
    elif resumed:
        x, hx = warm_start.point, warm_start.curvature
    else:
        x = np.asarray(warm_start, dtype=float)
        hx = model.hess_action(x - center)
    if resumed and warm_start.probe[0] is model:
        step_dir, gn, f_y = warm_start.probe[1], warm_start.grad_dual_norm, warm_start.model_value
        cert = certificate(f_y, gn)
    else:
        step_dir, gn, f_y, cert = probe(x, hx)
    if cert <= delta:
        res = finish(x, hx, step_dir, gn, f_y, cert, 0)
        res.objective_value = (warm_start.objective_value if resumed
                               else f_y if warm_start is None else None)
        return res

    y, hy = x, hx
    best_x, best_hx, best_f = x, hx, f_y
    L = 1.0
    t_prev, t_acc = 1.0, 1.0
    stale = 0  # consecutive iterations without a strict decrease of best_f
    for it in range(1, cap + 1):
        hs = model.hess_action(step_dir)
        L, tries = _skip_ruled_out(model, y, hy, step_dir, hs, gn, f_y, max(L * 0.5, 1e-12))
        for _ in range(tries):
            x_new = y - step_dir / L
            hx_new = hy - hs / L
            f_new = model.value(x_new, hx_new)
            if f_new <= f_y - 0.5 * gn * gn / L + DECREASE_SLACK * abs(f_y):
                break
            L *= 2.0
        x_prev, x, hx_prev, hx = x, x_new, hx, hx_new
        t_prev, t_acc = t_acc, 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc**2))
        stale = 0 if f_new < best_f else stale + 1
        if f_new > best_f:
            # overshoot: restart the momentum from the best point
            x_prev, x, hx_prev, hx = best_x, best_x, best_hx, best_hx
            t_prev, t_acc = 1.0, 1.0
        else:
            best_x, best_hx, best_f = x_new, hx_new, f_new
        if stale == FLOOR_WINDOW:
            return finish_best(it, at_floor=True)
        # iteration it + 1 begins by certifying its extrapolated point (the
        # first iteration's point is the start, certified above)
        if it == cap:
            break
        beta = (t_prev - 1.0) / t_acc
        y = x + beta * (x - x_prev)
        hy = hx + beta * (hx - hx_prev)
        step_dir, gn, f_y, cert = probe(y, hy)
        if cert <= delta:
            hy = model.hess_action(y - center)
            step_dir, gn, f_y, cert = probe(y, hy)
            if cert <= delta:
                return finish(y, hy, step_dir, gn, f_y, cert, it + 1)

    raise SubsolverStall(f"no certificate <= {delta:g} within {cap} iterations",
                         finish_best(cap, at_floor=False))


# ---------------------------------------------------------------------------
# dispatch and monotone refinement
# ---------------------------------------------------------------------------

def solve_model(model: TensorModel, delta: float, warm_start=None,
                kind: str = "fgm", stop: str = "bound", objective=None) -> StepResult:
    """Run the requested subsolver on a frozen model; a ``warm_start`` step is
    resumed (see ``fgm_step``). With ``objective``, the step comes back with
    ``objective_value`` set: F at its point is called from ``objective`` only
    when the step does not report it. So ``partial(solve_model, model, kind=...,
    stop=..., objective=F)`` is ``monotone_step``'s ``solve(delta, warm)``.

    Under stop = "exact", the first such solve on a model object computes the
    model's exact minimum and keeps it as ``model.minimum``, which every
    later one reads: a refinement retry, or a line-search trial at a weight
    already tried (the line search keeps one model per weight at a center).
    """
    if kind not in ("exact", "fgm"):
        raise ValueError(f"unknown subsolver kind {kind!r}")
    closed_form = gradient_step if model.p == 1 else exact_cubic_step
    if kind == "exact":
        res = closed_form(model)
    else:
        if stop == "exact" and model.minimum is None:
            model.minimum = closed_form(model).model_value
        model_min = model.minimum if stop == "exact" else None
        res = fgm_step(model, delta, warm_start=warm_start, model_min=model_min)
    if objective is not None and res.objective_value is None:
        res.objective_value = objective(res.point)
    return res


def is_stationary(res: StepResult, f_x: float, delta: float, floor: float) -> bool:
    """Whether a step at tolerance delta marks the center (F = f_x)
    stationary. Only F(T) < f_x - floor counts as a decrease; a step that
    lowers F by less marks the center floor-optimal. One that does not lower F
    marks it stationary when its certificate is zero (it minimizes the model,
    so halving cannot help), the subsolver stopped at the precision floor
    (``at_floor``: a tighter solve would stop at the same floor) or the halved
    tolerance would pass the floor (the center is floor-optimal for the model).
    """
    return not res.objective_value < f_x - floor and (
        res.objective_value < f_x or res.certified_residual <= 0.0
        or res.at_floor or 0.5 * delta < floor)


def monotone_step(f_x: float, solve, delta: float, floor: float) -> StepResult:
    """Inexact step from a center with F = f_x that lowers F by more than the floor.

    ``solve(delta, warm)`` returns a step at tolerance delta started from
    ``warm`` (None, on the first call: the center) with ``objective_value`` set to F at its
    point. A step that marks the center stationary under ``is_stationary``
    (every one that lowers F by at most ``floor`` does) is flagged and returned.
    Any other step that does not lower F halves the tolerance, and ``solve`` is
    called again with that step itself as ``warm``, which it resumes (see
    ``fgm_step``), so the retry repeats no curvature product, probe or F call.
    Inner iterations are summed across the retries.
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
        if is_stationary(res, f_x, delta_eff, floor):
            res.stationary = True
            return res
        if res.objective_value < f_x:
            return res
        delta_eff *= 0.5
        warm = res
