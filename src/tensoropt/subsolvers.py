"""Inexact model minimization with certified functional residuals.

Three ways to produce a step:

* ``exact_cubic_step``  -- global minimizer of the order-2 model: the solve on
  the tridiagonal form T of the oracle's Hessian, whitened by the norm's
  factor, that the model reduces on its first exact step, through a scalar
  secular equation whose evaluations are O(n) tridiagonal solves (zero
  residual).
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
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dptsv, dpttrs

from .linalg import apply_q
from .model import TensorModel

SECULAR_REL_TOL = 1e-12

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
# exact order-2 step: tridiagonal reduction + secular equation
# ---------------------------------------------------------------------------

def _shifted_solve(d, e, shift, b):
    """(x, factor): (T + shift·I) x = b by LAPACK ``dptsv``, whose LDLᵀ factor
    ``dpttrs(*factor, y)[0]`` reuses. Raises ``LinAlgError`` when rounding
    leaves T + shift·I not positive definite."""
    # the wrapper rejects the empty off-diagonal of a 1×1 matrix
    df, ef, x, info = dptsv(d + shift, e if e.size else np.zeros(1), b)
    if info != 0:
        raise np.linalg.LinAlgError("shifted tridiagonal matrix is not positive definite")
    return x, (df, ef)


def _secular_root(d: np.ndarray, e: np.ndarray, c: np.ndarray, H: float,
                  lam_min: float) -> float:
    """Solve ||(T + (H r/2) I)⁻¹ c|| = r for the step length r.

    T is the symmetric tridiagonal matrix with diagonal d, off-diagonal e and
    smallest eigenvalue lam_min; a diagonal T (e = 0) is its own spectrum.
    Safeguarded Newton with a bisection bracket whose left endpoint
    max(0, -2 lam_min / H) is where T + (H r/2) I becomes singular. An
    evaluation is one LDLᵀ factorization and two solves: s = ||w|| for
    w = (T + σI)⁻¹c, and ds/dr = -(H/2) wᵀ(T + σI)⁻¹w / s. Next to that
    endpoint rounding can leave the shifted matrix indefinite; such an r lies
    left of the root, and the step from it bisects.
    """
    r_edge = max(0.0, -2.0 * lam_min / H)

    def evaluate(r):
        """(s, wᵀ(T + σI)⁻¹w) at σ = H r / 2; s is infinite left of the pole."""
        try:
            w, factor = _shifted_solve(d, e, 0.5 * H * r, c)
        except np.linalg.LinAlgError:
            return math.inf, math.inf
        return math.sqrt(float(w.dot(w))), float(w.dot(dpttrs(*factor, w)[0]))

    lo = r_edge
    hi = max(1.0, 2.0 * r_edge)
    for _ in range(400):
        if evaluate(hi)[0] <= hi:
            break
        hi *= 2.0
    else:
        raise RuntimeError("failed to bracket the secular root")

    r = 0.5 * (lo + hi) if lo > 0 else min(hi, max(evaluate(hi)[0], 1e-16))
    for _ in range(300):
        s, s3 = evaluate(r)
        f = s - r
        if f > 0:
            lo = max(lo, r)
        else:
            hi = min(hi, r)
        if hi - lo <= SECULAR_REL_TOL * max(1.0, hi):
            break
        # Newton with ds/dr = -(H/2) s3 / s
        r_new = r + f / (1.0 + 0.5 * H * s3 / max(s, 1e-300)) if s < math.inf else hi
        if not (lo < r_new < hi):
            r_new = 0.5 * (lo + hi)
        r = r_new
    return max(r, r_edge)


def exact_cubic_step(model: TensorModel) -> StepResult:
    """Global minimizer of the cubic-regularized order-2 model.

    Works in coordinates where the norm operator is the identity: with the
    norm's factor B = L Lᵀ, the step d = L⁻ᵀ v turns ||d||_B into ||v|| and the
    Hessian A into M = L⁻¹ A L⁻ᵀ. The model's reduction M = Q T Qᵀ to a
    symmetric tridiagonal T (no eigendecomposition of M), computed on its first
    exact step, turns the model into a secular equation in the step length,
    each of whose evaluations is an O(n) tridiagonal solve; a quadratic
    composite shifts T's diagonal by its weight. The reduction is only read,
    so reweighted copies of the model share it. The bottom eigenpair
    (lam_min, z) of T, from bisection and inverse iteration on T alone,
    settles the hard case (gradient orthogonal to z, no interior root), whose
    boundary solution is the shifted solve with z projected out plus a
    multiple of z. Every step with negative curvature whose coordinate along z
    is better fixed by ||u|| = r than by a division by lam_min + H r / 2 takes
    that form too, among them the near-hard cases whose root lies next to the
    boundary. Every step reports its model value and its model gradient's dual
    norm, evaluated at the step from one Hessian-vector product.
    """
    if model.p != 2:
        raise ValueError("exact cubic step requires an order-2 model")
    g, mu = _fold_quadratic(model)
    H = model.H
    norm = model.norm

    d, e, V, tau = model.reduction
    d = d + mu
    c = apply_q(V, tau, norm.factor_solve(g), trans=True)
    lam, z = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    lam_min, z = float(lam[0]), z[:, 0]
    r_edge = max(0.0, -2.0 * lam_min / H)
    c_norm = float(np.linalg.norm(c))
    gamma = float(z.dot(c))
    # T + shift·I stays positive definite for shifts this far past -lam_min:
    # the eigenvalue and the factorization are both good to a few ulps of ||T||
    t_norm = float(np.abs(d).max() + 2.0 * np.abs(e).max(initial=0.0))
    edge_shift = -lam_min + 1e-14 * t_norm

    def off_bottom(shift):
        """-(T + shift·I)⁻¹ c with z's part projected out of c and of the result."""
        w = -_shifted_solve(d, e, max(shift, edge_shift), c - gamma * z)[0]
        return w - float(z.dot(w)) * z

    hard = False
    if lam_min < 0 and gamma**2 <= 1e-28 * c_norm**2:
        hard = float(np.linalg.norm(off_bottom(-lam_min))) <= r_edge

    if c_norm == 0.0:
        u = r_edge * z  # boundary solution along the bottom eigenvector
    else:
        r = r_edge if hard else _secular_root(d, e, c, H, lam_min)
        excess = lam_min + 0.5 * H * r  # bottom eigenvalue of T + (H r/2) I
        # With the root good to dr, z's coordinate t = -gamma/excess is off by
        # about t² (H/2) dr / |gamma|, and the slack sqrt(r² - ||rest||²) of
        # ||u|| = r by about r dr / |t|. The slack is the better one when
        # (H/2) |t|³ >= r |gamma|, as it is in a near-hard case, where excess
        # is at the level of rounding; the hard case has no such t.
        if hard or (lam_min < 0 and 0.5 * H * gamma**2 >= r * excess**3):
            u = off_bottom(0.5 * H * r)
            slack = math.sqrt(max(0.0, r**2 - float(u.dot(u))))
            u += (-slack if gamma > 0 else slack) * z
        else:
            u = -_shifted_solve(d, e, 0.5 * H * r, c)[0]

    T = model.center + norm.factor_solve(apply_q(V, tau, u, trans=False), trans=True)
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
