"""Acceptance gates: one test per criterion, each printing a PASS/FAIL line.

Quantitative gates come from the convergence guarantees of the implemented
methods, evaluated at desk scale on seeded instances; tolerances are fixed
here, not tuned at runtime. Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from conftest import brute_force_model_min, random_cubic_model
from instruments import (
    check_derivatives,
    condition_number,
    fd_gradient,
    model_upper_bound_check,
    strong_convexity_c_bound,
)

from tensoropt.accel import accelerated, build_subproblem
from tensoropt.harness import (
    ExperimentConfig,
    attach_composite,
    compare,
    fit_rate,
    run_experiment,
)
from tensoropt.methods import SolverConfig, averaging, monotone1, monotone2
from tensoropt.model import TensorModel
from tensoropt.policies import adaptive, constant, power
from tensoropt.problems import (
    PowerComposite,
    generate_shifted_logsumexp,
    powered_chain_oracle,
    synthetic_logistic,
)
from tensoropt.subsolvers import exact_cubic_step, fgm_step

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def gate(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {num:02d}] {status} - {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {num}: {name} ({detail})"


# ---------------------------------------------------------------------------
# 1. derivative soundness
# ---------------------------------------------------------------------------

def test_criterion_01_derivative_soundness():
    t0 = time.time()
    tol = 1e-4
    results = {}

    logistic = synthetic_logistic(30, 150, 1e-2, seed=21)
    results["logistic"] = check_derivatives(logistic.smooth, trials=50, seed=1, tol=tol)

    lse = generate_shifted_logsumexp(20, 120, 0.5, seed=22)
    results["log-sum-exp"] = check_derivatives(lse.smooth, trials=50, seed=2, tol=tol)

    chain = powered_chain_oracle(15, 3.0, 2.0)
    results["powered-chain"] = check_derivatives(chain.smooth, trials=50, seed=3, tol=tol)

    L = lse.smooth.lipschitz[2]
    prox = PowerComposite(1.0, 3.0, np.zeros(20), lse.norm)
    rng = np.random.default_rng(4)
    sub = build_subproblem(lse, lse.smooth, rng.normal(size=20), rng.normal(size=20),
                           8.0 / L, 27.0 / L, prox)
    results["contracted"] = check_derivatives(sub.smooth, trials=50, seed=5, tol=tol)

    model = TensorModel(lse.smooth, lse.composite, 0.2 * np.ones(20), H=2.0, p=2)
    worst_model = 0.0
    for _ in range(50):
        y = 0.2 * np.ones(20) + rng.normal(size=20) * 0.5
        fd = fd_gradient(model.value, y)
        an = model.gradient(y)
        worst_model = max(worst_model,
                          float(np.linalg.norm(fd - an) / (1 + np.linalg.norm(an))))

    elapsed = time.time() - t0
    worst = {k: max(r.max_gradient_error, r.max_hessian_vec_error)
             for k, r in results.items()}
    worst["model-gradient"] = worst_model
    ok = all(v <= tol for v in worst.values()) and elapsed < 10.0
    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items()) + f", {elapsed:.1f}s"
    gate(1, "derivative soundness at 1e-4", ok, detail)


# ---------------------------------------------------------------------------
# 2. log-sum-exp curvature bounds under the Gram norm
# ---------------------------------------------------------------------------

def test_criterion_02_logsumexp_curvature_bounds():
    t0 = time.time()
    rng = np.random.default_rng(6)
    A = rng.uniform(-1.0, 1.0, size=(90, 15))
    from tensoropt.problems import LogSumExpOracle

    oracle = LogSumExpOracle(A, b=rng.uniform(-1, 1, 90), mu=1.0)
    norm = oracle.norm
    worst_quad = -np.inf
    worst_third = -np.inf
    for _ in range(1000):
        x = rng.normal(size=15)
        h = rng.normal(size=15)
        h /= norm.primal(h)
        quad = h @ oracle.hessian_vec(x, h)
        worst_quad = max(worst_quad, quad - (1.0 + 1e-8))
        t = 1e-5
        d3 = (h @ oracle.hessian_vec(x + t * h, h)
              - h @ oracle.hessian_vec(x - t * h, h)) / (2 * t)
        worst_third = max(worst_third, abs(d3) - (2.0 + 1e-4))
    elapsed = time.time() - t0
    ok = worst_quad <= 0 and worst_third <= 0 and elapsed < 30.0
    gate(2, "smoothed-max curvature bounds (quad <= |h|^2, third <= 2|h|^3)", ok,
         f"max quad excess={worst_quad:.2e}, max third excess={worst_third:.2e}, "
         f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. model majorization at H equal to the known constant
# ---------------------------------------------------------------------------

def test_criterion_03_model_upper_bound():
    prob = generate_shifted_logsumexp(20, 120, 1.0, seed=23)
    center = 0.3 * np.ones(20)
    model = TensorModel(prob.smooth, prob.composite, center, H=2.0, p=2)
    report = model_upper_bound_check(model, prob, samples=1000, seed=7, radius=2.0,
                                     tol=1e-10)
    gate(3, "order-2 model majorizes the objective at H = 2", report.passed,
         f"max excess={report.max_excess:.2e} over {report.samples} samples")


# ---------------------------------------------------------------------------
# 4. subsolver equivalence and certificate soundness
# ---------------------------------------------------------------------------

def test_criterion_04_subsolver_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(8)
    max_diff = 0.0
    max_true_residual = 0.0
    cert_violations = 0
    for _ in range(200):
        model = random_cubic_model(rng)
        exact = exact_cubic_step(model)
        ref = brute_force_model_min(model, rng, n_starts=6)
        max_diff = max(max_diff, abs(exact.model_value - ref))
        res = fgm_step(model, delta=1e-8)
        true_res = res.model_value - exact.model_value
        max_true_residual = max(max_true_residual, true_res)
        if res.certified_residual < true_res - 1e-12:
            cert_violations += 1
    elapsed = time.time() - t0
    ok = (max_diff <= 1e-8 and max_true_residual <= 1e-8
          and cert_violations == 0 and elapsed < 120.0)
    gate(4, "exact step matches brute force; certified inexact step sound", ok,
         f"max value diff={max_diff:.2e}, max true residual={max_true_residual:.2e}, "
         f"certificate violations={cert_violations}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. global rate of the correction scheme with the power schedule
# ---------------------------------------------------------------------------

def test_criterion_05_monotone1_global_rate():
    t0 = time.time()
    prob = generate_shifted_logsumexp(50, 300, 1.0, seed=7)
    x0 = np.zeros(50)
    x0[0] = 1.0
    cfg = SolverConfig(p=2, h_mode="lipschitz", policy=power(1, 3),
                       subsolver="fgm", stop="bound", max_iters=100)
    run = monotone1(prob, x0, cfg)
    D = run.radius_proxy
    F = [r.F for r in run.records]
    monotone = all(F[i + 1] <= F[i] + 1e-12 for i in range(len(F) - 1))
    worst_ratio = 0.0
    for rec in run.records[1:]:
        bound = 27.0 * D**3 / rec.k**2 + 1.0 / rec.k**2
        worst_ratio = max(worst_ratio, rec.gap / bound)
    elapsed = time.time() - t0
    ok = worst_ratio <= 1.0 and monotone and elapsed < 120.0
    gate(5, "correction scheme respects the k^-2 bound with observed radius", ok,
         f"worst gap/bound={worst_ratio:.3f}, D_hat={D:.2f}, monotone={monotone}, "
         f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. local superlinear tail of the progress^{3/2} rule
# ---------------------------------------------------------------------------

def test_criterion_06_superlinear_tail():
    t0 = time.time()
    prob = synthetic_logistic(50, 300, 1e-2, seed=11, scale=0.2)
    x0 = np.zeros(50)
    ref_cfg = SolverConfig(p=2, h_mode="lipschitz", policy=adaptive(1, 2),
                           subsolver="exact", max_iters=600)
    fstar = min(r.F for r in monotone2(prob, x0, ref_cfg).records)

    cfg = SolverConfig(p=2, h_mode="lipschitz", policy=adaptive(1, 1.5),
                       subsolver="exact", max_iters=60)
    run = monotone2(prob, x0, cfg)
    gaps = np.array([r.F - fstar for r in run.records])

    L2 = prob.smooth.lipschitz[2]
    sigma2 = 1e-2  # ridge weight: a lower bound on the strong convexity
    K_theory = L2 / 2.0 * (2.0 / sigma2) ** 1.5 + 1.0

    plateau = max(1e-13, 10 * np.finfo(float).eps * abs(fstar))
    idx = [i for i in range(len(gaps) - 2) if gaps[i] > plateau and gaps[i + 2] > plateau]
    ratios = [gaps[i + 2] / gaps[i] ** 1.5 for i in idx[-5:]]
    ratio_ok = len(ratios) > 0 and max(ratios) <= K_theory

    k4 = next((i for i, g in enumerate(gaps) if g <= 1e-4), None)
    if k4 is None:
        drop_ok = False
        drop_detail = "never reached 1e-4"
    elif k4 + 4 < len(gaps):
        drop_ok = gaps[k4 + 4] < 1e-10
        drop_detail = f"gap {gaps[k4]:.1e} -> {gaps[k4 + 4]:.1e} in 4 iterations"
    else:
        drop_ok = gaps[-1] < 1e-10
        drop_detail = f"run ended below 1e-10 within {len(gaps) - 1 - k4} iterations"
    elapsed = time.time() - t0
    ok = ratio_ok and drop_ok and elapsed < 120.0
    gate(6, "superlinear tail of the progress^1.5 rule", ok,
         f"max tail ratio={max(ratios):.3f} vs K={K_theory:.1f}, {drop_detail}, "
         f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# beside gate 6: the same tail under inexact steps, and only under the rule
# ---------------------------------------------------------------------------

def _inexact_tail(seed, policy):
    """(max tail ratio, K, drop check, detail) of gate 6's checks on gate 6's
    instance family at ``seed``, with gate 6's reference F*, but steps that are
    inexact: FGM under the bound certificate and ``policy``. Gate 6 itself takes
    exact steps, whose residual is zero, so it never runs the policy it names."""
    prob = synthetic_logistic(50, 300, 1e-2, seed=seed, scale=0.2)
    x0 = np.zeros(50)
    ref_cfg = SolverConfig(p=2, h_mode="lipschitz", policy=adaptive(1, 2),
                           subsolver="exact", max_iters=600)
    fstar = min(r.F for r in monotone2(prob, x0, ref_cfg).records)
    cfg = SolverConfig(p=2, h_mode="lipschitz", policy=policy, subsolver="fgm",
                       stop="bound", max_iters=60)
    gaps = np.array([r.F - fstar for r in monotone2(prob, x0, cfg).records])

    K_theory = prob.smooth.lipschitz[2] / 2.0 * (2.0 / 1e-2) ** 1.5 + 1.0
    plateau = max(1e-13, 10 * np.finfo(float).eps * abs(fstar))
    idx = [i for i in range(len(gaps) - 2) if gaps[i] > plateau and gaps[i + 2] > plateau]
    ratios = [gaps[i + 2] / gaps[i] ** 1.5 for i in idx[-5:]]
    k4 = next((i for i, g in enumerate(gaps) if g <= 1e-4), None)
    if k4 is None:
        drop_ok = False
    else:
        drop_ok = (gaps[k4 + 4] if k4 + 4 < len(gaps) else gaps[-1]) < 1e-10
    detail = f"seed {seed}: {len(gaps) - 1} iterations, max tail ratio {max(ratios):.3g}"
    return max(ratios), K_theory, drop_ok, detail


@pytest.mark.parametrize("seed", [11, 12, 13, 14])
def test_superlinear_tail_under_inexact_adaptive_steps(seed):
    # the paper's local superlinear rate of the progress rule, with inexact steps
    ratio, K, drop_ok, detail = _inexact_tail(seed, adaptive(1, 1.5))
    assert ratio <= K and drop_ok, f"{detail} vs K={K:.1f}"


@pytest.mark.parametrize("policy", [power(1, 3), constant(1e-2)], ids=["power:1:3",
                                                                         "constant:1e-2"])
def test_the_tail_check_tells_the_rule_from_other_schedules(policy):
    # without the progress rule, the same check fails by orders of magnitude
    ratio, K, _, detail = _inexact_tail(11, policy)
    assert ratio > K, f"{detail} vs K={K:.1f}"


# ---------------------------------------------------------------------------
# 7. linear rate under uniform convexity with the recommended constant
# ---------------------------------------------------------------------------

def test_criterion_07_linear_rate():
    t0 = time.time()
    base = generate_shifted_logsumexp(50, 300, 1.0, seed=5)
    prob = attach_composite(base, "power:1:3")
    omega = condition_number(2, prob.smooth.lipschitz[2],
                             prob.composite.uniform_convexity(3))
    _, c_rec = strong_convexity_c_bound(2, omega)
    bound = 1.0 - (2.0 / 3.0) * omega**-0.5 + c_rec + 0.05

    cfg = SolverConfig(p=2, h_mode="lipschitz", policy=adaptive(c_rec, 1),
                       subsolver="fgm", max_iters=30)
    run = monotone2(prob, 30.0 * np.ones(50), cfg)
    gaps = np.array([r.gap for r in run.records])
    plateau = max(1e-13, 100 * np.finfo(float).eps * max(1.0, abs(prob.known_optimum[1])))
    pairs = [gaps[k + 1] / gaps[k - 1] for k in range(1, len(gaps) - 1)
             if gaps[k - 1] > plateau and gaps[k + 1] > 0]
    converged = run.status in ("monotone_floor", "max_iters")
    elapsed = time.time() - t0
    ok = (len(pairs) >= 15 and max(pairs) <= bound and converged
          and (len(pairs) >= 29 or run.status == "monotone_floor"))
    gate(7, "two-iteration contraction under the recommended adaptive constant", ok,
         f"worst contraction={max(pairs):.4f} vs bound={bound:.4f} over {len(pairs)} "
         f"pairs (floor reached: {run.status == 'monotone_floor'}), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. averaging scheme bound with the explicit starting distance
# ---------------------------------------------------------------------------

def test_criterion_08_averaging_bound():
    t0 = time.time()
    n = 20
    prob = powered_chain_oracle(n, 3.0, 2.0)
    L2 = prob.smooth.lipschitz[2]

    # the derived constant must dominate sampled third derivatives
    rng = np.random.default_rng(9)
    o = prob.smooth
    sampled = 0.0
    for _ in range(300):
        x = rng.normal(size=n)
        h = rng.normal(size=n)
        h /= np.linalg.norm(h)
        t = 1e-5
        d3 = (h @ o.hessian_vec(x + t * h, h) - h @ o.hessian_vec(x - t * h, h)) / (2 * t)
        sampled = max(sampled, abs(d3))

    cfg = SolverConfig(p=2, h_mode="lipschitz", policy=power(1, 3),
                       subsolver="fgm", max_iters=100)
    run = averaging(prob, np.ones(n), cfg)
    dist = math.sqrt(n)
    worst = 0.0
    for rec in run.records[1:]:
        bound = 13.5 * L2 * dist**3 / rec.k**2 + 1.0 / rec.k**2
        worst = max(worst, rec.gap / bound)
    elapsed = time.time() - t0
    ok = sampled <= L2 and worst <= 1.0 and elapsed < 120.0
    gate(8, "averaging scheme respects the explicit-distance bound", ok,
         f"sampled third derivative {sampled:.1f} <= L2={L2:.1f}, worst gap/bound="
         f"{worst:.3f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. acceleration on the powered-difference chain
# ---------------------------------------------------------------------------

def test_criterion_09_acceleration():
    t0 = time.time()
    chain = powered_chain_oracle(20, 3.0, 1.0)
    x0 = np.ones(20)

    acc_cfg = SolverConfig(p=2, h_mode="fixed", h_value=1.0, max_iters=80,
                           zeta_policy=power(1, 1), inner_policy=power(1, 1),
                           target_gap=1e-8)
    acc = accelerated(chain, x0, acc_cfg)
    fit = fit_rate([r.k for r in acc.records], [r.F for r in acc.records], 0.0,
                   window=(5, 60))
    slope_ok = fit.slope <= -2.5

    inner = np.array([r.inner_iters for r in acc.records[1:]], dtype=float)
    ks = np.arange(1, inner.size + 1, dtype=float)
    design = np.vstack([np.ones_like(ks), np.log(ks + 1)]).T
    coef, res, _, _ = np.linalg.lstsq(design, inner, rcond=None)
    a_fit, b_fit = float(coef[0]), float(coef[1])
    rmse = math.sqrt(float(res[0]) / inner.size) if res.size else 0.0
    envelope = a_fit + b_fit * np.log(ks + 1) + 3.0 * max(rmse, 1.0)
    inner_ok = abs(a_fit) <= 40 and abs(b_fit) <= 40 and bool(np.all(inner <= envelope))

    acc_to_target = next((r.k for r in acc.records if r.gap is not None and r.gap <= 1e-6),
                         None)
    mono_cfg = SolverConfig(p=2, h_mode="fixed", h_value=1.0, policy=adaptive(1, 1),
                            subsolver="fgm", max_iters=400, target_gap=1e-6)
    mono = monotone2(chain, x0, mono_cfg)
    mono_to_target = next((r.k for r in mono.records if r.gap is not None
                           and r.gap <= 1e-6), None)
    beats = (acc_to_target is not None
             and (mono_to_target is None or acc_to_target < mono_to_target))
    elapsed = time.time() - t0
    ok = slope_ok and inner_ok and beats and elapsed < 300.0
    gate(9, "accelerated scheme: steep slope, log-bounded inner work, beats monotone", ok,
         f"slope={fit.slope:.2f}, inner fit a={a_fit:.1f} b={b_fit:.1f}, to 1e-6: "
         f"accelerated k={acc_to_target} vs monotone k={mono_to_target}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 10. accuracy-policy study on the shifted smoothed-max instance
# ---------------------------------------------------------------------------

def test_criterion_10_policy_study(tmp_path):
    t0 = time.time()
    policies = ["constant:1e-8", "power:1:2", "power:1:3", "adaptive:1:1"]
    configs = [
        ExperimentConfig(
            problem={"name": "logsumexp", "n": 100, "m": 600, "mu": 1.0},
            method="monotone2", p=2, H="fixed:1", policy=pol, x0="e1",
            subsolver="fgm", stop="bound", max_iters=2000, target_gap=1e-8, seed=1,
        )
        for pol in policies
    ]
    report = compare(configs, out_root=str(tmp_path))
    entry = report["targets"]["1e-08"]
    labels = report["labels"]
    hvp = {lab: entry["hvp_count"][lab] for lab in labels}
    adaptive_lab = labels[policies.index("adaptive:1:1")]
    constant_lab = labels[policies.index("constant:1e-8")]
    reached = {lab: v for lab, v in hvp.items() if v is not None}
    all_reached = len(reached) == len(labels)
    best = min(reached.values()) if reached else None
    within_2x = all_reached and hvp[adaptive_lab] <= 2 * best
    beats_constant = all_reached and hvp[adaptive_lab] < hvp[constant_lab]
    elapsed = time.time() - t0
    ok = within_2x and beats_constant and elapsed < 600.0
    detail = ", ".join(f"{lab.split('/')[-1]}={hvp[lab]}" for lab in labels)
    gate(10, "adaptive policy within 2x of best, cheaper than tight constant", ok,
         f"hessian-vector counts at gap 1e-8: {detail}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 11. determinism of the harness
# ---------------------------------------------------------------------------

def test_criterion_11_determinism(tmp_path):
    cfg = ExperimentConfig(
        problem={"name": "logsumexp", "n": 20, "m": 120, "mu": 1.0},
        method="monotone2", p=2, H="fixed:1", policy="adaptive:1:1", x0="e1",
        subsolver="fgm", stop="bound", max_iters=40, target_gap=1e-8, seed=42,
    )
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, str(d1))
    run_experiment(cfg, str(d2))
    t1 = (d1 / "trace.csv").read_bytes()
    t2 = (d2 / "trace.csv").read_bytes()
    c1 = (d1 / "config.json").read_bytes()
    c2 = (d2 / "config.json").read_bytes()
    ok = t1 == t2 and c1 == c2 and len(t1) > 0
    gate(11, "repeat runs with one seed produce byte-identical traces", ok,
         f"trace bytes={len(t1)}")
