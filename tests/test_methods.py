import itertools
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse

from conftest import forbid_oracle_calls

from tensoropt import methods, subsolvers
from tensoropt.accel import accelerated
from tensoropt.cli import main
from tensoropt.harness import ExperimentConfig, execute, reference_fstar
from tensoropt.linalg import NormOperator
from tensoropt.methods import (
    CountingOracle,
    DivergenceError,
    SolverConfig,
    TRACE_COLUMNS,
    averaging,
    monotone1,
    monotone2,
)
from tensoropt.model import TensorModel
from tensoropt.policies import AccuracyPolicy, adaptive, constant, power, precision_floor
from tensoropt.problems import (
    PowerComposite,
    ProblemInstance,
    QuadraticOracle,
    SmoothOracle,
    ZeroComposite,
    generate_shifted_logsumexp,
    logistic_oracle,
    powered_chain_oracle,
)
from tensoropt.subsolvers import exact_cubic_step


def small_lse(seed=0, n=8, m=48):
    return generate_shifted_logsumexp(n, m, 1.0, seed)


class TestMonotone1:
    # with max_iters=1 the row that stops the run is the last one allowed
    @pytest.mark.parametrize("max_iters", [10, 1])
    def test_starts_at_optimum(self, max_iters):
        prob = small_lse(1)
        cfg = SolverConfig(p=2, h_mode="lipschitz", policy=power(1, 3),
                          subsolver="exact", max_iters=max_iters)
        run = monotone1(prob, prob.known_optimum[0], cfg)
        assert run.status == "stationary"
        # no accepted step ever moved the iterate
        for pt in run.points:
            np.testing.assert_array_equal(pt, prob.known_optimum[0])

    def test_objective_never_increases(self):
        prob = small_lse(2)
        cfg = SolverConfig(p=2, h_mode="lipschitz", policy=power(1, 3),
                          subsolver="fgm", max_iters=30)
        run = monotone1(prob, np.ones(8), cfg)
        F = [r.F for r in run.records]
        assert all(F[i + 1] <= F[i] + 1e-12 for i in range(len(F) - 1))

    def test_rejection_keeps_iterate_and_caps_tolerance(self):
        # a huge constant tolerance lets the subsolver certify the center
        # itself; the first candidates are rejected and F stays flat
        prob = small_lse(3)
        cfg = SolverConfig(p=2, h_mode="lipschitz", policy=constant(1e9),
                          subsolver="fgm", max_iters=6)
        run = monotone1(prob, np.ones(8), cfg)
        F = [r.F for r in run.records]
        assert F[1] == F[0]
        assert run.records[1].delta_requested == 1e9
        # the cap halves the requested tolerance after each rejection
        assert run.records[2].delta_requested == pytest.approx(0.5e9)

    @pytest.mark.parametrize("h_mode, h_value", [("lipschitz", None), ("linesearch", 1.0)])
    @pytest.mark.parametrize("stop", ["bound", "exact"])
    def test_rejected_candidates_keep_the_model_and_the_points(
            self, monkeypatch, h_mode, h_value, stop):
        # a loose constant tolerance makes runs of rejected candidates between
        # accepted steps; keeping the center's model saves its rebuilds and
        # lands on the same points as a run that rebuilds it for every candidate
        prob = small_lse(3)
        cfg = SolverConfig(p=2, h_mode=h_mode, h_value=h_value, policy=constant(1.0),
                           subsolver="fgm", stop=stop, max_iters=30)
        kept = monotone1(prob, np.ones(8), cfg)
        build = methods._Runner.solver
        # the control rebuilds and starts each candidate afresh from the rejected point
        monkeypatch.setattr(methods._Runner, "solver",
                            lambda run, center: lambda delta, warm=None: build(run, center)(
                                delta, None if warm is None else warm.point))
        rebuilt = monotone1(prob, np.ones(8), cfg)
        assert kept.status == rebuilt.status
        assert [r.F for r in kept.records] == [r.F for r in rebuilt.records]
        assert all(np.array_equal(a, b) for a, b in zip(kept.points, rebuilt.points))
        np.testing.assert_array_equal(kept.x_final, rebuilt.x_final)
        # every rejected candidate but the last row's saves one model build
        F = [r.F for r in kept.records[:-1]]
        rejected = sum(a == b for a, b in zip(F, F[1:]))
        assert rejected >= 10 and F[-1] < F[0]
        assert kept.counts["gradient"] == rebuilt.counts["gradient"] - rejected
        assert kept.counts["hessian"] == rebuilt.counts["hessian"] - (
            rejected if stop == "exact" else 0)
        assert kept.counts["hessian_vec"] < rebuilt.counts["hessian_vec"]

    def test_global_rate_bound_with_radius_proxy(self):
        prob = small_lse(4)
        cfg = SolverConfig(p=2, h_mode="lipschitz", policy=power(1, 3),
                          subsolver="fgm", max_iters=50)
        run = monotone1(prob, np.ones(8), cfg)
        L = prob.smooth.lipschitz[2]
        D = run.radius_proxy
        for rec in run.records[1:]:
            bound = 27.0 * L * D**3 / (2.0 * rec.k**2) + 1.0 / rec.k**2
            if rec.gap > bound:
                warnings.warn(f"rate bound near-miss at k={rec.k}: {rec.gap} vs {bound}")
            assert rec.gap <= 2.0 * bound

    def test_target_gap_stops_early(self):
        prob = small_lse(5)
        cfg = SolverConfig(p=2, h_mode="lipschitz", policy=power(1, 3),
                          subsolver="exact", max_iters=500, target_gap=1e-6)
        run = monotone1(prob, 0.5 * np.ones(8), cfg)
        assert run.status == "target_reached"
        assert run.records[-1].gap <= 1e-6


class TestMonotone2:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_strict_decrease_every_iteration(self):
        prob = small_lse(6)
        cfg = SolverConfig(p=2, h_mode="lipschitz", policy=adaptive(1e-2, 1),
                          subsolver="fgm", max_iters=25)
        run = monotone2(prob, np.ones(8), cfg)
        F = [r.F for r in run.records]
        assert all(F[i + 1] < F[i] for i in range(len(F) - 1))

    def test_floor_signal_at_optimum(self):
        prob = small_lse(7)
        cfg = SolverConfig(p=2, h_mode="lipschitz", policy=power(1, 3),
                          subsolver="exact", max_iters=10)
        run = monotone2(prob, prob.known_optimum[0], cfg)
        assert run.status == "monotone_floor"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_first_iteration_uses_delta1(self):
        prob = small_lse(8)
        cfg = SolverConfig(p=2, h_mode="lipschitz",
                          policy=adaptive(1.0, 1.0, delta1=0.125),
                          subsolver="fgm", max_iters=3)
        run = monotone2(prob, np.ones(8), cfg)
        assert run.records[1].delta_requested == 0.125

    @pytest.mark.parametrize("subsolver", ["fgm", "exact"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_csr_and_dense_logistic_data_take_the_same_run(self, subsolver, seed):
        # the CSR products no benchmark workload runs, against the dense ones on the
        # same data: 120 × 12 at about 30 % nonzero, with the Hessian under exact steps
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, size=(120, 12)) * (rng.random((120, 12)) < 0.3)
        y = np.where(X @ rng.normal(size=12) + 0.5 * rng.normal(size=120) >= 0, 1.0, -1.0)
        cfg = SolverConfig(h_mode="linesearch", h_value=1.0, subsolver=subsolver, max_iters=40)
        dense, sparse = (monotone2(ProblemInstance(logistic_oracle(A, y, l2=1e-3),
                                                   ZeroComposite(12)), np.zeros(12), cfg)
                         for A in (X, scipy.sparse.csr_matrix(X)))
        assert dense.status == sparse.status == "monotone_floor"
        assert len(dense.records) == len(sparse.records) and dense.counts == sparse.counts
        for a, b in zip(dense.records, sparse.records):
            assert (a.H_used, a.inner_iters, a.hvp_count) == (b.H_used, b.inner_iters, b.hvp_count)
            assert abs(a.F - b.F) <= 1e-12 * abs(a.F)

    def test_progress_rule_rate_bound(self):
        prob = small_lse(9)
        p, c, delta1 = 2, 1.0 / 214.0, 1.0
        cfg = SolverConfig(p=p, h_mode="lipschitz",
                          policy=adaptive(c, 1.0, delta1=delta1),
                          subsolver="fgm", max_iters=40)
        run = monotone2(prob, np.ones(8), cfg)
        L = prob.smooth.lipschitz[2]
        D = run.radius_proxy
        F0_gap = run.records[0].gap
        gamma = (p + 2) ** (p + 1) / (1 - c * ((p + 2) * 3 ** (p + 1) - 1))
        beta = (delta1 + c * 2 ** (p + 2) * F0_gap) / (1 - c * ((p + 2) ** 2 / (p + 1) - 1))
        for rec in run.records[1:]:
            bound = gamma * L * D ** (p + 1) / (2.0 * rec.k**p) + beta / rec.k ** (p + 2)
            if rec.gap > bound:
                warnings.warn(f"rate bound near-miss at k={rec.k}")
            assert rec.gap <= 2.0 * bound


class TestAveraging:
    def test_matches_manual_replication(self):
        prob = small_lse(10)
        H = 2 * prob.smooth.lipschitz[2]
        cfg = SolverConfig(p=2, h_mode="lipschitz", policy=power(1, 3),
                          subsolver="exact", max_iters=5)
        run = averaging(prob, np.ones(8), cfg)
        x = np.ones(8)
        x0 = np.ones(8)
        for k in range(5):
            lam = (k / (k + 1.0)) ** 3
            y = lam * x + (1.0 - lam) * x0
            model = TensorModel(prob.smooth, prob.composite, y, H, p=2)
            x = exact_cubic_step(model).point
            np.testing.assert_allclose(run.points[k + 1], x, atol=1e-13)

    def test_not_forced_monotone(self):
        # the scheme may increase F on some iterations and must not reject
        prob = powered_chain_oracle(6, 3.0, 1.0)
        cfg = SolverConfig(p=2, h_mode="lipschitz", policy=power(1, 3),
                          subsolver="exact", max_iters=40)
        run = averaging(prob, np.ones(6), cfg)
        assert run.status in ("max_iters", "target_reached")
        assert run.records[-1].gap < run.records[0].gap

    def test_steps_at_a_certified_point_make_no_value_call(self):
        # at the optimum every step stops at its start, where its model gives F
        prob = small_lse(11)
        x_star = prob.known_optimum[0]
        cfg = SolverConfig(p=2, h_mode="lipschitz", policy=power(1, 3), max_iters=5)
        run = averaging(prob, x_star, cfg)
        assert [r.inner_iters for r in run.records[1:]] == [0] * 5
        # one value call for F(x0), and one with the gradient per model build
        assert run.counts["value"] == 1 + run.counts["gradient"] == 6

    def test_rejects_adaptive_policy_before_any_oracle_call(self, monkeypatch):
        # the schedule needs the objective history, which averaging does not keep
        prob = generate_shifted_logsumexp(10, 60, 1.0, 0)
        forbid_oracle_calls(monkeypatch, prob.smooth)
        cfg = SolverConfig(p=2, h_mode="lipschitz", policy=adaptive(1, 1), max_iters=5)
        with pytest.raises(ValueError, match="averaging .*adaptive policy"):
            averaging(prob, np.ones(10), cfg)


DRIVERS = {"monotone1": monotone1, "monotone2": monotone2, "averaging": averaging,
           "accelerated": accelerated}


def driver_config(method, **kw):
    # the outer and inner schedules only accelerated reads, and every other driver refuses
    if method == "accelerated":
        kw = dict(zeta_policy=power(1, 4), inner_policy=power(1, 1), **kw)
    return SolverConfig(p=2, h_mode="lipschitz", policy=power(1, 3), subsolver="fgm", **kw)


@pytest.mark.parametrize("method", sorted(DRIVERS))
class TestSharedLoop:
    """The outer loop every driver runs through."""

    def test_start_within_the_target_costs_one_row_and_no_derivative(self, method):
        prob = small_lse(16)
        run = DRIVERS[method](prob, prob.known_optimum[0], driver_config(method, target_gap=1e-6))
        assert run.status == "target_reached"
        assert len(run.records) == 1
        assert run.counts["gradient"] == 0 and run.counts["hessian_vec"] == 0

    def test_stall_keeps_the_rows_so_far(self, method, monkeypatch):
        # the first eight FGM solves run under the usual cap, later ones stop
        # after one iteration, which only a start that certifies at once passes
        prob = small_lse(0)
        cfg = driver_config(method, max_iters=20)
        full = DRIVERS[method](prob, np.ones(8), cfg)
        usual, solves = subsolvers._default_cap, itertools.count()
        monkeypatch.setattr(subsolvers, "_default_cap",
                            lambda delta: usual(delta) if next(solves) < 8 else 1)
        run = DRIVERS[method](prob, np.ones(8), cfg)
        assert full.status == "max_iters" and run.status == "stalled"
        assert 2 <= len(run.records) < len(full.records)
        assert run.records == full.records[:len(run.records)]
        np.testing.assert_array_equal(run.x_final, run.points[-1])
        assert run.f_final == run.records[-1].F

    def test_policy_is_queried_once_per_row(self, method, monkeypatch):
        calls = []
        delta = AccuracyPolicy.delta

        def counted(policy, k, history=None):
            calls.append((policy, k))
            return delta(policy, k, history)

        monkeypatch.setattr(AccuracyPolicy, "delta", counted)
        cfg = driver_config(method, max_iters=4)
        run = DRIVERS[method](small_lse(0), np.ones(8), cfg)
        outer = cfg.zeta_policy if method == "accelerated" else cfg.policy
        assert run.status == "max_iters" and len(run.records) == 5
        assert [k for policy, k in calls if policy is outer] == [1, 2, 3, 4]


# accelerated takes no exact step at p = 2 (``SolverConfig.validate`` refuses it)
@pytest.mark.parametrize("method, subsolver", [
    (method, subsolver) for subsolver in ("fgm", "exact") for method in sorted(DRIVERS)
    if (method, subsolver) != ("accelerated", "exact")])
class TestFactorCoordinates:
    """A Gram-norm problem is solved in the coordinates z = Lᵀ(x − x0) of the
    norm's factor B = L Lᵀ, and its points are reported in x."""

    def test_no_dense_norm_operation_runs(self, method, subsolver, monkeypatch):
        prob = small_lse(3)
        for attr in ("solve", "apply", "primal", "dual"):
            def guarded(self, x, _raw=getattr(NormOperator, attr), _attr=attr):
                if self.kind == "dense":
                    raise AssertionError(f"dense NormOperator.{_attr} called")
                return _raw(self, x)
            monkeypatch.setattr(NormOperator, attr, guarded)
        cfg = replace(driver_config(method, max_iters=6), subsolver=subsolver)
        run = DRIVERS[method](prob, np.ones(8), cfg)
        assert run.status == "max_iters" and run.records[-1].F < run.records[0].F

    def test_points_are_reported_in_the_problem_coordinates(self, method, subsolver):
        prob = small_lse(4)
        x0 = np.linspace(-1.0, 1.0, 8)
        run = DRIVERS[method](prob, x0,
                              replace(driver_config(method, max_iters=6), subsolver=subsolver))
        assert np.array_equal(run.points[0], x0)
        assert np.array_equal(run.x_final, run.points[-1])
        for rec, pt in zip(run.records, run.points):
            assert prob.value(pt) == pytest.approx(rec.F, rel=1e-12)
        x_star = prob.known_optimum[0]
        radius = max(prob.norm.primal(pt - x_star) for pt in run.points)
        assert run.radius_proxy == pytest.approx(radius, rel=1e-12)

    def test_a_composite_on_its_own_copy_of_the_norm_runs_alike(self, method, subsolver):
        # on the problem's norm a quadratic term is recentred; on an equal
        # operator built apart it has no view, so that run keeps x and the dense
        # norm, and folds the term into exact steps all the same
        prob = small_lse(5)
        center = np.linspace(-0.5, 0.5, 8)
        cfg = replace(driver_config(method, max_iters=6), subsolver=subsolver)
        runs = [DRIVERS[method](ProblemInstance(prob.smooth, PowerComposite(0.5, 2.0, center, n)),
                                np.ones(8), cfg)
                for n in (prob.norm, NormOperator.gram(prob.smooth.A))]
        assert runs[0].status == runs[1].status and len(runs[0].records) == len(runs[1].records)
        for a, b in zip(runs[0].records, runs[1].records):
            assert b.F == pytest.approx(a.F, rel=1e-10)

    @pytest.mark.parametrize("composite", ["zero", "quadratic"])
    def test_an_oracle_without_a_view_runs_in_x_under_its_norm(self, method, subsolver,
                                                                composite):
        # a quadratic has no view of its own, so its run keeps x and the dense
        # norm; it must retrace the run on the instance whitened by hand
        rng = np.random.default_rng(23)
        n = 6
        Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        A = Q @ np.diag(rng.uniform(0.2, 3.0, n)) @ Q.T
        b, c, center = rng.normal(size=n), rng.normal(size=n), rng.normal(size=n)
        M = rng.normal(size=(n, n))
        M = M @ M.T + n * np.eye(n)
        norm, L = NormOperator.dense(M), np.linalg.cholesky(M)
        Li = np.linalg.inv(L)
        x0 = np.linspace(-1.0, 1.0, n)

        def instance(A, b, c, norm, center):
            oracle = QuadraticOracle(A, b=b, center=c, norm=norm)
            oracle.lipschitz = {2: 1.0}  # the Hessian is constant, so any bound holds
            psi = (ZeroComposite(n) if composite == "zero"
                   else PowerComposite(0.5, 2.0, center, norm))
            return ProblemInstance(oracle, psi)

        prob = instance(A, b, c, norm, center)
        assert prob.whitened(x0) is prob
        by_hand = instance(Li @ A @ Li.T, Li @ b, L.T @ c, NormOperator.identity(n),
                           L.T @ center)
        cfg = replace(driver_config(method, max_iters=6), subsolver=subsolver)
        run, ref = DRIVERS[method](prob, x0, cfg), DRIVERS[method](by_hand, L.T @ x0, cfg)
        assert run.status == ref.status and len(run.records) == len(ref.records)
        for a, r in zip(run.records, ref.records):
            assert a.F == pytest.approx(r.F, rel=1e-10)
        assert np.array_equal(run.points[0], x0)
        for pt, z in zip(run.points, ref.points):
            np.testing.assert_allclose(pt, Li.T @ z, rtol=1e-8, atol=1e-10)
            assert prob.value(pt) == pytest.approx(by_hand.value(z), rel=1e-10)


class TestOrderOne:
    def test_global_rate_bound(self):
        # order 1 with the 1/k^2 schedule: gap bounded by 4 L_1 D^2 / k + 1/k
        prob = small_lse(20)
        cfg = SolverConfig(p=1, h_mode="lipschitz", policy=power(1, 2),
                          subsolver="fgm", max_iters=60)
        run = monotone1(prob, 0.5 * np.ones(8), cfg)
        L = prob.smooth.lipschitz[1]
        D = run.radius_proxy
        for rec in run.records[1:]:
            bound = 4.0 * L * D**2 / rec.k + 1.0 / rec.k
            assert rec.gap <= 2.0 * bound

    def test_closed_form_matches_fgm(self):
        prob = small_lse(21)
        x0 = 0.4 * np.ones(8)
        runs = {}
        for sub in ("exact", "fgm"):
            cfg = SolverConfig(p=1, h_mode="lipschitz", policy=power(1, 2),
                              subsolver=sub, max_iters=20)
            runs[sub] = monotone2(prob, x0, cfg)
        final = [runs[s].f_final for s in ("exact", "fgm")]
        assert final[0] == pytest.approx(final[1], rel=1e-3)


class TestExactStopProtocol:
    def test_certified_residual_is_true_residual(self):
        # with the exact stopping rule the certificate equals the measured
        # residual against the model minimum, and stays within the schedule
        prob = small_lse(22)
        cfg = SolverConfig(p=2, h_mode="lipschitz", policy=power(1, 3),
                          subsolver="fgm", stop="exact", max_iters=10)
        run = monotone2(prob, np.ones(8), cfg)
        for rec in run.records[1:]:
            assert rec.delta_certified <= max(rec.delta_requested, 1e-13) + 1e-15


class TestLineSearch:
    def test_averaging_with_line_search(self):
        prob = powered_chain_oracle(8, 3.0, 1.0)
        cfg = SolverConfig(p=2, h_mode="linesearch", h_value=1.0, policy=power(1, 3),
                          subsolver="fgm", max_iters=30)
        run = averaging(prob, np.ones(8), cfg)
        assert run.records[-1].gap < run.records[0].gap
        assert all(rec.H_used is not None for rec in run.records[1:])

    def test_quadratic_accepts_without_doubling(self):
        oracle = QuadraticOracle(np.diag([2.0, 1.0]), b=np.array([1.0, -1.0]))
        prob = ProblemInstance(oracle, ZeroComposite(2), "quad")
        cfg = SolverConfig(p=2, h_mode="linesearch", h_value=8.0, policy=power(1, 3),
                          subsolver="exact", max_iters=3)
        run = monotone2(prob, np.ones(2), cfg)
        # accepted at the start weight; later searches start from half of it
        assert run.records[1].H_used == pytest.approx(8.0)
        assert run.records[2].H_used == pytest.approx(4.0)
        assert run.records[3].H_used == pytest.approx(2.0)

    def test_logsumexp_doublings_bounded_by_lipschitz(self):
        prob = small_lse(11)
        L = prob.smooth.lipschitz[2]
        cfg = SolverConfig(p=2, h_mode="linesearch", h_value=L / 16.0,
                          policy=power(1, 3), subsolver="fgm", max_iters=20)
        run = monotone2(prob, np.ones(8), cfg)
        assert all(rec.H_used <= 2.0 * L for rec in run.records[1:])

    def test_per_iteration_H_recorded(self):
        prob = small_lse(12)
        cfg = SolverConfig(p=2, h_mode="linesearch", h_value=1.0,
                          policy=adaptive(1, 1), subsolver="fgm", max_iters=8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run = monotone2(prob, np.ones(8), cfg)
        assert all(rec.H_used is not None and rec.H_used > 0 for rec in run.records[1:])

    @pytest.mark.parametrize("subsolver", ["fgm", "exact"])
    def test_one_model_per_center_across_doublings(self, subsolver):
        prob = powered_chain_oracle(8, 3.0, 1.0)
        cfg = SolverConfig(p=2, h_mode="linesearch", h_value=1e-4,
                          policy=constant(1e-3), subsolver=subsolver, max_iters=6)
        run = monotone2(prob, np.ones(8), cfg)
        centers = len(run.records) - 1
        assert run.status == "max_iters"
        assert run.records[2].H_used > 1e3 * cfg.h_value   # the second search doubled
        # one gradient (and, for exact steps, one dense Hessian) per center
        assert run.counts["gradient"] == centers
        assert run.counts["hessian"] == (centers if subsolver == "exact" else 0)

    @pytest.mark.parametrize("subsolver, stop", [("exact", "bound"), ("fgm", "exact")])
    def test_one_hessian_and_one_reduction_per_model_build(self, monkeypatch, subsolver, stop):
        from tensoropt import model as model_module

        reductions = []
        reduce = model_module.tridiagonal_form
        monkeypatch.setattr(model_module, "tridiagonal_form",
                            lambda M: reductions.append(1) or reduce(M))
        prob = powered_chain_oracle(8, 3.0, 1.0)
        cfg = SolverConfig(p=2, h_mode="linesearch", h_value=1e-4, policy=constant(1e-3),
                           subsolver=subsolver, stop=stop, max_iters=6)
        run = monotone2(prob, np.ones(8), cfg)
        centers = len(run.records) - 1
        assert run.records[2].H_used > 1e3 * cfg.h_value   # the second search doubled
        # every doubling, and every exact model minimum, reuses its center's reduction
        assert run.counts["hessian"] == len(reductions) == centers

    def test_divergence_error_on_inconsistent_objective(self):
        class LiarOracle(SmoothOracle):
            dim = 1
            norm = NormOperator.identity(1)
            lipschitz = {}

            def value(self, x):
                return 1.0

            def gradient(self, x):
                return np.array([1.0])

            def hessian_vec(self, x, h, state=None):
                return np.zeros(1)

            def hessian(self, x, state=None):
                return np.zeros((1, 1))

        prob = ProblemInstance(LiarOracle(), ZeroComposite(1), "liar")
        cfg = SolverConfig(p=2, h_mode="linesearch", h_value=1.0, policy=power(1, 3),
                          subsolver="exact", max_iters=2)
        with pytest.raises(DivergenceError):
            monotone2(prob, np.zeros(1), cfg)


class TestAccounting:
    def test_counters_match_independent_wrapper(self):
        prob = small_lse(13)

        class Shim:
            def __init__(self, inner):
                self.inner = inner
                self.grad_calls = 0
                self.hvp_calls = 0

            @property
            def dim(self):
                return self.inner.dim

            @property
            def norm(self):
                return self.inner.norm

            @property
            def lipschitz(self):
                return self.inner.lipschitz

            def value(self, x):
                return self.inner.value(x)

            def gradient(self, x):
                self.grad_calls += 1
                return self.inner.gradient(x)

            def value_gradient_state(self, x):
                self.grad_calls += 1
                return self.inner.value_gradient_state(x)

            def hessian_vec(self, x, h, state=None):
                self.hvp_calls += 1
                return self.inner.hessian_vec(x, h, state)

        shim = Shim(prob.smooth)
        shim_prob = ProblemInstance(shim, prob.composite, "shimmed", prob.known_optimum)
        cfg = SolverConfig(p=2, h_mode="lipschitz", policy=power(1, 3),
                          subsolver="fgm", max_iters=10)
        run = monotone1(shim_prob, np.ones(8), cfg)
        assert run.counts["gradient"] == shim.grad_calls
        assert run.counts["hessian_vec"] == shim.hvp_calls

    def test_trace_columns_and_monotone_k(self):
        prob = small_lse(14)
        cfg = SolverConfig(p=2, h_mode="lipschitz", policy=power(1, 3),
                          subsolver="fgm", max_iters=5)
        run = monotone2(prob, np.ones(8), cfg)
        ks = [r.k for r in run.records]
        assert ks == sorted(set(ks))
        for col in TRACE_COLUMNS:
            assert hasattr(run.records[0], col)
        # start row has no step data, and no zero-filling
        assert run.records[0].delta_requested is None
        assert run.records[0].H_used is None
        assert run.records[0].time_s is None


class TestInnerWork:
    def test_gate_ten_instance_spends_about_one_product_per_inner_iteration(self):
        # the acceptance policy study's adaptive:1:1 run; the bound allows one
        # product per inner iteration plus two per outer iteration (a warm
        # start and a fresh certificate)
        cfg = ExperimentConfig(
            problem={"name": "logsumexp", "n": 100, "m": 600, "mu": 1.0},
            method="monotone2", p=2, H="fixed:1", policy="adaptive:1:1", x0="e1",
            subsolver="fgm", stop="bound", max_iters=2000, target_gap=1e-8, seed=1,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run = execute(cfg)
        assert run.status == "target_reached"
        steps = run.records[1:]
        inner = sum(rec.inner_iters for rec in steps)
        assert run.records[-1].hvp_count <= inner + 2 * len(steps)


# Without the FGM floor exit the repro below spends 1.32 M products and stalls.
HVP_LIMIT = 5000


@pytest.fixture
def hvp_limit(monkeypatch):
    """Every solve raises past HVP_LIMIT products, so a stall fails fast."""
    counted = CountingOracle.hessian_vec

    def limited(self, x, h, state=None):
        if self.n_hvp >= HVP_LIMIT:
            raise RuntimeError(f"more than {HVP_LIMIT} Hessian-vector products")
        return counted(self, x, h, state)

    monkeypatch.setattr(CountingOracle, "hessian_vec", limited)


class TestPrecisionFloor:
    # The adaptive policy asks for delta at the precision floor once F is
    # optimal, which no certificate reaches in double precision.
    REPRO = dict(problem={"name": "logistic-synth", "n": 50, "m": 300, "l2": 1e-3},
                 method="monotone2", p=2, H="linesearch:1", policy="adaptive:0.005:1",
                 subsolver="fgm", stop="bound", x0="zeros", max_iters=100, seed=0)

    @pytest.mark.parametrize("method, status", [("monotone2", "monotone_floor"),
                                                ("monotone1", "stationary")])
    def test_adaptive_policy_ends_at_the_floor_within_a_bounded_cost(self, hvp_limit,
                                                                     method, status):
        cfg = ExperimentConfig(**{**self.REPRO, "method": method})
        run = execute(cfg)
        fstar, _ = reference_fstar(cfg)
        assert run.status == status
        assert abs(run.f_final - fstar) <= 1e-8
        assert run.counts["hessian_vec"] <= 1000

    def test_monotone1_ends_stationary_at_the_floor(self, hvp_limit):
        # a rejected step whose halved tolerance would pass the floor ends the
        # run, as in monotone2; the delta cap used to keep halving to 1e-98
        cfg = ExperimentConfig(**{**self.REPRO, "method": "monotone1",
                                  "policy": "constant:1e-12", "max_iters": 50})
        run = execute(cfg)
        fstar, _ = reference_fstar(cfg)
        assert run.status == "stationary"
        assert abs(run.f_final - fstar) <= 1e-8

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("method", ["monotone2", "monotone1"])
    def test_no_rounding_level_decrease_is_accepted(self, hvp_limit, method, seed):
        # A driver that accepts decreases below the floor spends 458-681
        # products per run here, most of them after F is within 1e-12 of F*;
        # stopping at the floor takes 182-250.
        cfg = ExperimentConfig(**{**self.REPRO, "method": method, "policy": "power:1:3",
                                  "max_iters": 300, "seed": seed})
        run = execute(cfg)
        fstar, _ = reference_fstar(cfg)
        F = [r.F for r in run.records]
        floor = precision_floor(F[0])
        assert run.status in ("monotone_floor", "stationary")
        # monotone1 repeats F on a rejected step; every other row is accepted
        assert all(f_next < f - floor for f, f_next in zip(F, F[1:]) if f_next != f)
        assert abs(run.f_final - fstar) <= 1e-12
        assert run.counts["hessian_vec"] <= 300

    def test_cli_run_exits_zero(self, hvp_limit, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        ExperimentConfig(**self.REPRO).save(path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "monotone_floor"


class TestConfigValidation:
    def test_bad_order(self):
        with pytest.raises(ValueError):
            SolverConfig(p=3).validate()

    def test_fixed_mode_needs_value(self):
        with pytest.raises(ValueError):
            SolverConfig(h_mode="fixed").validate()

    def test_h_value_must_be_finite_and_positive(self):
        # a NaN or infinite start never ends a line search; a fixed one never steps
        for mode in ("fixed", "linesearch", "lipschitz"):
            for bad in (float("nan"), float("inf"), -float("inf"), 0.0, -1.0):
                with pytest.raises(ValueError):
                    SolverConfig(h_mode=mode, h_value=bad).validate()
            SolverConfig(h_mode=mode, h_value=0.5).validate()

    def test_lipschitz_mode_needs_known_constant(self):
        prob = powered_chain_oracle(4, 4.0, 1.0)  # no known L_p for q=4
        cfg = SolverConfig(p=2, h_mode="lipschitz", policy=power(1, 3),
                          subsolver="exact", max_iters=2)
        with pytest.raises(ValueError):
            monotone2(prob, np.ones(4), cfg)

    @pytest.mark.parametrize("method", sorted(DRIVERS))
    def test_unknown_lipschitz_constant_is_rejected_before_any_oracle_call(self, monkeypatch,
                                                                           method):
        prob = powered_chain_oracle(4, 2.5, 1.0)  # no known L_p for q=2.5
        forbid_oracle_calls(monkeypatch, prob.smooth)
        with pytest.raises(ValueError, match="Lipschitz constant"):
            DRIVERS[method](prob, np.ones(4), driver_config(method, max_iters=2))

    @pytest.mark.parametrize("method", ["monotone1", "monotone2", "averaging"])
    @pytest.mark.parametrize("name", ["zeta_policy", "inner_policy"])
    def test_a_schedule_only_accelerated_reads_is_refused(self, monkeypatch, method, name):
        prob = small_lse(0)
        forbid_oracle_calls(monkeypatch, prob.smooth)
        cfg = replace(driver_config(method, max_iters=2), **{name: power(1, 1)})
        with pytest.raises(ValueError, match=f"{name} is never read by {method}"):
            DRIVERS[method](prob, np.ones(8), cfg)

    def test_an_inner_policy_under_monotone2_is_refused_before_any_driver_runs(self, monkeypatch):
        monkeypatch.setattr(methods, "_Runner", None)  # no driver runs
        cfg = ExperimentConfig(problem={"name": "chain", "n": 6}, method="monotone2",
                               H="fixed:1", inner_policy="adaptive:1:1", max_iters=2)
        with pytest.raises(ValueError, match="inner_policy is never read by monotone2"):
            execute(cfg)

    def test_wrong_start_dimension(self):
        prob = small_lse(15)
        cfg = SolverConfig(p=2, h_mode="lipschitz", policy=power(1, 3), max_iters=2)
        with pytest.raises(ValueError):
            monotone2(prob, np.ones(9), cfg)
