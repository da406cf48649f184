import math

import numpy as np
import pytest

from conftest import brute_force_model_min, random_cubic_model

from tensoropt.linalg import NormOperator
from tensoropt.model import TensorModel
from tensoropt.problems import (
    PowerComposite,
    QuadraticComposite,
    QuadraticOracle,
    ZeroComposite,
    generate_shifted_logsumexp,
)
from tensoropt.subsolvers import (
    StepResult,
    SubsolverStall,
    exact_cubic_step,
    fgm_step,
    gradient_step,
    model_solver,
    monotone_step,
    residual_bound,
    solve_model,
)


class TestResidualBound:
    def test_pinned_constant(self):
        # degree 3 with sigma = H/4 at H = 1 and unit gradient norm: 4/3
        assert residual_bound(1.0, 0.25, 3) == pytest.approx(4.0 / 3.0)

    def test_zero_gradient_gives_zero(self):
        assert residual_bound(0.0, 0.5, 3) == 0.0

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            residual_bound(1.0, 0.0, 3)

    def test_dominates_true_residual(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            model = random_cubic_model(rng, n=2)
            exact = exact_cubic_step(model)
            y = model.center + rng.normal(size=2)
            bound = residual_bound(model.norm.dual(model.gradient(y)),
                                   model.uniform_convexity(), 3)
            true_res = model.value(y) - exact.model_value
            assert bound >= true_res - 1e-10


class TestExactCubicStep:
    def test_fixed_point_at_stationary_center(self):
        A = np.diag([1.0, 2.0])
        oracle = QuadraticOracle(A)
        model = TensorModel(oracle, ZeroComposite(2), np.zeros(2), H=3.0, p=2,
                            want_hessian=True)
        res = exact_cubic_step(model)
        np.testing.assert_allclose(res.point, np.zeros(2), atol=1e-14)

    def test_one_dimensional_golden_root(self):
        oracle = QuadraticOracle(np.array([[1.0]]), b=np.array([-1.0]))
        model = TensorModel(oracle, ZeroComposite(1), np.zeros(1), H=2.0, p=2,
                            want_hessian=True)
        res = exact_cubic_step(model)
        assert res.point[0] == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-12)
        assert res.certified_residual == 0.0
        assert res.certification == "exact_oracle"

    def test_matches_brute_force_on_random_models(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            model = random_cubic_model(rng)
            res = exact_cubic_step(model)
            ref = brute_force_model_min(model, rng, n_starts=6)
            assert abs(res.model_value - ref) <= 1e-8

    def test_first_order_condition_residual(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            model = random_cubic_model(rng)
            res = exact_cubic_step(model)
            assert model.norm.dual(model.gradient(res.point)) <= 1e-10

    def test_indefinite_curvature(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            model = random_cubic_model(rng, convex=False)
            res = exact_cubic_step(model)
            ref = brute_force_model_min(model, rng, n_starts=12)
            assert res.model_value <= ref + 1e-8

    def test_hard_case_boundary_solution(self):
        # gradient orthogonal to the bottom eigenvector and too weak for an
        # interior root: the step must still reach the global minimum
        A = np.diag([-2.0, 1.0])
        g = np.array([0.0, 1e-3])
        oracle = QuadraticOracle(A, b=g)
        model = TensorModel(oracle, ZeroComposite(2), np.zeros(2), H=1.0, p=2,
                            want_hessian=True)
        res = exact_cubic_step(model)
        rng = np.random.default_rng(4)
        ref = brute_force_model_min(model, rng, n_starts=20)
        assert res.model_value <= ref + 1e-8
        # boundary radius -2 lambda_min / H = 4
        assert model.norm.primal(res.point) == pytest.approx(4.0, rel=1e-6)

    def test_zero_gradient_negative_curvature(self):
        A = np.diag([-1.0, 2.0])
        oracle = QuadraticOracle(A)
        model = TensorModel(oracle, ZeroComposite(2), np.zeros(2), H=2.0, p=2,
                            want_hessian=True)
        res = exact_cubic_step(model)
        assert model.value(res.point) < model.value(model.center)

    def test_quadratic_composite_is_folded(self):
        rng = np.random.default_rng(5)
        n = 3
        A = np.eye(n)
        norm = NormOperator.identity(n)
        oracle = QuadraticOracle(A, b=rng.normal(size=n), norm=norm)
        comp = QuadraticComposite(0.8, rng.normal(size=n), norm)
        model = TensorModel(oracle, comp, np.zeros(n), H=2.0, p=2, want_hessian=True)
        res = exact_cubic_step(model)
        assert model.norm.dual(model.gradient(res.point)) <= 1e-10

    def test_rejects_missing_hessian(self):
        oracle = QuadraticOracle(np.eye(2), b=np.ones(2))
        model = TensorModel(oracle, ZeroComposite(2), np.zeros(2), H=1.0, p=2)
        with pytest.raises(ValueError):
            exact_cubic_step(model)


class TestGradientStep:
    def test_fixed_point(self):
        oracle = QuadraticOracle(np.eye(2))
        model = TensorModel(oracle, ZeroComposite(2), np.zeros(2), H=1.0, p=1)
        res = gradient_step(model)
        np.testing.assert_allclose(res.point, np.zeros(2), atol=1e-14)

    def test_unit_curvature_single_step(self):
        oracle = QuadraticOracle(np.eye(1))
        model = TensorModel(oracle, ZeroComposite(1), np.array([2.0]), H=1.0, p=1)
        res = gradient_step(model)
        assert res.point[0] == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_preconditioning(self):
        norm = NormOperator.diagonal([4.0, 1.0])
        oracle = QuadraticOracle(np.zeros((2, 2)), b=np.array([4.0, 1.0]), norm=norm)
        model = TensorModel(oracle, ZeroComposite(2), np.zeros(2), H=2.0, p=1)
        res = gradient_step(model)
        np.testing.assert_allclose(res.point, [-0.5, -0.5], atol=1e-14)

    def test_quadratic_composite_closed_form(self):
        norm = NormOperator.identity(2)
        oracle = QuadraticOracle(np.zeros((2, 2)), b=np.array([1.0, 0.0]), norm=norm)
        comp = QuadraticComposite(1.0, np.zeros(2), norm)
        model = TensorModel(oracle, comp, np.ones(2), H=1.0, p=1)
        res = gradient_step(model)
        assert model.norm.dual(model.gradient(res.point)) <= 1e-12

    def test_rejects_unsupported_composite(self):
        norm = NormOperator.identity(2)
        oracle = QuadraticOracle(np.eye(2), b=np.ones(2), norm=norm)
        comp = PowerComposite(1.0, 3.0, np.zeros(2), norm)
        model = TensorModel(oracle, comp, np.zeros(2), H=1.0, p=1)
        with pytest.raises(ValueError):
            gradient_step(model)


class TestFgmStep:
    def test_returns_immediately_when_warm_start_certified(self):
        rng = np.random.default_rng(6)
        model = random_cubic_model(rng, n=3)
        exact = exact_cubic_step(model)
        res = fgm_step(model, delta=1e-6, warm_start=exact.point)
        assert res.inner_iterations == 0
        assert res.certified_residual <= 1e-6

    def test_huge_delta_accepts_center(self):
        rng = np.random.default_rng(7)
        model = random_cubic_model(rng, n=3)
        res = fgm_step(model, delta=1e12)
        assert res.inner_iterations == 0

    def test_reaches_tight_tolerance_with_sound_certificate(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            model = random_cubic_model(rng, n=2)
            exact = exact_cubic_step(model)
            res = fgm_step(model, delta=1e-8)
            true_res = res.model_value - exact.model_value
            assert true_res <= 1e-8
            assert res.certified_residual >= true_res - 1e-12

    def test_exact_stop_rule(self):
        rng = np.random.default_rng(9)
        model = random_cubic_model(rng, n=4)
        res = solve_model(model, 1e-9, kind="fgm", stop="exact")
        exact = exact_cubic_step(model)
        assert res.model_value - exact.model_value <= 1e-9
        assert res.certification == "exact_oracle"

    def test_warm_start_saves_iterations(self):
        rng = np.random.default_rng(10)
        wins = 0
        pairs = 0
        for seed in range(8):
            model = random_cubic_model(np.random.default_rng(seed), n=5)
            cold = fgm_step(model, delta=1e-7)
            mid = fgm_step(model, delta=1e-3)
            warm = fgm_step(model, delta=1e-7, warm_start=mid.point)
            pairs += 1
            assert warm.inner_iterations <= cold.inner_iterations
            if warm.inner_iterations < cold.inner_iterations:
                wins += 1
        assert wins >= pairs // 2

    def test_model_value_never_worse_than_start(self):
        rng = np.random.default_rng(11)
        model = random_cubic_model(rng, n=4)
        start = model.center + rng.normal(size=4)
        res = fgm_step(model, delta=1e-6, warm_start=start)
        assert res.model_value <= model.value(start) + 1e-12

    def test_stall_carries_best_iterate(self):
        rng = np.random.default_rng(12)
        model = random_cubic_model(rng, n=4)
        with pytest.raises(SubsolverStall) as exc:
            fgm_step(model, delta=1e-14, max_iters=3)
        best = exc.value.best
        assert best.point.shape == (4,)
        assert best.certified_residual > 0

    def test_rejects_nonpositive_delta(self):
        rng = np.random.default_rng(13)
        model = random_cubic_model(rng, n=2)
        with pytest.raises(ValueError):
            fgm_step(model, delta=0.0)


class TestMonotoneStep:
    def _lse_model(self, seed=14, H=4.0):
        prob = generate_shifted_logsumexp(6, 36, 1.0, seed=seed)
        x = 0.5 * np.ones(6)
        model = TensorModel(prob.smooth, prob.composite, x, H=H, p=2, want_hessian=True)
        return prob, model

    @staticmethod
    def _step(prob, model, delta, floor, kind):
        return monotone_step(prob.value(model.center), model_solver(model, prob.value, kind=kind),
                             delta=delta, floor=floor)

    def test_strict_decrease_away_from_optimum(self):
        prob, model = self._lse_model()
        f_x = prob.value(model.center)
        res = self._step(prob, model, delta=1e-3, floor=1e-12, kind="exact")
        assert res.objective_value < f_x
        assert not res.stationary

    def test_stationarity_at_optimum(self):
        prob = generate_shifted_logsumexp(5, 30, 1.0, seed=15)
        x_star = prob.known_optimum[0]
        model = TensorModel(prob.smooth, prob.composite, x_star, H=4.0, p=2,
                            want_hessian=True)
        res = self._step(prob, model, delta=1e-3, floor=1e-10, kind="exact")
        assert res.stationary

    def test_refinement_triggers_on_loose_tolerance(self):
        # a huge tolerance certifies the center itself; the loop must tighten
        # it until a strictly better point appears
        prob, model = self._lse_model()
        res = self._step(prob, model, delta=1e6, floor=1e-12, kind="fgm")
        assert res.objective_value < prob.value(model.center)
        assert res.delta_used < 1e6

    def test_lemma_one_chain(self):
        # with H = p L_p: F(T) <= F(y) + (p+1) L_p ||y-x||^{p+1} / (p+1)! + delta
        prob, model = self._lse_model(H=4.0)
        delta = 1e-4
        res = self._step(prob, model, delta=delta, floor=1e-12, kind="fgm")
        rng = np.random.default_rng(16)
        L = prob.smooth.lipschitz[2]
        for _ in range(20):
            y = model.center + rng.normal(size=6)
            rhs = prob.value(y) + (2 + 1) * L * prob.norm.primal(y - model.center) ** 3 / 6.0 + delta
            assert prob.value(res.point) <= rhs + 1e-10


class ScriptedSolve:
    """Stub ``solve``: call i returns objective values[i] and certificate certs[i]."""

    def __init__(self, values, certs=None):
        self.values = values
        self.certs = certs or [1.0] * len(values)
        self.calls = []

    def __call__(self, delta, warm):
        i = len(self.calls)
        self.calls.append((delta, warm))
        return StepResult(point=np.full(2, float(i)), certified_residual=self.certs[i],
                          inner_iterations=i + 1, certification="bound", model_value=0.0,
                          objective_value=self.values[i])


class TestMonotoneStepLoop:
    def test_halves_delta_and_warm_starts_from_the_rejected_point(self):
        solve = ScriptedSolve([2.0, 2.0, 2.0, 0.5])
        res = monotone_step(1.0, solve, delta=0.8, floor=1e-3)
        assert [d for d, _ in solve.calls] == [0.8, 0.4, 0.2, 0.1]
        warms = [w for _, w in solve.calls]
        assert warms[0] is None
        for i in range(1, 4):
            np.testing.assert_array_equal(warms[i], np.full(2, float(i - 1)))
        np.testing.assert_array_equal(res.point, np.full(2, 3.0))
        assert res.objective_value == 0.5 and not res.stationary
        assert res.delta_used == 0.1
        assert res.inner_iterations == 1 + 2 + 3 + 4

    def test_delta_is_raised_to_the_floor(self):
        solve = ScriptedSolve([0.5])
        monotone_step(1.0, solve, delta=1e-6, floor=1e-3)
        assert solve.calls[0][0] == 1e-3

    def test_zero_certificate_without_decrease_is_stationary(self):
        solve = ScriptedSolve([1.0], certs=[0.0])
        res = monotone_step(1.0, solve, delta=0.8, floor=1e-3)
        assert res.stationary and len(solve.calls) == 1

    def test_stationary_once_the_halved_delta_would_pass_the_floor(self):
        solve = ScriptedSolve([2.0, 2.0, 2.0])
        res = monotone_step(1.0, solve, delta=1.0, floor=0.3)
        assert [d for d, _ in solve.calls] == [1.0, 0.5]
        assert res.stationary and res.inner_iterations == 1 + 2

    def test_rejects_nonpositive_floor(self):
        solve = ScriptedSolve([0.5])
        for floor in (0.0, -1.0):
            with pytest.raises(ValueError):
                monotone_step(1.0, solve, delta=1.0, floor=floor)
        assert solve.calls == []
