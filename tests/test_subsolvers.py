import math
import warnings
from functools import partial

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    NORM_KINDS, brute_force_model_min, norm_matrix, norm_of_kind, random_cubic_model,
)

from tensoropt import subsolvers
from tensoropt.accel import build_subproblem
from tensoropt.harness import ExperimentConfig, attach_composite, execute
from tensoropt.linalg import NormOperator
from tensoropt import methods
from tensoropt.methods import CountingOracle, SolverConfig, monotone1, monotone2
from tensoropt.policies import precision_floor
from tensoropt.model import TensorModel
from tensoropt.problems import (
    LogSumExpOracle,
    PowerComposite,
    ProblemInstance,
    QuadraticOracle,
    ZeroComposite,
    generate_shifted_logsumexp,
    powered_chain_oracle,
)
from tensoropt.subsolvers import (
    StepResult,
    SubsolverStall,
    exact_cubic_step,
    fgm_step,
    gradient_step,
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
        model = TensorModel(oracle, ZeroComposite(2), np.zeros(2), H=3.0, p=2)
        res = exact_cubic_step(model)
        np.testing.assert_allclose(res.point, np.zeros(2), atol=1e-14)

    def test_one_dimensional_golden_root(self):
        oracle = QuadraticOracle(np.array([[1.0]]), b=np.array([-1.0]))
        model = TensorModel(oracle, ZeroComposite(1), np.zeros(1), H=2.0, p=2)
        res = exact_cubic_step(model)
        assert res.point[0] == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-12)
        assert res.certified_residual == 0.0

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
        model = TensorModel(oracle, ZeroComposite(2), np.zeros(2), H=1.0, p=2)
        res = exact_cubic_step(model)
        rng = np.random.default_rng(4)
        ref = brute_force_model_min(model, rng, n_starts=20)
        assert res.model_value <= ref + 1e-8
        # boundary radius -2 lambda_min / H = 4
        assert model.norm.primal(res.point) == pytest.approx(4.0, rel=1e-6)

    @pytest.mark.parametrize("eps", [0.0, 1e-17, 1e-14, 2e-12, 3e-12, 1e-11, 1e-10])
    def test_near_hard_case_reaches_the_boundary(self, eps):
        # a tiny gradient along every eigenvector puts the secular root within
        # its bracket tolerance of the boundary radius -2 lam_min / H = 4/3,
        # where -c / (lam_min + H r / 2) divides by rounding
        A = np.diag([-1.0, 0.5, 2.0])
        oracle = QuadraticOracle(A, b=eps * np.ones(3))
        model = TensorModel(oracle, ZeroComposite(3), np.zeros(3), H=1.5, p=2)
        res = exact_cubic_step(model)
        # from eps = 2e-12 the root is interior, up to 1e-10 past the boundary
        # and outside the bracket tolerance; a bottom coordinate divided by
        # that distance would amplify the tolerance into an error of percents
        assert np.linalg.norm(res.point) == pytest.approx(4.0 / 3.0, rel=1e-6)
        assert res.model_value == pytest.approx(-8.0 / 27.0, rel=1e-9)
        # the bottom coordinate points against the gradient
        assert res.point[0] * eps <= 0.0

    def test_zero_gradient_negative_curvature(self):
        A = np.diag([-1.0, 2.0])
        oracle = QuadraticOracle(A)
        model = TensorModel(oracle, ZeroComposite(2), np.zeros(2), H=2.0, p=2)
        res = exact_cubic_step(model)
        assert model.value(res.point) < model.value(model.center)

    def test_quadratic_composite_is_folded(self):
        rng = np.random.default_rng(5)
        n = 3
        A = np.eye(n)
        norm = NormOperator.identity(n)
        oracle = QuadraticOracle(A, b=rng.normal(size=n), norm=norm)
        comp = PowerComposite(0.8, 2.0, rng.normal(size=n), norm)
        model = TensorModel(oracle, comp, np.zeros(n), H=2.0, p=2)
        res = exact_cubic_step(model)
        assert model.norm.dual(model.gradient(res.point)) <= 1e-10


def _reference_step(model):
    """The exact step in the coordinates of B^{-1/2}, from ``inv_sqrt_apply``.

    Returns (eigenvalues, d_rest, d_bottom): the step is d_rest + d_bottom, and
    d_bottom, nonzero only in the hard case and at a zero gradient, is the
    part along the bottom eigenvector, whose sign is arbitrary.
    """
    norm, H = model.norm, model.H
    g, A = model.g0, model.oracle.hessian(model.center)
    quad = model.composite.quadratic_coeff
    if quad is not None:
        mu, c0 = quad
        g = g + mu * norm.apply(model.center - c0)
        A = A + mu * norm_matrix(norm)
    A_t = norm.inv_sqrt_apply(norm.inv_sqrt_apply(A).T)
    lam, V = np.linalg.eigh(0.5 * (A_t + A_t.T))
    c = V.T @ norm.inv_sqrt_apply(g)
    r_edge = max(0.0, -2.0 * lam[0] / H)
    rest = lam - lam[0] > 1e-8 * max(1.0, np.abs(lam).max())
    u_rest = np.zeros_like(c)
    u_rest[rest] = -c[rest] / (lam[rest] + 0.5 * H * r_edge)
    u_bottom = np.zeros_like(c)
    if lam[0] < 0 and np.all(np.abs(c[~rest]) <= 1e-13 * max(1.0, np.linalg.norm(c))) and (
            np.linalg.norm(u_rest) <= r_edge):
        u_bottom[0] = math.sqrt(r_edge**2 - float(u_rest @ u_rest))
    else:
        r = subsolvers._secular_root(lam, np.zeros(lam.size - 1), c, H, lam[0])
        u_rest = -c / (lam + 0.5 * H * r)
    return lam, norm.inv_sqrt_apply(V @ u_rest), norm.inv_sqrt_apply(V @ u_bottom)


def _assert_matches_reference(model, res):
    lam_ref, d_rest, d_bottom = _reference_step(model)
    mu = model.composite.quadratic_coeff[0] if model.composite.quadratic_coeff else 0.0
    lam = np.linalg.eigvalsh(model.norm.whiten(model.oracle.hessian(model.center)), UPLO="L") + mu
    np.testing.assert_allclose(lam, lam_ref, rtol=0, atol=1e-12 * np.abs(lam_ref).max())
    # both steps come from a secular root bracketed to SECULAR_REL_TOL (1e-12)
    # relative, so they agree within a few of that; most agree to 1e-15
    d = res.point - model.center
    scale = np.linalg.norm(d_rest + d_bottom)
    assert min(np.linalg.norm(d - (d_rest + sign * d_bottom)) for sign in (1.0, -1.0)) <= (
        4 * subsolvers.SECULAR_REL_TOL * scale)
    assert res.grad_dual_norm == pytest.approx(model.norm.dual(model.gradient(res.point)),
                                               rel=1e-12, abs=1e-300)


def _whitened_model(kind, rng, lam, c, composite_mu=0.0, H=1.5):
    """Order-2 quadratic model whose whitened Hessian has spectrum ``lam`` and
    whose whitened gradient has coordinates ``c`` in its eigenbasis."""
    n = lam.size
    norm = norm_of_kind(kind, rng, n)
    L = np.linalg.cholesky(norm_matrix(norm))
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    A = L @ (Q * lam) @ Q.T @ L.T
    center = rng.normal(size=n)
    # centred at the model's center, the quadratic's gradient there is b exactly
    oracle = QuadraticOracle(0.5 * (A + A.T), b=L @ (Q @ c), center=center, norm=norm)
    comp = (PowerComposite(composite_mu, 2.0, center, norm) if composite_mu
            else ZeroComposite(n))
    return TensorModel(oracle, comp, center, H, p=2)


class TestExactStepInFactorCoordinates:
    """The step on the norm's Cholesky factor equals the step through B^{-1/2}."""

    @staticmethod
    def _random_models(kind, composite, convex, gradient_scale=1.0, count=10, sizes=(2, 12)):
        rng = np.random.default_rng(40)
        for _ in range(count):
            n = int(rng.integers(*sizes))
            norm = norm_of_kind(kind, rng, n)
            M = rng.normal(size=(n, n))
            A = M @ M.T if convex else 0.5 * (M + M.T)
            oracle = QuadraticOracle(A, b=gradient_scale * rng.normal(size=n), norm=norm)
            comp = (PowerComposite(rng.uniform(0.1, 2.0), 2.0, rng.normal(size=n), norm)
                    if composite == "quadratic" else ZeroComposite(n))
            yield TensorModel(oracle, comp, rng.normal(size=n), rng.uniform(0.5, 5.0), p=2)

    @pytest.mark.parametrize("kind", NORM_KINDS)
    @pytest.mark.parametrize("composite", ["zero", "quadratic"])
    @pytest.mark.parametrize("convex", [True, False])
    def test_random_models(self, kind, composite, convex):
        # With negative curvature the shift lam_min + H r / 2 can be small, and
        # the step then amplifies the secular root's tolerance many times; a
        # strong gradient keeps r, and the shift, well away from that pole.
        for model in self._random_models(kind, composite, convex, 1.0 if convex else 100.0):
            _assert_matches_reference(model, exact_cubic_step(model))

    @pytest.mark.parametrize("kind", ["identity", "gram"])
    @pytest.mark.parametrize("convex", [True, False])
    def test_large_random_models(self, kind, convex):
        for model in self._random_models(kind, "zero", convex, 1.0 if convex else 100.0,
                                         count=4, sizes=(60, 121)):
            _assert_matches_reference(model, exact_cubic_step(model))

    @pytest.mark.parametrize("kind", NORM_KINDS)
    @pytest.mark.parametrize("composite", ["zero", "quadratic"])
    def test_model_values_of_indefinite_models(self, kind, composite):
        for model in self._random_models(kind, composite, convex=False):
            res = exact_cubic_step(model)
            _, d_rest, d_bottom = _reference_step(model)
            ref = model.value(model.center + d_rest + d_bottom)
            assert res.model_value == pytest.approx(ref, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("kind", NORM_KINDS)
    @pytest.mark.parametrize("composite_mu", [0.0, 0.5])
    def test_hard_case(self, kind, composite_mu):
        rng = np.random.default_rng(41)
        lam = np.array([-2.0, 0.5, 1.0, 3.0]) - composite_mu
        c = np.array([0.0, 1e-3, -2e-3, 1e-3])
        model = _whitened_model(kind, rng, lam, c, composite_mu)
        res = exact_cubic_step(model)
        _assert_matches_reference(model, res)
        # the step lies on the boundary radius -2 lam_min / H of the whitened spectrum
        assert model.norm.primal(res.point - model.center) == pytest.approx(
            -2.0 * (lam[0] + composite_mu) / model.H, rel=1e-12)

    @pytest.mark.parametrize("kind", NORM_KINDS)
    def test_hard_case_with_a_double_bottom_eigenvalue(self, kind):
        # any unit vector of the two-dimensional bottom eigenspace completes
        # the step, so the step is checked by its optimality conditions: a zero
        # model gradient at the boundary radius -2 lam_min / H, where the
        # shifted Hessian is positive semidefinite
        rng = np.random.default_rng(48)
        lam = np.array([-2.0, -2.0, 1.0, 3.0])
        model = _whitened_model(kind, rng, lam, np.array([0.0, 0.0, 1e-3, -2e-3]))
        res = exact_cubic_step(model)
        assert model.norm.primal(res.point - model.center) == pytest.approx(
            -2.0 * lam[0] / model.H, rel=1e-12)
        assert res.grad_dual_norm <= 1e-12
        _, d_rest, d_bottom = _reference_step(model)
        ref = model.value(model.center + d_rest + d_bottom)
        assert res.model_value == pytest.approx(ref, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("kind", NORM_KINDS)
    @pytest.mark.parametrize("eps", [1e-17, 1e-14])
    def test_near_hard_case(self, kind, eps):
        rng = np.random.default_rng(46)
        model = _whitened_model(kind, rng, np.array([-1.0, 0.5, 2.0]), eps * np.ones(3))
        res = exact_cubic_step(model)
        assert model.norm.primal(res.point - model.center) == pytest.approx(4.0 / 3.0,
                                                                            rel=1e-9)
        assert res.model_value - model.f0 == pytest.approx(-8.0 / 27.0, rel=1e-9)

    @pytest.mark.parametrize("kind", NORM_KINDS)
    def test_zero_gradient(self, kind):
        rng = np.random.default_rng(42)
        model = _whitened_model(kind, rng, np.array([-1.0, 0.5, 2.0]), np.zeros(3))
        _assert_matches_reference(model, exact_cubic_step(model))

    @pytest.mark.parametrize("kind", NORM_KINDS)
    def test_zero_gradient_branch_reports_the_gradient_norm(self, kind):
        rng = np.random.default_rng(43)
        for lam in (np.array([-1.0, 0.5, 2.0]), np.array([0.5, 1.0, 2.0])):
            model = _whitened_model(kind, rng, lam, np.zeros(3))
            res = exact_cubic_step(model)
            f, g = model.value_and_gradient(res.point)
            assert res.model_value == f
            assert res.grad_dual_norm == model.norm.dual(g)
            assert res.grad_dual_norm <= 1e-12

    def test_a_step_leaves_a_fresh_dense_norm_without_eigendecomposition(self):
        rng = np.random.default_rng(44)
        A = rng.normal(size=(40, 8))
        oracle = LogSumExpOracle(A, b=rng.normal(size=40), mu=1.0, norm=NormOperator.gram(A))
        model = TensorModel(oracle, ZeroComposite(8), rng.normal(size=8), 2.0, p=2)
        exact_cubic_step(model)
        assert model.norm._eig is None

    def test_no_dense_symmetric_eigensolver(self, monkeypatch):
        rng = np.random.default_rng(49)
        models = [model for kind in ("identity", "gram") for convex in (True, False)
                  for model in self._random_models(kind, "quadratic", convex, count=2,
                                                   sizes=(1, 40))]
        models += [_whitened_model("dense", rng, np.array([-2.0, 0.5, 1.0, 3.0]),
                                   np.array([0.0, 1e-3, -2e-3, 1e-3])),
                   _whitened_model("identity", rng, np.array([-1.0, 0.5, 2.0]), np.zeros(3)),
                   _whitened_model("dense", rng, np.array([-1.0]), np.zeros(1)),
                   _whitened_model("dense", rng, np.array([2.0]), np.ones(1))]

        def forbidden(*args, **kwargs):
            raise AssertionError("the exact step called a dense symmetric eigensolver")

        for module, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                             (scipy.linalg, "eigh"), (scipy.linalg, "eigvalsh")):
            monkeypatch.setattr(module, name, forbidden)
        for model in models:
            res = exact_cubic_step(model)
            assert res.grad_dual_norm <= 1e-9 * max(1.0, model.norm.dual(model.g0))

    @pytest.mark.parametrize("kind", NORM_KINDS)
    @pytest.mark.parametrize("where", ["hessian", "gradient"])
    def test_non_finite_input_raises(self, monkeypatch, kind, where):
        rng = np.random.default_rng(45)
        model = _whitened_model(kind, rng, np.array([-1.0, 0.5, 2.0]), np.ones(3))
        if where == "hessian":
            # the first exact step fetches and reduces the Hessian, so it meets the NaN
            hess = model.oracle.hessian(model.center)
            hess[2, 1] = np.nan  # in the lower triangle, which holds the Hessian
            monkeypatch.setattr(model.oracle, "hessian", lambda x, state=None: hess.copy())
            model = TensorModel(model.oracle, model.composite, model.center, model.H, p=2)
            with pytest.raises(np.linalg.LinAlgError):
                exact_cubic_step(model)
        else:
            model.g0 = model.g0.copy()
            model.g0[1] = np.nan
            with pytest.raises(np.linalg.LinAlgError):
                exact_cubic_step(model)


class TestExactStepOnTheModelsReduction:
    """The exact step solves on the tridiagonal form its model reduced once."""

    @staticmethod
    def _gate4_models(count=20):
        """Gate 4's random models, convex and indefinite, and each again with a
        quadratic composite."""
        rng = np.random.default_rng(8)
        for i in range(count):
            model = random_cubic_model(rng, convex=i % 2 == 0)
            yield model
            n = model.center.size
            comp = PowerComposite(rng.uniform(0.1, 2.0), 2.0, rng.normal(size=n), model.norm)
            yield TensorModel(model.oracle, comp, model.center, model.H, p=2)

    def test_value_and_gradient_norm_come_from_one_oracle_product(self, monkeypatch):
        for model in self._gate4_models():
            products = []
            hvp = type(model.oracle).hessian_vec.__get__(model.oracle)

            def spy(x, h, state=None):
                products.append(1)
                return hvp(x, h, state)

            monkeypatch.setattr(model.oracle, "hessian_vec", spy)
            res = exact_cubic_step(model)
            assert len(products) == 1
            f, g = model.value_and_gradient(res.point)
            assert res.model_value == f
            assert res.grad_dual_norm == model.norm.dual(g)

    def test_reweighted_copies_share_the_reduction_and_never_write_it(self):
        for model in self._gate4_models(count=6):
            before = [a.copy() for a in model.reduction]
            for H in (0.5 * model.H, model.H, 4.0 * model.H):
                heavier = model.with_weight(H)
                assert heavier.reduction is model.reduction
                exact_cubic_step(heavier)
            assert all(np.array_equal(a, b) for a, b in zip(model.reduction, before))

    def test_the_model_reduces_once_and_keeps_no_dense_hessian(self, monkeypatch):
        from tensoropt import model as model_module

        reductions = []
        reduce = model_module.tridiagonal_form
        monkeypatch.setattr(model_module, "tridiagonal_form",
                            lambda M: reductions.append(1) or reduce(M))
        rng = np.random.default_rng(9)
        model = random_cubic_model(rng, n=6)
        assert len(reductions) == 0
        assert not hasattr(model, "hess")
        for H in (1.0, 2.0, 4.0):
            solve_model(model.with_weight(H), 1e-6, kind="fgm", stop="exact")
            exact_cubic_step(model.with_weight(H))
        assert len(reductions) == 1


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
        norm = NormOperator.dense(np.diag([4.0, 1.0]))
        oracle = QuadraticOracle(np.zeros((2, 2)), b=np.array([4.0, 1.0]), norm=norm)
        model = TensorModel(oracle, ZeroComposite(2), np.zeros(2), H=2.0, p=1)
        res = gradient_step(model)
        np.testing.assert_allclose(res.point, [-0.5, -0.5], atol=1e-14)

    def test_quadratic_composite_closed_form(self):
        norm = NormOperator.identity(2)
        oracle = QuadraticOracle(np.zeros((2, 2)), b=np.array([1.0, 0.0]), norm=norm)
        comp = PowerComposite(1.0, 2.0, np.zeros(2), norm)
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
        # certified against the exact minimum, not by the bound
        assert res.certified_residual == max(0.0, res.model_value - exact.model_value)

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


def _counted_lse_model(p=2, norm_kind="dense", seed=21, n=6, m=30):
    """Smoothed-max model away from its minimizer, on an HVP-counting oracle."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, n))
    norm = NormOperator.gram(A) if norm_kind == "dense" else NormOperator.identity(n)
    oracle = CountingOracle(LogSumExpOracle(A, b=rng.normal(size=m), mu=1.0, norm=norm))
    return TensorModel(oracle, ZeroComposite(n), rng.normal(size=n), 2.0, p=p)


def _assert_fresh_certificate(model, res, stop, model_min=None):
    """The step's certificate, value and gradient norm equal a fresh recomputation."""
    grad = model.gradient(res.point)
    gn = model.norm.dual(grad)
    f = model.value(res.point)
    cert = (f - model_min) if stop == "exact" else residual_bound(
        gn, model.uniform_convexity(), model.p + 1)
    assert res.model_value == pytest.approx(f, rel=1e-12, abs=0)
    assert res.grad_dual_norm == pytest.approx(gn, rel=1e-12, abs=0)
    assert res.certified_residual == pytest.approx(max(0.0, cert), rel=1e-12, abs=0)


class TestFgmCurvatureProducts:
    def test_cold_start_spends_no_product_before_the_first_iteration(self):
        model = _counted_lse_model()
        before = model.oracle.n_hvp
        res = fgm_step(model, delta=1e12)
        assert res.inner_iterations == 0
        assert model.oracle.n_hvp == before

    def test_warm_start_spends_exactly_one_product(self):
        model = _counted_lse_model()
        before = model.oracle.n_hvp
        res = fgm_step(model, delta=1e12, warm_start=model.center + 0.1)
        assert res.inner_iterations == 0
        assert model.oracle.n_hvp - before == 1

    @pytest.mark.parametrize("warm", [False, True])
    def test_one_product_per_iteration_and_one_for_the_stall_certificate(self, warm):
        model = _counted_lse_model()
        start = model.center + 0.1 if warm else None
        before = model.oracle.n_hvp
        with pytest.raises(SubsolverStall):
            fgm_step(model, delta=1e-14, warm_start=start, max_iters=7)
        assert model.oracle.n_hvp - before == 7 + 1 + int(warm)

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("norm_kind", ["dense", "identity"])
    @pytest.mark.parametrize("stop", ["bound", "exact"])
    @pytest.mark.parametrize("warm", [False, True])
    def test_returned_certificate_comes_from_a_fresh_product(self, p, norm_kind, stop, warm):
        model = _counted_lse_model(p, norm_kind)
        model_min = None
        if stop == "exact":
            model_min = (gradient_step(model) if p == 1 else exact_cubic_step(model)).model_value
        start = model.center + 0.3 * np.random.default_rng(22).normal(size=6) if warm else None
        res = fgm_step(model, 1e-9, warm_start=start, model_min=model_min)
        assert res.inner_iterations > 0
        assert res.certified_residual <= 1e-9
        _assert_fresh_certificate(model, res, stop, model_min)

    # 20 iterations let the carried products drift past the tolerance; the
    # exact stop certifies this model by then, so it stalls earlier
    @pytest.mark.parametrize("stop, cap", [("bound", 20), ("exact", 5)])
    def test_stall_certificate_comes_from_a_fresh_product(self, stop, cap):
        model = _counted_lse_model()
        model_min = exact_cubic_step(model).model_value if stop == "exact" else None
        with pytest.raises(SubsolverStall) as exc:
            fgm_step(model, delta=1e-14, model_min=model_min, max_iters=cap)
        _assert_fresh_certificate(model, exc.value.best, stop, model_min)

    def test_exact_step_spends_one_product(self):
        model = _counted_lse_model()
        before = model.oracle.n_hvp
        exact_cubic_step(model)
        assert model.oracle.n_hvp - before == 1


class TestFgmProbe:
    NAMES = {NormOperator: ("apply", "primal", "solve"),
             TensorModel: ("value", "gradient", "value_and_gradient")}

    # every NormOperator method an evaluation could reach
    OPERATOR = ("apply", "apply_and_primal", "solve", "primal", "dual", "factor_solve",
                "factor_apply", "whiten", "inv_sqrt_apply")

    def _spy(self, monkeypatch, names=None):
        counts = {}
        for owner, owned in (names or self.NAMES).items():
            for name in owned:
                counts[name] = 0

                def counted(*args, _name=name, _orig=getattr(owner, name), **kwargs):
                    counts[_name] += 1
                    return _orig(*args, **kwargs)

                monkeypatch.setattr(owner, name, counted)
        return counts

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("norm_kind", ["dense", "identity"])
    def test_a_probe_spends_one_b_product_and_no_primal_norm(self, monkeypatch, p, norm_kind):
        model = _counted_lse_model(p, norm_kind)
        if norm_kind == "identity":
            # B·d is d and B⁻¹∇m is ∇m: no probe, trial or certificate calls the operator
            names = {NormOperator: self.OPERATOR, TensorModel: self.NAMES[TensorModel]}
            counts = self._spy(monkeypatch, names)
            fgm_step(model, delta=1e12)
            assert counts == {**dict.fromkeys(self.OPERATOR, 0), "value": 0, "gradient": 0,
                              "value_and_gradient": 1}
            counts = self._spy(monkeypatch, names)
            res = fgm_step(model, delta=1e-9)
            assert res.inner_iterations > 0 and counts["gradient"] == 0
            assert counts["value"] > 0 and counts["value_and_gradient"] > 0
            assert not any(counts[name] for name in self.OPERATOR)
            return
        counts = self._spy(monkeypatch)
        fgm_step(model, delta=1e12)
        assert counts == {"apply": 1, "primal": 0, "solve": 1, "value": 0, "gradient": 0,
                          "value_and_gradient": 1}
        counts = self._spy(monkeypatch)
        res = fgm_step(model, delta=1e-9)
        assert res.inner_iterations > 0 and counts["gradient"] == 0
        # every probe: one B·d and one solve; every backtracking trial: one primal norm
        assert counts["apply"] == counts["solve"] == counts["value_and_gradient"]
        assert counts["primal"] == counts["value"] > 0


class TestFgmCertificate:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("norm_kind", ["dense", "identity"])
    def test_equals_residual_bound_bit_for_bit(self, p, norm_kind):
        # the factor and exponent fgm_step computes once give residual_bound's bits
        for seed in range(20):
            model = _counted_lse_model(p, norm_kind, seed=seed)
            sigma = model.uniform_convexity()
            for delta in (1e12, 1e-3, 1e-9):
                res = fgm_step(model, delta)
                want = residual_bound(res.grad_dual_norm, sigma, p + 1)
                assert res.certified_residual == max(0.0, want), (seed, delta)


class TestFgmFloorExit:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("norm_kind", ["dense", "identity"])
    @pytest.mark.parametrize("warm", [False, True])
    def test_uncertifiable_delta_returns_the_flagged_best_point_far_below_the_cap(
            self, p, norm_kind, warm):
        model = _counted_lse_model(p, norm_kind)
        start = model.center + 0.3 * np.random.default_rng(22).normal(size=6) if warm else None
        cap = 2000
        res = fgm_step(model, 1e-300, warm_start=start, max_iters=cap)
        assert res.at_floor
        assert 0 < res.inner_iterations <= cap // 20
        assert res.certified_residual > 1e-300
        _assert_fresh_certificate(model, res, "bound")

    def test_never_fires_on_the_gate_ten_instance(self, monkeypatch):
        # the acceptance policy study's adaptive:1:1 run, as in TestInnerWork
        results = []

        def spy(*args, **kwargs):
            results.append(fgm_step(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(subsolvers, "fgm_step", spy)
        cfg = ExperimentConfig(
            problem={"name": "logsumexp", "n": 100, "m": 600, "mu": 1.0},
            method="monotone2", p=2, H="fixed:1", policy="adaptive:1:1", x0="e1",
            subsolver="fgm", stop="bound", max_iters=2000, target_gap=1e-8, seed=1,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run = execute(cfg)
        assert run.status == "target_reached"
        assert results and not any(r.at_floor for r in results)
        assert run.records[-1].hvp_count == 820


def _chain_subproblem_model(k, n=12):
    """The accelerated scheme's contracted chain subproblem of outer step k
    (A_k = k³/L₂), frozen at a random prox-center under its inner weight."""
    chain = powered_chain_oracle(n, 3.0, 1.0)
    L = chain.smooth.lipschitz[2]
    rng = np.random.default_rng(k)
    x_k, v_k = rng.normal(size=n), rng.normal(size=n)
    A, A_next = k**3 / L, (k + 1) ** 3 / L
    prox = PowerComposite(1.0, 3.0, np.ones(n), chain.norm)
    sub = build_subproblem(chain, chain.smooth, x_k, v_k, A, A_next, prox)
    H = 2.0 * (A_next - A) ** 3 / A_next**2 * L
    return TensorModel(sub.smooth, sub.composite, v_k, H, p=2)


class TestBacktrackingSkip:
    """FGM's backtracking skips step sizes the curvature along its direction
    rules out: each one it skips fails the decrease test, and the ones it
    evaluates, and so every step, are unchanged."""

    def _audit(self, monkeypatch):
        """Decrease-test excess, m(x) − (m(y) − gn²/(2L) + slack), of every
        step size ``_skip_ruled_out`` skips in the solves that follow."""
        excess = []
        rule = subsolvers._skip_ruled_out

        def audited(model, y, hy, step_dir, hs, gn, f_y, L):
            first, tries = rule(model, y, hy, step_dir, hs, gn, f_y, L)
            assert 1 <= tries <= subsolvers.BACKTRACK_TRIES
            while L < first:
                f = model.value(y - step_dir / L, hy - hs / L)
                excess.append(f - (f_y - 0.5 * gn * gn / L
                                   + subsolvers.DECREASE_SLACK * abs(f_y)))
                L *= 2.0
            return first, tries

        monkeypatch.setattr(subsolvers, "_skip_ruled_out", audited)
        return excess

    @pytest.mark.parametrize("norm_kind", ["identity", "dense"])
    @pytest.mark.parametrize("composite", [None, "power"])
    def test_every_skipped_step_size_fails_on_random_models(self, monkeypatch, norm_kind,
                                                            composite):
        excess = self._audit(monkeypatch)
        rng = np.random.default_rng(40)
        for _ in range(20):
            model = random_cubic_model(rng, norm_kind=norm_kind)
            n = model.center.size
            if composite:
                model = TensorModel(model.oracle, PowerComposite(0.5, 3.0, rng.normal(size=n),
                                                                 model.norm),
                                    model.center, model.H, p=2)
            for start in (None, model.center + rng.normal(size=n)):
                fgm_step(model, 1e-10, warm_start=start)
        assert len(excess) > 30
        assert min(excess) > 0.0

    def test_every_skipped_step_size_fails_on_the_chain_subproblem(self, monkeypatch):
        excess = self._audit(monkeypatch)
        for k in (1, 5, 30, 200):
            model = _chain_subproblem_model(k)
            for delta in (1e-4, 1e-9):
                fgm_step(model, delta)
        assert len(excess) > 50
        assert min(excess) > 0.0

    def test_the_last_try_is_never_skipped(self):
        # gn = 0 and a huge curvature: the bound rules out every one of the tries
        model = _chain_subproblem_model(1, n=2)
        s = np.array([1e30, 0.0])
        first, tries = subsolvers._skip_ruled_out(model, model.center, np.zeros(2), s, s,
                                                  0.0, model.f0, 1.0)
        assert (first, tries) == (2.0 ** (subsolvers.BACKTRACK_TRIES - 1), 1)

    def test_no_curvature_skips_nothing(self):
        model = _chain_subproblem_model(1, n=2)
        s = np.array([1.0, 2.0])
        for hs, gn in ((np.zeros(2), 1.0), (s, math.sqrt(5.0))):
            # sᵀhs <= gn²·L: the bound is negative at the first step size
            assert subsolvers._skip_ruled_out(model, model.center, np.zeros(2), s, hs, gn,
                                              model.f0, 1.0) == (1.0, subsolvers.BACKTRACK_TRIES)

    def _count(self, monkeypatch, cfg):
        """(model evaluations, FGM inner iterations, run) of ``execute(cfg)``."""
        values, inner = [], []
        value, step = TensorModel.value, subsolvers.fgm_step
        monkeypatch.setattr(TensorModel, "value",
                            lambda *args: values.append(1) or value(*args))

        def spy(*args, **kwargs):
            res = step(*args, **kwargs)
            inner.append(res.inner_iterations)
            return res

        monkeypatch.setattr(subsolvers, "fgm_step", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run = execute(cfg)
        return len(values), sum(inner), run

    def test_the_accelerated_chain_makes_few_model_evaluations_per_iteration(self,
                                                                             monkeypatch):
        # the benchmark's accel-chain config; without the skip, 19337 evaluations
        # for 5994 inner iterations (3.2 per iteration)
        cfg = ExperimentConfig(
            problem={"name": "chain", "n": 150, "q": 3, "c": 1}, method="accelerated",
            p=2, H="fixed:1", subsolver="fgm", stop="bound", x0="ones", max_iters=1000,
            target_gap=1e-8, zeta_policy="power:1:1", inner_policy="power:1:1")
        values, inner, run = self._count(monkeypatch, cfg)
        assert run.status == "target_reached" and inner == 5994
        assert values <= 1.3 * inner

    def test_the_gate_ten_instance_skips_nothing(self, monkeypatch):
        # the adaptive:1:1 run of TestFgmFloorExit: the curvature never rules
        # out its first step size, so it evaluates as many as without the skip
        cfg = ExperimentConfig(
            problem={"name": "logsumexp", "n": 100, "m": 600, "mu": 1.0},
            method="monotone2", p=2, H="fixed:1", policy="adaptive:1:1", x0="e1",
            subsolver="fgm", stop="bound", max_iters=2000, target_gap=1e-8, seed=1,
        )
        values, inner, run = self._count(monkeypatch, cfg)
        assert run.status == "target_reached" and run.records[-1].hvp_count == 820
        assert values == 623


class TestMonotoneStep:
    def _lse_model(self, seed=14, H=4.0):
        prob = generate_shifted_logsumexp(6, 36, 1.0, seed=seed)
        x = 0.5 * np.ones(6)
        model = TensorModel(prob.smooth, prob.composite, x, H=H, p=2)
        return prob, model

    @staticmethod
    def _step(prob, model, delta, floor, kind):
        solve = partial(solve_model, model, kind=kind, objective=prob.value)
        return monotone_step(prob.value(model.center), solve, delta=delta, floor=floor)

    def test_strict_decrease_away_from_optimum(self):
        prob, model = self._lse_model()
        f_x = prob.value(model.center)
        res = self._step(prob, model, delta=1e-3, floor=1e-12, kind="exact")
        assert res.objective_value < f_x
        assert not res.stationary

    def test_stationarity_at_optimum(self):
        prob = generate_shifted_logsumexp(5, 30, 1.0, seed=15)
        x_star = prob.known_optimum[0]
        model = TensorModel(prob.smooth, prob.composite, x_star, H=4.0, p=2)
        res = self._step(prob, model, delta=1e-3, floor=1e-10, kind="exact")
        assert res.stationary

    def test_refinement_triggers_on_loose_tolerance(self):
        # a huge tolerance certifies the center itself; the loop must tighten
        # it until a strictly better point appears
        prob, model = self._lse_model()
        solve, deltas = partial(solve_model, model, objective=prob.value), []
        res = monotone_step(prob.value(model.center),
                            lambda delta, warm: deltas.append(delta) or solve(delta, warm),
                            delta=1e6, floor=1e-12)
        assert res.objective_value < prob.value(model.center)
        assert deltas[0] == 1e6 and deltas[-1] < 1e6

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


def _counted_problem(norm_kind):
    """(problem, center): a smoothed max whose smooth part counts its oracle
    calls, under its Gram norm or whitened to the identity norm at the center."""
    prob = generate_shifted_logsumexp(6, 36, 1.0, seed=14)
    x = 0.5 * np.ones(6)
    if norm_kind == "identity":
        prob, x = prob.whitened(x), np.zeros(6)
    return ProblemInstance(CountingOracle(prob.smooth), prob.composite, prob.name), x


class TestResumedSolve:
    """A refinement retry resumes the step it is warm-started from: it spends
    no product, probe or F call at its start and lands where an array warm
    start from the same point lands. A cold step that stops at the center
    takes F there from its model."""

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("composite", [None, "quadratic:0.5"])
    @pytest.mark.parametrize("norm_kind", ["dense", "identity"])
    def test_a_cold_step_that_stops_at_the_center_reports_F_there(self, p, composite,
                                                                   norm_kind):
        prob, x = _counted_problem(norm_kind)
        prob = attach_composite(prob, composite)
        center = x + 0.25
        model = TensorModel(prob.smooth, prob.composite, center, H=4.0, p=p)

        def objective(y):
            raise AssertionError("objective called")

        res = solve_model(model, 1e12, objective=objective)
        assert res.inner_iterations == 0
        assert repr(res.objective_value) == repr(prob.value(center))

    @pytest.mark.parametrize("norm_kind", ["dense", "identity"])
    def test_a_retry_after_a_zero_iteration_solve_spends_nothing(self, norm_kind):
        prob, x = _counted_problem(norm_kind)
        oracle = prob.smooth
        model = TensorModel(oracle, prob.composite, x, H=4.0, p=2)
        f_x = prob.value(x)
        solve = partial(solve_model, model, objective=prob.value)
        calls = []

        def spy(delta, warm):
            hvp, value = oracle.n_hvp, oracle.n_value
            res = solve(delta, warm)
            calls.append((res.inner_iterations, oracle.n_hvp - hvp, oracle.n_value - value))
            return res

        # a huge tolerance certifies the center, so the first solves stop at it
        res = monotone_step(f_x, spy, delta=1e6, floor=1e-12)
        assert res.objective_value < f_x
        idle = [c for c in calls if c[0] == 0]
        assert len(idle) >= 2 and calls[-1][0] > 0
        assert all(c[1:] == (0, 0) for c in idle)
        # the solve that moves calls F once, at its point
        assert calls[-1][2] == 1

    @pytest.mark.parametrize("norm_kind", ["dense", "identity"])
    @pytest.mark.parametrize("stop", ["bound", "exact"])
    @pytest.mark.parametrize("first_delta", [1e6, 1e-2])
    def test_resumed_and_array_warm_started_solves_agree(self, norm_kind, stop, first_delta):
        prob, x = _counted_problem(norm_kind)
        oracle = prob.smooth
        model = TensorModel(oracle, prob.composite, x, H=4.0, p=2)
        solve = partial(solve_model, model, stop=stop, objective=prob.value)
        first = solve(first_delta, None)
        assert (first.inner_iterations > 0) == (first_delta < 1.0)
        hvp = oracle.n_hvp
        resumed = solve(1e-9, first)
        hvp_resumed = oracle.n_hvp - hvp
        hvp = oracle.n_hvp
        array = solve(1e-9, first.point.copy())
        hvp_array = oracle.n_hvp - hvp
        np.testing.assert_array_equal(resumed.point, array.point)
        for name in ("objective_value", "certified_residual", "model_value",
                     "grad_dual_norm", "inner_iterations"):
            assert getattr(resumed, name) == getattr(array, name), name
        # the array start costs a product; the exact stop's model minimum is
        # kept on the model, so neither solve computes it again
        assert hvp_array - hvp_resumed == 1

    def test_a_line_search_doubling_reuses_the_product_but_not_the_probe(self, monkeypatch):
        prob, x = _counted_problem("identity")
        oracle = prob.smooth
        model = TensorModel(oracle, prob.composite, x, H=4.0, p=2)
        rejected = fgm_step(model.with_weight(0.5), 1e-3)
        heavier = model.with_weight(1.0)
        probes = []
        evaluate = TensorModel.value_and_gradient
        monkeypatch.setattr(TensorModel, "value_and_gradient",
                            lambda self, *args: probes.append(self) or evaluate(self, *args))
        hvp = oracle.n_hvp
        res = fgm_step(heavier, 1e12, warm_start=rejected)
        assert res.inner_iterations == 0
        np.testing.assert_array_equal(res.point, rejected.point)
        assert oracle.n_hvp == hvp and probes == [heavier]
        # on the model it was computed on, the probe is reused too
        fgm_step(heavier, 1e12, warm_start=res)
        assert oracle.n_hvp == hvp and probes == [heavier]

    def test_line_search_trials_resume_the_rejected_trial(self, monkeypatch):
        calls = []
        solve = methods.solve_model

        def spy(model, delta, warm_start=None, **kwargs):
            calls.append((model.H, warm_start))
            calls.append(solve(model, delta, warm_start=warm_start, **kwargs))
            return calls[-1]

        monkeypatch.setattr(methods, "solve_model", spy)
        prob = generate_shifted_logsumexp(6, 36, 1.0, seed=14)
        monotone2(prob, 0.5 * np.ones(6), SolverConfig(h_mode="linesearch", h_value=1e-3,
                                                       max_iters=3))
        trials = [(calls[i][0], calls[i][1], calls[i + 1]) for i in range(0, len(calls), 2)]
        doublings = [(prev, warm) for (H0, _, prev), (H1, warm, _) in zip(trials, trials[1:])
                     if H1 == 2.0 * H0]
        assert doublings and all(warm is prev for prev, warm in doublings)

    def test_the_exact_stop_computes_one_model_minimum_per_model(self, monkeypatch):
        prob, x = _counted_problem("identity")
        model = TensorModel(prob.smooth, prob.composite, x, H=4.0, p=2)
        minima = []
        exact = subsolvers.exact_cubic_step
        monkeypatch.setattr(subsolvers, "exact_cubic_step",
                            lambda m: minima.append(m) or exact(m))
        deltas = []
        solve = partial(solve_model, model, stop="exact", objective=prob.value)
        res = monotone_step(prob.value(x), lambda d, w: deltas.append(d) or solve(d, w),
                            delta=1e6, floor=1e-12)
        assert len(deltas) >= 3 and minima == [model]
        # a reweighted copy, as a line-search trial makes, needs its own minimum
        heavier = model.with_weight(8.0)
        solve_model(heavier, 1e-9, warm_start=res, stop="exact")
        assert minima == [model, heavier]

    def test_a_line_search_solves_each_center_and_weight_once(self, monkeypatch):
        # its refinement retries restart the search at half the last accepted
        # weight, so without a model per weight they solve the same pairs again
        pairs = []
        exact = subsolvers.exact_cubic_step
        monkeypatch.setattr(subsolvers, "exact_cubic_step",
                            lambda m: pairs.append((m.center.tobytes(), m.H)) or exact(m))
        cfg = ExperimentConfig(
            problem={"name": "logistic-synth", "n": 50, "m": 300, "l2": 1e-3},
            method="monotone2", p=2, H="linesearch:1", subsolver="fgm", stop="exact",
            policy="power:1:3", x0="zeros", max_iters=60)
        run = execute(cfg)
        assert run.status == "max_iters"
        # 443 exact steps when every trial computed its own minimum
        assert len(pairs) == len(set(pairs)) == 75


class ScriptedSolve:
    """Stub ``solve``: call i returns objective values[i], certificate certs[i]
    and the precision-floor flag floors[i]; ``results`` keeps the steps."""

    def __init__(self, values, certs=None, floors=None):
        self.values = values
        self.certs = certs or [1.0] * len(values)
        self.floors = floors or [False] * len(values)
        self.calls = []
        self.results = []

    def __call__(self, delta, warm):
        i = len(self.calls)
        self.calls.append((delta, warm))
        self.results.append(StepResult(
            point=np.full(2, float(i)), certified_residual=self.certs[i],
            inner_iterations=i + 1, model_value=0.0,
            objective_value=self.values[i], at_floor=self.floors[i]))
        return self.results[-1]


class TestMonotoneStepLoop:
    def test_halves_delta_and_warm_starts_from_the_rejected_point(self):
        solve = ScriptedSolve([2.0, 2.0, 2.0, 0.5])
        res = monotone_step(1.0, solve, delta=0.8, floor=1e-3)
        assert [d for d, _ in solve.calls] == [0.8, 0.4, 0.2, 0.1]
        # each retry is handed the rejected step itself, which it resumes
        warms = [w for _, w in solve.calls]
        assert warms[0] is None
        assert all(warms[i] is solve.results[i - 1] for i in range(1, 4))
        np.testing.assert_array_equal(res.point, np.full(2, 3.0))
        assert res.objective_value == 0.5 and not res.stationary
        assert res.inner_iterations == 1 + 2 + 3 + 4

    def test_delta_is_raised_to_the_floor(self):
        solve = ScriptedSolve([0.5])
        monotone_step(1.0, solve, delta=1e-6, floor=1e-3)
        assert solve.calls[0][0] == 1e-3

    def test_zero_certificate_without_decrease_is_stationary(self):
        solve = ScriptedSolve([1.0], certs=[0.0])
        res = monotone_step(1.0, solve, delta=0.8, floor=1e-3)
        assert res.stationary and len(solve.calls) == 1

    def test_floor_exit_that_decreases_F_is_accepted(self):
        solve = ScriptedSolve([0.5], floors=[True])
        res = monotone_step(1.0, solve, delta=0.8, floor=1e-3)
        assert res.objective_value == 0.5 and not res.stationary
        assert len(solve.calls) == 1

    def test_floor_exit_without_decrease_is_stationary(self):
        # a tighter solve would stop at the same floor, so delta is not halved
        solve = ScriptedSolve([1.0, 0.5], floors=[True, False])
        res = monotone_step(1.0, solve, delta=0.8, floor=1e-3)
        assert res.stationary and len(solve.calls) == 1

    def test_stationary_once_the_halved_delta_would_pass_the_floor(self):
        solve = ScriptedSolve([2.0, 2.0, 2.0])
        res = monotone_step(1.0, solve, delta=1.0, floor=0.3)
        assert [d for d, _ in solve.calls] == [1.0, 0.5]
        assert res.stationary and res.inner_iterations == 1 + 2

    @pytest.mark.parametrize("drop", [0.5e-3, 1e-3])
    def test_decrease_of_at_most_the_floor_is_stationary(self, drop):
        # a decrease of at most the floor is rounding level: delta is not halved
        solve = ScriptedSolve([1.0 - drop, 0.5])
        res = monotone_step(1.0, solve, delta=0.8, floor=1e-3)
        assert res.stationary and len(solve.calls) == 1
        assert res.objective_value == 1.0 - drop

    def test_decrease_of_twice_the_floor_is_accepted(self):
        solve = ScriptedSolve([1.0 - 2e-3])
        res = monotone_step(1.0, solve, delta=0.8, floor=1e-3)
        assert res.objective_value == 1.0 - 2e-3 and not res.stationary
        assert len(solve.calls) == 1

    def test_equal_value_halves_delta_and_warm_starts_from_the_rejected_point(self):
        solve = ScriptedSolve([1.0, 0.5])
        res = monotone_step(1.0, solve, delta=0.8, floor=1e-3)
        assert [d for d, _ in solve.calls] == [0.8, 0.4]
        assert solve.calls[1][1] is solve.results[0]
        assert res.objective_value == 0.5 and not res.stationary

    @pytest.mark.parametrize("share", [0.5, 1.0])
    @pytest.mark.parametrize("driver, status", [(monotone2, "monotone_floor"),
                                                (monotone1, "stationary")])
    def test_drivers_end_at_the_old_point(self, monkeypatch, driver, status, share):
        prob = generate_shifted_logsumexp(6, 36, 1.0, seed=14)
        x0 = 0.5 * np.ones(6)
        f0 = prob.value(x0)
        solve = ScriptedSolve([f0 - share * precision_floor(f0), 0.0])
        monkeypatch.setattr(methods._Runner, "solver", lambda self, center: solve)
        run = driver(prob, x0, SolverConfig(max_iters=5))
        assert run.status == status and len(solve.calls) == 1
        np.testing.assert_array_equal(run.x_final, x0)
        assert run.f_final == f0

    def test_rejects_nonpositive_floor(self):
        solve = ScriptedSolve([0.5])
        for floor in (0.0, -1.0):
            with pytest.raises(ValueError):
                monotone_step(1.0, solve, delta=1.0, floor=floor)
        assert solve.calls == []
