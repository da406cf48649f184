import gc
import weakref

import numpy as np
import pytest
import scipy.optimize

from instruments import fd_gradient, model_upper_bound_check

from tensoropt.accel import build_subproblem
from tensoropt.linalg import NormOperator
from tensoropt.methods import CountingOracle
from tensoropt.model import TensorModel
from tensoropt.problems import (
    LogSumExpOracle,
    PowerComposite,
    ProblemInstance,
    QuadraticOracle,
    ZeroComposite,
    generate_shifted_logsumexp,
)
from tensoropt import subsolvers
from tensoropt.subsolvers import exact_cubic_step


def _simple_quadratic_model(H=6.0, p=2):
    # f(x) = x^2 / 2 in one dimension, frozen at the origin
    oracle = QuadraticOracle(np.array([[1.0]]))
    return TensorModel(oracle, ZeroComposite(1), np.zeros(1), H=H, p=p)


class TestModelValue:
    def test_tight_at_center(self):
        prob = generate_shifted_logsumexp(6, 36, 1.0, seed=0)
        center = np.random.default_rng(1).normal(size=6)
        model = TensorModel(prob.smooth, prob.composite, center, H=2.0, p=2)
        assert model.value(center) == pytest.approx(prob.value(center), rel=1e-14)

    def test_pinned_factorial_coefficient(self):
        # p = 2, H = 6: regularizer H r^3 / 3! must contribute exactly r^3
        model = _simple_quadratic_model(H=6.0)
        assert model.value(np.array([1.0])) == pytest.approx(1.5)
        # and the cubic coefficient is H/6, not H/3
        r = 2.0
        expected = 0.5 * r**2 + 6.0 * r**3 / 6.0
        assert model.value(np.array([r])) == pytest.approx(expected)

    def test_order_one_regularizer_coefficient(self):
        model = _simple_quadratic_model(H=4.0, p=1)
        # taylor linear term vanishes at origin-centered quadratic; reg = H r^2/2
        assert model.value(np.array([1.0])) == pytest.approx(4.0 / 2.0)

    def test_upper_bound_logsumexp_order_two(self):
        prob = generate_shifted_logsumexp(8, 48, 1.0, seed=2)
        center = 0.1 * np.ones(8)
        model = TensorModel(prob.smooth, prob.composite, center, H=2.0, p=2)
        report = model_upper_bound_check(model, prob, samples=200, seed=3, radius=2.0)
        assert report.passed, (report.max_excess, report.max_taylor_excess)

    def test_upper_bound_logsumexp_order_one(self):
        prob = generate_shifted_logsumexp(8, 48, 1.0, seed=4)
        center = 0.1 * np.ones(8)
        model = TensorModel(prob.smooth, prob.composite, center, H=1.0, p=1)
        report = model_upper_bound_check(model, prob, samples=200, seed=5, radius=2.0)
        assert report.passed

    def test_upper_bound_exact_for_quadratic(self):
        oracle = QuadraticOracle(np.array([[2.0, 0.0], [0.0, 1.0]]))
        model = TensorModel(oracle, ZeroComposite(2), np.ones(2), H=1.0, p=2)
        rng = np.random.default_rng(6)
        for _ in range(20):
            y = rng.normal(size=2)
            assert abs(oracle.value(y) - model.taylor_value(y)) <= 1e-12

    def test_requires_positive_H(self):
        with pytest.raises(ValueError):
            _simple_quadratic_model(H=0.0)


class TestModelGradient:
    def test_equals_smooth_gradient_at_center(self):
        prob = generate_shifted_logsumexp(5, 30, 1.0, seed=7)
        center = np.random.default_rng(8).normal(size=5)
        model = TensorModel(prob.smooth, prob.composite, center, H=3.0, p=2)
        np.testing.assert_allclose(model.gradient(center),
                                   prob.smooth.gradient(center), atol=1e-14)

    def test_one_dimensional_root_matches_independent_solver(self):
        # model with f'(0) = -1, f''(0) = 1, H = 2: gradient root at (sqrt(5)-1)/2
        oracle = QuadraticOracle(np.array([[1.0]]), b=np.array([-1.0]))
        model = TensorModel(oracle, ZeroComposite(1), np.zeros(1), H=2.0, p=2)
        root = scipy.optimize.brentq(lambda h: model.gradient(np.array([h]))[0], 0.0, 2.0,
                                     xtol=1e-14)
        assert root == pytest.approx((np.sqrt(5.0) - 1.0) / 2.0, abs=1e-12)

    def test_matches_finite_differences(self):
        prob = generate_shifted_logsumexp(6, 36, 1.0, seed=9)
        rng = np.random.default_rng(10)
        center = rng.normal(size=6) * 0.4
        for p in (1, 2):
            model = TensorModel(prob.smooth, prob.composite, center, H=2.5, p=p)
            for _ in range(5):
                y = center + rng.normal(size=6) * 0.5
                fd = fd_gradient(model.value, y)
                an = model.gradient(y)
                assert np.linalg.norm(fd - an) / (1 + np.linalg.norm(an)) <= 1e-6

    def test_matches_finite_differences_under_dense_norm(self):
        rng = np.random.default_rng(11)
        M = rng.normal(size=(4, 4))
        norm = NormOperator.dense(M @ M.T + 4 * np.eye(4))
        oracle = QuadraticOracle(M @ M.T + np.eye(4), b=rng.normal(size=4), norm=norm)
        model = TensorModel(oracle, ZeroComposite(4), rng.normal(size=4), H=1.7, p=2)
        y = rng.normal(size=4)
        fd = fd_gradient(model.value, y)
        np.testing.assert_allclose(model.gradient(y), fd, rtol=1e-6, atol=1e-7)


class TestModelConvexity:
    def test_midpoint_inequality_when_H_at_least_pL(self):
        prob = generate_shifted_logsumexp(6, 36, 1.0, seed=12)
        center = 0.2 * np.ones(6)
        model = TensorModel(prob.smooth, prob.composite, center, H=4.0, p=2)
        rng = np.random.default_rng(13)
        for _ in range(40):
            a = center + rng.normal(size=6)
            b = center + rng.normal(size=6)
            mid = 0.5 * (a + b)
            assert model.value(mid) <= 0.5 * (model.value(a) + model.value(b)) + 1e-10

    def test_uniform_convexity_parameter(self):
        model = _simple_quadratic_model(H=8.0)
        # order-2 regularizer contributes H/4
        assert model.uniform_convexity() == pytest.approx(2.0)
        model1 = _simple_quadratic_model(H=8.0, p=1)
        assert model1.uniform_convexity() == pytest.approx(8.0)


class TestCurvatureProduct:
    def _model(self, seed=6, H=2.0):
        prob = generate_shifted_logsumexp(6, 36, 1.0, seed=seed)
        oracle = CountingOracle(prob.smooth)
        center = np.random.default_rng(seed).normal(size=6)
        return TensorModel(oracle, prob.composite, center, H=H, p=2), oracle

    def test_supplied_product_gives_the_same_value_and_gradient(self):
        model, oracle = self._model()
        y = model.center + np.random.default_rng(7).normal(size=6)
        hd = model.hess_action(y - model.center)
        before = oracle.n_hvp
        assert model.value(y, hd) == model.value(y)
        assert np.array_equal(model.gradient(y, hd), model.gradient(y))
        # the calls with the product spend none; the two without spend one each
        assert oracle.n_hvp - before == 2

    def test_with_weight_matches_a_fresh_build_without_oracle_calls(self):
        model, oracle = self._model(H=2.0)
        y = model.center + np.random.default_rng(8).normal(size=6)
        counts = oracle.counts()
        heavier = model.with_weight(16.0)
        assert oracle.counts() == counts
        fresh, _ = self._model(H=16.0)
        assert heavier.H == 16.0 and model.H == 2.0
        assert heavier.value(y) == pytest.approx(fresh.value(y), rel=1e-14)
        assert np.allclose(heavier.gradient(y), fresh.gradient(y), rtol=1e-14, atol=0)
        assert heavier.uniform_convexity() == pytest.approx(fresh.uniform_convexity())
        with pytest.raises(ValueError):
            model.with_weight(0.0)

    def test_with_weight_makes_a_new_model_that_shares_the_reduction(self):
        model, _ = self._model(H=2.0)
        model.minimum = -1.0
        heavier = model.with_weight(16.0)
        assert heavier is not model and model.with_weight(16.0) is not heavier
        assert heavier.dense_curvature is model.dense_curvature
        assert subsolvers.reduction(heavier) is subsolvers.reduction(model)
        # the exact minimum belongs to one weight, so a copy starts without one
        assert heavier.minimum is None and model.minimum == -1.0

    @pytest.mark.parametrize("curvature", [None, "lanczos", "reduction"])
    def test_weight_copies_keep_no_reference_cycle(self, monkeypatch, curvature):
        # a center's models are freed as soon as the last reference goes, not
        # at a later garbage collection, whatever its exact steps keep in their
        # shared dense curvature: M and a Lanczos basis, or a fallback's reduction
        gc.disable()
        try:
            if curvature is None:
                model, _ = self._model(H=2.0)
            else:
                n = subsolvers.LANCZOS_MIN_DIM
                prob = generate_shifted_logsumexp(n, 6 * n, 1.0, seed=6)
                center = np.random.default_rng(6).normal(size=n)
                model = TensorModel(prob.smooth, prob.composite, center, H=2.0, p=2)
                if curvature == "reduction":
                    monkeypatch.setattr(subsolvers, "LANCZOS_STEP_FRACTION", 0.01)  # 2 steps
                exact_cubic_step(model)
                kept = {"hessian", "lanczos"} if curvature == "lanczos" else {"reduction"}
                assert set(model.dense_curvature) == kept
            refs = [weakref.ref(m) for m in (model, model.with_weight(4.0),
                                             model.with_weight(8.0).with_weight(0.5))]
            del model
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


def _norm(kind, A, rng):
    if kind == "identity":
        return NormOperator.identity(A.shape[1])
    if kind == "diagonal":
        return NormOperator.dense(np.diag(rng.uniform(0.5, 3.0, A.shape[1])))
    return NormOperator.gram(A)


class TestValueAndGradient:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("norm_kind", ["identity", "diagonal", "dense"])
    @pytest.mark.parametrize("composite", ["zero", "power", "subproblem"])
    def test_equals_value_and_gradient_bit_for_bit(self, p, norm_kind, composite):
        rng = np.random.default_rng(40)
        A = rng.normal(size=(30, 5))
        norm = _norm(norm_kind, A, rng)
        prob = ProblemInstance(LogSumExpOracle(A, b=rng.normal(size=30), norm=norm),
                               ZeroComposite(5))
        if composite == "power":
            prob.composite = PowerComposite(0.7, 3.0, rng.normal(size=5), norm)
        elif composite == "subproblem":
            prob = build_subproblem(prob, prob.smooth, rng.normal(size=5), rng.normal(size=5),
                                    1.0, 3.0, PowerComposite(1.0, p + 1.0, rng.normal(size=5), norm))
        center = rng.normal(size=5)
        model = TensorModel(prob.smooth, prob.composite, center, H=2.5, p=p)
        for y in [center] + [center + t * rng.normal(size=5) for t in (1e-8, 0.3, 4.0)]:
            for hd in (None, model.hess_action(y - center) if p == 2 else None):
                f, g = model.value_and_gradient(y, hd)
                assert f == model.value(y, hd)
                assert np.array_equal(g, model.gradient(y, hd))


class TestIdentityNorm:
    """Under the identity norm an evaluation calls no NormOperator method and adds
    no zero composite, and gives the bits of the path that does both."""

    OPERATOR = ("apply", "apply_and_primal", "solve", "primal", "dual")

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("composite", ["zero", "power", "subproblem"])
    def test_evaluations_match_the_operator_path_bit_for_bit(self, monkeypatch, p, composite):
        rng = np.random.default_rng(41)
        A = rng.normal(size=(30, 5))
        norm = NormOperator.identity(5)
        prob = ProblemInstance(LogSumExpOracle(A, b=rng.normal(size=30), norm=norm),
                               ZeroComposite(5))
        if composite == "power":
            prob.composite = PowerComposite(0.7, 3.0, rng.normal(size=5), norm)
        elif composite == "subproblem":
            prob = build_subproblem(prob, prob.smooth, rng.normal(size=5), rng.normal(size=5),
                                    1.0, 3.0, PowerComposite(1.0, p + 1.0, rng.normal(size=5), norm))
        center = rng.normal(size=5)
        model = TensorModel(prob.smooth, prob.composite, center, H=2.5, p=p)
        assert model.identity_norm
        # the operator path: every norm through NormOperator, and the composite added
        reference = TensorModel(prob.smooth, prob.composite, center, H=2.5, p=p)
        reference.identity_norm = False
        reference._psi = prob.composite
        points = [center + t * rng.normal(size=5) for t in (0.0, 1e-8, 0.3, 4.0)]
        want = [(reference.value(y), *reference.value_and_gradient(y), reference.gradient(y))
                for y in points]
        calls = []
        for name in self.OPERATOR:
            monkeypatch.setattr(NormOperator, name, lambda *a, _n=name: calls.append(_n))
        if composite == "zero":
            for name in ("value", "gradient", "value_and_gradient"):
                monkeypatch.setattr(ZeroComposite, name, lambda *a, _n=name: calls.append(_n))
        for y, (f, f2, g2, g) in zip(points, want):
            assert model.value(y) == f
            got_f, got_g = model.value_and_gradient(y)
            assert got_f == f2 and got_g.tobytes() == g2.tobytes()
            assert model.gradient(y).tobytes() == g.tobytes()
        assert calls == []


class _UpperNaN:
    """An oracle whose dense Hessian has NaN in its strict upper triangle, which the
    ``hessian`` contract leaves unspecified."""

    def __init__(self, inner):
        self.inner = inner
        self.dim, self.norm, self.lipschitz = inner.dim, inner.norm, inner.lipschitz

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def hessian(self, x, state=None):
        hess = self.inner.hessian(x, state)
        hess[np.triu_indices(self.dim, 1)] = np.nan
        return hess


class TestLowerTriangleContract:
    """The model reads only the lower triangle of the oracle's Hessian: a strict upper
    triangle of NaN changes no bit of its reduction or of an exact step."""

    @staticmethod
    def _oracle(kind):
        rng = np.random.default_rng(70)
        if kind == "quadratic-dense":  # a C-ordered Hessian under a dense norm
            M = rng.normal(size=(6, 6))
            B = rng.normal(size=(6, 6))
            return QuadraticOracle(M @ M.T - 2.0 * np.eye(6), b=rng.normal(size=6),
                                   norm=NormOperator.dense(B @ B.T + np.eye(6)))
        A = rng.uniform(-1.0, 1.0, size=(36, 6))
        norm = NormOperator.identity(6) if kind == "logsumexp-identity" else None
        return LogSumExpOracle(A, b=rng.uniform(-1.0, 1.0, 36), mu=0.5, norm=norm)

    @pytest.mark.parametrize("kind", ["logsumexp-identity", "logsumexp-gram", "quadratic-dense"])
    def test_reduction_and_exact_step_ignore_the_upper_triangle(self, kind):
        oracle = self._oracle(kind)
        assert (oracle.norm.kind == "identity") == (kind == "logsumexp-identity")
        center = 0.3 * np.random.default_rng(71).normal(size=6)
        models = [TensorModel(o, ZeroComposite(6), center, H=3.0, p=2)
                  for o in (oracle, _UpperNaN(oracle))]
        (d, e, V, tau), (d2, e2, V2, tau2) = (subsolvers.reduction(m) for m in models)
        assert np.isnan(V2).any()  # the NaN reached dsytrd's output, above the reflectors
        assert all(a.tobytes() == b.tobytes() for a, b in zip((d, e, tau, np.tril(V)),
                                                             (d2, e2, tau2, np.tril(V2))))
        want, got = (exact_cubic_step(m) for m in models)
        assert got.point.tobytes() == want.point.tobytes()
        assert (got.model_value, got.grad_dual_norm) == (want.model_value, want.grad_dual_norm)

    @pytest.mark.parametrize("norm_kind", ["identity", "dense"])
    def test_lanczos_steps_ignore_the_upper_triangle(self, monkeypatch, norm_kind):
        n = subsolvers.LANCZOS_MIN_DIM
        rng = np.random.default_rng(72)
        G, B = rng.normal(size=(n, n)), rng.normal(size=(n, n))
        norm = (NormOperator.identity(n) if norm_kind == "identity"
                else NormOperator.dense(B @ B.T / n + np.eye(n)))
        oracle = QuadraticOracle(G @ G.T / n, b=rng.normal(size=n), norm=norm)
        center = rng.normal(size=n)
        certified = []
        lanczos = subsolvers._lanczos_step
        monkeypatch.setattr(subsolvers, "_lanczos_step", lambda model, c, mu: (
            certified.append(lanczos(model, c, mu)) or certified[-1]))
        want, got = (exact_cubic_step(TensorModel(o, ZeroComposite(n), center, H=3.0, p=2))
                     for o in (oracle, _UpperNaN(oracle)))
        assert len(certified) == 2 and all(u is not None for u in certified)
        assert got.point.tobytes() == want.point.tobytes()
        assert (got.model_value, got.grad_dual_norm) == (want.model_value, want.grad_dual_norm)
