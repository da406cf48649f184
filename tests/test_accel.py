import math

import numpy as np
import pytest

from conftest import forbid_oracle_calls

from tensoropt.accel import (
    BregmanComposite,
    PowerProx,
    accelerated,
    build_subproblem,
    subproblem_certificate,
)
from tensoropt.linalg import NormOperator
from tensoropt.methods import SolverConfig
from tensoropt.policies import adaptive, power
from tensoropt.problems import (
    check_derivatives,
    fd_gradient,
    generate_shifted_logsumexp,
    powered_chain_oracle,
)


class TestBregman:
    def setup_method(self):
        self.norm = NormOperator.identity(4)
        self.anchor = np.zeros(4)
        self.prox = PowerProx(self.anchor, 2, self.norm)
        self.rng = np.random.default_rng(0)

    def test_zero_at_reference_point(self):
        v = self.rng.normal(size=4)
        assert self.prox.bregman(v, v) == pytest.approx(0.0, abs=1e-14)

    def test_positive_away_from_reference(self):
        v = self.rng.normal(size=4)
        x = v + 0.5
        assert self.prox.bregman(v, x) > 0

    def test_from_anchor_equals_prox_value(self):
        x = self.rng.normal(size=4)
        assert self.prox.bregman(self.anchor, x) == pytest.approx(self.prox.value(x),
                                                                  rel=1e-12)

    def test_power_lower_bound(self):
        # order two: gap at least ||x - v||^3 / 6
        for _ in range(50):
            v = self.rng.normal(size=4)
            x = self.rng.normal(size=4)
            lower = self.norm.primal(x - v) ** 3 / 6.0
            assert self.prox.bregman(v, x) >= lower - 1e-12

    def test_composite_gradient_matches_fd(self):
        v = self.rng.normal(size=4)
        comp = BregmanComposite(self.prox, v)
        x = self.rng.normal(size=4)
        fd = fd_gradient(comp.value, x)
        np.testing.assert_allclose(comp.gradient(x), fd, rtol=1e-6, atol=1e-7)

    def test_uniform_convexity_parameter(self):
        comp = BregmanComposite(self.prox, self.rng.normal(size=4))
        assert comp.uniform_convexity(3) == pytest.approx(0.5)
        assert comp.uniform_convexity(2) == 0.0


class TestSubproblem:
    def _setup(self, k=3, seed=1):
        prob = generate_shifted_logsumexp(6, 36, 1.0, seed=seed)
        L = prob.smooth.lipschitz[2]
        rng = np.random.default_rng(seed + 10)
        x_k = rng.normal(size=6)
        v_k = rng.normal(size=6)
        anchor = np.ones(6)
        A_k = k**3 / L
        A_next = (k + 1) ** 3 / L
        prox = PowerProx(anchor, 2, prob.norm)
        sub = build_subproblem(prob, prob.smooth, x_k, v_k, A_k, A_next, prox)
        return prob, sub, A_k, A_next

    def test_first_iteration_contraction_is_identity(self):
        prob = generate_shifted_logsumexp(4, 24, 1.0, seed=2)
        prox = PowerProx(np.zeros(4), 2, prob.norm)
        sub = build_subproblem(prob, prob.smooth, np.zeros(4), np.zeros(4),
                               0.0, 1.0 / prob.smooth.lipschitz[2], prox)
        assert sub.smooth.theta == pytest.approx(1.0)

    def test_gradient_matches_finite_differences(self):
        _, sub, _, _ = self._setup()
        report = check_derivatives(sub.smooth, trials=15, seed=3, tol=1e-5)
        assert report.passed
        rng = np.random.default_rng(4)
        x = rng.normal(size=6)
        fd = fd_gradient(sub.value, x)
        np.testing.assert_allclose(sub.gradient(x), fd, rtol=1e-5, atol=1e-6)

    def test_contracted_lipschitz_bounded(self):
        prob = generate_shifted_logsumexp(5, 30, 1.0, seed=5)
        L = prob.smooth.lipschitz[2]
        prox = PowerProx(np.zeros(5), 2, prob.norm)
        for k in range(0, 40):
            A_k = k**3 / L
            A_next = (k + 1) ** 3 / L
            sub = build_subproblem(prob, prob.smooth, np.zeros(5), np.zeros(5),
                                   A_k, A_next, prox)
            assert sub.smooth.lipschitz[2] <= 27.0 * (1 + 1e-12)

    def test_contracted_third_derivative_sampled(self):
        _, sub, _, _ = self._setup(k=2)
        rng = np.random.default_rng(6)
        o = sub.smooth
        for _ in range(40):
            x = rng.normal(size=6)
            h = rng.normal(size=6)
            r = sub.norm.primal(h)
            if r == 0:
                continue
            h = h / r
            t = 1e-5
            d3 = (h @ o.hessian_vec(x + t * h, h)
                  - h @ o.hessian_vec(x - t * h, h)) / (2 * t)
            assert abs(d3) <= 27.0 + 1e-3

    def test_certificate_formula(self):
        # order two: bound is (2/3) sqrt(2) ||grad h||^{3/2}
        _, sub, _, _ = self._setup()
        rng = np.random.default_rng(7)
        y = rng.normal(size=6)
        bound, gn = subproblem_certificate(sub, y, 2)
        assert bound == pytest.approx((2.0 / 3.0) * math.sqrt(2.0) * gn**1.5, rel=1e-12)

    def test_certificate_zero_at_minimizer_gradient(self):
        _, sub, _, _ = self._setup()
        bound, _ = subproblem_certificate(sub, np.zeros(6), 2,
                                          grad=np.zeros(6))
        assert bound == 0.0

    def test_certificate_dominates_true_residual(self):
        import scipy.optimize

        _, sub, _, _ = self._setup(k=1, seed=8)
        ref = scipy.optimize.minimize(sub.value, np.zeros(6), jac=sub.gradient,
                                      method="L-BFGS-B",
                                      options={"gtol": 1e-12, "ftol": 1e-16,
                                               "maxiter": 5000})
        h_star = ref.fun
        rng = np.random.default_rng(9)
        for _ in range(10):
            y = rng.normal(size=6)
            bound, _ = subproblem_certificate(sub, y, 2)
            assert bound >= sub.value(y) - h_star - 1e-8

    def test_requires_increasing_coefficients(self):
        prob = generate_shifted_logsumexp(4, 24, 1.0, seed=10)
        prox = PowerProx(np.zeros(4), 2, prob.norm)
        with pytest.raises(ValueError):
            build_subproblem(prob, prob.smooth, np.zeros(4), np.zeros(4), 2.0, 2.0, prox)


class TestAccelerated:
    def test_first_outer_iterate_equals_prox_point(self):
        # A_0 = 0 makes x_1 the subproblem solution itself; verify via the
        # recombination identity x_1 = (a_1 v_1 + A_0 x_0)/A_1 = v_1
        chain = powered_chain_oracle(6, 3.0, 1.0)
        cfg = SolverConfig(p=2, max_iters=1, zeta_policy=power(1, 1),
                          inner_policy=power(1, 1))
        run = accelerated(chain, np.ones(6), cfg)
        x1 = run.points[1]
        # h_1 gradient at x_1 must satisfy the accepted certificate
        L = chain.smooth.lipschitz[2]
        prox = PowerProx(np.ones(6), 2, chain.norm)
        sub = build_subproblem(chain, chain.smooth, np.ones(6), np.ones(6),
                               0.0, 1.0 / L, prox)
        bound, _ = subproblem_certificate(sub, x1, 2)
        assert bound <= run.records[1].delta_requested + 1e-12

    def test_converges_on_chain(self):
        chain = powered_chain_oracle(10, 3.0, 1.0)
        cfg = SolverConfig(p=2, h_mode="fixed", h_value=1.0, max_iters=60,
                          zeta_policy=power(1, 1), inner_policy=power(1, 1),
                          target_gap=1e-8)
        run = accelerated(chain, np.ones(10), cfg)
        assert run.status == "target_reached"

    def test_adaptive_inner_policy(self):
        chain = powered_chain_oracle(6, 3.0, 1.0)
        cfg = SolverConfig(p=2, h_mode="fixed", h_value=1.0, max_iters=15,
                          zeta_policy=power(1, 1),
                          inner_policy=adaptive(1.0, 1.0, delta1=0.5))
        run = accelerated(chain, np.ones(6), cfg)
        assert run.records[-1].gap < run.records[0].gap

    def test_rejects_adaptive_zeta_policy_before_any_oracle_call(self, monkeypatch):
        prob = generate_shifted_logsumexp(10, 60, 1.0, 0)
        forbid_oracle_calls(monkeypatch, prob.smooth)
        cfg = SolverConfig(p=2, h_mode="fixed", h_value=1.0, max_iters=5,
                           zeta_policy=adaptive(1, 1))
        with pytest.raises(ValueError, match="accelerated .*adaptive zeta_policy"):
            accelerated(prob, np.ones(10), cfg)

    def test_needs_lipschitz_or_surrogate(self):
        chain = powered_chain_oracle(5, 4.0, 1.0)  # no known constant for q=4
        cfg = SolverConfig(p=2, max_iters=3)
        with pytest.raises(ValueError):
            accelerated(chain, np.ones(5), cfg)

    def test_inner_work_counted(self):
        chain = powered_chain_oracle(6, 3.0, 1.0)
        cfg = SolverConfig(p=2, h_mode="fixed", h_value=1.0, max_iters=5,
                          zeta_policy=power(1, 1), inner_policy=power(1, 1))
        run = accelerated(chain, np.ones(6), cfg)
        assert run.counts["hessian_vec"] > 0
        assert all(r.inner_iters >= 1 for r in run.records[1:])
