import math

import numpy as np
import pytest

from conftest import forbid_oracle_calls

from tensoropt import accel
from tensoropt.accel import (
    ContractedOracle,
    ScaledComposite,
    accelerated,
    build_subproblem,
    subproblem_certificate,
)
from tensoropt.linalg import NormOperator
from tensoropt.methods import CountingOracle, SolverConfig
from tensoropt.policies import adaptive, power
from tensoropt.problems import (
    PowerComposite,
    ZeroComposite,
    check_derivatives,
    fd_gradient,
    generate_shifted_logsumexp,
    powered_chain_oracle,
)


class TestBregman:
    def setup_method(self):
        self.norm = NormOperator.identity(4)
        self.anchor = np.zeros(4)
        self.prox = PowerComposite(1.0, 3.0, self.anchor, self.norm)
        self.rng = np.random.default_rng(0)

    def bregman_term(self, v):
        return ScaledComposite(ZeroComposite(4), 0.0, self.prox, v)

    def bregman(self, v, x):
        return self.bregman_term(v).value(x)

    def test_zero_at_reference_point(self):
        v = self.rng.normal(size=4)
        assert self.bregman(v, v) == pytest.approx(0.0, abs=1e-14)

    def test_positive_away_from_reference(self):
        v = self.rng.normal(size=4)
        x = v + 0.5
        assert self.bregman(v, x) > 0

    def test_from_anchor_equals_prox_value(self):
        x = self.rng.normal(size=4)
        assert self.bregman(self.anchor, x) == pytest.approx(self.prox.value(x), rel=1e-12)

    def test_power_lower_bound(self):
        # order two: gap at least ||x - v||^3 / 6
        for _ in range(50):
            v = self.rng.normal(size=4)
            x = self.rng.normal(size=4)
            lower = self.norm.primal(x - v) ** 3 / 6.0
            assert self.bregman(v, x) >= lower - 1e-12

    def test_composite_gradient_matches_fd(self):
        v = self.rng.normal(size=4)
        comp = self.bregman_term(v)
        x = self.rng.normal(size=4)
        fd = fd_gradient(comp.value, x)
        np.testing.assert_allclose(comp.gradient(x), fd, rtol=1e-6, atol=1e-7)

    def test_composite_value_is_the_bregman_gap(self):
        v = self.rng.normal(size=4)
        comp = self.bregman_term(v)
        for _ in range(10):
            x = self.rng.normal(size=4)
            gap = (self.prox.value(x) - self.prox.value(v)
                   - float(self.prox.gradient(v) @ (x - v)))
            assert comp.value(x) == gap
            assert comp.value(x) == self.bregman(v, x)

    def test_uniform_convexity_parameter(self):
        comp = self.bregman_term(self.rng.normal(size=4))
        assert comp.uniform_convexity(3) == pytest.approx(0.5)
        assert comp.uniform_convexity(2) == 0.0

    @pytest.mark.parametrize("a, mu", [(0.0, 0.8), (2.5, 0.8), (0.3, 4.0)])
    def test_scaled_power_composite_adds_the_bregman_gap(self, a, mu):
        base = PowerComposite(mu, 3.0, self.rng.normal(size=4), self.norm)
        v = self.rng.normal(size=4)
        comp = ScaledComposite(base, a, self.prox, v)
        assert comp.uniform_convexity(3) == a * mu / 2 + 0.5
        assert comp.uniform_convexity(2) == 0.0
        assert comp.quadratic_coeff is None
        for _ in range(5):
            x = self.rng.normal(size=4)
            expected = a * base.value(x) + self.bregman(v, x)
            assert comp.value(x) == pytest.approx(expected, rel=1e-14, abs=1e-14)
            np.testing.assert_allclose(comp.gradient(x), fd_gradient(comp.value, x),
                                       rtol=1e-6, atol=1e-7)

    def test_a_zero_base_adds_nothing_with_the_bits_of_a_zero_that_adds(self):
        class AddedZero(ZeroComposite):
            is_zero = False  # added like any other base

        v = self.rng.normal(size=4)
        comp = ScaledComposite(ZeroComposite(4), 0.7, self.prox, v)
        added = ScaledComposite(AddedZero(4), 0.7, self.prox, v)
        for _ in range(10):
            x = self.rng.normal(size=4)
            f, g = comp.value_and_gradient(x)
            f_added, g_added = added.value_and_gradient(x)
            assert f == comp.value(x) == f_added == added.value(x)
            assert g.tobytes() == comp.gradient(x).tobytes() == g_added.tobytes()

    def test_order_two_gap_folds_into_a_quadratic(self):
        prox = PowerComposite(1.0, 2.0, self.anchor, self.norm)
        v = self.rng.normal(size=4)
        mu, center = ScaledComposite(ZeroComposite(4), 0.7, prox, v).quadratic_coeff
        assert mu == 1.0 and np.array_equal(center, v)
        nonzero = PowerComposite(0.5, 2.0, self.anchor, self.norm)
        assert ScaledComposite(nonzero, 0.7, prox, v).quadratic_coeff is None


def _same_state(got, want):
    """Bit-identical center states, part by part: the smoothed max's is the pair
    (pi, gradient), the chain's one array."""
    got, want = (s if isinstance(s, tuple) else (s,) for s in (got, want))
    return len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))


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
        prox = PowerComposite(1.0, 3.0, anchor, prob.norm)
        sub = build_subproblem(prob, prob.smooth, x_k, v_k, A_k, A_next, prox)
        return prob, sub, A_k, A_next

    def test_first_iteration_contraction_is_identity(self):
        prob = generate_shifted_logsumexp(4, 24, 1.0, seed=2)
        prox = PowerComposite(1.0, 3.0, np.zeros(4), prob.norm)
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

    @pytest.mark.parametrize("base", ["logsumexp", "chain", "counted-logsumexp"])
    def test_contracted_product_with_the_state_is_bit_identical(self, base):
        if base == "chain":
            prob = powered_chain_oracle(6, 3.0, 2.0)
        else:
            prob = generate_shifted_logsumexp(6, 36, 1.0, seed=6)
        smooth = CountingOracle(prob.smooth) if base.startswith("counted") else prob.smooth
        rng = np.random.default_rng(7)
        sub = build_subproblem(prob, smooth, rng.normal(size=6), rng.normal(size=6),
                               2.0, 5.0, PowerComposite(1.0, 3.0, np.ones(6), prob.norm))
        for _ in range(5):
            x = rng.normal(size=6)
            state = sub.smooth.value_gradient_state(x)[2]
            assert _same_state(state, prob.smooth.value_gradient_state(sub.smooth._arg(x))[2])
            h = rng.normal(size=6)
            assert np.array_equal(sub.smooth.hessian_vec(x, h, state),
                                  sub.smooth.hessian_vec(x, h))

    @pytest.mark.parametrize("base", ["logsumexp", "chain", "counted-logsumexp"])
    def test_contracted_joint_evaluation_is_bit_identical(self, base):
        if base == "chain":
            prob = powered_chain_oracle(6, 3.0, 2.0)
        else:
            prob = generate_shifted_logsumexp(6, 36, 1.0, seed=6)
        smooth = CountingOracle(prob.smooth) if base.startswith("counted") else prob.smooth
        rng = np.random.default_rng(8)
        sub = build_subproblem(prob, smooth, rng.normal(size=6), rng.normal(size=6),
                               2.0, 5.0, PowerComposite(1.0, 3.0, np.ones(6), prob.norm))
        for _ in range(5):
            x = rng.normal(size=6)
            f, g, state = sub.smooth.value_gradient_state(x)
            assert f == sub.smooth.value(x)
            assert np.array_equal(g, sub.smooth.gradient(x))
            assert _same_state(state, prob.smooth.value_gradient_state(sub.smooth._arg(x))[2])

    @pytest.mark.parametrize("base", ["logsumexp", "chain"])
    def test_contracted_products_with_the_state_form_no_argument(self, monkeypatch, base):
        # x is not read when a state is passed, so shift + theta·x is never built
        prob = (powered_chain_oracle(6, 3.0, 2.0) if base == "chain"
                else generate_shifted_logsumexp(6, 36, 1.0, seed=6))
        rng = np.random.default_rng(9)
        sub = build_subproblem(prob, prob.smooth, rng.normal(size=6), rng.normal(size=6),
                               2.0, 5.0, PowerComposite(1.0, 3.0, np.ones(6), prob.norm))
        x, h = rng.normal(size=6), rng.normal(size=6)
        state = sub.smooth.value_gradient_state(x)[2]
        want = sub.smooth.hessian_vec(x, h), sub.smooth.hessian(x)

        def forbidden(x):
            raise AssertionError("argument built although a state was given")

        monkeypatch.setattr(sub.smooth, "_arg", forbidden)
        assert np.array_equal(sub.smooth.hessian_vec(x, h, state), want[0])
        assert np.array_equal(sub.smooth.hessian(x, state), want[1])

    def test_contracted_hessian_over_a_counting_oracle_counts_one_hessian(self):
        base = powered_chain_oracle(5).smooth
        counted = CountingOracle(base)
        x = np.linspace(-1.0, 1.0, 5)
        hess = ContractedOracle(counted, 2.0, 0.5, np.ones(5)).hessian(x)
        assert np.array_equal(hess, 2.0 * 0.5**2 * base.hessian(np.ones(5) + 0.5 * x))
        assert counted.counts() == {"value": 0, "gradient": 0, "hessian_vec": 0, "hessian": 1}

    def test_contracted_lipschitz_bounded(self):
        prob = generate_shifted_logsumexp(5, 30, 1.0, seed=5)
        L = prob.smooth.lipschitz[2]
        prox = PowerComposite(1.0, 3.0, np.zeros(5), prob.norm)
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
        prox = PowerComposite(1.0, 3.0, np.zeros(4), prob.norm)
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
        prox = PowerComposite(1.0, 3.0, np.ones(6), chain.norm)
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

    @pytest.mark.parametrize("field, warned", [("policy", 0), ("inner_policy", 1)])
    def test_warns_only_about_the_schedule_it_reads(self, recwarn, field, warned):
        # the inner solves follow inner_policy; policy is never read
        cfg = SolverConfig(p=2, h_mode="fixed", h_value=1.0, max_iters=1,
                           **{field: adaptive(1, 1)})
        accelerated(powered_chain_oracle(6, 3.0, 1.0), np.ones(6), cfg)
        assert len([w for w in recwarn if "guaranteed-rate limit" in str(w.message)]) == warned

    @pytest.mark.parametrize("settings,reason", [
        (dict(h_mode="fixed", h_value=1.0, zeta_policy=adaptive(1, 1)), "adaptive zeta_policy"),
        # a line-search start would be silently dropped by the fixed schedule
        (dict(h_mode="linesearch", h_value=7.0), "linesearch H"),
    ], ids=["adaptive-zeta", "linesearch-H"])
    def test_rejects_unsupported_setting_before_any_oracle_call(self, monkeypatch,
                                                                settings, reason):
        prob = generate_shifted_logsumexp(10, 60, 1.0, 0)
        forbid_oracle_calls(monkeypatch, prob.smooth)
        cfg = SolverConfig(p=2, max_iters=5, **settings)
        with pytest.raises(ValueError, match=f"accelerated .*{reason}"):
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

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("name", ["chain", "logsumexp"])
    def test_each_inner_center_costs_one_gradient(self, monkeypatch, p, name):
        # the certificate at an inner center reads the gradient of the model
        # built there, which the next inner step reuses
        prob = (powered_chain_oracle(10, 3.0, 1.0) if name == "chain"
                else generate_shifted_logsumexp(8, 48, 1.0, 0))
        builds = []
        build = accel.TensorModel
        monkeypatch.setattr(accel, "TensorModel",
                            lambda *args, **kwargs: builds.append(1) or build(*args, **kwargs))
        cfg = SolverConfig(p=p, h_mode="fixed", h_value=10.0, max_iters=8,
                           zeta_policy=power(1, 1), inner_policy=power(1, 1))
        run = accelerated(prob, np.ones(prob.dim), cfg)
        assert run.status == "max_iters"
        assert run.counts["gradient"] == len(builds)
