import warnings

import numpy as np
import pytest

from conftest import forbid_oracle_calls

from tensoropt.linalg import NormOperator
from tensoropt.methods import (
    DivergenceError,
    SolverConfig,
    TRACE_COLUMNS,
    averaging,
    monotone1,
    monotone2,
)
from tensoropt.model import TensorModel
from tensoropt.policies import adaptive, constant, power
from tensoropt.problems import (
    ProblemInstance,
    QuadraticOracle,
    SmoothOracle,
    ZeroComposite,
    generate_shifted_logsumexp,
    powered_chain_oracle,
)
from tensoropt.subsolvers import exact_cubic_step


def small_lse(seed=0, n=8, m=48):
    return generate_shifted_logsumexp(n, m, 1.0, seed)


class TestMonotone1:
    def test_starts_at_optimum(self):
        prob = small_lse(1)
        cfg = SolverConfig(p=2, h_mode="lipschitz", policy=power(1, 3),
                          subsolver="exact", max_iters=10)
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
        F = run.objective_series()
        assert all(F[i + 1] <= F[i] + 1e-12 for i in range(len(F) - 1))

    def test_rejection_keeps_iterate_and_caps_tolerance(self):
        # a huge constant tolerance lets the subsolver certify the center
        # itself; the first candidates are rejected and F stays flat
        prob = small_lse(3)
        cfg = SolverConfig(p=2, h_mode="lipschitz", policy=constant(1e9),
                          subsolver="fgm", max_iters=6)
        run = monotone1(prob, np.ones(8), cfg)
        F = run.objective_series()
        assert F[1] == F[0]
        assert run.records[1].delta_requested == 1e9
        # the cap halves the requested tolerance after each rejection
        assert run.records[2].delta_requested == pytest.approx(0.5e9)

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

    def test_gradient_tolerance_stops(self):
        prob = small_lse(5)
        cfg = SolverConfig(p=2, h_mode="lipschitz", policy=power(1, 3),
                          subsolver="exact", max_iters=500, grad_tol=1e-5)
        run = monotone1(prob, 0.5 * np.ones(8), cfg)
        assert run.status == "target_reached"
        g = prob.gradient(run.x_final)
        assert prob.norm.dual(g) <= 1e-5


class TestMonotone2:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_strict_decrease_every_iteration(self):
        prob = small_lse(6)
        cfg = SolverConfig(p=2, h_mode="lipschitz", policy=adaptive(1e-2, 1),
                          subsolver="fgm", max_iters=25)
        run = monotone2(prob, np.ones(8), cfg)
        F = run.objective_series()
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
            model = TensorModel(prob.smooth, prob.composite, y, H, p=2,
                                want_hessian=True)
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


    def test_rejects_adaptive_policy_before_any_oracle_call(self, monkeypatch):
        # the schedule needs the objective history, which averaging does not keep
        prob = generate_shifted_logsumexp(10, 60, 1.0, 0)
        forbid_oracle_calls(monkeypatch, prob.smooth)
        cfg = SolverConfig(p=2, h_mode="lipschitz", policy=adaptive(1, 1), max_iters=5)
        with pytest.raises(ValueError, match="averaging .*adaptive policy"):
            averaging(prob, np.ones(10), cfg)


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

    def test_divergence_error_on_inconsistent_objective(self):
        class LiarOracle(SmoothOracle):
            dim = 1
            norm = NormOperator.identity(1)
            lipschitz = {}

            def value(self, x):
                return 1.0

            def gradient(self, x):
                return np.array([1.0])

            def hessian_vec(self, x, h):
                return np.zeros(1)

            def hessian(self, x):
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

            def hessian_vec(self, x, h):
                self.hvp_calls += 1
                return self.inner.hessian_vec(x, h)

            def hessian(self, x):
                return self.inner.hessian(x)

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


class TestConfigValidation:
    def test_bad_order(self):
        with pytest.raises(ValueError):
            SolverConfig(p=3).validate()

    def test_fixed_mode_needs_value(self):
        with pytest.raises(ValueError):
            SolverConfig(h_mode="fixed").validate()

    def test_lipschitz_mode_needs_known_constant(self):
        prob = powered_chain_oracle(4, 4.0, 1.0)  # no known L_p for q=4
        cfg = SolverConfig(p=2, h_mode="lipschitz", policy=power(1, 3),
                          subsolver="exact", max_iters=2)
        with pytest.raises(ValueError):
            monotone2(prob, np.ones(4), cfg)

    def test_wrong_start_dimension(self):
        prob = small_lse(15)
        cfg = SolverConfig(p=2, h_mode="lipschitz", policy=power(1, 3), max_iters=2)
        with pytest.raises(ValueError):
            monotone2(prob, np.ones(9), cfg)
