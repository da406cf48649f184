import math

import pytest

from tensoropt.harness import ExperimentConfig, execute
from tensoropt.policies import (
    AccuracyPolicy,
    adaptive,
    adaptive_c_limit,
    condition_number,
    constant,
    power,
    strong_convexity_c_bound,
)


class TestSchedules:
    def test_power_law_value(self):
        assert power(1.0, 3.0).delta(3) == pytest.approx(1.0 / 27.0)

    def test_adaptive_linear_progress(self):
        assert adaptive(1.0, 1.0).delta(3, (10.0, 7.0)) == pytest.approx(3.0)

    def test_adaptive_three_halves_progress(self):
        assert adaptive(1.0, 1.5).delta(5, (5.0, 1.0)) == pytest.approx(8.0)

    def test_first_iteration_uses_delta1(self):
        pol = adaptive(1.0, 1.5, delta1=0.25)
        assert pol.delta(1) == 0.25

    def test_constant_ignores_counter(self):
        pol = constant(1e-6)
        assert pol.delta(1) == pol.delta(100) == 1e-6

    def test_zero_progress_returns_zero(self):
        assert adaptive(1.0, 1.0).delta(4, (2.0, 2.0)) == 0.0

    def test_negative_progress_rejected(self):
        with pytest.raises(ValueError):
            adaptive(1.0, 1.0).delta(4, (2.0, 3.0))

    def test_adaptive_requires_history(self):
        with pytest.raises(ValueError):
            adaptive(1.0, 1.0).delta(2)

    def test_counter_starts_at_one(self):
        with pytest.raises(ValueError):
            power(1.0, 2.0).delta(0)

    def test_deterministic(self):
        pol = adaptive(0.5, 1.5)
        a = [pol.delta(k, (3.0, 1.0)) for k in (2, 3, 4)]
        b = [pol.delta(k, (3.0, 1.0)) for k in (2, 3, 4)]
        assert a == b


class TestValidity:
    def test_progress_rule_limit_pinned(self):
        assert adaptive_c_limit(2) == pytest.approx(1.0 / 107.0)

    def test_adaptive_alpha_one_warns_above_limit(self):
        with pytest.warns(RuntimeWarning):
            adaptive(1.0, 1.0).warn_if_invalid(2)

    def test_adaptive_alpha_one_silent_below_limit(self, recwarn):
        adaptive(1.0 / 200.0, 1.0).warn_if_invalid(2)
        assert len(recwarn) == 0

    def test_adaptive_alpha_one_silent_at_the_limit(self, recwarn):
        adaptive(adaptive_c_limit(2), 1.0).warn_if_invalid(2)
        assert len(recwarn) == 0

    def test_adaptive_alpha_one_warns_just_above_the_limit(self):
        with pytest.warns(RuntimeWarning, match="above the guaranteed-rate limit"):
            adaptive(math.nextafter(adaptive_c_limit(2), 1.0), 1.0).warn_if_invalid(2)

    def test_other_kinds_silent(self, recwarn):
        power(1.0, 3.0).warn_if_invalid(2)
        constant(1.0).warn_if_invalid(2)
        adaptive(1.0, 1.5).warn_if_invalid(2)
        assert len(recwarn) == 0


class TestStrongConvexityBounds:
    def test_unit_condition_number_order_two(self):
        # L_2 = 2, sigma_3 = 9 gives condition number exactly 1
        omega = condition_number(2, 2.0, 9.0)
        assert omega == 1.0
        sup, rec = strong_convexity_c_bound(2, omega)
        assert sup == pytest.approx(2.0 / 3.0)
        assert rec == pytest.approx(1.0 / 3.0)

    def test_unit_condition_number_order_one(self):
        sup, _ = strong_convexity_c_bound(1, 1.0)
        assert sup == pytest.approx(0.5)

    def test_general_value(self):
        sup, _ = strong_convexity_c_bound(2, 8.0)
        assert sup == pytest.approx((2.0 / 3.0) * 8.0 ** (-0.5), abs=1e-10)
        assert sup == pytest.approx(0.2357, abs=1e-4)

    def test_condition_number_floor(self):
        assert condition_number(2, 1e-9, 100.0) == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            condition_number(2, 1.0, 0.0)
        with pytest.raises(ValueError):
            strong_convexity_c_bound(2, 0.5)


class TestParsing:
    @pytest.mark.parametrize("spec,kind,c,alpha", [
        ("constant:1e-8", "constant", 1e-8, 0.0),
        ("power:1:3", "power", 1.0, 3.0),
        ("adaptive:1:1.5", "adaptive", 1.0, 1.5),
        # a constant that %g would print as 0.00934579
        (f"adaptive:{adaptive_c_limit(2)!r}:1", "adaptive", adaptive_c_limit(2), 1.0),
    ])
    def test_round_trip(self, spec, kind, c, alpha):
        pol = AccuracyPolicy.parse(spec)
        assert pol.kind == kind and pol.c == c
        if kind != "constant":
            assert pol.alpha == alpha

    def test_adaptive_with_delta1(self):
        pol = AccuracyPolicy.parse("adaptive:0.5:2:0.125")
        assert pol.delta1 == 0.125

    @pytest.mark.parametrize("bad", ["", "power", "power:1", "linear:1:2",
                                     "adaptive:x:1", "constant:1:2",
                                     "constant:inf", "constant:nan", "power:inf:1",
                                     "power:1:nan", "power:1:-inf", "adaptive:1:1:nan",
                                     "adaptive:1:1:inf", "adaptive:1:1:-1"])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            AccuracyPolicy.parse(bad)

    def test_negative_constant_rejected(self):
        with pytest.raises(ValueError):
            constant(-1.0)


class TestPolicyStudyInsideTheGuarantee:
    """The progress rule at the guaranteed-rate limit for p = 2 on the policy
    study's instance (seed 1, as in gate 10) and on seed 4: the paper's claim
    that it is cheaper than a decreasing or a tight constant tolerance holds
    inside the theorem, not only for the looser c = 1 gate 10 runs."""

    @staticmethod
    def hvps_to_target(policy, seed, stop="bound"):
        cfg = ExperimentConfig(
            problem={"name": "logsumexp", "n": 100, "m": 600, "mu": 1.0},
            method="monotone2", p=2, H="fixed:1", policy=policy, x0="e1",
            subsolver="fgm", stop=stop, max_iters=2000, target_gap=1e-8, seed=seed,
        )
        run = execute(cfg)
        assert run.status == "target_reached"
        return run.records[-1].hvp_count

    @pytest.mark.parametrize("seed", [1, 4])
    def test_adaptive_at_the_limit_beats_power_and_constant(self, seed):
        at_limit = self.hvps_to_target(f"adaptive:{adaptive_c_limit(2)!r}:1", seed)
        assert at_limit < self.hvps_to_target("power:1:3", seed)
        assert at_limit < self.hvps_to_target("constant:1e-8", seed)

    def test_adaptive_at_the_limit_beats_the_tight_constant_at_stop_exact(self):
        # the paper's inexactness: each step's model value within delta of the
        # model's exact minimum, not under the certificate's bound
        at_limit = self.hvps_to_target(f"adaptive:{adaptive_c_limit(2)!r}:1", 1, stop="exact")
        assert at_limit < self.hvps_to_target("constant:1e-8", 1, stop="exact")
