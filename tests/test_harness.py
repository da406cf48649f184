import json
import os

import numpy as np
import pytest

from tensoropt import harness, problems, subsolvers
from tensoropt.cli import main, parse_problem
from tensoropt.harness import (
    SUCCESS_STATUSES,
    ExperimentConfig,
    attach_composite,
    build_problem,
    compare,
    fit_rate,
    parse_h_mode,
    read_trace_csv,
    reference_fstar,
    render_comparison,
    run_experiment,
    starting_point,
    write_json,
)
from tensoropt.methods import TRACE_COLUMNS, monotone2


# config files whose one bad scalar field the CLI refuses as a usage error
BAD_SCALARS = {
    "iters-str": ({"max_iters": "10"}, "max_iters must be an int of at least 1, got '10'"),
    "iters-frac": ({"max_iters": 2.5}, "max_iters must be an int of at least 1, got 2.5"),
    "iters-neg": ({"max_iters": -3}, "max_iters must be an int of at least 1, got -3"),
    "gap-str": ({"target_gap": "1e-8"}, "target_gap must be None or finite and nonnegative"),
    "p-bool": ({"p": True}, "order p must be 1 or 2, got True"),
    "p-float": ({"p": 2.0}, "order p must be 1 or 2, got 2.0"),
    "seed-neg": ({"seed": -1}, "seed must be an int of at least 0, got -1"),
    "time-str": ({"measure_time": "yes"}, "measure_time must be true or false, got 'yes'"),
    "H-int": ({"H": 5}, "bad spec 5: a spec must be a string"),
    "out-int": ({"out": 3}, "out must be None or a directory path, got 3"),
}


def small_cfg(**kw):
    base = dict(
        problem={"name": "logsumexp", "n": 10, "m": 60, "mu": 1.0},
        method="monotone1", p=2, H="fixed:1", policy="power:1:3",
        x0="e1", subsolver="fgm", stop="bound", max_iters=15, seed=3,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = small_cfg(target_gap=1e-8, composite="power:1:3")
        path = tmp_path / "cfg.json"
        cfg.save(path)
        loaded = ExperimentConfig.load(path)
        assert loaded.to_dict() == cfg.to_dict()

    def test_unknown_field_named(self):
        with pytest.raises(ValueError, match="unknown config fields: polcy"):
            ExperimentConfig.from_dict({**small_cfg().to_dict(), "polcy": "power:1:3"})

    def test_parse_problem_spec(self):
        spec = parse_problem("logsumexp:n=100,m=600,mu=1")
        assert spec == {"name": "logsumexp", "n": "100", "m": "600", "mu": "1"}
        with pytest.raises(ValueError):
            parse_problem("chain:n")

    def test_parse_h_mode(self):
        assert parse_h_mode("lipschitz") == ("lipschitz", None)
        assert parse_h_mode("fixed:0.5") == ("fixed", 0.5)
        assert parse_h_mode("linesearch:2") == ("linesearch", 2.0)
        assert parse_h_mode("linesearch") == ("linesearch", 1.0)
        for bad in ("auto", "linesearchfoo", "linesearch:2:3", "fixed:", "fixed:1:2",
                    "lipschitz:1"):
            with pytest.raises(ValueError):
                parse_h_mode(bad)


class TestBadSpecs:
    @pytest.mark.parametrize("field,spec,reason", [
        ("composite", "power:1", "values for power must be 2, got 1"),
        ("composite", "power:1:3:7", "values for power must be 2, got 3"),
        ("composite", "quadratic:1:5", "values for quadratic must be 1, got 2"),
        ("composite", "power:nan:3", "every value must be finite"),
        ("composite", "quadratic:inf", "every value must be finite"),
        ("composite", "power:-1:3", "'power:-1:3': mu must be finite and nonnegative, got -1.0"),
        ("composite", "power:1:1.5", "'power:1:1.5': q must be finite and at least 2, got 1.5"),
        ("composite", "quadratic:-2", "'quadratic:-2': mu must be finite and nonnegative"),
        ("H", "lipschitz:3", "values for lipschitz must be 0, got 1"),
        ("H", "fixed:", "every value must be a number"),
        ("policy", "adaptive:1:1:-1", "must be nonnegative"),
        ("zeta_policy", "linear:1:2", "kind must be one of constant, power, adaptive"),
        ("problem", {"name": "chain", "n": "abc"}, "n='abc' is not a valid int"),
        ("problem", {"name": "logsumexp", "mu": [1]}, r"mu=\[1\] is not a valid float"),
        ("problem", {"n": 5}, "names none of logsumexp, logistic"),
        ("problem", {"name": "rosenbrock"}, "'rosenbrock'} names none of"),
        ("problem", {"name": "logistic", "l2": 0.1}, "problem 'logistic' needs a path"),
        ("problem", {"name": "logistic", "l2": "abc"}, "l2='abc' is not a valid float"),
        ("problem", {"name": "chain", "n": 3.7}, "n=3.7 is not a valid int"),
        ("problem", {"name": "chain", "n": True}, "n=True is not a valid int"),
        ("problem", {"name": "logsumexp", "mu": False}, "mu=False is not a valid float"),
        ("problem", {"name": "chain", "n": 0}, "n must be at least 1, got 0"),
        ("problem", {"name": "chain", "q": 1.5}, "q must be finite and at least 2, got 1.5"),
        ("problem", {"name": "chain", "c": 3}, "c must be 1 or 2, got 3.0"),
        ("problem", {"name": "logsumexp", "n": 5, "m": 5}, "need m > n"),
        ("problem", {"name": "logsumexp", "m": 50}, r"got n=100, m=50"),
        ("problem", {"name": "logsumexp", "mu": 0}, "mu must be finite and positive"),
        ("problem", {"name": "logistic-synth", "n": 0}, "n must be at least 1, got 0"),
        ("problem", {"name": "logistic-synth", "m": 0}, "m must be at least 1, got 0"),
        ("problem", {"name": "logistic-synth", "scale": "inf"}, "scale must be finite"),
        ("problem", {"name": "logistic", "path": "no-such-file", "l2": -1.0},
         "problem 'logistic': l2 must be finite and nonnegative, got -1.0"),
        ("problem", None, "config needs a problem stanza"),
        ("x0", "bogus", "unknown starting point 'bogus'"),
        ("max_iters", "10", "max_iters must be an int of at least 1, got '10'"),
        ("max_iters", 2.5, r"max_iters must be an int of at least 1, got 2\.5"),
        ("max_iters", -3, "max_iters must be an int of at least 1, got -3"),
        ("max_iters", True, "max_iters must be an int of at least 1, got True"),
        ("target_gap", "1e-8", "target_gap must be None or finite and nonnegative, got '1e-8'"),
        ("target_gap", float("nan"), "target_gap must be None or finite and nonnegative"),
        ("target_gap", -1.0, "target_gap must be None or finite and nonnegative"),
        ("p", True, "order p must be 1 or 2, got True"),
        ("p", 2.0, r"order p must be 1 or 2, got 2\.0"),
        ("seed", -1, "seed must be an int of at least 0, got -1"),
        ("seed", "3", "seed must be an int of at least 0, got '3'"),
        ("measure_time", "yes", "measure_time must be true or false, got 'yes'"),
        # a spec field of the wrong type, falsy ones included, is not read as absent
        ("H", 5, "bad spec 5: a spec must be a string"),
        ("policy", 3, "bad spec 3: a spec must be a string"),
        ("zeta_policy", 2, "bad spec 2: a spec must be a string"),
        ("zeta_policy", 0, "bad spec 0: a spec must be a string"),
        ("inner_policy", False, "bad spec False: a spec must be a string"),
        ("composite", 7, "bad spec 7: a spec must be a string"),
        ("composite", 0, "bad spec 0: a spec must be a string"),
        ("method", ["a"], r"unknown method \['a'\]"),
        ("out", 3, "out must be None or a directory path, got 3"),
        ("out", ["runs"], r"out must be None or a directory path, got \['runs'\]"),
        ("out", "", "out must be None or a directory path, got ''"),
        ("problem", {"name": ["chain"]}, r"problem stanza \{'name': \['chain'\]\} names none of"),
    ])
    def test_rejected_with_reason_before_any_solve(self, monkeypatch, field, spec, reason):
        def no_instance(*args):
            raise AssertionError("a problem instance was built")

        monkeypatch.setattr(harness, "build_problem", no_instance)
        with pytest.raises(ValueError, match=reason):
            harness.execute(small_cfg(**{"method": "accelerated", field: spec}))

    @pytest.mark.parametrize("top", [[1, 2], "run", None])
    def test_a_config_that_is_not_an_object_is_refused(self, top):
        with pytest.raises(ValueError, match="a config must be an object of fields"):
            ExperimentConfig.from_dict(top)

    @pytest.mark.parametrize("fields,reason", [
        ({"problem": {"name": "chain", "n": 6, "q": 2.5}, "H": "lipschitz"},
         "no known Lipschitz constant of order 2 for this problem"),
        ({"problem": {"name": "logistic-synth"}, "p": 1, "H": "lipschitz"},
         "no known Lipschitz constant of order 1 for this problem"),
        ({"problem": {"name": "logistic-synth", "scale": 0}, "H": "lipschitz"},
         "no known Lipschitz constant of order 2 for this problem"),
        ({"problem": {"name": "chain", "n": 6}, "p": 1, "H": "lipschitz", "method": "accelerated"},
         "the accelerated scheme needs a known Lipschitz constant"),
        ({"subsolver": "exact", "composite": "power:1:3", "method": "monotone2"},
         "closed-form steps support only zero or quadratic composites"),
        ({"stop": "exact", "composite": "power:1:3", "method": "averaging"},
         "closed-form steps support only zero or quadratic composites"),
        ({"p": 1, "subsolver": "exact", "composite": "power:1:4"},
         "closed-form steps support only zero or quadratic composites"),
        ({"problem": {"name": "chain", "q": 2.5}, "H": "lipschitz", "subsolver": "exact",
          "composite": "power:1:3"}, "no known Lipschitz constant"),
        ({"method": "accelerated", "stop": "exact"}, "accelerated does not support stop exact"),
        ({"method": "accelerated", "subsolver": "exact"},
         "accelerated at p = 2 does not support subsolver exact"),
        ({"subsolver": "exact", "stop": "exact"},
         "stop exact is never read under subsolver exact"),
        ({"method": "accelerated", "p": 1, "subsolver": "exact", "composite": "quadratic:0.5"},
         "closed-form steps support only zero or quadratic composites"),
    ])
    def test_problem_faults_rejected_before_any_instance(self, monkeypatch, fields, reason):
        def no_instance(*args):
            raise AssertionError("a problem instance was built")

        monkeypatch.setattr(harness, "build_problem", no_instance)
        with pytest.raises(ValueError, match=reason):
            harness.execute(small_cfg(**fields))


class TestProblemRegistry:
    def test_build_each_kind(self):
        lse = build_problem({"name": "logsumexp", "n": 6, "m": 36, "mu": 1.0}, seed=0)
        assert lse.dim == 6
        chain = build_problem({"name": "chain", "n": 5, "q": 3, "c": 2}, seed=0)
        assert chain.known_optimum[1] == 0.0
        synth = build_problem({"name": "logistic-synth", "n": 5, "m": 20, "l2": 0.1}, seed=0)
        assert synth.known_optimum is None

    def test_unknown_problem(self):
        with pytest.raises(ValueError):
            build_problem({"name": "rosenbrock"}, seed=0)

    def test_builders_are_looked_up_by_module_name(self, monkeypatch):
        # a wrapper bound to a builder's module name, as the span tracer binds
        # one, sees the build
        calls = []

        def spy(**params):
            calls.append(params)
            return chain(**params)

        chain = problems.powered_chain_oracle
        monkeypatch.setattr(problems, "powered_chain_oracle", spy)
        assert harness.build_problem({"name": "chain", "n": 4}, seed=0).dim == 4
        assert calls == [{"n": 4, "q": 3.0, "c": 1.0}]

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            build_problem({"name": "chain", "n": 5, "bogus": 1}, seed=0)

    def test_params_typed_with_defaults(self):
        assert harness.problem_params({"name": "chain", "n": 3.0}) == (
            "chain", {"n": 3, "q": 3.0, "c": 1.0})
        assert harness.problem_params({"name": "logsumexp", "n": "7"})[1] == {
            "n": 7, "m": 42, "mu": 0.05}

    def test_attach_composite_preserves_centered_optimum(self):
        lse = build_problem({"name": "logsumexp", "n": 6, "m": 36, "mu": 1.0}, seed=1)
        both = attach_composite(lse, "power:1:3")
        assert both.known_optimum is not None
        assert both.known_optimum[1] == pytest.approx(lse.known_optimum[1])
        assert both.composite.uniform_convexity(3) == pytest.approx(0.5)

    def test_attach_none_is_identity(self):
        lse = build_problem({"name": "logsumexp", "n": 4, "m": 24, "mu": 1.0}, seed=2)
        assert attach_composite(lse, None) is lse

    def test_starting_points(self):
        assert starting_point("ones", 3, 0).tolist() == [1.0, 1.0, 1.0]
        assert starting_point("zeros", 2, 0).tolist() == [0.0, 0.0]
        assert starting_point("e1", 3, 0).tolist() == [1.0, 0.0, 0.0]
        a = starting_point("gauss", 4, 5)
        b = starting_point("gauss", 4, 5)
        np.testing.assert_array_equal(a, b)


class TestRunArtifacts:
    def test_writes_three_files_with_stable_columns(self, tmp_path):
        cfg = small_cfg()
        run, summary = run_experiment(cfg, str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == ["config.json", "summary.json", "trace.csv"]
        cols = read_trace_csv(tmp_path / "trace.csv")
        assert list(cols.keys()) == list(TRACE_COLUMNS)
        # start row keeps step fields empty rather than zero
        assert cols["delta_requested"][0] is None
        assert cols["H_used"][0] is None
        assert summary["status"] == run.status

    def test_time_column_empty_by_default(self, tmp_path):
        cfg = small_cfg()
        run_experiment(cfg, str(tmp_path))
        cols = read_trace_csv(tmp_path / "trace.csv")
        assert all(v is None for v in cols["time_s"])

    def test_time_column_filled_when_requested(self, tmp_path):
        cfg = small_cfg(measure_time=True, max_iters=5)
        run_experiment(cfg, str(tmp_path))
        cols = read_trace_csv(tmp_path / "trace.csv")
        assert all(v is not None for v in cols["time_s"][1:])

    @pytest.mark.parametrize("method,extra", [
        ("monotone1", {}),
        ("monotone2", {}),
        ("averaging", {}),
        ("accelerated", {"zeta_policy": "power:1:1", "inner_policy": "power:1:1"}),
    ])
    def test_byte_identical_reruns(self, tmp_path, method, extra):
        cfg = small_cfg(method=method, max_iters=8, **extra)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_experiment(cfg, str(d1))
        run_experiment(cfg, str(d2))
        assert (d1 / "trace.csv").read_bytes() == (d2 / "trace.csv").read_bytes()
        assert (d1 / "config.json").read_bytes() == (d2 / "config.json").read_bytes()

    def test_exact_solves_with_cold_and_cached_whitened_rows_write_identical_traces(
            self, tmp_path):
        # as the benchmark does: every pass solves the one instance, and the first
        # builds the smoothed-max oracle's whitened rows W that the later ones reuse
        cfg = small_cfg(method="monotone2", H="linesearch:1", policy="power:1:3",
                        subsolver="exact", max_iters=12, target_gap=1e-8)
        method, scfg = harness.resolve(cfg)
        problem = build_problem(cfg.problem, cfg.seed)
        x0 = starting_point(cfg.x0, problem.dim, cfg.seed)
        traces = []
        for name in ("cold", "cached"):
            assert (problem.smooth._rows is None) == (name == "cold")
            path = tmp_path / f"{name}.csv"
            harness.write_trace_csv(path, method(problem, x0, scfg).records)
            traces.append(path.read_bytes())
        assert problem.smooth._rows is not None
        assert traces[0] == traces[1] and len(traces[0]) > 0

    def test_summary_reports_counts_and_fit(self, tmp_path):
        cfg = small_cfg(max_iters=20)
        _, summary = run_experiment(cfg, str(tmp_path))
        assert summary["counts"]["hessian_vec"] > 0
        assert "rate_fit" in summary
        assert summary["fstar_source"] == "known"


class TestRateFit:
    def test_exact_power_law(self):
        ks = np.arange(1, 200)
        Fs = 1.0 / ks**2
        fit = fit_rate(ks, Fs, 0.0)
        assert fit.slope == pytest.approx(-2.0, abs=1e-6)

    def test_window_and_truncation(self):
        ks = np.arange(0, 50)
        clean = 1.0 / np.maximum(ks, 1) ** 3
        gaps = np.where(ks <= 20, clean, 1e-16)  # numerical plateau after k=20
        Fs = gaps + 5.0
        fit = fit_rate(ks, Fs, 5.0, window=(2, 40))
        assert fit.slope == pytest.approx(-3.0, abs=1e-2)
        assert fit.truncated  # entries below the plateau were dropped
        assert fit.window == (2.0, 20.0)

    def test_monotone1_window_slope(self):
        cfg = small_cfg(problem={"name": "logsumexp", "n": 30, "m": 180, "mu": 1.0},
                        H="lipschitz", max_iters=90, seed=7)
        run, _ = run_experiment(cfg)
        fit = fit_rate([r.k for r in run.records], [r.F for r in run.records],
                       run.fstar, window=(10, 80))
        assert fit.slope <= -1.7

    def test_superlinear_ratio_series(self):
        gaps = [1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-9]
        Fs = [g + 1.0 for g in gaps]
        fit = fit_rate(np.arange(len(gaps)), Fs, 1.0, exponent=1.5)
        assert len(fit.ratios) > 0

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_rate([1, 2], [1.0, 1.0], 1.0)


class TestCompare:
    def test_winners_and_ties(self, tmp_path):
        a = small_cfg(method="monotone2", policy="power:1:3", max_iters=40,
                      target_gap=1e-8)
        b = small_cfg(method="monotone2", policy="power:1:3", max_iters=40,
                      target_gap=1e-8)
        report = compare([a, b], out_root=str(tmp_path))
        entry = report["targets"]["1e-06"]
        labels = report["labels"]
        assert entry["iterations"][labels[0]] == entry["iterations"][labels[1]]
        text = render_comparison(report)
        assert "winners" in text
        assert os.path.exists(tmp_path / "comparison.json")

    def test_configs_sharing_method_and_policy_keep_separate_entries(self):
        a = small_cfg(method="monotone2", H="fixed:1", max_iters=40, target_gap=1e-8)
        b = small_cfg(method="monotone2", H="fixed:8", max_iters=40, target_gap=1e-8)
        c = small_cfg(method="monotone2", policy="power:1:2", max_iters=40, target_gap=1e-8)
        report = compare([a, b, c])
        labels = report["labels"]
        assert labels == ["monotone2/power:1:3#0", "monotone2/power:1:3#1",
                          "monotone2/power:1:2"]
        for entry in report["targets"].values():
            assert list(entry["hvp_count"]) == labels
        gaps = report["gap_by_iteration"]
        assert list(gaps) == labels
        assert gaps[labels[0]] != gaps[labels[1]]    # the two weights are two runs

    def test_mismatched_instances_rejected(self):
        a = small_cfg(seed=1)
        b = small_cfg(seed=2)
        with pytest.raises(ValueError):
            compare([a, b])

    def test_bad_second_config_writes_nothing(self, tmp_path):
        bad = small_cfg(inner_policy="constant:nan")
        with pytest.raises(ValueError, match="finite"):
            compare([small_cfg(), bad], out_root=str(tmp_path / "cmp"))
        assert not os.path.exists(tmp_path / "cmp")

    def test_needs_two_configs(self):
        with pytest.raises(ValueError):
            compare([small_cfg()])


class TestReferenceOptimum:
    def test_cached_value_is_reused(self, tmp_path):
        cfg = small_cfg(problem={"name": "logistic-synth", "n": 6, "m": 30,
                                 "l2": 0.1, "scale": 0.5})
        f1, src1 = reference_fstar(cfg, cache_dir=str(tmp_path))
        f2, src2 = reference_fstar(cfg, cache_dir=str(tmp_path))
        assert f1 == f2
        assert src1 == "reference-run" and src2 == "reference-cached"

    @pytest.mark.parametrize("field, value", [("p", 1), ("x0", "ones"), ("max_iters", 30)])
    def test_every_field_the_solve_reads_is_in_the_key(self, tmp_path, field, value):
        problem = {"name": "logistic-synth", "n": 6, "m": 30, "l2": 0.1, "scale": 0.5}
        reference_fstar(small_cfg(problem=problem), cache_dir=str(tmp_path))
        _, src = reference_fstar(small_cfg(problem=problem, **{field: value}),
                                 cache_dir=str(tmp_path))
        assert src == "reference-run"

    def test_reference_h_is_in_the_key(self, tmp_path, monkeypatch):
        problem = {"name": "logistic-synth", "n": 6, "m": 30, "l2": 0.1, "scale": 0.5}
        reference_fstar(small_cfg(problem=problem), cache_dir=str(tmp_path))
        monkeypatch.setattr(harness, "REFERENCE_H", "linesearch:2")
        _, src = reference_fstar(small_cfg(problem=problem), cache_dir=str(tmp_path))
        assert src == "reference-run"

    def test_an_edited_data_file_is_not_served_from_the_cache(self, tmp_path):
        path = tmp_path / "four.svm"
        cfg = small_cfg(problem={"name": "logistic", "path": str(path), "l2": 0.1})
        cache = str(tmp_path / "cache")
        path.write_text("1 1:1.0 2:0.5\n-1 1:-0.5 2:1.0\n1 2:-1.0\n-1 1:2.0\n")
        first, src = reference_fstar(cfg, cache_dir=cache)
        assert src == "reference-run"
        path.write_text("1 1:1.0 2:0.5\n-1 1:0.5 2:1.0\n-1 2:-1.0\n1 1:2.0\n")
        edited, src = reference_fstar(cfg, cache_dir=cache)
        assert src == "reference-run"
        assert edited == reference_fstar(cfg)[0] and edited != first
        assert reference_fstar(cfg, cache_dir=cache) == (edited, "reference-cached")

    @pytest.mark.parametrize("field, value", [
        ("policy", "constant:1e-3"), ("method", "averaging"), ("H", "fixed:2"),
        ("subsolver", "exact"), ("stop", "exact"), ("target_gap", 1e-6)])
    def test_settings_the_reference_run_replaces_share_one_cache_entry(self, tmp_path,
                                                                       field, value):
        problem = {"name": "logistic-synth", "n": 6, "m": 30, "l2": 0.1, "scale": 0.5}
        fstar, _ = reference_fstar(small_cfg(problem=problem), cache_dir=str(tmp_path))
        assert reference_fstar(small_cfg(problem=problem, **{field: value}),
                               cache_dir=str(tmp_path)) == (fstar, "reference-cached")
        assert len(os.listdir(tmp_path)) == 1

    def test_a_composite_no_closed_form_step_folds_in_takes_fgm_steps(self, tmp_path):
        # an exact step folds in only a quadratic composite, so under q = 3 the
        # reference run steps by FGM, and compare gets its optimum
        cfg = small_cfg(problem={"name": "logistic-synth", "n": 6, "m": 40},
                        composite="power:0.5:3")
        configs = [cfg, small_cfg(problem=cfg.problem, composite=cfg.composite,
                                  method="monotone2", policy="power:1:2")]
        report = compare(configs, out_root=str(tmp_path))
        fstar, src = reference_fstar(cfg, cache_dir=str(tmp_path))
        assert src == "reference-cached" and np.isfinite(fstar)
        assert reference_fstar(cfg) == (fstar, "reference-run")
        (entry,) = [name for name in os.listdir(tmp_path) if name.startswith("fstar-")]
        with open(tmp_path / entry) as fh:
            assert json.load(fh)["status"] in SUCCESS_STATUSES
        # no run ends below the reference optimum, so compare measures gaps from it
        assert report["fstar"] == fstar
        assert all(min(gaps) >= 0.0 for gaps in report["gap_by_iteration"].values())

    def test_line_searched_even_with_a_known_lipschitz_constant(self, monkeypatch):
        configs = []

        def spy(problem, x0, config):
            configs.append(config)
            return monotone2(problem, x0, config)

        monkeypatch.setitem(harness.METHOD_TABLE, "monotone2", spy)
        cfg = small_cfg()
        assert build_problem(cfg.problem, cfg.seed).smooth.lipschitz.get(cfg.p) is not None
        reference_fstar(cfg)
        assert [(c.h_mode, c.h_value) for c in configs] == [("linesearch", 1.0)]


class TestCli:
    def test_run_with_flags(self, tmp_path, capsys):
        rc = main([
            "run", "--problem", "chain:n=6,q=3,c=1", "--method", "monotone2",
            "--H", "fixed:1", "--policy", "power:1:3", "--subsolver", "fgm",
            "--max-iters", "5", "--out", str(tmp_path / "o"),
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] in ("max_iters", "target_reached")
        assert os.path.exists(tmp_path / "o" / "trace.csv")

    def test_run_with_config_file(self, tmp_path, capsys):
        cfg = small_cfg(max_iters=4)
        path = tmp_path / "cfg.json"
        cfg.save(path)
        rc = main(["run", "--config", str(path), "--max-iters", "3"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["iterations"] <= 3

    def test_fit_command(self, tmp_path, capsys):
        cfg = small_cfg(max_iters=20)
        run_experiment(cfg, str(tmp_path / "r"))
        rc = main(["fit", "--trace", str(tmp_path / "r" / "trace.csv"),
                   "--fstar", "auto", "--window", "1:10"])
        assert rc == 0
        fit = json.loads(capsys.readouterr().out)
        assert fit["slope"] < 0

    def test_compare_command(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        small_cfg(policy="power:1:3", max_iters=20).save(p1)
        small_cfg(policy="power:1:2", max_iters=20).save(p2)
        rc = main(["compare", "--configs", str(p1), str(p2),
                   "--out", str(tmp_path / "cmp")])
        assert rc == 0
        assert "gap <=" in capsys.readouterr().out

    def test_problem_flag_completes_a_config_without_one(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        write_json(path, {k: v for k, v in small_cfg(max_iters=2).to_dict().items()
                          if k != "problem"})
        assert main(["run", "--config", str(path), "--problem", "chain:n=6"]) == 0
        assert json.loads(capsys.readouterr().out)["iterations"] <= 2

    def test_a_failed_run_exits_3_and_a_usage_error_2(self, tmp_path, monkeypatch, capsys):
        # an FGM cap of one iteration stalls the first subsolve
        monkeypatch.setattr(subsolvers, "_default_cap", lambda delta: 1)
        argv = ["run", "--problem", "chain:n=6", "--method", "monotone2", "--H", "fixed:1",
                "--policy", "constant:1e-12", "--out", str(tmp_path / "o")]
        assert main(argv) == 3
        assert json.loads(capsys.readouterr().out)["status"] == "stalled"
        with pytest.raises(SystemExit) as stop:
            main(argv + ["--policy", "constant:-1"])
        assert stop.value.code == 2

    def test_a_data_file_with_no_curvature_is_a_usage_error(self, tmp_path, monkeypatch,
                                                             capsys):
        # all-zero features give L₂ = 0, which only the data shows: resolve reads no
        # file, so the built instance refuses H=lipschitz, before the solve starts
        missing = {"name": "logistic", "path": str(tmp_path / "missing")}
        harness.resolve(small_cfg(method="monotone2", problem=missing, H="lipschitz"))
        path = tmp_path / "zeros.svm"
        path.write_text("1 1:0 2:0\n-1 1:0 2:0\n1 2:0\n")
        monkeypatch.setitem(harness.METHOD_TABLE, "monotone2",
                            lambda *a: pytest.fail("the solve started"))
        with pytest.raises(SystemExit) as stop:
            main(["run", "--problem", f"logistic:path={path}", "--method", "monotone2",
                  "--H", "lipschitz"])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert "no known Lipschitz constant of order 2" in err and "Traceback" not in err

    def test_an_error_inside_the_solve_is_not_caught(self, monkeypatch):
        def solve(*args):
            raise ValueError("raised by the solve")

        monkeypatch.setitem(harness.METHOD_TABLE, "monotone2", solve)
        with pytest.raises(ValueError, match="raised by the solve"):
            main(["run", "--problem", "chain:n=6", "--method", "monotone2", "--H", "fixed:1"])

    @pytest.mark.parametrize("argv,reason", [
        (["run", "--problem", "chain:n=6", "--policy", "constant:inf"], "must be finite"),
        (["run", "--problem", "chain:n=6", "--zeta-policy", "power:1"], "must be 2, got 1"),
        (["run", "--problem", "chain:n=6", "--inner-policy", "adaptive:1:1:-1"],
         "must be nonnegative"),
        (["run", "--problem", "chain:n=6", "--H", "linesearch:2:3"], "must be 0 to 1, got 2"),
        (["run", "--problem", "chain:n=6", "--composite", "power:1"], "must be 2, got 1"),
        (["run", "--problem", "chain:n=6", "--method", "accelerated", "--H", "linesearch:7"],
         "accelerated does not support linesearch H"),
        (["run", "--config", "typo.json"], "unknown config fields: polcy"),
        (["compare", "--configs", "good.json", "bad.json", "--out", "cmp"],
         "must be nonnegative"),
        (["fit", "--trace", "t.csv", "--fstar", "abc"], "argument --fstar"),
        (["fit", "--trace", "t.csv", "--fstar", "auto", "--window", "5"], "argument --window"),
        (["run", "--problem", "chain:n=abc"], "problem 'chain': n='abc' is not a valid int"),
        (["run", "--config", "x0.json"], "unknown starting point 'bogus'"),
        (["run", "--config", "noproblem.json"], "config needs a problem stanza"),
        (["run", "--config", "fractional.json"], "problem 'chain': n=3.7 is not a valid int"),
        (["run", "--problem", "chain:n=0"], "problem 'chain': n must be at least 1, got 0"),
        (["run", "--problem", "logsumexp:n=5,m=5"], "problem 'logsumexp': need m > n"),
        (["run", "--problem", "logistic-synth:n=0"],
         "problem 'logistic-synth': n must be at least 1, got 0"),
        (["run", "--problem", "chain:n=6,q=2.5", "--H", "lipschitz"],
         "no known Lipschitz constant of order 2 for this problem"),
        (["run", "--problem", "chain:n=6", "--p", "1", "--method", "accelerated"],
         "the accelerated scheme needs a known Lipschitz constant"),
        (["run", "--problem", "chain:n=6", "--H", "fixed:1", "--subsolver", "exact",
          "--composite", "power:1:3"], "closed-form steps support only zero or quadratic"),
        (["run", "--problem", "chain:n=6", "--H", "fixed:1", "--stop", "exact",
          "--composite", "power:1:3"], "closed-form steps support only zero or quadratic"),
        (["compare", "--configs", "lp.json", "lp.json", "--out", "cmp"],
         "no known Lipschitz constant of order 2 for this problem"),
        (["compare", "--configs", "cubic.json", "cubic.json", "--out", "cmp"],
         "closed-form steps support only zero or quadratic"),
        # all-zero features give L₂ = 0, which only the built instance shows
        (["compare", "--configs", "zeros.json", "zeros.json", "--out", "cmp"],
         "no known Lipschitz constant of order 2 for this problem"),
        (["run", "--config", "missing.json"], "cannot read config file missing.json"),
        (["compare", "--configs", "good.json", "missing.json", "--out", "cmp"],
         "cannot read config file missing.json"),
        (["run", "--problem", "chain:n=6", "--method", "accelerated", "--H", "fixed:1",
          "--stop", "exact"], "accelerated does not support stop exact"),
        (["run", "--problem", "chain:n=6", "--method", "accelerated", "--H", "fixed:1",
          "--subsolver", "exact"], "accelerated at p = 2 does not support subsolver exact"),
        (["run", "--problem", "chain:n=6", "--H", "fixed:1", "--subsolver", "exact",
          "--stop", "exact"], "stop exact is never read under subsolver exact"),
        (["run", "--problem", "chain:n=6", "--method", "accelerated", "--p", "1", "--H",
          "fixed:1", "--subsolver", "exact", "--composite", "quadratic:0.5"],
         "closed-form steps support only zero or quadratic"),
        (["run", "--config", "list.json"], "a config must be an object of fields, got list"),
        *[(["run", "--config", f"{name}.json"], reason)
          for name, (_, reason) in BAD_SCALARS.items()],
        (["fit", "--trace", "missing.csv", "--fstar", "auto"],
         "cannot read trace file missing.csv: No such file or directory"),
        (["fit", "--trace", "runs", "--fstar", "auto"],
         "cannot read trace file runs: Is a directory"),
        (["fit", "--trace", "text.csv", "--fstar", "auto"],
         "trace file text.csv, line 3: F='abc' is not a number"),
        (["fit", "--trace", "no-k.csv", "--fstar", "auto"],
         "trace file no-k.csv needs rows with a number as k and as F"),
        (["fit", "--trace", "no-F.csv", "--fstar", "0"],
         "trace file no-F.csv needs rows with a number as k and as F"),
        (["fit", "--trace", "header.csv", "--fstar", "auto"],
         "trace file header.csv needs rows with a number as k and as F"),
        (["fit", "--trace", "blank.csv", "--fstar", "auto"],
         "trace file blank.csv needs rows with a number as k and as F"),
        (["fit", "--trace", "flat.csv", "--fstar", "auto"],
         "fewer than two usable trace points in the fit window"),
    ])
    def test_spec_error_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv, reason):
        monkeypatch.chdir(tmp_path)
        small_cfg().save("good.json")
        small_cfg(policy="adaptive:1:1:-1").save("bad.json")
        write_json("typo.json", {**small_cfg().to_dict(), "polcy": "power:1:3"})
        write_json("x0.json", {**small_cfg().to_dict(), "x0": "bogus"})
        write_json("noproblem.json", {k: v for k, v in small_cfg().to_dict().items()
                                      if k != "problem"})
        small_cfg(problem={"name": "chain", "n": 3.7}).save("fractional.json")
        small_cfg(problem={"name": "chain", "n": 6, "q": 2.5}, H="lipschitz").save("lp.json")
        small_cfg(subsolver="exact", composite="power:1:3").save("cubic.json")
        (tmp_path / "zeros.svm").write_text("1 1:0 2:0\n-1 1:0 2:0\n")
        small_cfg(problem={"name": "logistic", "path": "zeros.svm"}, method="monotone2",
                  H="lipschitz").save("zeros.json")
        write_json("list.json", [1, 2])
        for name, (fields, _) in BAD_SCALARS.items():
            write_json(f"{name}.json", {**small_cfg().to_dict(), **fields})
        for name, text in {"text": "k,F\n0,1.0\n1,abc\n", "no-k": "F\n1.0\n0.5\n",
                           "no-F": "k,gap\n0,1.0\n1,0.5\n", "header": "k,F\n",
                           "blank": "k,F\n0,1.0\n1,\n",
                           "flat": "k,F\n0,1.0\n1,1.0\n2,1.0\n"}.items():
            (tmp_path / f"{name}.csv").write_text(text)
        os.mkdir("runs")
        monkeypatch.setitem(harness.METHOD_TABLE, "monotone2",
                            lambda *a: pytest.fail("the solve started"))
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2
        assert reason in capsys.readouterr().err
        assert not os.path.exists("cmp")
