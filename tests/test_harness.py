import json
import os

import numpy as np
import pytest

from tensoropt.cli import main, parse_problem
from tensoropt.harness import (
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
)
from tensoropt.methods import TRACE_COLUMNS


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
        with pytest.raises(ValueError):
            parse_h_mode("auto")


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

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            build_problem({"name": "chain", "n": 5, "bogus": 1}, seed=0)

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

    def test_mismatched_instances_rejected(self):
        a = small_cfg(seed=1)
        b = small_cfg(seed=2)
        with pytest.raises(ValueError):
            compare([a, b])

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
