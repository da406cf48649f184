"""Tests of the benchmark's own logic: span arithmetic, cost to gap, budget and
failure accounting, and the metric names it publishes."""

import json
import math
import os
import re
import time
from types import SimpleNamespace

import numpy as np
import pytest

import bench
import run
import tracing
from tensoropt import harness, linalg, methods, policies, subsolvers
from workloads import WORKLOADS, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _tiny(**overrides):
    """A small logsumexp workload that solves in milliseconds."""
    fields = dict(
        name="tiny",
        problem={"name": "logsumexp", "n": 10, "m": 60, "mu": 1.0},
        base=dict(method="monotone2", p=2, H="fixed:1", subsolver="fgm", stop="bound",
                  x0="e1", max_iters=200, target_gap=1e-8),
        variants=({"policy": "adaptive:1:1"}, {"policy": "power:1:3"}),
        expected_status=frozenset({"target_reached"}),
        budget_s=5.0, base_seed=3,
    )
    fields.update(overrides)
    return Workload(**fields)


def _spin(problem, x0, config):
    while True:
        pass


def _stop_early(problem, x0, config):
    """A real solve cut to two iterations: it ends max_iters far from F*."""
    config.max_iters = 2
    return methods.monotone2(problem, x0, config)


def _rec(k, F, hvp, grad):
    return SimpleNamespace(k=k, F=F, hvp_count=hvp, grad_count=grad)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # root [0, 10] -> a [1, 4] -> b [2, 3];  root -> c [5, 9]
    parents = np.array([-1, 0, 1, 0])
    starts = np.array([0.0, 1.0, 2.0, 5.0])
    ends = np.array([10.0, 4.0, 3.0, 9.0])
    np.testing.assert_allclose(tracing.self_times(parents, starts, ends), [3.0, 2.0, 1.0, 4.0])
    seg = {"name_ids": np.array([0, 1, 1, 2]), "parents": parents, "starts": starts, "ends": ends}
    agg = tracing.aggregate(seg, ["methods.run", "model.value", "linalg.norm"])
    assert agg["model.value"] == (2, 3.0, 4.0)
    layers = tracing.layer_self_s(agg)
    assert layers["methods"] == 3.0 and layers["model"] == 3.0 and layers["linalg"] == 4.0
    assert sum(layers.values()) == pytest.approx(10.0)  # self times tile the root span


def test_heal_drops_half_recorded_span_and_closes_open_ones():
    t = tracing.Tracer()
    t.name_ids.append(0), t.parents.append(-1), t.ends.append(math.nan), t.starts.append(1.0)
    t.name_ids.append(0), t.parents.append(0)      # cut before its start was stored
    t.current = 0
    t.heal()
    assert len(t.name_ids) == len(t.parents) == len(t.starts) == len(t.ends) == 1
    assert not math.isnan(t.ends[0]) and t.current == -1


def test_tracer_restores_every_wrapped_callable():
    before = (harness.METHOD_TABLE["monotone2"], methods.monotone2, subsolvers.fgm_step,
              linalg.NormOperator.__dict__["gram"], linalg.NormOperator.solve)
    t = tracing.Tracer()
    with t.installed():
        assert harness.METHOD_TABLE["monotone2"] is not before[0]
        assert methods.monotone_step is subsolvers.monotone_step  # rebound everywhere
        problem = harness.build_problem({"name": "chain", "n": 6}, 0)
        cfg = harness.ExperimentConfig(problem={"name": "chain", "n": 6}, method="monotone2",
                                       H="fixed:50", max_iters=5)
        t.begin()
        t0 = time.perf_counter()
        harness.METHOD_TABLE["monotone2"](problem, np.ones(6), harness.solver_config(cfg))
        wall = time.perf_counter() - t0
        seg = t.snapshot()
    after = (harness.METHOD_TABLE["monotone2"], methods.monotone2, subsolvers.fgm_step,
             linalg.NormOperator.__dict__["gram"], linalg.NormOperator.solve)
    assert all(a is b for a, b in zip(before, after))
    agg = tracing.aggregate(seg, t.span_names)
    assert agg["methods.run"][0] == 1 and agg["subsolvers.fgm"][0] > 0
    assert sum(tracing.layer_self_s(agg).values()) == pytest.approx(wall, rel=0.05)


# ---------------------------------------------------------------------------
# cost to gap and checks
# ---------------------------------------------------------------------------

def test_cost_to_gap_first_record_within_target():
    recs = [_rec(0, 1.0, 0, 1), _rec(1, 1e-3, 10, 2), _rec(2, 1e-7, 25, 3), _rec(3, 1e-9, 40, 4)]
    assert bench.cost_to_gap(recs, 0.0, 1e-4) == (2, 25, 3)
    assert bench.cost_to_gap(recs, 0.0, 1e-8) == (3, 40, 4)
    assert bench.cost_to_gap(recs, 0.0, 1e-12) is None


def test_pass_costs_sum_counted_successes_and_fail_unreached():
    cfg = SimpleNamespace(policy="a")
    skip = SimpleNamespace(policy="skip")
    done = [_rec(0, 1.0, 0, 1), _rec(5, 1e-9, 100, 6)]
    stuck = [_rec(0, 1.0, 0, 1), _rec(5, 1e-3, 100, 6)]
    solves = [
        bench.Solve(cfg, SimpleNamespace(records=done), 1.0, None),
        bench.Solve(cfg, SimpleNamespace(records=done), 1.0, None),
        bench.Solve(skip, SimpleNamespace(records=done), 1.0, None),
        bench.Solve(cfg, None, 2.0, "budget"),
        bench.Solve(cfg, SimpleNamespace(records=stuck), 1.0, None),
    ]
    totals = bench.pass_costs(solves, 0.0, lambda c: c.policy != "skip")
    assert totals["hvp_to_1e-8"] == 200 and totals["iters_to_1e-8"] == 10
    assert totals["grad_to_1e-8"] == 12
    assert [s.failure for s in solves] == [None, None, None, "budget", "gap"]


def test_check_solves_status_gap_and_trace_bytes():
    wl = _tiny()
    def solve(status, f):
        return bench.Solve(None, SimpleNamespace(status=status, f_final=f), 1.0, None)
    first = {}
    ok = [solve("target_reached", 1e-9)]
    bench.check_solves(wl, ok, 0.0, [b"a"], first)
    assert ok[0].failure is None
    bad = [solve("target_reached", 1e-9), solve("stalled", 0.0), solve("target_reached", 1e-6),
           solve("max_iters", 0.5)]
    bench.check_solves(wl, bad, 0.0, [b"b", b"x", b"x", b"x"], first)
    # a missed optimum reads "gap" whatever the status
    assert [s.failure for s in bad] == ["nondeterministic", "status", "gap", "gap"]


def test_wrong_output_spares_only_the_uncounted_config_stopping_short():
    wl = _tiny(uncounted=("power:1:3",))
    counted, repro = (SimpleNamespace(policy=p) for p in ("adaptive:1:1", "power:1:3"))
    for failure in ("budget", "status", "gap", "error", "nondeterministic"):
        assert bench.wrong_output(wl, bench.Solve(counted, None, 1.0, failure))
    for failure, wrong in (("budget", False), ("status", False), ("gap", False),
                           ("error", True), ("nondeterministic", True)):
        assert bench.wrong_output(wl, bench.Solve(repro, None, 1.0, failure)) is wrong
    assert not bench.wrong_output(wl, bench.Solve(counted, None, 1.0, None))


def test_pass_time_sums_segment_minima_and_charges_failed_configs():
    wl = _tiny(budget_s=5.0)
    a, b = SimpleNamespace(policy="a"), SimpleNamespace(policy="b")
    def solve(cfg, segs, failure=None):
        return bench.Solve(cfg, None, sum(segs), failure, np.array(segs))
    passes = [
        [solve(a, [1.0, 2.0, 3.0]), solve(b, [1.0])],
        [solve(a, [2.0, 1.0, 3.0]), solve(b, [1.0], "gap")],
        [solve(a, [1.5, 1.5, 0.5]), solve(b, [1.0])],
    ]
    assert bench.pass_time(wl, passes) == pytest.approx((1.0 + 1.0 + 0.5) + 5.0)
    # mark counts that differ between passes fall back to the median solve time
    ragged = [[solve(a, [1.0, 1.0])], [solve(a, [3.0])], [solve(a, [4.0])]]
    assert bench.pass_time(wl, ragged) == pytest.approx(3.0)


def test_iteration_marks_cut_a_solve_and_restore_the_policy():
    before = policies.AccuracyPolicy.delta
    marks = []
    problem = harness.build_problem({"name": "chain", "n": 6}, 0)
    cfg = harness.ExperimentConfig(problem={"name": "chain", "n": 6}, method="monotone2",
                                   H="fixed:50", max_iters=5)
    with bench.iteration_marks(marks):
        run = methods.monotone2(problem, np.ones(6), harness.solver_config(cfg))
    assert policies.AccuracyPolicy.delta is before
    assert len(marks) == run.records[-1].k and marks == sorted(marks)


def test_set_up_factorizes_the_norm_for_exact_steps():
    wl = _tiny(base={**_tiny().base, "subsolver": "exact"})
    _, problem, _, _ = bench.build(wl, 0)
    assert problem.norm._eig is not None
    _, problem, _, _ = bench.build(_tiny(), 0)
    assert problem.norm._eig is None


# ---------------------------------------------------------------------------
# budget and failure accounting
# ---------------------------------------------------------------------------

def test_wall_budget_interrupts_a_running_loop():
    t0 = time.perf_counter()
    with pytest.raises(bench.BudgetExceeded):
        with bench.wall_budget(0.05):
            _spin(None, None, None)
    assert time.perf_counter() - t0 < 1.0


def test_untraced_run_charges_budget_and_counts_failures(monkeypatch, tmp_path):
    wl = _tiny(variants=({"policy": "adaptive:1:1"}, {"policy": "power:1:3", "method": "spin"}),
               budget_s=0.05)
    monkeypatch.setitem(harness.METHOD_TABLE, "spin", _spin)
    monkeypatch.setitem(bench.WORKLOADS, "tiny", wl)
    monkeypatch.setattr(bench, "SETUP_SLICE_S", 0.0)
    res = bench.measure("tiny", 0, 0.0, False, ROOT, str(tmp_path))
    n = res["passes"]["untraced"]
    assert n == 3 and res["attempted"] == 2 * n and res["failed"] == n
    assert res["failures"] == {"budget": n} and not res["correct"]
    assert res["metrics"]["pass_s"] >= wl.budget_s
    assert set(res["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}
    assert all(v > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("uncounted", [(), ("power:1:3",)])
def test_fast_failure_is_charged_the_budget(monkeypatch, tmp_path, uncounted):
    wl = _tiny(variants=({"policy": "adaptive:1:1"}, {"policy": "power:1:3", "method": "short"}),
               uncounted=uncounted)
    monkeypatch.setitem(harness.METHOD_TABLE, "short", _stop_early)
    monkeypatch.setitem(bench.WORKLOADS, "tiny", wl)
    monkeypatch.setattr(bench, "SETUP_SLICE_S", 0.0)
    res = bench.measure("tiny", 0, 0.0, False, ROOT, str(tmp_path))
    n = res["passes"]["untraced"]
    assert res["failures"] == {"gap": n}
    assert res["correct"] is bool(uncounted)   # only the uncounted repro may stop short
    assert res["metrics"]["pass_s"] >= wl.budget_s
    assert min(res["pass_wall_s_quartiles"]) >= wl.budget_s


def test_traced_run_reports_every_per_layer_metric(monkeypatch, tmp_path):
    monkeypatch.setitem(bench.WORKLOADS, "tiny", _tiny())
    monkeypatch.setattr(bench, "SETUP_SLICE_S", 0.0)
    res = bench.measure("tiny", 0, 0.0, True, ROOT, str(tmp_path))
    assert res["failed"] == 0 and res["passes"] == {"untraced": 2, "traced": 2}
    assert set(res["metrics"]) == {m["name"] for m in _spec()["per_layer"]}
    assert res["metrics"]["trace.coverage"] == pytest.approx(1.0, abs=0.05)
    assert res["metrics"]["problems.hvp_calls"] > 0
    bench.write_spans(str(tmp_path / "spans.npz"), res)
    with np.load(tmp_path / "spans.npz") as d:
        assert d["segment_kind"].size == len(res["segments"])


# ---------------------------------------------------------------------------
# published names
# ---------------------------------------------------------------------------

def test_metric_and_workload_names_and_units():
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    metrics = spec["end_to_end"] + spec["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(set(all_names)) == len(all_names)
    for name in all_names:
        assert NAME.match(name), name
    for m in metrics:
        assert m["unit"] == bench.unit_of(m["name"]), m["name"]
    assert {m["name"] for m in spec["end_to_end"]} == set(bench.END_TO_END_UNITS)
