"""Committed count table for the benchmark's solver configs.

The configs below restate the four workloads of ``benchmarks/workloads.py``
(the instances ``--seed 0`` and ``--seed 1`` build) without importing from
``benchmarks/``. Each one runs through ``harness.execute``, and its row must
match ``TABLE``: status, trace rows, iterations to gap 1e-8 and the final
oracle counts exactly, the final F within ``F_RTOL``. The gap is measured as
the benchmark measures it, against the smallest of F* and every F the
workload's configs reach on the instance.

A change that moves a row regenerates the table with
``python tests/test_workload_counts.py`` and says in
``CHANGES.md`` which rows changed and why. The script prints the new table,
then every row that differs from ``TABLE``, field by field, and last the
sha256 of the ``trace.csv`` that ``harness.write_trace_csv`` writes for each
config's run and of the bytes of its final point, signed zeros included, and
the ``float.hex`` of the reference F* of each instance without a known optimum
(``logistic-floor``'s, from exact steps at n = 50): run against two checkouts'
``src``, these lines compare every workload trace, final point and reference
optimum bit for bit in one diff. As a script it pins the BLAS thread count to
one, as ``benchmarks/run.py`` does, since multithreaded BLAS sums in another
order and so moves the digests; under pytest the environment is left alone.
As a script it also imports ``tensoropt`` from the ``src`` of the checkout it
sits in, whatever ``PYTHONPATH`` says, and exits 2 if the package came from
anywhere else (``tests/_own_checkout.py``). It exits 1 when any row differs,
after printing all of this, and 0 otherwise.
"""

import hashlib
import os
import tempfile
import warnings

if __name__ == "__main__":
    # read when numpy loads BLAS, so set before tensoropt (and numpy) is imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import _own_checkout  # noqa: F401

import pytest

from tensoropt import harness
from tensoropt.harness import ExperimentConfig

F_RTOL = 1e-12
TARGET = 1e-8

# name: (problem, shared fields, per-config overrides, instance seeds at --seed 0 and 1)
WORKLOADS = {
    "policy-study": (
        {"name": "logsumexp", "n": 100, "m": 600, "mu": 1.0},
        dict(method="monotone2", p=2, H="fixed:1", subsolver="fgm", stop="bound",
             x0="e1", max_iters=2000, target_gap=1e-8),
        [{"policy": p} for p in ("constant:1e-8", "power:1:2", "power:1:3", "adaptive:1:1")],
        (1, 2),
    ),
    "exact-n500": (
        {"name": "logsumexp", "n": 500, "m": 3000, "mu": 1.0},
        dict(method="monotone2", p=2, H="linesearch:1", subsolver="exact", stop="bound",
             x0="e1", max_iters=200, target_gap=1e-8),
        [{"policy": "adaptive:1:1"}],
        (1, 2),
    ),
    # the chain has no random input, and logistic-floor is pinned to one instance
    "accel-chain": (
        {"name": "chain", "n": 150, "q": 3, "c": 1},
        dict(method="accelerated", p=2, H="fixed:1", subsolver="fgm", stop="bound",
             x0="ones", max_iters=1000, target_gap=1e-8),
        [{"zeta_policy": "power:1:1", "inner_policy": "power:1:1"}],
        (0,),
    ),
    "logistic-floor": (
        {"name": "logistic-synth", "n": 50, "m": 300, "l2": 1e-3},
        dict(method="monotone2", p=2, H="linesearch:1", subsolver="fgm", stop="bound",
             x0="zeros", max_iters=100),
        [{"policy": p} for p in ("power:1:3", "constant:1e-6", "adaptive:0.005:1")],
        (0,),
    ),
}

CASES = [(name, seed) for name, spec in WORKLOADS.items() for seed in spec[3]]

# one row per config; "value" .. "hessian" are the run's final oracle counts
COLUMNS = ("status", "rows", "iters_to_1e-8", "value", "gradient", "hessian_vec", "hessian", "F")


def configs(name, seed):
    problem, base, variants, _ = WORKLOADS[name]
    return [ExperimentConfig(problem=dict(problem), seed=seed, **{**base, **v})
            for v in variants]


def label(cfg):
    return cfg.policy if cfg.method != "accelerated" else cfg.zeta_policy


def rows(name, seed, runs=None):
    """One row per config of the workload on the instance of ``seed``, from
    ``runs`` of those configs when given."""
    cfgs = configs(name, seed)
    if runs is None:
        runs = [harness.execute(cfg) for cfg in cfgs]
    fstar = runs[0].fstar
    if fstar is None:
        fstar = harness.reference_fstar(cfgs[0])[0]
    fs = min([fstar] + [r.F for run in runs for r in run.records])
    out = []
    for run in runs:
        iters = next((r.k for r in run.records if r.F - fs <= TARGET), None)
        counts = tuple(run.counts[k] for k in COLUMNS[3:-1])
        out.append((run.status, len(run.records), iters, *counts, run.f_final))
    return out


def trace_digest(run):
    """sha256 of the ``trace.csv`` that ``harness.write_trace_csv`` writes for ``run``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        harness.write_trace_csv(path, run.records)
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


# regenerated when refinement retries began to resume their subsolve
TABLE = {
    'policy-study@1': [
        ('target_reached', 143, 142, 285, 142, 1365, 0, 6.5508534864419845),
        ('target_reached', 315, 314, 629, 314, 1125, 0, 6.550853482450768),
        ('target_reached', 176, 175, 351, 175, 1008, 0, 6.550853484246222),
        ('target_reached', 202, 201, 403, 201, 820, 0, 6.550853480438422),
    ],
    'policy-study@2': [
        ('target_reached', 148, 147, 295, 147, 1418, 0, 6.586320392806583),
        ('target_reached', 339, 338, 677, 338, 1189, 0, 6.586320392405038),
        ('target_reached', 177, 176, 353, 176, 1029, 0, 6.586320393506146),
        ('target_reached', 207, 206, 413, 206, 837, 0, 6.5863203939413015),
    ],
    'exact-n500@1': [
        ('target_reached', 18, 17, 35, 17, 17, 17, 8.168691008175085),
    ],
    'exact-n500@2': [
        ('target_reached', 18, 17, 35, 17, 17, 17, 8.145581772716474),
    ],
    'accel-chain@0': [
        ('target_reached', 399, 398, 3689, 1844, 5994, 0, 9.89195737527866e-09),
    ],
    'logistic-floor@0': [
        ('monotone_floor', 31, 18, 63, 31, 189, 0, 0.13091086263554177),
        ('monotone_floor', 25, 12, 51, 25, 236, 0, 0.13091086263554924),
        ('monotone_floor', 13, 10, 27, 13, 133, 0, 0.13091086263553064),
    ],
}


@pytest.mark.parametrize("name,seed", CASES)
def test_counts_match_the_table(name, seed):
    expected = TABLE[f"{name}@{seed}"]
    got = rows(name, seed)
    assert len(got) == len(expected)
    for cfg, row, want in zip(configs(name, seed), got, expected):
        assert dict(zip(COLUMNS[:-1], row)) == dict(zip(COLUMNS[:-1], want)), label(cfg)
        assert row[-1] == pytest.approx(want[-1], rel=F_RTOL, abs=0.0), label(cfg)


def changes(key, cfgs, got):
    """One line per row of ``got`` that the test would reject against ``TABLE[key]``."""
    expected = TABLE.get(key, [])
    out = []
    for i, (cfg, row) in enumerate(zip(cfgs, got)):
        if i >= len(expected):
            out.append(f"{key} {label(cfg)}: new row {row}")
            continue
        want = expected[i]
        moved = [f"{col} {a!r} -> {b!r}" for col, a, b in zip(COLUMNS[:-1], want, row)
                 if a != b]
        if abs(row[-1] - want[-1]) > F_RTOL * abs(want[-1]):
            moved.append(f"F {want[-1]!r} -> {row[-1]!r}")
        if moved:
            out.append(f"{key} {label(cfg)}: " + ", ".join(moved))
    out += [f"{key}: row {i} dropped" for i in range(len(got), len(expected))]
    return out


if __name__ == "__main__":
    # a warning names the checkout's path, so two checkouts' outputs would never diff empty
    warnings.simplefilter("ignore")
    runs = {f"{name}@{seed}": [harness.execute(cfg) for cfg in configs(name, seed)]
            for name, seed in CASES}
    table = {f"{name}@{seed}": rows(name, seed, runs[f"{name}@{seed}"]) for name, seed in CASES}
    print("TABLE = {")
    for key, got in table.items():
        print(f"    {key!r}: [")
        print("".join(f"        {row!r},\n" for row in got), end="")
        print("    ],")
    print("}")
    diff = [line for name, seed in CASES
            for line in changes(f"{name}@{seed}", configs(name, seed), table[f"{name}@{seed}"])]
    print(f"\n{len(diff)} row(s) differ from TABLE")
    print("\n".join(diff))
    print("\ntrace.csv and x_final sha256")
    for name, seed in CASES:
        key = f"{name}@{seed}"
        for cfg, run in zip(configs(name, seed), runs[key]):
            x_digest = hashlib.sha256(run.x_final.tobytes()).hexdigest()
            print(f"{key} {label(cfg)}: {trace_digest(run)} {x_digest}")
    print("\nreference F* (float.hex) of the instances without a known optimum")
    for name, seed in CASES:
        key = f"{name}@{seed}"
        if runs[key][0].fstar is None:
            print(f"{key}: {harness.reference_fstar(configs(name, seed)[0])[0].hex()}")
    # a moved row fails the script, so that a build step can gate on it
    raise SystemExit(1 if diff else 0)
