"""The four benchmark workloads: fixed instances, solver configs and checks.

Each workload is one instance plus the solver configs one pass runs on it.
The names are part of the benchmark's interface: performance claims cite
them, so they do not change.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from tensoropt.harness import ExperimentConfig

# Statuses under which a monotone logistic solve ends healthily once it has
# driven the objective to the precision floor.
FLOOR_STATUSES = frozenset({"monotone_floor", "max_iters"})


@dataclass(frozen=True)
class Workload:
    name: str
    problem: dict
    base: dict                      # ExperimentConfig fields shared by every config
    variants: tuple                 # per-config overrides, one solve each per pass
    expected_status: frozenset
    budget_s: float                 # per-solve wall budget, well above the slowest healthy solve
    base_seed: int                  # instance seed at --seed 0
    seeded: bool = True             # False: the instance ignores --seed
    reference: bool = False         # F* from harness.reference_fstar instead of a known optimum
    uncounted: tuple = field(default=())  # policies left out of the cost-to-gap sums

    def instance_seed(self, seed: int) -> int:
        return (self.base_seed + seed) % 2**32 if self.seeded else self.base_seed

    def configs(self, seed: int) -> list[ExperimentConfig]:
        s = self.instance_seed(seed)
        return [ExperimentConfig(problem=dict(self.problem), seed=s, **{**self.base, **v})
                for v in self.variants]

    def counted(self, cfg: ExperimentConfig) -> bool:
        return cfg.policy not in self.uncounted


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="policy-study",
            problem={"name": "logsumexp", "n": 100, "m": 600, "mu": 1.0},
            base=dict(method="monotone2", p=2, H="fixed:1", subsolver="fgm", stop="bound",
                      x0="e1", max_iters=2000, target_gap=1e-8),
            variants=tuple({"policy": p} for p in
                           ("constant:1e-8", "power:1:2", "power:1:3", "adaptive:1:1")),
            expected_status=frozenset({"target_reached"}),
            budget_s=5.0, base_seed=1,
        ),
        Workload(
            name="exact-n500",
            problem={"name": "logsumexp", "n": 500, "m": 3000, "mu": 1.0},
            base=dict(method="monotone2", p=2, H="linesearch:1", subsolver="exact",
                      stop="bound", x0="e1", max_iters=200, target_gap=1e-8),
            variants=({"policy": "adaptive:1:1"},),
            expected_status=frozenset({"target_reached"}),
            budget_s=10.0, base_seed=1,
        ),
        Workload(
            name="accel-chain",
            problem={"name": "chain", "n": 150, "q": 3, "c": 1},
            base=dict(method="accelerated", p=2, H="fixed:1", subsolver="fgm", stop="bound",
                      x0="ones", max_iters=1000, target_gap=1e-8),
            variants=({"zeta_policy": "power:1:1", "inner_policy": "power:1:1"},),
            expected_status=frozenset({"target_reached"}),
            # the chain has no random input
            budget_s=10.0, base_seed=0, seeded=False,
        ),
        Workload(
            name="logistic-floor",
            problem={"name": "logistic-synth", "n": 50, "m": 300, "l2": 1e-3},
            base=dict(method="monotone2", p=2, H="linesearch:1", subsolver="fgm", stop="bound",
                      x0="zeros", max_iters=100),
            variants=tuple({"policy": p} for p in
                           ("power:1:3", "constant:1e-6", "adaptive:0.005:1")),
            expected_status=FLOOR_STATUSES,
            # Pinned to the instance the stall was reproduced on: on instance
            # seeds 1 and 3 constant:1e-6 stalls too, so the failure count,
            # and with it pass_s, would follow the seed rather than the code.
            budget_s=2.0, base_seed=0, seeded=False, reference=True,
            uncounted=("adaptive:0.005:1",),
        ),
    )
}
