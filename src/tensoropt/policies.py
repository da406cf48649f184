"""Inner-accuracy schedules for the outer methods.

Three kinds: a constant tolerance, a power law c / k^alpha, and an adaptive
rule driven by the last progress in the objective,
c * (F(x_{k-2}) - F(x_{k-1}))^alpha. The adaptive rule is well defined only
for monotone drivers; negative progress is a contract violation upstream.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass


def adaptive_c_limit(p: int) -> float:
    """Largest c for which the progress rule (alpha=1) keeps the global rate."""
    return 1.0 / ((p + 2) * 3 ** (p + 1) - 1)


def condition_number(p: int, lipschitz: float, sigma: float) -> float:
    """Degree-p condition number max{(p+1)^2 L_p / (p! sigma_{p+1}), 1}."""
    if sigma <= 0:
        raise ValueError("uniform convexity parameter must be positive")
    return max((p + 1) ** 2 * lipschitz / (math.factorial(p) * sigma), 1.0)


def precision_floor(f: float) -> float:
    """Smallest inner tolerance worth requesting around objective value f, and
    the least change of f that a monotone driver counts as a decrease."""
    return 1e-14 * max(1.0, abs(f))


def strong_convexity_c_bound(p: int, omega: float) -> tuple[float, float]:
    """(supremum, recommended value) of c for a linear rate at condition number omega."""
    if omega < 1:
        raise ValueError("condition number must be at least 1")
    sup = p / (p + 1.0) * omega ** (-1.0 / p)
    return sup, 0.5 * sup


def parse_spec(spec: str, arity: dict) -> tuple[str, list[float]]:
    """Split ``kind[:v1[:v2...]]`` into its kind and its finite values.

    ``arity`` maps each accepted kind to the (min, max) number of its values.
    """
    if not isinstance(spec, str):
        raise ValueError(f"bad spec {spec!r}: a spec must be a string")
    kind, *fields = spec.strip().split(":")
    if kind not in arity:
        raise ValueError(f"bad spec {spec!r}: kind must be one of {', '.join(arity)}")
    lo, hi = arity[kind]
    if not lo <= len(fields) <= hi:
        count = f"{lo}" if lo == hi else f"{lo} to {hi}"
        raise ValueError(f"bad spec {spec!r}: the number of values for {kind} must be "
                         f"{count}, got {len(fields)}")
    try:
        values = [float(v) for v in fields]
    except ValueError:
        raise ValueError(f"bad spec {spec!r}: every value must be a number") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"bad spec {spec!r}: every value must be finite")
    return kind, values


@dataclass(frozen=True)
class AccuracyPolicy:
    """Deterministic schedule of inner tolerances.

    kind      -- "constant" | "power" | "adaptive"
    c         -- base constant
    alpha     -- exponent (power: c/k^alpha; adaptive: c * progress^alpha)
    delta1    -- tolerance for the first iteration of the adaptive rule
    """

    kind: str
    c: float
    alpha: float = 0.0
    delta1: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "power", "adaptive"):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if not all(map(math.isfinite, (self.c, self.alpha, self.delta1))):
            raise ValueError("policy constant, exponent and first tolerance must be finite")
        if self.c < 0 or self.delta1 < 0:
            raise ValueError("policy constant and first tolerance must be nonnegative")

    def delta(self, k: int, history=None) -> float:
        """Tolerance for iteration k >= 1.

        ``history`` is a sequence of objective values ending in
        (..., F(x_{k-2}), F(x_{k-1})); the adaptive kind reads its last two
        entries for k >= 2.
        """
        if k < 1:
            raise ValueError("iteration counter starts at 1")
        if self.kind == "constant":
            return self.c
        if self.kind == "power":
            return self.c / k**self.alpha
        if k == 1:
            return self.delta1
        if history is None or len(history) < 2:
            raise ValueError("adaptive policy needs the last two objective values")
        progress = float(history[-2]) - float(history[-1])
        if progress < 0:
            raise ValueError("adaptive policy requires a monotone driver (negative progress)")
        if progress == 0.0:
            return 0.0
        return self.c * progress**self.alpha

    def warn_if_invalid(self, p: int) -> None:
        """Warn (non-fatal) when the schedule is outside the guarantee for order p."""
        if self.kind == "adaptive" and self.alpha == 1.0 and self.c > adaptive_c_limit(p):
            warnings.warn(f"adaptive constant c={self.c:g} is above the guaranteed-rate "
                          f"limit {adaptive_c_limit(p):.6g} for order p={p}",
                          RuntimeWarning, stacklevel=2)

    @staticmethod
    def parse(spec: str) -> "AccuracyPolicy":
        """Parse ``constant:C``, ``power:C:ALPHA``, ``adaptive:C:ALPHA[:DELTA1]``."""
        kind, values = parse_spec(spec, {"constant": (1, 1), "power": (2, 2), "adaptive": (2, 3)})
        return AccuracyPolicy(kind, *values)


def constant(c: float) -> AccuracyPolicy:
    return AccuracyPolicy("constant", c)


def power(c: float, alpha: float) -> AccuracyPolicy:
    return AccuracyPolicy("power", c, alpha)


def adaptive(c: float, alpha: float, delta1: float = 1.0) -> AccuracyPolicy:
    return AccuracyPolicy("adaptive", c, alpha, delta1)
