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
    """Smallest inner tolerance worth requesting around objective value f."""
    return 1e-14 * max(1.0, abs(f))


def strong_convexity_c_bound(p: int, omega: float) -> tuple[float, float]:
    """(supremum, recommended value) of c for a linear rate at condition number omega."""
    if omega < 1:
        raise ValueError("condition number must be at least 1")
    sup = p / (p + 1.0) * omega ** (-1.0 / p)
    return sup, 0.5 * sup


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

    def check_validity(self, p: int) -> list[str]:
        """Non-fatal diagnostics about guarantee coverage for order p."""
        notes = []
        if self.kind == "adaptive" and self.alpha == 1.0:
            limit = adaptive_c_limit(p)
            if self.c >= limit:
                notes.append(
                    f"adaptive constant c={self.c:g} is at or above the guaranteed-rate "
                    f"limit {limit:.6g} for order p={p}"
                )
        return notes

    def warn_if_invalid(self, p: int) -> None:
        for note in self.check_validity(p):
            warnings.warn(note, RuntimeWarning, stacklevel=2)

    def spec_string(self) -> str:
        """The spec that ``parse`` reads back to an equal policy (floats by repr)."""
        fields = {"constant": (self.c,), "power": (self.c, self.alpha)}.get(
            self.kind, (self.c, self.alpha, self.delta1))
        return ":".join([self.kind] + [repr(float(v)) for v in fields])

    @staticmethod
    def parse(spec: str) -> "AccuracyPolicy":
        """Parse ``constant:C``, ``power:C:ALPHA``, ``adaptive:C:ALPHA[:DELTA1]``."""
        parts = spec.strip().split(":")
        kind = parts[0]
        try:
            if kind == "constant":
                (c,) = map(float, parts[1:2])
                if len(parts) != 2:
                    raise ValueError
                return AccuracyPolicy("constant", c)
            if kind == "power":
                c, alpha = map(float, parts[1:3])
                if len(parts) != 3:
                    raise ValueError
                return AccuracyPolicy("power", c, alpha)
            if kind == "adaptive":
                if len(parts) == 3:
                    c, alpha = map(float, parts[1:3])
                    return AccuracyPolicy("adaptive", c, alpha)
                if len(parts) == 4:
                    c, alpha, d1 = map(float, parts[1:4])
                    return AccuracyPolicy("adaptive", c, alpha, d1)
                raise ValueError
        except (ValueError, IndexError):
            pass
        raise ValueError(f"bad policy spec {spec!r}")


def constant(c: float) -> AccuracyPolicy:
    return AccuracyPolicy("constant", c)


def power(c: float, alpha: float) -> AccuracyPolicy:
    return AccuracyPolicy("power", c, alpha)


def adaptive(c: float, alpha: float, delta1: float = 1.0) -> AccuracyPolicy:
    return AccuracyPolicy("adaptive", c, alpha, delta1)
