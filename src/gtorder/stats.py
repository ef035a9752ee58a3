"""Statistical helpers for the verification harness.

Probabilistic guarantees are checked as frequency bounds with 3-sigma
binomial margins, and distributional claims with a Pearson chi-square
test against the uniform at significance 0.001.  Critical values are
pinned for the degrees of freedom the suite uses, so no special-function
dependency is needed at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameterError, check_integer

CHI_SQUARE_SIGNIFICANCE = 0.001

# Upper 0.001 quantiles of the chi-square distribution by degrees of freedom.
_CHI_SQUARE_CRITICAL = {
    1: 10.827566170662733,
    2: 13.815510557964274,
    3: 16.26623619623813,
    7: 24.321886347856854,
    15: 37.69729821835383,
    31: 61.098306081058126,
    63: 103.44237731987324,
    99: 148.23035916510173,
    127: 181.9930452197729,
    255: 330.51974363400586,
    511: 615.5148626372387,
    999: 1142.8479838910355,
}


def binomial_margin(trials: int, rate: float, sigmas: float) -> float:
    """Width of a sigmas-standard-error band around a binomial rate."""
    check_integer("trials", trials, 1)
    if not 0.0 <= rate <= 1.0:
        raise InvalidParameterError(f"rate must lie in [0,1], got {rate}")
    return sigmas * math.sqrt(rate * (1.0 - rate) / trials)


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    df: int
    critical: float
    passed: bool


def chi_square_uniformity(counts) -> ChiSquareResult:
    """Pearson test of a histogram against the uniform distribution.

    Requires at least two categories and an expected count of at least 5
    per category; passes iff the statistic stays below the pinned 0.001
    critical value for len(counts) - 1 degrees of freedom.
    """
    counts = list(counts)
    j = len(counts)
    if j < 2:
        raise InvalidParameterError("need at least two categories")
    total = sum(counts)
    expected = total / j
    if expected < 5:
        raise InvalidParameterError(
            f"underpowered histogram: expected count per category {expected:.2f} < 5"
        )
    statistic = sum((c - expected) ** 2 for c in counts) / expected
    df = j - 1
    critical = _CHI_SQUARE_CRITICAL.get(df)
    if critical is None:
        raise InvalidParameterError(f"no pinned critical value for df={df}")
    return ChiSquareResult(statistic=statistic, df=df, critical=critical,
                           passed=statistic < critical)
