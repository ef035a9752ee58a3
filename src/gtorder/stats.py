"""Statistical helpers for the verification harness.

Probabilistic guarantees are checked as frequency bounds with 3-sigma
binomial margins, and distributional claims with a Pearson chi-square
test against the uniform, or another exact law, at significance 0.001.
Critical values are pinned for the degrees of freedom the suite uses, so
no special-function dependency is needed at runtime.
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
    6: 22.457744484825323,
    7: 24.321886347856854,
    12: 32.90949040736021,
    15: 37.69729821835383,
    20: 45.31474661812587,
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
    return chi_square_fit(counts, [1.0 / max(1, len(counts))] * len(counts))


def chi_square_fit(counts, probabilities) -> ChiSquareResult:
    """Pearson test of a histogram against the given category probabilities.

    The same rules as :func:`chi_square_uniformity`: at least two
    categories, an expected count of at least 5 in each, and a pinned
    critical value for len(counts) - 1 degrees of freedom.
    """
    counts, probabilities = list(counts), list(probabilities)
    j = len(counts)
    if j < 2:
        raise InvalidParameterError("need at least two categories")
    if len(probabilities) != j or not math.isclose(sum(probabilities), 1.0):
        raise InvalidParameterError("need one probability per category, summing to 1")
    total = sum(counts)
    expected = [total * p for p in probabilities]
    if min(expected) < 5:
        raise InvalidParameterError(
            f"underpowered histogram: expected count per category {min(expected):.2f} < 5"
        )
    statistic = sum((c - e) ** 2 / e for c, e in zip(counts, expected))
    df = j - 1
    critical = _CHI_SQUARE_CRITICAL.get(df)
    if critical is None:
        raise InvalidParameterError(f"no pinned critical value for df={df}")
    return ChiSquareResult(statistic=statistic, df=df, critical=critical,
                           passed=statistic < critical)
