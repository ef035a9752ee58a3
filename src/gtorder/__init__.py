"""Randomized order statistics over a hidden total order queried only
through one-to-many group tests: Las Vegas min/max finding, Monte Carlo
rank estimation and approximate selection, with a pluggable oracle and a
statistical verification harness.

The public names below load their submodule on first use (PEP 562), so
``import gtorder`` alone loads neither numpy nor the experiment harness
and its worker pool.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "apxrank": ("RankEstimate", "approximate_rank", "binary_rank_search"),
    "errors": ("InvalidParameterError", "OracleError", "OracleProtocolError",
               "OracleRejectedError", "OracleSpawnError", "OracleTimeoutError"),
    "external": ("ExternalOracle",),
    "harness": ("ExperimentConfig", "TrialReport", "run_experiment", "summarize",
                "write_report"),
    "minfind": ("MinFindOutcome", "max_find", "min_find", "min_find_among", "swap"),
    "oracle": ("CountingOracle", "GroupTestOracle", "InstanceOracle", "QueryLedger",
               "reversed_view"),
    "oracle_server": ("serve",),
    "order": ("TotalOrderInstance", "exact_rank", "make_instance"),
    "ranktest": ("RankTestOutcome", "RankTestParams", "derive_params", "rank_at_most"),
    "selection": ("SelectOutcome", "SelectParams", "approximate_select",
                  "draw_candidate", "select_params"),
    "stats": ("ChiSquareResult", "binomial_margin", "chi_square_uniformity"),
}

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # an unknown name raises AttributeError, so ``from gtorder import
    # verify`` still falls through to importing the submodule
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
