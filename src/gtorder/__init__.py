"""Randomized order statistics over a hidden total order queried only
through one-to-many group tests: Las Vegas min/max finding, Monte Carlo
rank estimation and approximate selection, with a pluggable oracle and a
statistical verification harness."""

from .apxrank import RankEstimate, approximate_rank, binary_rank_search
from .errors import (
    InvalidParameterError,
    OracleError,
    OracleProtocolError,
    OracleRejectedError,
    OracleSpawnError,
    OracleTimeoutError,
)
from .external import ExternalOracle, serve
from .harness import (
    ExperimentConfig,
    TrialReport,
    run_experiment,
    summarize,
    write_report,
)
from .minfind import MinFindOutcome, max_find, min_find, min_find_among, swap
from .oracle import (
    CountingOracle,
    GroupTestOracle,
    InstanceOracle,
    QueryLedger,
    padded_view,
    reversed_view,
)
from .order import TotalOrderInstance, exact_rank, make_instance
from .ranktest import RankTestOutcome, RankTestParams, derive_params, rank_at_most
from .selection import (
    SelectOutcome,
    SelectParams,
    approximate_select,
    draw_candidate,
    select_params,
)
from .stats import (
    ChiSquareResult,
    FrequencyCheck,
    binomial_margin,
    chi_square_uniformity,
)

__version__ = "0.1.0"

__all__ = [
    "ChiSquareResult",
    "CountingOracle",
    "ExperimentConfig",
    "ExternalOracle",
    "FrequencyCheck",
    "GroupTestOracle",
    "InstanceOracle",
    "InvalidParameterError",
    "MinFindOutcome",
    "OracleError",
    "OracleProtocolError",
    "OracleRejectedError",
    "OracleSpawnError",
    "OracleTimeoutError",
    "QueryLedger",
    "RankEstimate",
    "RankTestOutcome",
    "RankTestParams",
    "SelectOutcome",
    "SelectParams",
    "TotalOrderInstance",
    "TrialReport",
    "approximate_rank",
    "approximate_select",
    "binary_rank_search",
    "binomial_margin",
    "chi_square_uniformity",
    "derive_params",
    "draw_candidate",
    "exact_rank",
    "make_instance",
    "max_find",
    "min_find",
    "min_find_among",
    "padded_view",
    "rank_at_most",
    "reversed_view",
    "run_experiment",
    "select_params",
    "serve",
    "summarize",
    "swap",
    "write_report",
]
