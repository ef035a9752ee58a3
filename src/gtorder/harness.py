"""Seeded experiment runner and report emission.

A config fully determines every trial: trial t draws its generator and
its fresh instance from streams derived from (seed, t), so re-running a
config reproduces each report bit for bit with the builtin oracle.  The
success flag of a trial is always recomputed from the ground-truth rank,
never taken from the algorithm under test.  Trials can run in a worker
pool; reports are assembled in trial order either way.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
from dataclasses import asdict, dataclass
from io import StringIO
from typing import Optional, Sequence, TextIO

import numpy as np

from .apxrank import approximate_rank
from .errors import InvalidParameterError, OracleError, check_integer, check_open, check_unit
from .external import ExternalOracle
from .minfind import max_find, min_find
from .oracle import GroupTestOracle, InstanceOracle
from .order import exact_rank, make_instance
from .ranktest import rank_at_most
from .selection import approximate_select

# each algorithm's description and the config fields it takes beyond the
# common ones: all are required but OPTIONAL_FIELDS; the rest must stay None
ALGORITHMS = {
    "minfind": ("find the minimum element", ()),
    "maxfind": ("find the maximum element", ()),
    "testle": ("threshold-test whether rank(x) <= r", ("r", "delta", "epsilon", "x_rank")),
    "rank": ("estimate the rank of an element", ("delta", "epsilon", "x_rank")),
    "select": ("find an element of approximate rank k", ("k", "delta", "epsilon")),
}
OPTIONAL_FIELDS = ("x_rank",)

CSV_COLUMNS = (
    "algo,n,target,delta,epsilon,seed,trial,result_id,est_rank,true_rank,"
    "success,queries_left,queries_right,rounds"
)


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str
    n: int
    trials: int
    seed: int
    r: Optional[float] = None
    k: Optional[int] = None
    delta: Optional[float] = None
    epsilon: Optional[float] = None
    oracle: str = "builtin"
    fixed_instance: bool = False
    x_rank: Optional[int] = None
    workers: int = 1

    @property
    def target(self) -> Optional[float]:
        return self.r if self.algorithm == "testle" else self.k


@dataclass(frozen=True)
class TrialReport:
    trial: int
    result_id: Optional[int]
    est_rank: Optional[int]
    true_rank: Optional[int]
    success: Optional[bool]
    queries_left: int
    queries_right: int
    rounds: Optional[int]
    error: Optional[str] = None


def validate_config(config: ExperimentConfig) -> None:
    algorithm, n = config.algorithm, config.n
    if algorithm not in ALGORITHMS:
        raise InvalidParameterError(f"unknown algorithm {algorithm!r}")
    for name in ("n", "trials", "workers"):
        check_integer(name, getattr(config, name), 1)
    takes = ALGORITHMS[algorithm][1]
    for name in ("r", "k", "delta", "epsilon", "x_rank"):
        value = getattr(config, name)
        if value is None and name in takes and name not in OPTIONAL_FIELDS:
            raise InvalidParameterError(f"{algorithm} needs {name}")
        if value is not None and name not in takes:
            raise InvalidParameterError(f"{algorithm} takes no {name}")
    if "delta" in takes:
        check_unit(delta=config.delta, epsilon=config.epsilon)
    if algorithm == "testle":
        check_open("r", config.r, 0, n)
    for name in ("k", "x_rank"):
        if getattr(config, name) is not None:
            check_integer(name, getattr(config, name), 1, n)
    if config.x_rank is not None and config.oracle != "builtin":
        raise InvalidParameterError("x_rank requires the builtin oracle")
    if config.oracle != "builtin" and not config.oracle.startswith("cmd:"):
        raise InvalidParameterError("oracle must be 'builtin' or 'cmd:<command>'")


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    entropy = (seed & 0xFFFFFFFFFFFFFFFF, trial, 1)
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


def _instance_seed(config: ExperimentConfig, trial: int) -> int:
    if config.fixed_instance:
        return config.seed
    ss = np.random.SeedSequence(entropy=(config.seed & 0xFFFFFFFFFFFFFFFF, trial, 0))
    return int(ss.generate_state(1, np.uint64)[0])


def _success(config: ExperimentConfig, outcome, true_rank: int) -> bool:
    """Score a trial's result against its ground-truth rank."""
    n, delta = config.n, config.delta
    if config.algorithm == "minfind":
        return true_rank == 1
    if config.algorithm == "maxfind":
        return true_rank == n
    if config.algorithm == "testle":
        r = config.r
        if abs(true_rank - r) < delta * min(r, n - r):
            return True  # inside the band either answer is acceptable
        return outcome.answer == (true_rank <= r)
    if config.algorithm == "rank":
        return abs(true_rank - outcome.rank) <= delta * min(outcome.rank, n - outcome.rank)
    return abs(true_rank - config.k) <= delta * min(config.k, n - config.k)


def _run_trial(config: ExperimentConfig, trial: int,
               oracle: Optional[GroupTestOracle] = None) -> TrialReport:
    """Run one trial on the given oracle, or on a fresh builtin instance
    that also scores the result.  Behind an external oracle the hidden
    order lives in the server, so true ranks and success flags stay empty.
    """
    rng = _trial_rng(config.seed, trial)
    instance = None
    if oracle is None:
        instance = make_instance(config.n, _instance_seed(config, trial))
        oracle = InstanceOracle(instance)
    algorithm, n = config.algorithm, config.n
    est_rank = rounds = None
    try:
        if algorithm in ("minfind", "maxfind"):
            find = min_find if algorithm == "minfind" else max_find
            outcome = find(oracle, n, rng)
            element = outcome.element
        elif algorithm in ("testle", "rank"):
            element = (instance.element_with_rank(config.x_rank) if config.x_rank is not None
                       else int(rng.integers(0, n)))
            if algorithm == "testle":
                outcome = rank_at_most(oracle, element, config.r, config.delta,
                                       config.epsilon, rng)
            else:
                outcome = approximate_rank(oracle, element, config.delta, config.epsilon, rng)
                est_rank = outcome.rank
        else:
            outcome = approximate_select(oracle, n, config.k, config.delta,
                                         config.epsilon, rng)
            element, rounds = outcome.element, outcome.rounds_used
    except OracleError as exc:
        return TrialReport(trial, None, None, None, None, 0, 0, None, error=str(exc))
    true_rank = success = None
    if instance is not None and element is not None:
        true_rank = exact_rank(instance, element)
        success = _success(config, outcome, true_rank)
    return TrialReport(trial, element, est_rank, true_rank, success,
                       outcome.ledger.left_count, outcome.ledger.right_count, rounds)


def summarize(config: ExperimentConfig, reports: Sequence[TrialReport]) -> dict:
    totals = [r.queries_left + r.queries_right for r in reports]
    flagged = [r.success for r in reports if r.success is not None]
    summary = {
        "algorithm": config.algorithm,
        "n": config.n,
        "trials": len(reports),
        "seed": config.seed,
        "total_queries": int(sum(totals)),
        "mean_queries": (sum(totals) / len(reports)) if reports else 0.0,
        "max_queries": max(totals, default=0),
        "success_rate": (sum(flagged) / len(flagged)) if flagged else None,
        "errors": sum(1 for r in reports if r.error is not None),
    }
    if config.algorithm == "select":
        returned = [r for r in reports if r.result_id is not None]
        summary["return_rate"] = len(returned) / len(reports) if reports else 0.0
        rounds = [r.rounds for r in reports if r.rounds is not None]
        summary["mean_rounds"] = (sum(rounds) / len(rounds)) if rounds else 0.0
    return summary


def run_experiment(config: ExperimentConfig) -> tuple[list[TrialReport], dict]:
    """Execute all trials of a config and aggregate the results."""
    validate_config(config)
    if config.oracle.startswith("cmd:"):
        # exclusive-use oracle: one worker, one shared server process
        with ExternalOracle(config.oracle[4:], config.n) as oracle:
            reports = [_run_trial(config, t, oracle) for t in range(config.trials)]
    elif config.workers > 1 and config.trials > 1:
        with multiprocessing.Pool(config.workers) as pool:
            chunk = max(1, config.trials // (config.workers * 4))
            args = [(config, t) for t in range(config.trials)]
            reports = pool.starmap(_run_trial, args, chunksize=chunk)
    else:
        reports = [_run_trial(config, t) for t in range(config.trials)]
    return reports, summarize(config, reports)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render_csv(config: ExperimentConfig, reports: Sequence[TrialReport]) -> str:
    out = StringIO()
    out.write(CSV_COLUMNS + "\n")
    base = (
        f"{config.algorithm},{config.n},{_cell(config.target)},"
        f"{_cell(config.delta)},{_cell(config.epsilon)},{config.seed}"
    )
    for r in reports:
        out.write(
            f"{base},{r.trial},{_cell(r.result_id)},{_cell(r.est_rank)},"
            f"{_cell(r.true_rank)},{_cell(r.success)},{r.queries_left},"
            f"{r.queries_right},{_cell(r.rounds)}\n"
        )
    return out.getvalue()


def render_json(config: ExperimentConfig, reports: Sequence[TrialReport],
                summary: dict) -> str:
    payload = {
        "config": asdict(config),
        "summary": summary,
        "trials": [asdict(r) for r in reports],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_report(config: ExperimentConfig, reports: Sequence[TrialReport],
                 summary: dict, fmt: str = "csv",
                 path: Optional[str] = None, stream: Optional[TextIO] = None) -> None:
    """Emit the report as CSV (schema-fixed columns) or JSON."""
    if fmt == "csv":
        text = render_csv(config, reports)
    elif fmt == "json":
        text = render_json(config, reports, summary)
    else:
        raise InvalidParameterError(f"unknown report format {fmt!r}")
    if path is not None:
        try:
            with open(path, "w", encoding="ascii") as handle:
                handle.write(text)
        except OSError as exc:
            raise OSError(f"cannot write report to {path}: {exc}") from exc
    else:
        (stream or sys.stdout).write(text)
