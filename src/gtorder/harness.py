"""Seeded experiment runner and report emission.

A config fully determines every trial: trial t draws its generator and
its fresh instance from streams derived from (seed, t), so re-running a
config reproduces each report bit for bit with the builtin oracle.  The
success flag of a trial is always recomputed from the ground-truth rank,
never taken from the algorithm under test.  Trials can run in a worker
pool; reports are assembled in trial order either way.

Trial t's generator is ``default_rng(SeedSequence(entropy=(seed mod
2**64, t, 1)))`` and its instance seed the first 64-bit word of the same
with a last entropy word of 0.  Those hashes are computed for a chunk of
trials at a time in one vectorized numpy pass (``_state_words``), and
each generator is built straight from its words.  The pass is
SeedSequence's own hash, with its constants taken from
``oracle_server``, on the entropy words numpy would read: the seed's one
or two 32-bit words, t's one word (``validate_config`` keeps t below
2**32) and the lane's.  That is at most four words, all of which go into
SeedSequence's pool of four, and uint32 arithmetic wraps as its C code
does, so every generator, instance and report is bit for bit what the
per-trial SeedSequence objects gave.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
from dataclasses import asdict, dataclass
from io import StringIO
from typing import Iterator, Optional, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .apxrank import approximate_rank
from .errors import (InvalidParameterError, OracleError, check_integer, check_open, check_unit,
                     is_integer_type)
from .external import ExternalOracle
from .minfind import max_find, min_find
from .oracle import GroupTestOracle, InstanceOracle
from .oracle_server import (_INIT_A, _INIT_B, _MASK32, _MASK64, _MIX_MULT_L, _MIX_MULT_R,
                            _MULT_A, _MULT_B, _POOL_SIZE, _XSHIFT)
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
    for name in ("n", "workers"):
        check_integer(name, getattr(config, name), 1)
    # any integer seeds a config (taken mod 2**64), but not a bool
    if not is_integer_type(type(config.seed)):
        raise InvalidParameterError(f"seed must be an integer, got {config.seed!r}")
    if type(config.fixed_instance) is not bool:
        raise InvalidParameterError(f"fixed_instance must be a bool: {config.fixed_instance!r}")
    # trial indices are hashed as one 32-bit entropy word (_trial_seeds)
    check_integer("trials", config.trials, 1, 2**32)
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
    if config.oracle != "builtin" and not (isinstance(config.oracle, str)
                                           and config.oracle.startswith("cmd:")):
        raise InvalidParameterError("oracle must be 'builtin' or 'cmd:<command>'")


class _SeedWords(ISeedSequence):
    """A SeedSequence's first four 64-bit state words, derived ahead of
    time: all that ``PCG64`` asks its seed sequence for."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only four 64-bit state words were derived")
        return self.words


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's hash constants from ``init`` on, as two columns: hash
    i of the ``count`` xors with row i of the first and multiplies by row
    i of the second."""
    values = [init]
    for _ in range(count):
        values.append(values[-1] * mult & _MASK32)
    column = np.array(values, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


# the pool hashes the entropy word by word, then each source word once
# for each other word; the state is 2 * _POOL_SIZE hashes of the pool
_XOR_A, _MUL_A = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_ENTROPY_HASH = (_XOR_A[:_POOL_SIZE], _MUL_A[:_POOL_SIZE])
_SOURCE_HASH = [(_XOR_A[i:i + _POOL_SIZE - 1], _MUL_A[i:i + _POOL_SIZE - 1])
                for i in range(_POOL_SIZE, _POOL_SIZE * _POOL_SIZE, _POOL_SIZE - 1)]
_OTHER_WORDS = [[i for i in range(_POOL_SIZE) if i != src] for src in range(_POOL_SIZE)]
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
_MIX_L, _MIX_R, _SHIFT = np.uint32(_MIX_MULT_L), np.uint32(_MIX_MULT_R), np.uint32(_XSHIFT)
# the last entropy word of a trial's generator, and of its instance seed
_LANES = np.array([[1], [0]], dtype=np.uint32)
_SEED_CHUNK = 1 << 12  # trials seeded per vectorized pass: about 1 MB of work arrays


def _hash(values: np.ndarray, constants: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    # uint32 arithmetic wraps, as the masks of oracle_server._seed_words do
    values = values ^ constants[0]
    values *= constants[1]
    values ^= values >> _SHIFT
    return values


def _state_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy=e).generate_state(4, uint64)`` for each column
    e of a (_POOL_SIZE, m) uint32 array of entropy words padded with zeros,
    which is exact when no entropy has more words than the pool: (m, 4)."""
    pool = _hash(entropy, _ENTROPY_HASH)
    for src, dst in enumerate(_OTHER_WORDS):
        mixed = pool[dst] * _MIX_L
        mixed -= _hash(pool[src], _SOURCE_HASH[src]) * _MIX_R
        mixed ^= mixed >> _SHIFT
        pool[dst] = mixed
    state = _hash(np.concatenate((pool, pool)), _STATE_HASH)
    # SeedSequence reads its 32-bit words as little-endian 64-bit ones
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


def _trial_seeds(config: ExperimentConfig) -> Iterator[tuple[np.ndarray, int]]:
    """Each trial's generator words and instance seed, in trial order, hashed
    a chunk of trials at a time (module docstring); a fixed-instance config
    hashes no instance lane."""
    seed = config.seed & _MASK64
    seed_words = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    k = len(seed_words)
    lanes = _LANES[:1] if config.fixed_instance else _LANES
    for first in range(0, config.trials, _SEED_CHUNK):
        trials = np.arange(first, min(first + _SEED_CHUNK, config.trials), dtype=np.uint32)
        m = trials.size
        entropy = np.zeros((_POOL_SIZE, len(lanes), m), dtype=np.uint32)
        entropy[:k] = np.array(seed_words, dtype=np.uint32)[:, None, None]
        entropy[k] = trials
        entropy[k + 1] = lanes
        words = _state_words(entropy.reshape(_POOL_SIZE, -1))
        instance_seeds = [config.seed] * m if config.fixed_instance else words[m:, 0].tolist()
        yield from zip(words[:m], instance_seeds)


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


def _run_trial(config: ExperimentConfig, trial: int, words: np.ndarray, instance_seed: int,
               oracle: Optional[GroupTestOracle] = None) -> TrialReport:
    """Run one trial, with the generator its ``_trial_seeds`` words seed, on
    the given oracle or on the instance of ``instance_seed``, which also
    scores the result.  Behind an external oracle the hidden order lives
    in the server, so true ranks and success flags stay empty.
    """
    rng = np.random.Generator(np.random.PCG64(_SeedWords(words)))
    instance = None
    if oracle is None:
        instance = make_instance(config.n, instance_seed)
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
    seeds = enumerate(_trial_seeds(config))
    if config.oracle.startswith("cmd:"):
        # exclusive-use oracle: one worker, one shared server process
        with ExternalOracle(config.oracle[4:], config.n) as oracle:
            reports = [_run_trial(config, t, words, s, oracle) for t, (words, s) in seeds]
    elif config.workers > 1 and config.trials > 1:
        with multiprocessing.Pool(config.workers) as pool:
            chunk = max(1, config.trials // (config.workers * 4))
            args = [(config, t, words, s) for t, (words, s) in seeds]
            reports = pool.starmap(_run_trial, args, chunksize=chunk)
    else:
        reports = [_run_trial(config, t, words, s) for t, (words, s) in seeds]
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
                 path: Optional[str] = None) -> None:
    """Emit the report as CSV (schema-fixed columns) or JSON, to ``path``
    or, without one, to standard output."""
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
        sys.stdout.write(text)
