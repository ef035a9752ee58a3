"""Workloads of the gtorder benchmark and the correctness gate they must pass.

A workload is a list of jobs, each one harness config of about a second
or less.  Every config is derived from the benchmark seed and the run
length alone, so one (seed, seconds) pair always gives the same trials,
the same ledgers and the same CSV bytes.  The number of jobs (or, for
``rank``, of trials per job) scales with ``--seconds``: the rates below
make the timed work of one run (each job three times, see ``run.py``)
take about ``--seconds`` on a 2-core Xeon VM (Python 3.11, numpy
2.4), ``select`` about a third more.

Why each workload exists:

* ``select``: nearly all time is the threshold-test loop of ``ranktest``
  (one right test per short padded row through one or two counting
  adapters, no reversal); batching and a single ledger target it.
  delta is 0.9 rather than 0.6: a selection trial costs one screening
  round or more, a geometric count, and at delta 0.6 (0.38 s a trial) a
  run holds too few trials for its per-trial figures to repeat from seed
  to seed.  delta 0.9 keeps the code path and costs about 0.1 s a trial.
* ``rank``: the same two layers with rows of 2 to 1024 ids, half of the
  tests reversed; per-id cost and sample memory matter here.  x is
  stratified rather than drawn: one config per stratum pins x to the
  stratum's middle rank.  A trial's cost grows steeply as x nears either
  end of the order, so with a random x the slowest tenth of the trials
  moved with the seed.  Two more trials pin x to rank 1, whose search
  ends on the 1024-id rows, so that the largest sample array (and with
  it peak RSS) is in every run.
* ``minfind``: sequential swap descent, where batching cannot help;
  ``maxfind`` adds the reversal adapter.  Harness instance creation and
  CSV rendering are a large share of each short trial.
* ``external``: the only workload that reaches the line protocol, one
  server per config as the CLI spawns them.  The testle half sends many
  short lines, the minfind half few long ones.
"""

from __future__ import annotations

import shlex
import sys
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from gtorder.harness import ExperimentConfig, TrialReport
from gtorder.order import make_instance
from gtorder.stats import binomial_margin

WORKLOADS = ("select", "rank", "minfind", "external")

SELECT = dict(n=1000, k=100, delta=0.9, epsilon=0.1)
RANK = dict(n=1024, delta=0.3, epsilon=0.1)
RANK_STRATA = 25
RANK_PINNED_TRIALS = 2
MINFIND_N = 4096
EXTERNAL_N = 1000
TESTLE = dict(r=100, delta=0.5, epsilon=0.2)

# trials per job, and jobs per second of --seconds
SELECT_CHUNK, SELECT_RATE = 8, 0.48
MINFIND_CHUNK, MINFIND_RATE = 250, 0.32
TESTLE_CHUNK, MINFIND_EXT_CHUNK, EXTERNAL_RATE = 40, 70, 0.16
RANK_TRIALS_RATE = 0.12  # trials per stratum


@dataclass(frozen=True)
class Job:
    label: str
    config: ExperimentConfig


def chunk_seed(seed: int, chunk: int) -> int:
    return seed * 1000 + chunk


def server_command(seed: int) -> str:
    """The reference server the CLI would spawn for ``--oracle cmd:...``."""
    args = [sys.executable, "-m", "gtorder.oracle_server",
            "--n", str(EXTERNAL_N), "--seed", str(seed)]
    return shlex.join(args)


def jobs(workload: str, seed: int, seconds: float) -> list[Job]:
    def chunks(rate: float) -> range:
        return range(max(1, round(rate * seconds)))

    if workload == "select":
        return [Job(f"select_{c}", ExperimentConfig(
            "select", SELECT["n"], SELECT_CHUNK, chunk_seed(seed, c), k=SELECT["k"],
            delta=SELECT["delta"], epsilon=SELECT["epsilon"])) for c in chunks(SELECT_RATE)]
    if workload == "rank":
        n = RANK["n"]
        config = ExperimentConfig("rank", n, max(1, round(RANK_TRIALS_RATE * seconds)), seed,
                                  delta=RANK["delta"], epsilon=RANK["epsilon"])
        middles = [round((i + 0.5) * n / RANK_STRATA) for i in range(RANK_STRATA)]
        return [Job(f"rank_x{x}", replace(config, x_rank=x)) for x in middles] + [
            Job("rank_x1", replace(config, trials=RANK_PINNED_TRIALS, x_rank=1))]
    if workload == "minfind":
        return [Job(f"{algo}_{c}", ExperimentConfig(
            algo, MINFIND_N, MINFIND_CHUNK, chunk_seed(seed, c)))
            for algo in ("minfind", "maxfind") for c in chunks(MINFIND_RATE)]
    if workload == "external":
        configs = []
        for algo, trials, extra in (("testle", TESTLE_CHUNK, TESTLE),
                                    ("minfind", MINFIND_EXT_CHUNK, {})):
            for c in chunks(EXTERNAL_RATE):
                s = chunk_seed(seed, c)
                configs.append(Job(f"{algo}_{c}", ExperimentConfig(
                    algo, EXTERNAL_N, trials, s, oracle="cmd:" + server_command(s),
                    fixed_instance=True, **extra)))
        return configs
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def is_external(job: Job) -> bool:
    return job.config.oracle != "builtin"


def builtin_twin(job: Job) -> ExperimentConfig:
    """The same config on the builtin oracle: the ground truth that an
    external run at the same seed must reproduce trial for trial."""
    return replace(job.config, oracle="builtin")


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _trial_failed(job: Job, report: TrialReport,
                  twin: Optional[TrialReport], true_min: Optional[int]) -> bool:
    if report.error is not None:
        return True
    algo = job.config.algorithm
    if twin is not None:
        # the server answers for make_instance(n, seed), exactly like the
        # builtin fixed-instance run, so ids and ledgers must coincide
        same = (report.result_id, report.queries_left, report.queries_right) == \
               (twin.result_id, twin.queries_left, twin.queries_right)
        if not same:
            return True
        return algo == "minfind" and report.result_id != true_min
    if algo in ("minfind", "maxfind"):
        wanted = 1 if algo == "minfind" else job.config.n
        return report.true_rank != wanted or report.success is not True
    return False


def gate(job_reports: Sequence[tuple[Job, Sequence[TrialReport]]],
         twins: dict) -> Verdict:
    """Count failed trials and apply the run-level bounds ``verify`` uses.

    ``twins`` maps the label of each external job to the reports of its
    builtin twin, computed outside the timed region.
    """
    verdict = Verdict()
    pooled: dict[str, list] = {"select": [], "rank": []}
    for job, reports in job_reports:
        twin_reports = twins.get(job.label)
        true_min = None
        if twin_reports is not None:
            ranks = make_instance(job.config.n, job.config.seed).ranks
            true_min = int(ranks.argmin())
            if len(twin_reports) != len(reports):
                verdict.problems.append(f"{job.label}: builtin twin has "
                                        f"{len(twin_reports)} trials, not {len(reports)}")
        for i, report in enumerate(reports):
            twin = twin_reports[i] if twin_reports is not None and i < len(twin_reports) else None
            verdict.attempted += 1
            verdict.failed += _trial_failed(job, report, twin, true_min)
        if job.config.algorithm in pooled:
            pooled[job.config.algorithm].extend(reports)
    # like verify, each bound is applied to all the run's trials at once
    if pooled["select"]:
        _check_select(pooled["select"], SELECT["epsilon"], verdict)
    if pooled["rank"]:
        _check_rank(pooled["rank"], RANK["epsilon"], verdict)
    return verdict


def _check_select(reports: Sequence[TrialReport], epsilon: float, verdict: Verdict) -> None:
    trials = len(reports)
    returned = [r for r in reports if r.result_id is not None]
    return_rate = len(returned) / trials
    return_bound = 0.5 - binomial_margin(trials, 0.5, 3.0)
    if return_rate < return_bound:
        verdict.problems.append(
            f"select_return_rate: {return_rate:.3f} < {return_bound:.3f}")
    violations = sum(1 for r in returned if not r.success)
    violation_rate = violations / len(returned) if returned else 0.0
    violation_bound = epsilon + binomial_margin(trials, epsilon, 3.0)
    if violation_rate > violation_bound:
        verdict.problems.append(
            f"select_violation_rate: {violation_rate:.3f} > {violation_bound:.3f}")


def _check_rank(reports: Sequence[TrialReport], epsilon: float, verdict: Verdict) -> None:
    trials = len(reports)
    success_rate = sum(1 for r in reports if r.success) / trials
    bound = 1.0 - epsilon - binomial_margin(trials, epsilon, 3.0)
    if success_rate < bound:
        verdict.problems.append(f"rank_success_rate: {success_rate:.3f} < {bound:.3f}")
