"""gtorder benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload select --seed 1 --seconds 25 --trace 0

Each job of the workload (see ``workloads.py``) goes through the CLI's
path, ``harness.run_experiment`` then ``harness.write_report`` to a CSV
file, with one worker in this process.  The pass over all jobs runs
three times at the same seed: the reports must be byte-identical, and
each job's wall time and each trial's latency is the fastest of its
three runs.  On a shared 2-core host the same work ran up to 1.7x slower
for stretches of one to ten seconds at random; with one run per job the
timings of a run moved with those stretches more than with the code.
Jobs are kept to about a second so that a stretch spoils few of them.

The host's speed also drifted by up to 1.5x over minutes, which moved
whole runs.  So every time is scaled to a reference CPU speed: just
before each job (and each set-up step) the benchmark times a fixed
pure-Python loop, takes the fastest of three runs p, and multiplies the
job's times by PROBE_REFERENCE_S / p.  On the reference machine, when
the host is quiet, the factor is about 1.  The detail line holds the
raw wall times, the median factor and every end-to-end metric computed
from raw times (``raw_end_to_end``).  Over ten seeds the scaling
narrowed the spread of every timed metric on every workload, the
numpy-heavy ``rank`` and the pipe-bound ``external`` included: raw
0.10-0.27, scaled 0.03-0.10 (both are in ``baseline.json``).

The benchmark checks the reports against ground truth, prints one
detail line (environment, per job trial counts, ledgers, report
digests and raw wall times, latency sample counts) and, as its last
line, a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  It exits 1 when a check fails, naming it
on stderr, and 2 when ``src/gtorder`` cannot be imported.

``--trace 0`` reports the end-to-end metrics of an untraced pass.
``--trace 1`` runs the same pass untraced and then traced (see
``tracing.py``), checks that tracing left every report byte-identical
and that layer spans cover at least MIN_COVERAGE of the traced wall
time, writes the spans under ``.bench_out/`` and reports per-layer
metrics.

End-to-end metrics:

* ``trials_per_s``: trials / scaled wall time of run_experiment +
  write_report, summed over the jobs.
* ``trial_ms_p50``, ``trial_ms_p75``: per-trial latency, the duration of
  the algorithm call the harness makes for the trial (instance creation
  and scoring are in ``trials_per_s`` only).  The detail line has the
  sample count and the 90th percentile too.  The 90th is not a metric
  because it does not repeat on ``select``: a selection trial costs a
  whole number of screening rounds, so its latencies form clusters, and
  the 90th percentile falls near the gap between the two- and
  three-round clusters, where a few trials more or less on one side move
  it by a third.  The 75th falls inside the two-round cluster.
* ``us_per_query``: the same scaled wall time / total ledger queries.
* ``queries_per_trial``: mean ledger total; exact at a fixed seed.
* ``trial_ok_share``: 1 - failed / attempted, the complement of the
  error share (a metric is never 0); ``failed`` holds the count itself.
* ``setup_s``: median scaled time to import gtorder in a fresh
  interpreter, plus for ``external`` the median scaled time to spawn the
  server and get ``OK`` to ``INIT``.  Each is taken five times after one
  warm-up.
* ``peak_rss_mb``: peak resident set of this process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# metric names and units
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(SRC))
try:
    if not (SRC / "gtorder" / "__init__.py").is_file():
        raise ImportError("no src/gtorder in this checkout")
    import numpy as np
    from gtorder import harness
    from gtorder.external import ExternalOracle
    from gtorder.harness import run_experiment, write_report
except ImportError as exc:
    print(f"perfbench: cannot import gtorder from {SRC}: {exc}", file=sys.stderr)
    raise SystemExit(2)

import workloads  # noqa: E402  (needs gtorder on the path)
from tracing import ENTRY_POINTS, Tracer, patched  # noqa: E402

SETUP_REPEATS = 5
REPEATS = 3
# layer spans must hold this share of the traced wall time (ROADMAP item 1)
MIN_COVERAGE = 0.9
# fastest time of the speed probe on the reference machine (2-core Xeon VM)
PROBE_REFERENCE_S = 1.5e-3


def _prepare_children() -> None:
    """Child interpreters (import timing, the external server) import
    gtorder from this checkout and share this process's one CPU.

    ``gtorder --oracle cmd:`` runs client and server on two CPUs.  Here
    they share one, so an external round trip costs the work of both
    sides and two context switches, where across two CPUs it waits for
    the idle one to wake.  On a shared 2-core VM (seeds 201-205) that
    wake-up made the external figures spread 0.10-0.14 from seed to
    seed against 0.05-0.07 on one CPU.
    """
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if str(SRC) not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, paths)])
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def cpu_scale() -> float:
    """PROBE_REFERENCE_S / the fastest of three runs of a fixed loop."""
    def probe() -> float:
        start = perf_counter()
        table, total, items = {}, 0, []
        for i in range(15000):
            total += i * i
            table[i & 255] = total
            items.append(i)
        return perf_counter() - start

    return PROBE_REFERENCE_S / min(probe() for _ in range(3))


def _scaled(measure, *args) -> tuple[float, float]:
    """(scaled, raw) seconds of one call of ``measure``."""
    scale = cpu_scale()
    raw = measure(*args)
    return raw * scale, raw


def _import_seconds() -> float:
    code = ("import time; t = time.perf_counter(); import gtorder; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def _spawn_seconds(seed: int) -> float:
    start = perf_counter()
    oracle = ExternalOracle(workloads.server_command(seed), workloads.EXTERNAL_N)
    elapsed = perf_counter() - start
    oracle.close()
    return elapsed


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median import time, plus median server spawn + INIT for external;
    scaled and raw."""
    steps = [(_import_seconds,)]
    if workload == "external":
        steps.append((_spawn_seconds, seed))
    scaled = raw = 0.0
    for step in steps:
        step[0](*step[1:])  # warm-up
        samples = [_scaled(*step) for _ in range(SETUP_REPEATS)]
        scaled += statistics.median(s for s, _ in samples)
        raw += statistics.median(r for _, r in samples)
    return scaled, raw


def _latency_hooks(samples: list):
    def timed(fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            samples.append(perf_counter() - start)
            return result
        return wrapper

    return patched([(harness, name, timed(getattr(harness, name)))
                    for name in ENTRY_POINTS if hasattr(harness, name)])


def run_pass(jobs, out_dir: Path, tracer: Tracer | None = None) -> dict:
    """Run every job once; time run_experiment + write_report per job.

    ``wall`` and ``latencies`` are scaled by ``cpu_scale()``, ``raw_wall``
    and ``raw_latencies`` are not."""
    out_dir.mkdir(parents=True, exist_ok=True)
    latencies: list[float] = []
    results = []
    run, write = run_experiment, write_report
    if tracer is not None:
        run = tracer.span("run_experiment", run_experiment)
        write = tracer.span("write_report", write_report)
    hooks = tracer.installed() if tracer is not None else _latency_hooks(latencies)
    origin = perf_counter()
    with hooks:
        for job in jobs:
            path = out_dir / f"{job.label}.csv"
            if tracer is not None:
                tracer.algorithm = job.config.algorithm
            before = len(latencies)
            scale = cpu_scale()
            start = perf_counter()
            reports, summary = run(job.config)
            write(job.config, reports, summary, fmt="csv", path=str(path))
            wall = perf_counter() - start
            results.append({
                "job": job, "reports": reports, "wall": wall * scale,
                "raw_wall": wall, "scale": scale,
                "latencies": [t * scale for t in latencies[before:]],
                "raw_latencies": latencies[before:],
                "queries": int(summary["total_queries"]),
                "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            })
    return _totals(results) | {"origin": origin}


def _totals(results: list) -> dict:
    return {"jobs": results, "wall": sum(r["wall"] for r in results),
            "raw_wall": sum(r["raw_wall"] for r in results),
            "latencies": [t for r in results for t in r["latencies"]],
            "raw_latencies": [t for r in results for t in r["raw_latencies"]]}


def repeated_pass(jobs, out_dir: Path) -> tuple[dict, list[str]]:
    """Run the pass REPEATS times; keep the fastest wall time of each job
    and the fastest latency of each trial.  Returns the combined pass and
    the labels of jobs whose reports differed between runs."""
    passes = [run_pass(jobs, out_dir / f"run{i}") for i in range(REPEATS)]
    combined, changed = [], []
    for runs in zip(*(p["jobs"] for p in passes)):
        if len({r["sha256"] for r in runs}) > 1:
            changed.append(runs[0]["job"].label)
        combined.append(dict(
            runs[0], wall=min(r["wall"] for r in runs),
            raw_wall=min(r["raw_wall"] for r in runs),
            scale=statistics.median(r["scale"] for r in runs),
            latencies=[min(t) for t in zip(*(r["latencies"] for r in runs))],
            raw_latencies=[min(t) for t in zip(*(r["raw_latencies"] for r in runs))]))
    return _totals(combined), changed


def _twins(jobs) -> dict:
    """Builtin fixed-instance runs of the external jobs, untimed."""
    return {job.label: run_experiment(workloads.builtin_twin(job))[0]
            for job in jobs if workloads.is_external(job)}


def end_to_end(result: dict, verdict, setup_s: float, raw: bool = False) -> dict:
    """The end-to-end metrics from scaled times, or from raw ones."""
    trials = sum(len(r["reports"]) for r in result["jobs"])
    queries = sum(r["queries"] for r in result["jobs"])
    wall = result["raw_wall" if raw else "wall"]
    quartiles = statistics.quantiles(result["raw_latencies" if raw else "latencies"], n=4)
    return {
        "trials_per_s": trials / wall,
        "trial_ms_p50": 1e3 * quartiles[1],
        "trial_ms_p75": 1e3 * quartiles[2],
        "us_per_query": 1e6 * wall / queries,
        "queries_per_trial": queries / trials,
        "trial_ok_share": 1.0 - verdict.failed / verdict.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # e.g. a checkout that is not a git repository
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "commit": commit,
            "command": shlex.join([sys.executable, *sys.argv])}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run length; trial counts scale with it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    out_dir = OUT / args.workload
    jobs = workloads.jobs(args.workload, args.seed, args.seconds)
    _prepare_children()

    problems = []
    tracer = None
    if args.trace:
        untraced = run_pass(jobs, out_dir / "untraced")
        tracer = Tracer()
        measured = run_pass(jobs, out_dir / "traced", tracer)
        tracer.write(out_dir / "spans.json", origin=measured["origin"])
        for plain, traced in zip(untraced["jobs"], measured["jobs"]):
            if plain["sha256"] != traced["sha256"]:
                problems.append(f"trace_changed_report: {plain['job'].label}")
        if tracer.entry_calls() != sum(len(r["reports"]) for r in measured["jobs"]):
            problems.append("trace_missed_trials: an entry point was not reached")
    else:
        setup_s, raw_setup_s = measure_setup(args.workload, args.seed)
        untraced, changed = repeated_pass(jobs, out_dir)
        measured = untraced
        problems.extend(f"repeat_changed_report: {label}" for label in changed)
        if len(untraced["latencies"]) != sum(len(r["reports"]) for r in untraced["jobs"]):
            problems.append("latency_samples: an entry point was not reached")

    verdict = workloads.gate([(r["job"], r["reports"]) for r in measured["jobs"]],
                             _twins(jobs))
    verdict.problems.extend(problems)

    extra = {}
    if args.trace:
        external = [r for r in measured["jobs"] if workloads.is_external(r["job"])]
        values = tracer.metrics(measured["raw_wall"], measured["wall"], untraced["wall"],
                                sum(r["queries"] for r in external))
        values["external.errors"] = sum(
            1 for r in external for report in r["reports"] if report.error is not None)
        if values["trace.coverage"] < MIN_COVERAGE:
            verdict.problems.append(f"trace_coverage: {values['trace.coverage']:.3f} "
                                    f"< {MIN_COVERAGE}")
    else:
        values = end_to_end(measured, verdict, setup_s)
        extra["raw_end_to_end"] = end_to_end(measured, verdict, raw_setup_s, raw=True)
    kind = "per_layer" if args.trace else "end_to_end"

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "latency_samples": len(untraced["latencies"]),
        "latency_ms_p90": 1e3 * statistics.quantiles(untraced["latencies"], n=10)[8],
        "cpu_scale_median": statistics.median(r["scale"] for r in measured["jobs"]),
        "jobs": [{"label": r["job"].label, "trials": len(r["reports"]),
                  "queries": r["queries"], "raw_wall_s": r["raw_wall"],
                  "sha256": r["sha256"]}
                 for r in measured["jobs"]],
        "problems": verdict.problems,
        **extra,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": verdict.correct, "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in SPEC[kind]},
    }))
    sys.stdout.flush()
    for problem in verdict.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if verdict.failed:
        print(f"perfbench: {verdict.failed} of {verdict.attempted} trials failed",
              file=sys.stderr)
    return 0 if verdict.correct else 1


if __name__ == "__main__":
    sys.exit(main())
