"""Smoke test of the benchmark itself, at a tiny trial count.

    python3 perfbench/smoke.py

Runs every workload untraced and traced, and checks that each prints
every metric BENCHMARK.json names with its unit, that the gate passes,
that tracing leaves ledgers and report digests unchanged, that a second
run at the same seed repeats them, that the command line exits 0 with
the result as its last line, and that a directory holding only the
benchmark fails without printing a result.  It also feeds the gate
made-up reports shaped like a full-length run, right and wrong, to show
that each run-level bound passes the one and fails the other.  Takes
well under a minute.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import run
import workloads
from gtorder.harness import TrialReport

SEED = 3
SECONDS = 0.25
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _lines(argv: list[str]) -> tuple[dict, dict]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = run.main(argv)
    lines = buffer.getvalue().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    assert code == 0, (argv, detail["problems"], result)
    return detail, result


def _check_metrics(result: dict, kind: str) -> None:
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, (kind, set(got) ^ set(expected))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if kind == "end_to_end":
            assert m["value"] > 0, name


def _ledgers(detail: dict) -> list:
    return [(j["label"], j["trials"], j["queries"], j["sha256"]) for j in detail["jobs"]]


def _gate_problems(workload: str, **fields) -> list[str]:
    """Gate a full-length run of ``workload`` whose every trial returned
    an element at the right rank, with ``fields`` overriding that."""
    good = TrialReport(trial=0, result_id=0, est_rank=1, true_rank=1, success=True,
                       queries_left=1, queries_right=1, rounds=1)
    jobs = workloads.jobs(workload, SEED, SPEC["run_seconds"])
    run_reports = [(job, [replace(good, trial=t, **fields) for t in range(job.config.trials)])
                   for job in jobs]
    verdict = workloads.gate(run_reports, {})
    assert verdict.failed == 0, verdict
    return [problem.split(":")[0] for problem in verdict.problems]


def check_gate_can_fail() -> None:
    assert _gate_problems("select") == []
    assert _gate_problems("select", result_id=None, success=None) == ["select_return_rate"]
    assert _gate_problems("select", success=False) == ["select_violation_rate"]
    assert _gate_problems("rank") == []
    assert _gate_problems("rank", success=False) == ["rank_success_rate"]


def main() -> int:
    check_gate_can_fail()
    print("ok gate fails on wrong runs")

    for workload in workloads.WORKLOADS:
        argv = ["--workload", workload, "--seed", str(SEED), "--seconds", str(SECONDS)]
        plain, result = _lines(argv + ["--trace", "0"])
        _check_metrics(result, "end_to_end")
        traced, result = _lines(argv + ["--trace", "1"])
        _check_metrics(result, "per_layer")
        assert _ledgers(plain) == _ledgers(traced), workload
        coverage = result["metrics"]["trace.coverage"]["value"]
        assert run.MIN_COVERAGE <= coverage <= 1.0, (workload, coverage)
        if workload == "minfind":
            again, _ = _lines(argv + ["--trace", "0"])
            assert _ledgers(again) == _ledgers(plain)
        print(f"ok {workload}")

    script = Path(run.__file__).resolve()
    argv = [sys.executable, str(script), "--workload", "minfind", "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert set(json.loads(done.stdout.splitlines()[-1])) == {
        "correct", "attempted", "failed", "metrics"}
    print("ok command line")

    bare = run.OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(script.parent, bare / script.parent.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    argv[1] = str(bare / script.parent.name / script.name)
    done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    assert done.returncode != 0 and '"metrics"' not in done.stdout, done
    print("ok fails without the library")
    return 0


if __name__ == "__main__":
    sys.exit(main())
