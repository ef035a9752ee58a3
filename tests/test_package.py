"""Tests for the package namespace: public names load their submodule
lazily, and the names the benchmark's tracer patches exist."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import gtorder


def test_import_loads_no_submodule():
    code = ("import gtorder, sys; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('gtorder.') or m in ('numpy', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def test_oracle_server_spawn_skips_the_harness():
    code = ("import runpy, sys; sys.argv = ['oracle_server', '--help']\n"
            "try:\n    runpy.run_module('gtorder.oracle_server', run_name='__main__')\n"
            "except SystemExit:\n    pass\n"
            "print(sorted(m for m in ('gtorder.harness', 'gtorder.selection', "
            "'gtorder.apxrank', 'multiprocessing') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip().splitlines()[-1] == "[]"


def test_oracle_server_answers_without_numpy():
    # the server ends without interpreter teardown, so its imports are
    # read from -X importtime, one stderr line per module it imports
    run = subprocess.run([sys.executable, "-X", "importtime", "-m", "gtorder.oracle_server",
                          "--n", "8", "--seed", "3"], input="INIT 8\nR 3 1 3\n",
                         capture_output=True, text=True, check=True)
    assert run.stdout == "OK\nY\n"
    imported = {line.rpartition("|")[2].strip() for line in run.stderr.splitlines()
                if line.startswith("import time:")}
    assert "gtorder.errors" in imported  # the server's own import, so the list is read
    assert not imported & {"numpy", "gtorder.oracle", "gtorder.order", "gtorder.external",
                           "gtorder.harness", "multiprocessing"}


def test_every_public_name_resolves():
    assert gtorder.__version__ == "0.1.0"
    assert len(gtorder.__all__) == len(set(gtorder.__all__)) == 41
    for name in gtorder.__all__:
        value = getattr(gtorder, name)
        assert value.__module__.startswith("gtorder.")
        assert vars(gtorder)[name] is value  # cached after the first lookup
    assert set(gtorder.__all__) <= set(dir(gtorder))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
        gtorder.nonsense
    # a submodule that is not a public name still imports
    from gtorder import verify
    assert verify.__name__ == "gtorder.verify"


def load_tracing(monkeypatch):
    """The benchmark's tracer module, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_call_sites_exist(monkeypatch):
    # the benchmark's tracer patches these by name, and a missing one is
    # skipped or added without a word, so a refactor that moves one must
    # fail here
    tracing = load_tracing(monkeypatch)
    assert [(owner.__name__, name) for owner, name in tracing.CALL_SITES
            if not hasattr(owner, name)] == []
    assert callable(getattr(tracing.ExternalOracle, "_exchange", None))


# one tiny builtin config per algorithm
TRACED_CONFIGS = [
    dict(algorithm="minfind", n=16),
    dict(algorithm="maxfind", n=16),
    dict(algorithm="testle", n=64, r=8.0, delta=0.5, epsilon=0.2, x_rank=5),
    dict(algorithm="rank", n=64, delta=0.5, epsilon=0.2),
    dict(algorithm="select", n=64, k=8, delta=0.5, epsilon=0.2),
]


def test_benchmark_tracer_runs_every_algorithm(monkeypatch, tmp_path):
    # the tracer reads outcome fields and argument names of the library,
    # so renaming one fails here rather than in a traced benchmark run
    from gtorder.harness import ExperimentConfig, run_experiment, write_report

    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    run = tracer.span("run_experiment", run_experiment)
    write = tracer.span("write_report", write_report)
    trials = 0
    with tracer.installed():
        for fields in TRACED_CONFIGS:
            config = ExperimentConfig(trials=2, seed=1, **fields)
            tracer.algorithm = config.algorithm
            reports, summary = run(config)
            write(config, reports, summary, path=str(tmp_path / f"{config.algorithm}.csv"))
            trials += config.trials
    assert tracer.entry_calls() == trials
    metrics = tracer.metrics(1.0, 1.0, 1.0, 0)
    assert metrics["ranktest.calls"] > 0
    assert tracer.counts["apxrank.estimates"] > 0
    assert tracer.counts["selection.trials"] > 0
