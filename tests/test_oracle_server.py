"""Tests for the reference server's numpy-free instance and its command line."""

import io
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtorder
from gtorder import InvalidParameterError, make_instance
from gtorder.oracle_server import instance_ranks, main, serve

# sizes just above a power of two make the shuffle reject most draws
SIZES = (1, 2, 3, 255, 256, 257, 1000, 4096, 4097)
# one 32-bit word, two words, the 64-bit edges, and seeds make_instance
# masks to 64 bits
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1, 2**70 + 5)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_instance_ranks_equal_make_instance(n, seed):
    assert instance_ranks(n, seed) == make_instance(n, seed).ranks.tolist()


@given(n=st.integers(1, 3000), seed=st.integers(-(2**70) + 1, 2**70 - 1))
@settings(max_examples=100, deadline=None)
def test_instance_ranks_equal_make_instance_anywhere(n, seed):
    assert instance_ranks(n, seed) == make_instance(n, seed).ranks.tolist()


@pytest.mark.parametrize("n", [0, -1])
def test_instance_ranks_reject_empty_universes(n):
    with pytest.raises(InvalidParameterError):
        instance_ranks(n, 0)


def test_package_serve_is_the_reference_server():
    assert gtorder.serve is serve


@pytest.mark.parametrize("n", ["0", "-3"])
def test_universe_below_one_is_a_usage_error(n):
    run = subprocess.run([sys.executable, "-m", "gtorder.oracle_server", "--n", n],
                         input="INIT 1\n", capture_output=True, text=True, timeout=60)
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.splitlines() == [f"oracle_server.py: error: --n must be at least 1, got {n}"]


def test_server_exits_at_eof_with_every_reply_and_no_teardown():
    # an atexit hook runs only in the interpreter's teardown, which the
    # server skips once its output is flushed
    script = ("import atexit, runpy, sys\n"
              "atexit.register(lambda: sys.stderr.write('teardown\\n'))\n"
              "sys.argv = ['oracle_server', '--n', '8', '--seed', '3']\n"
              "runpy.run_module('gtorder.oracle_server', run_name='__main__')\n")
    queries = [(u, v) for u in range(8) for v in range(8)]
    lines = ["INIT 8", *(f"R {u} 1 {v}" for u, v in queries)]
    run = subprocess.run([sys.executable, "-c", script], input="\n".join(lines) + "\n",
                         capture_output=True, text=True, timeout=60)
    ranks = instance_ranks(8, 3)
    assert run.returncode == 0
    assert run.stderr == ""
    assert run.stdout.splitlines() == ["OK", *("Y" if ranks[v] <= ranks[u] else "N"
                                               for u, v in queries)]


def test_main_returns_to_an_in_process_caller(monkeypatch):
    stdout = io.TextIOWrapper(io.BytesIO())
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"INIT 4\nR 0 1 0\n")))
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["--n", "4"]) == 0
    stdout.seek(0)
    assert stdout.read() == "OK\nY\n"
