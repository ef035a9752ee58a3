"""Tests for the reference server's numpy-free instance and its command line."""

import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtorder
from gtorder import InvalidParameterError, make_instance
from gtorder.oracle_server import instance_ranks, serve

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
