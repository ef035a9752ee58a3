"""Acceptance suite: every check of the verification harness at full scale.

One test per registered check, in suite order, each id the check's number
and name.  Each prints the PASS/FAIL line ``gtorder verify`` prints (run
with ``pytest -s`` to see them as they complete) and asserts the outcome;
each check's docstring states its criterion.  Mutation tests show that
check 2 fails when the one-call walk drops its last round, check 10 when
a batch's dummy slot answers as a hit or the reversed view's single test
keeps the direction, check 14 when min-finding walks an order that was
never shuffled, and check 15 when rank search asks "rank <= m" at the
integer target m.  The module runs in about 35 s; selection, min-finding and the
rank searches dominate.
"""

import math

import numpy as np
import pytest

from gtorder import apxrank, oracle, verify

ACCEPTANCE_SEED = 20_250_801


@pytest.mark.parametrize("name", verify.ALL_CHECKS, ids=[
    f"{number:02d}_{name}" for number, name in enumerate(verify.ALL_CHECKS, 1)])
def test_criterion(name):
    result = verify.ALL_CHECKS[name](ACCEPTANCE_SEED)
    print(result)
    assert result.passed, str(result)


def test_criterion_2_fails_when_the_walk_drops_a_round(monkeypatch):
    walk = oracle.InstanceOracle.walk

    def dropped(self, u, arr, left):
        # a walk of one round keeps it: the run would raise, not return
        ends = walk(self, u, arr, left)
        return ends[:-1] or ends

    monkeypatch.setattr(oracle.InstanceOracle, "walk", dropped)
    result = verify.check_swap_query_count(ACCEPTANCE_SEED)
    assert not result.passed
    assert "deviations" in str(result)


def _dummies_hit(answer, rows, size):
    """A batch answer in which every row holding a dummy slot hits."""
    return answer | (np.asarray(rows) >= size).any(axis=1)


def test_criterion_10_fails_when_instance_batches_hit_dummies(monkeypatch):
    batch = oracle.InstanceOracle.test_batch
    monkeypatch.setattr(oracle.InstanceOracle, "test_batch", lambda self, u, rows, n_eff, left:
                        _dummies_hit(batch(self, u, rows, n_eff, left), rows, self.size))
    assert not verify.check_reversal_padding(ACCEPTANCE_SEED).passed


def test_criterion_10_fails_when_per_row_batches_hit_dummies(monkeypatch):
    per_row = oracle.GroupTestOracle.test_batch
    monkeypatch.setattr(oracle.GroupTestOracle, "test_batch", lambda self, u, rows, n_eff, left:
                        _dummies_hit(per_row(self, u, rows, n_eff, left), rows, self.size))
    assert not verify.check_reversal_padding(ACCEPTANCE_SEED).passed


def test_criterion_10_fails_when_reversed_single_tests_keep_the_direction(monkeypatch):
    # batches still reverse, so only the single-test sweep can see this
    monkeypatch.setattr(oracle._ReversedOracle, "test",
                        lambda self, u, V, left: self._inner.test(u, V, left))
    result = verify.check_reversal_padding(ACCEPTANCE_SEED)
    assert not result.passed
    assert "reversed rank mismatch" in str(result)


class _NeverShuffles:
    """A generator whose shuffle leaves the array as it is."""

    def __init__(self, rng):
        self._rng = rng

    def shuffle(self, x):
        pass

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_criterion_14_fails_when_min_finding_never_shuffles(monkeypatch):
    rng = verify._rng
    monkeypatch.setattr(verify, "_rng", lambda seed, tag: _NeverShuffles(rng(seed, tag)))
    monkeypatch.setattr(verify, "CHAIN_RUNS", {8: verify.CHAIN_RUNS[8]})  # n=64 adds nothing
    assert not verify.check_minfind_chain_law(ACCEPTANCE_SEED).passed


def test_criterion_15_fails_without_the_half_step(monkeypatch):
    # every target below n/2 back at the integer m it stands for
    rank_at_most = apxrank.rank_at_most
    monkeypatch.setattr(apxrank, "rank_at_most", lambda oracle, x, r, *args: rank_at_most(
        oracle, x, math.floor(r) if r < oracle.size / 2 else r, *args))
    # ranks 1 and 2 miss in nearly every run, so a few runs show it
    monkeypatch.setattr(verify, "APXRANK_ENDS_RUNS", 20)
    assert not verify.check_apxrank_ends(ACCEPTANCE_SEED).passed
