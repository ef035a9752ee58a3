"""Acceptance suite: every check of the verification harness at full scale.

One test per registered check, in suite order, each id the check's number
and name.  Each prints the PASS/FAIL line ``gtorder verify`` prints (run
with ``pytest -s`` to see them as they complete) and asserts the outcome;
each check's docstring states its criterion.  Three mutation tests show
that check 10 fails when a batch's dummy slot answers as a hit, or when
the reversed view's single test keeps the direction, and one that check
14 fails when min-finding walks an order that was never shuffled.  The
module runs in about 25 s; selection and min-finding dominate.
"""

import numpy as np
import pytest

from gtorder import oracle, verify

ACCEPTANCE_SEED = 20_250_801


@pytest.mark.parametrize("name", verify.ALL_CHECKS, ids=[
    f"{number:02d}_{name}" for number, name in enumerate(verify.ALL_CHECKS, 1)])
def test_criterion(name):
    result = verify.ALL_CHECKS[name](ACCEPTANCE_SEED)
    print(result)
    assert result.passed, str(result)


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
