"""Acceptance suite: every check of the verification harness at full scale.

One test per registered check, in suite order, each id the check's number
and name.  Each prints the PASS/FAIL line ``gtorder verify`` prints (run
with ``pytest -s`` to see them as they complete) and asserts the outcome;
each check's docstring states its criterion.  Two mutation tests show
that check 10 fails when a batch's dummy slot answers as a hit.  The
module runs in about 15 s; selection and min-finding scaling dominate.
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
