"""Acceptance suite: every check of the verification harness at full scale.

Each criterion test prints one PASS/FAIL line (run with ``pytest -s`` to
see them as they complete) and asserts the check outcome.  The same
checks back the ``gtorder verify`` CLI subcommand.  Two mutation tests
show that check 10 fails when a batch's dummy slot answers as a hit.
Expect several minutes of runtime; the selection check dominates.
"""

import numpy as np
import pytest

from gtorder import oracle, verify

ACCEPTANCE_SEED = 20_250_801


def _run(check):
    result = check(ACCEPTANCE_SEED)
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_criterion_01_minfind_exactness():
    """10,000 runs across eight sizes always return the true minimum."""
    _run(verify.check_minfind_exactness)


def test_criterion_02_swap_query_count():
    """Every swap costs exactly ceil(log2(n-1)) tests for n in 3..1025."""
    _run(verify.check_swap_query_count)


def test_criterion_03_swap_uniformity():
    """10,000 swaps at n=64, x of rank 32 pass chi-square at 0.001."""
    _run(verify.check_swap_uniformity)


def test_criterion_04_minfind_scaling():
    """Mean query cost grows like log^2 n: the 4096/256 ratio is near 2.25."""
    _run(verify.check_minfind_scaling)


def test_criterion_05_testle_error_rate():
    """Threshold-test errors stay within epsilon plus margin; exact ledgers."""
    _run(verify.check_testle_error_rate)


def test_criterion_06_testle_trial_probability():
    """Per-trial positive rates match the closed form within 3 SE."""
    _run(verify.check_testle_trial_probability)


def test_criterion_07_apxrank_success():
    """Rank estimates violate their band at most epsilon plus margin."""
    _run(verify.check_apxrank_success)


def test_criterion_08_candidate_hit_rate():
    """Candidate sampling hits the target band at the guaranteed rates."""
    _run(verify.check_candidate_hit_rate)


def test_criterion_09_apxselect_theorem():
    """Selection returns often enough and returned ranks respect the band."""
    _run(verify.check_apxselect_theorem)


def test_criterion_10_reversal_padding():
    """Reversal laws hold exhaustively for n <= 64, and batch dummy slots
    never hit while real ids keep their ranks, for n_eff - n < 8."""
    _run(verify.check_reversal_padding)


def _dummies_hit(answer, rows, size):
    """A batch answer in which every row holding a dummy slot hits."""
    return answer | (np.asarray(rows) >= size).any(axis=1)


def test_criterion_10_fails_when_instance_batches_hit_dummies(monkeypatch):
    batch = oracle.InstanceOracle._batch
    monkeypatch.setattr(oracle.InstanceOracle, "_batch", lambda self, u, rows, n_eff, left:
                        _dummies_hit(batch(self, u, rows, n_eff, left), rows, self.size))
    assert not verify.check_reversal_padding(ACCEPTANCE_SEED).passed


def test_criterion_10_fails_when_per_row_batches_hit_dummies(monkeypatch):
    per_row = oracle._per_row
    monkeypatch.setattr(oracle, "_per_row", lambda test, u, rows, n_eff, size:
                        _dummies_hit(per_row(test, u, rows, n_eff, size), rows, size))
    assert not verify.check_reversal_padding(ACCEPTANCE_SEED).passed


def test_criterion_11_external_conformance():
    """The protocol server matches the builtin oracle on 1,000 queries."""
    _run(verify.check_external_conformance)


def test_criterion_12_reproducibility():
    """Re-running every config with the same seed is byte-identical."""
    _run(verify.check_reproducibility)
