"""Las Vegas min/max finding driven by right group tests.

The search keeps a candidate x and repeatedly asks whether any other
element lies below it.  While the answer is yes, :func:`swap` replaces x
by an element chosen uniformly among everything below it, so the
candidate's rank halves in expectation each round.  The returned element
is always the true minimum; only the number of queries is random.

``swap`` descends over a uniformly shuffled copy of its input laid out
on a power-of-two index range (the tail positions are simply vacant).
At each of the exactly ceil(log2 |A|) levels it asks one right test on
the occupied left half and moves into whichever half must contain an
element below x.  The element returned is the one holding the smallest
shuffled position among those below x, which is uniform over them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError
from .oracle import GroupTestOracle, QueryLedger, counted, reversed_view


@dataclass(frozen=True)
class MinFindOutcome:
    """Result element plus the run's cost accounting."""

    element: int
    iterations: int  # number of swap rounds performed
    ledger: QueryLedger


def swap(oracle: GroupTestOracle, A, x: int, rng: np.random.Generator) -> int:
    """Return an element of A that is <= x, uniformly among those.

    Requires some element of A to satisfy a <= x; if none does, the
    descent still completes (and still costs ceil(log2 |A|) tests) but
    the element returned is incorrect.  |A| = 1 costs no queries.
    """
    arr = np.asarray(A)
    m = arr.size
    if m == 0:
        raise InvalidParameterError("swap needs a nonempty candidate set")
    if m == 1:
        return int(arr[0])
    arr = rng.permutation(arr)
    lo = 0
    span = 1 << (m - 1).bit_length()
    while span > 1:
        half = span >> 1
        left = arr[lo : min(lo + half, m)]
        if not oracle.right_test(x, left):
            lo += half
        span = half
    return int(arr[min(lo, m - 1)])


def min_find_among(oracle: GroupTestOracle, elements, rng: np.random.Generator) -> MinFindOutcome:
    """Find the minimum of an explicit element collection."""
    arr = np.asarray(elements, dtype=np.int64)
    if arr.size == 0:
        raise InvalidParameterError("cannot take the minimum of an empty collection")
    counting, ledger = counted(oracle)
    start = replace(ledger)
    idx = int(rng.integers(arr.size))
    x = int(arr[idx])
    iterations = 0
    while arr.size > 1:
        rest = np.delete(arr, idx)
        if not counting.right_test(x, rest):
            break
        x = swap(counting, rest, x, rng)
        iterations += 1
        if iterations > arr.size:
            # the candidate's rank strictly decreases every round, so a
            # consistent oracle can never sustain this many swaps
            raise RuntimeError("oracle answers are inconsistent with a total order")
        idx = int(np.nonzero(arr == x)[0][0])
    return MinFindOutcome(element=x, iterations=iterations, ledger=ledger.since(start))


def min_find(oracle: GroupTestOracle, n: int, rng: np.random.Generator) -> MinFindOutcome:
    """Find the element of rank 1 among ids 0..n-1.

    Correctness is unconditional; the query count is
    iterations * ceil(log2(n-1)) + iterations + 1 for n > 1, and 0 for
    n = 1.
    """
    if n < 1:
        raise InvalidParameterError(f"universe size must be positive, got {n}")
    if n > oracle.size:
        raise InvalidParameterError(f"n={n} exceeds oracle universe {oracle.size}")
    return min_find_among(oracle, np.arange(n, dtype=np.int64), rng)


def max_find(oracle: GroupTestOracle, n: int, rng: np.random.Generator) -> MinFindOutcome:
    """Find the element of rank n: min-finding with every test reversed.

    The reversal sits above the ledger, so the ledger counts left and
    right tests as ``oracle`` sees them.
    """
    return min_find(reversed_view(counted(oracle)[0]), n, rng)
