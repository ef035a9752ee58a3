"""Group-test oracle interface and composable adapters.

A group test is a one-to-many order query against a hidden total order:

* left test   ``u <=_Q V``  is true iff some v in V satisfies u <= v,
* right test  ``V <=_Q u``  is true iff some v in V satisfies v <= u.

``<=`` is reflexive and the order is strict on ranks, so singleton tests
against u itself are always true.  An empty V answers false (an empty
existential).  Answers are noiseless functions of the hidden order.

``left_test_batch``/``right_test_batch`` ask one test per row of a 2-D id
array, for non-adaptive tests whose sets are all drawn before any answer
is read.  Ids in size..n_eff-1 are dummy slots that satisfy neither test.
They are the library's one padding mechanism: the threshold test pads its
universe with dummies above every real element, which no right test hits.
The base class answers row by row through the single tests;
:class:`InstanceOracle` marks each id of the padded universe that
satisfies the test in a 0/1 hit table, then counts each row's hits with
one gather from that table and one matrix-vector product, and answers
true where the count is positive.

``left_descent``/``right_descent`` run the binary descent of min-finding's
swap over an id array: one test per level on the occupied left half of
the current range, ceil(log2 m) tests in all.  The base class asks them
one at a time, each an ordinary single test.  Every level tests a
contiguous slice of the same array, so the descent ends at the first
position holding an element below (above) u, or at m - 1 if none does:
:class:`InstanceOracle` finds that position with one gather, and the
line protocol's ``DL``/``DR`` op asks the server for it in one line.

Adapters compose around a base oracle:

* :class:`CountingOracle` records how many queries of each kind were made,
* :func:`reversed_view` swaps the direction of every test.

All oracles are immutable after construction; only the counting adapter's
ledger mutates.  Each run keeps one ledger: :func:`counted` gives an
algorithm the caller's :class:`CountingOracle` when there is one, so
nested calls share it, and each call reports its own queries as the
ledger's growth over the call.  An algorithm that reverses the order does
so above the ledger, so the ledger counts in the frame of the oracle the
caller passed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .errors import InvalidParameterError
from .order import TotalOrderInstance

IdSet = Union[Sequence[int], np.ndarray, set, frozenset]

# Above this size the numpy fancy-index path beats a Python loop.  Long
# single tests are ``min_find``'s condition tests over the rest of a large
# universe; short ones the candidate draw's, over a few sampled ids.
# InstanceOracle's batches and descents take neither path.
_VECTOR_THRESHOLD = 64


class GroupTestOracle(ABC):
    """Query interface over a universe of ids 0..size-1."""

    size: int

    @abstractmethod
    def left_test(self, u: int, V: IdSet) -> bool:
        """True iff some v in V satisfies u <= v."""

    @abstractmethod
    def right_test(self, u: int, V: IdSet) -> bool:
        """True iff some v in V satisfies v <= u."""

    def left_test_batch(self, u: int, rows: np.ndarray, n_eff: int) -> np.ndarray:
        """One left test per row of ``rows``, as a boolean array.

        ``rows`` is a 2-D array of ids in 0..n_eff-1; ids from ``size`` on
        are dummy slots that satisfy neither test.  Each row costs one
        group test.
        """
        return _per_row(self.left_test, u, rows, n_eff, self.size)

    def right_test_batch(self, u: int, rows: np.ndarray, n_eff: int) -> np.ndarray:
        """One right test per row of ``rows``; see :meth:`left_test_batch`."""
        return _per_row(self.right_test, u, rows, n_eff, self.size)

    def left_descent(self, u: int, arr: np.ndarray) -> int:
        """Where a descent of left tests over the 1-D id array ``arr`` ends.

        Lays ``arr`` on a power-of-two index range and, at each of the
        ceil(log2 m) levels, asks one left test on the occupied left half
        of the current range, moving right when it answers false.  The
        result is the first position whose id v satisfies u <= v, or
        m - 1 if none does.  Each level costs one group test.
        """
        return _descend(self.left_test, u, arr, self.size)

    def right_descent(self, u: int, arr: np.ndarray) -> int:
        """The descent of :meth:`left_descent` with right tests (v <= u)."""
        return _descend(self.right_test, u, arr, self.size)


@dataclass(slots=True)
class QueryLedger:
    """Exact count of left/right group tests consumed by a run."""

    left_count: int = 0
    right_count: int = 0

    @property
    def total(self) -> int:
        return self.left_count + self.right_count

    def since(self, start: QueryLedger) -> QueryLedger:
        """Queries counted after ``start``, an earlier copy of this ledger."""
        return QueryLedger(self.left_count - start.left_count,
                           self.right_count - start.right_count)


def _is_id(v) -> bool:
    """True for a Python or numpy integer; bools and floats are not ids."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


_PLAIN_INT = frozenset((int,))


def _check_id_types(u: int, V: IdSet) -> None:
    """Check that u and every id of V are integers (bools are not)."""
    if isinstance(V, np.ndarray):
        typed = not V.size or V.dtype.kind in "iu"
    else:
        # plain ints pass one C-level scan; anything else is checked per id
        typed = _PLAIN_INT.issuperset(map(type, V)) or all(map(_is_id, V))
    if not (typed and (type(u) is int or _is_id(u))):
        raise InvalidParameterError("element ids must be integers")


def _checked_ids(u: int, V: IdSet, size: int) -> IdSet:
    """Check that u and every id of V are integers in 0..size-1.

    Returns V itself when it is a numpy array long enough for the vector
    path, and V as a Python sequence otherwise.
    """
    _check_id_types(u, V)
    vector = isinstance(V, np.ndarray)
    if vector and V.size <= _VECTOR_THRESHOLD:
        V, vector = V.tolist(), False
    if vector:
        inside = 0 <= V.min() and V.max() < size
    else:
        inside = not V or (0 <= min(V) and max(V) < size)
    if not (inside and 0 <= u < size):
        raise InvalidParameterError(f"element id outside universe of size {size}")
    return V


def _checked_rows(u: int, rows: np.ndarray, n_eff: int,
                  size: int) -> tuple[np.ndarray, int]:
    """Check a batch: u in 0..size-1, n_eff >= size, and ``rows`` a 2-D
    integer array of ids in 0..n_eff-1.  Returns the rows and the padded
    size to answer them with.  Rows of no ids come back as an integer
    array, whatever their dtype was.  Past n_eff = 2 * size every dummy id
    comes back as ``size`` and the padded size as size + 1, so no hit
    table or id token need span a huge padded universe."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or (rows.size and rows.dtype.kind not in "iu"):
        raise InvalidParameterError(f"a batch needs a 2-D integer id array, got shape {rows.shape}")
    if not (_is_id(u) and _is_id(n_eff)):
        raise InvalidParameterError("element ids and the padded size must be integers")
    if not rows.size:
        rows = rows.astype(np.intp)
    if n_eff < size:
        raise InvalidParameterError(f"padded size {n_eff} below universe size {size}")
    if not 0 <= u < size:
        raise InvalidParameterError(f"element id outside universe of size {size}")
    if rows.size and (rows.min() < 0 or rows.max() >= n_eff):
        raise InvalidParameterError(f"batch id outside padded universe of size {n_eff}")
    if n_eff > 2 * size:
        # every dummy slot answers alike, so slot ``size`` stands for all
        if rows.size and rows.max() >= size:
            rows = np.minimum(rows, size)
        n_eff = size + 1
    return rows, n_eff


def _checked_descent(u: int, arr: np.ndarray, size: int) -> np.ndarray:
    """Check a descent: u in 0..size-1 and ``arr`` a nonempty 1-D integer
    array of ids in 0..size-1."""
    arr = np.asarray(arr)
    if arr.ndim != 1 or arr.size == 0 or arr.dtype.kind not in "iu":
        raise InvalidParameterError(
            f"a descent needs a nonempty 1-D integer id array, got shape {arr.shape}")
    if not _is_id(u):
        raise InvalidParameterError("element ids must be integers")
    if not (0 <= u < size and 0 <= arr.min() and arr.max() < size):
        raise InvalidParameterError(f"element id outside universe of size {size}")
    return arr


def _descend(test, u: int, arr: np.ndarray, size: int) -> int:
    """A descent asked one ``test`` per level."""
    arr = _checked_descent(u, arr, size)
    m = arr.size
    lo = 0
    span = 1 << (m - 1).bit_length()
    while span > 1:
        half = span >> 1
        if not test(u, arr[lo : min(lo + half, m)]):
            lo += half
        span = half
    return min(lo, m - 1)


def _per_row(test, u: int, rows: np.ndarray, n_eff: int, size: int) -> np.ndarray:
    """Answer a batch with one call of ``test`` per row, dummies left out."""
    rows, n_eff = _checked_rows(u, rows, n_eff, size)
    rows = rows.tolist()
    if n_eff > size:
        rows = [[v for v in row if v < size] for row in rows]
    return np.fromiter((test(u, row) for row in rows), dtype=bool, count=len(rows))


class InstanceOracle(GroupTestOracle):
    """Oracle backed by a concrete :class:`TotalOrderInstance`."""

    def __init__(self, instance: TotalOrderInstance):
        self._instance = instance
        self._ranks = instance.ranks
        self.size = instance.n

    @property
    def instance(self) -> TotalOrderInstance:
        return self._instance

    @cached_property
    def _rank_list(self) -> list[int]:
        # only short tests read ranks as Python ints; built on first use
        return self._ranks.tolist()

    # Both tests come from one body with the direction bound when the
    # class is built, so a query pays no extra call.  The short-set loop
    # keeps its comparison inline in each direction: a direction test per
    # element would slow the short single tests, the condition tests of
    # the min-finding in selection's candidate draw.
    def _direction(left: bool):
        def test(self, u: int, V: IdSet) -> bool:
            ids = _checked_ids(u, V, self.size)
            if isinstance(ids, np.ndarray):
                ru = self._ranks[u]
                ranks = self._ranks[ids]
                return bool((ranks >= ru).any() if left else (ranks <= ru).any())
            rl = self._rank_list
            ru = rl[u]
            if left:
                for v in ids:
                    if rl[v] >= ru:
                        return True
            else:
                for v in ids:
                    if rl[v] <= ru:
                        return True
            return False
        return test

    left_test = _direction(True)
    right_test = _direction(False)
    del _direction

    def _batch(self, u: int, rows: np.ndarray, n_eff: int, left: bool) -> np.ndarray:
        # count each row's hits with one gather from a 0/1 hit table
        # (dummy slots 0) and one matrix-vector product: numpy's
        # any(axis=1) pays a loop per row on short rows.  float32 halves
        # the gather and stays exact where it matters: a sum of 0/1
        # addends is positive iff some addend is 1, at any precision and
        # in any summation order (rounding never takes a positive sum
        # back to 0).  uint8/uint16 sums would wrap to 0
        rows, n_eff = _checked_rows(u, rows, n_eff, self.size)
        ranks = self._ranks
        hit = np.zeros(n_eff, dtype=np.float32)
        (np.greater_equal if left else np.less_equal)(ranks, ranks[u], out=hit[: self.size])
        return hit[rows] @ np.ones(rows.shape[1], dtype=np.float32) > 0

    def left_test_batch(self, u: int, rows: np.ndarray, n_eff: int) -> np.ndarray:
        return self._batch(u, rows, n_eff, True)

    def right_test_batch(self, u: int, rows: np.ndarray, n_eff: int) -> np.ndarray:
        return self._batch(u, rows, n_eff, False)

    def _descent(self, u: int, arr: np.ndarray, left: bool) -> int:
        # every level of the descent tests a slice of arr, so one gather
        # finds the first hit, which is where the descent ends
        arr = _checked_descent(u, arr, self.size)
        ranks = self._ranks
        ru = ranks[u]
        gathered = ranks[arr]
        hits = gathered >= ru if left else gathered <= ru
        first = int(hits.argmax())
        return first if hits[first] else arr.size - 1

    def left_descent(self, u: int, arr: np.ndarray) -> int:
        return self._descent(u, arr, True)

    def right_descent(self, u: int, arr: np.ndarray) -> int:
        return self._descent(u, arr, False)


class CountingOracle(GroupTestOracle):
    """Pass-through adapter that counts every query in a fresh ledger."""

    def __init__(self, inner: GroupTestOracle):
        self._inner = inner
        self.ledger = QueryLedger()
        self.size = inner.size

    def left_test(self, u: int, V: IdSet) -> bool:
        self.ledger.left_count += 1
        return self._inner.left_test(u, V)

    def right_test(self, u: int, V: IdSet) -> bool:
        self.ledger.right_count += 1
        return self._inner.right_test(u, V)

    def left_test_batch(self, u: int, rows: np.ndarray, n_eff: int) -> np.ndarray:
        self.ledger.left_count += len(rows)
        return self._inner.left_test_batch(u, rows, n_eff)

    def right_test_batch(self, u: int, rows: np.ndarray, n_eff: int) -> np.ndarray:
        self.ledger.right_count += len(rows)
        return self._inner.right_test_batch(u, rows, n_eff)

    # a descent over m ids asks ceil(log2 m) tests, however it is answered
    def left_descent(self, u: int, arr: np.ndarray) -> int:
        self.ledger.left_count += (len(arr) - 1).bit_length()
        return self._inner.left_descent(u, arr)

    def right_descent(self, u: int, arr: np.ndarray) -> int:
        self.ledger.right_count += (len(arr) - 1).bit_length()
        return self._inner.right_descent(u, arr)


class _ReversedOracle(GroupTestOracle):
    """View of an oracle under the reversed order: left and right swap."""

    def __init__(self, inner: GroupTestOracle):
        self._inner = inner
        self.size = inner.size

    def left_test(self, u: int, V: IdSet) -> bool:
        return self._inner.right_test(u, V)

    def right_test(self, u: int, V: IdSet) -> bool:
        return self._inner.left_test(u, V)

    def left_test_batch(self, u: int, rows: np.ndarray, n_eff: int) -> np.ndarray:
        return self._inner.right_test_batch(u, rows, n_eff)

    def right_test_batch(self, u: int, rows: np.ndarray, n_eff: int) -> np.ndarray:
        return self._inner.left_test_batch(u, rows, n_eff)

    def left_descent(self, u: int, arr: np.ndarray) -> int:
        return self._inner.right_descent(u, arr)

    def right_descent(self, u: int, arr: np.ndarray) -> int:
        return self._inner.left_descent(u, arr)


def reversed_view(oracle: GroupTestOracle) -> GroupTestOracle:
    """Oracle for the reversed order; rank r becomes size - r + 1.

    Reversing twice unwraps back to the original oracle.
    """
    if isinstance(oracle, _ReversedOracle):
        return oracle._inner
    return _ReversedOracle(oracle)


def counted(oracle: GroupTestOracle) -> tuple[GroupTestOracle, QueryLedger]:
    """The oracle an algorithm should query, and the ledger that counts it.

    A :class:`CountingOracle`, passed bare or under one reversed view, is
    reused as it is, so nested calls count into one ledger; any other
    oracle gets exactly one new counting adapter.
    """
    below = oracle._inner if isinstance(oracle, _ReversedOracle) else oracle
    if isinstance(below, CountingOracle):
        return oracle, below.ledger
    counting = CountingOracle(oracle)
    return counting, counting.ledger
