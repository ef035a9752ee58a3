"""Group-test oracle interface and composable adapters.

A group test is a one-to-many order query against a hidden total order:

* left test   ``u <=_Q V``  is true iff some v in V satisfies u <= v,
* right test  ``V <=_Q u``  is true iff some v in V satisfies v <= u.

``<=`` is reflexive and the order is strict on ranks, so singleton tests
against u itself are always true.  An empty V answers false (an empty
existential).  Answers are noiseless functions of the hidden order.

An oracle has three query methods, one per op, and each takes its
direction as an argument, ``left`` for the left test and ``not left``
for the right one: a subclass defines ``test(u, V, left)``, and
``test_batch`` and ``walk`` default to asking it per row or level.  V
may be any collection of integer ids; it is checked into one 1-D
integer array, and :class:`InstanceOracle` answers every single test
and walk from one gather of the ranks of such an array.

``test_batch(u, rows, n_eff, left)`` asks one test per row of a 2-D id
array, for non-adaptive tests whose sets are all drawn before any answer
is read.  Ids in size..n_eff-1 are dummy slots that satisfy neither test.
They are the library's one padding mechanism: the threshold test pads its
universe with dummies above every real element, which no right test hits.
The base class answers row by row through the single tests;
:class:`InstanceOracle` marks each id of the padded universe that
satisfies the test in a 0/1 hit table, then counts each row's hits with
one gather from that table and one matrix-vector product, and answers
true where the count is positive.

Min-finding's swap is a binary descent over an id array: one test per
level on the occupied left half of the current range, ceil(log2 m) in
all, so it ends at the first position whose id satisfies the test, or
at m - 1 if none does.  :func:`_descend` asks the levels one at a time.

``walk(u, arr, left)`` is a whole min-finding run over one order.  Its
first test asks whether any id of arr satisfies the test against u; if
none does the walk returns ``[]``, at a cost of that one query.  Else
each round descends over arr to its end p, tests w = arr[p] against the
other ids plus the subject, and swaps the subject into slot p of a
private copy, w becoming the subject, while that test answers true.  It
then returns the rounds' ends, which strictly increase: the records of
the order that beat u, at a cost of 1 + rounds * (ceil(log2 m) + 1)
queries.  A round that ends at or before the one before it (a record
that ties, from a repeated id, or an inconsistent oracle) breaks the
walk, which then returns ``None``.  The base class asks the first test
and then each round level by level and its test; :class:`InstanceOracle`
finds every end from one gather, and the line protocol's ``WL``/``WR``
op in one line.  The last record is the first extreme of the order, so
:class:`InstanceOracle` scans for records only up to it, and past it
only for a tie of it.

Adapters compose around a base oracle:

* :class:`CountingOracle` records how many queries of each kind were made,
* :func:`reversed_view` swaps the direction of every test.

All oracles are immutable after construction; only the counting adapter's
ledger mutates.  Every algorithm counts its own queries in a
:class:`CountingOracle` around the oracle it is given, and reverses the
order only above that adapter, so its ledger holds the left and right
tests that oracle answered.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import InvalidParameterError, check_integer, is_integer_type
from .order import TotalOrderInstance

IdSet = Union[Sequence[int], np.ndarray, set, frozenset]


class GroupTestOracle(ABC):
    """Query interface over a universe of ids 0..size-1; see the module."""

    size: int

    @abstractmethod
    def test(self, u: int, V: IdSet, left: bool) -> bool:
        """True iff some v in V satisfies u <= v (``left``) or v <= u."""

    def test_batch(self, u: int, rows: np.ndarray, n_eff: int, left: bool) -> np.ndarray:
        """One test per row of ``rows``, as a boolean array.

        ``rows`` is a 2-D array of ids in 0..n_eff-1; ids from ``size`` on
        are dummy slots that satisfy neither test.  Each row costs one
        group test, asked here as one single test with the dummies left
        out.
        """
        rows, _ = _checked_rows(u, rows, n_eff, self.size)
        size = self.size
        return np.fromiter((self.test(u, row[row < size], left) for row in rows),
                           dtype=bool, count=len(rows))

    def walk(self, u: int, arr: np.ndarray, left: bool) -> list[int] | None:
        """Where the rounds of a walk over ``arr`` from u end, ``[]`` if no id
        beats u, ``None`` if the walk breaks (module docstring): its first
        test, then ceil(log2 m) + 1 tests a round, asked as
        :func:`_descend`'s and one more."""
        arr = _checked_descent(u, arr, self.size).astype(np.int64)  # the copy it swaps in
        ends: list[int] = []
        if not self.test(u, arr, left):
            return ends
        while True:
            p = _descend(self, u, arr, left)
            if ends and p <= ends[-1]:
                return None
            ends.append(p)
            w = int(arr[p])
            if not self.test(w, np.append(np.delete(arr, p), u), left):
                return ends
            arr[p], u = u, w


@dataclass(slots=True)
class QueryLedger:
    """Exact count of left/right group tests consumed by a run."""

    left_count: int = 0
    right_count: int = 0

    @property
    def total(self) -> int:
        return self.left_count + self.right_count


def _id_array(ids, ndim: int, bound: int | None = None) -> tuple[np.ndarray, int | None]:
    """``ids`` as an ``ndim``-D integer array (any dtype if it holds no id)
    and its largest id: -1 if there is none, None if no ``bound`` is given.

    A collection that is not an array is checked once per distinct element
    type and read as int64: ``np.asarray`` reads ids mixing ``np.uint64``
    with other integers as float64.  With a bound, every id must lie in
    0..bound-1.  One pass over the bytes read as unsigned, in the array's
    own byte order, finds the largest id; read so, a negative id of b bits
    lies at 2**(b-1) or above.
    """
    arr = ids
    if not isinstance(arr, np.ndarray):
        arr = np.array(arr, dtype=object)
        if arr.ndim == ndim:
            if not all(map(is_integer_type, set(map(type, arr.flat)))):
                raise InvalidParameterError("element ids must be integers")
            try:
                arr = arr.astype(np.int64)
            except OverflowError:
                raise InvalidParameterError("element id outside the int64 range") from None
    if arr.ndim != ndim or (arr.size and arr.dtype.kind not in "iu"):
        raise InvalidParameterError(
            f"ids must be a {ndim}-D integer array, got shape {arr.shape} of {arr.dtype}")
    if not arr.size:
        return arr.astype(np.intp), -1
    if bound is None:
        return arr, None
    dtype = arr.dtype
    top = int(arr.view(dtype.str.replace("i", "u")).max())
    if top >= bound or (dtype.kind == "i" and top >> (8 * dtype.itemsize - 1)):
        raise InvalidParameterError(f"id outside 0..{bound - 1}")
    return arr, top


def _check_subject(u: int, size: int) -> None:
    """Check that the subject u is an integer id in 0..size-1.  Every
    group test checks one, so a Python int skips the full rule's calls."""
    if not (type(u) is int and 0 <= u < size):
        check_integer("subject", u, 0, size - 1)


def _checked_ids(u: int, V: IdSet, size: int) -> np.ndarray:
    """Check a single test: u and every id of V in 0..size-1, and V, if a
    numpy array, a 1-D integer one.  Returns V as a 1-D integer array."""
    if isinstance(V, (set, frozenset)):
        V = tuple(V)  # a single test, unlike a descent, takes unordered ids
    V, _ = _id_array(V, 1, size)
    _check_subject(u, size)
    return V


def _checked_rows(u: int, rows: np.ndarray, n_eff: int,
                  size: int) -> tuple[np.ndarray, int]:
    """Check a batch: u in 0..size-1, n_eff >= size, and ``rows`` a 2-D
    integer array of ids in 0..n_eff-1.  Returns the rows and the padded
    size to answer them with.  Past n_eff = 2 * size every dummy id
    comes back as ``size`` and the padded size as size + 1, so no hit
    table or id token need span a huge padded universe."""
    check_integer("padded size", n_eff, size)
    rows, top = _id_array(rows, 2, n_eff)
    _check_subject(u, size)
    if n_eff > 2 * size:
        # every dummy slot answers alike, so slot ``size`` stands for all
        if top >= size:
            rows = np.minimum(rows, size)
        n_eff = size + 1
    return rows, n_eff


def _checked_descent(u: int, arr: np.ndarray, size: int) -> np.ndarray:
    """Check a descent: u in 0..size-1 and ``arr`` a nonempty 1-D integer
    array of ids in 0..size-1."""
    arr, _ = _id_array(arr, 1, size)
    if not arr.size:
        raise InvalidParameterError("a descent needs at least one id")
    _check_subject(u, size)
    return arr


def _descend(oracle: GroupTestOracle, u: int, arr: np.ndarray, left: bool) -> int:
    """Where a descent over ``arr``, a checked nonempty 1-D id array, ends
    (module docstring), asked as one ``oracle.test`` per level: each of
    the ceil(log2 m) levels tests the occupied left half of the current
    power-of-two index range, and moves right when it answers false."""
    m = arr.size
    lo = 0
    span = 1 << (m - 1).bit_length()
    while span > 1:
        half = span >> 1
        if not oracle.test(u, arr[lo : min(lo + half, m)], left):
            lo += half
        span = half
    return min(lo, m - 1)


class InstanceOracle(GroupTestOracle):
    """Oracle backed by a concrete :class:`TotalOrderInstance`."""

    def __init__(self, instance: TotalOrderInstance):
        self._instance = instance
        self._ranks = instance.ranks
        self.size = instance.n

    @property
    def instance(self) -> TotalOrderInstance:
        return self._instance

    # count_nonzero skips the per-call setup of a ufunc reduction such as any()
    def test(self, u: int, V: IdSet, left: bool) -> bool:
        ranks = self._ranks
        found = ranks[_checked_ids(u, V, self.size)]
        compare = np.greater_equal if left else np.less_equal
        return bool(np.count_nonzero(compare(found, ranks[u])))

    def test_batch(self, u: int, rows: np.ndarray, n_eff: int, left: bool) -> np.ndarray:
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

    def walk(self, u: int, arr: np.ndarray, left: bool) -> list[int] | None:
        # a round ends at each record beating u, and none means the first
        # test answers no; a record that ties (a repeated id) breaks the
        # walk.  No record lies past the first extreme but a tie of it, so
        # the scan stops there and checks the rest for that tie alone
        found = self._ranks[_checked_descent(u, arr, self.size)]
        ru = int(self._ranks[u])
        if left:
            extreme, last = np.maximum, int(found.argmax())
        else:
            extreme, last = np.minimum, int(found.argmin())
        top = int(found[last])
        if top < ru if left else top > ru:
            return []
        head = found[: last + 1]
        records = (head == extreme.accumulate(head)).nonzero()[0]
        # the records only rise (fall), so those beating u are the last ones
        values = head[records].tolist()
        first = 0
        while values[first] < ru if left else values[first] > ru:
            first += 1
        values = values[first:]
        sound = (values[0] != ru and len(set(values)) == len(values)
                 and not np.count_nonzero(found[last + 1:] == top))
        return records[first:].tolist() if sound else None


class CountingOracle(GroupTestOracle):
    """Pass-through adapter that counts every query in a fresh ledger."""

    def __init__(self, inner: GroupTestOracle):
        self._inner = inner
        self.ledger = QueryLedger()
        self.size = inner.size

    def _count(self, left: bool, queries: int) -> None:
        if left:
            self.ledger.left_count += queries
        else:
            self.ledger.right_count += queries

    # each query is counted once the oracle below has answered it, so a
    # query it rejects costs nothing
    def test(self, u: int, V: IdSet, left: bool) -> bool:
        answer = self._inner.test(u, V, left)
        self._count(left, 1)
        return answer

    def test_batch(self, u: int, rows: np.ndarray, n_eff: int, left: bool) -> np.ndarray:
        answers = self._inner.test_batch(u, rows, n_eff, left)
        self._count(left, len(rows))
        return answers

    # a walk is its first test and then a descent and one test a round,
    # however they are answered; a broken walk counts its first test
    def walk(self, u: int, arr: np.ndarray, left: bool) -> list[int] | None:
        ends = self._inner.walk(u, arr, left)
        self._count(left, 1 + len(ends or ()) * ((len(arr) - 1).bit_length() + 1))
        return ends


class _ReversedOracle(GroupTestOracle):
    """View of an oracle under the reversed order: left and right swap."""

    def __init__(self, inner: GroupTestOracle):
        self._inner = inner
        self.size = inner.size

    def test(self, u: int, V: IdSet, left: bool) -> bool:
        return self._inner.test(u, V, not left)

    def test_batch(self, u: int, rows: np.ndarray, n_eff: int, left: bool) -> np.ndarray:
        return self._inner.test_batch(u, rows, n_eff, not left)

    def walk(self, u: int, arr: np.ndarray, left: bool) -> list[int] | None:
        return self._inner.walk(u, arr, not left)


def reversed_view(oracle: GroupTestOracle) -> GroupTestOracle:
    """Oracle for the reversed order; rank r becomes size - r + 1.

    Reversing twice unwraps back to the original oracle.
    """
    if isinstance(oracle, _ReversedOracle):
        return oracle._inner
    return _ReversedOracle(oracle)
