"""Group-test oracle interface and composable adapters.

A group test is a one-to-many order query against a hidden total order:

* left test   ``u <=_Q V``  is true iff some v in V satisfies u <= v,
* right test  ``V <=_Q u``  is true iff some v in V satisfies v <= u.

``<=`` is reflexive and the order is strict on ranks, so singleton tests
against u itself are always true.  An empty V answers false (an empty
existential).  Answers are noiseless functions of the hidden order.

Adapters compose around a base oracle:

* :class:`CountingOracle` records how many queries of each kind were made,
* :func:`reversed_view` swaps the direction of every test,
* :func:`padded_view` extends the universe with maximal dummy elements so
  a divisor divides the universe size.

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
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import InvalidParameterError
from .order import TotalOrderInstance

IdSet = Union[Sequence[int], np.ndarray, set, frozenset]

# Above this size the numpy fancy-index path beats a Python loop.
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


def _checked_ids(u: int, V: IdSet, size: int) -> IdSet:
    """Check that u and every id of V lie in 0..size-1.

    Returns V itself when it is a numpy array long enough for the vector
    path, and V as a Python sequence otherwise.
    """
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


class InstanceOracle(GroupTestOracle):
    """Oracle backed by a concrete :class:`TotalOrderInstance`."""

    def __init__(self, instance: TotalOrderInstance):
        self._instance = instance
        self._ranks = instance.ranks
        self._rank_list = instance.ranks.tolist()
        self.size = instance.n

    @property
    def instance(self) -> TotalOrderInstance:
        return self._instance

    # Both tests come from one body with the direction bound when the
    # class is built, so a query pays no extra call.  The short-row loop
    # keeps its comparison inline in each direction: a direction test per
    # element would slow the short rows that selection sends.
    def _direction(left: bool):
        def test(self, u: int, V: IdSet) -> bool:
            ids = _checked_ids(u, V, self.size)
            rl = self._rank_list
            ru = rl[u]
            if isinstance(ids, np.ndarray):
                ranks = self._ranks[ids]
                return bool((ranks >= ru).any() if left else (ranks <= ru).any())
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


class _ReversedOracle(GroupTestOracle):
    """View of an oracle under the reversed order: left and right swap."""

    def __init__(self, inner: GroupTestOracle):
        self._inner = inner
        self.size = inner.size

    def left_test(self, u: int, V: IdSet) -> bool:
        return self._inner.right_test(u, V)

    def right_test(self, u: int, V: IdSet) -> bool:
        return self._inner.left_test(u, V)


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


class _PaddedOracle(GroupTestOracle):
    """Universe extended with dummy ids that sit above every real element.

    Dummies occupy ids n..size-1 and are mutually ordered by id, so the
    padded order stays total.  Queries that only involve real elements
    are forwarded to the inner oracle with dummies filtered out.
    """

    def __init__(self, inner: GroupTestOracle, size: int):
        self._inner = inner
        self._n_real = inner.size
        self.size = size

    def _direction(left: bool):
        def test(self, u: int, V: IdSet) -> bool:
            ids = _checked_ids(u, V, self.size)
            nr = self._n_real
            if u >= nr:
                # u is a dummy: reals are strictly below it, dummies compare by id
                return any(v >= u for v in ids) if left else any(v <= u for v in ids)
            reals = [v for v in ids if v < nr]
            if left and len(reals) < len(ids):
                return True  # every dummy is above every real u
            if not reals:
                return False
            inner = self._inner
            return inner.left_test(u, reals) if left else inner.right_test(u, reals)
        return test

    left_test = _direction(True)
    right_test = _direction(False)
    del _direction


def padded_view(oracle: GroupTestOracle, divisor: int) -> GroupTestOracle:
    """Extend the universe so that divisor divides its size.

    Adds at most divisor - 1 dummy elements ranked above all real ones
    (and mutually ordered by id).  If the size already divides evenly the
    oracle is returned unchanged.
    """
    if divisor < 1:
        raise InvalidParameterError(f"divisor must be positive, got {divisor}")
    n = oracle.size
    padded = divisor * ((n + divisor - 1) // divisor)
    if padded == n:
        return oracle
    return _PaddedOracle(oracle, padded)
