"""Ground-truth total orders over integer element ids.

An instance assigns each id in 0..n-1 a distinct rank in 1..n.  The rank
array is the hidden truth that oracles answer about, and the brute-force
reference that tests use to verify algorithm output.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import check_integer


@dataclass(frozen=True)
class TotalOrderInstance:
    """A strict total order on ids 0..n-1, stored as a rank bijection."""

    n: int
    ranks: np.ndarray  # ranks[i] is the rank of element i, a permutation of 1..n

    def element_with_rank(self, r: int) -> int:
        check_integer("rank", r, 1, self.n)
        return int(np.nonzero(self.ranks == r)[0][0])


def make_instance(n: int, seed: int | ISeedSequence) -> TotalOrderInstance:
    """Create a uniformly random total order on n elements.

    The order is a pure function of the seed: the same (n, seed) pair
    always yields the same instance.  Seeds are taken modulo 2**64, so
    any integer, Python or numpy, signed included, is usable.  The seed
    may also be a numpy ``SeedSequence`` (any ``ISeedSequence``), as
    ``np.random.default_rng`` takes one: an integer seed gives the
    instance of ``SeedSequence(seed)``.
    """
    check_integer("n", n, 1)
    if not isinstance(seed, ISeedSequence):
        seed = operator.index(seed) & 0xFFFFFFFFFFFFFFFF
    ranks = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    ranks += 1
    return TotalOrderInstance(n=n, ranks=ranks)


def exact_rank(instance: TotalOrderInstance, x: int) -> int:
    """Rank of x, i.e. the number of elements y with y <= x (including x)."""
    check_integer("element id", x, 0, instance.n - 1)
    return int(instance.ranks[x])
