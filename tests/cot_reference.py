"""Test-side reference for the integer-shift cotangent sum: the multi-index
Bernoulli expansion evaluated literally, by enumerating every composition.

    T(n, k) = (-1)^n * ( k - 4^n * sum k^{2*j_d} * prod_i BF(j_i) ),

the sum over all compositions (j_1, ..., j_{2n}, j_0) of n into 2n+1
non-negative parts, BF(j) = B_{2j}/(2j)!, with one distinguished part j_d
carrying the power of k. The package evaluates the same expansion as a
truncated power series; this enumeration costs binom(3n, 2n) terms, so it
is only for small n.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from trigsum.exact_core import bernoulli, composition_tuples

# which composition slot carries the power of k: j_1, j_{2n}, or the
# dependent remainder j_0 = n - (sum of the others)
SLOTS = ("first", "last", "remainder")


def _bf(j: int) -> Fraction:
    return bernoulli(2 * j) / factorial(2 * j)


@lru_cache(maxsize=None)
def _slot_weights(n: int, slot: str) -> tuple[Fraction, ...]:
    # weights[v] = sum of prod_i BF(j_i) over compositions with j_d = v
    d = {"first": 0, "last": 2 * n - 1, "remainder": 2 * n}[slot]
    weights = [Fraction(0)] * (n + 1)
    for parts in composition_tuples(n, 2 * n + 1):
        prod = Fraction(1)
        for j in parts:
            prod *= _bf(j)
        weights[parts[d]] += prod
    return tuple(weights)


def composition_sum(n: int, k: int, slot: str = "last") -> Fraction:
    """T(n, k) by the enumerated expansion, k-power on ``slot``."""
    total = sum(
        w * Fraction(k) ** (2 * v) for v, w in enumerate(_slot_weights(n, slot))
    )
    return (-1) ** n * (k - 4**n * total)
