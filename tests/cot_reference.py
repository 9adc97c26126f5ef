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
from typing import Iterator

from trigsum.exact_core import bernoulli

# which composition slot carries the power of k: j_1, j_{2n}, or the
# dependent remainder j_0 = n - (sum of the others)
SLOTS = ("first", "last", "remainder")


def composition_tuples(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` non-negative integers summing to ``total``.

    Emitted in colexicographic order: the last part varies slowest in
    reverse, i.e. reading each tuple right-to-left gives lexicographically
    increasing sequences. Deterministic order keeps the sums reproducible
    term by term.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if parts <= 0:
        raise ValueError("parts must be positive")
    if parts == 1:
        yield (total,)
        return
    for last in range(total + 1):
        for head in composition_tuples(total - last, parts - 1):
            yield head + (last,)


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
