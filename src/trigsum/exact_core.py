"""Exact integer and rational building blocks.

Everything downstream reduces to two ingredients: the binomial window
binom(2m, m - p*n), p = 0..floor(m/n), that every power-sum closed form
sums with its own weights, and Bernoulli numbers at even index. All
arithmetic is over arbitrary-precision rationals; nothing in this module
touches floating point.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, prod
from typing import Iterator

Rational = Fraction

__all__ = [
    "Rational",
    "binom",
    "binom_window",
    "BernoulliCache",
    "bernoulli",
]


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with C(n, k) = 0 for k < 0 or k > n.

    The zero convention is what lets truncated tail sums like
    sum_p C(2m, m - p*n) be written without explicit range clipping.
    """
    if n < 0:
        raise ValueError("binom requires n >= 0")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def binom_window(m: int, n: int) -> Iterator[int]:
    """binom(2m, m - p*n) for p = 0, 1, ..., floor(m/n), central term first.

    Each term comes from the one before it by n exact ratio steps
    binom(2m, k-1) = binom(2m, k) * k / (2m - k + 1), far cheaper at large
    m than independent binomials. The terms are yielded one at a time: the
    whole window at m = 10^5, n = 1 would hold gigabytes.
    """
    if m < 0 or n < 1:
        raise ValueError("binom_window requires m >= 0 and n >= 1")
    two_m = 2 * m
    current = comb(two_m, m)
    yield current
    for k in range(m, n - 1, -n):  # binom(2m, k) -> binom(2m, k - n)
        current = current * prod(range(k - n + 1, k + 1)) // prod(
            range(two_m - k + 1, two_m - k + n + 1)
        )
        yield current


class BernoulliCache:
    """Append-only table of Bernoulli numbers at even index.

    ``get(2j)`` returns B_{2j} as an exact rational, extending the table on
    demand via the defining recurrence

        sum_{k=0}^{2m} C(2m+1, k) B_k = 0,

    solved for B_{2m} with the single odd contribution B_1 = -1/2 folded in
    (all other odd-index values vanish). Extension happens under a lock so a
    shared cache is safe across threads; entries are never mutated once set.
    """

    def __init__(self) -> None:
        self._even: list[Fraction] = [Fraction(1)]  # B_0
        self._lock = threading.Lock()

    def get(self, index: int) -> Fraction:
        if index < 0 or index % 2:
            raise ValueError("BernoulliCache holds even indices only")
        j = index // 2
        if j >= len(self._even):
            with self._lock:
                while len(self._even) <= j:
                    self._append_next()
        return self._even[j]

    def _append_next(self) -> None:
        m = len(self._even)  # computing B_{2m}
        acc = Fraction(2 * m + 1, -2)  # C(2m+1, 1) * B_1
        for i in range(m):
            acc += binom(2 * m + 1, 2 * i) * self._even[i]
        self._even.append(-acc / (2 * m + 1))

    @property
    def table(self) -> tuple[Fraction, ...]:
        return tuple(self._even)

    def __len__(self) -> int:
        return len(self._even)


_SHARED_CACHE = BernoulliCache()


def bernoulli(index: int) -> Fraction:
    """B_index for even index >= 0, from the shared table."""
    return _SHARED_CACHE.get(index)


def clear_caches() -> None:
    """Start the shared Bernoulli table over from B_0, as in a fresh process
    (so a timing run pays for the table). A reader already inside the old
    table finishes on it undisturbed."""
    global _SHARED_CACHE
    _SHARED_CACHE = BernoulliCache()
