"""Exact integer and rational building blocks.

Everything downstream reduces to three ingredients: binomial coefficients
with out-of-range indices treated as zero, Bernoulli numbers at even index,
and compositions of an integer into a fixed number of non-negative parts.
All arithmetic is over arbitrary-precision rationals; nothing in this module
touches floating point.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb
from typing import Iterator

Rational = Fraction

__all__ = [
    "Rational",
    "binom",
    "BernoulliCache",
    "bernoulli",
    "composition_tuples",
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


def bernoulli(index: int, cache: BernoulliCache | None = None) -> Fraction:
    """B_index for even index >= 0, from ``cache`` (default: shared)."""
    return (cache or _SHARED_CACHE).get(index)


def clear_caches() -> None:
    """Start the shared Bernoulli table over from B_0, as in a fresh process
    (so a timing run pays for the table). A reader already inside the old
    table finishes on it undisturbed."""
    global _SHARED_CACHE
    _SHARED_CACHE = BernoulliCache()


def composition_tuples(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` non-negative integers summing to ``total``.

    Emitted in colexicographic order: the last part varies slowest in
    reverse, i.e. reading each tuple right-to-left gives lexicographically
    increasing sequences. Deterministic order keeps downstream sums
    reproducible term by term.
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
