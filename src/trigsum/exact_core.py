"""Exact integer and rational building blocks.

Everything downstream reduces to four ingredients: the binomial window
binom(2m, m - p*n), p = floor(m/n)..0, walked up from binom(2m, m mod n)
to the central binomial, that every power-sum closed form sums with its
own weights; the residue row of (1 + x)^e mod (x^L - 1) for one e, built
by squaring one Kronecker-packed integer (residue_row), whose entries are
the same window sums over all p at once and which the closed forms read
where it is cheaper than the window; the window sums for every j = 0, 1,
2, ... in turn, read off the rows of (1 + x)^{2j} mod (x^n - 1) at O(n)
additions a row (scaled_power_sums); and Bernoulli numbers at even index.
All arithmetic is over arbitrary-precision rationals; nothing in this
module touches floating point.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, perm
from itertools import count
from operator import add
from typing import Iterator

from .errors import CostGuardError, ParameterError, check_int
from .families import MAX_M, MAX_N

Rational = Fraction

# Cost guards on binom and on the Bernoulli table (bernoulli and
# BernoulliCache.get), at the largest argument a valid request passes:
# binom(2m, m) at m = MAX_M, and B_{2n} at n = MAX_N, the last coefficient
# of the cot polynomial's series B(x)^{2n}. At these bounds
# comb(2 * 10^5, 10^5) took 0.75 s and a fresh table to B_200 22 ms, where
# B_2000 took 32 s (2-vCPU Xeon VM). Larger arguments raise CostGuardError.
MAX_BINOM_N = 2 * MAX_M
MAX_BERNOULLI_INDEX = 2 * MAX_N
# Cost guard on residue_row: L slots of e + 1 bits, 2 MiB packed. A row
# this size (L = 64) took 10.6 s, where the row C(10^5, 7) reads (L = 7,
# e = 10^5) took 0.07 s. A closed form reads a row only where the cost
# model of closed_forms prices it below the window, and every window up to
# MAX_M is priced below any row past this guard.
MAX_ROW_BITS = 2**24

__all__ = [
    "MAX_BERNOULLI_INDEX",
    "MAX_BINOM_N",
    "Rational",
    "binom",
    "binom_window",
    "residue_row",
    "scaled_power_sums",
    "BernoulliCache",
    "bernoulli",
]


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with C(n, k) = 0 for k < 0 or k > n.

    The zero convention is what lets truncated tail sums like
    sum_p C(2m, m - p*n) be written without explicit range clipping.
    """
    check_int("n", n)
    check_int("k", k)
    if n < 0:
        raise ParameterError("binom requires n >= 0")
    if n > MAX_BINOM_N:
        raise CostGuardError(f"n must be <= {MAX_BINOM_N} (cost guard)")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def binom_window(m: int, n: int) -> Iterator[int]:
    """binom(2m, m - p*n) for p = floor(m/n), ..., 1, 0, central term last.

    The walk starts at binom(2m, m mod n), whose k < n, and takes one exact
    step a term, binom(2m, k + n) = binom(2m, k) * perm(2m - k, n) //
    perm(k + n, n), so a window of many steps never computes comb(2m, m).
    A window of one step (n <= m < 2n) reads both terms with comb instead:
    its step would multiply out two products of n factors, about twice
    the cost of comb(2m, m) when n is close to m. The terms are yielded
    one at a time: the whole window at m = 10^5, n = 1 would hold
    gigabytes. The arguments are checked once, when the first term is
    taken; 2m past MAX_BINOM_N raises CostGuardError, as binom does.
    """
    check_int("m", m)
    check_int("n", n)
    if m < 0 or n < 1:
        raise ParameterError("binom_window requires m >= 0 and n >= 1")
    if 2 * m > MAX_BINOM_N:
        raise CostGuardError(f"2m must be <= {MAX_BINOM_N} (cost guard)")
    two_m = 2 * m
    if m // n == 1:
        yield comb(two_m, m - n)
        yield comb(two_m, m)
        return
    current = comb(two_m, m % n)
    yield current
    for k in range(m % n, m, n):  # binom(2m, k) -> binom(2m, k + n)
        current = current * perm(two_m - k, n) // perm(k + n, n)
        yield current


def residue_row(e: int, L: int) -> tuple[int, ...]:
    """The coefficients of (1 + x)^e mod (x^L - 1): entry r is the sum of
    binom(e, i) over i = r (mod L), r < L.

    Square and multiply on one Kronecker-packed integer: entry r sits in
    slot r, ``width`` bytes wide. Squaring the integer squares the row as a
    polynomial, and its 2L - 1 slots fold onto L by adding the integer's
    top L slots to its bottom L; times (1 + x) adds the integer shifted up
    one slot, folded the same way. No slot carries into the next: the
    unfolded product that reaches (1 + x)^k sums to 2^k, so none of its
    slots exceeds 2^k, and each squaring first widens the slots to k + 1
    bits or more. The widening slices the integer's bytes (shifting the
    slots out one by one was 3-10x slower). The row holds O(L * e) bits and
    costs about 3^{log2(L * e)} word products, most of them in the last
    squaring.
    """
    check_int("e", e)
    check_int("L", L)
    if e < 0 or L < 1:
        raise ParameterError("residue_row requires e >= 0 and L >= 1")
    if L * (e + 1) > MAX_ROW_BITS:
        raise CostGuardError(f"L * (e + 1) must be <= {MAX_ROW_BITS} (cost guard)")
    packed, width, k = 1, 1, 0  # (1 + x)^0, one byte a slot
    for bit in bin(e)[2:]:
        k = 2 * k + (bit == "1")
        if k >= 8 * width:  # widen every slot to k + 1 bits or more
            raw = packed.to_bytes(L * width, "little")
            pad = bytes(k // 8 + 1 - width)
            packed = int.from_bytes(pad.join(raw[r : r + width] for r in range(0, len(raw), width)), "little")
            width += len(pad)
        bits = 8 * width * L
        low = (1 << bits) - 1
        packed *= packed
        packed = (packed & low) + (packed >> bits)
        if bit == "1":
            packed += packed << 8 * width
            packed = (packed & low) + (packed >> bits)
    raw = packed.to_bytes(L * width, "little")
    return tuple(int.from_bytes(raw[r : r + width], "little") for r in range(0, len(raw), width))


def scaled_power_sums(kind: str, n: int) -> Iterator[int]:
    """4^j * X(j, n) / n for j = 0, 1, 2, ..., X = C for kind "cos" and S
    for "sin": the whole window sum_p e_p * binom(2j, j + p*n) over all
    integers p, e_p = 1 for C and (-1)^{p*n} for S.

    While j < n the window is its central term binom(2j, j), each from the
    one before by one ratio step. From j = n on the sums are read off the
    residue rows of _residue_rows mod (x^L - 1): with L = n the window sum
    is row_j[j mod n]. S at odd n weights p by (-1)^p, so L = 2n and the sum
    is row_j[j mod 2n] - row_j[(j + n) mod 2n]; at even n, S is C.

    The iterator never ends; the caller takes what it needs. No row is
    built before j = n, so a caller that stops below n pays nothing for a
    large n, and one that reads to j >= n holds rows of at most 2j entries.
    The arguments are checked once, when the first term is taken.
    """
    check_int("n", n)
    if kind not in ("cos", "sin"):
        raise ParameterError("kind must be 'cos' or 'sin'")
    if n < 1:
        raise ParameterError("scaled_power_sums requires n >= 1")
    central = 1
    for j in range(n):
        yield central
        central = central * 2 * (2 * j + 1) // (j + 1)
    period = 2 * n if kind == "sin" and n % 2 else n
    for j, row in zip(count(n), _residue_rows(n, period)):
        yield row[j % period] - (row[(j + n) % period] if period > n else 0)


def _residue_rows(start: int, period: int) -> Iterator[tuple[int, ...]]:
    """Rows j = start, start + 1, ... of the coefficients of (1 + x)^{2j}
    mod (x^period - 1): entry r is the sum of binom(2j, i) over
    i = r (mod period).

    The first row is folded from the binomials of 2*start; each next row is
    the one before times (1 + x)^2, R'_r = R_r + 2*R_{r-1} + R_{r-2} with
    indices mod period (the closed-walk recurrence of the period-cycle with
    a weight-2 loop at every vertex). A row costs 2*period big-integer
    additions, where a fresh window at j costs O(j^2) bit operations.
    """
    first = [0] * period
    term = 1
    for i in range(2 * start + 1):
        first[i % period] += term
        term = term * (2 * start - i) // (i + 1)
    row = tuple(first)
    while True:
        yield row
        for _ in range(2):  # times (1 + x), twice
            row = tuple(map(add, row, row[-1:] + row[:-1]))


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
        check_int("index", index)
        if index < 0 or index % 2:
            raise ParameterError("BernoulliCache holds even indices only")
        if index > MAX_BERNOULLI_INDEX:
            raise CostGuardError(f"index must be <= {MAX_BERNOULLI_INDEX} (cost guard)")
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
            acc += comb(2 * m + 1, 2 * i) * self._even[i]
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
