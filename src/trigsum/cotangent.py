"""Even cotangent power sums at rational multiples of pi.

Two sum shapes live here. The integer-shift sum

    T(n, k) = sum_{r=1}^{k-1} cot^{2n}(r*pi/k),   k >= 2,

has the multi-index Bernoulli expansion, with BF(j) = B_{2j}/(2j)!,

    T(n, k) = (-1)^n * ( k - 4^n * sum k^{2*j_d} * prod_i BF(j_i) )

where the sum runs over all compositions (j_1, ..., j_{2n}, j_0) of n into
2n+1 non-negative parts and j_d is one distinguished part carrying the
power of k. That sum is a Cauchy product: with B(x) = sum_j BF(j) x^j (the
even part of the Bernoulli generating function, (sqrt(x)/2)*coth(sqrt(x)/2)),
it equals [x^n] B(x)^{2n} * B(k^2 x), whichever part is distinguished. So
T(n, k) is a degree-2n polynomial in k whose coefficients are read off
directly:

    [k^{2i}] = -(-1)^n * 4^n * BF(i) * [x^{n-i}] B(x)^{2n},   i = 0..n,
    [k^1]    = (-1)^n,   every other odd coefficient 0.

The n+1 needed coefficients of B(x)^{2n} take one O(n^2) pass over exact
rationals, instead of the binom(3n, 2n) terms of the enumeration. n is
capped at MAX_N so no request runs unbounded.

The half-shift sum

    U(n, k) = sum_{r=1}^{k} cot^{2n}((r - 1/2)*pi/(2k)),   k >= 1,

has the closed form (-1)^n * k + sum_{j=1}^{n} b_{n,j} * k^{2j} with a
rational coefficient triangle b built by recursion. The widely circulated
statement of that closed form contains two transcription errors (sign
(-1)^k instead of (-1)^n, recursion denominator 2^{2(n-j)-1} instead of
2^{2(n-j)} - 1); the corrected triangle is kept, and the uncorrected one is
kept as a documented-erratum reproducer. A value of U is read off the T
polynomial instead, as (T(n, 4k) - T(n, 2k))/2, which equals the corrected
closed form (the tests hold the two equal). A literal reading of the
multi-index expansion with all indices strictly positive is likewise kept
only as a counterexample generator (the index set is empty, so it returns
(-1)^n * k, which is wrong for every n >= 1, k >= 2).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .errors import CostGuardError, ParameterError, Record, check_int, set_field
from .exact_core import Rational, bernoulli, binom
from .families import MAX_N, MAX_POWER_BITS, ByrneSmithParams, CotSumParams

__all__ = [
    "MAX_N",
    "MAX_POWER_BITS",
    "CotSumParams",
    "ByrneSmithParams",
    "CotPolynomial",
    "ByrneSmithCoefficients",
    "cot_power_sum",
    "cot_power_sum_all_positive",
    "cot_sum_polynomial",
    "byrne_smith_coefficients",
    "byrne_smith_coefficients_uncorrected",
    "byrne_smith_sum",
    "byrne_smith_sum_uncorrected",
]


class CotPolynomial(Record):
    """T(n, -) as a polynomial in k; coefficients[j] multiplies k**j."""

    __slots__ = ("n", "coefficients")

    def __init__(self, n: int, coefficients: tuple[Fraction, ...]) -> None:
        set_field(self, "n", n)
        set_field(self, "coefficients", coefficients)

    def __call__(self, k: int) -> Fraction:
        check_int("k", k)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * k + c
        return acc

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def denominator_lcm(self) -> int:
        """lcm of coefficient denominators: an exact denominator bound for
        every value of the sum."""
        return lcm(*(c.denominator for c in self.coefficients))


@lru_cache(maxsize=None)
def _bf(j: int) -> Fraction:
    # B_{2j}/(2j)!
    return bernoulli(2 * j) / factorial(2 * j)


def _series_power(n: int) -> list[Fraction]:
    """[x^0..x^n] of B(x)^{2n}, by J. C. P. Miller's recurrence for a power
    p of a series a with a_0 = 1:  c_0 = 1,
    c_m = (1/m) * sum_{j=1}^{m} ((p+1)*j - m) * a_j * c_{m-j}."""
    p = 2 * n
    c = [Fraction(1)]
    for m in range(1, n + 1):
        acc = sum(((p + 1) * j - m) * _bf(j) * c[m - j] for j in range(1, m + 1))
        c.append(acc / m)
    return c


@lru_cache(maxsize=None, typed=True)
def cot_sum_polynomial(n: int) -> CotPolynomial:
    """The degree-2n polynomial p with p(k) = T(n, k) for every k >= 2.

    Read off the truncated series B(x)^{2n} (see the module docstring),
    then checked against four elementary values: cot(r*pi/k) is 0, 1/sqrt3,
    1 or sqrt3 at the angles pi/2, pi/3, pi/4 and pi/6, so T(n, 2) = 0,
    T(n, 3) = 2/3^n, T(n, 4) = 2 and T(n, 6) = 2*3^n + 2/3^n.
    """
    CotSumParams(n, 2)  # checks n: k = 2 passes every guard on k
    sign = (-1) ** n
    power = _series_power(n)
    coeffs = [Fraction(0)] * (2 * n + 1)
    for i in range(n + 1):
        coeffs[2 * i] = -sign * 4**n * _bf(i) * power[n - i]
    coeffs[1] = Fraction(sign)
    poly = CotPolynomial(n=n, coefficients=tuple(coeffs))
    third = Fraction(1, 3**n)
    for k, value in ((2, 0), (3, 2 * third), (4, 2), (6, 2 * 3**n + 2 * third)):
        if poly(k) != value:
            raise ArithmeticError(f"cot_sum_polynomial: anchor T({n}, {k}) failed")
    return poly


def cot_power_sum(n: int, k: int) -> Rational:
    """T(n, k) = sum_{r=1}^{k-1} cot^{2n}(r*pi/k), evaluated from the
    polynomial ``cot_sum_polynomial(n)``."""
    CotSumParams(n, k)
    return cot_sum_polynomial(n)(k)


def cot_power_sum_all_positive(n: int, k: int) -> Rational:
    """Erratum reproducer: the expansion read with every index strictly
    positive. n cannot be split into 2n+1 positive parts, so the inner sum
    is empty and the result collapses to (-1)^n * k, which disagrees with
    the true T(n, k) for every k >= 2 (T is non-negative, this alternates).
    """
    CotSumParams(n, k)
    return Fraction((-1) ** n * k)


class ByrneSmithCoefficients(Record):
    """Triangular table b[n][j], 1 <= j <= n, of the half-shift closed form."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[Fraction, ...], ...]) -> None:
        set_field(self, "rows", rows)

    @property
    def n_max(self) -> int:
        return len(self.rows)

    def coefficient(self, n: int, j: int) -> Fraction:
        check_int("n", n)
        check_int("j", j)
        if not 1 <= j <= n <= self.n_max:
            raise ParameterError("need 1 <= j <= n <= n_max")
        return self.rows[n - 1][j - 1]

    def row_sum(self, n: int) -> Fraction:
        check_int("n", n)
        if not 1 <= n <= self.n_max:
            raise ParameterError("need 1 <= n <= n_max")
        return sum(self.rows[n - 1], Fraction(0))


def _build_rows(n_max: int, corrected: bool) -> tuple[tuple[Fraction, ...], ...]:
    check_int("n_max", n_max)
    if n_max < 1:
        raise ParameterError("n_max must be positive")
    if n_max > MAX_N:
        raise CostGuardError(f"n_max must be <= {MAX_N} (cost guard)")
    rows: list[tuple[Fraction, ...]] = []
    for n in range(1, n_max + 1):
        row: list[Fraction] = []
        for j in range(1, n):
            acc = Fraction(0)
            for ell in range(1, n - j + 1):
                acc += (-1) ** ell * binom(2 * n, ell) * rows[n - ell - 1][j - 1]
            if corrected:
                denom = 2 ** (2 * (n - j)) - 1
            else:
                denom = 2 ** (2 * (n - j) - 1)
            row.append(acc / denom)
        # top coefficient closes the row: sum_j b[n][j] = 1 + (-1)^(n-1),
        # equivalent to the k = 1 value cot^{2n}(pi/4) = 1
        row.append(1 + (-1) ** (n - 1) - sum(row, Fraction(0)))
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None, typed=True)
def byrne_smith_coefficients(n_max: int) -> ByrneSmithCoefficients:
    """Coefficient triangle of the corrected closed form, by the recursion

        b[n][j] = (1/(2^{2(n-j)} - 1)) * sum_{l=1}^{n-j} (-1)^l
                  * binom(2n, l) * b[n-l][j]      (j < n)

    with b[n][n] fixed by the row-sum constraint. Independently validated
    (in tests) by exact polynomial fitting against oracle values.
    """
    return ByrneSmithCoefficients(rows=_build_rows(n_max, corrected=True))


@lru_cache(maxsize=None, typed=True)
def byrne_smith_coefficients_uncorrected(n_max: int) -> ByrneSmithCoefficients:
    """Erratum reproducer: the same construction with the published
    recursion denominator 2^{2(n-j)-1}. Wrong from n = 2 on."""
    return ByrneSmithCoefficients(rows=_build_rows(n_max, corrected=False))


def byrne_smith_sum(n: int, k: int) -> Rational:
    """U(n, k) = sum_{r=1}^{k} cot^{2n}((r - 1/2)*pi/2k)
    = (-1)^n * k + sum_{j=1}^{n} b[n][j] * k^{2j}. Always an integer.

    Read off the T polynomial: U(n, k) = (T(n, 4k) - T(n, 2k))/2. The odd
    multiples of pi/4k in (0, pi) are its multiples less those of pi/2k,
    and the mirror x -> pi - x counts each half-shift angle twice. So
    b[n][j] = 2^{2j-1} * (4^j - 1) * [k^{2j}] T(n, k), and no coefficient
    triangle is built."""
    ByrneSmithParams(n, k)
    p = cot_sum_polynomial(n)
    return (p(4 * k) - p(2 * k)) / 2


def byrne_smith_sum_uncorrected(n: int, k: int) -> Rational:
    """Erratum reproducer: the published closed form, with linear term
    (-1)^k * k and the uncorrected coefficient triangle. Already wrong at
    (n, k) = (1, 2): yields 10 where the true value is 6."""
    ByrneSmithParams(n, k)
    rows = byrne_smith_coefficients_uncorrected(n).rows
    return (-1) ** k * k + sum(
        b * Fraction(k) ** (2 * j) for j, b in enumerate(rows[n - 1], start=1)
    )


def clear_caches() -> None:
    """Drop memoized Bernoulli ratios, polynomials, and coefficient tables
    (so a timing run measures evaluation, not a cache hit)."""
    _bf.cache_clear()
    cot_sum_polynomial.cache_clear()
    byrne_smith_coefficients.cache_clear()
    byrne_smith_coefficients_uncorrected.cache_clear()
