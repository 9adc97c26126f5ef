"""Exact truncated series identities built on the power-sum closed forms.

The cosine/sine power sums package neatly into three generating objects:

  - G(n; z)   = sum_{k=0}^{n-1} exp(z*cos(k*pi/n)),
  - H(n, q; z)= sum_{k=0}^{n-1} exp(z*sin(q*k*pi/n)) for even q coprime to n,
  - the resolvent (1/n) * sum_{k=0}^{n-1} 1/(1 - z*trig^2(k*pi/n)).

Their coefficients are power sums divided by factorials: C(j, n) and
S(j, n) for every j up to the order. The series builders take them in
turn from exact_core.scaled_power_sums, a central binomial each below
j = n and a residue row of (1 + x)^{2j} each from there, at O(n)
big-integer additions a coefficient, not a fresh binomial window each. Each also has an expression through the normalized tail sums

    sigma(k, n)       = (1/(2k)!) * sum_{p=1}^{floor(k/n)} binom(2k, k+pn)
    sigma_minus(k, n) = same with weight (-1)^{pn},

which sums the same binomial window as C(k, n) (resp. S) with the same
weights; the tests assert that identity, the constructors do not repeat it.
A single sigma value reads the tail classes of its window off _window_pass;
sigma_table reads a whole table off scaled_power_sums, whose term
4^k * C(k, n)/n is the central binomial plus twice that window.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd

from .closed_forms import MAX_M, _window_pass
from .errors import CostGuardError, ParameterError, Record, check_int, set_field
from .exact_core import Rational, scaled_power_sums

__all__ = [
    "MAX_TABLE_INDEX",
    "SeriesCoefficients",
    "sigma",
    "sigma_minus",
    "sigma_table",
    "bessel_i0_coefficient",
    "g1_coefficients",
    "h1_coefficients",
    "resolvent_coefficients",
]


# Cost guard on the last index of a series or table: a series order, and the
# last row of a sigma or walks table. Series and walks tables take their power
# sums from exact_core.scaled_power_sums and cost little at this bound:
# resolvent_coefficients('cos', 3, 1000) took 7 ms, g1_coefficients(1, 1000)
# 34 ms, the costliest n (about half the last index) 0.1 s for
# resolvent_coefficients('sin', 501, 1000), an n past the last index 14 ms
# (one central binomial an index), and a `trigsum table --kind walks-path
# --n 3 --m-max 1000` run 0.01 s past start-up. The table itself still holds
# O(index^2) bits. Sigma tables read their rows off the same sums, and their
# rows are the largest, each a fraction over 2*(2k)!. At n = 1 a whole
# `trigsum table --kind sigma` run took 0.36 s at index 1,000 (0.05 s of it
# building the rows, the rest printing them in decimal) and 2.6 s at 2,000
# (in-process, 2-vCPU Xeon VM). Longer ones are refused with CostGuardError
# before any coefficient or row is built.
MAX_TABLE_INDEX = 1000


def _check_order(n: int, order: int) -> None:
    check_int("n", n)
    check_int("order", order)
    if n < 1 or order < 0:
        raise ParameterError("need n >= 1 and order >= 0")
    if order > MAX_TABLE_INDEX:
        raise CostGuardError(f"order must be <= {MAX_TABLE_INDEX} (cost guard)")


def _check_sigma(k: int, n: int) -> None:
    check_int("k", k)
    check_int("n", n)
    if k < 0 or n < 1:
        raise ParameterError("need k >= 0 and n >= 1")
    if k > MAX_M:
        raise CostGuardError(f"k must be <= {MAX_M} (cost guard)")


class SeriesCoefficients(Record):
    """Truncated power series: coeffs[j] is the coefficient of z^j,
    len(coeffs) == order + 1."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: tuple[Fraction, ...], order: int) -> None:
        set_field(self, "coeffs", coeffs)
        set_field(self, "order", order)
        if len(coeffs) != order + 1:
            raise ValueError("need exactly order+1 coefficients")

    def __getitem__(self, j: int) -> Fraction:
        return self.coeffs[j]


def sigma(k: int, n: int) -> Rational:
    """(1/(2k)!) * sum_{p=1}^{floor(k/n)} binom(2k, k+pn); zero for k < n."""
    _check_sigma(k, n)
    (tail,) = _window_pass("cos", k, n, (), ((0,),))  # binom(2k, k+pn) = binom(2k, k-pn)
    return Fraction(tail, factorial(2 * k))


def sigma_minus(k: int, n: int) -> Rational:
    """sigma with alternating weight (-1)^{pn}; equals sigma for even n."""
    _check_sigma(k, n)
    even, odd = _window_pass("cos", k, n, (), ((0,), (1,)), 2)  # the tails at even and odd p
    return Fraction(even + (-1) ** n * odd, factorial(2 * k))


def sigma_table(kind: str, n: int, k_max: int) -> list[Rational]:
    """[sigma(k, n) for k = 0..k_max] for kind "cos", sigma_minus for
    "sin". With s_k = 4^k * X(k, n)/n from scaled_power_sums (X = C, S),
    the window is symmetric about its central term binom(2k, k), so
    sigma(k, n) = (s_k - binom(2k, k)) / (2 * (2k)!)."""
    _check_sigma(k_max, n)
    if k_max > MAX_TABLE_INDEX:
        raise CostGuardError(f"k_max must be <= {MAX_TABLE_INDEX} (cost guard)")
    rows = []
    central = factorial_2k = 1
    for k, s in zip(range(k_max + 1), scaled_power_sums(kind, n)):
        rows.append(Fraction(s - central, 2 * factorial_2k))
        central = central * 2 * (2 * k + 1) // (k + 1)
        factorial_2k *= (2 * k + 1) * (2 * k + 2)
    return rows


def bessel_i0_coefficient(j: int) -> Rational:
    """Coefficient of z^{2j} in the modified Bessel function I0(z):
    1/(4^j * (j!)^2)."""
    check_int("j", j)
    if j < 0:
        raise ParameterError("j must be non-negative")
    return Fraction(1, 4**j * factorial(j) ** 2)


def g1_coefficients(n: int, order: int) -> SeriesCoefficients:
    """Coefficients of sum_{k=0}^{n-1} exp(z*cos(k*pi/n)) to ``order``.

    The coefficient of z^{2j} is C(j, n)/(2j)!, which is also
    n*[I0 coeff] + 2n*sigma(j,n)/4^j, and of z^{2j+1} is 1/(2j+1)! (the odd
    cosine power sums all equal 1, contributing one sinh z).
    """
    _check_order(n, order)
    return _exponential_series(scaled_power_sums("cos", n), n, order, odd=1)


def h1_coefficients(n: int, q: int, order: int) -> SeriesCoefficients:
    """Coefficients of sum_{k=0}^{n-1} exp(z*sin(q*k*pi/n)) to ``order``,
    for even q coprime to n (n is then odd).

    Even coefficient of z^{2j} is S(j, n)/(2j)!, which is also
    n*[I0 coeff] + 2n*sigma_minus(j, n)/4^j; odd coefficients are exactly 0
    (multiplying k by even q and reducing mod 2n pairs every angle with its
    negation).
    """
    _check_order(n, order)
    check_int("q", q)
    if q < 1 or q % 2:
        raise ParameterError("q must be a positive even integer")
    if gcd(q, n) != 1:
        raise ParameterError("q must be coprime to n")
    return _exponential_series(scaled_power_sums("sin", n), n, order, odd=0)


def _exponential_series(sums, n: int, order: int, odd: int) -> SeriesCoefficients:
    """Coefficient X(j, n)/(2j)! at z^{2j}, with ``sums`` yielding
    4^j * X(j, n)/n, and odd/(2j+1)! at z^{2j+1}."""
    coeffs = [
        Fraction(odd, factorial(idx))
        if idx % 2
        else Fraction(n * next(sums), 4 ** (idx // 2) * factorial(idx))
        for idx in range(order + 1)
    ]
    return SeriesCoefficients(coeffs=tuple(coeffs), order=order)


def resolvent_coefficients(kind: str, n: int, order: int) -> SeriesCoefficients:
    """Coefficients of (1/n) * sum_{k=0}^{n-1} 1/(1 - z*trig^2(k*pi/n)).

    Coefficient of z^j is C(j, n)/n (resp. S(j, n)/n), which is also
    binom(2j, j)/4^j + 2*(2j)!*sigma(j, n)/4^j (resp. sigma_minus).
    """
    _check_order(n, order)
    if kind not in ("cos", "sin"):
        raise ParameterError("kind must be 'cos' or 'sin'")
    sums = scaled_power_sums(kind, n)
    coeffs = [Fraction(s, 4**j) for j, s in zip(range(order + 1), sums)]
    return SeriesCoefficients(coeffs=tuple(coeffs), order=order)
