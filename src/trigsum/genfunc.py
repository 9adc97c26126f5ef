"""Exact truncated series identities built on the power-sum closed forms.

The cosine/sine power sums package neatly into three generating objects:

  - G(n; z)   = sum_{k=0}^{n-1} exp(z*cos(k*pi/n)),
  - H(n, q; z)= sum_{k=0}^{n-1} exp(z*sin(q*k*pi/n)) for even q coprime to n,
  - the resolvent (1/n) * sum_{k=0}^{n-1} 1/(1 - z*trig^2(k*pi/n)).

Their coefficients are power sums divided by factorials, computed from C
and S alone. Each also has an expression through the normalized tail sums

    sigma(k, n)       = (1/(2k)!) * sum_{p=1}^{floor(k/n)} binom(2k, k+pn)
    sigma_minus(k, n) = same with weight (-1)^{pn},

which sums the same binomial window as C(k, n) (resp. S) with the same
weights; the tests assert that identity, the constructors do not repeat it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import factorial, gcd

from .closed_forms import MAX_M, cos_power_sum, sin_power_sum
from .errors import CostGuardError, ParameterError
from .exact_core import Rational, binom_window

__all__ = [
    "MAX_TABLE_INDEX",
    "SeriesCoefficients",
    "sigma",
    "sigma_minus",
    "bessel_i0_coefficient",
    "g1_coefficients",
    "h1_coefficients",
    "resolvent_coefficients",
]


# Cost guard on the last index of a series or table: a series order, and the
# last row of a sigma or walks table. Each coefficient or row is a fresh
# binomial window, so the cost grows about as the 2.4th power of the last
# index: at the costliest n (1 for sigma, 3 for the walks) a whole `trigsum
# table` run took 0.7 to 1.7 s at index 1,000 and 2.9 to 9.0 s at 2,000 on
# a 2-vCPU Xeon VM. Longer ones are refused with CostGuardError before any
# coefficient or row is built.
MAX_TABLE_INDEX = 1000


def _check_order(n: int, order: int) -> None:
    if n < 1 or order < 0:
        raise ParameterError("need n >= 1 and order >= 0")
    if order > MAX_TABLE_INDEX:
        raise CostGuardError(f"order must be <= {MAX_TABLE_INDEX} (cost guard)")


def _check_sigma(k: int, n: int) -> None:
    if k < 0 or n < 1:
        raise ParameterError("need k >= 0 and n >= 1")
    if k > MAX_M:
        raise CostGuardError(f"k must be <= {MAX_M} (cost guard)")


@dataclass(frozen=True)
class SeriesCoefficients:
    """Truncated power series: coeffs[j] is the coefficient of z^j,
    len(coeffs) == order + 1."""

    coeffs: tuple[Fraction, ...]
    order: int

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.order + 1:
            raise ValueError("need exactly order+1 coefficients")

    def __getitem__(self, j: int) -> Fraction:
        return self.coeffs[j]


def sigma(k: int, n: int) -> Rational:
    """(1/(2k)!) * sum_{p=1}^{floor(k/n)} binom(2k, k+pn); zero for k < n."""
    _check_sigma(k, n)
    # binom(2k, k+pn) = binom(2k, k-pn), the window's term p; p = 0 is not summed
    window = sum(islice(binom_window(k, n), 1, None))
    return Fraction(window, factorial(2 * k))


def sigma_minus(k: int, n: int) -> Rational:
    """sigma with alternating weight (-1)^{pn}; equals sigma for even n."""
    _check_sigma(k, n)
    window = sum((-1) ** (p * n) * b for p, b in enumerate(binom_window(k, n)) if p)
    return Fraction(window, factorial(2 * k))


def bessel_i0_coefficient(j: int) -> Rational:
    """Coefficient of z^{2j} in the modified Bessel function I0(z):
    1/(4^j * (j!)^2)."""
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
    coeffs = [
        Fraction(1, factorial(idx)) if idx % 2 else cos_power_sum(idx // 2, n) / factorial(idx)
        for idx in range(order + 1)
    ]
    return SeriesCoefficients(coeffs=tuple(coeffs), order=order)


def h1_coefficients(n: int, q: int, order: int) -> SeriesCoefficients:
    """Coefficients of sum_{k=0}^{n-1} exp(z*sin(q*k*pi/n)) to ``order``,
    for even q coprime to n (n is then odd).

    Even coefficient of z^{2j} is S(j, n)/(2j)!, which is also
    n*[I0 coeff] + 2n*sigma_minus(j, n)/4^j; odd coefficients are exactly 0
    (multiplying k by even q and reducing mod 2n pairs every angle with its
    negation).
    """
    _check_order(n, order)
    if q < 1 or q % 2:
        raise ParameterError("q must be a positive even integer")
    if gcd(q, n) != 1:
        raise ParameterError("q must be coprime to n")
    coeffs = [
        Fraction(0) if idx % 2 else sin_power_sum(idx // 2, n) / factorial(idx)
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
    base = cos_power_sum if kind == "cos" else sin_power_sum
    coeffs = [base(j, n) / n for j in range(order + 1)]
    return SeriesCoefficients(coeffs=tuple(coeffs), order=order)
