"""Closed-form evaluation of finite trigonometric power sums.

The base objects are

    C(m, n) = sum_{k=0}^{n-1} cos^{2m}(k*pi/n)
    S(m, n) = sum_{k=0}^{n-1} sin^{2m}(k*pi/n)

which evaluate to

    2^{1-2m} * n * ( binom(2m-1, m-1) + sum_{p=1}^{floor(m/n)} e_p * binom(2m, m-p*n) )

with e_p = 1 for cosine and e_p = (-1)^{p*n} for sine, and C(0, n) =
S(0, n) = n (each of the n summands is 1; sin^0(0) = 1 by the 0^0 = 1
convention). Every other family in this module is a composition of C and S
evaluations: scaling the range, shifting the angle, or weighting the terms
with low-order cosines only reindexes the same lattice of angles. Composite
families are therefore computed from C/S compositions, never from per-case
expansions. The shifted sums are the one place a second route still runs:
their direct form sums the (-1)^p-weighted window of (m, n), which the
difference C(m, 2n) - C(m, n) never reads, and the two are compared at
every call.

All values are exact rationals. Any value times 2^{2m+2} is an integer for
the families here except the degree-5 weighted family, where 2^{2m+4}
suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import cycle
from math import gcd
from operator import mul

from .errors import CostGuardError, ParameterError, check_int
from .exact_core import Rational, binom, binom_window

__all__ = [
    "MAX_M",
    "MAX_ELL5_N",
    "Family",
    "SumSpec",
    "evaluate",
    "cos_power_sum",
    "sin_power_sum",
    "scaled_sum",
    "coprime_sum",
    "gcd_reduced_sum",
    "quoniam_sum",
    "merca_half_sum",
    "merca_shifted_sum",
    "barbero_R",
    "barbero_R_naive",
    "alternating_sum",
    "alternating_cos_middle_erratum",
    "alternating_sin_middle_erratum",
    "shifted_cos_sum",
    "shifted_sin_sum",
    "weight3_sum",
    "weight_half_pi_sum",
    "weight_pi3_sum",
    "ell5_sum",
]


class Family(str, Enum):
    """The evaluable sum families. Values double as CLI tokens."""

    COS_POWER = "C"
    SIN_POWER = "S"
    SCALED = "scaled"
    COPRIME = "coprime"
    GCD_REDUCED = "gcd"
    QUONIAM = "quoniam"
    MERCA_HALF = "merca-half"
    MERCA_SHIFTED = "merca-shifted"
    BARBERO_R = "barbero"
    ALTERNATING = "alternating"
    SHIFTED_COS = "shifted-cos"
    SHIFTED_SIN = "shifted-sin"
    WEIGHT3_COS = "weight3-cos"
    WEIGHT3_SIN = "weight3-sin"
    WEIGHT_HALF_PI = "weight-half-pi"
    WEIGHT_PI3 = "weight-pi3"
    ELL5_PRODUCT = "ell5-product"
    ELL5_ALT_PRODUCT = "ell5-alt-product"
    ELL5_COS2 = "ell5-cos2"
    ELL5_COS4 = "ell5-cos4"


# Cost guard on the half-power m of a SumSpec and of every public function
# here (the walk counters inherit it through C). A closed form sums a window
# of up to m binomials of 2m bits each (several seconds at m = 10^5 for the
# composite families), and the oracle's precision grows like 2m bits;
# larger m is rejected with CostGuardError.
MAX_M = 10**5

# Cost guard on n for the ell5 cos2/cos4 weights, whose power reduction
# loops over j < n with binomials and powers of 2 that grow with n:
# ell5_sum('cos2', 1, n) took 0.16 s at n = 1,000, 1.1 s at 2,000 and
# 37 s at 8,000. Larger n is rejected with CostGuardError.
MAX_ELL5_N = 1_000

# Families whose definition reads the q parameter / the cos-sin kind switch.
_USES_Q = frozenset({Family.SCALED, Family.COPRIME, Family.GCD_REDUCED})
_USES_KIND = frozenset(
    {Family.SCALED, Family.COPRIME, Family.GCD_REDUCED, Family.ALTERNATING}
)


@dataclass(frozen=True)
class SumSpec:
    """One evaluable sum: a family plus its parameters.

    ``m`` is the half-power (the trig factor is raised to 2m), ``n`` the
    angle denominator (the alternating family reads it as the even period
    N). ``q`` and ``kind`` are read only by the families in _USES_Q and
    _USES_KIND and ignored elsewhere.
    """

    family: Family
    m: int
    n: int
    q: int = 1
    kind: str = "cos"

    def validate(self) -> None:
        f = self.family
        check_int("m", self.m)
        check_int("n", self.n)
        check_int("q", self.q)
        if self.m < 0:
            raise ParameterError("m must be non-negative")
        _check_m_cost(self.m)
        if f in (Family.ELL5_COS2, Family.ELL5_COS4):
            _check_ell5_n(self.n)
        min_n = 0 if f is Family.BARBERO_R else 1
        if self.n < min_n:
            raise ParameterError(f"n must be >= {min_n} for {f.value}")
        if self.kind not in ("cos", "sin"):
            raise ParameterError("kind must be 'cos' or 'sin'")
        if f in _USES_Q and self.q < 1:
            raise ParameterError("q must be positive")
        if f is Family.SCALED and self.q % self.n:
            raise ParameterError("scaled family requires n | q")
        if f is Family.COPRIME and gcd(self.n, self.q) != 1:
            raise ParameterError("coprime family requires gcd(n, q) = 1")
        if f is Family.QUONIAM and not 1 <= self.m <= self.n:
            raise ParameterError("quoniam requires 1 <= m < n+1")
        if f in (Family.MERCA_HALF, Family.MERCA_SHIFTED) and self.m < 1:
            raise ParameterError("half-range families require m >= 1")
        if f in (Family.ALTERNATING, Family.WEIGHT_PI3, Family.ELL5_ALT_PRODUCT):
            if self.n % 2:
                raise ParameterError(f"{f.value} requires even n")

    def params(self) -> dict[str, int | str]:
        """Parameter mapping for reports, q/kind only where meaningful."""
        out: dict[str, int | str] = {"m": self.m, "n": self.n}
        if self.family in _USES_Q:
            out["q"] = self.q
        if self.family in _USES_KIND:
            out["kind"] = self.kind
        return out

    @property
    def token(self) -> str:
        return self.family.value

    def sort_key(self) -> tuple:
        return (self.token, self.kind, self.m, self.n, self.q)

    def closed_value(self) -> Rational:
        return evaluate(self)


def _check_m_cost(m: int) -> None:
    if m > MAX_M:
        raise CostGuardError(f"m must be <= {MAX_M} (cost guard)")


def _check_ell5_n(n: int) -> None:
    if n > MAX_ELL5_N:
        raise CostGuardError(f"n must be <= {MAX_ELL5_N} for the ell5 cos2/cos4 weights (cost guard)")


def _check_mn(m: int, n: int) -> None:
    if m < 0:
        raise ParameterError("m must be non-negative")
    if n < 1:
        raise ParameterError("n must be positive")
    _check_m_cost(m)


def _tail(m: int, n: int, weight=lambda p: 1) -> tuple[int, int]:
    """(binom(2m, m), sum_{p=1}^{floor(m/n)} weight(p) * binom(2m, m - p*n)),
    the tail empty when m < n. Every weight here is a sign pattern in
    (-1)^p, so weight(1), weight(2) repeat along the window."""
    terms = binom_window(m, n)
    central = next(terms)
    return central, sum(map(mul, cycle((weight(1), weight(2))), terms))


def _power_form(m: int, n: int, weight=lambda p: 1) -> Rational:
    """2^{1-2m} * n * (binom(2m-1, m-1) + sum_{p=1}^{floor(m/n)} weight(p)
    * binom(2m, m-p*n)), the shape of C, S and the shifted sums' direct
    forms, as 2^{-2m} * n * (binom(2m, m) + 2 * tail): binom(2m-1, m-1) =
    binom(2m, m)/2 for m >= 1, and the m = 0 value n comes out too."""
    central, tail = _tail(m, n, weight)
    return Fraction(n * (central + 2 * tail), 2 ** (2 * m))


def cos_power_sum(m: int, n: int) -> Rational:
    """C(m, n) = sum_{k=0}^{n-1} cos^{2m}(k*pi/n)."""
    _check_mn(m, n)
    return _power_form(m, n)


def sin_power_sum(m: int, n: int) -> Rational:
    """S(m, n) = sum_{k=0}^{n-1} sin^{2m}(k*pi/n)."""
    _check_mn(m, n)
    return _power_form(m, n, lambda p: (-1) ** (p * n))


def _base(kind: str, m: int, n: int) -> Rational:
    if kind == "cos":
        return cos_power_sum(m, n)
    if kind == "sin":
        return sin_power_sum(m, n)
    raise ParameterError("kind must be 'cos' or 'sin'")


def scaled_sum(kind: str, m: int, n: int, q: int) -> Rational:
    """sum_{k=0}^{q-1} trig^{2m}(k*pi/n) for n | q: the same n angles swept
    q/n times, so the value is (q/n) * C(m, n) (resp. S)."""
    _check_mn(m, n)
    if q < 1 or q % n:
        raise ParameterError("scaled sum requires q a positive multiple of n")
    return Fraction(q, n) * _base(kind, m, n)


def coprime_sum(kind: str, m: int, n: int, q: int) -> Rational:
    """sum_{k=0}^{n-1} trig^{2m}(q*k*pi/n) for gcd(n, q) = 1.

    Multiplication by q permutes the residues mod n (and the squared trig
    factor kills the sign of the representative), so the value is C(m, n)
    (resp. S) independently of which coprime q is chosen.
    """
    _check_mn(m, n)
    if q < 1:
        raise ParameterError("q must be positive")
    if gcd(n, q) != 1:
        raise ParameterError("coprime sum requires gcd(n, q) = 1")
    return _base(kind, m, n)


def gcd_reduced_sum(kind: str, m: int, n: int, q: int) -> Rational:
    """sum_{k=0}^{n-1} trig^{2m}(q*k*pi/n) for arbitrary q >= 1.

    With r = gcd(n, q) and n = r*l, the angle lattice q*k/n mod 1 covers the
    lattice for denominator l exactly r times: the value is r * C(m, l)
    (resp. S). Reduces to coprime_sum when r = 1.
    """
    _check_mn(m, n)
    if q < 1:
        raise ParameterError("q must be positive")
    r = gcd(n, q)
    return r * _base(kind, m, n // r)


def quoniam_sum(m: int, n: int) -> Rational:
    """2^{2m} * sum_{k=1}^{floor(n/2)} cos^{2m}(k*pi/(n+1)), valid for
    1 <= m < n+1, where it equals (n+1)*binom(2m-1, m-1) - 2^{2m-1}."""
    if m < 1 or m > n:
        raise ParameterError("quoniam_sum requires 1 <= m < n+1")
    _check_m_cost(m)
    return Fraction((n + 1) * binom(2 * m - 1, m - 1) - 2 ** (2 * m - 1))


def merca_half_sum(p: int, n: int) -> Rational:
    """sum_{k=1}^{floor((n-1)/2)} cos^{2p}(k*pi/n)
    = -1/2 + (n/2^{2p+1}) * sum_{k=-floor(p/n)}^{floor(p/n)} binom(2p, p+kn),
    which is (C(p, n) - 1)/2: the k = 0 term dropped, the mirror pairs
    halved."""
    _check_mn(p, n)
    if p < 1:
        raise ParameterError("merca_half_sum requires p >= 1")
    return (cos_power_sum(p, n) - 1) / 2


def merca_shifted_sum(p: int, n: int) -> Rational:
    """sum_{k=1}^{floor(n/2)} cos^{2p}((k - 1/2)*pi/n)
    = (n/2^{2p+1}) * sum_{k=-floor(p/n)}^{floor(p/n)} (-1)^k binom(2p, p+kn),
    which is shifted_cos_sum(p, n)/2 by mirror pairing."""
    _check_mn(p, n)
    if p < 1:
        raise ParameterError("merca_shifted_sum requires p >= 1")
    return shifted_cos_sum(p, n) / 2


def barbero_R(m: int, n: int) -> Rational:
    """R_{m,n} = 2^{2m} * sum_{k=1}^{n+1} cos^{2m}(k*pi/(2n+3)).

    This is (n + 3/2)*binom(2m, m) - 2^{2m-1} plus, once m >= 2n+3, the
    tail (2n+3) * sum_i binom(2m, m-(2n+3)i). The tail is the part the
    first-branch expression misses; see barbero_R_naive. At m = 0 the
    expression gives R_{0,n} = n+1 (a sum of n+1 ones). Computed as
    2^{2m} * (C(m, 2n+3) - 1)/2, the k = 0 term dropped and the mirror
    pairs of the odd period halved.
    """
    if m < 0 or n < 0:
        raise ParameterError("barbero_R requires m, n >= 0")
    return (cos_power_sum(m, 2 * n + 3) - 1) * 4**m / 2


def barbero_R_naive(m: int, n: int) -> Rational:
    """The first-branch expression (n + 3/2)*binom(2m, m) - 2^{2m-1} applied
    unconditionally. A known erratum: it is only valid for m < 2n+3, and at
    (m, n) = (12, 3) it yields 3780094 instead of 3798310 (short by
    9*binom(24, 3) = 18216). Kept as a regression reproducer."""
    if m < 1 or n < 0:
        raise ParameterError("barbero_R_naive requires m >= 1, n >= 0")
    _check_m_cost(m)
    return Fraction(2 * n + 3, 2) * binom(2 * m, m) - 2 ** (2 * m - 1)


def alternating_sum(kind: str, m: int, n: int) -> Rational:
    """sum_{k=0}^{n-1} (-1)^k * trig^{2m}(k*pi/n) for even period n.

    The signed sum keeps the even-k half-lattice doubled minus the full
    lattice: 2*C(m, n/2) - C(m, n) (resp. S). Computed by composition;
    the explicit middle-range case tables in circulation drop a factor
    (see alternating_cos_middle_erratum).
    """
    _check_mn(m, n)
    if n % 2:
        raise ParameterError("alternating_sum requires an even period")
    return 2 * _base(kind, m, n // 2) - _base(kind, m, n)


def alternating_cos_middle_erratum(m: int, n: int) -> Rational:
    """The published middle-range (n <= m < 2n) expression for the cosine
    alternating sum over N = 2n points: 2^{2-2m} * sum_p binom(2m, m-pn).

    Erratum reproducer: the true value is n times this (equal only at
    n = 1). The factor-n omission is asserted, not corrected, here.
    """
    if not n <= m < 2 * n:
        raise ParameterError("middle-range expression needs n <= m < 2n")
    _check_m_cost(m)
    return Fraction(4 * _tail(m, n)[1], 2 ** (2 * m))


def alternating_sin_middle_erratum(m: int, n: int) -> Rational:
    """The published middle-range expression for the sine alternating sum
    over N = 2n points, identical in shape to the cosine one.

    Erratum reproducer: besides the factor n it also drops the (-1)^{pn}
    sign, so the true value is (-1)^n * n times this and the two never
    coincide (at n = 1 the sign still differs).
    """
    return alternating_cos_middle_erratum(m, n)


def shifted_cos_sum(m: int, n: int) -> Rational:
    """sum_{k=0}^{n-1} cos^{2m}((k + 1/2)*pi/n) = C(m, 2n) - C(m, n).

    Also 2^{1-2m} * n * (binom(2m-1, m-1) + sum_p (-1)^p binom(2m, m-pn));
    the two routes are asserted equal.
    """
    _check_mn(m, n)
    diff = cos_power_sum(m, 2 * n) - cos_power_sum(m, n)
    direct = _power_form(m, n, lambda p: (-1) ** p)
    if diff != direct:
        raise ArithmeticError("shifted_cos_sum: evaluation routes disagree")
    return diff


def shifted_sin_sum(m: int, n: int) -> Rational:
    """sum_{k=0}^{n-1} sin^{2m}((k + 1/2)*pi/n).

    Direct form 2^{1-2m} * n * (binom(2m-1, m-1)
    + sum_p (1 + (-1)^p - (-1)^{np}) * binom(2m, m-pn)): the weight reduces
    to +1 for odd n and to (-1)^p for even n. Asserted equal to
    S(m, 2n) - S(m, n).
    """
    _check_mn(m, n)
    direct = _power_form(m, n, lambda p: 1 + (-1) ** p - (-1) ** (n * p))
    diff = sin_power_sum(m, 2 * n) - sin_power_sum(m, n)
    if diff != direct:
        raise ArithmeticError("shifted_sin_sum: evaluation routes disagree")
    return direct


def weight3_sum(kind: str, m: int, n: int) -> Rational:
    """sum_{k=0}^{3n-1} cos(2k*pi/3) * trig^{2m}(k*pi/3n).

    The weight is 1 at k = 0 mod 3 and -1/2 otherwise, a root-of-unity
    filter: the value is (3*C(m, n) - C(m, 3n))/2 (resp. S). The published
    three-range case expression is sound for this family (the tests hold
    the two equal).
    """
    _check_mn(m, n)
    return (3 * _base(kind, m, n) - _base(kind, m, 3 * n)) / 2


def weight_half_pi_sum(m: int, n: int) -> Rational:
    """sum_{k=0}^{4n-1} cos(k*pi/2) * cos^{2m}(k*pi/4n) = 2*C(m, n) - C(m, 2n).

    The weight vanishes at odd k and alternates at even k, so this is the
    alternating sum over N = 2n in disguise; exposed to keep that
    reducibility a tested fact.
    """
    _check_mn(m, n)
    return 2 * cos_power_sum(m, n) - cos_power_sum(m, 2 * n)


def weight_pi3_sum(m: int, n: int) -> Rational:
    """sum_{k=0}^{3n-1} cos(k*pi/3) * cos^{2m}(k*pi/3n) for even n:
    3*C(m, n/2) - (3/2)*C(m, n) + C(m, 3n)/2 - C(m, 3n/2)."""
    _check_mn(m, n)
    if n % 2:
        raise ParameterError("weight_pi3_sum requires even n")
    h = n // 2
    return (
        3 * cos_power_sum(m, h)
        - Fraction(3, 2) * cos_power_sum(m, n)
        + Fraction(cos_power_sum(m, 3 * n), 2)
        - cos_power_sum(m, 3 * h)
    )


_ELL5_VARIANTS = ("product", "alt-product", "cos2", "cos4")


def ell5_sum(variant: str, m: int, n: int) -> Rational:
    """Degree-5 weighted sums sum_{k=0}^{5n-1} w(k) * cos^{2m}(k*pi/5n).

    variant selects the weight w(k):
      - "product":     cos(2*pi*k/5)*cos(4*pi*k/5) -> (5*C(m,n) - C(m,5n))/4
      - "alt-product": cos(pi*k/5)*cos(2*pi*k/5), even n only ->
                       (10*C(m,n/2) - 2*C(m,5n/2) + C(m,5n) - 5*C(m,n))/4
      - "cos2":        cos(2*pi*k/5) -> 2^{2n-1}*C(m+n, 5n) + n * sum_{j<n}
                       ((-1)^{j+1}/(j+1)) * 2^{2n-2j-2} * binom(2n-j-2, j)
                       * C(m+n-j-1, 5n), via the power reduction of
                       cos(2x) = 2cos^2(x) - 1 expanded through degree n
      - "cos4":        cos(4*pi*k/5) -> (10*C(m,n) - 2*C(m,5n))/4 - cos2

    cos2 and cos4 refuse n > MAX_ELL5_N with CostGuardError.
    """
    _check_mn(m, n)
    if variant in ("cos2", "cos4"):
        _check_ell5_n(n)
    # unchecked C: cos2 reads C(m+n, 5n), past MAX_M when m is near it
    C = _power_form
    if variant == "product":
        return (5 * C(m, n) - C(m, 5 * n)) / 4
    if variant == "alt-product":
        if n % 2:
            raise ParameterError("alt-product requires even n")
        h = n // 2
        return (
            10 * C(m, h) - 2 * C(m, 5 * h) + C(m, 5 * n) - 5 * C(m, n)
        ) / 4
    if variant == "cos2":
        acc = 2 ** (2 * n - 1) * C(m + n, 5 * n)
        for j in range(n):
            acc += (
                n
                * Fraction((-1) ** (j + 1), j + 1)
                * 2 ** (2 * n - 2 * j - 2)
                * binom(2 * n - j - 2, j)
                * C(m + n - j - 1, 5 * n)
            )
        return acc
    if variant == "cos4":
        return (10 * C(m, n) - 2 * C(m, 5 * n)) / 4 - ell5_sum("cos2", m, n)
    raise ParameterError(f"unknown ell5 variant {variant!r} (expected one of {_ELL5_VARIANTS})")


_DISPATCH = {
    Family.COS_POWER: lambda s: cos_power_sum(s.m, s.n),
    Family.SIN_POWER: lambda s: sin_power_sum(s.m, s.n),
    Family.SCALED: lambda s: scaled_sum(s.kind, s.m, s.n, s.q),
    Family.COPRIME: lambda s: coprime_sum(s.kind, s.m, s.n, s.q),
    Family.GCD_REDUCED: lambda s: gcd_reduced_sum(s.kind, s.m, s.n, s.q),
    Family.QUONIAM: lambda s: quoniam_sum(s.m, s.n),
    Family.MERCA_HALF: lambda s: merca_half_sum(s.m, s.n),
    Family.MERCA_SHIFTED: lambda s: merca_shifted_sum(s.m, s.n),
    Family.BARBERO_R: lambda s: barbero_R(s.m, s.n),
    Family.ALTERNATING: lambda s: alternating_sum(s.kind, s.m, s.n),
    Family.SHIFTED_COS: lambda s: shifted_cos_sum(s.m, s.n),
    Family.SHIFTED_SIN: lambda s: shifted_sin_sum(s.m, s.n),
    Family.WEIGHT3_COS: lambda s: weight3_sum("cos", s.m, s.n),
    Family.WEIGHT3_SIN: lambda s: weight3_sum("sin", s.m, s.n),
    Family.WEIGHT_HALF_PI: lambda s: weight_half_pi_sum(s.m, s.n),
    Family.WEIGHT_PI3: lambda s: weight_pi3_sum(s.m, s.n),
    Family.ELL5_PRODUCT: lambda s: ell5_sum("product", s.m, s.n),
    Family.ELL5_ALT_PRODUCT: lambda s: ell5_sum("alt-product", s.m, s.n),
    Family.ELL5_COS2: lambda s: ell5_sum("cos2", s.m, s.n),
    Family.ELL5_COS4: lambda s: ell5_sum("cos4", s.m, s.n),
}


def evaluate(spec: SumSpec) -> Rational:
    """Validate ``spec`` and evaluate its closed form exactly."""
    spec.validate()
    return _DISPATCH[spec.family](spec)
