"""The request records: which sums can be asked for, and with what arguments.

Every request type lives here: SumSpec (the twenty closed-form families),
CotSumParams and ByrneSmithParams (the two cotangent sum shapes) and
OddCosPowerParams (the oracle's odd cosine power), with the cost guards
their constructors apply. This module imports nothing from the package but
errors, so the closed forms and the oracle both read their requests from
here, and the oracle imports none of the code it checks.

SumSpec's constructor is the one domain check, so a SumSpec that exists is
valid: closed_forms.evaluate() checks only that it was handed one, and
reads every family off its row through _windowed, the three half-shift
families by way of their public functions. evaluate() is the entry point
to every family; the few functions closed_forms keeps beside it (C, S,
the half-shift sums, barbero_R) each build the SumSpec of their own
family, so a direct call checks its arguments once and accepts and
refuses what an evaluate() of the same request does. The erratum
reproducers build the SumSpec of the sum they misstate, then check only
the range their published expression claims.

A record holds its fields and its constructor's checks, nothing more: the
CLI's family table evaluates, names and orders the requests, so a record
handed to the oracle carries no path into the code it checks.
"""

from __future__ import annotations

from enum import Enum
from math import gcd

from .errors import CostGuardError, ParameterError, Record, check_int, set_field


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

    @property
    def param_names(self) -> tuple[str, ...]:
        """The parameters the family reads, in report order."""
        return ("m", "n") + ("q",) * (self in _USES_Q) + ("kind",) * (self in _USES_KIND)


# Cost guard on the half-power m of a SumSpec and of every public function
# of closed_forms (the walk counters inherit it through C). A closed form
# sums a window of up to m binomials of 2m bits each, or reads a residue row
# of L*n*2m bits where the cost model prices it lower. At m = 10^5 a value took up to
# 2.6 s (ell5-alt-product at n = 14: the window of (m, 7), priced below a
# row of 70 slots), and a shifted sum, which also walks the window of
# (m, 2n) for its check, up to 6.2 s (n = 1; 2-vCPU Xeon VM). The oracle's
# precision grows like 2m bits. Larger m is rejected with CostGuardError.
MAX_M = 10**5

# Families whose definition reads the q parameter / the cos-sin kind switch.
_USES_Q = frozenset({Family.SCALED, Family.COPRIME, Family.GCD_REDUCED})
_USES_KIND = frozenset(
    {Family.SCALED, Family.COPRIME, Family.GCD_REDUCED, Family.ALTERNATING}
)


class SumSpec(Record):
    """One evaluable sum: a family plus its parameters.

    ``m`` is the half-power (the trig factor is raised to 2m), ``n`` the
    angle denominator (the alternating family reads it as the even period
    N). ``q`` and ``kind`` are read only by the families in _USES_Q and
    _USES_KIND and ignored elsewhere.

    The constructor holds every family's domain and cost guard, and it is
    the only place that does: a SumSpec that exists is a valid request.
    """

    __slots__ = ("family", "m", "n", "q", "kind")

    def __init__(self, family: Family, m: int, n: int, q: int = 1, kind: str = "cos") -> None:
        set_field(self, "family", family)
        set_field(self, "m", m)
        set_field(self, "n", n)
        set_field(self, "q", q)
        set_field(self, "kind", kind)
        if not isinstance(family, Family):
            raise ParameterError(f"unknown family {family!r}")
        check_int("m", m)
        check_int("n", n)
        check_int("q", q)
        if m < 0:
            raise ParameterError("m must be non-negative")
        if m > MAX_M:
            raise CostGuardError(f"m must be <= {MAX_M} (cost guard)")
        min_n = 0 if family is Family.BARBERO_R else 1
        if n < min_n:
            raise ParameterError(f"n must be >= {min_n} for {family.value}")
        if kind not in ("cos", "sin"):
            raise ParameterError("kind must be 'cos' or 'sin'")
        # every public function builds one, so the cheap value tests go first
        if family in _USES_Q:
            if q < 1:
                raise ParameterError("q must be positive")
            if family is Family.SCALED and q % n:
                raise ParameterError("scaled family requires n | q")
            if family is Family.COPRIME and gcd(n, q) != 1:
                raise ParameterError("coprime family requires gcd(n, q) = 1")
        if not 1 <= m <= n and family is Family.QUONIAM:
            raise ParameterError("quoniam requires 1 <= m < n+1")
        if m < 1 and family in (Family.MERCA_HALF, Family.MERCA_SHIFTED):
            raise ParameterError("half-range families require m >= 1")
        if n % 2 and family in (Family.ALTERNATING, Family.WEIGHT_PI3, Family.ELL5_ALT_PRODUCT):
            raise ParameterError(f"{family.value} requires even n")


# Cost guard on the exponent half n of both sum shapes and on the n_max of
# the coefficient triangles. The series costs O(n^2) products of rationals
# that themselves grow with n (about 0.1 s at n = 100 for the polynomial),
# the triangle O(n^3) (2.5 s at n_max = 100, 9.9 s at 150), and the
# oracle's precision grows like n * log2(k); larger n is rejected with
# CostGuardError.
MAX_N = 100

# Cost guard on k: 2n * bit_length(4k), the bits of (4k)^{2n} (U reads T at
# 4k), may not pass 2 * 10^5, as 4^m at MAX_M. At the bound T took 0.07 s and
# U 0.14 s at most (n = 1..100), T(100, 2^100000) 11.9 s (2-vCPU Xeon VM).
MAX_POWER_BITS = 2 * 10**5


def _check_n_k(n, k, k_min: int, too_small: str) -> None:
    check_int("n", n)
    if n < 1:
        raise ParameterError("n must be positive")
    if n > MAX_N:
        raise CostGuardError(f"n must be <= {MAX_N} (cost guard)")
    check_int("k", k)
    if k < k_min:
        raise ParameterError(too_small)
    if 2 * n * (4 * k).bit_length() > MAX_POWER_BITS:
        raise CostGuardError(f"2n * bit_length(4k) must be <= {MAX_POWER_BITS} (cost guard)")


class CotSumParams(Record):
    """Parameters of the integer-shift sum: exponent 2n, angle r*pi/k.
    The constructor checks n and k against the domain and the cost guards."""

    __slots__ = ("n", "k")

    def __init__(self, n: int, k: int) -> None:
        set_field(self, "n", n)
        set_field(self, "k", k)
        _check_n_k(n, k, *self._k_floor)

    _k_floor = (2, "k must be >= 2 (the sum over r=1..k-1 is empty otherwise)")


class ByrneSmithParams(Record):
    """Parameters of the half-shift sum: exponent 2n, angles (r-1/2)*pi/2k."""

    __slots__ = ("n", "k")
    __init__ = CotSumParams.__init__
    _k_floor = (1, "k must be positive")


class OddCosPowerParams(Record):
    """Request for sum_{k=0}^{n-1} cos^{2j+1}(k*pi/n) (always exactly 1:
    the k <-> n-k pairing cancels everything but the k=0 term)."""

    __slots__ = ("j", "n")

    def __init__(self, j: int, n: int) -> None:
        set_field(self, "j", j)
        set_field(self, "n", n)
        check_int("j", j)
        check_int("n", n)
        if j < 0 or n < 1:
            raise ParameterError("need j >= 0 and n >= 1")
        if j > MAX_M:
            raise CostGuardError(f"j must be <= {MAX_M} (cost guard)")
