"""Independent ground truth for every sum family in the package.

Each request is evaluated from its *defining* finite sum (the literal
left-hand side: a loop over angle indices), never from the closed form
under test. Terms are computed in rigorous interval arithmetic: pi is
enclosed with directed rounding at the working precision, angles are exact
integer multiples of that enclosure, and every cos/sin/cot/power/add
propagates outward-rounded bounds. The result is an interval certified to
contain the true value.

The exact rational is then recovered by scaling the interval with an
a-priori denominator bound D: if the scaled interval is narrower than
2^-guard_bits it contains at most one integer p, and the value is p/D.
A missing integer means the bound (or the formula being compared) is wrong
and is reported as such rather than retried; an over-wide interval is
retried at doubled precision.

The interval primitives come from mpmath's stateless low-level layer
(explicit precision arguments, no global context), so oracle calls are
pure and safe to fan out across threads or processes. Endpoints convert
losslessly to Fraction via the raw mantissa/exponent pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, gcd

from mpmath import libmp

from .closed_forms import Family, SumSpec
from .cotangent import ByrneSmithParams, CotSumParams
from .errors import ParameterError

__all__ = [
    "IntervalValue",
    "ReconstructionPolicy",
    "OddCosPowerParams",
    "AmbiguousReconstruction",
    "NoIntegerNearby",
    "PrecisionExhausted",
    "direct_sum",
    "reconstruct",
    "denominator_bound_for",
    "default_precision",
    "evaluate_exact",
]

OracleRequest = "SumSpec | CotSumParams | ByrneSmithParams | OddCosPowerParams"


class AmbiguousReconstruction(ArithmeticError):
    """Interval too wide for the denominator bound; retry at higher precision."""


class NoIntegerNearby(ArithmeticError):
    """Scaled interval contains no integer: the denominator bound does not
    hold, which signals a formula or bound bug, not a precision problem."""


class PrecisionExhausted(ArithmeticError):
    """Reconstruction stayed ambiguous through all precision retries."""


@dataclass(frozen=True)
class IntervalValue:
    """A certified enclosure: lower <= true value <= upper.

    Endpoints are the exact dyadic rationals of the binary interval bounds.
    """

    lower: Fraction
    upper: Fraction
    precision_bits: int

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def __contains__(self, value) -> bool:
        return self.lower <= value <= self.upper


@dataclass(frozen=True)
class ReconstructionPolicy:
    """``denominator_bound`` must be a positive multiple of the true
    denominator; ``guard_bits`` sets how much narrower than the integer
    lattice the scaled interval must be."""

    denominator_bound: int
    guard_bits: int = 32

    def __post_init__(self) -> None:
        if self.denominator_bound < 1 or self.guard_bits < 1:
            raise ParameterError("bound and guard_bits must be positive")


@dataclass(frozen=True)
class OddCosPowerParams:
    """Request for sum_{k=0}^{n-1} cos^{2j+1}(k*pi/n) (always exactly 1:
    the k <-> n-k pairing cancels everything but the k=0 term)."""

    j: int
    n: int

    def validate(self) -> None:
        if self.j < 0 or self.n < 1:
            raise ParameterError("need j >= 0 and n >= 1")


# --- interval plumbing -------------------------------------------------

_ZERO = (libmp.fzero, libmp.fzero)


def _to_fraction(raw) -> Fraction:
    sign, man, exp, _ = raw
    if man == 0:
        if exp == 0:
            return Fraction(0)
        raise ArithmeticError("non-finite interval endpoint")
    value = Fraction(int(man))
    value = value * 2**exp if exp >= 0 else value / 2 ** (-exp)
    return -value if sign else value


def _exact(i: int):
    f = libmp.from_int(i)
    return (f, f)


@lru_cache(maxsize=64)
def _pi_interval(prec: int):
    return (libmp.mpf_pi(prec, "d"), libmp.mpf_pi(prec, "u"))


def _angle(num: int, den: int, prec: int):
    # num*pi/den as an interval; num >= 0, den >= 1
    scaled = libmp.mpi_mul(_pi_interval(prec), _exact(num), prec)
    return libmp.mpi_div(scaled, _exact(den), prec)


@lru_cache(maxsize=250_000)
def _trig_interval(fn: str, num: int, den: int, prec: int):
    """Enclosure of cos/sin/cot(num*pi/den). cos/sin arguments are reduced
    mod 2*pi arithmetically (exactly, on the integers) before evaluation so
    repeated lattice angles hit the cache."""
    if fn in ("cos", "sin"):
        num %= 2 * den
        g = gcd(num, den) or 1
        num, den = num // g, den // g
        f = libmp.mpi_cos if fn == "cos" else libmp.mpi_sin
        return f(_angle(num, den, prec), prec)
    if fn == "cot":
        return libmp.mpi_cot(_angle(num, den, prec), prec)
    raise ValueError(fn)


def _pow(iv, exponent: int, prec: int):
    return libmp.mpi_pow_int(iv, exponent, prec)


def _check_precision(precision_bits: int) -> None:
    if precision_bits < 64:
        raise ParameterError("precision_bits must be >= 64")


# --- defining sums ------------------------------------------------------

def _trig_power_terms(spec: SumSpec):
    """Yield (sign, cos_weights, fn, angle_num, angle_den, scale) per term
    of the defining sum. The term is
    sign * prod(cos(w_num*pi/w_den)) * fn(angle_num*pi/angle_den)^{2m} * scale.
    """
    f, m, n, q = spec.family, spec.m, spec.n, spec.q
    kind = spec.kind
    if f is Family.COS_POWER:
        for k in range(n):
            yield 1, (), "cos", k, n, 1
    elif f is Family.SIN_POWER:
        for k in range(n):
            yield 1, (), "sin", k, n, 1
    elif f is Family.SCALED:
        for k in range(q):
            yield 1, (), kind, k, n, 1
    elif f in (Family.COPRIME, Family.GCD_REDUCED):
        for k in range(n):
            yield 1, (), kind, q * k, n, 1
    elif f is Family.QUONIAM:
        for k in range(1, n // 2 + 1):
            yield 1, (), "cos", k, n + 1, 2 ** (2 * m)
    elif f is Family.MERCA_HALF:
        for k in range(1, (n - 1) // 2 + 1):
            yield 1, (), "cos", k, n, 1
    elif f is Family.MERCA_SHIFTED:
        for k in range(1, n // 2 + 1):
            yield 1, (), "cos", 2 * k - 1, 2 * n, 1
    elif f is Family.BARBERO_R:
        for k in range(1, n + 2):
            yield 1, (), "cos", k, 2 * n + 3, 2 ** (2 * m)
    elif f is Family.ALTERNATING:
        for k in range(n):
            yield (-1) ** k, (), kind, k, n, 1
    elif f is Family.SHIFTED_COS:
        for k in range(n):
            yield 1, (), "cos", 2 * k + 1, 2 * n, 1
    elif f is Family.SHIFTED_SIN:
        for k in range(n):
            yield 1, (), "sin", 2 * k + 1, 2 * n, 1
    elif f in (Family.WEIGHT3_COS, Family.WEIGHT3_SIN):
        trig = "cos" if f is Family.WEIGHT3_COS else "sin"
        for k in range(3 * n):
            yield 1, ((2 * k, 3),), trig, k, 3 * n, 1
    elif f is Family.WEIGHT_HALF_PI:
        for k in range(4 * n):
            yield 1, ((k, 2),), "cos", k, 4 * n, 1
    elif f is Family.WEIGHT_PI3:
        for k in range(3 * n):
            yield 1, ((k, 3),), "cos", k, 3 * n, 1
    elif f in (
        Family.ELL5_PRODUCT,
        Family.ELL5_ALT_PRODUCT,
        Family.ELL5_COS2,
        Family.ELL5_COS4,
    ):
        # weight angles in units of pi*k: product of cos(a*k*pi/5)
        factors = {
            Family.ELL5_PRODUCT: (2, 4),
            Family.ELL5_ALT_PRODUCT: (1, 2),
            Family.ELL5_COS2: (2,),
            Family.ELL5_COS4: (4,),
        }[f]
        for k in range(5 * n):
            yield 1, tuple((a * k, 5) for a in factors), "cos", k, 5 * n, 1
    else:  # pragma: no cover
        raise ParameterError(f"family {f} not handled by the oracle")


def _sum_spec_interval(spec: SumSpec, prec: int):
    total = _ZERO
    exponent = 2 * spec.m
    for sign, weights, fn, a_num, a_den, scale in _trig_power_terms(spec):
        term = _pow(_trig_interval(fn, a_num, a_den, prec), exponent, prec)
        for w_num, w_den in weights:
            term = libmp.mpi_mul(
                term, _trig_interval("cos", w_num, w_den, prec), prec
            )
        if scale != 1:
            term = libmp.mpi_mul(term, _exact(scale), prec)
        if sign < 0:
            total = libmp.mpi_sub(total, term, prec)
        else:
            total = libmp.mpi_add(total, term, prec)
    return total


def _check_request(spec) -> None:
    if not isinstance(
        spec, (SumSpec, CotSumParams, ByrneSmithParams, OddCosPowerParams)
    ):
        raise ParameterError(f"unsupported oracle request {type(spec).__name__}")
    spec.validate()


def direct_sum(spec, precision_bits: int) -> IntervalValue:
    """Evaluate ``spec``'s defining sum as a certified interval.

    Accepts a SumSpec, CotSumParams, ByrneSmithParams, or OddCosPowerParams.
    """
    _check_precision(precision_bits)
    _check_request(spec)
    prec = precision_bits
    if isinstance(spec, SumSpec):
        total = _sum_spec_interval(spec, prec)
    elif isinstance(spec, CotSumParams):
        total = _ZERO
        for r in range(1, spec.k):
            term = _pow(_trig_interval("cot", r, spec.k, prec), 2 * spec.n, prec)
            total = libmp.mpi_add(total, term, prec)
    elif isinstance(spec, ByrneSmithParams):
        total = _ZERO
        for r in range(1, spec.k + 1):
            term = _pow(
                _trig_interval("cot", 2 * r - 1, 4 * spec.k, prec), 2 * spec.n, prec
            )
            total = libmp.mpi_add(total, term, prec)
    elif isinstance(spec, OddCosPowerParams):
        total = _ZERO
        for k in range(spec.n):
            term = _pow(
                _trig_interval("cos", k, spec.n, prec), 2 * spec.j + 1, prec
            )
            total = libmp.mpi_add(total, term, prec)
    else:
        raise ParameterError(f"unsupported oracle request {type(spec).__name__}")
    return IntervalValue(
        lower=_to_fraction(total[0]),
        upper=_to_fraction(total[1]),
        precision_bits=prec,
    )


# --- rational reconstruction --------------------------------------------

def reconstruct(value: IntervalValue, policy: ReconstructionPolicy) -> Fraction:
    """Recover the exact rational p/denominator_bound inside ``value``.

    Requires the scaled interval to be narrower than 2^-guard_bits. With
    that established the scaled interval holds at most one integer; zero
    integers means the denominator bound is not a multiple of the true
    denominator (a bug worth surfacing, not retrying).
    """
    bound = policy.denominator_bound
    if value.width * bound >= Fraction(1, 2**policy.guard_bits):
        raise AmbiguousReconstruction(
            f"interval width {float(value.width):.3e} too wide for bound {bound}"
        )
    lo = ceil(value.lower * bound)
    if lo > floor(value.upper * bound):
        raise NoIntegerNearby(
            f"no multiple of 1/{bound} inside the certified interval"
        )
    return Fraction(lo, bound)


_DYADIC_MARGIN = {
    Family.ELL5_PRODUCT: 4,
    Family.ELL5_ALT_PRODUCT: 4,
    Family.ELL5_COS2: 4,
    Family.ELL5_COS4: 4,
}


def denominator_bound_for(spec) -> int:
    """A positive integer guaranteed to clear the request's denominator.

    Trig power families: 2^{2m+2} (closed forms carry prefactor 2^{1-2m};
    the extra bits absorb the /2 and /4 of the composite families), with
    two more bits for the degree-5 weighted family. Integer-valued requests
    (the 2^{2m}-scaled sums, the half-shift cotangent sums and the odd
    cosine power sums): 1.

    Integer-shift cotangent sums T(n, k): k^{2n}, from the angles alone.
    The values cot(r*pi/k), r = 1..k-1, are the k-1 roots of
    Im((x + i)^k) = sum_j (-1)^j C(k, 2j+1) x^{k-1-2j}, an integer
    polynomial with leading coefficient k. Substituting x = y/k and
    multiplying by k^{k-2} gives a monic integer polynomial in y whose
    roots are k*cot(r*pi/k), so those are algebraic integers. Their power
    sum k^{2n} * T(n, k) is then a rational algebraic integer (Newton's
    identities), that is an integer.
    """
    if isinstance(spec, SumSpec):
        if spec.family in (Family.QUONIAM, Family.BARBERO_R):
            return 1
        return 2 ** (2 * spec.m + 2 + _DYADIC_MARGIN.get(spec.family, 0))
    if isinstance(spec, CotSumParams):
        return spec.k ** (2 * spec.n)
    if isinstance(spec, ByrneSmithParams):
        return 1
    if isinstance(spec, OddCosPowerParams):
        return 1
    raise ParameterError(f"unsupported oracle request {type(spec).__name__}")


def default_precision(spec) -> int:
    """Starting working precision: enough bits for the answer's magnitude,
    the denominator bound and the guard, before any retry doubling."""
    if isinstance(spec, SumSpec):
        return 2 * spec.m + (spec.n + 1).bit_length() + 96
    if isinstance(spec, CotSumParams):
        # cot(pi/k) ~ k/pi, so terms reach ~ (k/pi)^{2n}; the bound k^{2n}
        # costs 2n*log2(k) more
        return 2 * spec.n * (max(spec.k.bit_length(), 2) + spec.k.bit_length()) + 96
    if isinstance(spec, ByrneSmithParams):
        return 2 * spec.n * (spec.k.bit_length() + 2) + 96
    if isinstance(spec, OddCosPowerParams):
        return 2 * spec.j + (spec.n + 1).bit_length() + 96
    raise ParameterError(f"unsupported oracle request {type(spec).__name__}")


def evaluate_exact(
    spec,
    policy: ReconstructionPolicy | None = None,
    max_retries: int = 4,
) -> Fraction:
    """direct_sum + reconstruct with doubled-precision retries.

    Ambiguous reconstructions retry (up to ``max_retries`` doublings);
    NoIntegerNearby propagates immediately since more precision cannot put
    an integer inside a certified interval that excludes all of them.
    """
    _check_request(spec)
    if policy is None:
        policy = ReconstructionPolicy(denominator_bound=denominator_bound_for(spec))
    prec = max(64, default_precision(spec))
    for _ in range(max_retries + 1):
        interval = direct_sum(spec, prec)
        try:
            return reconstruct(interval, policy)
        except AmbiguousReconstruction:
            prec *= 2
    raise PrecisionExhausted(
        f"no reconstruction after {max_retries} precision doublings (last {prec // 2} bits)"
    )


def clear_caches() -> None:
    """Drop memoized pi and trig intervals.

    Campaigns deliberately share these across cases; timing a single
    evaluation should not, or the oracle's cost is understated.
    """
    _pi_interval.cache_clear()
    _trig_interval.cache_clear()
