"""Independent ground truth for every sum family in the package.

Each request is evaluated from its *defining* finite sum (the literal
left-hand side: a loop over angle indices), never from the closed form
under test. mpmath interval arithmetic encloses pi, with directed
rounding, and cos/sin/cot of each angle, an exact integer multiple of it;
nothing else in the oracle uses mpmath. Each term fn(angle)^exponent is
then taken on the integers: the trig enclosure's endpoints are floored and
ceiled onto a grid finer than 2^-p by guard bits that grow with the
exponent and the enclosure's magnitude, powered there with every product
floored on the low end and ceiled on the high end, and shifted outward
onto the grid 2^-p of the working precision p. Each end of a term so lies
less than 2 grid units outside the exact power of its trig enclosure's
endpoints. The sum runs on those integers: terms add and scale exactly. A
weighted sum adds its terms into one class per weight residue and
multiplies each class total by each weight once, rounding outward back to
the grid; a sign (-1)^k is the weight cos(k*pi), exactly +-1 there. So the
result is an interval certified to contain the true value. evaluate_exact
builds a request's defining sum once and hands the built sum to
denominator_bound_for and direct_sum. It checks no request: every request
type is a record of families, whose constructor checks its arguments, so
any request that exists is valid. The oracle imports nothing from the
package but errors and families, so it shares no code with the closed
forms it checks.

Before any lookup each angle is folded onto [0, pi/2], exactly and on the
integers, by the period and the mirrors x -> 2*pi - x and x -> pi - x,
which at most change the sign of fn; an odd power then negates and swaps
its endpoints. So the lattice angles k*pi/n and (n - k)*pi/n share one
evaluation. Three memos sit on the fold:

- trig enclosures, by folded angle and the working precision rounded up
  to a multiple of 64 bits, so the cases of a campaign that revisit a
  lattice angle at nearby precisions share one evaluation (the two most
  recently used 64-bit steps keep theirs); one mpi_cos_sin call fills
  both the cos and the sin entry of an angle;
- term integers on the grid, by folded angle, exponent and precision;
- lattice rows: direct_sum reads each index's signed term from one row
  per (fn, den, exponent, precision), den slots for cot and 2*den for
  cos and sin, at the numerator a*k + b modulo the row length. A slot is
  filled once, through the term memo, when a sum first reads it. The
  1,024 most recently used rows of at most 1,024 slots are kept; a longer
  row lasts one sum.

A hit returns exactly the integers a fresh evaluation of the folded angle
would, and ``clear_caches`` empties every memo.

The interval stays on the grid: an IntervalValue holds the integer
endpoints lo and hi and the precision p, and no Fraction is built until
the exit. The exact rational is recovered by scaling the endpoints with an
a-priori denominator bound D: if (hi - lo) * D * 2^-p is narrower than
2^-guard_bits, [lo * D, hi * D] * 2^-p contains at most one integer N, found
by integer shifts, and the value is the one Fraction N/D. A missing
integer means the bound (or the formula being compared) is wrong and is
reported as such rather than retried; an over-wide interval is retried at
doubled precision.

The trig enclosures come from mpmath's stateless low-level layer
(explicit precision arguments, no global context), and a memo entry or
row slot, once written, never changes; two threads that fill the same
slot write the same integers. So oracle calls are pure and safe to fan
out across threads or processes. mpmath is imported
by the first ``direct_sum`` call, not by importing this module: the closed
forms need no interval arithmetic, so ``trigsum eval`` and ``trigsum
table`` never load it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

from .errors import CostGuardError, ParameterError, Record, check_int, set_field
from .families import MAX_M, ByrneSmithParams, CotSumParams, Family, OddCosPowerParams, SumSpec

__all__ = [
    "MAX_TERMS",
    "MAX_PRECISION_BITS",
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

class AmbiguousReconstruction(ArithmeticError):
    """Interval too wide for the denominator bound; retry at higher precision."""


class NoIntegerNearby(ArithmeticError):
    """Scaled interval contains no integer: the denominator bound does not
    hold, which signals a formula or bound bug, not a precision problem."""


class PrecisionExhausted(ArithmeticError):
    """Reconstruction stayed ambiguous through all precision retries."""


class IntervalValue(Record):
    """A certified enclosure on the grid 2^-precision_bits: the true value
    lies in [lo, hi] * 2^-precision_bits, with lo, hi and precision_bits
    ints. ``width`` and ``in`` are exact; ``in`` takes an int or Fraction.
    """

    __slots__ = ("lo", "hi", "precision_bits")

    def __init__(self, lo: int, hi: int, precision_bits: int) -> None:
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)
        set_field(self, "precision_bits", precision_bits)
        check_int("lo", lo)
        check_int("hi", hi)
        check_int("precision_bits", precision_bits)
        if precision_bits < 0:
            raise ParameterError("precision_bits must be >= 0")
        if lo > hi:
            raise ParameterError("an interval needs lo <= hi")

    @property
    def width(self) -> Fraction:
        return Fraction(self.hi - self.lo, 1 << self.precision_bits)

    def __contains__(self, value) -> bool:
        scaled, den = value.numerator << self.precision_bits, value.denominator
        return self.lo * den <= scaled <= self.hi * den


class ReconstructionPolicy(Record):
    """``denominator_bound`` must be a positive multiple of the true
    denominator; ``guard_bits`` sets how much narrower than the integer
    lattice the scaled interval must be."""

    __slots__ = ("denominator_bound", "guard_bits")

    def __init__(self, denominator_bound: int, guard_bits: int = 32) -> None:
        set_field(self, "denominator_bound", denominator_bound)
        set_field(self, "guard_bits", guard_bits)
        check_int("denominator_bound", denominator_bound)
        check_int("guard_bits", guard_bits)
        if denominator_bound < 1 or guard_bits < 1:
            raise ParameterError("bound and guard_bits must be positive")
        if guard_bits > MAX_PRECISION_BITS:
            raise CostGuardError(f"guard_bits must be <= {MAX_PRECISION_BITS} (cost guard)")


# --- interval plumbing -------------------------------------------------

# mpmath.libmp, bound by the first direct_sum call; every function below
# that reads it runs inside direct_sum.
libmp = None


def _floor_on_grid(raw, prec: int) -> int:
    """floor(raw * 2^prec), read off the mpf's mantissa and exponent."""
    sign, man, exp, _ = raw
    if not man and exp:
        raise ArithmeticError("non-finite interval endpoint")
    man = -int(man) if sign else int(man)
    shift = exp + prec
    return man << shift if shift >= 0 else man >> -shift


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


def _term(fn: str, num: int, den: int, exponent: int, prec: int) -> tuple[int, int]:
    """Integers (lo, hi) with lo <= fn(num*pi/den)^exponent * 2^prec <= hi,
    fn one of cos, sin, cot.

    Before the cache lookup the angle x is folded onto [0, pi/2] exactly,
    on the integers: cos/sin reduce mod 2*pi and map x -> 2*pi - x (sin
    changes sign) past pi, cot reduces mod pi; then x -> pi - x past pi/2
    (cos and cot change sign). The folded angle, in lowest terms, is
    enclosed and powered; a sign change applies to odd exponents only, as
    (lo, hi) -> (-hi, -lo), which stays outward because floor and ceil on
    the grid mirror each other. So k and n - k, and every index on the same
    lattice angle, share one enclosure, and a memo hit returns exactly the
    integers a fresh evaluation of the folded angle would."""
    flip = False
    if fn == "cot":
        num %= den
    else:
        num %= 2 * den
        if num > den:  # x -> 2*pi - x
            num = 2 * den - num
            flip = fn == "sin"
    if 2 * num > den:  # x -> pi - x
        num = den - num
        flip ^= fn != "sin"
    g = gcd(num, den)
    lo, hi = _reduced_term(fn, num // g, den // g, exponent, prec)
    return (-hi, -lo) if flip and exponent % 2 else (lo, hi)


# Trig enclosures are computed at the working precision rounded up to a
# multiple of this many bits, so the neighbouring precisions of a campaign
# (2m + bitlen(n + 1) + 96 moves by 2 bits per m) share one cos/sin/cot
# evaluation per angle; each term powers it onto its own grid.
_TRIG_STEP_BITS = 64
# Angles kept per step. Only the two most recently used steps keep a table
# (a campaign near a step boundary alternates between two), so requests
# spread over many precisions, as at large m, hold at most two steps of
# enclosures beside the term memo.
_TRIG_TABLE_SIZE = 100_000


@lru_cache(maxsize=250_000)
def _reduced_term(fn: str, num: int, den: int, exponent: int, prec: int):
    lo, hi = _trig(fn, num, den, -(-prec // _TRIG_STEP_BITS) * _TRIG_STEP_BITS)
    return _grid_power(lo, hi, exponent, prec)


def _grid_power(lo, hi, exponent: int, prec: int) -> tuple[int, int]:
    """Integers (low, high) on the grid 2^-prec around [lo, hi]^exponent,
    lo <= hi mpf endpoints with hi >= 0 (the enclosure of a folded angle's
    cos, sin or cot, which is >= 0); each end lies less than 2 grid units
    outside the exact power of the endpoints.

    The endpoints are floored and ceiled onto the finer grid 2^-(prec + g)
    and powered there by squaring and multiplying, each product floored on
    the low end and ceiled on the high end. With |x| <= M = 2^bits on
    [lo, hi] and u the fine unit, x^j computed so is off by at most
    (4j - 3) * M^{j-1} * u: the start is off by less than u, a squaring
    doubles the error and adds a unit (and its square, far below one), a
    product by the base adds the base's error times M^j and a unit. So
    g = bitlen(4 * exponent) + (exponent - 1) * bits guard bits keep the
    error below one unit of 2^-prec, and the shift outward onto that grid
    adds less than one more. An enclosure that straddles 0 is powered as
    mpi_pow_int powers it: an odd power keeps the signs of the ends, an
    even power runs from 0 to the larger end's power.
    """
    if exponent == 0:
        return 1 << prec, 1 << prec
    # an mpf is man * 2^exp with man odd and bc bits, so |x| < 2^(exp + bc),
    # or |x| = 2^exp when man is 1
    bits = max(0, *(exp + bc - (man == 1) for _, man, exp, bc in (lo, hi)))
    guard = (4 * exponent).bit_length() + (exponent - 1) * bits
    fine = prec + guard
    low, high = _floor_on_grid(lo, fine), -_floor_on_grid(libmp.mpf_neg(hi), fine)
    if low >= 0:
        low, high = _powers(low, high, exponent, fine)
    elif exponent % 2:
        low, high = -_powers(0, -low, exponent, fine)[1], _powers(0, high, exponent, fine)[1]
    else:
        low, high = 0, _powers(0, max(-low, high), exponent, fine)[1]
    return low >> guard, -(-high >> guard)


def _powers(a: int, b: int, exponent: int, fine: int) -> tuple[int, int]:
    """(a^exponent floored, b^exponent ceiled) on the grid 2^-fine, for
    0 <= a <= b on that grid: left-to-right binary powering, every product
    rounded onto the grid in its own direction, so exact powers stay exact."""
    lo, hi = a, b
    for bit in bin(exponent)[3:]:
        lo = lo * lo >> fine
        hi = -(-hi * hi >> fine)
        if bit == "1":
            lo = lo * a >> fine
            hi = -(-hi * b >> fine)
    return lo, hi


@lru_cache(maxsize=2)
def _trig_table(step_prec: int) -> dict:
    return {}


def _trig(fn: str, num: int, den: int, step_prec: int):
    """Enclosure of fn(num*pi/den) at step_prec, a multiple of _TRIG_STEP_BITS.
    One mpi_cos_sin call fills both the cos and the sin entry of an angle."""
    table = _trig_table(step_prec)
    enclosure = table.get((fn, num, den))
    if enclosure is None:
        if fn == "cot":
            found = {"cot": libmp.mpi_cot(_angle(num, den, step_prec), step_prec)}
        elif fn in ("cos", "sin"):
            found = dict(zip(("cos", "sin"), libmp.mpi_cos_sin(_angle(num, den, step_prec), step_prec)))
        else:
            raise ValueError(fn)
        if len(table) < _TRIG_TABLE_SIZE:
            table.update({(name, num, den): value for name, value in found.items()})
        enclosure = found[fn]
    return enclosure


# Rows kept, and the longest row kept: a row is den slots for cot and 2*den
# for cos/sin, and a defining sum of MAX_TERMS terms can take about
# 4*MAX_TERMS slots, so only rows of at most _ROW_SLOTS slots are kept
# (8 MiB of slots at most, beside the term memo). The 20 SumSpec families at
# three m near 200 and n <= 24 fill 561 rows.
_ROWS = 1024
_ROW_SLOTS = 1024


def _lattice_row(fn: str, den: int, exponent: int, prec: int) -> list:
    """The signed terms fn(j*pi/den)^exponent on the grid 2^-prec, slot j
    for j below fn's period in units of pi/den (2*den for cos and sin, den
    for cot), filled by the caller through _term on first read."""
    slots = den if fn == "cot" else 2 * den
    if slots > _ROW_SLOTS:
        return [None] * slots
    return _kept_row(fn, den, exponent, prec, slots)


@lru_cache(maxsize=_ROWS)
def _kept_row(fn: str, den: int, exponent: int, prec: int, slots: int) -> list:
    return [None] * slots


# --- defining sums ------------------------------------------------------

# Cost guard on the length of a defining sum. A term costs tens of
# microseconds of interval arithmetic (80 to 100 us for a cot term at
# k = 2000..20000 on a 2-vCPU Xeon VM), so 10^5 terms take several
# seconds; longer sums are refused with CostGuardError before any term
# is summed.
MAX_TERMS = 100_000

# Cost guard on the working precision. The largest default_precision of a
# request direct_sum accepts is 2*MAX_M + 18 + 96 bits (m or j = MAX_M, with
# n + 1 < 2^18 since a defining sum has at most MAX_TERMS terms; a cot sum
# needs at most 6,896), and the four default retries double it up to 2^4
# times. Higher precisions are refused with CostGuardError before pi is
# enclosed.
MAX_PRECISION_BITS = 2**4 * (2 * MAX_M + (2 * MAX_TERMS + 3).bit_length() + 96)


class _DefiningSum(NamedTuple):
    """A request's defining sum

        sum_{k in indices} prod_{(c, d) in weights} cos(c*k*pi/d)
            * fn((a*k + b)*pi/den)^exponent * scale,

    with the request's denominator bound and starting working precision
    (see denominator_bound_for and default_precision). A sign (-1)^k =
    cos(k*pi) is the weight (1, 1)."""

    indices: range
    fn: str
    a: int
    b: int
    den: int
    exponent: int
    bound: int
    precision: int
    weights: tuple[tuple[int, int], ...] = ()
    scale: int = 1


def _lattice(period: int, fn: str, *weights: tuple[int, int], bound_bits: int = 2):
    # k < period*n at the angles k*pi/(period*n), each term times the
    # product of cos(c*k*pi/d) over the weights (c, d)
    return lambda m, n, q, kind: (range(period * n), fn, 1, 0, period * n, weights, 4**m << bound_bits, 1)


# Each family's defining sum, from (m, n, q, kind): (indices, fn, a, b, den,
# weights, bound, scale) of _DefiningSum. The denominator bound is 2^{2m+2},
# four bits more for the degree-5 weighted families; quoniam and barbero
# are scaled by 2^{2m}, which makes their values integers, of bound 1.
_SUM_SPEC_SUMS = {
    Family.COS_POWER: _lattice(1, "cos"),
    Family.SIN_POWER: _lattice(1, "sin"),
    Family.SCALED: lambda m, n, q, kind: (range(q), kind, 1, 0, n, (), 4**m << 2, 1),
    Family.COPRIME: lambda m, n, q, kind: (range(n), kind, q, 0, n, (), 4**m << 2, 1),
    Family.GCD_REDUCED: lambda m, n, q, kind: (range(n), kind, q, 0, n, (), 4**m << 2, 1),
    Family.QUONIAM: lambda m, n, q, kind: (range(1, n // 2 + 1), "cos", 1, 0, n + 1, (), 1, 4**m),
    Family.MERCA_HALF: lambda m, n, q, kind: (range(1, (n - 1) // 2 + 1), "cos", 1, 0, n, (), 4**m << 2, 1),
    Family.MERCA_SHIFTED: lambda m, n, q, kind: (range(1, n // 2 + 1), "cos", 2, -1, 2 * n, (), 4**m << 2, 1),
    Family.BARBERO_R: lambda m, n, q, kind: (range(1, n + 2), "cos", 1, 0, 2 * n + 3, (), 1, 4**m),
    Family.ALTERNATING: lambda m, n, q, kind: (range(n), kind, 1, 0, n, ((1, 1),), 4**m << 2, 1),
    Family.SHIFTED_COS: lambda m, n, q, kind: (range(n), "cos", 2, 1, 2 * n, (), 4**m << 2, 1),
    Family.SHIFTED_SIN: lambda m, n, q, kind: (range(n), "sin", 2, 1, 2 * n, (), 4**m << 2, 1),
    Family.WEIGHT3_COS: _lattice(3, "cos", (2, 3)),
    Family.WEIGHT3_SIN: _lattice(3, "sin", (2, 3)),
    Family.WEIGHT_HALF_PI: _lattice(4, "cos", (1, 2)),
    Family.WEIGHT_PI3: _lattice(3, "cos", (1, 3)),
    Family.ELL5_PRODUCT: _lattice(5, "cos", (2, 5), (4, 5), bound_bits=6),
    Family.ELL5_ALT_PRODUCT: _lattice(5, "cos", (1, 5), (2, 5), bound_bits=6),
    Family.ELL5_COS2: _lattice(5, "cos", (2, 5), bound_bits=6),
    Family.ELL5_COS4: _lattice(5, "cos", (4, 5), bound_bits=6),
}


def _sum_spec_sum(spec: SumSpec) -> _DefiningSum:
    m, n = spec.m, spec.n
    indices, fn, a, b, den, weights, bound, scale = _SUM_SPEC_SUMS[spec.family](m, n, spec.q, spec.kind)
    precision = 2 * m + (n + 1).bit_length() + 96
    return _DefiningSum(indices, fn, a, b, den, 2 * m, bound, precision, weights, scale)


def _cot_sum(spec: CotSumParams) -> _DefiningSum:
    n, k = spec.n, spec.k
    # cot(pi/k) ~ k/pi, so terms reach ~ (k/pi)^{2n}; the bound k^{2n}
    # costs 2n*log2(k) more
    precision = 2 * n * (max(k.bit_length(), 2) + k.bit_length()) + 96
    return _DefiningSum(range(1, k), "cot", 1, 0, k, 2 * n, k ** (2 * n), precision)


def _half_shift_cot_sum(spec: ByrneSmithParams) -> _DefiningSum:
    n, k = spec.n, spec.k
    precision = 2 * n * (k.bit_length() + 2) + 96
    return _DefiningSum(range(1, k + 1), "cot", 2, -1, 4 * k, 2 * n, 1, precision)


def _odd_cos_sum(spec: OddCosPowerParams) -> _DefiningSum:
    j, n = spec.j, spec.n
    precision = 2 * j + (n + 1).bit_length() + 96
    return _DefiningSum(range(n), "cos", 1, 0, n, 2 * j + 1, 1, precision)


# The one place the oracle reads a request's type.
_DEFINING_SUMS = {
    SumSpec: _sum_spec_sum,
    CotSumParams: _cot_sum,
    ByrneSmithParams: _half_shift_cot_sum,
    OddCosPowerParams: _odd_cos_sum,
}


def _defining_sum(spec) -> _DefiningSum:
    """Build ``spec``'s defining sum; a built one is returned as is."""
    if type(spec) is _DefiningSum:
        return spec
    define = _DEFINING_SUMS.get(type(spec))
    if define is None:
        raise ParameterError(f"unsupported oracle request {type(spec).__name__}")
    return define(spec)


def direct_sum(spec, precision_bits: int) -> IntervalValue:
    """Evaluate ``spec``'s defining sum as a certified interval, returned
    as its integer endpoints on the grid 2^-precision_bits.

    Accepts a SumSpec, CotSumParams, ByrneSmithParams, or OddCosPowerParams,
    or the defining sum built from one. Index k reads its signed term
    fn((a*k + b)*pi/den)^exponent from the lattice row of (fn, den,
    exponent, precision_bits), filling an empty slot through the term memo.
    A weighted sum adds its terms into one class per weight residue and
    multiplies each class total by each weight once: the residues c*k
    mod 2d over its weights (c, d) fix k modulo their common period and are
    fixed by it, so a class is that residue of k. Every term of a class
    shares the weights' values, and rounding a total outward is never wider
    than rounding its terms one by one (a sign (-1)^k is the weight
    cos(k*pi), exactly +-1 on the grid).

    Against the exact sum of the terms made from the exact powers of their
    trig enclosures' endpoints, each endpoint moves out by less than
    2 * (1 + len(weights)) grid units per term, times the scale: a term
    lies less than 2 units outside its exact power (less than 1 from the
    integer powering on the finer grid, less than 1 from the shift onto
    2^-precision_bits); a weight, its enclosure floored and ceiled straight
    onto the grid, less than 1, times a term of at most 1 in magnitude (the
    weighted families sum cos powers); and each class product rounds out
    by less than 1, once per class and weight. A sum of more than
    MAX_TERMS terms, or a precision above MAX_PRECISION_BITS, raises
    CostGuardError.
    """
    global libmp
    if libmp is None:
        from mpmath import libmp
    check_int("precision_bits", precision_bits)
    if precision_bits < 64:
        raise ParameterError("precision_bits must be >= 64")
    if precision_bits > MAX_PRECISION_BITS:
        raise CostGuardError(f"precision_bits must be <= {MAX_PRECISION_BITS} (cost guard)")
    s = _defining_sum(spec)
    if len(s.indices) > MAX_TERMS:
        raise CostGuardError(
            f"defining sum has {len(s.indices)} terms, more than {MAX_TERMS} (cost guard)"
        )
    prec, weights = precision_bits, s.weights
    fn, a, b, den, exponent = s.fn, s.a, s.b, s.den, s.exponent
    row = _lattice_row(fn, den, exponent, prec)
    period = len(row)
    # k mod cycle fixes every weight residue c*k mod 2d, and is fixed by them
    cycle = lcm(*(2 * d // gcd(c, 2 * d) for c, d in weights))
    lower = upper = 0
    classes = {}  # k mod cycle -> summed term enclosure
    for k in s.indices:
        j = (a * k + b) % period
        term = row[j]
        if term is None:
            term = row[j] = _term(fn, j, den, exponent, prec)
        lo, hi = term
        if weights:
            c_lo, c_hi = classes.get(k % cycle, (0, 0))
            classes[k % cycle] = (c_lo + lo, c_hi + hi)
        else:
            lower += lo
            upper += hi
    for key, (lo, hi) in classes.items():
        for c, d in weights:
            w_lo, w_hi = _term("cos", c * key % (2 * d), d, 1, prec)
            products = (lo * w_lo, lo * w_hi, hi * w_lo, hi * w_hi)
            lo, hi = min(products) >> prec, -(-max(products) >> prec)
        lower += lo
        upper += hi
    return IntervalValue(lower * s.scale, upper * s.scale, prec)


# --- rational reconstruction --------------------------------------------

def reconstruct(value: IntervalValue, policy: ReconstructionPolicy) -> Fraction:
    """Recover the exact rational p/denominator_bound inside ``value``.

    Requires the scaled interval [L, H] * 2^-prec, L = lo * bound and
    H = hi * bound, to be narrower than 2^-guard_bits. With that
    established it holds at most one integer, p = ceil(L * 2^-prec); none,
    p > floor(H * 2^-prec), means the denominator bound is not a multiple of
    the true denominator (a bug worth surfacing, not retrying). All three
    tests are integer shifts on the grid. A value that is not an
    IntervalValue, or a policy that is not a ReconstructionPolicy, raises
    ParameterError.
    """
    if type(value) is not IntervalValue or type(policy) is not ReconstructionPolicy:
        raise ParameterError("reconstruct needs an IntervalValue and a ReconstructionPolicy")
    bound, prec = policy.denominator_bound, value.precision_bits
    low, high = value.lo * bound, value.hi * bound
    if (high - low) << policy.guard_bits >= 1 << prec:
        raise AmbiguousReconstruction(
            f"interval width {float(value.width):.3e} too wide for a {bound.bit_length()}-bit bound"
        )
    p = -(-low >> prec)
    if p > high >> prec:
        raise NoIntegerNearby(
            f"no multiple of 1/bound inside the certified interval ({bound.bit_length()}-bit bound)"
        )
    return Fraction(p, bound)


def denominator_bound_for(spec) -> int:
    """A positive integer guaranteed to clear the request's denominator.

    Trig power families: 2^{2m+2} (closed forms carry prefactor 2^{1-2m};
    the extra bits absorb the /2 and /4 of the composite families), with
    four more bits for the degree-5 weighted family. Integer-valued requests
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
    return _defining_sum(spec).bound


def default_precision(spec) -> int:
    """Starting working precision: enough bits for the answer's magnitude,
    the denominator bound and the guard, before any retry doubling."""
    return _defining_sum(spec).precision


def evaluate_exact(
    spec,
    policy: ReconstructionPolicy | None = None,
    max_retries: int = 4,
) -> Fraction:
    """direct_sum + reconstruct with doubled-precision retries.

    Ambiguous reconstructions retry (up to ``max_retries`` doublings);
    NoIntegerNearby propagates immediately since more precision cannot put
    an integer inside a certified interval that excludes all of them. A
    defining sum of more than MAX_TERMS (10^5) terms, or retries that could
    climb above MAX_PRECISION_BITS, are refused with CostGuardError before
    any term is summed.
    """
    check_int("max_retries", max_retries)
    if max_retries < 0:
        raise ParameterError("max_retries must be >= 0")
    built = _defining_sum(spec)
    if policy is None:
        policy = ReconstructionPolicy(denominator_bound=denominator_bound_for(built))
    prec = max(64, built.precision)
    if max_retries >= MAX_PRECISION_BITS.bit_length() or prec << max_retries > MAX_PRECISION_BITS:
        raise CostGuardError(
            f"{max_retries} doublings of {prec} bits pass {MAX_PRECISION_BITS} bits (cost guard)"
        )
    for _ in range(max_retries + 1):
        interval = direct_sum(built, prec)
        try:
            return reconstruct(interval, policy)
        except AmbiguousReconstruction:
            prec *= 2
    raise PrecisionExhausted(
        f"no reconstruction after {max_retries} precision doublings (last {prec // 2} bits)"
    )


def clear_caches() -> None:
    """Drop the memoized pi and trig enclosures, term integers and lattice
    rows.

    Campaigns deliberately share, across cases, one trig enclosure per
    folded angle and 64-bit precision step, one term per folded angle,
    exponent and precision, and one lattice row per fn, denominator,
    exponent and precision; timing a single evaluation should not, or the
    oracle's cost is understated. After this call every trig enclosure and
    integer power is computed again.
    """
    _pi_interval.cache_clear()
    _trig_table.cache_clear()
    _reduced_term.cache_clear()
    _kept_row.cache_clear()
