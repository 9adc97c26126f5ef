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
expansions.

Every C(m, d*n) a composite value combines lies on one window: its terms
are the terms p = 0 (mod d) of the window of (m, n). So each value walks
the window of (m, n) once, adds term p into a bucket chosen by p mod L,
and reads each C and S it needs off the buckets (_window_pass); with one
bucket, as for C, S and their multiples, the window is summed as it
streams. Values share windows too: coprime and gcd do not depend on q
beyond gcd(n, q), and C, S, scaled, coprime and gcd read the same one. So
_window_pass keeps its last _PASSES results in an lru_cache keyed by its
arguments, and a verify campaign, whose q sweeps run in a row, walks each
window once; clear_caches() empties it, for timing a cold value.

The window sum over all integers p is also entry m mod n of the residue
row of (1 + x)^{2m} mod (x^n - 1), the closed-walk count of the n-cycle
with a loop at each vertex (exact_core.residue_row). A row mod
(x^{L*n} - 1) holds every bucket class too, over both sides of the centre.
So each call reads its sums off that row instead, with L = 2 for S at odd
n and L the bucket period of _window_pass, wherever _row_is_cheaper prices
the row below the window; the row's last squaring is done only for the
entries read (_row_pass). The price is a cost model fitted to timings of
the two routes (its docstring has the constants and their source): the
window's floor(m/n) ratio steps on 2m-bit integers against the row's
Karatsuba squarings of an L*n*m-bit integer. The row wins at small n and
large m (C(10^5, 7) in 0.10 against 2.7 s); the window keeps m = 200
at n >= 6, criterion 9's C(200, 7) among them, and every call whose window
has few terms.

The half-shift sums are the one place a second route still runs: their
direct form weights the window of (m, n) by (-1)^p, and the check column of
their rows compares it with C(m, 2n) - C(m, n), C(m, 2n) walked off the
window of (m, 2n) at every call, whatever the cost model says, so a direct
form read off a row is checked against a route that shares no arithmetic
with it.

All values are exact rationals with a power-of-two denominator. Any value
times 2^{2m+2} is an integer for the families here except the degree-5
weighted family, where 2^{2m+4} suffices. So each family combines the
window's integers into one integer numerator and every value leaves
through _dyadic, the one place a Fraction is built (the Barbero erratum
reproducer keeps its published formula).

All twenty families are one row each of the table _ROWS, which _windowed
evaluates. The requests, SumSpec and Family, are defined and checked in
families.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd, lcm
from operator import mul

from .errors import ParameterError, check_int
from .exact_core import Rational, binom, binom_window, residue_row
from .families import MAX_M, Family, SumSpec

__all__ = [
    "MAX_M",
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


# Results _window_pass keeps. A verify campaign sorts its requests by
# family, kind, m, n and q, so a q sweep of coprime or gcd reads one window
# over and over, and C, S, scaled, coprime and gcd share theirs: on the 20
# families at m = 200..202, n <= 24 (7,422 cases, 7,422 calls), 16 entries
# hit 5,868 times, 64 hit 5,910, 256 hit 6,258 and 1,024 hit 6,552. An entry
# holds at most four sums (weight-pi3 and ell5-alt-product read four
# multiples) of about 2m bits each, so at MAX_M an entry is about 100 KB
# and the memo at most about 26 MB.
_PASSES = 256


@lru_cache(maxsize=_PASSES)
def _window_pass(
    kind: str,
    m: int,
    n: int,
    multiples: tuple[int, ...],
    classes: tuple[tuple[int, ...], ...] = (),
    period: int = 1,
) -> tuple[int, ...]:
    """One pass over the window of (m, n), or one residue row. Returns
    4^m * X(m, d*n) for each d in ``multiples`` (X = C for kind "cos", S
    for "sin"), then for each tuple in ``classes`` the tail sum of
    binom(2m, m - p*n) over p >= 1 with p mod ``period`` in that tuple;
    each tuple is closed under c -> -c mod ``period``.

    The last _PASSES results are memoized, keyed by the arguments as
    passed, so a campaign reads each window once however many requests
    share it; the tuple returned is the memo's own. clear_caches() empties
    the memo. A row's check column walks its window outside it.

    Term p of the window lands in class p mod L, L the lcm of ``period`` and
    of the multiples, each d read as 2d for S at odd d*n. The window of
    (m, d*n) is the terms p = 0 (mod d), so

        4^m * C(m, d*n) = d*n * (binom(2m, m) + 2 * sum_{j = 0 (mod d)} tail_j)

    (binom(2m-1, m-1) = binom(2m, m)/2 for m >= 1, and the m = 0 value d*n
    comes out too). S weights term p by (-1)^{p*n}: it equals C at even d*n,
    and at odd d*n the classes j = d (mod 2d) enter with sign -1.

    The classes come from the cheaper of two routes (_row_is_cheaper): the
    window's terms, walked and added into L buckets (summed as they stream
    at L = 1), or the residue row of (1 + x)^{2m} mod (x^{L*n} - 1), whose
    entry r sums the terms binom(2m, i), i = r (mod L*n), over all integers
    p, both sides of the centre."""
    size = lcm(period, *multiples)
    if kind == "sin" and multiples and n * size % 2:  # S at odd d*n: L even
        size *= 2
    if _row_is_cheaper(m, n, size):
        return _row_pass(kind, m, n, multiples, classes, period, size)
    terms = binom_window(m, n)
    if size == 1:
        buckets = [sum(islice(terms, m // n))]
    else:
        buckets = [0] * size
        for p, term in zip(range(m // n, 0, -1), terms):
            buckets[p % size] += term
    central = next(terms)
    sums = []
    for d in multiples:
        odd = kind == "sin" and d * n % 2
        tail = sum(buckets[:: 2 * d]) - sum(buckets[d :: 2 * d]) if odd else sum(buckets[::d])
        sums.append(d * n * (central + 2 * tail))
    for wanted in classes:
        sums.append(sum(b for r, b in enumerate(buckets) if r % period in wanted))
    return tuple(sums)


def _row_pass(
    kind: str,
    m: int,
    n: int,
    multiples: tuple[int, ...],
    classes: tuple[tuple[int, ...], ...],
    period: int,
    size: int,
) -> tuple[int, ...]:
    """_window_pass's sums read off the residue row of (1 + x)^{2m}
    mod (x^{size*n} - 1). Folded to dn entries, the row's entry m mod dn is
    the whole window sum of (m, d*n), so 4^m * C(m, d*n) is dn times it; S
    at odd dn is the fold to 2dn at m less the one at m - dn. A class tail
    is half the entries m - c*n (mod period*n), c in the class, over both
    sides of the centre, less binom(2m, m) when c = 0 is in the class.

    The row's last squaring is done only for the entries read. The row is
    H^2 for H the row of (1 + x)^m, so its fold to a span s | size*n at r
    is sum_j F[j] * F[r - j], indices mod s, F the fold of H to s: s
    products of m-bit integers, where squaring all of H is one product of
    (2*size*n*m)-bit ones. H is symmetric, F[j] = F[m - j], so the entry at
    r = m - lag is sum_j F[j] * F[j + lag]."""
    half = residue_row(m, size * n)

    def fold(lag: int, span: int) -> int:  # the row folded to span, at m - lag
        folded = [sum(half[j::span]) for j in range(span)]
        return sum(f * folded[(j + lag) % span] for j, f in enumerate(folded))

    sums = []
    for d in multiples:
        span = d * n
        odd = kind == "sin" and span % 2
        total = fold(0, 2 * span) - fold(span, 2 * span) if odd else fold(0, span)
        sums.append(span * total)
    for wanted in classes:
        both_sides = sum(fold(c * n, period * n) for c in wanted)
        sums.append((both_sides - (binom(2 * m, m) if 0 in wanted else 0)) // 2)
    return tuple(sums)


def _row_is_cheaper(m: int, n: int, size: int) -> bool:
    """Whether _row_pass, on the residue row of size*n slots, costs less
    than walking the window of (m, n), by the cost model below, in ns.

    The window is floor(m/n) ratio steps on 2m-bit integers, each with two
    products of n small factors. The row is one widening and one squaring
    a bit of m, each touching its size*n slots, and the squarings of the
    last levels, which dominate: Karatsuba squares an x-bit integer in
    about 3^{log2 x} word products, taken here at x = size*n*m and
    interpolated linearly between powers of two. The constants are least
    squares fits to the relative error of the two routes timed alone, C's
    window of (m, n) and _row_pass at L = n, over m = 10..10^5 and n =
    1..100 (152 window and 149 row timings, each the least of up to 200
    runs; 2-vCPU Xeon VM, Python 3.11, no gmpy2). The window model is
    within 0.4-1.3x of its timings, the row model within 0.6-1.6x at
    L >= 3; the rows at L = 1 and 2, powers of two and their halves, square
    up to 6x faster than modelled at m >= 40000. Of the 149 pairs, the
    model picks the slower route at 2, each within 10% of the faster.
    """
    steps, span = m // n, size * n
    window = 1100 + steps * (250 + 30 * n + m * (560 + 105 * n) // 1000)
    work = span * m + 1
    top = work.bit_length() - 1
    karatsuba = 3**top * (2 * work - (1 << top)) >> top
    row = (m.bit_length() + 1) * (1600 + 120 * span) + 44 * karatsuba // 1000
    return row < window


def _dyadic(numerator: int, bits: int) -> Rational:
    """numerator / 2^bits in lowest terms, without Fraction's gcd of two
    2m-bit integers: the common factor is a power of two, read off the
    numerator's trailing zero bits. The Fraction is assembled from its two
    slots, _numerator and _denominator, as the fractions module builds one
    from integers already coprime; the tests hold it equal to
    Fraction(numerator, 2**bits)."""
    shift = min((numerator & -numerator).bit_length() - 1, bits) if numerator else bits
    value = object.__new__(Fraction)
    value._numerator = numerator >> shift
    value._denominator = 1 << (bits - shift)
    return value


# One row per family, a function of (m, n, q, kind) giving (kind, window n,
# multiples, coefficients, constant, bits, classes, period, check): the value
# is the coefficients' dot product with the sums _window_pass returns, plus
# constant * 4^m, over 2^bits. A check d > 0, at even d*n, where C(m, d*n) =
# S(m, d*n), asserts that 4^m * C(m, d*n) less the first sum is the numerator.
_ROWS = {
    Family.COS_POWER: lambda m, n, q, kind: ("cos", n, (1,), (1,), 0, 2 * m, (), 1, 0),
    Family.SIN_POWER: lambda m, n, q, kind: ("sin", n, (1,), (1,), 0, 2 * m, (), 1, 0),
    Family.SCALED: lambda m, n, q, kind: (kind, n, (1,), (q // n,), 0, 2 * m, (), 1, 0),
    Family.COPRIME: lambda m, n, q, kind: (kind, n, (1,), (1,), 0, 2 * m, (), 1, 0),
    Family.GCD_REDUCED: lambda m, n, q, kind: (kind, n // gcd(n, q), (1,), (gcd(n, q),), 0, 2 * m, (), 1, 0),
    Family.MERCA_HALF: lambda m, n, q, kind: ("cos", n, (1,), (1,), -1, 2 * m + 1, (), 1, 0),
    Family.QUONIAM: lambda m, n, q, kind: ("cos", n + 1, (1,), (1,), -1, 1, (), 1, 0),
    Family.BARBERO_R: lambda m, n, q, kind: ("cos", 2 * n + 3, (1,), (1,), -1, 1, (), 1, 0),
    Family.ALTERNATING: lambda m, n, q, kind: (kind, n // 2, (1, 2), (2, -1), 0, 2 * m, (), 1, 0),
    Family.WEIGHT3_COS: lambda m, n, q, kind: ("cos", n, (1, 3), (3, -1), 0, 2 * m + 1, (), 1, 0),
    Family.WEIGHT3_SIN: lambda m, n, q, kind: ("sin", n, (1, 3), (3, -1), 0, 2 * m + 1, (), 1, 0),
    Family.WEIGHT_HALF_PI: lambda m, n, q, kind: ("cos", n, (1, 2), (2, -1), 0, 2 * m, (), 1, 0),
    Family.WEIGHT_PI3: lambda m, n, q, kind: (
        "cos", n // 2, (1, 2, 3, 6), (6, -3, -2, 1), 0, 2 * m + 1, (), 1, 0
    ),
    Family.ELL5_PRODUCT: lambda m, n, q, kind: ("cos", n, (1, 5), (5, -1), 0, 2 * m + 2, (), 1, 0),
    Family.ELL5_ALT_PRODUCT: lambda m, n, q, kind: (
        "cos", n // 2, (1, 2, 5, 10), (10, -5, -2, 1), 0, 2 * m + 2, (), 1, 0
    ),
    # the classes p = +-1 (mod 5) of the cos2 weight (ell5_sum)
    Family.ELL5_COS2: lambda m, n, q, kind: ("cos", n, (), (5 * n,), 0, 2 * m, ((1, 4),), 5, 0),
    Family.ELL5_COS4: lambda m, n, q, kind: ("cos", n, (1, 5), (10, -2, -20 * n), 0, 2 * m + 2, ((1, 4),), 5, 0),
    # X(m, 2n) - X(m, n): the direct weight less X's is -2 at odd p for cos,
    # -2*(-1)^n for sin; merca-shifted is half of shifted-cos
    Family.SHIFTED_COS: lambda m, n, q, kind: ("cos", n, (1,), (1, -4 * n), 0, 2 * m, ((1,),), 2, 2),
    Family.SHIFTED_SIN: lambda m, n, q, kind: ("sin", n, (1,), (1, 4 * n * (-1) ** (n + 1)), 0, 2 * m, ((1,),), 2, 2),
    Family.MERCA_SHIFTED: lambda m, n, q, kind: ("cos", n, (1,), (1, -4 * n), 0, 2 * m + 1, ((1,),), 2, 2),
}


def _windowed(spec: SumSpec) -> Rational:
    """The value of ``spec``: one window pass or residue row, the row's
    check, if any, on a window walked afresh (so a memo hit is checked too),
    and one _dyadic of the row's integer combination."""
    m = spec.m
    row = _ROWS[spec.family](m, spec.n, spec.q, spec.kind)
    kind, n, multiples, coefficients, constant, bits, classes, period, check = row
    sums = _window_pass(kind, m, n, multiples, classes, period)
    numerator = sum(map(mul, coefficients, sums))
    if constant:
        numerator += constant * 4**m
    if check:
        span = check * n
        terms = binom_window(m, span)  # the tail, then the central term
        if span * (2 * sum(islice(terms, m // span)) + next(terms)) - sums[0] != numerator:
            raise ArithmeticError(f"{spec.family.value}: evaluation routes disagree")
    return _dyadic(numerator, bits)


def cos_power_sum(m: int, n: int) -> Rational:
    """C(m, n) = sum_{k=0}^{n-1} cos^{2m}(k*pi/n)."""
    return _windowed(SumSpec(Family.COS_POWER, m, n))


def sin_power_sum(m: int, n: int) -> Rational:
    """S(m, n) = sum_{k=0}^{n-1} sin^{2m}(k*pi/n)."""
    return _windowed(SumSpec(Family.SIN_POWER, m, n))


def scaled_sum(kind: str, m: int, n: int, q: int) -> Rational:
    """sum_{k=0}^{q-1} trig^{2m}(k*pi/n) for n | q: the same n angles swept
    q/n times, so the value is (q/n) * C(m, n) (resp. S)."""
    return _windowed(SumSpec(Family.SCALED, m, n, q, kind))


def coprime_sum(kind: str, m: int, n: int, q: int) -> Rational:
    """sum_{k=0}^{n-1} trig^{2m}(q*k*pi/n) for gcd(n, q) = 1.

    Multiplication by q permutes the residues mod n (and the squared trig
    factor kills the sign of the representative), so the value is C(m, n)
    (resp. S) independently of which coprime q is chosen.
    """
    return _windowed(SumSpec(Family.COPRIME, m, n, q, kind))


def gcd_reduced_sum(kind: str, m: int, n: int, q: int) -> Rational:
    """sum_{k=0}^{n-1} trig^{2m}(q*k*pi/n) for arbitrary q >= 1.

    With r = gcd(n, q) and n = r*l, the angle lattice q*k/n mod 1 covers the
    lattice for denominator l exactly r times: the value is r * C(m, l)
    (resp. S). Reduces to coprime_sum when r = 1.
    """
    return _windowed(SumSpec(Family.GCD_REDUCED, m, n, q, kind))


def quoniam_sum(m: int, n: int) -> Rational:
    """2^{2m} * sum_{k=1}^{floor(n/2)} cos^{2m}(k*pi/(n+1)) = 4^m * (C(m, n+1) - 1)/2,
    valid for 1 <= m < n+1, a window of no tail: (n+1)*binom(2m-1, m-1) - 2^{2m-1}."""
    return _windowed(SumSpec(Family.QUONIAM, m, n))


def merca_half_sum(p: int, n: int) -> Rational:
    """sum_{k=1}^{floor((n-1)/2)} cos^{2p}(k*pi/n)
    = -1/2 + (n/2^{2p+1}) * sum_{k=-floor(p/n)}^{floor(p/n)} binom(2p, p+kn),
    which is (C(p, n) - 1)/2: the k = 0 term dropped, the mirror pairs
    halved."""
    return _windowed(SumSpec(Family.MERCA_HALF, p, n))


def merca_shifted_sum(p: int, n: int) -> Rational:
    """sum_{k=1}^{floor(n/2)} cos^{2p}((k - 1/2)*pi/n)
    = (n/2^{2p+1}) * sum_{k=-floor(p/n)}^{floor(p/n)} (-1)^k binom(2p, p+kn),
    which is shifted_cos_sum(p, n)/2 by mirror pairing."""
    return _windowed(SumSpec(Family.MERCA_SHIFTED, p, n))


def barbero_R(m: int, n: int) -> Rational:
    """R_{m,n} = 2^{2m} * sum_{k=1}^{n+1} cos^{2m}(k*pi/(2n+3)).

    This is (n + 3/2)*binom(2m, m) - 2^{2m-1} plus, once m >= 2n+3, the
    tail (2n+3) * sum_i binom(2m, m-(2n+3)i). The tail is the part the
    first-branch expression misses; see barbero_R_naive. At m = 0 the
    expression gives R_{0,n} = n+1 (a sum of n+1 ones). Computed as
    2^{2m} * (C(m, 2n+3) - 1)/2, the k = 0 term dropped and the mirror
    pairs of the odd period halved.
    """
    return _windowed(SumSpec(Family.BARBERO_R, m, n))


def barbero_R_naive(m: int, n: int) -> Rational:
    """The first-branch expression (n + 3/2)*binom(2m, m) - 2^{2m-1} applied
    unconditionally. A known erratum: it is only valid for m < 2n+3, and at
    (m, n) = (12, 3) it yields 3780094 instead of 3798310 (short by
    9*binom(24, 3) = 18216). Kept as a regression reproducer."""
    SumSpec(Family.BARBERO_R, m, n)
    if m < 1:
        raise ParameterError("barbero_R_naive requires m >= 1")
    return Fraction(2 * n + 3, 2) * binom(2 * m, m) - 2 ** (2 * m - 1)


def alternating_sum(kind: str, m: int, n: int) -> Rational:
    """sum_{k=0}^{n-1} (-1)^k * trig^{2m}(k*pi/n) for even period n.

    The signed sum keeps the even-k half-lattice doubled minus the full
    lattice: 2*C(m, n/2) - C(m, n) (resp. S). Computed by composition;
    the explicit middle-range case tables in circulation drop a factor
    (see alternating_cos_middle_erratum).
    """
    return _windowed(SumSpec(Family.ALTERNATING, m, n, kind=kind))


def _middle_erratum(m: int, n: int) -> Rational:
    """2^{2-2m} * sum_{p >= 1} binom(2m, m-pn), the published middle-range
    expression of both alternating errata."""
    check_int("n", n)  # 2 * True would pass as N = 2
    SumSpec(Family.ALTERNATING, m, 2 * n)
    if not n <= m < 2 * n:
        raise ParameterError("middle-range expression needs n <= m < 2n")
    (tail,) = _window_pass("cos", m, n, (), ((0,),))
    return _dyadic(tail, 2 * m - 2)


def alternating_cos_middle_erratum(m: int, n: int) -> Rational:
    """The published middle-range (n <= m < 2n) expression for the cosine
    alternating sum over N = 2n points: 2^{2-2m} * sum_p binom(2m, m-pn).

    Erratum reproducer: the true value is n times this (equal only at
    n = 1). The factor-n omission is asserted, not corrected, here.
    """
    return _middle_erratum(m, n)


def alternating_sin_middle_erratum(m: int, n: int) -> Rational:
    """The published middle-range expression for the sine alternating sum
    over N = 2n points, identical in shape to the cosine one.

    Erratum reproducer: besides the factor n it also drops the (-1)^{pn}
    sign, so the true value is (-1)^n * n times this and the two never
    coincide (at n = 1 the sign still differs).
    """
    return _middle_erratum(m, n)


def shifted_cos_sum(m: int, n: int) -> Rational:
    """sum_{k=0}^{n-1} cos^{2m}((k + 1/2)*pi/n) = C(m, 2n) - C(m, n).

    Also 2^{1-2m} * n * (binom(2m-1, m-1) + sum_p (-1)^p binom(2m, m-pn));
    the two routes are asserted equal (the check column of its row in _ROWS).
    """
    return _windowed(SumSpec(Family.SHIFTED_COS, m, n))


def shifted_sin_sum(m: int, n: int) -> Rational:
    """sum_{k=0}^{n-1} sin^{2m}((k + 1/2)*pi/n).

    Direct form 2^{1-2m} * n * (binom(2m-1, m-1)
    + sum_p (1 + (-1)^p - (-1)^{np}) * binom(2m, m-pn)): the weight reduces
    to +1 for odd n and to (-1)^p for even n. Asserted equal to
    S(m, 2n) - S(m, n) (the check column of its row in _ROWS).
    """
    return _windowed(SumSpec(Family.SHIFTED_SIN, m, n))


def weight3_sum(kind: str, m: int, n: int) -> Rational:
    """sum_{k=0}^{3n-1} cos(2k*pi/3) * trig^{2m}(k*pi/3n).

    The weight is 1 at k = 0 mod 3 and -1/2 otherwise, a root-of-unity
    filter: the value is (3*C(m, n) - C(m, 3n))/2 (resp. S). The published
    three-range case expression is sound for this family (the tests hold
    the two equal).
    """
    family = Family.WEIGHT3_SIN if kind == "sin" else Family.WEIGHT3_COS
    return _windowed(SumSpec(family, m, n, kind=kind))


def weight_half_pi_sum(m: int, n: int) -> Rational:
    """sum_{k=0}^{4n-1} cos(k*pi/2) * cos^{2m}(k*pi/4n) = 2*C(m, n) - C(m, 2n).

    The weight vanishes at odd k and alternates at even k, so this is the
    alternating sum over N = 2n in disguise; exposed to keep that
    reducibility a tested fact.
    """
    return _windowed(SumSpec(Family.WEIGHT_HALF_PI, m, n))


def weight_pi3_sum(m: int, n: int) -> Rational:
    """sum_{k=0}^{3n-1} cos(k*pi/3) * cos^{2m}(k*pi/3n) for even n:
    3*C(m, n/2) - (3/2)*C(m, n) + C(m, 3n)/2 - C(m, 3n/2)."""
    return _windowed(SumSpec(Family.WEIGHT_PI3, m, n))


def ell5_sum(variant: str, m: int, n: int) -> Rational:
    """Degree-5 weighted sums sum_{k=0}^{5n-1} w(k) * cos^{2m}(k*pi/5n).

    variant selects the weight w(k):
      - "product":     cos(2*pi*k/5)*cos(4*pi*k/5) -> (5*C(m,n) - C(m,5n))/4
      - "alt-product": cos(pi*k/5)*cos(2*pi*k/5), even n only ->
                       (10*C(m,n/2) - 2*C(m,5n/2) + C(m,5n) - 5*C(m,n))/4
      - "cos2":        cos(2*pi*k/5) -> 5n * 4^{-m} * sum_{p >= 1, p = +-1 (mod 5)}
                       binom(2m, m - p*n)
      - "cos4":        cos(4*pi*k/5) -> (10*C(m,n) - 2*C(m,5n))/4 - cos2

    The cos2 value: expand cos^{2m}(x) = 4^{-m} * sum_j binom(2m, j) *
    cos((2m - 2j)*x); with x = k*pi/5n the weight is cos(2n*x), and each
    product cos((2m - 2j)*x) * cos(2n*x) is half the sum of cos((2m - 2j
    + 2n)*x) and cos((2m - 2j - 2n)*x). Summed over k < 5n, cos(2*pi*s*k/5n)
    gives 5n when 5n | s and 0 otherwise, so the terms left are j = m - p*n
    with p = 1 or p = -1 (mod 5), and the mirror j <-> 2m - j merges the two
    classes into the one sum over p >= 1 above. Each variant reads all its
    C and the cos2 classes from one pass over the window of (m, n) (of
    (m, n/2) for alt-product): the row of its family in _ROWS.
    """
    try:
        family = Family("ell5-" + variant)
    except (TypeError, ValueError):
        variants = tuple(f.value[5:] for f in Family if f.value.startswith("ell5-"))
        raise ParameterError(f"unknown ell5 variant {variant!r} (expected one of {variants})") from None
    return _windowed(SumSpec(family, m, n))


# The rows with a check column: evaluate calls their public functions by
# name, because bench/tracer.py times the check by those names. Once the
# tracer stops wrapping public names, this map goes.
_BESPOKE = {
    Family.MERCA_SHIFTED: lambda s: merca_shifted_sum(s.m, s.n),
    Family.SHIFTED_COS: lambda s: shifted_cos_sum(s.m, s.n),
    Family.SHIFTED_SIN: lambda s: shifted_sin_sum(s.m, s.n),
}


def evaluate(spec: SumSpec) -> Rational:
    """Evaluate ``spec``'s closed form exactly. ``spec`` was checked whole
    when it was built, a q or kind its family ignores included, so this
    checks only that it is a SumSpec, and refuses anything else with
    ParameterError."""
    if type(spec) is not SumSpec:
        raise ParameterError(f"unsupported closed-form request {type(spec).__name__}")
    bespoke = _BESPOKE.get(spec.family)
    return bespoke(spec) if bespoke else _windowed(spec)


def clear_caches() -> None:
    """Drop the memoized window passes, so that timing one value pays for
    its window or row, as in a fresh process."""
    _window_pass.cache_clear()
