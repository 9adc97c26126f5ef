"""Closed-form sum families: frozen values, composition identities, and the
documented-discrepancy regressions."""

import tracemalloc
from fractions import Fraction
from math import comb, factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

from trigsum import closed_forms, cotangent, exact_core, genfunc, oracle, walks
from trigsum.closed_forms import (
    MAX_M,
    Family,
    SumSpec,
    alternating_cos_middle_erratum,
    alternating_sin_middle_erratum,
    alternating_sum,
    barbero_R,
    barbero_R_naive,
    coprime_sum,
    cos_power_sum,
    ell5_sum,
    evaluate,
    gcd_reduced_sum,
    merca_half_sum,
    merca_shifted_sum,
    quoniam_sum,
    scaled_sum,
    shifted_cos_sum,
    shifted_sin_sum,
    sin_power_sum,
    weight3_sum,
    weight_half_pi_sum,
    weight_pi3_sum,
)
from trigsum.cotangent import CotSumParams, byrne_smith_coefficients, byrne_smith_coefficients_uncorrected
from trigsum.errors import CostGuardError, ParameterError
from trigsum.exact_core import BernoulliCache, bernoulli, binom, binom_window, scaled_power_sums
from trigsum.genfunc import (
    bessel_i0_coefficient,
    g1_coefficients,
    h1_coefficients,
    resolvent_coefficients,
    sigma,
    sigma_minus,
    sigma_table,
)
from trigsum.walks import (
    GraphKind,
    GraphSpec,
    adjacency_matrix,
    closed_walk_counts,
    cycle_closed_walks,
    path_closed_walks,
    trace_oracle,
)
from trigsum.oracle import evaluate_exact

F = Fraction


# --- frozen values ----------------------------------------------------------

def test_cos_power_frozen():
    assert cos_power_sum(0, 5) == 5
    assert cos_power_sum(1, 1) == 1
    assert cos_power_sum(2, 3) == F(9, 8)
    assert cos_power_sum(3, 3) == F(33, 32)
    assert cos_power_sum(2, 1) == 1
    assert cos_power_sum(5, 2) == 1  # cos^10(0) + cos^10(pi/2)


def test_sin_power_frozen():
    assert sin_power_sum(0, 4) == 4
    assert sin_power_sum(1, 1) == 0  # sin^2(0)
    assert sin_power_sum(2, 3) == F(9, 8)
    assert sin_power_sum(3, 2) == 1  # sin^6(0) + sin^6(pi/2)


def test_power_sums_against_literal_binomial_form():
    """The ratio-walk evaluation equals the literal binomial sum."""
    for m in range(1, 30):
        for n in range(1, 10):
            lead = comb(2 * m - 1, m - 1)
            tail = sum(comb(2 * m, m - p * n) for p in range(1, m // n + 1))
            assert cos_power_sum(m, n) == F(n * (lead + tail), 2 ** (2 * m - 1))
            signed_tail = sum(
                (-1) ** (p * n % 2) * comb(2 * m, m - p * n)
                for p in range(1, m // n + 1)
            )
            assert sin_power_sum(m, n) == F(
                n * (lead + signed_tail), 2 ** (2 * m - 1)
            )


def test_power_sums_stream_the_signed_window():
    """C and S sum the window as it streams, S at odd n with the sign
    (-1)^p counted down from p = floor(m/n): pinned to the math.comb
    literal form over all integers p, for both parities of floor(m/n)."""
    parities = set()
    for n in range(1, 10):
        for m in [*range(61), *range(200, 204)]:
            literal_cos = F(n * _symmetric(m, n, lambda p: 1), 4**m)
            literal_sin = F(n * _symmetric(m, n, lambda p: (-1) ** (p * n % 2)), 4**m)
            assert cos_power_sum(m, n) == literal_cos
            assert sin_power_sum(m, n) == literal_sin, (m, n)
            assert scaled_sum("sin", m, n, 3 * n) == 3 * literal_sin
            parities.add((n % 2, m // n % 2))
    assert parities == {(0, 0), (0, 1), (1, 0), (1, 1)}


def _force_route(monkeypatch, row):
    """Take the residue row (row=True) or the window (row=False) at every
    choice the closed forms make, whatever the cost model says."""
    monkeypatch.setattr(closed_forms, "_row_is_cheaper", lambda m, n, size: row)


def _peak_bytes(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("call, m, n", [(cos_power_sum, 5000, 1), (sin_power_sum, 5001, 3)])
def test_power_sums_hold_one_window_term_at_a_time(call, m, n, monkeypatch):
    """On the window route, C and S stream the window: their peak
    allocation stays far below the window's total size, which a list of
    its terms would hold."""
    window_bytes = sum(term.bit_length() for term in binom_window(m, n)) // 8
    _force_route(monkeypatch, row=False)
    peak = _peak_bytes(call, m, n)
    assert peak * 50 < window_bytes, (peak, window_bytes)


@pytest.mark.parametrize("call, m, n, span", [(cos_power_sum, 5000, 1, 1), (sin_power_sum, 5001, 3, 6)])
def test_power_sums_hold_one_residue_row(call, m, n, span, monkeypatch):
    """On the row route, C and S hold O(L * m) bits: the packed row of
    (1 + x)^m, L = span slots of m + 1 bits, its square and their byte
    images, a small multiple of it (about 10 times), and far below the
    window's total size."""
    window_bytes = sum(term.bit_length() for term in binom_window(m, n)) // 8
    row_bytes = span * (m + 1) // 8
    _force_route(monkeypatch, row=True)
    peak = _peak_bytes(call, m, n)
    assert peak < 16 * row_bytes and peak * 20 < window_bytes, (peak, row_bytes, window_bytes)


def _symmetric(p, n, weight):
    # sum_{k=-floor(p/n)}^{floor(p/n)} weight(k) * binom(2p, p+kn)
    return sum(weight(k) * comb(2 * p, p + k * n) for k in range(-(p // n), p // n + 1))


def _tail_sum(m, n, weight=lambda p: 1):
    # sum_{p=1}^{floor(m/n)} weight(p) * binom(2m, m-pn)
    return sum(weight(p) * comb(2 * m, m - p * n) for p in range(1, m // n + 1))


def _lead_form(m, n, weight):
    # 2^{1-2m} * n * (binom(2m-1, m-1) + sum_p weight(p) * binom(2m, m-pn))
    return F(n * (comb(2 * m - 1, m - 1) + _tail_sum(m, n, weight)), 2 ** (2 * m - 1))


def _lattice_sum(m, N, s, sign=1):
    # sum_{k<N} cos(2*pi*s*k/N) * trig^{2m}(k*pi/N), trig = cos (sign 1) or
    # sin (sign -1): trig^{2m}(x) = 4^{-m} sum_t sign^t binom(2m, m+t) e^{2itx},
    # and summing over k leaves N times the terms t = +-s (mod N)
    terms = (sign ** (t % 2) * comb(2 * m, m + t) for t in range(-m, m + 1) if (t - s) % N == 0)
    return F(N * sum(terms), 4**m)


def _ell5_cos2_power_reduction(m, n):
    # the power reduction of cos(2x) = 2cos^2(x) - 1 through degree n:
    # 2^{2n-1}*C(m+n, 5n) + n * sum_{j<n} ((-1)^{j+1}/(j+1)) * 2^{2n-2j-2}
    # * binom(2n-j-2, j) * C(m+n-j-1, 5n), C written with math.comb
    acc = 2 ** (2 * n - 1) * _lattice_sum(m + n, 5 * n, 0)
    for j in range(n):
        acc += (
            n
            * F((-1) ** (j + 1), j + 1)
            * 2 ** (2 * n - 2 * j - 2)
            * comb(2 * n - j - 2, j)
            * _lattice_sum(m + n - j - 1, 5 * n, 0)
        )
    return acc


# function of (m, n) and its docstring formula written with math.comb; a
# family that needs an even period takes 2n for n
WINDOW_SITES = {
    "merca_half_sum": (
        merca_half_sum,
        lambda p, n: F(-1, 2) + F(n * _symmetric(p, n, lambda k: 1), 2 ** (2 * p + 1)),
    ),
    "merca_shifted_sum": (
        merca_shifted_sum,
        lambda p, n: F(n * _symmetric(p, n, lambda k: (-1) ** (k % 2)), 2 ** (2 * p + 1)),
    ),
    "barbero_R": (
        barbero_R,
        lambda m, n: F(2 * n + 3, 2) * comb(2 * m, m) - 2 ** (2 * m - 1)
        + (2 * n + 3) * _tail_sum(m, 2 * n + 3),
    ),
    "shifted_cos_sum": (
        shifted_cos_sum,
        lambda m, n: _lead_form(m, n, lambda p: (-1) ** p),
    ),
    "shifted_sin_sum": (
        shifted_sin_sum,
        lambda m, n: _lead_form(m, n, lambda p: 1 + (-1) ** p - (-1) ** (n * p)),
    ),
    "weight3_sum cos": (
        lambda m, n: weight3_sum("cos", m, n),
        lambda m, n: _lattice_sum(m, 3 * n, n),
    ),
    "weight3_sum sin": (
        lambda m, n: weight3_sum("sin", m, n),
        lambda m, n: _lattice_sum(m, 3 * n, n, sign=-1),
    ),
    "weight_half_pi_sum": (weight_half_pi_sum, lambda m, n: _lattice_sum(m, 4 * n, n)),
    "weight_pi3_sum": (
        lambda m, n: weight_pi3_sum(m, 2 * n),
        lambda m, n: _lattice_sum(m, 6 * n, n),
    ),
    "alternating_sum cos": (
        lambda m, n: alternating_sum("cos", m, 2 * n),
        lambda m, n: _lattice_sum(m, 2 * n, n),
    ),
    "alternating_sum sin": (
        lambda m, n: alternating_sum("sin", m, 2 * n),
        lambda m, n: _lattice_sum(m, 2 * n, n, sign=-1),
    ),
    # cos(2a)*cos(4a) = (cos(2a) + cos(6a))/2 and cos(a)*cos(2a) = (cos(a) + cos(3a))/2
    "ell5_sum product": (
        lambda m, n: ell5_sum("product", m, n),
        lambda m, n: (_lattice_sum(m, 5 * n, n) + _lattice_sum(m, 5 * n, 3 * n)) / 2,
    ),
    "ell5_sum alt-product": (
        lambda m, n: ell5_sum("alt-product", m, 2 * n),
        lambda m, n: (_lattice_sum(m, 10 * n, n) + _lattice_sum(m, 10 * n, 3 * n)) / 2,
    ),
    "ell5_sum cos2": (lambda m, n: ell5_sum("cos2", m, n), _ell5_cos2_power_reduction),
    "ell5_sum cos4": (
        lambda m, n: ell5_sum("cos4", m, n),
        lambda m, n: _lattice_sum(m, 5 * n, 2 * n),
    ),
    "sigma": (
        sigma,
        lambda k, n: F(_tail_sum(k, n), factorial(2 * k)),
    ),
    "sigma_minus": (
        sigma_minus,
        lambda k, n: F(_tail_sum(k, n, lambda p: (-1) ** (p * n)), factorial(2 * k)),
    ),
    "path_closed_walks": (
        lambda m, n: path_closed_walks(n, m),
        lambda m, n: 2 * n * (comb(2 * m - 1, m - 1) + _tail_sum(m, n)) - 2 ** (2 * m),
    ),
    "cycle_closed_walks": (
        lambda m, n: cycle_closed_walks(n, m),
        lambda m, n: 2 * n * (comb(2 * m - 1, m - 1) + _tail_sum(m, n)),
    ),
}
# n outside a function's domain; m >= 1 and n <= 9 everywhere
WINDOW_SITE_SKIPS = {"path_closed_walks": {1}, "cycle_closed_walks": {1, 2, 4, 6, 8}}


@pytest.mark.parametrize("name", WINDOW_SITES)
def test_window_sites_against_literal_binomial_form(name):
    """Every sum over the binomial window equals its docstring formula
    written with math.comb: a reference independent of binom_window."""
    fn, reference = WINDOW_SITES[name]
    for m in range(1, 31):
        for n in set(range(1, 10)) - WINDOW_SITE_SKIPS.get(name, set()):
            assert fn(m, n) == reference(m, n), (name, m, n)


@pytest.mark.parametrize("name", WINDOW_SITES)
def test_window_sites_make_a_constant_number_of_comb_calls(name, monkeypatch):
    """On the window route, each window comes from binom_window's ratio
    steps, so the number of math.comb calls does not grow with the window's
    floor(m/n) terms."""
    fn = WINDOW_SITES[name][0]
    _force_route(monkeypatch, row=False)
    calls = []
    real_comb = exact_core.comb

    def counting_comb(a, b):
        calls.append((a, b))
        return real_comb(a, b)

    monkeypatch.setattr(exact_core, "comb", counting_comb)
    counts = []
    for m in (500, 1000):
        calls.clear()
        fn(m, 7)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 4, counts


# call -> binom_window calls it makes: one pass per value, each C(m, d*n)
# it combines read off the window of (m, n); the shifted sums also read
# C(m, 2n) from its own window, the check that the value does not read.
# Series and walk tables read the residue rows and no window.
WINDOW_COUNTS = {
    "merca_half_sum(40, 4)": (lambda: merca_half_sum(40, 4), 1),
    # C(40, 4) with the (-1)^p direct form of (40, 4), and C(40, 8)
    "merca_shifted_sum(40, 4)": (lambda: merca_shifted_sum(40, 4), 2),
    "shifted_cos_sum(40, 4)": (lambda: shifted_cos_sum(40, 4), 2),
    "shifted_sin_sum(40, 3)": (lambda: shifted_sin_sum(40, 3), 2),
    "weight3_sum('cos', 40, 4)": (lambda: weight3_sum("cos", 40, 4), 1),
    "weight3_sum('sin', 40, 4)": (lambda: weight3_sum("sin", 40, 4), 1),
    "weight3_sum('sin', 40, 3)": (lambda: weight3_sum("sin", 40, 3), 1),
    "weight_half_pi_sum(40, 4)": (lambda: weight_half_pi_sum(40, 4), 1),
    "weight_pi3_sum(40, 6)": (lambda: weight_pi3_sum(40, 6), 1),
    "alternating_sum('cos', 40, 6)": (lambda: alternating_sum("cos", 40, 6), 1),
    "alternating_sum('sin', 40, 6)": (lambda: alternating_sum("sin", 40, 6), 1),
    **{
        f"ell5_sum('{variant}', 40, 2)": (lambda variant=variant: ell5_sum(variant, 40, 2), 1)
        for variant in ("product", "alt-product", "cos2", "cos4")
    },
    "barbero_R(40, 3)": (lambda: barbero_R(40, 3), 1),
    "resolvent_coefficients('cos', 4, 10)": (lambda: resolvent_coefficients("cos", 4, 10), 0),
    "resolvent_coefficients('sin', 4, 10)": (lambda: resolvent_coefficients("sin", 4, 10), 0),
    "g1_coefficients(4, 20)": (lambda: g1_coefficients(4, 20), 0),
    "h1_coefficients(5, 2, 20)": (lambda: h1_coefficients(5, 2, 20), 0),
    "path_closed_walks(4, 40)": (lambda: path_closed_walks(4, 40), 1),
    "cycle_closed_walks(5, 40)": (lambda: cycle_closed_walks(5, 40), 1),
    "closed_walk_counts(CYCLE, 5, 40)": (lambda: closed_walk_counts(GraphKind.CYCLE, 5, 40), 0),
}


@pytest.mark.parametrize("name", WINDOW_COUNTS)
def test_each_window_is_summed_once(name, monkeypatch):
    """Each value walks each window it reads once: a second pass over the
    same window is the same arithmetic, and every C(m, d*n) a composite
    combines is read off the one pass over the window of (m, n)."""
    call, expected = WINDOW_COUNTS[name]
    calls = []
    real_window = exact_core.binom_window

    def counting_window(m, n):
        calls.append((m, n))
        return real_window(m, n)

    monkeypatch.setattr(closed_forms, "binom_window", counting_window)
    assert not hasattr(walks, "binom_window") and not hasattr(genfunc, "binom_window")
    closed_forms.clear_caches()
    call()
    assert len(calls) == expected, calls


# every (kind, multiples, classes, period) a family passes to _window_pass
WINDOW_PASS_SHAPES = [
    ("cos", (1,), (), 1),
    ("sin", (1,), (), 1),
    ("cos", (1, 2), (), 1),
    ("sin", (1, 2), (), 1),
    ("cos", (), ((0,),), 1),
    ("cos", (1,), ((1,),), 2),
    ("sin", (1,), ((1,),), 2),
    ("cos", (1, 3), (), 1),
    ("sin", (1, 3), (), 1),
    ("cos", (1, 2, 3, 6), (), 1),
    ("cos", (1, 5), (), 1),
    ("cos", (1, 2, 5, 10), (), 1),
    ("cos", (), ((1, 4),), 5),
    ("cos", (1, 5), ((1, 4),), 5),
]


def test_window_pass_shapes_are_the_ones_the_families_use(monkeypatch):
    """WINDOW_PASS_SHAPES lists exactly the shapes every family, kind and
    erratum reproducer passes, so the literal test below covers them all."""
    seen = set()
    real_pass = closed_forms._window_pass

    def recording_pass(kind, m, n, multiples, classes=(), period=1, **route):
        seen.add((kind, multiples, classes, period))
        return real_pass(kind, m, n, multiples, classes, period, **route)

    monkeypatch.setattr(closed_forms, "_window_pass", recording_pass)
    q = {Family.SCALED: 8, Family.COPRIME: 3, Family.GCD_REDUCED: 6}
    for family in Family:
        for kind in ("cos", "sin"):
            evaluate(SumSpec(family, 4, 4, q=q.get(family, 1), kind=kind))
    alternating_cos_middle_erratum(3, 2)
    assert seen == set(WINDOW_PASS_SHAPES)


def _literal_window_pass(kind, m, n, multiples, classes, period):
    """_window_pass's result written term by term with math.comb:
    4^m * X(m, d*n) = d*n * (binom(2m, m) + 2 * sum_{p >= 1} e_p binom(2m, m - p*d*n)),
    e_p = (-1)^{p*d*n} for S, then the class tails of the window of (m, n)."""
    out = []
    for d in multiples:
        sign = -1 if kind == "sin" and d * n % 2 else 1
        tail = sum(sign**p * comb(2 * m, m - p * d * n) for p in range(1, m // (d * n) + 1))
        out.append(d * n * (comb(2 * m, m) + 2 * tail))
    for wanted in classes:
        out.append(
            sum(comb(2 * m, m - p * n) for p in range(1, m // n + 1) if p % period in wanted)
        )
    return tuple(out)


def _window_pass_against_literal(shape):
    kind, multiples, classes, period = shape
    for n in (1, 2, 3, 5, 6, 7, 11):
        for m in range(25):
            closed_forms.clear_caches()  # the memo may hold the other route's sums
            got = closed_forms._window_pass(kind, m, n, multiples, classes, period)
            assert got == _literal_window_pass(kind, m, n, multiples, classes, period), (m, n)


@pytest.mark.parametrize("shape", WINDOW_PASS_SHAPES, ids=str)
def test_window_pass_matches_literal_comb_bucketing(shape, monkeypatch):
    """The buckets of the upward window give the literal sums at m < n,
    m = n, n | m, n = 1, and odd n (where S differs from C)."""
    _force_route(monkeypatch, row=False)
    _window_pass_against_literal(shape)


@pytest.mark.parametrize("shape", WINDOW_PASS_SHAPES, ids=str)
def test_row_pass_matches_literal_comb_bucketing(shape, monkeypatch):
    """The residue row gives the same sums, read on both sides of the
    centre: the class tails halved (less the central binomial for the
    erratum's class 0), S at odd d*n with the entries at m - d*n taken
    away, and rows with more slots than the m + 1 binomials of
    (1 + x)^m."""
    _force_route(monkeypatch, row=True)
    _window_pass_against_literal(shape)


# every site of closed_forms and walks; test_genfunc pins sigma and sigma_minus
# on both routes
ROUTED_SITES = [name for name in WINDOW_SITES if not name.startswith("sigma")]


@pytest.mark.parametrize("name", ROUTED_SITES)
def test_window_sites_take_both_routes_across_the_switch(name, monkeypatch):
    """On m = 120, 250, 500 and n <= 9 the cost model reads the residue row
    at small n and walks the window at larger n for every site, and both
    routes give the docstring formula written with math.comb. A call reads
    a row or walks its own window, not both; the shifted sums also walk
    the window of (m, 2n) for their check."""
    fn, reference = WINDOW_SITES[name]
    rows, windows, routes = [], [], set()
    real_row, real_window = closed_forms.residue_row, closed_forms.binom_window
    monkeypatch.setattr(closed_forms, "residue_row", lambda e, L: rows.append(L) or real_row(e, L))
    monkeypatch.setattr(closed_forms, "binom_window", lambda m, n: windows.append(n) or real_window(m, n))
    for m in (120, 250, 500):
        for n in set(range(1, 10)) - WINDOW_SITE_SKIPS.get(name, set()):
            rows.clear()
            windows.clear()
            closed_forms.clear_caches()
            assert fn(m, n) == reference(m, n), (name, m, n)
            assert len(rows) + len(windows) - name.startswith(("shifted", "merca_shifted")) == 1
            routes.add("row" if rows else "window")
    assert routes == {"row", "window"}


def test_cost_model_pins():
    """Criterion 9's C(200, 7) keeps the window; C and S at m = 10^5 and
    n <= 7 read the row; and a window of no steps is never traded for a
    row, so C(3000, 10^5) builds no row of 10^5 slots."""
    cheaper = closed_forms._row_is_cheaper
    assert not cheaper(200, 7, 1)
    assert all(cheaper(10**5, n, size) for n in range(1, 8) for size in (1, 2))
    assert not cheaper(3000, 10**5, 1)
    assert not cheaper(0, 10**9, 1)


def test_cost_model_never_reaches_the_row_guard():
    """A row past exact_core.MAX_ROW_BITS costs more than the costliest
    window, that of (MAX_M, 1), so no valid request reaches residue_row's
    cost guard; a row at m < MAX_M needs more slots to pass the guard and
    faces a cheaper window."""
    for m in (MAX_M, MAX_M // 3, 5000):
        size = exact_core.MAX_ROW_BITS // (m + 1) + 1
        assert not closed_forms._row_is_cheaper(m, 1, size), m


@pytest.mark.parametrize("row", [False, True], ids=["window", "row"])
def test_both_routes_match_the_oracle(row, monkeypatch):
    """Either route, taken at every choice, gives evaluate_exact's value for
    every family at m = 700: n = 4, or n = 700 for quoniam, which needs
    m <= n and whose window there has no tail term."""
    _force_route(monkeypatch, row)
    q = {Family.SCALED: 8, Family.COPRIME: 3, Family.GCD_REDUCED: 6}
    for family in Family:
        n = 700 if family is Family.QUONIAM else 4
        for kind in ("cos", "sin"):
            spec = SumSpec(family, 700, n, q=q.get(family, 1), kind=kind)
            assert evaluate(spec) == evaluate_exact(spec), (family, kind)


@pytest.mark.parametrize("fn, n", [(shifted_cos_sum, 4), (shifted_sin_sum, 3), (merca_shifted_sum, 2)])
def test_shifted_check_walks_a_window_when_the_value_reads_a_row(fn, n, monkeypatch):
    """Where the shifted value reads the residue row, the check still takes
    C(m, 2n) from the window of (m, 2n), never from that row, and a
    corrupted entry anywhere in the row raises ArithmeticError. (For cos
    the value reads H, the row of (1 + x)^m mod (x^{2n} - 1): its direct
    form is n * sum_{j<n} (H[j] - H[j+n])^2 and C(m, n) is n * sum_{j<n}
    (H[j] + H[j+n])^2, so the two sides of the check differ by 2n times the
    change in sum_j H[j]^2.)"""
    m = 3000
    assert closed_forms._row_is_cheaper(m, n, 2)
    rows, windows = [], []
    real_row, real_window = closed_forms.residue_row, closed_forms.binom_window
    monkeypatch.setattr(closed_forms, "residue_row", lambda e, L: rows.append((e, L)) or real_row(e, L))
    monkeypatch.setattr(closed_forms, "binom_window", lambda m, n: windows.append((m, n)) or real_window(m, n))
    closed_forms.clear_caches()
    fn(m, n)
    assert rows == [(m, 2 * n)] and windows == [(m, 2 * n)]
    for index in range(2 * n):

        def corrupted(e, L):
            row = list(real_row(e, L))
            row[index] += 1
            return tuple(row)

        monkeypatch.setattr(closed_forms, "residue_row", corrupted)
        closed_forms.clear_caches()  # a memo hit would skip the corrupted row
        with pytest.raises(ArithmeticError, match="routes disagree"):
            fn(m, n)


# --- the window-pass memo ---------------------------------------------------


def _counting_windows(monkeypatch):
    """The (m, n) of every window walked from here on, in order."""
    windows = []
    real_window = closed_forms.binom_window
    monkeypatch.setattr(closed_forms, "binom_window", lambda m, n: windows.append((m, n)) or real_window(m, n))
    return windows


@pytest.mark.parametrize("kind", ["cos", "sin"])
def test_a_coprime_q_sweep_walks_its_window_once(kind, monkeypatch):
    """A coprime value does not depend on q, and a verify campaign runs a
    family's q sweep in a row, so the sweep at (200, 7) walks the window of
    (200, 7) once and reads every later q off the memo; C or S at (200, 7)
    reads the same entry."""
    assert not closed_forms._row_is_cheaper(200, 7, 2)
    windows = _counting_windows(monkeypatch)
    sweep = [q for q in range(1, 16) if q % 7]
    values = {evaluate(SumSpec(Family.COPRIME, 200, 7, q, kind)) for q in sweep}
    power = Family.COS_POWER if kind == "cos" else Family.SIN_POWER
    assert values == {evaluate(SumSpec(power, 200, 7))}
    assert windows == [(200, 7)]
    info = closed_forms._window_pass.cache_info()
    assert (info.hits, info.misses) == (len(sweep), 1)


def test_window_memo_keys_every_argument():
    """cos and sin at odd n, and different multiples, classes or periods at
    the same (m, n), each get an entry of their own: every shape the
    families pass, plus the class 0 at period 2 beside period 1, read at
    (30, 7) in turn and then again, equals its literal sums both times."""
    shapes = [*WINDOW_PASS_SHAPES, ("cos", (), ((0,),), 2)]
    literal = [_literal_window_pass(kind, 30, 7, *rest) for kind, *rest in shapes]
    assert literal[0] != literal[1]  # cos and sin differ at odd n
    assert _literal_window_pass("cos", 30, 7, (), ((0,),), 1) != literal[-1]
    for _ in range(2):
        assert [closed_forms._window_pass(kind, 30, 7, *rest) for kind, *rest in shapes] == literal
    info = closed_forms._window_pass.cache_info()
    assert (info.hits, info.misses, info.currsize) == (len(shapes), len(shapes), len(shapes))


@pytest.mark.parametrize("row", [False, True], ids=["window", "row"])
def test_window_pass_returns_a_tuple(row, monkeypatch):
    """Both routes return a tuple, so no caller can alter the sums the memo
    hands to every later caller; a repeat call returns that same tuple."""
    _force_route(monkeypatch, row)
    first = closed_forms._window_pass("cos", 40, 3, (1, 5), ((1, 4),), 5)
    assert type(first) is tuple
    assert closed_forms._window_pass("cos", 40, 3, (1, 5), ((1, 4),), 5) is first


def test_clear_caches_empties_the_window_memo(monkeypatch):
    """clear_caches() drops every memoized pass, so the next value walks its
    window again, as in a fresh process."""
    windows = _counting_windows(monkeypatch)
    cos_power_sum(200, 7)
    cos_power_sum(200, 7)
    assert windows == [(200, 7)] and closed_forms._window_pass.cache_info().currsize == 1
    closed_forms.clear_caches()
    assert closed_forms._window_pass.cache_info().currsize == 0
    cos_power_sum(200, 7)
    assert windows == [(200, 7)] * 2


@pytest.mark.parametrize("fn", [shifted_cos_sum, shifted_sin_sum, merca_shifted_sum])
def test_shifted_check_walks_its_window_on_a_memo_hit(fn, monkeypatch):
    """A shifted value read off the memo is still checked: the window of
    (m, 2n) is walked on every call, hit or miss, and a corrupted term of
    it raises ArithmeticError on a hit."""
    windows = _counting_windows(monkeypatch)
    value = fn(200, 7)
    assert windows == [(200, 7), (200, 14)]
    windows.clear()
    assert fn(200, 7) == value
    assert windows == [(200, 14)] and closed_forms._window_pass.cache_info().hits == 1
    real_window = exact_core.binom_window

    def corrupted(m, n):
        terms = real_window(m, n)
        yield next(terms) + 1
        yield from terms

    monkeypatch.setattr(closed_forms, "binom_window", corrupted)
    with pytest.raises(ArithmeticError, match="routes disagree"):
        fn(200, 7)
    assert closed_forms._window_pass.cache_info().hits == 2


_BEYOND = MAX_M + 1
# every public closed-form function, at m = MAX_M + 1
GUARDED_CALLS = {
    "cos_power_sum": lambda: cos_power_sum(_BEYOND, 7),
    "sin_power_sum": lambda: sin_power_sum(_BEYOND, 7),
    "scaled_sum": lambda: scaled_sum("cos", _BEYOND, 7, 14),
    "coprime_sum": lambda: coprime_sum("sin", _BEYOND, 7, 2),
    "gcd_reduced_sum": lambda: gcd_reduced_sum("cos", _BEYOND, 6, 4),
    "quoniam_sum": lambda: quoniam_sum(_BEYOND, _BEYOND),
    "merca_half_sum": lambda: merca_half_sum(_BEYOND, 7),
    "merca_shifted_sum": lambda: merca_shifted_sum(_BEYOND, 7),
    "barbero_R": lambda: barbero_R(_BEYOND, 2),
    "barbero_R_naive": lambda: barbero_R_naive(_BEYOND, 2),
    "alternating_sum": lambda: alternating_sum("cos", _BEYOND, 8),
    "alternating_cos_middle_erratum": lambda: alternating_cos_middle_erratum(_BEYOND, MAX_M),
    "alternating_sin_middle_erratum": lambda: alternating_sin_middle_erratum(_BEYOND, MAX_M),
    "shifted_cos_sum": lambda: shifted_cos_sum(_BEYOND, 7),
    "shifted_sin_sum": lambda: shifted_sin_sum(_BEYOND, 7),
    "weight3_sum": lambda: weight3_sum("sin", _BEYOND, 7),
    "weight_half_pi_sum": lambda: weight_half_pi_sum(_BEYOND, 7),
    "weight_pi3_sum": lambda: weight_pi3_sum(_BEYOND, 8),
    **{
        f"ell5_sum {variant}": (lambda variant=variant: ell5_sum(variant, _BEYOND, 4))
        for variant in ("product", "alt-product", "cos2", "cos4")
    },
    "path_closed_walks": lambda: path_closed_walks(2, _BEYOND),
    "cycle_closed_walks": lambda: cycle_closed_walks(3, _BEYOND),
}


@pytest.mark.parametrize("name", GUARDED_CALLS)
def test_cost_guard_on_m_in_every_function(name, monkeypatch):
    """Every closed-form function, called directly, refuses m > MAX_M
    before it builds a binomial; path_closed_walks(2, 10**5) alone took
    7.6 s, and larger m would grow quadratically."""

    def costly(*args):
        raise AssertionError("binomial computed")

    monkeypatch.setattr(closed_forms, "binom_window", costly)
    monkeypatch.setattr(closed_forms, "binom", costly)
    with pytest.raises(CostGuardError, match="cost guard"):
        GUARDED_CALLS[name]()


@pytest.mark.parametrize("family", [Family.ELL5_COS2, Family.ELL5_COS4])
def test_ell5_weight_admits_large_n(family):
    """The cos2/cos4 weights read one window like the product weights, so
    their cost does not grow with n and no bound on n is kept: past n =
    1,000 they still equal their literal binomial form."""
    variant = family.value.removeprefix("ell5-")
    shift = {"cos2": 1, "cos4": 2}[variant]  # the weight is cos(2*pi*shift*k/5)
    n = 1001
    SumSpec(family, 1, 10**6)  # built, so admitted
    for m in (1, n, 2 * n + 1, 4 * n + 3):
        expected = _lattice_sum(m, 5 * n, shift * n)
        assert ell5_sum(variant, m, n) == evaluate(SumSpec(family, m, n)) == expected, m


def test_quoniam_frozen():
    assert quoniam_sum(2, 4) == 7
    # value equals 2^{2m} * sum_{k=1}^{floor(n/2)} cos^{2m}(k*pi/(n+1))
    assert quoniam_sum(1, 2) == F(1)
    with pytest.raises(ParameterError):
        quoniam_sum(0, 4)
    with pytest.raises(ParameterError):
        quoniam_sum(5, 4)


def test_merca_frozen():
    assert merca_half_sum(3, 3) == F(1, 64)  # the single term cos^6(pi/3)
    assert merca_shifted_sum(2, 2) == F(1, 4)  # the single term cos^4(pi/4)
    with pytest.raises(ParameterError):
        merca_half_sum(0, 3)
    with pytest.raises(ParameterError):
        merca_shifted_sum(0, 3)


def test_barbero_frozen_trio():
    assert barbero_R(12, 3) == 3798310
    assert barbero_R_naive(12, 3) == 3780094
    assert barbero_R(12, 3) - barbero_R_naive(12, 3) == 18216
    # below the branch threshold m < 2n+3 the naive form is not wrong
    for m in range(1, 9):
        assert barbero_R(m, 3) == barbero_R_naive(m, 3)
    assert barbero_R(0, 3) == 4  # m = 0 gives n + 1


def test_ell5_cos2_frozen():
    assert ell5_sum("cos2", 2, 2) == F(5, 8)


# --- composition identities (the consistency web) ---------------------------

small_mn = st.tuples(
    st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=10)
)


@given(small_mn)
@settings(max_examples=60)
def test_merca_half_web(mn):
    """Property: 2 * merca_half + 1 = C (the k=0 term plus mirror pairing)."""
    m, n = mn
    assert 2 * merca_half_sum(m, n) + 1 == cos_power_sum(m, n)


@given(small_mn)
@settings(max_examples=60)
def test_merca_shifted_web(mn):
    """Property: shifted_cos = 2 * merca_shifted (mirror pairing of the
    half-integer lattice)."""
    m, n = mn
    assert shifted_cos_sum(m, n) == 2 * merca_shifted_sum(m, n)


@given(small_mn)
@settings(max_examples=60)
def test_weight_half_pi_is_alternating(mn):
    """Property: weight_half_pi(m,n) = alternating cosine sum over 2n."""
    m, n = mn
    assert weight_half_pi_sum(m, n) == alternating_sum("cos", m, 2 * n)


@given(small_mn)
@settings(max_examples=60)
def test_ell5_cos2_cos4_recombination(mn):
    """Property: 4*(Cos2 + Cos4) = 10*C(m,n) - 2*C(m,5n)."""
    m, n = mn
    left = 4 * (ell5_sum("cos2", m, n) + ell5_sum("cos4", m, n))
    assert left == 10 * cos_power_sum(m, n) - 2 * cos_power_sum(m, 5 * n)


@given(small_mn)
@settings(max_examples=60)
def test_shifted_sums_are_lattice_differences(mn):
    m, n = mn
    assert shifted_cos_sum(m, n) == cos_power_sum(m, 2 * n) - cos_power_sum(m, n)
    assert shifted_sin_sum(m, n) == sin_power_sum(m, 2 * n) - sin_power_sum(m, n)


def test_m0_filter_identities():
    """The pure root-of-unity filter cases vanish at m = 0."""
    for n in range(1, 20):
        assert weight3_sum("cos", 0, n) == 0
        assert weight_half_pi_sum(0, n) == 0
        assert ell5_sum("product", 0, n) == 0


# --- parameterized family structure -----------------------------------------

@given(
    st.integers(min_value=0, max_value=14),
    st.integers(min_value=1, max_value=12),
    st.data(),
)
@settings(max_examples=80)
def test_coprime_invariance(m, n, data):
    """Property: every q coprime to n gives the identical value."""
    qs = [q for q in range(1, 2 * n + 2) if gcd(q, n) == 1]
    kind = data.draw(st.sampled_from(["cos", "sin"]))
    base = coprime_sum(kind, m, n, 1)
    for q in qs:
        assert coprime_sum(kind, m, n, q) == base
    assert base == (cos_power_sum if kind == "cos" else sin_power_sum)(m, n)


@given(
    st.integers(min_value=0, max_value=14),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=25),
    st.data(),
)
@settings(max_examples=80)
def test_gcd_reduction(m, n, q, data):
    """Property: gcd_reduced(m,n,q) = r * base(m, n/r) with r = gcd(n,q)."""
    kind = data.draw(st.sampled_from(["cos", "sin"]))
    r = gcd(n, q)
    base = (cos_power_sum if kind == "cos" else sin_power_sum)(m, n // r)
    assert gcd_reduced_sum(kind, m, n, q) == r * base
    if r == 1:
        assert gcd_reduced_sum(kind, m, n, q) == coprime_sum(kind, m, n, q)


@given(
    st.integers(min_value=0, max_value=14),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60)
def test_scaled_sum_is_repeated_lattice(m, n, mult):
    assert scaled_sum("cos", m, n, mult * n) == mult * cos_power_sum(m, n)
    assert scaled_sum("sin", m, n, mult * n) == mult * sin_power_sum(m, n)


def test_scaled_sum_rejects_non_multiple():
    with pytest.raises(ParameterError):
        scaled_sum("cos", 2, 3, 4)


def test_coprime_sum_rejects_shared_factor():
    with pytest.raises(ParameterError):
        coprime_sum("cos", 2, 6, 3)


# --- denominator bounds ------------------------------------------------------

_PLAIN_FAMILIES = [
    Family.COS_POWER,
    Family.SIN_POWER,
    Family.ALTERNATING,
    Family.SHIFTED_COS,
    Family.SHIFTED_SIN,
    Family.WEIGHT3_COS,
    Family.WEIGHT3_SIN,
    Family.WEIGHT_HALF_PI,
    Family.WEIGHT_PI3,
    Family.MERCA_HALF,
    Family.MERCA_SHIFTED,
]


@given(
    st.sampled_from(_PLAIN_FAMILIES),
    st.integers(min_value=0, max_value=18),
    st.integers(min_value=1, max_value=10),
)
@settings(max_examples=120)
def test_denominator_bound_2m_plus_2(family, m, n):
    """Property: value * 2^{2m+2} is an integer for the non-ell5 families."""
    if family in (Family.ALTERNATING, Family.WEIGHT_PI3):
        n *= 2
    if family in (Family.MERCA_HALF, Family.MERCA_SHIFTED) and m == 0:
        m = 1
    spec = SumSpec(family, m, n)
    value = evaluate(spec) * 2 ** (2 * m + 2)
    assert value.denominator == 1


@given(
    st.sampled_from(["product", "alt-product", "cos2", "cos4"]),
    st.integers(min_value=0, max_value=14),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=80)
def test_denominator_bound_ell5(variant, m, n):
    """Property: ell5 values clear 2^{2m+4}."""
    if variant == "alt-product":
        n *= 2
    value = ell5_sum(variant, m, n) * 2 ** (2 * m + 4)
    assert value.denominator == 1


@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=60)
def test_basic_sums_clear_their_stated_denominator(m, n):
    """Property: 2^{2m-1} * C / n and 2^{2m-1} * S / n are integers."""
    for fn in (cos_power_sum, sin_power_sum):
        scaled = fn(m, n) * 2 ** (2 * m - 1) / n
        assert scaled.denominator == 1


# --- documented discrepancies -----------------------------------------------

def test_alternating_cos_middle_off_by_factor_n():
    """The widely printed middle-range expression is the true value divided
    by n: exact at n = 1, wrong for every n > 1."""
    for n in range(1, 8):
        for m in range(n, 2 * n):
            printed = alternating_cos_middle_erratum(m, n)
            truth = alternating_sum("cos", m, 2 * n)
            assert truth == n * printed
            assert (truth == printed) == (n == 1)


def test_alternating_sin_middle_off_by_sign_and_factor():
    """The sine analog drops the (-1)^{pn} weight as well: truth is
    (-1)^n * n * printed, and the two never agree (at n = 1 the sign flips)."""
    for n in range(1, 8):
        for m in range(n, 2 * n):
            printed = alternating_sin_middle_erratum(m, n)
            truth = alternating_sum("sin", m, 2 * n)
            assert truth == (-1) ** n * n * printed
            assert truth != printed


def test_middle_erratum_range_is_enforced():
    with pytest.raises(ParameterError):
        alternating_cos_middle_erratum(1, 2)  # m below the middle range
    with pytest.raises(ParameterError):
        alternating_sin_middle_erratum(6, 3)  # m at 2n, above the range


def _weight3_cases(kind, m, n):
    """The published three-range expression of weight3_sum, written with
    math.comb: 0 for m < n, 3n * 2^{-2m} * sum_p e_p binom(2m, m-pn) for
    n <= m < 3n, and from m = 3n on that minus the same tail at period 3n,
    with e_p = 1 for cosine and (-1)^{pn} for sine ((-1)^{3pn} at 3n)."""
    if m < n:
        return F(0)
    sign = 1 if kind == "cos" else -1
    inner = _tail_sum(m, n, lambda p: sign ** (p * n))
    if m < 3 * n:
        return F(3 * n * inner, 2 ** (2 * m))
    outer = _tail_sum(m, 3 * n, lambda p: sign ** (p * 3 * n))
    return F(3 * n * (inner - outer), 2 ** (2 * m))


def test_weight3_matches_explicit_tri_case():
    """The composition (3*base(m,n) - base(m,3n))/2 equals the three-range
    case expansion for both kinds."""
    for kind in ("cos", "sin"):
        for m in range(0, 12):
            for n in range(1, 8):
                assert weight3_sum(kind, m, n) == _weight3_cases(kind, m, n)


# --- spec plumbing -----------------------------------------------------------

def test_evaluate_matches_direct_functions():
    assert evaluate(SumSpec(Family.COS_POWER, 2, 3)) == cos_power_sum(2, 3)
    assert evaluate(SumSpec(Family.SCALED, 2, 3, q=6)) == scaled_sum("cos", 2, 3, 6)
    assert evaluate(
        SumSpec(Family.ALTERNATING, 2, 4, kind="sin")
    ) == alternating_sum("sin", 2, 4)
    assert evaluate(SumSpec(Family.ELL5_COS4, 3, 2)) == ell5_sum("cos4", 3, 2)


# family -> (a request at m = 200, the public function called on it)
_DIRECT_CALLS = {
    Family.COS_POWER: (SumSpec(Family.COS_POWER, 200, 7), lambda s: cos_power_sum(s.m, s.n)),
    Family.SIN_POWER: (SumSpec(Family.SIN_POWER, 200, 7), lambda s: sin_power_sum(s.m, s.n)),
    Family.SCALED: (
        SumSpec(Family.SCALED, 200, 7, 21, "sin"),
        lambda s: scaled_sum(s.kind, s.m, s.n, s.q),
    ),
    Family.COPRIME: (
        SumSpec(Family.COPRIME, 200, 7, 3),
        lambda s: coprime_sum(s.kind, s.m, s.n, s.q),
    ),
    Family.GCD_REDUCED: (
        SumSpec(Family.GCD_REDUCED, 200, 14, 6, "sin"),
        lambda s: gcd_reduced_sum(s.kind, s.m, s.n, s.q),
    ),
    Family.QUONIAM: (SumSpec(Family.QUONIAM, 200, 203), lambda s: quoniam_sum(s.m, s.n)),
    Family.MERCA_HALF: (SumSpec(Family.MERCA_HALF, 200, 7), lambda s: merca_half_sum(s.m, s.n)),
    Family.MERCA_SHIFTED: (
        SumSpec(Family.MERCA_SHIFTED, 200, 7),
        lambda s: merca_shifted_sum(s.m, s.n),
    ),
    Family.BARBERO_R: (SumSpec(Family.BARBERO_R, 200, 2), lambda s: barbero_R(s.m, s.n)),
    Family.ALTERNATING: (
        SumSpec(Family.ALTERNATING, 200, 8, kind="sin"),
        lambda s: alternating_sum(s.kind, s.m, s.n),
    ),
    Family.SHIFTED_COS: (SumSpec(Family.SHIFTED_COS, 200, 7), lambda s: shifted_cos_sum(s.m, s.n)),
    Family.SHIFTED_SIN: (SumSpec(Family.SHIFTED_SIN, 200, 7), lambda s: shifted_sin_sum(s.m, s.n)),
    Family.WEIGHT3_COS: (
        SumSpec(Family.WEIGHT3_COS, 200, 7),
        lambda s: weight3_sum("cos", s.m, s.n),
    ),
    Family.WEIGHT3_SIN: (
        SumSpec(Family.WEIGHT3_SIN, 200, 7, kind="sin"),
        lambda s: weight3_sum("sin", s.m, s.n),
    ),
    Family.WEIGHT_HALF_PI: (
        SumSpec(Family.WEIGHT_HALF_PI, 200, 7),
        lambda s: weight_half_pi_sum(s.m, s.n),
    ),
    Family.WEIGHT_PI3: (SumSpec(Family.WEIGHT_PI3, 200, 8), lambda s: weight_pi3_sum(s.m, s.n)),
    **{
        family: (SumSpec(family, 200, 8), lambda s: ell5_sum(s.family.value[5:], s.m, s.n))
        for family in (
            Family.ELL5_PRODUCT, Family.ELL5_ALT_PRODUCT, Family.ELL5_COS2, Family.ELL5_COS4
        )
    },
}


@pytest.mark.parametrize("family", list(Family))
def test_evaluate_validates_a_power_sum_once(family, monkeypatch):
    """A SumSpec checks its arguments when it is built, so a request is
    checked once per SumSpec built. A direct call of a public function
    builds one, as no public function calls another. evaluate() builds none
    for the seventeen rows without a check column, quoniam among them,
    which it reads off _windowed itself, and one only for the three
    half-shift families, that of the public function it dispatches to by
    name (the bench tracer times those functions by name)."""
    spec, direct = _DIRECT_CALLS[family]
    builds = []
    build = SumSpec.__init__
    monkeypatch.setattr(SumSpec, "__init__", lambda s, *a, **k: builds.append(a) or build(s, *a, **k))
    value = direct(spec)
    assert len(builds) == 1
    builds.clear()
    assert evaluate(spec) == value
    assert len(builds) == (1 if family in closed_forms._BESPOKE else 0)


def test_every_family_has_one_table_row_and_the_checked_rows_are_bespoke():
    """evaluate reads each of the twenty Family members off its row of the
    table; the bespoke map, through which evaluate reaches a public
    function by name, holds exactly the three half-shift rows, the rows
    that carry a check column."""
    rows = closed_forms._ROWS
    assert set(rows) == set(Family) and len(rows) == 20
    checked = {family for family, row in rows.items() if row(4, 4, 1, "cos")[-1]}
    assert set(closed_forms._BESPOKE) == checked == {Family.MERCA_SHIFTED, Family.SHIFTED_COS, Family.SHIFTED_SIN}


def test_one_table_per_family_per_layer():
    """No module-level dict, set or frozenset of the closed forms or the
    oracle holds Family members, as keys, elements or values, but the row
    tables and the bespoke map; and every check column's d makes d*n even,
    so the checked C(m, d*n) equals S(m, d*n)."""
    tables = set()
    for module in (closed_forms, oracle):
        for name, value in vars(module).items():
            if isinstance(value, dict):
                held = [*value, *value.values()]
            elif isinstance(value, (set, frozenset)):
                held = value
            else:
                continue
            if any(isinstance(item, Family) for item in held):
                tables.add(f"{module.__name__}.{name}")
    assert tables == {
        "trigsum.closed_forms._ROWS", "trigsum.closed_forms._BESPOKE", "trigsum.oracle._SUM_SPEC_SUMS"
    }
    checks = 0
    for family, row in closed_forms._ROWS.items():
        for m in (1, 7, 200):
            for n in range(1, 13):
                for kind in ("cos", "sin"):
                    spec = _grid_spec(family, m, n, kind)
                    _, window, *_, check = row(spec.m, spec.n, spec.q, spec.kind)
                    assert check * window % 2 == 0, spec
                    checks += check > 0
    assert checks == 3 * 3 * 12 * 2


def _grid_spec(family, m, n, kind):
    # a spec of ``family`` at (m, n), or (m, 2n) for an even-period family,
    # or (m, m + n - 1) for quoniam, which needs n >= m
    if family in (Family.ALTERNATING, Family.WEIGHT_PI3, Family.ELL5_ALT_PRODUCT):
        n *= 2
    if family is Family.QUONIAM:
        n += m - 1
    q = {Family.SCALED: 3 * n, Family.COPRIME: n + 1, Family.GCD_REDUCED: 6}.get(family, 1)
    return SumSpec(family, m, n, q, kind)


@pytest.mark.parametrize("family", list(closed_forms._ROWS))
def test_evaluate_equals_the_public_function_across_the_table(family, monkeypatch):
    """For every family of the row table, evaluate() equals the family's
    public function at m = 120, 250, 500, n <= 9 and both kinds, a grid on
    which the cost model reads the residue row at some points and walks
    the window at others. quoniam, at n = m..m+8, has windows of no tail
    term, which the cost model never prices above a row."""
    direct = _DIRECT_CALLS[family][1]
    rows, routes = [], set()
    real_row = closed_forms.residue_row
    monkeypatch.setattr(closed_forms, "residue_row", lambda e, L: rows.append(L) or real_row(e, L))
    for m in (120, 250, 500):
        for n in range(1, 10):
            for kind in ("cos", "sin"):
                spec = _grid_spec(family, m, n, kind)
                rows.clear()
                closed_forms.clear_caches()
                value = evaluate(spec)
                routes.add("row" if rows else "window")
                closed_forms.clear_caches()  # or direct() reads evaluate()'s sums back
                assert value == direct(spec), spec
    assert routes == ({"window"} if family is Family.QUONIAM else {"row", "window"})


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.just(0), st.integers(-(2**80), 2**80), st.integers(1, 2**20).map(lambda x: x << 300)),
    st.integers(0, 420),
)
def test_dyadic_equals_fraction(numerator, bits):
    """_dyadic builds numerator / 2^bits without a gcd; it must be the
    same normalised Fraction: equal, with equal numerator, denominator and
    hash, and usable in further arithmetic."""
    expected = F(numerator, 2**bits)
    value = closed_forms._dyadic(numerator, bits)
    assert type(value) is F
    assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)
    assert value == expected and hash(value) == hash(expected)
    assert value + F(1, 3) == expected + F(1, 3)


def test_sumspec_params_only_carry_used_fields():
    assert SumSpec(Family.COS_POWER, 2, 3).params() == {"m": 2, "n": 3}
    assert SumSpec(Family.SCALED, 2, 3, q=6).params() == {
        "m": 2,
        "n": 3,
        "q": 6,
        "kind": "cos",
    }
    assert SumSpec(Family.ALTERNATING, 2, 4, kind="sin").params() == {
        "m": 2,
        "n": 4,
        "kind": "sin",
    }


def test_sumspec_validation_errors():
    """Each domain check refuses at construction, with its message."""
    for args, kwargs, message in [
        ((Family.COS_POWER, -1, 3), {}, "m must be non-negative"),
        ((Family.COS_POWER, 2, 0), {}, "n must be >= 1 for C"),
        ((Family.COS_POWER, 2, 3), {"kind": "tan"}, "kind must be 'cos' or 'sin'"),
        ((Family.ALTERNATING, 2, 3), {}, "alternating requires even n"),
        ((Family.WEIGHT_PI3, 2, 5), {}, "weight-pi3 requires even n"),
        ((Family.ELL5_ALT_PRODUCT, 2, 3), {}, "ell5-alt-product requires even n"),
        ((Family.SCALED, 2, 3), {"q": 5}, "scaled family requires n \\| q"),
        ((Family.COPRIME, 2, 6), {"q": 4}, "coprime family requires gcd\\(n, q\\) = 1"),
        ((Family.QUONIAM, 5, 4), {}, "quoniam requires 1 <= m < n\\+1"),
        ((Family.MERCA_SHIFTED, 0, 4), {}, "half-range families require m >= 1"),
        ((Family.GCD_REDUCED, 2, 4), {"q": 0}, "q must be positive"),
    ]:
        with pytest.raises(ParameterError, match=f"^{message}$"):
            SumSpec(*args, **kwargs)
    # barbero allows n = 0
    assert SumSpec(Family.BARBERO_R, 3, 0).n == 0


_GRAPH = GraphSpec(GraphKind.PATH, 3)
# every public closed-form, series, walk and coefficient-triangle function,
# and the public binom, binomial window, scaled power sums and Bernoulli
# table, called with one bool and with one float parameter
NON_INT_CALLS = {
    "cos_power_sum": (lambda: cos_power_sum(True, 3), lambda: cos_power_sum(2, 3.0)),
    "sin_power_sum": (lambda: sin_power_sum(2, True), lambda: sin_power_sum(2.0, 3)),
    "scaled_sum": (lambda: scaled_sum("cos", 2, 3, True), lambda: scaled_sum("sin", 2, 3, 6.0)),
    "coprime_sum": (lambda: coprime_sum("cos", True, 3, 2), lambda: coprime_sum("sin", 2, 3, 2.0)),
    "gcd_reduced_sum": (lambda: gcd_reduced_sum("cos", 2, True, 2), lambda: gcd_reduced_sum("cos", 2, 3, 2.0)),
    "quoniam_sum": (lambda: quoniam_sum(True, 3), lambda: quoniam_sum(2, 3.5)),
    "merca_half_sum": (lambda: merca_half_sum(True, 3), lambda: merca_half_sum(2, 3.0)),
    "merca_shifted_sum": (lambda: merca_shifted_sum(2, True), lambda: merca_shifted_sum(2.0, 3)),
    "barbero_R": (lambda: barbero_R(True, 1), lambda: barbero_R(2.0, 1)),
    "barbero_R_naive": (lambda: barbero_R_naive(2, True), lambda: barbero_R_naive(2, 1.0)),
    "alternating_sum": (lambda: alternating_sum("cos", True, 4), lambda: alternating_sum("sin", 2, 4.0)),
    "alternating_cos_middle_erratum": (
        lambda: alternating_cos_middle_erratum(1, True),
        lambda: alternating_cos_middle_erratum(2.0, 2),
    ),
    "alternating_sin_middle_erratum": (
        lambda: alternating_sin_middle_erratum(True, 1),
        lambda: alternating_sin_middle_erratum(2, 2.0),
    ),
    "shifted_cos_sum": (lambda: shifted_cos_sum(True, 3), lambda: shifted_cos_sum(2, 3.0)),
    "shifted_sin_sum": (lambda: shifted_sin_sum(2, True), lambda: shifted_sin_sum(2.0, 3)),
    "weight3_sum": (lambda: weight3_sum("cos", True, 3), lambda: weight3_sum("sin", 2, 3.0)),
    "weight_half_pi_sum": (lambda: weight_half_pi_sum(2, True), lambda: weight_half_pi_sum(2.0, 3)),
    "weight_pi3_sum": (lambda: weight_pi3_sum(True, 4), lambda: weight_pi3_sum(2, 4.0)),
    "ell5_sum": (lambda: ell5_sum("product", True, 3), lambda: ell5_sum("cos2", 3, 2.0)),
    "sigma": (lambda: sigma(True, 1), lambda: sigma(2, 1.0)),
    "sigma_minus": (lambda: sigma_minus(2, True), lambda: sigma_minus(2.0, 1)),
    "sigma_table": (lambda: sigma_table("cos", True, 4), lambda: sigma_table("sin", 3, 4.0)),
    "bessel_i0_coefficient": (lambda: bessel_i0_coefficient(True), lambda: bessel_i0_coefficient(2.0)),
    "g1_coefficients": (lambda: g1_coefficients(3, True), lambda: g1_coefficients(3.0, 4)),
    "h1_coefficients": (lambda: h1_coefficients(3, True, 4), lambda: h1_coefficients(3, 2.0, 4)),
    "resolvent_coefficients": (
        lambda: resolvent_coefficients("cos", True, 4),
        lambda: resolvent_coefficients("sin", 3, 4.0),
    ),
    "path_closed_walks": (lambda: path_closed_walks(True, 2), lambda: path_closed_walks(3, 2.0)),
    "cycle_closed_walks": (lambda: cycle_closed_walks(3, True), lambda: cycle_closed_walks(3.0, 2)),
    "adjacency_matrix": (
        lambda: adjacency_matrix(GraphSpec(GraphKind.CYCLE, True)),
        lambda: adjacency_matrix(GraphSpec(GraphKind.PATH, 3.0)),
    ),
    "trace_oracle": (lambda: trace_oracle(_GRAPH, True), lambda: trace_oracle(_GRAPH, 2.0)),
    "closed_walk_counts": (
        lambda: closed_walk_counts(GraphKind.PATH, 3, True),
        lambda: closed_walk_counts(GraphKind.CYCLE, 3.0, 4),
    ),
    "byrne_smith_coefficients": (
        lambda: byrne_smith_coefficients(True),
        lambda: byrne_smith_coefficients(2.0),
    ),
    "byrne_smith_coefficients_uncorrected": (
        lambda: byrne_smith_coefficients_uncorrected(True),
        lambda: byrne_smith_coefficients_uncorrected(2.0),
    ),
    "binom": (lambda: binom(True, 1), lambda: binom(2.5, 1)),
    "binom_window": (lambda: next(binom_window(True, 1)), lambda: next(binom_window(2.5, 1))),
    "scaled_power_sums": (
        lambda: next(scaled_power_sums("cos", True)),
        lambda: next(scaled_power_sums("sin", 2.0)),
    ),
    "bernoulli": (lambda: bernoulli(True), lambda: bernoulli(2.0)),
    "BernoulliCache.get": (lambda: BernoulliCache().get(True), lambda: BernoulliCache().get(2.0)),
}


@pytest.mark.parametrize(
    "name, which", [(name, which) for name in NON_INT_CALLS for which in ("bool", "float")]
)
def test_non_int_parameters_rejected_by_every_function(name, which, monkeypatch):
    """Called directly, every function refuses a bool or float parameter as
    a usage error before it builds a binomial, also once the int call with
    the same value is cached."""
    byrne_smith_coefficients(1), byrne_smith_coefficients(2)
    byrne_smith_coefficients_uncorrected(1), byrne_smith_coefficients_uncorrected(2)

    def costly(*args):
        raise AssertionError("binomial computed")

    for module, site in (
        (closed_forms, "binom_window"),
        (closed_forms, "binom"),
        (genfunc, "_window_pass"),
        (genfunc, "scaled_power_sums"),
        (walks, "scaled_power_sums"),
        (cotangent, "binom"),
    ):
        monkeypatch.setattr(module, site, costly)
    call = NON_INT_CALLS[name][which == "float"]
    with pytest.raises(ParameterError, match="must be an int"):
        call()


@pytest.mark.parametrize("family", ["bogus", "C", None])
def test_unknown_family_rejected(family):
    """A family that is not a Family member is a usage error, not C's value
    or a KeyError, and no request of it is ever built, so neither evaluate
    nor the oracle can see one; its CLI token alone does not name a family
    here."""
    with pytest.raises(ParameterError, match=f"^unknown family {family!r}$"):
        SumSpec(family, 2, 3)


@pytest.mark.parametrize("spec", ["C", CotSumParams(1, 3)], ids=["token", "cot-request"])
def test_evaluate_refuses_anything_but_a_sum_spec(spec):
    """evaluate reads only SumSpecs: a family token or a cot request is a
    usage error, refused as evaluate_exact refuses it, not an
    AttributeError from a missing field."""
    with pytest.raises(ParameterError, match=f"^unsupported closed-form request {type(spec).__name__}$"):
        evaluate(spec)


@pytest.mark.parametrize(
    "kwargs, message",
    [({"q": 2.5}, "q must be an int, not float"), ({"kind": "tan"}, "kind must be 'cos' or 'sin'")],
    ids=["float-q", "bad-kind"],
)
def test_evaluate_refuses_what_validate_refuses(kwargs, message):
    """A q or kind the family ignores is still a usage error: the SumSpec is
    refused when it is built, so there is no request for evaluate or the
    oracle to turn into C(2, 3) = 9/8."""
    with pytest.raises(ParameterError, match=f"^{message}$"):
        SumSpec(Family.COS_POWER, 2, 3, **kwargs)


@pytest.mark.parametrize(
    "spec",
    [
        ((Family.COS_POWER, True, 3), {}, "m must be an int, not bool"),
        ((Family.COS_POWER, 2, True), {}, "n must be an int, not bool"),
        ((Family.COS_POWER, 2.0, 3), {}, "m must be an int, not float"),
        ((Family.SIN_POWER, 2, 3.0), {}, "n must be an int, not float"),
        ((Family.SCALED, 2, 3), {"q": 6.0}, "q must be an int, not float"),
        ((Family.COPRIME, 2, 3), {"q": False}, "q must be an int, not bool"),
        ((Family.QUONIAM, "2", 4), {}, "m must be an int, not str"),
    ],
)
def test_non_int_parameters_rejected(spec):
    """bool and non-int m, n, q are usage errors, not m = 1 or a TypeError:
    the SumSpec of (args, kwargs) is refused when it is built."""
    args, kwargs, message = spec
    with pytest.raises(ParameterError, match=f"^{message}$"):
        SumSpec(*args, **kwargs)


def test_cost_guard_on_m():
    """m beyond MAX_M is refused up front: C(10^9, 1) would hang in the
    central binomial of 2*10^9."""
    assert SumSpec(Family.COS_POWER, MAX_M, 7).m == MAX_M
    for family in (Family.COS_POWER, Family.MERCA_HALF, Family.SHIFTED_COS):
        with pytest.raises(CostGuardError, match=f"^m must be <= {MAX_M} \\(cost guard\\)$"):
            SumSpec(family, MAX_M + 1, 7)
    with pytest.raises(CostGuardError):
        SumSpec(Family.COS_POWER, 10**9, 1)


def test_sort_key_orders_by_family_then_params():
    specs = [
        SumSpec(Family.SIN_POWER, 1, 1),
        SumSpec(Family.COS_POWER, 2, 1),
        SumSpec(Family.COS_POWER, 1, 2),
        SumSpec(Family.COS_POWER, 1, 1),
    ]
    ordered = sorted(specs, key=lambda s: s.sort_key())
    assert ordered == [
        SumSpec(Family.COS_POWER, 1, 1),
        SumSpec(Family.COS_POWER, 1, 2),
        SumSpec(Family.COS_POWER, 2, 1),
        SumSpec(Family.SIN_POWER, 1, 1),
    ]
