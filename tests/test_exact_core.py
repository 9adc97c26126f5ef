"""Integer and rational building blocks: binomials, the binomial window,
the scaled power sums from the residue rows, Bernoulli numbers."""

from fractions import Fraction
from itertools import islice
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from trigsum import closed_forms, cotangent, exact_core
from trigsum.exact_core import (
    BernoulliCache,
    bernoulli,
    binom,
    binom_window,
    residue_row,
    scaled_power_sums,
)
from trigsum.errors import CostGuardError, ParameterError


def test_binom_frozen_values():
    assert binom(0, 0) == 1
    assert binom(23, 11) == 1352078
    assert binom(50, 25) == 126410606437752
    assert binom(6, 3) == 20


def test_binom_out_of_range_is_zero():
    assert binom(5, 7) == 0
    assert binom(5, -1) == 0
    assert binom(0, 1) == 0


def test_binom_negative_n_rejected():
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_binom_cost_guard():
    """n beyond 2 * MAX_M, the largest binom(2m, m) a request reads, is
    refused at once: binom(10**9, 5 * 10**8) was still running after 100 s."""
    assert exact_core.MAX_BINOM_N == 2 * closed_forms.MAX_M
    assert binom(exact_core.MAX_BINOM_N, 3) == comb(exact_core.MAX_BINOM_N, 3)
    for n, k in ((exact_core.MAX_BINOM_N + 1, 0), (10**9, 5 * 10**8)):
        with pytest.raises(CostGuardError):
            binom(n, k)


@given(st.integers(min_value=2, max_value=60), st.data())
@settings(max_examples=150)
def test_binom_pascal_identity(n, data):
    """Property: binom(n,k) = binom(n-1,k-1) + binom(n-1,k) for 0 < k < n."""
    k = data.draw(st.integers(min_value=1, max_value=n - 1))
    assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)


@given(st.integers(min_value=0, max_value=60), st.data())
@settings(max_examples=150)
def test_binom_symmetry(n, data):
    """Property: binom(n,k) = binom(n,n-k)."""
    k = data.draw(st.integers(min_value=0, max_value=n))
    assert binom(n, k) == binom(n, n - k)


@given(st.integers(min_value=0, max_value=300), st.integers(min_value=1, max_value=40))
@settings(max_examples=200)
def test_binom_window_matches_comb(m, n):
    """Property: the ratio-step window is binom(2m, m - p*n), p = m//n..0,
    including m < n (the central term alone) and n = 1 (every term)."""
    assert list(binom_window(m, n)) == [comb(2 * m, m - p * n) for p in range(m // n, -1, -1)]


def test_binom_window_edges():
    assert list(binom_window(0, 1)) == [1]
    assert list(binom_window(3, 1)) == [1, 6, 15, 20]
    assert list(binom_window(2, 5)) == [6]


@given(st.integers(min_value=0, max_value=300), st.integers(min_value=1, max_value=40))
@settings(max_examples=100)
def test_binom_window_calls_comb_once_below_n(m, n):
    """Property: a window computes one binomial with comb below n,
    binom(2m, m mod n) with k < n. A window of two or more steps reaches
    every other term, the central one included, by ratio steps; a window
    of one step (n <= m < 2n) reads its central term with comb too."""
    calls = []

    def spy(a, b):
        calls.append((a, b))
        return comb(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact_core, "comb", spy)
        terms = list(binom_window(m, n))
    assert calls == [(2 * m, m % n)] + ([(2 * m, m)] if m // n == 1 else [])
    assert terms[-1] == comb(2 * m, m)


@pytest.mark.parametrize("m", [1, 2, 3, 7, 50, 20_000])
def test_binom_window_at_and_below_one_step(m):
    """n = m and m - 1 give windows of one step, read with comb; n =
    ceil(m/2) gives one step at odd m and two at even m. Every window
    equals math.comb term for term."""
    for n in {m, m - 1, -(-m // 2)} - {0}:
        assert list(binom_window(m, n)) == [comb(2 * m, m - p * n) for p in range(m // n, -1, -1)]


@pytest.mark.parametrize("m, n", [(-1, 1), (3, 0), (3, -2), (True, 1), (2.5, 1), (3, 1.0)])
def test_binom_window_bad_arguments_rejected(m, n):
    """A bool or float, or an m or n out of range, is a ParameterError when
    the first term is taken (True used to walk the window of m = 1)."""
    with pytest.raises(ParameterError):
        next(binom_window(m, n))


def test_binom_window_cost_guard(monkeypatch):
    """The window of binom(2m, .) has binom's guard: 2m past MAX_BINOM_N is
    refused before any binomial is computed."""

    def costly(*args):
        raise AssertionError("binomial computed")

    largest = closed_forms.MAX_M
    assert 2 * largest == exact_core.MAX_BINOM_N
    assert next(binom_window(largest, largest)) == 1
    monkeypatch.setattr(exact_core, "comb", costly)
    for m, n in ((largest + 1, 1), (10**9, 7)):
        with pytest.raises(CostGuardError):
            next(binom_window(m, n))


@given(st.integers(min_value=0, max_value=300), st.integers(min_value=1, max_value=40))
@settings(max_examples=200)
@example(0, 1)
@example(300, 1)
@example(7, 40)
@example(255, 3)
@example(256, 7)
def test_residue_row_matches_folded_comb(e, L):
    """Property: entry r of the row is the sum of binom(e, i) over
    i = r (mod L), written with math.comb: L = 1 folds the whole row to
    2^e, L > e + 1 leaves the binomials unfolded with zeros after them, and
    e = 255, 256 cross a byte of slot width."""
    literal = [0] * L
    for i in range(e + 1):
        literal[i % L] += comb(e, i)
    assert residue_row(e, L) == tuple(literal)


def test_residue_row_edges():
    assert residue_row(0, 1) == (1,)
    assert residue_row(0, 3) == (1, 0, 0)
    assert residue_row(5, 1) == (32,)
    assert residue_row(3, 6) == (1, 3, 3, 1, 0, 0)
    assert residue_row(4, 2) == (8, 8)


@pytest.mark.parametrize("e, L", [(-1, 1), (3, 0), (3, -2), (True, 1), (2.5, 1), (3, 1.0), (3, False)])
def test_residue_row_bad_arguments_rejected(e, L):
    with pytest.raises(ParameterError):
        residue_row(e, L)


def test_residue_row_cost_guard():
    """A row of more than MAX_ROW_BITS slot bits is refused before it is
    built, the row of 10^5 slots at e = 2 * 10^5 among them."""
    largest = exact_core.MAX_ROW_BITS
    for e, L in ((largest, 1), (0, largest + 1), (2 * 10**5, 10**5)):
        with pytest.raises(CostGuardError):
            residue_row(e, L)


def _literal_window_sum(kind, j, n):
    # sum_p e_p * binom(2j, j + p*n) over all integers p, written with math.comb
    weight = (lambda p: 1) if kind == "cos" else (lambda p: (-1) ** (p * n % 2))
    return sum(weight(p) * comb(2 * j, j + p * n) for p in range(-(j // n), j // n + 1))


@pytest.mark.parametrize("kind", ["cos", "sin"])
def test_scaled_power_sums_match_literal_window_sums(kind):
    """Term j is the whole window sum of (j, n) with the weights of C or S,
    below j = n (central terms) and from there (residue rows) alike."""
    for n in [*range(1, 12), 40, 41]:
        sums = list(islice(scaled_power_sums(kind, n), 61))
        assert sums == [_literal_window_sum(kind, j, n) for j in range(61)], (kind, n)


def test_residue_rows_match_literal_residue_sums():
    """Row j lists sum_{i = r (mod L)} binom(2j, i), r < L: the coefficients
    of (1 + x)^{2j} mod (x^L - 1), written with math.comb, from any start."""
    for period in range(1, 12):
        for start in (0, 1, period, 2 * period + 1):
            rows = islice(exact_core._residue_rows(start, period), 30)
            for j, row in enumerate(rows, start):
                literal = tuple(
                    sum(comb(2 * j, i) for i in range(r, 2 * j + 1, period))
                    for r in range(period)
                )
                assert row == literal, (period, start, j)


def test_scaled_power_sums_edges():
    assert list(islice(scaled_power_sums("cos", 1), 4)) == [1, 4, 16, 64]
    assert list(islice(scaled_power_sums("sin", 1), 4)) == [1, 0, 0, 0]  # sin(0) = 0
    # a huge n: central binomials only, no row of n entries
    assert list(islice(scaled_power_sums("sin", 10**9 + 1), 4)) == [1, 2, 6, 20]
    for kind, n in (("tan", 3), ("cos", 0), ("sin", -2), (None, 3), ("cos", True), ("sin", 2.0)):
        with pytest.raises(ParameterError):
            next(scaled_power_sums(kind, n))


def test_scaled_power_sums_build_no_row_below_n(monkeypatch):
    """The rows start at j = n: a caller that stops below n builds none."""

    def no_rows(*args):
        raise AssertionError("residue row built")

    monkeypatch.setattr(exact_core, "_residue_rows", no_rows)
    for kind in ("cos", "sin"):
        assert len(list(islice(scaled_power_sums(kind, 10**9), 1001))) == 1001
        with pytest.raises(AssertionError, match="residue row"):
            list(islice(scaled_power_sums(kind, 5), 6))


BERNOULLI_KNOWN = {
    0: Fraction(1),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
}


def test_bernoulli_frozen_values():
    for index, value in BERNOULLI_KNOWN.items():
        assert bernoulli(index) == value


def test_bernoulli_odd_or_negative_rejected():
    for index in (1, 3, 7, -2):
        with pytest.raises(ValueError):
            bernoulli(index)


def test_bernoulli_cost_guard_refuses_before_building(monkeypatch):
    """An index past MAX_BERNOULLI_INDEX is refused before the table grows:
    bernoulli(2000) took 32 s."""
    cache = BernoulliCache()
    monkeypatch.setattr(exact_core, "_SHARED_CACHE", cache)
    for index in (exact_core.MAX_BERNOULLI_INDEX + 2, 2000, 10**9):
        for call in (bernoulli, cache.get):
            with pytest.raises(CostGuardError):
                call(index)
    assert len(cache) == 1
    assert bernoulli(exact_core.MAX_BERNOULLI_INDEX) == cache.get(exact_core.MAX_BERNOULLI_INDEX)


def test_bernoulli_bound_is_what_the_cot_polynomial_reads(monkeypatch):
    """MAX_BERNOULLI_INDEX is the largest index cot_sum_polynomial reads at
    cotangent.MAX_N, so every valid cot request stays under the guard."""
    read = []

    def recording(index):
        read.append(index)
        return bernoulli(index)

    cotangent.clear_caches()
    monkeypatch.setattr(cotangent, "bernoulli", recording)
    try:
        cotangent.cot_sum_polynomial(cotangent.MAX_N)
    finally:
        cotangent.clear_caches()
    assert max(read) == exact_core.MAX_BERNOULLI_INDEX == 2 * cotangent.MAX_N


def _akiyama_tanigawa(n_max):
    """Independent Bernoulli generator (Akiyama-Tanigawa algorithm),
    yielding B_0..B_n_max with the B_1 = +1/2 convention; even indices are
    convention-independent."""
    out = []
    row = []
    for n in range(n_max + 1):
        row.append(Fraction(1, n + 1))
        for j in range(n, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out

def test_bernoulli_matches_akiyama_tanigawa():
    table = _akiyama_tanigawa(40)
    for index in range(0, 42, 2):
        assert bernoulli(index) == table[index]


def _bernoulli_or_zero(k):
    if k == 1:
        return Fraction(-1, 2)
    if k % 2:
        return Fraction(0)
    return bernoulli(k)


@given(st.integers(min_value=2, max_value=40).filter(lambda n: n % 2 == 0))
@settings(max_examples=40)
def test_bernoulli_defining_recurrence(n):
    """Property: sum_{k=0}^{n} binom(n+1,k) B_k = 0 for even n >= 2."""
    total = sum(binom(n + 1, k) * _bernoulli_or_zero(k) for k in range(n + 1))
    assert total == 0


def test_bernoulli_cache_grows_and_is_stable():
    cache = BernoulliCache()
    assert len(cache) == 1
    first = cache.get(20)
    assert len(cache) == 11
    assert cache.get(20) == first
    assert cache.table[10] == first
    assert cache.table[0] == 1


rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=1_000
)


@given(rationals, rationals)
@settings(max_examples=100)
def test_rational_arithmetic_is_exact(a, b):
    """Property: sum and product agree with cross-multiplied integer forms."""
    s = a + b
    assert s.numerator * a.denominator * b.denominator == (
        a.numerator * b.denominator + b.numerator * a.denominator
    ) * s.denominator
    p = a * b
    assert p.numerator * a.denominator * b.denominator == (
        a.numerator * b.numerator
    ) * p.denominator


@given(rationals)
@settings(max_examples=50)
def test_rational_normalization_idempotent(a):
    from math import gcd

    assert gcd(a.numerator, a.denominator) == 1
    assert Fraction(a.numerator, a.denominator) == a
