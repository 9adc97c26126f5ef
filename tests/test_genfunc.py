"""Series coefficients built from the power sums: normalized tails, the
exponential and resolvent generating identities, numeric sanity."""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from trigsum import closed_forms, exact_core, genfunc
from trigsum.closed_forms import MAX_M, cos_power_sum, sin_power_sum
from trigsum.errors import CostGuardError, ParameterError
from trigsum.genfunc import (
    MAX_TABLE_INDEX,
    SeriesCoefficients,
    bessel_i0_coefficient,
    g1_coefficients,
    h1_coefficients,
    resolvent_coefficients,
    sigma,
    sigma_minus,
    sigma_table,
)

F = Fraction


def test_sigma_frozen_values():
    assert sigma(3, 3) == F(1, 720)  # binom(6,6)/6!
    assert sigma(4, 3) == F(1, 5040)  # binom(8,7)/8!
    assert sigma(0, 3) == 0
    assert sigma(2, 3) == 0  # k < n: empty window
    assert sigma_minus(3, 3) == F(-1, 720)  # odd n flips odd p terms


def test_sigma_validation():
    with pytest.raises(ParameterError):
        sigma(-1, 3)
    with pytest.raises(ParameterError):
        sigma(3, 0)


def test_sigma_cost_guard_refuses_before_the_window(monkeypatch):
    """k past MAX_M is refused before any binomial is computed."""

    def costly(*args):
        raise AssertionError("window summed")

    monkeypatch.setattr(genfunc, "_window_pass", costly)
    for fn in (sigma, sigma_minus):
        with pytest.raises(CostGuardError, match="cost guard"):
            fn(MAX_M + 1, 3)


def _sigma_literal(k: int, n: int, sign: int) -> Fraction:
    """sum_{p=1}^{floor(k/n)} sign^{pn} * comb(2k, k+pn) / (2k)!, term by term."""
    window = sum(sign ** (p * n) * comb(2 * k, k + p * n) for p in range(1, k // n + 1))
    return F(window, factorial(2 * k))


@pytest.mark.parametrize("row", [False, True], ids=["window", "row"])
def test_sigma_matches_literal_comb_on_both_routes(row, monkeypatch):
    """sigma and sigma_minus read their tail classes off the window or the
    residue row, as _row_is_cheaper says; forced either way, both equal the
    math.comb literal form at k < n, k = n, n | k, n = 1 and odd n, where
    sigma_minus takes the odd-p class away instead of adding it."""
    monkeypatch.setattr(closed_forms, "_row_is_cheaper", lambda m, n, size: row)
    rows = []
    real_row = closed_forms.residue_row
    monkeypatch.setattr(closed_forms, "residue_row", lambda e, L: rows.append(L) or real_row(e, L))
    for n in (1, 2, 3, 5, 6, 7, 11):
        for k in range(40):
            assert sigma(k, n) == _sigma_literal(k, n, 1), (k, n)
            assert sigma_minus(k, n) == _sigma_literal(k, n, -1), (k, n)
    assert bool(rows) == row


@pytest.mark.parametrize("n", range(1, 10))
def test_sigma_table_equals_single_values_and_literal_form(n):
    """The table read off the residue rows equals sigma and sigma_minus
    and the math.comb literal form, row by row, k <= 200."""
    for kind, single, sign in (("cos", sigma, 1), ("sin", sigma_minus, -1)):
        table = sigma_table(kind, n, 200)
        assert len(table) == 201
        for k, value in enumerate(table):
            assert type(value) is Fraction
            assert value == single(k, n) == _sigma_literal(k, n, sign), (kind, k)


def test_sigma_table_validation_and_cost_guard(monkeypatch):
    """Bad arguments raise the single values' errors; a last index past
    MAX_TABLE_INDEX is refused before any power sum is taken."""
    with pytest.raises(ParameterError, match="need k >= 0 and n >= 1"):
        sigma_table("cos", 0, 3)
    with pytest.raises(ParameterError, match="need k >= 0 and n >= 1"):
        sigma_table("sin", 3, -1)
    with pytest.raises(ParameterError, match="n must be an int"):
        sigma_table("cos", True, 3)
    with pytest.raises(ParameterError, match="kind must be"):
        sigma_table("tan", 3, 3)

    def costly(*args):
        raise AssertionError("power sums taken")

    monkeypatch.setattr(genfunc, "scaled_power_sums", costly)
    with pytest.raises(CostGuardError, match="cost guard"):
        sigma_table("cos", 3, MAX_TABLE_INDEX + 1)


@given(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=100)
def test_sigma_nonnegative(k, n):
    """Property: sigma_k(n) >= 0 always."""
    assert sigma(k, n) >= 0


@given(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=60)
def test_sigma_minus_equals_sigma_for_even_n(k, n):
    """Property: the alternating weight is trivial at even n."""
    assert sigma_minus(k, 2 * n) == sigma(k, 2 * n)
    assert abs(sigma_minus(k, 2 * n - 1)) <= sigma(k, 2 * n - 1)


def test_bessel_coefficients_are_generated_not_sampled():
    for j in range(10):
        assert bessel_i0_coefficient(j) == F(1, 4**j * factorial(j) ** 2)
    with pytest.raises(ParameterError):
        bessel_i0_coefficient(-1)


def test_g1_coefficients_explicit_small_case():
    """n = 3, order 6: even slots carry C(j,3)/(2j)!, odd slots 1/(2j+1)!."""
    from trigsum.closed_forms import cos_power_sum

    series = g1_coefficients(3, 6)
    assert series.order == 6
    assert len(series.coeffs) == 7
    for j in range(0, 4):
        assert series[2 * j] == cos_power_sum(j, 3) / factorial(2 * j)
    for j in range(0, 3):
        assert series[2 * j + 1] == F(1, factorial(2 * j + 1))
    # and the identity route agrees term by term, written out explicitly
    for j in range(0, 4):
        identity = 3 * bessel_i0_coefficient(j) + F(2 * 3, 4**j) * sigma(j, 3)
        assert series[2 * j] == identity


@given(st.integers(min_value=1, max_value=10))
@settings(max_examples=10, deadline=None)
def test_g1_routes_agree_to_order_40(n):
    """Property: through K = 40 every even slot equals the tail-sum route
    n*[I0 coeff] + 2n*sigma(j, n)/4^j."""
    series = g1_coefficients(n, 40)
    assert len(series.coeffs) == 41
    for j in range(21):
        assert series[2 * j] == n * bessel_i0_coefficient(j) + F(2 * n, 4**j) * sigma(j, n)


@given(st.integers(min_value=0, max_value=4))
@settings(max_examples=5, deadline=None)
def test_h1_routes_agree_and_odd_vanish(i):
    """Property: for odd n (the admissible case), even slots are
    S(j,n)/(2j)!, equal to the tail-sum route n*[I0 coeff]
    + 2n*sigma_minus(j, n)/4^j, and every odd slot is exactly zero."""
    from trigsum.closed_forms import sin_power_sum

    n = 2 * i + 1
    series = h1_coefficients(n, 2, 30)
    for idx in range(31):
        if idx % 2:
            assert series[idx] == 0
        else:
            j = idx // 2
            assert series[idx] == sin_power_sum(j, n) / factorial(idx)
            assert series[idx] == n * bessel_i0_coefficient(j) + F(2 * n, 4**j) * sigma_minus(
                j, n
            )


def test_h1_parameter_validation():
    with pytest.raises(ParameterError):
        h1_coefficients(3, 3, 10)  # odd q
    with pytest.raises(ParameterError):
        h1_coefficients(4, 2, 10)  # q shares a factor with n
    with pytest.raises(ParameterError):
        h1_coefficients(3, 0, 10)


def test_resolvent_coefficients_both_kinds():
    from trigsum.closed_forms import cos_power_sum, sin_power_sum

    for n in range(1, 11):
        cos_series = resolvent_coefficients("cos", n, 20)
        sin_series = resolvent_coefficients("sin", n, 20)
        for j in range(21):
            assert cos_series[j] == cos_power_sum(j, n) / n
            assert sin_series[j] == sin_power_sum(j, n) / n
            explicit = F(comb(2 * j, j), 4**j) + F(2 * factorial(2 * j), 4**j) * sigma(j, n)
            assert cos_series[j] == explicit
            explicit = F(comb(2 * j, j), 4**j) + F(2 * factorial(2 * j), 4**j) * sigma_minus(j, n)
            assert sin_series[j] == explicit


def test_series_builders_match_per_index_power_sums():
    """The residue-row recurrence gives every coefficient exactly as the
    per-index C and S do, n = 1..11, both kinds, to order 80."""
    order = 80
    for n in range(1, 12):
        g1 = g1_coefficients(n, order)
        for kind, base in (("cos", cos_power_sum), ("sin", sin_power_sum)):
            resolvent = resolvent_coefficients(kind, n, order)
            assert resolvent.coeffs == tuple(base(j, n) / n for j in range(order + 1)), (kind, n)
        for idx in range(order + 1):
            odd = F(1, factorial(idx)) if idx % 2 else cos_power_sum(idx // 2, n) / factorial(idx)
            assert g1[idx] == odd, (n, idx)
        if n % 2:  # h1 needs even q coprime to n
            h1 = h1_coefficients(n, 2, order)
            for idx in range(order + 1):
                even = 0 if idx % 2 else sin_power_sum(idx // 2, n) / factorial(idx)
                assert h1[idx] == even, (n, idx)


def test_series_builders_at_n_near_and_past_the_order():
    """Around j = n the sums switch from central binomials to residue rows;
    every coefficient still equals the per-index C and S."""
    order = 60
    for n in (29, 30, 31, 59, 60, 61, 97):
        for kind, base in (("cos", cos_power_sum), ("sin", sin_power_sum)):
            resolvent = resolvent_coefficients(kind, n, order)
            assert resolvent.coeffs == tuple(base(j, n) / n for j in range(order + 1)), (kind, n)
        g1 = g1_coefficients(n, order)
        assert all(g1[2 * j] == cos_power_sum(j, n) / factorial(2 * j) for j in range(31)), n
        if n % 2:
            h1 = h1_coefficients(n, 2, order)
            assert all(h1[2 * j] == sin_power_sum(j, n) / factorial(2 * j) for j in range(31)), n


def test_series_builders_build_no_row_for_n_past_the_order(monkeypatch):
    """With n above every index each coefficient is one central binomial:
    no residue row of n entries is built, so a huge n costs nothing."""

    def no_rows(*args):
        raise AssertionError("residue row built")

    monkeypatch.setattr(exact_core, "_residue_rows", no_rows)
    n = 10**8 + 1
    for series in (
        g1_coefficients(n, 20),
        h1_coefficients(n, 2, 20),
        resolvent_coefficients("cos", n, 10),
        resolvent_coefficients("sin", n, 10),
    ):
        assert series.order in (10, 20)
    coeffs = resolvent_coefficients("cos", n, MAX_TABLE_INDEX).coeffs
    assert coeffs[7] == F(comb(14, 7), 4**7)


def test_series_order_cost_guard_refuses_before_any_coefficient(monkeypatch):
    """An order past MAX_TABLE_INDEX is refused before any power sum."""

    def costly(*args):
        raise AssertionError("coefficient computed")

    monkeypatch.setattr(genfunc, "scaled_power_sums", costly)
    order = MAX_TABLE_INDEX + 1
    for build in (
        lambda: g1_coefficients(3, order),
        lambda: h1_coefficients(3, 2, order),
        lambda: resolvent_coefficients("cos", 3, order),
        lambda: resolvent_coefficients("sin", 3, order),
    ):
        with pytest.raises(CostGuardError, match="cost guard"):
            build()


def test_resolvent_kind_validation():
    with pytest.raises(ParameterError):
        resolvent_coefficients("tan", 3, 5)


def test_series_container_validates_length():
    with pytest.raises(ValueError):
        SeriesCoefficients(coeffs=(F(1),), order=3)


def test_g1_truncation_matches_direct_numeric_sum():
    """Numeric sanity: the truncated series at z = 1/2, K = 30 matches a
    direct high-precision evaluation of sum_k exp(cos(k*pi/n)/2) within the
    conservative remainder bound n*(e*|z|)^{K+1}/(K+1)!."""
    import mpmath

    z = F(1, 2)
    K = 30
    with mpmath.workdps(60):
        for n in (1, 2, 3, 5, 8):
            series = g1_coefficients(n, K)
            truncated = sum(
                series[j] * z**j for j in range(K + 1)
            )
            direct = mpmath.fsum(
                mpmath.exp(mpmath.cos(k * mpmath.pi / n) / 2) for k in range(n)
            )
            bound = n * (mpmath.e * 0.5) ** (K + 1) / mpmath.factorial(K + 1)
            diff = abs(direct - mpmath.mpf(truncated.numerator) / truncated.denominator)
            assert diff <= bound
