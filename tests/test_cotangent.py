"""Cotangent power sums: the truncated-series evaluation against the
enumerated Bernoulli-composition expansion and the oracle, the polynomials
in k, boundary validation, the half-angle (Byrne-Smith style) sum, and both
documented misprints."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from cot_reference import SLOTS, composition_sum, composition_tuples
from trigsum import cotangent
from trigsum.cotangent import (
    MAX_N,
    ByrneSmithParams,
    CotPolynomial,
    CotSumParams,
    byrne_smith_coefficients,
    byrne_smith_coefficients_uncorrected,
    byrne_smith_sum,
    byrne_smith_sum_uncorrected,
    cot_power_sum,
    cot_power_sum_all_positive,
    cot_sum_polynomial,
)
from trigsum.errors import CostGuardError, ParameterError
from trigsum.oracle import evaluate_exact

F = Fraction


# Published factored forms for the first three even powers.
def _quartic(k):
    return F((k - 1) * (k - 2) * (k**2 + 3 * k - 13), 45)


def _sextic(k):
    return F((k - 1) * (k - 2) * (2 * k**4 + 6 * k**3 - 28 * k**2 - 96 * k + 251), 945)


def _octic(k):
    return F(
        (k - 1)
        * (k - 2)
        * (
            3 * k**6
            + 9 * k**5
            - 59 * k**4
            - 195 * k**3
            + 457 * k**2
            + 1761 * k
            - 3551
        ),
        14175,
    )


def test_cot_sum_matches_published_factored_forms():
    for k in range(2, 41):
        assert cot_power_sum(2, k) == _quartic(k)
        assert cot_power_sum(3, k) == _sextic(k)
        assert cot_power_sum(4, k) == _octic(k)


def test_cot_sum_small_frozen_values():
    # T(n, 3) = 2 * cot^{2n}(pi/3) = 2/3^n
    for n in range(1, 6):
        assert cot_power_sum(n, 3) == F(2, 3**n)
    # T(1, k) = (k-1)(k-2)/3 (classical)
    for k in range(2, 20):
        assert cot_power_sum(1, k) == F((k - 1) * (k - 2), 3)
    assert cot_power_sum(3, 4) == 2  # two terms cot^6(pi/4) + cot^6(3pi/4)


def test_cot_sum_validation():
    with pytest.raises(ParameterError):
        cot_power_sum(1, 1)
    with pytest.raises(ParameterError):
        cot_power_sum(0, 5)
    with pytest.raises(ParameterError):
        cot_sum_polynomial(0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: cot_power_sum(2, 3.0),
        lambda: cot_power_sum(2.0, 3),
        lambda: cot_power_sum(True, 3),
        lambda: cot_power_sum(2, True),
        lambda: cot_sum_polynomial(True),
        lambda: cot_sum_polynomial(2.0),
        lambda: byrne_smith_sum(2, 3.0),
        lambda: byrne_smith_sum(True, 3),
        lambda: evaluate_exact(CotSumParams(2, 3.0)),
        lambda: evaluate_exact(ByrneSmithParams(True, 2)),
    ],
)
def test_non_int_parameters_rejected(call):
    """bool and float parameters are caller bugs, not values: they raise
    ParameterError (also after the int case is cached, which a float key
    equal to the int would otherwise hit)."""
    assert cot_power_sum(2, 3) == F(2, 9)
    assert cot_power_sum(1, 3) == F(2, 3)
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda b: b.coefficient(2, 1.0),
        lambda b: b.coefficient(True, 1),
        lambda b: b.row_sum(2.0),
        lambda b: b.row_sum(7),
        lambda b: b.row_sum(0),
        lambda b: b.row_sum(-1),
    ],
    ids=["float-j", "bool-n", "float-n", "past-n-max", "zero", "negative"],
)
def test_coefficient_table_bad_arguments_rejected(call):
    """The triangle's accessors refuse a non-int index and a row outside
    1..n_max instead of raising TypeError or IndexError or reading a row
    from the end."""
    table = byrne_smith_coefficients(3)
    assert table.coefficient(2, 1) == F(-8, 3) and table.row_sum(3) == 2
    with pytest.raises(ParameterError):
        call(table)


def test_cost_guard_on_n():
    """n beyond MAX_N is refused up front instead of running unbounded."""
    assert cot_sum_polynomial(MAX_N).degree == 2 * MAX_N
    for call in (
        lambda: cot_power_sum(MAX_N + 1, 4),
        lambda: cot_sum_polynomial(MAX_N + 1),
        lambda: byrne_smith_sum(MAX_N + 1, 2),
        lambda: CotSumParams(MAX_N + 1, 4).validate(),
        lambda: ByrneSmithParams(MAX_N + 1, 4).validate(),
    ):
        with pytest.raises(ParameterError):
            call()


@pytest.mark.parametrize("n", [1, MAX_N])
def test_cost_guard_on_k_bits(n):
    """k is refused once 2n * bit_length(4k) passes MAX_POWER_BITS: at the
    bound both request types validate, and one past it they, both sums and
    the oracle raise CostGuardError before any value is computed."""
    bound = cotangent.MAX_POWER_BITS
    bits = bound // (2 * n)  # the largest bit_length(4k) allowed
    at, past = (1 << (bits - 2)) - 1, 1 << (bits - 2)
    assert 2 * n * (4 * at).bit_length() == bound < 2 * n * (4 * past).bit_length()
    for params in (CotSumParams, ByrneSmithParams):
        params(n, at).validate()
    if n == 1:
        assert cot_power_sum(1, at) == F((at - 1) * (at - 2), 3)
    for call in (
        lambda: CotSumParams(n, past).validate(),
        lambda: ByrneSmithParams(n, past).validate(),
        lambda: cot_power_sum(n, past),
        lambda: byrne_smith_sum(n, past),
        lambda: evaluate_exact(CotSumParams(n, past)),
    ):
        with pytest.raises(CostGuardError, match="cost guard"):
            call()


def test_coefficient_triangle_cost_guard_refuses_before_building(monkeypatch):
    """n_max beyond MAX_N is refused before any row is built:
    byrne_smith_coefficients(150) took 9.9 s."""

    def costly(*args):
        raise AssertionError("triangle row built")

    monkeypatch.setattr(cotangent, "binom", costly)
    for fn in (byrne_smith_coefficients, byrne_smith_coefficients_uncorrected):
        with pytest.raises(CostGuardError, match="cost guard"):
            fn(MAX_N + 1)


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=2, max_value=12),
)
@settings(max_examples=60, deadline=None)
def test_distinguished_index_symmetry(n, k):
    """Property: the enumerated expansion with the k-power on the first
    free index, the last free index, or the dependent remainder slot gives
    the same value, and the truncated series equals all three."""
    series = cot_power_sum(n, k)
    for slot in SLOTS:
        assert composition_sum(n, k, slot) == series, slot


@pytest.mark.parametrize("n", range(7, 13))
def test_series_matches_oracle_beyond_enumeration(n):
    """For n = 7..12, where the composition enumeration is out of reach,
    the series values equal the oracle's certified reconstruction."""
    for k in (3, 5, 8, 13):
        assert cot_power_sum(n, k) == evaluate_exact(CotSumParams(n, k)), k


def test_polynomial_elementary_anchors():
    """cot(r*pi/k) is 0, 1/sqrt3, 1, sqrt3 at pi/2, pi/3, pi/4, pi/6."""
    for n in (1, 2, 7, 29, 60):
        poly = cot_sum_polynomial(n)
        assert poly(2) == 0
        assert poly(3) == F(2, 3**n)
        assert poly(4) == 2
        assert poly(6) == 2 * 3**n + F(2, 3**n)


def test_polynomial_anchor_check_catches_a_wrong_series(monkeypatch):
    """A corrupted series coefficient must not yield a polynomial."""
    import trigsum.cotangent as ct

    real = ct._series_power

    def corrupted(n):
        power = real(n)
        power[-1] += F(1, 10**6)
        return power

    monkeypatch.setattr(ct, "_series_power", corrupted)
    ct.cot_sum_polynomial.cache_clear()
    try:
        with pytest.raises(ArithmeticError):
            cot_sum_polynomial(3)
    finally:
        ct.cot_sum_polynomial.cache_clear()


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=2, max_value=20),
)
@settings(max_examples=80, deadline=None)
def test_cot_sum_positivity(n, k):
    """Property: the sum is non-negative, zero exactly at k = 2."""
    value = cot_power_sum(n, k)
    assert value >= 0
    assert (value == 0) == (k == 2)


def test_polynomial_agreement_across_range():
    for n in range(1, 5):
        poly = cot_sum_polynomial(n)
        assert poly.degree == 2 * n
        for k in range(2, 41):
            assert poly(k) == cot_power_sum(n, k)


def test_polynomial_frozen_coefficients():
    assert cot_sum_polynomial(2).coefficients == (
        F(-26, 45),
        F(1),
        F(-4, 9),
        F(0),
        F(1, 45),
    )
    assert cot_sum_polynomial(2).denominator_lcm == 45
    assert cot_sum_polynomial(3).denominator_lcm == 945
    assert cot_sum_polynomial(4).denominator_lcm == 14175


def test_polynomial_object_behavior():
    poly = CotPolynomial(n=1, coefficients=(F(2, 3), F(-1), F(1, 3)))
    assert poly(5) == F(2, 3) - 5 + F(25, 3)
    assert poly.degree == 2
    assert cot_sum_polynomial(1)(7) == cot_power_sum(1, 7)


def test_all_positive_index_reading_is_wrong():
    """Restricting the composition indices to be strictly positive leaves
    an empty index set: the expression collapses to (-1)^n * k, which is
    wrong for every k >= 2 (it is negative for odd n)."""
    for n in range(1, 5):
        for k in range(2, 10):
            literal = cot_power_sum_all_positive(n, k)
            assert literal == (-1) ** n * k
            assert literal != cot_power_sum(n, k)


# --- half-angle sum ----------------------------------------------------------

def test_byrne_smith_frozen_values():
    # n = 1: U(1,k) = -k + 2k^2
    assert byrne_smith_sum(1, 1) == 1
    assert byrne_smith_sum(1, 2) == 6
    assert byrne_smith_sum(1, 3) == 15
    # row sums
    assert byrne_smith_coefficients(1).coefficient(1, 1) == 2


def test_byrne_smith_coefficient_table():
    table = byrne_smith_coefficients(3)
    assert table.coefficient(1, 1) == 2
    assert table.coefficient(2, 1) == F(-8, 3)
    assert table.coefficient(2, 2) == F(8, 3)
    assert table.coefficient(3, 1) == F(46, 15)
    assert table.coefficient(3, 2) == F(-16, 3)
    assert table.coefficient(3, 3) == F(64, 15)


@given(st.integers(min_value=1, max_value=8))
@settings(max_examples=8, deadline=None)
def test_byrne_smith_row_sum_constraint(n):
    """Property: sum_j b_{n,j} = 1 + (-1)^{n-1} (the k = 1 evaluation)."""
    table = byrne_smith_coefficients(n)
    assert table.row_sum(n) == 1 + (-1) ** (n - 1)


def test_half_shift_sum_is_read_off_the_t_polynomial():
    """U(n, k) = (T(n, 4k) - T(n, 2k))/2, the route byrne_smith_sum takes,
    equals the corrected closed form (-1)^n * k + sum_j b[n][j] * k^{2j}
    built from the recursion triangle, for n <= 12 and k <= 40."""
    rows = byrne_smith_coefficients(12).rows
    for n in range(1, 13):
        for k in range(1, 41):
            triangle = (-1) ** n * k + sum(
                b * F(k) ** (2 * j) for j, b in enumerate(rows[n - 1], start=1)
            )
            assert byrne_smith_sum(n, k) == triangle, (n, k)


def test_triangle_rows_are_scaled_t_coefficients():
    """Coefficient by coefficient: b[n][j] = 2^{2j-1} * (4^j - 1) *
    [k^{2j}] T(n, k), since (4k)^{2j} - (2k)^{2j} = 4^j (4^j - 1) k^{2j};
    the linear terms give (-1)^n * k and the constants cancel. Every row
    n <= 40."""
    rows = byrne_smith_coefficients(40).rows
    for n in range(1, 41):
        coefficients = cot_sum_polynomial(n).coefficients
        scaled = tuple(2 ** (2 * j - 1) * (4**j - 1) * coefficients[2 * j] for j in range(1, n + 1))
        assert rows[n - 1] == scaled, n


def test_byrne_smith_values_are_integers():
    for n in range(1, 5):
        for k in range(1, 13):
            value = byrne_smith_sum(n, k)
            assert value.denominator == 1
            assert value >= 0


def test_byrne_smith_printed_form_fails():
    """The published variant ((-1)^k linear term, 2^{2(n-j)-1} recursion
    denominator) gives 10 at (n=1, k=2); the true value is 6."""
    assert byrne_smith_sum_uncorrected(1, 2) == 10
    assert byrne_smith_sum(1, 2) == 6
    assert byrne_smith_sum_uncorrected(1, 2) != byrne_smith_sum(1, 2)
    # and its coefficient table differs from the corrected one at n = 2
    wrong = byrne_smith_coefficients_uncorrected(2)
    right = byrne_smith_coefficients(2)
    assert wrong.coefficient(2, 1) != right.coefficient(2, 1)


def test_byrne_smith_polynomial_structure_from_oracle_fit():
    """Fit an interpolating polynomial through exact oracle values of
    U(n, k) at k = 1..2n+2 and read the coefficients: even powers match the
    recursion table, odd powers vanish except the linear term (-1)^n."""

    def lagrange(points):
        # exact Lagrange interpolation; returns monomial coefficients
        size = len(points)
        coeffs = [F(0)] * size
        for i, (xi, yi) in enumerate(points):
            basis = [F(1)]
            denom = F(1)
            for j, (xj, _) in enumerate(points):
                if j == i:
                    continue
                # basis *= (x - xj)
                shifted = [F(0)] + basis
                basis = [shifted[d] - xj * basis[d] if d < len(basis) else shifted[d]
                         for d in range(len(shifted))]
                denom *= xi - xj
            w = yi / denom
            for d, c in enumerate(basis):
                coeffs[d] += w * c
        return coeffs

    for n in range(1, 4):
        points = [
            (k, Fraction(evaluate_exact(ByrneSmithParams(n, k))))
            for k in range(1, 2 * n + 3)
        ]
        coeffs = lagrange(points)
        table = byrne_smith_coefficients(n)
        assert coeffs[0] == 0
        assert coeffs[1] == (-1) ** n
        for j in range(1, n + 1):
            assert coeffs[2 * j] == table.coefficient(n, j)
        for odd in range(3, 2 * n + 1, 2):
            assert coeffs[odd] == 0


def test_param_validation():
    with pytest.raises(ParameterError):
        CotSumParams(2, 1).validate()
    with pytest.raises(ParameterError):
        ByrneSmithParams(0, 3).validate()
    with pytest.raises(ParameterError):
        ByrneSmithParams(2, 0).validate()
    with pytest.raises(ParameterError):
        CotSumParams(2, 3.0).validate()
    with pytest.raises(ParameterError):
        ByrneSmithParams(True, 3).validate()
    CotSumParams(2, 2).validate()
    ByrneSmithParams(1, 1).validate()


# --- the reference enumeration ----------------------------------------------

def test_composition_frozen_order():
    """Colexicographic order is a fixture the reference sums rely on."""
    assert list(composition_tuples(2, 3)) == [
        (2, 0, 0),
        (1, 1, 0),
        (0, 2, 0),
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 2),
    ]
    assert list(composition_tuples(3, 1)) == [(3,)]


def test_composition_validation():
    with pytest.raises(ValueError):
        list(composition_tuples(-1, 2))
    with pytest.raises(ValueError):
        list(composition_tuples(2, 0))


@given(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=1, max_value=10),
)
@settings(max_examples=80)
def test_composition_enumeration_count(total, parts):
    """Property: enumerated count equals the stars-and-bars binomial."""
    seen = list(composition_tuples(total, parts))
    assert len(seen) == comb(total + parts - 1, parts - 1)
    assert len(set(seen)) == len(seen)
    for c in seen:
        assert len(c) == parts
        assert sum(c) == total
        assert min(c) >= 0
