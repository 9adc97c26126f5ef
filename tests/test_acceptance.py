"""Acceptance gate: nine release criteria, one test per criterion.

Every comparison is exact rational equality; there are no tolerances
anywhere. Each test prints one visible PASS line once its assertions have
all succeeded, so a clean run shows exactly nine lines. Criterion 9 is the
only timed one; it uses min-over-repeats wall clock with caches cleared on
both sides and allows a single remeasure before failing.
"""

import json
from fractions import Fraction
from math import factorial, gcd

from cot_reference import SLOTS, composition_sum
from trigsum import (
    ByrneSmithParams,
    CotSumParams,
    Family,
    GraphKind,
    GraphSpec,
    OddCosPowerParams,
    SumSpec,
    binom,
    byrne_smith_coefficients,
    byrne_smith_sum,
    cot_power_sum,
    cycle_closed_walks,
    evaluate,
    evaluate_exact,
    g1_coefficients,
    h1_coefficients,
    path_closed_walks,
    resolvent_coefficients,
    sigma,
    sigma_minus,
    trace_oracle,
)
from trigsum.closed_forms import (
    alternating_middle_erratum,
    barbero_R,
    barbero_R_naive,
    cos_power_sum,
    sin_power_sum,
)
from trigsum.cli import main, run_bench
from trigsum.cotangent import byrne_smith_sum_uncorrected
from trigsum.genfunc import bessel_i0_coefficient

F = Fraction


def _announce(capsys, line):
    with capsys.disabled():
        print(line)


def test_criterion_1_power_sum_oracle_campaign(capsys):
    """C(m, n) and S(m, n) equal the oracle's reconstructed rational on the
    full grid m in [0, 40], n in [1, 24]."""
    cases = 0
    for family in (Family.COS_POWER, Family.SIN_POWER):
        for m in range(0, 41):
            for n in range(1, 25):
                spec = SumSpec(family, m, n)
                assert evaluate(spec) == evaluate_exact(spec), (family, m, n)
                cases += 1
    # 41 * 24 per family; the stated grid, counted explicitly
    assert cases == 2 * 984
    _announce(capsys, f"ACCEPTANCE 1: PASS (C/S vs oracle, {cases} cases, exact)")


def test_criterion_2_coprime_invariance_and_gcd_reduction(capsys):
    """The q-scaled angle lattice collapses as claimed: for gcd(q, n) = 1
    the sum is independent of q; for general q it reduces by r = gcd(n, q)
    to r times the sum at denominator n/r. The closed forms encode the
    reduction, the oracle sums the q-multiplied angles directly, so
    equality here is a two-route check of the invariance itself."""
    coprime_cases = 0
    for m in range(0, 21):
        for n in range(1, 17):
            base = {"cos": cos_power_sum(m, n), "sin": sin_power_sum(m, n)}
            for q in range(1, 2 * n + 2):
                if gcd(q, n) != 1:
                    continue
                for kind in ("cos", "sin"):
                    spec = SumSpec(Family.COPRIME, m, n, q, kind)
                    value = evaluate(spec)
                    assert value == base[kind], (m, n, q, kind)
                    assert value == evaluate_exact(spec), (m, n, q, kind)
                    coprime_cases += 1
    assert coprime_cases == 7392

    reduction_cases = 0
    for m in range(0, 21):
        for n in range(1, 17):
            for q in range(1, 2 * n + 2):
                r = gcd(n, q)
                base = {
                    "cos": r * cos_power_sum(m, n // r),
                    "sin": r * sin_power_sum(m, n // r),
                }
                for kind in ("cos", "sin"):
                    spec = SumSpec(Family.GCD_REDUCED, m, n, q, kind)
                    value = evaluate(spec)
                    assert value == base[kind], (m, n, q, kind)
                    assert value == evaluate_exact(spec), (m, n, q, kind)
                    reduction_cases += 1
    assert reduction_cases == 12096
    _announce(
        capsys,
        "ACCEPTANCE 2: PASS (coprime invariance "
        f"{coprime_cases} cases, gcd reduction {reduction_cases} cases)",
    )


def test_criterion_3_barbero_regression(capsys):
    """The two-branch value at (12, 3), the single-branch value, and their
    difference are pinned; the errata runner reproduces all three."""
    assert barbero_R(12, 3) == 3798310
    assert barbero_R_naive(12, 3) == 3780094
    assert barbero_R(12, 3) - barbero_R_naive(12, 3) == 18216
    assert evaluate_exact(SumSpec(Family.BARBERO_R, 12, 3)) == 3798310

    code = main(
        ["verify", "--family", "barbero-naive", "--expect-known-errata", "--json"]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    case = report["cases"][0]
    assert case["closed_form"] == "3780094"
    assert case["oracle"] == "3798310"
    assert case["match"] is False
    _announce(capsys, "ACCEPTANCE 3: PASS (3798310 / 3780094 / 18216 reproduced)")


def test_criterion_4_composite_families_vs_oracle(capsys):
    """Every composite family matches the oracle exactly for m in [0, 24]
    and admissible n in [1, 12]; the circulated middle-range expressions
    for the alternating sums differ from the oracle by exactly the factor
    n (the sine one also by sign) whenever n > 1."""
    even_only = {Family.ALTERNATING, Family.WEIGHT_PI3, Family.ELL5_ALT_PRODUCT}
    families = [
        Family.ALTERNATING,
        Family.SHIFTED_COS,
        Family.SHIFTED_SIN,
        Family.WEIGHT3_COS,
        Family.WEIGHT3_SIN,
        Family.WEIGHT_HALF_PI,
        Family.WEIGHT_PI3,
        Family.ELL5_PRODUCT,
        Family.ELL5_ALT_PRODUCT,
        Family.ELL5_COS2,
        Family.ELL5_COS4,
    ]
    cases = 0
    for family in families:
        kinds = ("cos", "sin") if family is Family.ALTERNATING else ("cos",)
        for m in range(0, 25):
            for n in range(1, 13):
                if family in even_only and n % 2:
                    continue
                for kind in kinds:
                    spec = SumSpec(family, m, n, kind=kind)
                    assert evaluate(spec) == evaluate_exact(spec), (family, m, n, kind)
                    cases += 1
    assert cases == 3000

    erratum_cases = 0
    for n in range(1, 9):
        for m in range(n, 2 * n):
            printed = alternating_middle_erratum(m, n)
            truth = evaluate_exact(SumSpec(Family.ALTERNATING, m, 2 * n, kind="cos"))
            assert truth == n * printed, (m, n)
            if n > 1:
                assert truth != printed, (m, n)
            truth = evaluate_exact(SumSpec(Family.ALTERNATING, m, 2 * n, kind="sin"))
            assert truth == (-1) ** n * n * printed, (m, n)
            assert truth != printed, (m, n)  # the sign alone breaks n = 1
            erratum_cases += 1
    _announce(
        capsys,
        f"ACCEPTANCE 4: PASS (composites {cases} cases vs oracle, "
        f"middle-range factor-n erratum at {erratum_cases} points)",
    )


def test_criterion_5_cotangent_sums(capsys):
    """T(n, k) equals the published closed polynomials for n = 2, 3, 4 at
    all k in [2, 40], equals the oracle for n <= 5, k <= 20, and equals
    the enumerated composition expansion whichever slot is distinguished."""
    polys = {
        2: lambda k: F((k - 1) * (k - 2) * (k * k + 3 * k - 13), 45),
        3: lambda k: F(
            (k - 1) * (k - 2) * (2 * k**4 + 6 * k**3 - 28 * k * k - 96 * k + 251),
            945,
        ),
        4: lambda k: F(
            (k - 1)
            * (k - 2)
            * (
                3 * k**6
                + 9 * k**5
                - 59 * k**4
                - 195 * k**3
                + 457 * k * k
                + 1761 * k
                - 3551
            ),
            14175,
        ),
    }
    for n, poly in polys.items():
        for k in range(2, 41):
            assert cot_power_sum(n, k) == poly(k), (n, k)

    for n in range(1, 6):
        for k in range(2, 21):
            assert cot_power_sum(n, k) == evaluate_exact(CotSumParams(n, k)), (n, k)

    for n in range(1, 6):
        for k in range(2, 13):
            for slot in SLOTS:
                assert composition_sum(n, k, slot) == cot_power_sum(n, k), (n, k, slot)
    _announce(
        capsys,
        "ACCEPTANCE 5: PASS (cotangent sums: polynomials k<=40, "
        "oracle n<=5 k<=20, slot symmetry)",
    )


def test_criterion_6_half_shift_cotangent_sums(capsys):
    """The corrected half-shift closed form matches the oracle for n <= 4,
    k <= 12; its coefficient rows sum to 1 + (-1)^(n-1) for n <= 8; the
    widely printed variant fails at (n, k) = (1, 2) where the true value
    is 6."""
    for n in range(1, 5):
        for k in range(1, 13):
            assert byrne_smith_sum(n, k) == evaluate_exact(ByrneSmithParams(n, k)), (
                n,
                k,
            )

    table = byrne_smith_coefficients(8)
    for n in range(1, 9):
        assert table.row_sum(n) == 1 + (-1) ** (n - 1), n

    true_value = byrne_smith_sum(1, 2)
    printed_value = byrne_smith_sum_uncorrected(1, 2)
    assert true_value == 6
    assert true_value == evaluate_exact(ByrneSmithParams(1, 2))
    assert printed_value == 10
    assert printed_value != true_value
    _announce(
        capsys,
        "ACCEPTANCE 6: PASS (half-shift sums vs oracle, row-sum "
        "constraint n<=8, printed variant fails at (1,2))",
    )


def test_criterion_7_generating_function_coefficients(capsys):
    """Series coefficients match the power sums they generate, termwise and
    by the independent tail-sum route, for n <= 10 through order 40; the
    odd cosine power sums are 1 by the oracle; the sine-series odd
    coefficients vanish."""
    order = 40
    for n in range(1, 11):
        g1 = g1_coefficients(n, order)
        for idx in range(order + 1):
            if idx % 2:
                assert g1[idx] == F(1, factorial(idx)), (n, idx)
            else:
                j = idx // 2
                assert g1[idx] == cos_power_sum(j, n) / factorial(2 * j), (n, idx)
                assert g1[idx] == n * bessel_i0_coefficient(j) + F(2 * n, 4**j) * sigma(
                    j, n
                ), (n, idx)

        for kind, base, tail in (
            ("cos", cos_power_sum, sigma),
            ("sin", sin_power_sum, sigma_minus),
        ):
            series = resolvent_coefficients(kind, n, order)
            for j in range(order + 1):
                assert series[j] == base(j, n) / n, (kind, n, j)
                assert series[j] == F(binom(2 * j, j), 4**j) + F(
                    2 * factorial(2 * j), 4**j
                ) * tail(j, n), (kind, n, j)

    for n in range(1, 11, 2):
        h1 = h1_coefficients(n, 2, order)
        for idx in range(order + 1):
            if idx % 2:
                assert h1[idx] == 0, (n, idx)
            else:
                j = idx // 2
                assert h1[idx] == sin_power_sum(j, n) / factorial(2 * j), (n, idx)

    for j in range(16):
        for n in range(1, 13):
            assert evaluate_exact(OddCosPowerParams(j, n)) == 1, (j, n)
    _announce(
        capsys,
        "ACCEPTANCE 7: PASS (series coefficients n<=10 order 40, "
        "odd powers equal 1 by oracle, odd sine slots vanish)",
    )


def test_criterion_8_closed_walks(capsys):
    """Walk-count formulas equal the adjacency-trace oracle for paths
    (2 <= n <= 25) and odd cycles (3 <= n <= 25) at all m <= 12, and the
    spectral identities tie the counts back to the power sums."""
    for n in range(2, 26):
        graph = GraphSpec(GraphKind.PATH, n)
        for m in range(13):
            walks = path_closed_walks(n, m)
            assert walks == trace_oracle(graph, 2 * m), (n, m)
            assert walks == 2 ** (2 * m) * (cos_power_sum(m, n) - 1), (n, m)

    for n in range(3, 26, 2):
        graph = GraphSpec(GraphKind.CYCLE, n)
        for m in range(13):
            walks = cycle_closed_walks(n, m)
            assert walks == trace_oracle(graph, 2 * m), (n, m)
            assert walks == 2 ** (2 * m) * cos_power_sum(m, n), (n, m)
    _announce(
        capsys,
        "ACCEPTANCE 8: PASS (paths n<=25 and odd cycles n<=25, m<=12, "
        "trace oracle and spectral identities)",
    )


def test_criterion_9_closed_form_speed(capsys):
    """The closed form stays fast where the oracle gets slow: C(2000, 7)
    in well under a second, and at m = 200 the oracle is at least 10x
    slower, with the values equal. One remeasure is allowed; both runs are
    min-over-repeats with caches cleared between repeats."""
    big = run_bench("C", 2000, 7, None, with_oracle=False, repeat=3)
    assert big["micros_closed"] < 1_000_000

    check = run_bench("C", 200, 7, None, with_oracle=True, repeat=9)
    assert check["equal"] is True
    if check["micros_oracle"] < 10 * check["micros_closed"]:
        check = run_bench("C", 200, 7, None, with_oracle=True, repeat=9)
    assert check["equal"] is True
    assert check["micros_oracle"] >= 10 * check["micros_closed"], check
    _announce(
        capsys,
        "ACCEPTANCE 9: PASS (C(2000,7) closed form in "
        f"{big['micros_closed']}us; oracle/closed ratio at m=200: "
        f"{check['micros_oracle'] / check['micros_closed']:.1f}x)",
    )
