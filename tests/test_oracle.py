"""The interval-arithmetic oracle: certified enclosures, rational
reconstruction, failure taxonomy, and independence checks against the
closed forms."""

import ast
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from trigsum import oracle
from trigsum.closed_forms import MAX_M, Family, SumSpec, barbero_R_naive, evaluate
from trigsum.cotangent import ByrneSmithParams, CotSumParams, byrne_smith_sum, cot_power_sum
from trigsum.errors import CostGuardError, ParameterError
from trigsum.oracle import (
    MAX_PRECISION_BITS,
    MAX_TERMS,
    AmbiguousReconstruction,
    IntervalValue,
    NoIntegerNearby,
    OddCosPowerParams,
    ReconstructionPolicy,
    clear_caches,
    default_precision,
    denominator_bound_for,
    direct_sum,
    evaluate_exact,
    reconstruct,
)

F = Fraction


def test_interval_encloses_true_value():
    spec = SumSpec(Family.COS_POWER, 2, 3)
    interval = direct_sum(spec, 128)
    assert F(9, 8) in interval
    assert interval.width > 0
    assert interval.width < F(1, 2**100)
    assert interval.precision_bits == 128


def test_interval_width_shrinks_with_precision():
    spec = SumSpec(Family.SIN_POWER, 5, 7)
    wide = direct_sum(spec, 80)
    narrow = direct_sum(spec, 160)
    assert narrow.width < wide.width
    assert evaluate(spec) in wide
    assert evaluate(spec) in narrow


def test_reconstruct_example_two_ninths():
    """The grid cell around 0.2222... at 80 bits, with denominator bound
    9*2^6, recovers exactly 2/9."""
    lo = (2 << 80) // 9  # floor(2/9 * 2^80)
    interval = IntervalValue(lo=lo, hi=lo + 1, precision_bits=80)
    policy = ReconstructionPolicy(denominator_bound=9 * 2**6)
    assert reconstruct(interval, policy) == F(2, 9)


def test_reconstruct_integer_bound():
    interval = IntervalValue(lo=(7 << 70) - 1, hi=(7 << 70) + 1, precision_bits=70)
    assert reconstruct(interval, ReconstructionPolicy(denominator_bound=1)) == 7


def test_reconstruct_ambiguous_when_interval_too_wide():
    """A wide interval cannot be certified against a fine lattice."""
    interval = IntervalValue(lo=0, hi=1 << 62, precision_bits=64)  # [0, 1/4]
    with pytest.raises(AmbiguousReconstruction):
        reconstruct(interval, ReconstructionPolicy(denominator_bound=2**40))


def test_reconstruct_no_integer_nearby_signals_formula_bug():
    """A certified-narrow interval around a non-lattice value proves the
    denominator bound wrong: that is a formula bug, not a precision issue."""
    interval = IntervalValue(lo=(9 << 87) - 1, hi=(9 << 87) + 1, precision_bits=90)  # 9/8
    with pytest.raises(NoIntegerNearby):
        reconstruct(interval, ReconstructionPolicy(denominator_bound=1))


def test_no_integer_nearby_names_the_bound_by_bit_length():
    """A bound past Python's default int-to-str limit (4,300 digits) still
    raises NoIntegerNearby, not the ValueError of printing it. The CLI lifts
    that limit process-wide, so the test restores it."""
    lo = (1 << 70000) // 3  # the grid cell around 1/3
    interval = IntervalValue(lo=lo, hi=lo + 1, precision_bits=70000)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(NoIntegerNearby, match="20001-bit bound"):
            reconstruct(interval, ReconstructionPolicy(2**20000))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _outcome(value, policy):
    try:
        return reconstruct(value, policy)
    except (AmbiguousReconstruction, NoIntegerNearby) as error:
        return type(error)


_BOUND = 9 * 2**6
_EPS = F(1, 2**80)  # one grid unit at the 80 bits of the edge cases


def _below(value):
    """The grid point at or just below ``value``."""
    return F(floor(value / _EPS)) * _EPS


def _ambiguous_units(bound, guard_bits):
    """The fewest grid units whose width times bound reaches 2^-guard_bits."""
    return -(-(2**80) // (bound << guard_bits))


@pytest.mark.parametrize(
    "lower, upper, bound, guard_bits, expected",
    [
        # the narrowest grid width whose width * bound reaches 2^-guard_bits,
        # and one unit less (at 576 = 9 * 2^6 no grid width hits it exactly)
        (_below(F(2, 9)), _below(F(2, 9)) + _ambiguous_units(_BOUND, 32) * _EPS,
         _BOUND, 32, AmbiguousReconstruction),
        (_below(F(2, 9)), _below(F(2, 9)) + (_ambiguous_units(_BOUND, 32) - 1) * _EPS,
         _BOUND, 32, F(2, 9)),
        # an endpoint exactly on a multiple of 1/bound
        (F(9, _BOUND), F(9, _BOUND) + _EPS, _BOUND, 32, F(9, _BOUND)),
        (F(9, _BOUND) - _EPS, F(9, _BOUND), _BOUND, 32, F(9, _BOUND)),
        # negative, on and off the lattice, and straddling zero
        (_below(F(-7, 3)), _below(F(-7, 3)) + _EPS, 3, 32, F(-7, 3)),
        (F(-3), F(-3), 3, 32, F(-3)),
        (F(-5, 2) - _EPS, F(-5, 2) + _EPS, 3, 32, NoIntegerNearby),
        (-_EPS, _EPS, 2**10, 32, F(0)),
        (-_EPS, _EPS, 2**60, 32, AmbiguousReconstruction),
        # a non-dyadic value several grid units inside either endpoint
        (_below(F(2, 9)) - 3 * _EPS, _below(F(2, 9)) + 5 * _EPS, _BOUND, 32, F(2, 9)),
        (_below(F(1, 7)) - 3 * _EPS, _below(F(1, 7)) + 5 * _EPS, _BOUND, 32, NoIntegerNearby),
        # the narrowest grid width that reaches 2^-guard_bits at 40 guard bits
        (_below(F(1, 3)), _below(F(1, 3)) + _ambiguous_units(_BOUND, 40) * _EPS,
         _BOUND, 40, AmbiguousReconstruction),
        # an empty interval is refused when built, though 1/3 lies between
        # its ends
        (F(1, 2), F(1, 4), 6, 32, ParameterError),
        # width * bound exactly 2^-guard_bits at a power-of-two bound, and
        # one grid unit less
        (F(3, 2**10), F(3, 2**10) + F(1, 2**42), 2**10, 32, AmbiguousReconstruction),
        (F(3, 2**10), F(3, 2**10) + F(1, 2**42) - _EPS, 2**10, 32, F(3, 2**10)),
    ],
)
def test_reconstruct_edge_cases(lower, upper, bound, guard_bits, expected):
    """Each case's endpoints are grid points at 80 bits, written as
    rationals; the interval holds their integers."""
    lo, hi = lower / _EPS, upper / _EPS
    assert lo.denominator == hi.denominator == 1
    if expected is ParameterError:
        with pytest.raises(ParameterError, match="lo <= hi"):
            IntervalValue(int(lo), int(hi), 80)
        return
    value = IntervalValue(int(lo), int(hi), 80)
    policy = ReconstructionPolicy(bound, guard_bits)
    assert _outcome(value, policy) == expected
    if expected is NoIntegerNearby:
        with pytest.raises(NoIntegerNearby, match=f"\\({bound.bit_length()}-bit bound\\)"):
            reconstruct(value, policy)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-(2**90), 2**90),
    st.one_of(st.integers(-4, 16), st.integers(-4, 2**40)),
    st.integers(64, 90),
    st.integers(1, 2**40),
    st.integers(1, 40),
)
def test_reconstruct_matches_the_rational_definition(lo, units, prec, bound, guard_bits):
    """The integer shifts decide as the rationals do: ambiguous when
    width * bound >= 2^-guard_bits, else ceil(lower * bound) / bound, or
    NoIntegerNearby past floor(upper * bound). An empty interval is refused
    when built."""
    if units < 0:
        with pytest.raises(ParameterError, match="lo <= hi"):
            IntervalValue(lo, lo + units, prec)
        return
    value = IntervalValue(lo, lo + units, prec)
    lower, upper = F(lo, 2**prec), F(lo + units, 2**prec)
    if (upper - lower) * bound >= F(1, 2**guard_bits):
        expected = AmbiguousReconstruction
    elif ceil(lower * bound) > floor(upper * bound):
        expected = NoIntegerNearby
    else:
        expected = F(ceil(lower * bound), bound)
    assert _outcome(value, ReconstructionPolicy(bound, guard_bits)) == expected


@pytest.mark.parametrize(
    "fields",
    [(1.0, 2, 64), (F(1), 2, 64), (1, F(2), 64), (True, 2, 64), (1, 2, 64.0), (1, 2, None)],
)
def test_interval_rejects_non_int_fields(fields):
    """The endpoints are grid integers: a float or Fraction endpoint, or a
    non-int precision, is refused rather than scaled."""
    with pytest.raises(ParameterError, match="must be an int"):
        IntervalValue(*fields)


def test_interval_membership_is_exact():
    """``in`` holds exactly the rationals of [lo, hi] * 2^-prec, both ends
    included: half a grid unit outside either end is out."""
    interval = IntervalValue(-3, 5, 4)
    assert F(-3, 16) in interval and F(5, 16) in interval and 0 in interval
    assert F(-7, 32) not in interval and F(11, 32) not in interval
    assert 1 not in interval and -1 not in interval


def test_interval_rejects_negative_precision():
    with pytest.raises(ParameterError, match="precision_bits"):
        IntervalValue(0, 1, -1)


@pytest.mark.parametrize(
    "value, policy",
    [
        (1, 2),
        ((0, 1, 64), ReconstructionPolicy(1)),
        (IntervalValue(0, 1, 64), 1),
        (IntervalValue(0, 1, 64), None),
        (ReconstructionPolicy(1), IntervalValue(0, 1, 64)),
    ],
    ids=["ints", "tuple-value", "int-policy", "none-policy", "swapped"],
)
def test_reconstruct_refuses_foreign_arguments(value, policy):
    with pytest.raises(ParameterError, match="IntervalValue and a ReconstructionPolicy"):
        reconstruct(value, policy)


def test_default_grid_leaves_guard_bits_of_slack():
    """Every case of the default verify grid resolves at its starting
    precision with guard_bits to spare, (hi - lo) * D << guard_bits < 2^prec
    (slack_bits >= guard_bits), and the integer p = ceil(lo * D * 2^-prec)
    re-derived from the grid endpoints gives evaluate_exact's p / D."""
    from trigsum import cli

    requests = cli._grid_requests(list(cli._REQUEST_FAMILIES), cli._build_parser().parse_args(["verify"]))
    assert len(requests) == 2547
    guard_bits = ReconstructionPolicy(1).guard_bits
    for spec in requests:
        bound = denominator_bound_for(spec)
        interval = direct_sum(spec, max(64, default_precision(spec)))
        lo, hi, prec = interval.lo, interval.hi, interval.precision_bits
        assert (hi - lo) * bound << guard_bits < 1 << prec, spec
        assert F(-(-lo * bound >> prec), bound) == evaluate_exact(spec), spec


def test_policy_validation():
    with pytest.raises(ParameterError):
        ReconstructionPolicy(denominator_bound=0)
    with pytest.raises(ParameterError):
        ReconstructionPolicy(denominator_bound=8, guard_bits=0)


def test_direct_sum_precision_floor():
    with pytest.raises(ParameterError):
        direct_sum(SumSpec(Family.COS_POWER, 2, 3), 32)


def test_denominator_bounds_by_request_type():
    assert denominator_bound_for(SumSpec(Family.COS_POWER, 3, 5)) == 2**8
    assert denominator_bound_for(SumSpec(Family.ELL5_COS2, 3, 2)) == 2**12
    assert denominator_bound_for(SumSpec(Family.QUONIAM, 2, 4)) == 1
    assert denominator_bound_for(SumSpec(Family.BARBERO_R, 12, 3)) == 1
    assert denominator_bound_for(CotSumParams(2, 7)) == 7**4
    assert denominator_bound_for(CotSumParams(3, 5)) == 5**6
    assert denominator_bound_for(ByrneSmithParams(2, 5)) == 1
    assert denominator_bound_for(OddCosPowerParams(3, 5)) == 1


def test_cot_bound_is_k_to_the_2n():
    """The bound comes from the angles alone (k*cot(r*pi/k) are algebraic
    integers), not from the closed form under test. Check that it clears
    every value for n <= 6, k < 40."""
    for n in range(1, 7):
        for k in range(2, 40):
            bound = denominator_bound_for(CotSumParams(n, k))
            assert bound == k ** (2 * n)
            scaled = cot_power_sum(n, k) * bound
            assert scaled.denominator == 1


def _package_imports(module):
    """The trigsum modules named by ``module``'s import statements, at
    module level or inside a function, read off its source."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names if a.name.startswith("trigsum.")}
        elif isinstance(node, ast.ImportFrom) and node.level:
            names |= {node.module.split(".")[0]} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("trigsum"):
            parts = node.module.split(".")
            names |= {parts[1]} if len(parts) > 1 else {a.name for a in node.names}
    return names


def test_oracle_imports_only_errors_and_families():
    """Independence: the oracle imports no package module but errors and
    families, so importing it loads none of the code it checks."""
    assert _package_imports(oracle) == {"errors", "families"}


def test_families_imports_only_errors():
    """The request records import no package module but errors, so the
    oracle reaches no computing module through them."""
    import trigsum.families as families

    assert _package_imports(families) == {"errors"}


_ONE_PER_FAMILY = [
    SumSpec(Family.COS_POWER, 7, 5),
    SumSpec(Family.SIN_POWER, 6, 4),
    SumSpec(Family.SCALED, 3, 4, q=8),
    SumSpec(Family.COPRIME, 4, 9, q=7),
    SumSpec(Family.GCD_REDUCED, 3, 8, q=6, kind="sin"),
    SumSpec(Family.QUONIAM, 3, 5),
    SumSpec(Family.MERCA_HALF, 4, 7),
    SumSpec(Family.MERCA_SHIFTED, 3, 4),
    SumSpec(Family.BARBERO_R, 9, 2),
    SumSpec(Family.ALTERNATING, 5, 6, kind="sin"),
    SumSpec(Family.SHIFTED_COS, 4, 5),
    SumSpec(Family.SHIFTED_SIN, 4, 5),
    SumSpec(Family.WEIGHT3_COS, 3, 4),
    SumSpec(Family.WEIGHT3_SIN, 3, 4),
    SumSpec(Family.WEIGHT_HALF_PI, 5, 3),
    SumSpec(Family.WEIGHT_PI3, 3, 4),
    SumSpec(Family.ELL5_PRODUCT, 3, 3),
    SumSpec(Family.ELL5_ALT_PRODUCT, 3, 4),
    SumSpec(Family.ELL5_COS2, 3, 2),
    SumSpec(Family.ELL5_COS4, 3, 2),
]


def test_evaluate_exact_matches_closed_forms_sampled():
    assert {spec.family for spec in _ONE_PER_FAMILY} == set(Family)
    for spec in _ONE_PER_FAMILY:
        assert evaluate_exact(spec) == evaluate(spec), spec


def test_evaluate_exact_other_request_types():
    assert evaluate_exact(CotSumParams(2, 9)) == cot_power_sum(2, 9)
    assert evaluate_exact(ByrneSmithParams(2, 6)) == byrne_smith_sum(2, 6)
    assert evaluate_exact(OddCosPowerParams(5, 9)) == 1


@given(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=9),
)
@settings(max_examples=40, deadline=None)
def test_oracle_soundness_on_base_family(m, n):
    """Property: reconstruction equals the closed form exactly."""
    spec = SumSpec(Family.COS_POWER, m, n)
    assert evaluate_exact(spec) == evaluate(spec)


@given(
    st.integers(min_value=1, max_value=15),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=30, deadline=None)
def test_monotone_refinement(m, n):
    """Property: doubling precision never changes a successful answer."""
    spec = SumSpec(Family.SIN_POWER, m, n)
    policy = ReconstructionPolicy(denominator_bound=denominator_bound_for(spec))
    prec = max(64, default_precision(spec))
    first = reconstruct(direct_sum(spec, prec), policy)
    second = reconstruct(direct_sum(spec, 2 * prec), policy)
    assert first == second


def test_odd_cos_power_sums_are_one():
    """The k <-> n-k pairing leaves exactly the k=0 term."""
    for j in range(0, 8):
        for n in range(1, 8):
            assert evaluate_exact(OddCosPowerParams(j, n)) == 1


def test_barbero_failure_semantics():
    """Feeding the single-branch value as a claimed closed form at
    (m=12, n=3) is detected with a discrepancy of exactly 18216."""
    spec = SumSpec(Family.BARBERO_R, 12, 3)
    truth = evaluate_exact(spec)
    claimed = barbero_R_naive(12, 3)
    assert truth != claimed
    assert truth - claimed == 18216


def test_default_precision_scales_with_exponent():
    small = default_precision(SumSpec(Family.COS_POWER, 2, 3))
    large = default_precision(SumSpec(Family.COS_POWER, 200, 3))
    assert large > small
    assert small >= 96


def test_defining_sum_cost_guard():
    """A defining sum past MAX_TERMS is refused before any term is summed,
    through every entry point that would sum it."""
    huge = CotSumParams(2, 10**9)
    with pytest.raises(CostGuardError, match="cost guard"):
        evaluate_exact(huge)
    with pytest.raises(CostGuardError):
        direct_sum(huge, 128)
    with pytest.raises(CostGuardError):
        evaluate_exact(ByrneSmithParams(1, MAX_TERMS + 1))
    with pytest.raises(CostGuardError):
        evaluate_exact(SumSpec(Family.COS_POWER, 1, 10**7))
    assert issubclass(CostGuardError, ParameterError)


def test_non_int_requests_rejected():
    """A bool or float parameter is refused when the request is built, so
    no such request reaches the oracle."""
    for build, message in (
        (lambda: SumSpec(Family.COS_POWER, True, 3), "m must be an int, not bool"),
        (lambda: SumSpec(Family.SIN_POWER, 2, 3.0), "n must be an int, not float"),
        (lambda: OddCosPowerParams(True, 3), "j must be an int, not bool"),
        (lambda: OddCosPowerParams(1, 2.5), "n must be an int, not float"),
    ):
        with pytest.raises(ParameterError) as refused:
            build()
        assert str(refused.value) == message


def test_unsupported_request_rejected():
    with pytest.raises(ParameterError):
        denominator_bound_for(object())
    with pytest.raises(ParameterError):
        direct_sum(42, 128)


# --- one build per request ---------------------------------------------------

_REQUESTS = [
    SumSpec(Family.ELL5_PRODUCT, 4, 3),
    CotSumParams(2, 9),
    ByrneSmithParams(2, 6),
    OddCosPowerParams(5, 9),
]


@pytest.mark.parametrize("spec", _REQUESTS, ids=lambda spec: type(spec).__name__)
def test_evaluate_exact_builds_and_validates_once(spec, monkeypatch):
    """One evaluate_exact builds its defining sum once and no request: the
    request checked its arguments when it was built, and the bound, the
    precision and every direct_sum try read the one defining sum."""
    builds, requests = [], []
    build, init = oracle._DEFINING_SUMS[type(spec)], type(spec).__init__
    monkeypatch.setitem(oracle._DEFINING_SUMS, type(spec), lambda s: builds.append(s) or build(s))
    monkeypatch.setattr(type(spec), "__init__", lambda s, *a, **k: requests.append(a) or init(s, *a, **k))
    evaluate_exact(spec)
    assert builds == [spec] and requests == []


@pytest.mark.parametrize("spec", _REQUESTS, ids=lambda spec: type(spec).__name__)
def test_evaluate_exact_calls_its_steps_by_module_name(spec, monkeypatch):
    """evaluate_exact looks up direct_sum, denominator_bound_for and
    reconstruct as module globals, so wrapping them by name sees every call:
    the bound once, and direct_sum (with the precision as its second
    argument) and reconstruct once per try. A forced first miss retries
    once, at doubled precision."""
    calls = Counter()
    precisions = []
    real = {name: getattr(oracle, name) for name in ("direct_sum", "denominator_bound_for", "reconstruct")}

    def counted(name):
        def call(*args):
            calls[name] += 1
            if name == "direct_sum":
                precisions.append(args[1])
            if name == "reconstruct" and calls[name] == 1 and miss_first:
                raise AmbiguousReconstruction("forced")
            return real[name](*args)
        return call

    for name in real:
        monkeypatch.setattr(oracle, name, counted(name))
    for miss_first, tries in ((False, 1), (True, 2)):
        calls.clear()
        precisions.clear()
        evaluate_exact(spec)
        assert calls == {"denominator_bound_for": 1, "direct_sum": tries, "reconstruct": tries}
        assert precisions == [default_precision(spec) << t for t in range(tries)]


# --- the term memo -------------------------------------------------------

_COUNTED = ("mpi_cos_sin", "mpi_cot")


class _CountingLibmp:
    """Stands in for ``oracle.libmp`` and counts its trig calls; the
    counting_libmp fixture also counts the integer power kernel's calls,
    one per term memo miss, as "power"."""

    def __init__(self):
        from mpmath import libmp

        self._real = libmp
        self.calls = Counter()

    def __getattr__(self, name):
        attr = getattr(self._real, name)
        if name not in _COUNTED:
            return attr

        def counted(*args):
            self.calls[name] += 1
            return attr(*args)

        return counted


@pytest.fixture
def counting_libmp(monkeypatch):
    clear_caches()
    counter = _CountingLibmp()
    monkeypatch.setattr(oracle, "libmp", counter)
    power = oracle._grid_power

    def counted_power(*args):
        counter.calls["power"] += 1
        return power(*args)

    monkeypatch.setattr(oracle, "_grid_power", counted_power)
    yield counter
    clear_caches()


def test_campaign_shares_one_enclosure_per_reduced_angle(counting_libmp):
    """The gcd-reduced sums of every q in 1..2n+1 land on the angles
    j*pi/n mod 2*pi, j < 2n, that the scaled sum with q = 2n visits, at the
    same exponent and precision, so after it they make no trig or power
    call: each folds onto an angle of [0, pi/2] the scaled sum enclosed."""
    m, n = 5, 6
    warm = SumSpec(Family.SCALED, m, n, q=2 * n, kind="cos")
    assert evaluate_exact(warm) == evaluate(warm)
    before = sum(counting_libmp.calls.values())
    assert before > 0
    for q in range(1, 2 * n + 2):
        spec = SumSpec(Family.GCD_REDUCED, m, n, q, "cos")
        assert evaluate_exact(spec) == evaluate(spec)
    assert sum(counting_libmp.calls.values()) == before


@pytest.mark.parametrize(
    "spec, campaign",
    [
        (
            SumSpec(Family.GCD_REDUCED, 7, 9, q=12, kind="sin"),
            [SumSpec(Family.SCALED, 7, 9, q=18, kind="sin")],
        ),
        (SumSpec(Family.MERCA_SHIFTED, 4, 5), [SumSpec(Family.COS_POWER, 4, 10)]),
        (SumSpec(Family.SHIFTED_SIN, 5, 4), [SumSpec(Family.SIN_POWER, 5, 8)]),
        (
            SumSpec(Family.ELL5_PRODUCT, 6, 3),
            [SumSpec(Family.ELL5_COS2, 6, 3), SumSpec(Family.ELL5_COS4, 6, 3)],
        ),
    ],
    ids=["gcd", "merca-shifted", "shifted-sin", "ell5-product"],
)
def test_direct_sum_same_interval_cold_and_warm(spec, campaign, counting_libmp):
    """The memo changes no bit: a sum served entirely from enclosures that
    other requests computed, at other indices of the same folded angles,
    has the exact endpoints it has right after clear_caches()."""
    prec = default_precision(spec)
    cold = direct_sum(spec, prec)
    clear_caches()
    for other in campaign:
        direct_sum(other, prec)
    calls = sum(counting_libmp.calls.values())
    warm = direct_sum(spec, prec)
    assert sum(counting_libmp.calls.values()) == calls  # every term was a hit
    assert warm == cold and warm.precision_bits == prec
    assert evaluate(spec) in warm


def test_clear_caches_restores_the_cold_cost(counting_libmp):
    """Timing one evaluation after clear_caches() pays every trig and power
    call again (run_bench and acceptance criterion 9 rely on it)."""
    spec = SumSpec(Family.ELL5_COS2, 9, 4)
    evaluate_exact(spec)
    cold = Counter(counting_libmp.calls)
    assert cold["mpi_cos_sin"] > 0 and cold["power"] > 0
    evaluate_exact(spec)
    assert counting_libmp.calls == cold  # warm: served from the memo
    clear_caches()
    counting_libmp.calls.clear()
    evaluate_exact(spec)
    assert counting_libmp.calls == cold


def test_neighbouring_precisions_share_one_trig_enclosure(counting_libmp):
    """C(200, 7) and C(201, 7) run at 500 and 502 bits, inside the same
    512-bit step: the second reuses every cos enclosure of the first and
    only takes its own powers, one per folded angle (k*pi/7 for k and 7 - k
    fold onto one angle of [0, pi/2], so 4 for 7 indices)."""
    first, second = SumSpec(Family.COS_POWER, 200, 7), SumSpec(Family.COS_POWER, 201, 7)
    assert (default_precision(first), default_precision(second)) == (500, 502)
    assert evaluate_exact(first) == evaluate(first)
    before = Counter(counting_libmp.calls)
    assert before["mpi_cos_sin"] == before["power"] == 4
    assert evaluate_exact(second) == evaluate(second)
    assert counting_libmp.calls - before == Counter(power=4)


def test_trig_enclosures_kept_for_two_steps(counting_libmp):
    """C(m, 7) at m = 100, 200, 300 runs at 300, 500 and 700 bits, three
    64-bit steps: the last two keep their enclosures, the first is dropped,
    so requests spread over many precisions hold at most two steps. Each
    step holds the 4 folded angles of k*pi/7, k < 7."""
    for m in (100, 200, 300):
        evaluate_exact(SumSpec(Family.COS_POWER, m, 7))
    before = counting_libmp.calls["mpi_cos_sin"]
    evaluate_exact(SumSpec(Family.COS_POWER, 301, 7))
    evaluate_exact(SumSpec(Family.COS_POWER, 201, 7))
    assert counting_libmp.calls["mpi_cos_sin"] == before
    evaluate_exact(SumSpec(Family.COS_POWER, 101, 7))
    assert counting_libmp.calls["mpi_cos_sin"] == before + 4


def test_fold_encloses_the_literal_angle(counting_libmp):
    """The fold is exact: for every angle num*pi/den, den <= 24, num in
    [-2*den, 4*den), and exponents 1, 2, 3 and 400, the term of the folded
    angle, signed, contains the exact power of a fresh enclosure of
    fn(num*pi/den) taken at the literal angle at 4p bits (cot skips its
    poles). A multiple of pi folds onto 0, where the term is the exact
    value, +-1 or 0, which is narrower than any fresh enclosure of the
    literal angle. The memo holds the folded angles alone.

    mpi_pow_int's outward rounding at 4p bits contains the exact power, so
    a term that contains it contains the exact power too; only where it
    does not is the exact power (10^5 bits at exponent 400) taken."""
    prec = 64
    libmp = counting_libmp._real
    for fn in ("cos", "sin", "cot"):
        for den in range(1, 25):
            for num in range(-2 * den, 4 * den):
                if fn == "cot" and num % den == 0:
                    continue
                fresh = _fresh_enclosure(fn, num, den, 4 * prec)
                for exponent in (1, 2, 3, 400):
                    lo, hi = oracle._term(fn, num, den, exponent, prec)
                    if fn != "cot" and num % den == 0:
                        exact = (0 if fn == "sin" else 1 - 2 * (num // den % 2)) ** exponent
                        assert (lo, hi) == (exact << prec, exact << prec)
                        continue
                    outer_lo, outer_hi = map(_dyadic, libmp.mpi_pow_int(fresh, exponent, 4 * prec))
                    if lo <= _grid_floor(outer_lo, prec) and _grid_ceil(outer_hi, prec) <= hi:
                        continue
                    fresh_lo, fresh_hi = _exact_power(fresh, exponent)
                    assert lo <= _grid_floor(fresh_lo, prec), (fn, num, den, exponent)
                    assert _grid_ceil(fresh_hi, prec) <= hi, (fn, num, den, exponent)
    # one memo entry per fn, exponent and angle of [0, pi/2] (cot without 0)
    folded = {F(num, den) for den in range(1, 25) for num in range(den // 2 + 1)}
    assert oracle._reduced_term.cache_info().currsize == 4 * (3 * len(folded) - 1)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 12, 24])
def test_power_sum_fills_one_term_per_folded_angle(n):
    """C(m, n) visits k*pi/n, k < n; k and n - k fold onto one angle of
    [0, pi/2], so the term memo holds floor(n/2) + 1 entries."""
    clear_caches()
    spec = SumSpec(Family.COS_POWER, 9, n)
    assert evaluate_exact(spec) == evaluate(spec)
    assert oracle._reduced_term.cache_info().currsize == n // 2 + 1
    clear_caches()


@pytest.mark.parametrize("prec", [512, 513])
@pytest.mark.parametrize(
    "fn, num, den", [("cos", 1, 7), ("cos", 11, 12), ("sin", 5, 12), ("cot", 3, 40), ("cot", 7, 8)]
)
def test_served_trig_enclosure_is_rounded_outward(fn, num, den, prec, counting_libmp):
    """A term at precision p is the step enclosure rounded outward to p
    bits and then onto the grid 2^-p: [lo, hi] * 2^-p contains a fresh
    enclosure at 4p, and stays narrow at p."""
    lo, hi = oracle._term(fn, num, den, 1, prec)
    assert type(lo) is int and type(hi) is int
    fresh_lo, fresh_hi = _fresh_enclosure(fn, num, den, 4 * prec)
    lower, upper = F(lo, 2**prec), F(hi, 2**prec)
    assert lower <= _exact_value(fresh_lo) and _exact_value(fresh_hi) <= upper
    assert upper - lower <= abs(upper) * F(1, 2 ** (prec - 8))


def _fresh_enclosure(fn, num, den, prec):
    """fn(num*pi/den) enclosed by mpmath at the literal angle, no memo."""
    from mpmath import libmp

    pi = (libmp.mpf_pi(prec, "d"), libmp.mpf_pi(prec, "u"))
    scaled = libmp.mpi_mul(pi, (libmp.from_int(num),) * 2, prec)
    angle = libmp.mpi_div(scaled, (libmp.from_int(den),) * 2, prec)
    return getattr(libmp, "mpi_" + fn)(angle, prec)


def _exact_value(raw) -> Fraction:
    """The exact rational of a finite mpf (to_man_exp drops the sign)."""
    from mpmath import libmp

    man, exp = libmp.to_man_exp(raw)
    return (-1) ** raw[0] * man * F(2) ** exp


# Exact dyadic rationals as pairs (n, s), the value n * 2^-s with s >= 0:
# exact powers of mpf endpoints run to 10^5 bits, where Fraction's gcd on
# every operation would dominate the tests that use them.


def _dyadic(raw) -> tuple[int, int]:
    """The exact value of a finite mpf as a dyadic pair."""
    from mpmath import libmp

    man, exp = libmp.to_man_exp(raw)
    man = -man if raw[0] else man
    return (man << exp, 0) if exp >= 0 else (man, -exp)


def _hull(*values: tuple[int, int]) -> tuple[tuple[int, int], tuple[int, int]]:
    """The smallest and the largest of dyadic pairs."""
    s = max(t for _, t in values)
    scaled = [n << (s - t) for n, t in values]
    return (min(scaled), s), (max(scaled), s)


def _grid_floor(value: tuple[int, int], prec: int) -> int:
    """floor(value * 2^prec); against an integer X, X <= v and v < X hold
    exactly when they hold for this floor."""
    n, s = value
    return n << (prec - s) if prec >= s else n >> (s - prec)


def _grid_ceil(value: tuple[int, int], prec: int) -> int:
    """ceil(value * 2^prec); against an integer X, v <= X and X < v hold
    exactly when they hold for this ceiling."""
    return -_grid_floor((-value[0], value[1]), prec)


def _exact_power(enclosure, exponent: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The exact interval power of an mpf enclosure's endpoints, as dyadic
    pairs: as mpi_pow_int takes it but without rounding, so never wider (an
    even power of an enclosure that straddles 0 runs from 0)."""
    (lo, s), (hi, t) = map(_dyadic, enclosure)
    if exponent % 2 or lo >= 0 or exponent == 0:
        return (lo**exponent, s * exponent), (hi**exponent, t * exponent)
    if hi <= 0:
        return (hi**exponent, t * exponent), (lo**exponent, s * exponent)
    return (0, 0), _hull(((-lo) ** exponent, s * exponent), (hi**exponent, t * exponent))[1]


# --- the integer power kernel ------------------------------------------------


def _check_grid_power(enclosure, exponent: int, prec: int) -> tuple[int, int]:
    """The kernel's (lo, hi) on the grid 2^-prec contains the exact power
    of the enclosure's endpoints, and each end lies less than 2 grid units
    outside it (the per-term bound direct_sum documents)."""
    oracle.direct_sum(SumSpec(Family.COS_POWER, 0, 1), 64)  # binds oracle.libmp
    lo, hi = oracle._grid_power(*enclosure, exponent, prec)
    exact_lo, exact_hi = _exact_power(enclosure, exponent)
    assert lo <= _grid_floor(exact_lo, prec) < lo + 2
    assert hi - 2 < _grid_ceil(exact_hi, prec) <= hi
    return lo, hi


def _cot_request_base(data):
    """cot(pi/k), the largest term base of T(n, k), with the exponent 2n,
    for any n, k the cotangent cost guard 2n * bit_length(4k) <= 2 * 10^5
    admits."""
    from trigsum.cotangent import MAX_N, MAX_POWER_BITS

    n = data.draw(st.integers(1, MAX_N), label="n")
    k = data.draw(st.integers(2, 2 ** (MAX_POWER_BITS // (2 * n) - 2) - 1), label="k")
    assert 2 * n * (4 * k).bit_length() <= MAX_POWER_BITS
    prec = data.draw(st.integers(64, 256), label="prec")
    return _fresh_enclosure("cot", 1, k, prec), 2 * n, prec


def _lattice_base(data):
    """fn of a folded lattice angle num*pi/den, num/den in [0, 1/2] (cot
    without 0), at exponents 1..400: the cos(pi/2) and cot(pi/2) enclosures
    straddle 0."""
    fn = data.draw(st.sampled_from(["cos", "sin", "cot"]), label="fn")
    den = data.draw(st.integers(1 + (fn == "cot"), 48), label="den")
    num = data.draw(st.integers(int(fn == "cot"), den // 2), label="num")
    prec = data.draw(st.integers(64, 1024), label="prec")
    exponent = data.draw(st.integers(1, 400), label="exponent")
    return _fresh_enclosure(fn, num, den, prec), exponent, prec


def _dyadic_base(data):
    """Any dyadic interval with hi >= 0, |x| up to 2^40, straddling 0 or
    not, at exponents 1..400."""
    from mpmath import libmp

    exp = data.draw(st.integers(-120, 16), label="exp")
    hi = data.draw(st.integers(0, 2**24), label="hi")
    lo = hi - data.draw(st.integers(0, 2**24), label="width")
    enclosure = (libmp.from_man_exp(lo, exp), libmp.from_man_exp(hi, exp))
    return enclosure, data.draw(st.integers(1, 400), label="exponent"), data.draw(st.integers(64, 256))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_grid_power_contains_the_exact_power_within_two_units(data):
    """Property: for lattice trig enclosures at exponents 1..400, cot bases
    far above 1 up to the cotangent cost guard, and dyadic intervals that
    straddle 0, the integer kernel contains the exact power of the
    enclosure's endpoints with each end less than 2 grid units out."""
    base = data.draw(st.sampled_from([_lattice_base, _cot_request_base, _dyadic_base]), label="kind")
    _check_grid_power(*base(data))


@pytest.mark.parametrize("exponent", [1, 2, 3, 4, 399, 400])
@pytest.mark.parametrize("fn", ["cos", "cot"])
def test_grid_power_of_a_base_straddling_zero(fn, exponent):
    """fn(pi/2) = 0 is enclosed across 0. An odd power keeps both signs
    (the cos(pi/2) weight at exponent 1 has w_lo < 0 < w_hi); an even power
    runs from exactly 0, as mpi_pow_int takes it."""
    enclosure = _fresh_enclosure(fn, 1, 2, 128)
    assert _dyadic(enclosure[0])[0] < 0 < _dyadic(enclosure[1])[0]
    lo, hi = _check_grid_power(enclosure, exponent, 128)
    assert (lo < 0 if exponent % 2 else lo == 0) and hi > 0


# --- lattice rows --------------------------------------------------------------


@pytest.mark.parametrize(
    "spec", [SumSpec(Family.SHIFTED_COS, 9, 7), SumSpec(Family.MERCA_SHIFTED, 9, 7), ByrneSmithParams(3, 7)],
    ids=["shifted-cos", "merca-shifted", "byrne-smith"],
)
def test_shifted_sum_fills_only_its_odd_slots(spec, counting_libmp):
    """A shifted sum reads the odd numerators 2k - 1 or 2k + 1 of its row
    alone: the even slots stay empty, and the sum makes one trig call and
    one power per folded angle of the odd numerators, the calls a loop of
    per-index terms makes."""
    s = oracle._defining_sum(spec)
    prec = s.precision
    interval = direct_sum(s, prec)
    row = oracle._lattice_row(s.fn, s.den, s.exponent, prec)
    odd = {(s.a * k + s.b) % len(row) for k in s.indices}
    assert all(j % 2 for j in odd)
    assert [j for j, term in enumerate(row) if term is not None] == sorted(odd)
    folded = {_folded_angle(s.fn, j, s.den)[:2] for j in odd}
    trig = "mpi_cot" if s.fn == "cot" else "mpi_cos_sin"
    assert counting_libmp.calls == Counter({trig: len(folded), "power": len(folded)})
    per_index = [oracle._term(s.fn, s.a * k + s.b, s.den, s.exponent, prec) for k in s.indices]
    assert (interval.lo, interval.hi) == tuple(sum(ends) * s.scale for ends in zip(*per_index))


def test_clear_caches_empties_the_lattice_rows(counting_libmp):
    """clear_caches() drops every row with the memos, so the next sum pays
    the cold trig and power calls again (run_bench and acceptance criterion
    9 time C(200, 7) so) and fills the same integers."""
    spec = SumSpec(Family.COS_POWER, 200, 7)
    cold = direct_sum(spec, default_precision(spec))
    calls = Counter(counting_libmp.calls)
    assert calls == Counter(mpi_cos_sin=4, power=4)
    assert oracle._kept_row.cache_info().currsize == 1
    assert direct_sum(spec, default_precision(spec)) == cold
    assert counting_libmp.calls == calls  # warm: every slot read from the row
    clear_caches()
    assert oracle._kept_row.cache_info().currsize == 0
    counting_libmp.calls.clear()
    assert direct_sum(spec, default_precision(spec)) == cold
    assert counting_libmp.calls == calls


def test_rows_longer_than_the_kept_length_last_one_sum():
    """A row of more than _ROW_SLOTS slots is built for its sum and not
    kept, so long sums cannot pile up rows; the term memo still serves it."""
    clear_caches()
    spec = SumSpec(Family.COS_POWER, 3, oracle._ROW_SLOTS // 2 + 1)
    assert evaluate_exact(spec) == evaluate(spec)
    assert oracle._kept_row.cache_info().currsize == 0
    clear_caches()


def test_threads_summing_one_spec_agree():
    """Four threads (more than the cores) that sum one spec at once,
    filling the same row and memos from cold with the interpreter switching
    threads every microsecond, each get the interval a single cold sum
    gets: a slot written twice is written with the same integers."""
    import threading

    spec = SumSpec(Family.ELL5_PRODUCT, 40, 24)
    prec = default_precision(spec)
    clear_caches()
    alone = direct_sum(spec, prec)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            clear_caches()
            barrier, results = threading.Barrier(4), []

            def run():
                barrier.wait(timeout=30)
                results.append(direct_sum(spec, prec))

            threads = [threading.Thread(target=run) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert results == [alone] * 4
    finally:
        sys.setswitchinterval(interval)
        clear_caches()


# --- integer accumulation on the 2^-prec grid --------------------------------


@pytest.mark.parametrize(
    "man, exp, prec, floor, ceil",
    [
        (3, -3, 2, 1, 2),  # 0.375 * 4 = 1.5
        (-3, -3, 2, -2, -1),  # -1.5
        (-5, -2, 4, -20, -20),  # on the grid
        (3, -70, 64, 0, 1),  # below one grid unit
        (-3, -70, 64, -1, 0),
        (3, 10, 64, 3 << 74, 3 << 74),
        (0, 0, 64, 0, 0),
    ],
)
def test_floor_and_ceil_on_the_grid(man, exp, prec, floor, ceil):
    from mpmath import libmp

    raw = libmp.from_man_exp(man, exp)
    assert oracle._floor_on_grid(raw, prec) == floor
    assert -oracle._floor_on_grid(libmp.mpf_neg(raw), prec) == ceil


def test_non_finite_endpoint_raises():
    from mpmath import libmp

    for raw in (libmp.finf, libmp.fninf, libmp.fnan):
        with pytest.raises(ArithmeticError, match="non-finite"):
            oracle._floor_on_grid(raw, 64)


def test_terms_below_one_grid_unit_round_outward(counting_libmp):
    """cos(7pi/16)^200 ~ 1e-142 and cos(9pi/16)^201 ~ -1e-143 are far below
    2^-64: each becomes the one grid cell on its side of zero. A negative
    term of ordinary size is floored and ceiled around its true value."""
    assert oracle._term("cos", 7, 16, 200, 64) == (0, 1)
    assert oracle._term("cos", 9, 16, 201, 64) == (-1, 0)
    lo, hi = oracle._term("cos", 11, 12, 1, 64)
    libmp = counting_libmp._real
    angle = libmp.mpf_div(libmp.mpf_mul(libmp.mpf_pi(256), libmp.from_int(11)), libmp.from_int(12), 256)
    assert lo < _exact_value(libmp.mpf_cos(angle, 256)) * 2**64 < hi < 0
    assert hi - lo <= 2**8


def _folded_angle(fn, num, den):
    """(num', den', sign) with fn(num*pi/den) = sign * fn(num'*pi/den'),
    num'/den' in [0, 1/2] in lowest terms: the angle direct_sum encloses.
    cos/sin have period 2*pi and cot pi; past pi, x -> 2*pi - x negates
    sin; past pi/2, x -> pi - x negates cos and cot."""
    num %= den if fn == "cot" else 2 * den
    sign = 1
    if num > den:
        num, sign = 2 * den - num, -1 if fn == "sin" else 1
    if 2 * num > den:
        num, sign = den - num, sign if fn == "sin" else -sign
    g = gcd(num, den)
    return num // g, den // g, sign


@lru_cache(maxsize=None)
def _exact_folded_term(fn, num, den, exponent, prec):
    """The exact power of the oracle's trig enclosure of a folded angle,
    taken once per angle: a trig enclosure is the same bits every time."""
    step_prec = -(-prec // oracle._TRIG_STEP_BITS) * oracle._TRIG_STEP_BITS
    return _exact_power(oracle._trig(fn, num, den, step_prec), exponent)


def _enclosure_sum(spec, prec: int) -> tuple[int, int]:
    """The exact sum of the defining sum's term enclosures, with no
    rounding: each term the exact power of the endpoints of its folded
    angle's mpmath trig enclosure, negated for a sign change at an odd
    exponent, products of intervals (the alternating sign's weight among
    them) by min and max, then the scale. Returned as floor(lower * 2^prec)
    and ceil(upper * 2^prec), which compare with grid integers as the exact
    ends do (see _grid_floor and _grid_ceil)."""

    def enclosure(fn, num, den, exponent):
        num, den, sign = _folded_angle(fn, num, den)
        lo, hi = _exact_folded_term(fn, num, den, exponent, prec)
        return ((-hi[0], hi[1]), (-lo[0], lo[1])) if sign < 0 and exponent % 2 else (lo, hi)

    def total(values):
        shift = max(t for _, t in values)
        return sum(n << (shift - t) for n, t in values) * s.scale, shift

    s = oracle._defining_sum(spec)
    lower, upper = [], []
    for k in s.indices:
        lo, hi = enclosure(s.fn, s.a * k + s.b, s.den, s.exponent)
        for c, d in s.weights:
            w_lo, w_hi = enclosure("cos", c * k, d, 1)
            lo, hi = _hull(*((x * y, t + u) for x, t in (lo, hi) for y, u in (w_lo, w_hi)))
        lower.append(lo)
        upper.append(hi)
    return _grid_floor(total(lower), prec), _grid_ceil(total(upper), prec)


@pytest.mark.parametrize("spec", _ONE_PER_FAMILY, ids=lambda spec: spec.token)
def test_grid_sum_within_documented_width_at_64_bits(spec):
    """At the minimum 64 bits the integer sum contains the true value, and
    contains the exact sum of the mpmath term enclosures with each endpoint
    moved out by less than 2 * (1 + len(weights)) grid units per term,
    times the scale (the bound direct_sum documents)."""
    interval = direct_sum(spec, 64)
    assert evaluate(spec) in interval
    lower, upper = _enclosure_sum(spec, 64)
    s = oracle._defining_sum(spec)
    slack = 2 * (1 + len(s.weights)) * len(s.indices) * s.scale
    assert lower - slack < interval.lo <= lower
    assert upper <= interval.hi < upper + slack


def test_alternating_sign_swaps_endpoints():
    """ALTERNATING(m, n) and C(m, n) sum the same terms. The sign is the
    weight cos(k*pi), whose enclosure is exactly +-1 on the grid, so the
    odd terms' class has its endpoints swapped and negated without
    rounding: the two intervals have one width and their midpoints differ
    by twice the midpoint of the odd terms."""
    assert oracle._defining_sum(SumSpec(Family.ALTERNATING, 4, 6)).weights == ((1, 1),)
    assert oracle._term("cos", 0, 1, 1, 96) == (2**96, 2**96)
    assert oracle._term("cos", 1, 1, 1, 96) == (-(2**96), -(2**96))
    m, n = 4, 6
    alternating = direct_sum(SumSpec(Family.ALTERNATING, m, n), 96)
    plain = direct_sum(SumSpec(Family.COS_POWER, m, n), 96)
    assert alternating.width == plain.width
    assert evaluate(SumSpec(Family.ALTERNATING, m, n)) in alternating
    odd = [oracle._term("cos", k, n, 2 * m, 96) for k in range(1, n, 2)]
    odd_lo, odd_hi = (sum(ends) for ends in zip(*odd))
    assert plain.lo - alternating.lo == plain.hi - alternating.hi == odd_lo + odd_hi


def test_scale_multiplies_the_total_exactly():
    """quoniam(m, n) is 2^{2m} times the half-range sum at n + 1, term for
    term, and the scale adds no rounding: the intervals agree exactly."""
    m, n = 3, 7
    scaled = direct_sum(SumSpec(Family.QUONIAM, m, n), 80)
    unscaled = direct_sum(SumSpec(Family.MERCA_HALF, m, n + 1), 80)
    scale = 2 ** (2 * m)
    assert (scaled.lo, scaled.hi) == (scale * unscaled.lo, scale * unscaled.hi)
    assert evaluate(SumSpec(Family.QUONIAM, m, n)) in scaled


def test_weight_products_round_outward():
    """WEIGHT_HALF_PI at odd n weighs every odd index by cos(k*pi/2) = 0,
    whose enclosure straddles zero, and the ell5 product multiplies two
    weights: each product interval is rounded out to the grid, and the
    sum still contains the value within the documented width."""
    w_lo, w_hi = oracle._term("cos", 1, 2, 1, 64)
    assert w_lo < 0 < w_hi
    for spec in (SumSpec(Family.WEIGHT_HALF_PI, 4, 3), SumSpec(Family.ELL5_PRODUCT, 4, 3)):
        interval = direct_sum(spec, 64)
        assert evaluate(spec) in interval
        lower, upper = _enclosure_sum(spec, 64)
        s = oracle._defining_sum(spec)
        slack = 2 * (1 + len(s.weights)) * len(s.indices)
        assert lower - slack < interval.lo <= lower and upper <= interval.hi < upper + slack


def _per_term_grid_sum(spec, prec: int) -> tuple[int, int]:
    """The grid sum with every term multiplied by its own weights and each
    product rounded outward onto the grid: the per-term rounding that the
    weight classes of direct_sum replace."""
    s = oracle._defining_sum(spec)
    lower = upper = 0
    for k in s.indices:
        lo, hi = oracle._term(s.fn, s.a * k + s.b, s.den, s.exponent, prec)
        for c, d in s.weights:
            w_lo, w_hi = oracle._term("cos", c * k, d, 1, prec)
            products = (lo * w_lo, lo * w_hi, hi * w_lo, hi * w_hi)
            lo, hi = min(products) >> prec, -(-max(products) >> prec)
        lower, upper = lower + lo, upper + hi
    return lower * s.scale, upper * s.scale


_WEIGHTED = [spec.family for spec in _ONE_PER_FAMILY if oracle._defining_sum(spec).weights]
_EVEN_N = {Family.ALTERNATING, Family.WEIGHT_PI3, Family.ELL5_ALT_PRODUCT}


def _weighted_cases(ms, n_max):
    return [
        SumSpec(family, m, n)
        for family in _WEIGHTED
        for m in ms
        for n in range(1, n_max + 1)
        if n % 2 == 0 or family not in _EVEN_N
    ]


@pytest.mark.parametrize(
    "cases",
    [_weighted_cases(range(11), 12), _weighted_cases((200,), 24)],
    ids=["m<=10", "m=200"],
)
def test_weight_classes_are_no_wider_than_per_term_products(cases):
    """direct_sum multiplies each weight into a class total, one class per
    weight residue, not into each term. The interval still contains the
    closed value and, at n <= 4, the exact sum of the per-term
    products of the mpmath enclosures (its terms are nonnegative, so the
    class product loses nothing); and it lies inside the per-term grid
    rounding."""
    assert len(_WEIGHTED) == 9
    for spec in cases:
        prec = max(64, default_precision(spec))
        interval = direct_sum(spec, prec)
        assert evaluate(spec) in interval, spec
        lower, upper = _per_term_grid_sum(spec, prec)
        assert lower <= interval.lo <= interval.hi <= upper, spec
        if spec.n <= 4:
            exact_lo, exact_hi = _enclosure_sum(spec, prec)
            assert interval.lo <= exact_lo and exact_hi <= interval.hi, spec


# --- input checks and the precision cost guard -------------------------------


def test_direct_sum_rejects_non_int_precision():
    spec = SumSpec(Family.COS_POWER, 2, 3)
    for bits in (100.5, "100", True):
        with pytest.raises(ParameterError, match="must be an int"):
            direct_sum(spec, bits)


def test_policy_rejects_non_int_fields():
    for kwargs in (
        {"denominator_bound": 1.5},
        {"denominator_bound": True},
        {"denominator_bound": 8, "guard_bits": "3"},
    ):
        with pytest.raises(ParameterError, match="must be an int"):
            ReconstructionPolicy(**kwargs)


def test_negative_retries_rejected():
    with pytest.raises(ParameterError, match="max_retries"):
        evaluate_exact(SumSpec(Family.COS_POWER, 2, 3), max_retries=-1)
    with pytest.raises(ParameterError, match="must be an int"):
        evaluate_exact(SumSpec(Family.COS_POWER, 2, 3), max_retries=2.0)


def test_precision_cost_guard_refuses_before_any_work(monkeypatch):
    """A precision past MAX_PRECISION_BITS, or a retry ladder that could
    climb past it, is refused before pi is enclosed or a term is summed."""
    clear_caches()
    spec = SumSpec(Family.COS_POWER, 2, 3)
    with pytest.raises(CostGuardError, match="cost guard"):
        direct_sum(spec, 10**9)
    with pytest.raises(CostGuardError):
        direct_sum(spec, MAX_PRECISION_BITS + 1)
    assert oracle._pi_interval.cache_info().currsize == 0

    def no_sum(*args):
        raise AssertionError("direct_sum ran")

    monkeypatch.setattr(oracle, "direct_sum", no_sum)
    with pytest.raises(CostGuardError, match="cost guard"):
        evaluate_exact(spec, ReconstructionPolicy(8, guard_bits=10**6), max_retries=40)
    with pytest.raises(CostGuardError):
        evaluate_exact(spec, max_retries=10**12)
    with pytest.raises(CostGuardError):
        ReconstructionPolicy(8, guard_bits=MAX_PRECISION_BITS + 1)
    with pytest.raises(CostGuardError):
        evaluate_exact(OddCosPowerParams(MAX_M + 1, 3))


def test_precision_cost_guard_admits_every_default_request(monkeypatch):
    """The largest default precision of a request direct_sum accepts (m =
    MAX_M, MAX_TERMS half-range terms) climbs exactly to MAX_PRECISION_BITS
    in the four default retries; the largest cot sums stay far below."""
    extreme = SumSpec(Family.MERCA_HALF, MAX_M, 2 * MAX_TERMS + 2)
    assert len(oracle._defining_sum(extreme).indices) == MAX_TERMS
    assert default_precision(extreme) * 2**4 == MAX_PRECISION_BITS
    assert default_precision(OddCosPowerParams(MAX_M, MAX_TERMS)) < default_precision(extreme)
    assert default_precision(CotSumParams(100, MAX_TERMS + 1)) == 6896
    seen = []

    def too_wide(spec, precision_bits):
        seen.append(precision_bits)
        return IntervalValue(0, 1 << precision_bits, precision_bits)

    monkeypatch.setattr(oracle, "direct_sum", too_wide)
    with pytest.raises(oracle.PrecisionExhausted):
        evaluate_exact(extreme)
    assert seen[-1] == MAX_PRECISION_BITS and len(seen) == 5
    with pytest.raises(CostGuardError):
        evaluate_exact(extreme, max_retries=5)
