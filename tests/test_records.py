"""The frozen request and value records: equality and hash within a type,
distinctness across types, immutability, pickling, construction by keyword
and default, and the checks each constructor runs."""

import copy
import pickle
from fractions import Fraction

import pytest

from trigsum.closed_forms import MAX_M, Family, SumSpec
from trigsum.cotangent import (
    MAX_N,
    ByrneSmithCoefficients,
    ByrneSmithParams,
    CotPolynomial,
    CotSumParams,
    byrne_smith_coefficients,
    cot_sum_polynomial,
)
from trigsum.errors import CostGuardError, ParameterError, Record, set_field
from trigsum.genfunc import SeriesCoefficients, g1_coefficients
from trigsum.oracle import (
    MAX_PRECISION_BITS,
    IntervalValue,
    OddCosPowerParams,
    ReconstructionPolicy,
)
from trigsum.walks import GraphKind, GraphSpec, WalkCount

F = Fraction

# each record type: (a builder, a record of the same type with other values)
_RECORDS = {
    SumSpec: (lambda: SumSpec(Family.COS_POWER, 200, 7), SumSpec(Family.COS_POWER, 200, 7, kind="sin")),
    CotSumParams: (lambda: CotSumParams(3, 4), CotSumParams(4, 3)),
    ByrneSmithParams: (lambda: ByrneSmithParams(3, 4), ByrneSmithParams(3, 5)),
    CotPolynomial: (lambda: cot_sum_polynomial(2), CotPolynomial(2, (F(1),))),
    ByrneSmithCoefficients: (
        lambda: byrne_smith_coefficients(3),
        ByrneSmithCoefficients(((F(1),),)),
    ),
    SeriesCoefficients: (lambda: g1_coefficients(2, 4), SeriesCoefficients((F(1),), 0)),
    IntervalValue: (lambda: IntervalValue(-3, 5, 10), IntervalValue(-3, 5, 11)),
    ReconstructionPolicy: (lambda: ReconstructionPolicy(576), ReconstructionPolicy(576, 33)),
    OddCosPowerParams: (lambda: OddCosPowerParams(3, 4), OddCosPowerParams(3, 5)),
    GraphSpec: (lambda: GraphSpec(GraphKind.CYCLE, 5), GraphSpec(GraphKind.PATH, 5)),
}
_TYPES = list(_RECORDS)
_ids = [cls.__name__ for cls in _TYPES]


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__slots__)


def _twin(record):
    """A record of another type with the same field names and values."""
    names = type(record).__slots__

    class Twin(Record):
        __slots__ = names

        def __init__(self, *values):
            for name, value in zip(names, values):
                set_field(self, name, value)

    return Twin(*_fields(record))


def test_every_record_type_is_covered():
    package = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("trigsum.")}
    assert package == set(_TYPES)


@pytest.mark.parametrize("cls", _TYPES, ids=_ids)
def test_equal_within_the_type_and_hash_agrees(cls):
    make, other = _RECORDS[cls]
    first, second = make(), make()
    assert type(first) is cls
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert first != other and not first == other
    assert {first: 1, second: 2, other: 3} == {first: 2, other: 3}


@pytest.mark.parametrize("cls", _TYPES, ids=_ids)
def test_unequal_to_another_type_with_equal_fields(cls):
    record = _RECORDS[cls][0]()
    twin = _twin(record)
    assert _fields(twin) == _fields(record)
    assert record != twin and twin != record
    assert record != _fields(record)
    assert len({record: 0, twin: 1}) == 2


def test_same_fields_of_distinct_request_types_are_distinct_keys():
    requests = [CotSumParams(3, 4), ByrneSmithParams(3, 4), OddCosPowerParams(3, 4)]
    assert len(set(requests)) == 3
    assert CotSumParams(3, 4) != ByrneSmithParams(3, 4)
    assert {req: type(req) for req in requests}[ByrneSmithParams(3, 4)] is ByrneSmithParams


@pytest.mark.parametrize("cls", _TYPES, ids=_ids)
def test_assignment_and_deletion_raise(cls):
    record = _RECORDS[cls][0]()
    before = _fields(record)
    for name in cls.__slots__:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert not hasattr(record, "__dict__")
    assert _fields(record) == before


@pytest.mark.parametrize("cls", _TYPES, ids=_ids)
def test_pickle_and_copy_round_trip(cls):
    record = _RECORDS[cls][0]()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is cls
        assert back == record and hash(back) == hash(record)
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record


def test_every_request_record_is_defined_once_in_families():
    """The records and their bounds are defined in families; the modules
    that use them re-export the same objects."""
    import trigsum
    from trigsum import closed_forms, cotangent, exact_core, families, oracle

    for name in ("Family", "SumSpec", "CotSumParams", "ByrneSmithParams", "OddCosPowerParams"):
        assert getattr(families, name).__module__ == "trigsum.families"
        assert getattr(trigsum, name) is getattr(families, name)
    for module, names in (
        (closed_forms, ("MAX_M", "Family", "SumSpec")),
        (cotangent, ("MAX_N", "MAX_POWER_BITS", "CotSumParams", "ByrneSmithParams")),
        (oracle, ("OddCosPowerParams",)),
    ):
        for name in names:
            assert name in module.__all__ and getattr(module, name) is getattr(families, name)
    assert (exact_core.MAX_BINOM_N, exact_core.MAX_BERNOULLI_INDEX) == (2 * families.MAX_M, 2 * families.MAX_N)


def test_repr_names_every_field():
    assert repr(SumSpec(Family.COS_POWER, 200, 7)) == (
        "SumSpec(family=<Family.COS_POWER: 'C'>, m=200, n=7, q=1, kind='cos')"
    )
    assert repr(ByrneSmithParams(3, 4)) == "ByrneSmithParams(n=3, k=4)"
    assert repr(IntervalValue(-3, 5, 10)) == "IntervalValue(lo=-3, hi=5, precision_bits=10)"
    assert repr(ByrneSmithCoefficients(((F(1, 2),),))) == (
        "ByrneSmithCoefficients(rows=((Fraction(1, 2),),))"
    )


def test_keyword_and_default_construction():
    spec = SumSpec(Family.ALTERNATING, 4, 8, kind="sin")
    assert (spec.family, spec.m, spec.n, spec.q, spec.kind) == (Family.ALTERNATING, 4, 8, 1, "sin")
    assert SumSpec(family=Family.SCALED, m=3, n=4, q=8) == SumSpec(Family.SCALED, 3, 4, 8, "cos")
    policy = ReconstructionPolicy(denominator_bound=576)
    assert (policy.denominator_bound, policy.guard_bits) == (576, 32)
    assert ReconstructionPolicy(denominator_bound=576, guard_bits=40).guard_bits == 40
    series = SeriesCoefficients(coeffs=(F(1), F(1, 2)), order=1)
    assert series[1] == F(1, 2) and series.order == 1
    assert IntervalValue(lo=1, hi=2, precision_bits=0) == IntervalValue(1, 2, 0)
    assert GraphSpec(kind=GraphKind.PATH, n=4).vertex_count == 3
    assert OddCosPowerParams(j=2, n=3) == OddCosPowerParams(2, 3)
    assert CotSumParams(n=2, k=5) == CotSumParams(2, 5)
    assert ByrneSmithParams(n=2, k=5) == ByrneSmithParams(2, 5)
    assert CotPolynomial(n=1, coefficients=(F(1),)).degree == 0
    assert ByrneSmithCoefficients(rows=((F(1),),)).n_max == 1
    with pytest.raises(TypeError):
        SumSpec(Family.COS_POWER, 2)
    with pytest.raises(TypeError):
        SumSpec(Family.COS_POWER, 2, 3, family=Family.SIN_POWER)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: IntervalValue(0.5, 1, 4), ParameterError),
        (lambda: IntervalValue(0, True, 4), ParameterError),
        (lambda: IntervalValue(0, 1, F(4)), ParameterError),
        (lambda: IntervalValue(0, 1, -1), ParameterError),
        (lambda: ReconstructionPolicy(0), ParameterError),
        (lambda: ReconstructionPolicy(1.0), ParameterError),
        (lambda: ReconstructionPolicy(5, guard_bits=0), ParameterError),
        (lambda: ReconstructionPolicy(5, guard_bits=False), ParameterError),
        (lambda: ReconstructionPolicy(5, guard_bits=MAX_PRECISION_BITS + 1), CostGuardError),
        (lambda: SeriesCoefficients((F(1),), 1), ValueError),
        (lambda: SeriesCoefficients(coeffs=(F(1), F(2)), order=0), ValueError),
        pytest.param(lambda: SeriesCoefficients((F(1),), 1), ParameterError, id="series-length"),
        pytest.param(lambda: SeriesCoefficients((F(1),), 0.0), ParameterError, id="series-float-order"),
        pytest.param(lambda: SeriesCoefficients((), -1), ParameterError, id="series-negative-order"),
        # every request type, built and smuggled through a pickle round trip
        pytest.param(lambda: SumSpec(Family.QUONIAM, 5, 4), ParameterError, id="SumSpec"),
        pytest.param(lambda: SumSpec("C", 2, 3), ParameterError, id="SumSpec-family"),
        pytest.param(lambda: SumSpec(Family.COS_POWER, MAX_M + 1, 7), CostGuardError, id="SumSpec-guard"),
        pytest.param(
            lambda: _unpickled(SumSpec, Family.QUONIAM, 5, 4, 1, "cos"), ParameterError, id="SumSpec-pickled"
        ),
        pytest.param(lambda: CotSumParams(2, 1), ParameterError, id="CotSumParams"),
        pytest.param(lambda: _unpickled(CotSumParams, 2, 1), ParameterError, id="CotSumParams-pickled"),
        pytest.param(lambda: ByrneSmithParams(2, 0), ParameterError, id="ByrneSmithParams"),
        pytest.param(lambda: ByrneSmithParams(MAX_N + 1, 1), CostGuardError, id="ByrneSmithParams-guard"),
        pytest.param(
            lambda: _unpickled(ByrneSmithParams, True, 3), ParameterError, id="ByrneSmithParams-pickled"
        ),
        pytest.param(lambda: OddCosPowerParams(-1, 3), ParameterError, id="OddCosPowerParams"),
        pytest.param(lambda: OddCosPowerParams(MAX_M + 1, 3), CostGuardError, id="OddCosPowerParams-guard"),
        pytest.param(
            lambda: _unpickled(OddCosPowerParams, 1, 2.5), ParameterError, id="OddCosPowerParams-pickled"
        ),
        pytest.param(lambda: GraphSpec(GraphKind.CYCLE, 4), ParameterError, id="GraphSpec"),
        pytest.param(lambda: _unpickled(GraphSpec, None, 5), ParameterError, id="GraphSpec-pickled"),
        pytest.param(lambda: WalkCount(2.7), ParameterError, id="WalkCount-float"),
        pytest.param(lambda: WalkCount(True), ParameterError, id="WalkCount-bool"),
        pytest.param(lambda: WalkCount("3"), ParameterError, id="WalkCount-str"),
        pytest.param(lambda: WalkCount(-1), ParameterError, id="WalkCount-negative"),
    ],
)
def test_constructor_checks_still_raise(build, error):
    with pytest.raises(error):
        build()


def _unpickled(cls, *fields):
    """A record of ``cls`` holding ``fields``, set past its constructor,
    after a pickle round trip. __reduce__ calls the class with the fields,
    so the constructor's checks run again on the way back."""
    record = object.__new__(cls)
    for name, value in zip(cls.__slots__, fields):
        set_field(record, name, value)
    return pickle.loads(pickle.dumps(record))


def test_series_coefficients_hash_whatever_sequence_they_are_given():
    """The coefficients are kept as a tuple, so a series built from a list
    is frozen and hashes like one built from a tuple."""
    series = SeriesCoefficients([F(1)], 0)
    assert series.coeffs == (F(1),)
    assert hash(series) == hash(SeriesCoefficients((F(1),), 0))
