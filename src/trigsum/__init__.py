"""Exact evaluation of trigonometric power sums and their relatives.

Everything is computed over arbitrary-precision rationals: even-power
cosine/sine sums at rational multiples of pi, weighted and shifted
composites, cotangent power sums as polynomials in the denominator,
generating-function coefficients, and closed-walk counts on paths and
cycles. An independent interval-arithmetic oracle rounds every claimed
value to the nearest admissible rational and certifies agreement.
"""

from .closed_forms import Family, SumSpec, evaluate
from .cotangent import (
    ByrneSmithParams,
    CotPolynomial,
    CotSumParams,
    byrne_smith_coefficients,
    byrne_smith_sum,
    cot_power_sum,
    cot_sum_polynomial,
)
from .errors import ParameterError
from .exact_core import BernoulliCache, Rational, bernoulli, binom
from .genfunc import (
    SeriesCoefficients,
    g1_coefficients,
    h1_coefficients,
    resolvent_coefficients,
    sigma,
    sigma_minus,
)
from .oracle import (
    AmbiguousReconstruction,
    IntervalValue,
    NoIntegerNearby,
    OddCosPowerParams,
    PrecisionExhausted,
    ReconstructionPolicy,
    denominator_bound_for,
    direct_sum,
    evaluate_exact,
    reconstruct,
)
from .walks import GraphKind, GraphSpec, WalkCount, cycle_closed_walks, path_closed_walks, trace_oracle

__all__ = [
    "AmbiguousReconstruction",
    "BernoulliCache",
    "ByrneSmithParams",
    "CotPolynomial",
    "CotSumParams",
    "Family",
    "GraphKind",
    "GraphSpec",
    "IntervalValue",
    "NoIntegerNearby",
    "OddCosPowerParams",
    "ParameterError",
    "PrecisionExhausted",
    "Rational",
    "ReconstructionPolicy",
    "SeriesCoefficients",
    "SumSpec",
    "WalkCount",
    "bernoulli",
    "binom",
    "byrne_smith_coefficients",
    "byrne_smith_sum",
    "cot_power_sum",
    "cot_sum_polynomial",
    "cycle_closed_walks",
    "denominator_bound_for",
    "direct_sum",
    "evaluate",
    "evaluate_exact",
    "g1_coefficients",
    "h1_coefficients",
    "path_closed_walks",
    "reconstruct",
    "resolvent_coefficients",
    "sigma",
    "sigma_minus",
    "trace_oracle",
]
