"""Closed-walk counting on path and cycle graphs.

The adjacency spectrum of the (n-1)-vertex path is {2cos(l*pi/n)} and of
the n-cycle is {2cos(2*l*pi/n)}, so traces of even adjacency powers are
rescaled cosine power sums:

    paths:      trace A^{2m} = 2^{2m} * (C(m, n) - 1)
    odd cycles: trace A^{2m} = 2^{2m} * C(m, n)

(the cycle case uses the coprime-invariance of C under the angle doubling,
which is why n must be odd). A single count is computed that way;
expanding C gives the integer formulas in the docstrings below. A table of
counts for m = 0..m_max takes 4^m * C(m, n) / n in turn from
exact_core.scaled_power_sums instead: a central binomial each below m = n,
and from there a residue row of (1 + x)^{2m} mod (x^n - 1), each from the
one before at O(n) big-integer additions. An exact integer matrix-power
trace oracle is included so the formulas are testable without trusting
any of this.
"""

from __future__ import annotations

from enum import Enum

from .closed_forms import cos_power_sum
from .errors import CostGuardError, ParameterError, Record, check_int, set_field
from .exact_core import scaled_power_sums
from .genfunc import MAX_TABLE_INDEX

__all__ = [
    "MAX_TRACE_NS",
    "MAX_VERTICES",
    "GraphKind",
    "GraphSpec",
    "WalkCount",
    "path_closed_walks",
    "cycle_closed_walks",
    "adjacency_matrix",
    "trace_oracle",
    "closed_walk_counts",
]


# Cost guards on the matrix oracle. adjacency_matrix holds size^2 entries,
# so a graph of more than MAX_VERTICES vertices is refused before any is
# built (10^6 list slots, about 8 MB). trace_oracle does size^3 products of
# entries of up to `length` bits in each of its matrix products, and takes
# about size^3 * (47 * products + 3^bit_length(length) / 64) ns: the first
# term is the interpreter's cost per product, the second Karatsuba's on the
# largest entries. The constants are a least squares fit to the relative
# error over 20 timings at 3..301 vertices and lengths 2..10^6, each within
# 0.57-1.8x of the model; (101, 2000) took 4.1 s, (25, 10^5) 32.6 s and
# (9, 6400), the largest reference the bench harness builds, 0.03 s (2-vCPU
# Xeon VM, Python 3.11). A call the model prices above MAX_TRACE_NS is
# refused with CostGuardError before any matrix is built.
MAX_VERTICES = 1000
MAX_TRACE_NS = 2 * 10**9


class GraphKind(Enum):
    PATH = "path"
    CYCLE = "cycle"


class GraphSpec(Record):
    """A path or cycle. For PATH, n is the spectral parameter: the graph
    has n-1 vertices. For CYCLE, the graph has n vertices, n odd."""

    __slots__ = ("kind", "n")

    def __init__(self, kind: GraphKind, n: int) -> None:
        set_field(self, "kind", kind)
        set_field(self, "n", n)
        if not isinstance(kind, GraphKind):
            raise ParameterError(f"unknown graph kind {kind!r}")
        check_int("n", n)
        if kind is GraphKind.PATH:
            if n < 2:
                raise ParameterError("path requires n >= 2 (at least one vertex)")
        elif n < 3 or n % 2 == 0:
            raise ParameterError(
                "cycle requires odd n >= 3 (the even-cycle count is not this formula)"
            )

    @property
    def vertex_count(self) -> int:
        return self.n - 1 if self.kind is GraphKind.PATH else self.n


class WalkCount(int):
    """A count of closed walks: a plain non-negative int, else ParameterError."""

    def __new__(cls, value: int) -> "WalkCount":
        check_int("walk count", value)
        if value < 0:
            raise ParameterError("walk counts are non-negative")
        return super().__new__(cls, value)


def path_closed_walks(n: int, m: int) -> WalkCount:
    """Closed walks of length 2m on the (n-1)-vertex path:
    2n*(binom(2m-1, m-1) + sum_{k=1}^{floor(m/n)} binom(2m, m-kn)) - 2^{2m};
    n-1 (one trivial walk per vertex) at m = 0."""
    GraphSpec(GraphKind.PATH, n)
    return WalkCount(int((cos_power_sum(m, n) - 1) * 4**m))


def cycle_closed_walks(n: int, m: int) -> WalkCount:
    """Closed walks of length 2m on the n-cycle, n odd:
    2n*(binom(2m-1, m-1) + sum_{k=1}^{floor(m/n)} binom(2m, m-kn));
    n at m = 0."""
    GraphSpec(GraphKind.CYCLE, n)
    return WalkCount(int(cos_power_sum(m, n) * 4**m))


def _vertex_count(graph: GraphSpec) -> int:
    if type(graph) is not GraphSpec:
        raise ParameterError(f"unsupported graph {type(graph).__name__}")
    return graph.vertex_count


def adjacency_matrix(graph: GraphSpec) -> list[list[int]]:
    """Exact 0/1 adjacency matrix of a GraphSpec (else ParameterError)."""
    size = _vertex_count(graph)
    if size > MAX_VERTICES:
        raise CostGuardError(f"the graph has {size} vertices; at most {MAX_VERTICES} (cost guard)")
    mat = [[0] * size for _ in range(size)]
    for i in range(size - 1):
        mat[i][i + 1] = mat[i + 1][i] = 1
    if graph.kind is GraphKind.CYCLE and size > 2:
        mat[0][size - 1] = mat[size - 1][0] = 1
    return mat


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [
        [sum(x * y for x, y in zip(row, col)) for col in cols] for row in a
    ]


def trace_oracle(graph: GraphSpec, length: int) -> WalkCount:
    """trace(A^length) by exact integer matrix powering (repeated
    squaring). Accepts any length >= 0, odd included, so bipartite
    cancellation is itself checkable. ``graph`` must be a GraphSpec."""
    size = _vertex_count(graph)
    check_int("length", length)
    if length < 0:
        raise ParameterError("length must be non-negative")
    if length == 0:
        return WalkCount(size)
    bits = length.bit_length()
    # the model's estimate in ns; past 2^40 the length alone is over the guard
    cost = size**3 * (47 * (bits + length.bit_count() - 2) + 3 ** min(bits, 40) // 64)
    if cost > MAX_TRACE_NS:
        raise CostGuardError(
            f"trace_oracle at {size} vertices and length {length} takes about {cost // 10**9} s;"
            f" at most {MAX_TRACE_NS // 10**9} s (cost guard)"
        )
    power = None
    square = adjacency_matrix(graph)
    bits = length
    while bits:
        if bits & 1:
            power = square if power is None else _mat_mul(power, square)
        bits >>= 1
        if bits:
            square = _mat_mul(square, square)
    assert power is not None
    return WalkCount(sum(power[i][i] for i in range(size)))


def closed_walk_counts(kind: GraphKind, n: int, m_max: int) -> list[WalkCount]:
    """Closed walks of length 2m for m = 0..m_max on the path or cycle of
    parameter n, as path_closed_walks and cycle_closed_walks count them:
    4^m * C(m, n), less 4^m for the path. The table holds O(m_max^2) bits,
    so m_max past MAX_TABLE_INDEX is refused with CostGuardError."""
    GraphSpec(kind, n)
    check_int("m_max", m_max)
    if m_max < 0:
        raise ParameterError("m_max must be non-negative")
    if m_max > MAX_TABLE_INDEX:
        raise CostGuardError(f"m_max must be <= {MAX_TABLE_INDEX} (cost guard)")
    path = kind is GraphKind.PATH  # the path's spectrum lacks the angle 0
    return [
        WalkCount(n * sums - (4**m if path else 0))
        for m, sums in zip(range(m_max + 1), scaled_power_sums("cos", n))
    ]
