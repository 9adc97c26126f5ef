"""Closed-walk counting on path and cycle graphs.

The adjacency spectrum of the (n-1)-vertex path is {2cos(l*pi/n)} and of
the n-cycle is {2cos(2*l*pi/n)}, so traces of even adjacency powers are
rescaled cosine power sums:

    paths:      trace A^{2m} = 2^{2m} * (C(m, n) - 1)
    odd cycles: trace A^{2m} = 2^{2m} * C(m, n)

(the cycle case uses the coprime-invariance of C under the angle doubling,
which is why n must be odd). The counts are computed that way; expanding C
gives the integer formulas in the docstrings below. An exact integer
matrix-power trace oracle is included so the formulas are testable without
trusting any of this.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .closed_forms import cos_power_sum
from .errors import ParameterError

__all__ = [
    "GraphKind",
    "GraphSpec",
    "WalkCount",
    "path_closed_walks",
    "cycle_closed_walks",
    "adjacency_matrix",
    "trace_oracle",
    "walk_table_lines",
]


class GraphKind(Enum):
    PATH = "path"
    CYCLE = "cycle"


@dataclass(frozen=True)
class GraphSpec:
    """A path or cycle. For PATH, n is the spectral parameter: the graph
    has n-1 vertices. For CYCLE, the graph has n vertices, n odd."""

    kind: GraphKind
    n: int

    def validate(self) -> None:
        if self.kind is GraphKind.PATH:
            if self.n < 2:
                raise ParameterError("path requires n >= 2 (at least one vertex)")
        elif self.n < 3 or self.n % 2 == 0:
            raise ParameterError(
                "cycle requires odd n >= 3 (the even-cycle count is not this formula)"
            )

    @property
    def vertex_count(self) -> int:
        return self.n - 1 if self.kind is GraphKind.PATH else self.n


class WalkCount(int):
    """A count of closed walks: a plain non-negative integer."""

    def __new__(cls, value: int) -> "WalkCount":
        if value < 0:
            raise ValueError("walk counts are non-negative")
        return super().__new__(cls, value)


def path_closed_walks(n: int, m: int) -> WalkCount:
    """Closed walks of length 2m on the (n-1)-vertex path:
    2n*(binom(2m-1, m-1) + sum_{k=1}^{floor(m/n)} binom(2m, m-kn)) - 2^{2m};
    n-1 (one trivial walk per vertex) at m = 0."""
    GraphSpec(GraphKind.PATH, n).validate()
    return WalkCount(int((cos_power_sum(m, n) - 1) * 4**m))


def cycle_closed_walks(n: int, m: int) -> WalkCount:
    """Closed walks of length 2m on the n-cycle, n odd:
    2n*(binom(2m-1, m-1) + sum_{k=1}^{floor(m/n)} binom(2m, m-kn));
    n at m = 0."""
    GraphSpec(GraphKind.CYCLE, n).validate()
    return WalkCount(int(cos_power_sum(m, n) * 4**m))


def adjacency_matrix(graph: GraphSpec) -> list[list[int]]:
    """Exact 0/1 adjacency matrix."""
    graph.validate()
    size = graph.vertex_count
    mat = [[0] * size for _ in range(size)]
    for i in range(size - 1):
        mat[i][i + 1] = mat[i + 1][i] = 1
    if graph.kind is GraphKind.CYCLE and size > 2:
        mat[0][size - 1] = mat[size - 1][0] = 1
    return mat


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    size = len(a)
    cols = list(zip(*b))
    return [
        [sum(x * y for x, y in zip(row, col)) for col in cols] for row in a
    ]


def trace_oracle(graph: GraphSpec, length: int) -> WalkCount:
    """trace(A^length) by exact integer matrix powering (repeated
    squaring). Accepts any length >= 0, odd included, so bipartite
    cancellation is itself checkable."""
    graph.validate()
    if length < 0:
        raise ParameterError("length must be non-negative")
    size = graph.vertex_count
    if length == 0:
        return WalkCount(size)
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


def walk_table_lines(kind: GraphKind, n: int, m_max: int) -> list[str]:
    """Plain-text sequence listing, one "m count" pair per line, for
    eyeball comparison against published integer-sequence archives."""
    counter = path_closed_walks if kind is GraphKind.PATH else cycle_closed_walks
    return [f"{m} {counter(n, m)}" for m in range(m_max + 1)]
