"""Closed-walk counts on paths and odd cycles: combinatorial formulas vs an
exact matrix-power trace, plus the spectral identities tying the counts to
the cosine power sums."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from trigsum import exact_core, walks
from trigsum.cli import main
from trigsum.closed_forms import cos_power_sum
from trigsum.errors import CostGuardError, ParameterError
from trigsum.genfunc import MAX_TABLE_INDEX
from trigsum.walks import (
    MAX_VERTICES,
    GraphKind,
    GraphSpec,
    WalkCount,
    adjacency_matrix,
    closed_walk_counts,
    cycle_closed_walks,
    path_closed_walks,
    trace_oracle,
)


def test_path_frozen_small_values():
    # 3-vertex path (n = 4): 3, 4, 8, 16, 32 for m = 0..4
    assert [path_closed_walks(4, m) for m in range(5)] == [3, 4, 8, 16, 32]
    # single vertex (n = 2): no edges, only the trivial walk at m = 0
    assert path_closed_walks(2, 0) == 1
    assert path_closed_walks(2, 3) == 0
    # two vertices (n = 3): one edge, 2 closed walks of every even length
    assert [path_closed_walks(3, m) for m in range(4)] == [2, 2, 2, 2]


def test_cycle_frozen_small_values():
    # triangle: trace of A^{2m} for m = 0..3
    assert [cycle_closed_walks(3, m) for m in range(4)] == [3, 6, 18, 66]
    # 5-cycle
    assert cycle_closed_walks(5, 0) == 5
    assert cycle_closed_walks(5, 1) == 10
    assert cycle_closed_walks(5, 2) == 30


@given(
    st.integers(min_value=2, max_value=14),
    st.integers(min_value=0, max_value=9),
)
@settings(max_examples=60, deadline=None)
def test_path_formula_equals_trace(n, m):
    """Property: the binomial formula counts exactly trace(A^{2m})."""
    graph = GraphSpec(GraphKind.PATH, n)
    assert path_closed_walks(n, m) == trace_oracle(graph, 2 * m)


@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=9),
)
@settings(max_examples=60, deadline=None)
def test_cycle_formula_equals_trace(half_n, m):
    """Property: same for odd cycles."""
    n = 2 * half_n + 1
    graph = GraphSpec(GraphKind.CYCLE, n)
    assert cycle_closed_walks(n, m) == trace_oracle(graph, 2 * m)


@given(
    st.integers(min_value=2, max_value=16),
    st.integers(min_value=0, max_value=10),
)
@settings(max_examples=80)
def test_path_spectral_identity(n, m):
    """Property: p_path(2m) = 2^{2m} * (C(m, n) - 1)."""
    assert path_closed_walks(n, m) == 2 ** (2 * m) * (cos_power_sum(m, n) - 1)


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=10),
)
@settings(max_examples=80)
def test_cycle_spectral_identity(half_n, m):
    """Property: p_cycle(2m) = 2^{2m} * C(m, n) for odd n."""
    n = 2 * half_n + 1
    assert cycle_closed_walks(n, m) == 2 ** (2 * m) * cos_power_sum(m, n)


def test_paths_have_no_odd_closed_walks():
    """Paths are bipartite: every odd-length trace vanishes."""
    for n in range(2, 10):
        graph = GraphSpec(GraphKind.PATH, n)
        for length in (1, 3, 5, 7):
            assert trace_oracle(graph, length) == 0


def test_odd_cycles_have_odd_closed_walks():
    # the n-cycle has exactly 2n closed walks of length n (n odd >= 3:
    # go all the way around, n starts x 2 directions)
    for n in (3, 5, 7, 9):
        graph = GraphSpec(GraphKind.CYCLE, n)
        assert trace_oracle(graph, n) == 2 * n


def test_even_cycles_rejected():
    with pytest.raises(ParameterError):
        cycle_closed_walks(4, 2)
    message = "^cycle requires odd n >= 3 \\(the even-cycle count is not this formula\\)$"
    with pytest.raises(ParameterError, match=message):
        GraphSpec(GraphKind.CYCLE, 6)
    with pytest.raises(ParameterError, match=message):
        GraphSpec(GraphKind.CYCLE, 1)


def test_path_parameter_validation():
    with pytest.raises(ParameterError):
        path_closed_walks(1, 2)
    with pytest.raises(ParameterError):
        path_closed_walks(4, -1)
    with pytest.raises(ParameterError):
        trace_oracle(GraphSpec(GraphKind.PATH, 4), -2)


@pytest.mark.parametrize(
    "kind, n, length",
    [(GraphKind.CYCLE, 301, 600), (GraphKind.CYCLE, 101, 2000), (GraphKind.PATH, 4, 2**64),
     (GraphKind.CYCLE, 10**5 + 1, 2)],
    ids=["301-cycle", "101-cycle", "long", "huge-cycle"],
)
def test_trace_oracle_refuses_a_costly_trace_before_any_matrix(kind, n, length, monkeypatch):
    """The 301-cycle at length 600 took 23 s and the 101-cycle at length
    2,000 took 3.8 s; such calls are refused at once, before a matrix is
    built or multiplied."""

    def no_matrix(*args):
        raise AssertionError("matrix built")

    monkeypatch.setattr(walks, "adjacency_matrix", no_matrix)
    monkeypatch.setattr(walks, "_mat_mul", no_matrix)
    start = time.perf_counter()
    with pytest.raises(CostGuardError, match="cost guard"):
        trace_oracle(GraphSpec(kind, n), length)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "kind, n, length",
    [(GraphKind.PATH, 26, 24), (GraphKind.CYCLE, 25, 24), (GraphKind.PATH, 9, 6400), (GraphKind.CYCLE, 9, 6400)],
)
def test_trace_oracle_admits_the_references_it_serves(kind, n, length):
    """The guard admits the traces the tests (up to 25 vertices, length 24)
    and the bench harness's large-m references (n <= 9, length <= 6,400)
    compare against."""
    closed = path_closed_walks if kind is GraphKind.PATH else cycle_closed_walks
    assert trace_oracle(GraphSpec(kind, n), length) == closed(n, length // 2)


def test_adjacency_matrix_refuses_more_than_max_vertices():
    assert len(adjacency_matrix(GraphSpec(GraphKind.PATH, MAX_VERTICES + 1))) == MAX_VERTICES
    for graph in (GraphSpec(GraphKind.PATH, MAX_VERTICES + 2), GraphSpec(GraphKind.CYCLE, MAX_VERTICES + 1)):
        with pytest.raises(CostGuardError, match=f"at most {MAX_VERTICES} \\(cost guard\\)"):
            adjacency_matrix(graph)


@pytest.mark.parametrize("graph", ["path", 3, None, GraphKind.PATH], ids=str)
def test_trace_oracle_refuses_a_non_graph(graph, monkeypatch):
    """trace_oracle takes a GraphSpec; anything else is a usage error,
    refused before any matrix is built."""

    def build(*args):
        raise AssertionError("matrix built")

    monkeypatch.setattr(walks, "adjacency_matrix", build)
    monkeypatch.setattr(walks, "_mat_mul", build)
    with pytest.raises(ParameterError, match="unsupported graph"):
        trace_oracle(graph, 2)


@pytest.mark.parametrize("graph", ["path", 3, None, GraphKind.CYCLE], ids=str)
def test_adjacency_matrix_refuses_a_non_graph(graph):
    with pytest.raises(ParameterError, match="unsupported graph"):
        adjacency_matrix(graph)


def test_walk_count_type():
    assert isinstance(path_closed_walks(4, 2), int)
    with pytest.raises(ValueError):
        WalkCount(-1)
    assert WalkCount(7) == 7


def test_adjacency_shapes():
    path = adjacency_matrix(GraphSpec(GraphKind.PATH, 5))
    assert len(path) == 4
    assert sum(sum(row) for row in path) == 2 * 3  # 3 edges
    cycle = adjacency_matrix(GraphSpec(GraphKind.CYCLE, 5))
    assert len(cycle) == 5
    assert all(sum(row) == 2 for row in cycle)  # 2-regular
    triangle = adjacency_matrix(GraphSpec(GraphKind.CYCLE, 3))
    assert sum(sum(row) for row in triangle) == 6


def test_walk_tables_match_per_index_counters():
    """The residue-row recurrence gives every row of both walk tables
    exactly as the per-index counters do, n up to 11, m up to 80."""
    for n in range(2, 12):
        kinds = [(GraphKind.PATH, path_closed_walks)]
        if n % 2 and n >= 3:
            kinds.append((GraphKind.CYCLE, cycle_closed_walks))
        for kind, counter in kinds:
            expected = [counter(n, m) for m in range(81)]
            assert closed_walk_counts(kind, n, 80) == expected, (kind, n)


@pytest.mark.parametrize(
    "call",
    [
        lambda: closed_walk_counts("path", 3, 3),
        lambda: trace_oracle(GraphSpec("bogus", 3), 4),
        lambda: GraphSpec(None, 5),
    ],
    ids=["counts-str", "trace-bogus", "none"],
)
def test_unknown_graph_kind_rejected(call):
    """A kind that is not a GraphKind member is a usage error, not read as
    a cycle."""
    with pytest.raises(ParameterError, match="unknown graph kind"):
        call()


def test_walk_table_bad_arguments_rejected():
    with pytest.raises(ParameterError):
        closed_walk_counts(GraphKind.PATH, 4, -1)
    with pytest.raises(ParameterError):
        closed_walk_counts(GraphKind.CYCLE, 4, 3)
    with pytest.raises(CostGuardError, match="cost guard"):
        closed_walk_counts(GraphKind.PATH, 4, MAX_TABLE_INDEX + 1)


def test_walk_tables_for_n_past_m_max_build_no_row(monkeypatch):
    """With n above m_max every count is a central binomial times n (less
    4^m for the path): no residue row of n entries is built."""

    def no_rows(*args):
        raise AssertionError("residue row built")

    monkeypatch.setattr(exact_core, "_residue_rows", no_rows)
    n = 999_999_999
    assert closed_walk_counts(GraphKind.CYCLE, n, 0) == [n]
    assert closed_walk_counts(GraphKind.CYCLE, n, 3) == [n, 2 * n, 6 * n, 20 * n]
    assert closed_walk_counts(GraphKind.PATH, n + 1, 2) == [n, 2 * n - 2, 6 * n - 10]
    assert len(closed_walk_counts(GraphKind.PATH, n + 1, MAX_TABLE_INDEX)) == MAX_TABLE_INDEX + 1


def test_walk_table_lines_format(capsys):
    """The --bfile listing is one "m count" pair per line, for eyeball
    comparison against published integer-sequence archives."""
    assert main(["table", "--kind", "walks-path", "--n", "4", "--m-max", "3", "--bfile"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 3", "1 4", "2 8", "3 16"]
    assert main(["table", "--kind", "walks-cycle", "--n", "3", "--m-max", "2", "--bfile"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 3", "1 6", "2 18"]
