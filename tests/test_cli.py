"""Command-line behavior: output formats, exit codes, report schema,
determinism under concurrency."""

import concurrent.futures
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from trigsum import cli
from trigsum.cli import _decimal_string, main, run_bench
from trigsum.closed_forms import Family, SumSpec, evaluate
from trigsum.errors import ParameterError

F = Fraction


# --- eval ---------------------------------------------------------------------

def test_eval_basic_cos(capsys):
    assert main(["eval", "--family", "C", "--m", "2", "--n", "3"]) == 0
    assert capsys.readouterr().out.strip() == "9/8"


def test_eval_integer_prints_bare_in_human_mode(capsys):
    assert main(["eval", "--family", "quoniam", "--m", "2", "--n", "4"]) == 0
    assert capsys.readouterr().out.strip() == "7"


def test_eval_cot(capsys):
    assert main(["eval", "--family", "cot", "--n", "3", "--k", "4"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_eval_cot_beyond_enumeration(capsys):
    """n = 12 would be about 1.25e9 composition terms; the series answers
    at once (cot^24(pi/4) + cot^24(3pi/4) = 2)."""
    assert main(["eval", "--family", "cot", "--n", "12", "--k", "4"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cot_cost_guard_is_a_usage_error(capsys):
    assert main(["eval", "--family", "cot", "--n", "101", "--k", "4"]) == 2
    assert "cost guard" in capsys.readouterr().err
    assert main(["verify", "--family", "cot", "--n-max", "101", "--k-max", "3"]) == 2
    assert "cost guard" in capsys.readouterr().err


def test_sum_cost_guard_is_a_usage_error(capsys):
    assert main(["eval", "--family", "C", "--m", "1000000000", "--n", "1"]) == 2
    assert "cost guard" in capsys.readouterr().err


def test_ell5_weight_at_large_n_is_evaluated(capsys):
    """eval of the ell5 cos2/cos4 weights past n = 1,000 prints the value:
    one window pass, whose cost does not grow with n."""
    for family in (Family.ELL5_COS2, Family.ELL5_COS4):
        value = evaluate(SumSpec(family, 2003, 1001))
        assert value != 0
        argv = ["eval", "--family", family.value, "--m", "2003", "--n", "1001"]
        assert main(argv) == 0
        assert capsys.readouterr().out == f"{value.numerator}/{value.denominator}\n"
    assert main(["eval", "--family", "ell5-cos2", "--m", "3000", "--n", "100000"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_digits_cost_guard_is_a_usage_error(capsys):
    """Past MAX_DIGITS places --digits exits 2 before any rendering."""
    argv = ["eval", "--family", "C", "--m", "2", "--n", "3", "--digits"]
    assert main([*argv, str(cli.MAX_DIGITS)]) == 0
    assert len(capsys.readouterr().out) == len("9/8\n1.\n") + cli.MAX_DIGITS
    assert main([*argv, "1000000000"]) == 2
    assert "cost guard" in capsys.readouterr().err


@pytest.mark.parametrize(
    "digits, message",
    [("-1", "digits must be non-negative"), (str(cli.MAX_DIGITS + 1), "(cost guard)")],
)
def test_digits_are_checked_before_the_value_is_computed(digits, message, capsys, monkeypatch):
    """A negative or oversized --digits exits 2 with nothing on stdout, and
    the value is never computed."""

    def computed(spec):
        raise AssertionError("value computed")

    monkeypatch.setattr(SumSpec, "closed_value", computed)
    assert main(["eval", "--family", "C", "--m", "2", "--n", "3", "--digits", digits]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_verify_grid_cost_guard_refuses_before_building(capsys, monkeypatch):
    """A grid past MAX_CASES exits 2 from its range lengths alone; no point
    of the 6*10^8 is built."""

    def build(**point):
        raise AssertionError("grid point built")

    monkeypatch.setitem(cli._REQUEST_FAMILIES, "cot", (("n", "k"), build))
    assert main(["verify", "--family", "cot", "--k-max", "100000000"]) == 2
    assert "has 600000000 points" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, size",
    [
        ([], 3660),
        (["--m-max", "24", "--n-max", "12", "--k-max", "16"], 30984),
        (["--m-min", "195", "--m-max", "207", "--n-max", "24", "--k-max", "0"], 54288),
        (["--m-min", "5", "--m-max", "4"], 6 * 8 * 2),  # only cot and byrne-smith
    ],
)
def test_verify_grid_guard_counts_raw_points(argv, size, capsys, monkeypatch):
    """The guard counts every raw point of every family, q's 2n+1 per n
    included, before validation drops any."""
    monkeypatch.setattr(cli, "MAX_CASES", size - 1)
    assert main(["verify", *argv]) == 2
    assert f"has {size} points" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family, argv",
    [
        ("barbero-naive", ["--m", "1000000000", "--n", "1"]),
        ("alt-cos-middle", ["--m", "1000000000", "--n", "700000000"]),
        ("alt-sin-middle", ["--m", "200000", "--n", "150000"]),
        ("cot-all-positive", ["--n", "1000000000", "--k", "3"]),
        ("byrne-smith-printed", ["--n", "1000000000", "--k", "3"]),
    ],
)
def test_erratum_tokens_obey_the_misstated_sums_cost_guards(family, argv, capsys):
    """An erratum token is validated as the request of the sum it misstates
    before its published expression runs."""
    assert main(["eval", "--family", family, *argv]) == 2
    assert "cost guard" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family, given",
    [
        ("barbero-naive", {"m": True, "n": 3}),
        ("alt-cos-middle", {"m": 1, "n": True}),
        ("alt-sin-middle", {"m": 2.0, "n": 2}),
        ("cot-all-positive", {"n": 1, "k": True}),
        ("byrne-smith-printed", {"n": True, "k": 2}),
    ],
)
def test_erratum_tokens_reject_non_int_parameters(family, given):
    with pytest.raises(ParameterError):
        _, thunk = cli._eval_request(family, given)
        thunk()


def test_eval_barbero(capsys):
    assert main(["eval", "--family", "barbero", "--m", "12", "--n", "3"]) == 0
    assert capsys.readouterr().out.strip() == "3798310"


def test_eval_erratum_families_evaluable(capsys):
    assert main(["eval", "--family", "barbero-naive", "--m", "12", "--n", "3"]) == 0
    assert capsys.readouterr().out.strip() == "3780094"
    assert main(["eval", "--family", "byrne-smith-printed", "--n", "1", "--k", "2"]) == 0
    assert capsys.readouterr().out.strip() == "10"


def test_values_past_the_int_str_limit_print(capsys):
    """C(10^4, 7) has over 12,000 digits, past Python's default 4,300-digit
    limit on int-to-str conversion; eval, eval --json and verify print it."""
    value = evaluate(SumSpec(Family.COS_POWER, 10_000, 7))
    text = f"{value.numerator}/{value.denominator}"
    assert len(text) > 12_000
    argv = ["--family", "C", "--m", "10000", "--n", "7"]
    assert main(["eval", *argv]) == 0
    assert capsys.readouterr().out == text + "\n"
    assert main(["eval", *argv, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert F(payload["value"]["num"], payload["value"]["den"]) == value
    grid = ["--m-min", "10000", "--m-max", "10000", "--n-min", "7", "--n-max", "7"]
    assert main(["verify", "--family", "C", *grid, "--json"]) == 0
    (case,) = json.loads(capsys.readouterr().out)["cases"]
    assert case["closed_form"] == case["oracle"] == text


def test_eval_json_schema(capsys):
    assert main(["eval", "--family", "C", "--m", "2", "--n", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["family"] == "C"
    assert payload["value"] == {"num": 9, "den": 8}
    assert payload["params"]["m"] == 2 and payload["params"]["n"] == 3
    assert "decimal" not in payload


def test_eval_json_value_keeps_den_one(capsys):
    assert main(["eval", "--family", "quoniam", "--m", "2", "--n", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == {"num": 7, "den": 1}


def test_eval_digits(capsys):
    assert main(["eval", "--family", "C", "--m", "2", "--n", "3", "--digits", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["9/8", "1.1250"]
    assert main(
        ["eval", "--family", "C", "--m", "2", "--n", "3", "--digits", "2", "--json"]
    ) == 0
    assert json.loads(capsys.readouterr().out)["decimal"] == "1.12"
    # past the 4,300-digit int-to-str limit, which main lifts
    assert main(["eval", "--family", "cot", "--n", "1", "--k", "3", "--digits", "5000"]) == 0
    assert capsys.readouterr().out.splitlines() == ["2/3", "0." + "6" * 4999 + "7"]


def test_eval_missing_parameter_is_usage_error(capsys):
    assert main(["eval", "--family", "C", "--m", "2"]) == 2
    assert "requires --n" in capsys.readouterr().err


def test_eval_invalid_parameter_is_usage_error(capsys):
    assert main(["eval", "--family", "scaled", "--m", "2", "--n", "3", "--q", "4"]) == 2


def test_eval_unknown_family_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--family", "nope", "--m", "1", "--n", "1"])
    assert exc.value.code == 2


def test_decimal_string_half_to_even():
    assert _decimal_string(F(9, 8), 6) == "1.125000"
    assert _decimal_string(F(1, 2), 0) == "0"
    assert _decimal_string(F(3, 2), 0) == "2"
    assert _decimal_string(F(5, 2), 0) == "2"
    assert _decimal_string(F(7, 2), 0) == "4"
    assert _decimal_string(F(1, 8), 2) == "0.12"
    assert _decimal_string(F(3, 8), 2) == "0.38"
    assert _decimal_string(F(-9, 8), 3) == "-1.125"
    assert _decimal_string(F(0), 2) == "0.00"
    assert _decimal_string(F(2, 3), 5) == "0.66667"


# --- verify -------------------------------------------------------------------

def test_verify_degenerate_grid(capsys):
    assert main(["verify", "--family", "C", "--m-max", "0", "--n-max", "5"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if "[ok]" in line]
    assert len(lines) == 5
    assert "total=5 mismatches=0" in out


@pytest.mark.parametrize(
    "family, errata",
    [("C,C", False), ("cot,cot", False), ("S,C,S", False), ("barbero-naive,barbero-naive", True)],
)
def test_verify_runs_a_repeated_family_once(family, errata, capsys):
    """A token given twice runs once, at its first place: the report equals
    that of the tokens without repeats."""
    grid = ["--m-max", "1", "--n-max", "1", "--k-min", "2", "--k-max", "3"]
    flags = ["--expect-known-errata"] if errata else []
    once = ",".join(dict.fromkeys(family.split(",")))
    assert main(["verify", "--family", once, *grid, *flags]) == 0
    expected = capsys.readouterr().out
    assert main(["verify", "--family", family, *grid, *flags]) == 0
    assert capsys.readouterr().out == expected
    assert main(["verify", "--family", "C,C", "--m-max", "1", "--n-max", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "total=2 mismatches=0"


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "C", "--m-min", "3", "--m-max", "2"],
        ["--family", "cot", "--k-min", "9", "--k-max", "2"],
        ["--family", "quoniam", "--m-min", "30", "--m-max", "30", "--n-max", "6"],
        ["--family", "C,cot", "--m-min", "3", "--m-max", "2", "--k-min", "9", "--k-max", "2"],
    ],
)
def test_verify_refuses_a_grid_that_selects_no_case(argv, capsys):
    """A grid that builds no request and runs no erratum checks nothing, so
    it exits 2 instead of reporting total=0 as a success: an empty range,
    or points all outside the family's domain (quoniam needs m <= n)."""
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the verify grid selects no case\n"


def test_verify_runs_errata_beside_an_empty_grid(capsys):
    """Errata alone are a valid run, with or without an empty grid beside
    them."""
    assert main(["verify", "--family", "barbero-naive", "--expect-known-errata"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "total=1 mismatches=1"
    argv = ["verify", "--family", "C,barbero-naive", "--m-min", "3", "--m-max", "2"]
    assert main([*argv, "--expect-known-errata"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "total=1 mismatches=1"


def test_verify_grid_reaches_barbero_at_n_zero(capsys):
    """--n-min 0 reaches barbero's n = 0, the one family defined there, and
    other families drop the point; a negative --n-min is clamped to 0."""
    argv = ["verify", "--family", "barbero,C", "--m-max", "3", "--n-max", "0", "--n-min"]
    assert main([*argv, "0"]) == 0
    out = capsys.readouterr().out
    assert main([*argv, "-5"]) == 0
    assert capsys.readouterr().out == out
    lines = out.splitlines()
    assert lines[-1] == "total=4 mismatches=0"
    assert all(line.split()[:3] == ["barbero", f"m={m}", "n=0"] for m, line in enumerate(lines[:4]))
    assert "closed=1 oracle=1 [ok]" in lines[0]


def test_verify_report_schema(capsys):
    assert main(
        ["verify", "--family", "C,S", "--m-max", "2", "--n-max", "2", "--json"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"cases", "summary"}
    assert set(report["summary"]) == {"total", "mismatches"}
    assert report["summary"]["total"] == 12
    assert report["summary"]["mismatches"] == 0
    for case in report["cases"]:
        assert set(case) == {
            "spec",
            "closed_form",
            "oracle",
            "match",
            "micros_closed",
            "micros_oracle",
        }
        assert case["match"] is True
        assert case["closed_form"] == case["oracle"]


def test_verify_order_is_deterministic_across_jobs(capsys, monkeypatch):
    """--jobs 3 on two CPUs starts a real two-worker process pool and
    reports what --jobs 1 reports."""
    pools = []

    def recording_pool(max_workers):
        pools.append(start_pool(max_workers))
        return pools[-1]

    start_pool = cli.ProcessPoolExecutor
    monkeypatch.setattr(cli, "ProcessPoolExecutor", recording_pool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    args = ["verify", "--family", "C,S,cot", "--m-max", "3", "--n-max", "3", "--json"]
    assert main(args + ["--jobs", "1"]) == 0
    sequential = json.loads(capsys.readouterr().out)
    assert pools == []
    assert main(args + ["--jobs", "3"]) == 0
    parallel = json.loads(capsys.readouterr().out)
    assert len(pools) == 1
    assert isinstance(pools[0], concurrent.futures.ProcessPoolExecutor)
    strip = lambda report: [
        {k: v for k, v in case.items() if not k.startswith("micros")}
        for case in report["cases"]
    ]
    assert strip(sequential) == strip(parallel)
    # sorted by family token, then parameters
    families = [case["spec"]["family"] for case in sequential["cases"]]
    assert families == sorted(families)


def test_verify_detects_injected_mismatch(capsys, monkeypatch):
    """A wrong closed-form value must flip the exit code to 1."""
    monkeypatch.setattr(SumSpec, "closed_value", lambda self: F(1, 7))
    assert main(["verify", "--family", "C", "--m-max", "1", "--n-max", "2", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["mismatches"] == report["summary"]["total"] == 4


def test_verify_jobs_clamped_to_cpu_count(capsys, monkeypatch):
    """--jobs never asks for more workers than CPUs; no real pool starts."""
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    args = ["verify", "--family", "C", "--m-max", "1", "--n-max", "2"]
    assert main(args + ["--jobs", "10000"]) == 0
    assert pools == [2]
    assert main(args + ["--jobs", "1"]) == 0
    assert pools == [2]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert main(args + ["--jobs", "4"]) == 0
    assert pools == [2]
    capsys.readouterr()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_jobs_below_one_is_a_usage_error(jobs, capsys, monkeypatch):
    """--jobs below 1 exits 2 before any case runs; the help says so."""
    monkeypatch.setattr(cli, "_verify_case", lambda req: pytest.fail("case ran"))
    assert main(["verify", "--family", "C", "--m-max", "1", "--n-max", "2", "--jobs", jobs]) == 2
    assert capsys.readouterr() == ("", "error: --jobs must be at least 1\n")
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "--jobs JOBS worker processes, at least 1" in " ".join(capsys.readouterr().out.split())


def test_verify_unknown_family_is_usage_error(capsys):
    assert main(["verify", "--family", "trigonometry"]) == 2


def test_verify_errata_family_requires_flag(capsys):
    assert main(["verify", "--family", "barbero-naive"]) == 2


def test_verify_expect_known_errata_single(capsys):
    code = main(
        ["verify", "--family", "barbero-naive", "--expect-known-errata", "--json"]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["summary"]["total"] == 1
    assert report["summary"]["mismatches"] == 1  # the mismatch is the point
    case = report["cases"][0]
    assert case["closed_form"] == "3780094"
    assert case["oracle"] == "3798310"


def test_verify_expect_known_errata_all(capsys):
    code = main(["verify", "--family", ",".join(cli._ERRATA_FAMILIES),
                 "--expect-known-errata"])
    out = capsys.readouterr().out
    assert code == 0
    assert "note:" in out
    assert "18216" in out


@pytest.mark.parametrize("family", list(cli._ERRATA_FAMILIES))
def test_every_erratum_can_fail(family, capsys, monkeypatch):
    """A reproducer whose true values move no longer reproduces: every
    oracle value is shifted by +1, and for cot-all-positive (never equal,
    which a shift keeps) the oracle returns the published (-1)^n * k."""
    evaluate_exact = cli.oc.evaluate_exact
    if family == "cot-all-positive":
        monkeypatch.setattr(cli.oc, "evaluate_exact", lambda req: F((-1) ** req.n * req.k))
    else:
        monkeypatch.setattr(cli.oc, "evaluate_exact", lambda req: evaluate_exact(req) + 1)
    assert main(["verify", "--family", family, "--expect-known-errata"]) == 1
    assert f"{family}: NOT reproduced as documented" in capsys.readouterr().out


def test_verify_out_file(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    assert main(
        ["verify", "--family", "C", "--m-max", "1", "--n-max", "1", "--out", str(out_json)]
    ) == 0
    capsys.readouterr()
    stored = json.loads(out_json.read_text())
    assert stored["summary"] == {"total": 2, "mismatches": 0}
    out_csv = tmp_path / "report.csv"
    assert main(
        ["verify", "--family", "C", "--m-max", "1", "--n-max", "1", "--out", str(out_csv)]
    ) == 0
    header = out_csv.read_text().splitlines()[0]
    assert header.startswith("family,params,closed_form,oracle,match")


# --- table --------------------------------------------------------------------

def test_table_sigma_csv(capsys):
    assert main(["table", "--kind", "sigma", "--n", "3", "--k-max", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,value"
    assert lines[1] == "0,0"
    assert lines[4] == "3,1/720"
    assert len(lines) == 8


def test_table_sigma_minus_json(capsys):
    assert main(
        ["table", "--kind", "sigma-minus", "--n", "3", "--k-max", "3", "--json"]
    ) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[3] == {"k": 3, "value": {"num": -1, "den": 720}}


def test_table_walks_path(capsys):
    assert main(["table", "--kind", "walks-path", "--n", "4", "--m-max", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "m,count"
    assert lines[1:] == ["0,3", "1,4", "2,8", "3,16"]


def test_table_walks_bfile(capsys):
    assert main(
        ["table", "--kind", "walks-path", "--n", "4", "--m-max", "3", "--bfile"]
    ) == 0
    assert capsys.readouterr().out.splitlines() == ["0 3", "1 4", "2 8", "3 16"]


def test_table_walks_cycle_json(capsys):
    assert main(
        ["table", "--kind", "walks-cycle", "--n", "3", "--m-max", "2", "--json"]
    ) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows == [
        {"m": 0, "count": 3},
        {"m": 1, "count": 6},
        {"m": 2, "count": 18},
    ]


def test_table_cot_poly(capsys):
    assert main(["table", "--kind", "cot-poly", "--n", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "j,coefficient"
    assert lines[1] == "0,-26/45"
    assert lines[2] == "1,1"
    assert lines[3] == "2,-4/9"
    assert lines[4] == "3,0"
    assert lines[5] == "4,1/45"


def test_table_out_file(tmp_path, capsys):
    target = tmp_path / "sigma.csv"
    assert main(
        ["table", "--kind", "sigma", "--n", "3", "--k-max", "3", "--out", str(target)]
    ) == 0
    capsys.readouterr()
    assert target.read_text().splitlines()[0] == "k,value"


@pytest.mark.parametrize(
    "kind, bound, builder",
    [
        # the per-value functions and the table builder, which builds every row
        ("sigma", "--k-max", "gf.sigma,gf.sigma_table"),
        ("sigma-minus", "--k-max", "gf.sigma_minus,gf.sigma_table"),
        # the per-value counter and the table builder, which builds every row
        ("walks-path", "--m-max", "wk.path_closed_walks,wk.closed_walk_counts"),
        ("walks-cycle", "--m-max", "wk.cycle_closed_walks,wk.closed_walk_counts"),
    ],
    ids=lambda value: value.split(",")[0],
)
def test_table_cost_guard_refuses_before_building(kind, bound, builder, capsys, monkeypatch):
    """A table whose last index passes MAX_TABLE_INDEX exits 2 before any
    row is built by any of the named builders; one at the bound is built."""
    monkeypatch.setattr(cli, "MAX_TABLE_INDEX", 3)
    argv = ["table", "--kind", kind, "--n", "3"]
    assert main([*argv, bound, "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5

    def build(*args):
        raise AssertionError("table row built")

    for target in builder.split(","):
        module, name = target.split(".")
        monkeypatch.setattr(getattr(cli, module), name, build)
    for extra in ([], ["--json"], ["--bfile"] if kind.startswith("walks") else []):
        assert main([*argv, bound, "4", *extra]) == 2
        assert f"{bound} must be <= 3 (cost guard)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, bound, n",
    [("sigma", "--k-max", "2"), ("sigma-minus", "--k-max", "2"),
     ("walks-path", "--m-max", "3"), ("walks-cycle", "--m-max", "3")],
)
def test_table_negative_last_index_is_refused(kind, bound, n, capsys, monkeypatch):
    """A negative --k-max/--m-max exits 2 before any row is built, where it
    used to print a header-only table and exit 0."""

    def build(*args):
        raise AssertionError("table row built")

    for name in ("sigma", "sigma_minus", "sigma_table"):
        monkeypatch.setattr(cli.gf, name, build)
    for name in ("path_closed_walks", "cycle_closed_walks", "closed_walk_counts"):
        monkeypatch.setattr(cli.wk, name, build)
    for extra in ([], ["--json"], ["--bfile"] if kind.startswith("walks") else []):
        for value in ("-1", "-3"):
            assert main(["table", "--kind", kind, "--n", n, bound, value, *extra]) == 2
            assert f"{bound} must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("kind, n", [("walks-cycle", "999999999"), ("walks-path", "1000000000")])
def test_walk_table_with_n_past_m_max_builds_no_row(kind, n, capsys, monkeypatch):
    """A walks table whose n passes --m-max prints its central-binomial
    rows at once: no residue row of n entries is built."""

    def no_rows(*args):
        raise AssertionError("residue row built")

    monkeypatch.setattr(cli.ec, "_residue_rows", no_rows)
    for m_max in ("0", "5"):
        for extra in ([], ["--bfile"]):
            assert main(["table", "--kind", kind, "--n", n, "--m-max", m_max, *extra]) == 0
            assert len(capsys.readouterr().out.strip().splitlines()) >= int(m_max) + 1


def test_table_usage_errors(capsys):
    assert main(["table", "--kind", "sigma"]) == 2  # missing --n
    assert main(["table", "--kind", "sigma", "--n", "3", "--bfile"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["table", "--kind", "nope", "--n", "3"])
    assert exc.value.code == 2
    capsys.readouterr()
    for kind in cli._TABLE_KINDS:
        assert main(["table", "--kind", kind]) == 2
        assert capsys.readouterr().err == f"error: --kind {kind} requires --n\n"


@pytest.mark.parametrize("kind", ["sigma", "sigma-minus", "cot-poly"])
def test_table_bfile_refused_before_building(kind, capsys, monkeypatch):
    """--bfile on a table other than walks exits 2 before any row is built."""

    def build(*args):
        raise AssertionError("table row built")

    for name in ("sigma", "sigma_minus", "sigma_table"):
        monkeypatch.setattr(cli.gf, name, build)
    monkeypatch.setattr(cli.ct, "cot_sum_polynomial", build)
    for extra in ([], ["--json"], ["--k-max", "1000"]):
        assert main(["table", "--kind", kind, "--n", "3", "--bfile", *extra]) == 2
        assert capsys.readouterr().err == "error: --bfile only applies to walks tables\n"


@pytest.mark.parametrize("kind", ["walks-path", "walks-cycle"])
def test_table_bfile_with_json_refused_before_building(kind, capsys, monkeypatch):
    """--bfile with --json on a walks table exits 2 before any row is
    built, rather than printing the b-file and dropping --json."""

    def build(*args):
        raise AssertionError("table row built")

    monkeypatch.setattr(cli.wk, "closed_walk_counts", build)
    assert main(["table", "--kind", kind, "--n", "5", "--m-max", "3", "--bfile", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --bfile and --json cannot be combined\n"


def test_table_walks_bfile_out_file(tmp_path, capsys):
    target = tmp_path / "walks.txt"
    argv = ["table", "--kind", "walks-path", "--n", "4", "--m-max", "3", "--bfile"]
    assert main([*argv, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == "0 3\n1 4\n2 8\n3 16\n"


def test_parser_choices_are_the_registry_keys():
    """A table kind or family token is in its registry and in the parser's
    choices at once, or in neither."""
    commands = next(a for a in cli._build_parser()._actions if a.dest == "command").choices

    def choices(command, dest):
        return next(a for a in commands[command]._actions if a.dest == dest).choices

    assert choices("table", "kind") == list(cli._TABLE_KINDS)
    assert choices("eval", "family") == [*cli._REQUEST_FAMILIES, *cli._ERRATA_FAMILIES]
    assert choices("bench", "family") == list(cli._REQUEST_FAMILIES)


# --- bench --------------------------------------------------------------------

def test_bench_reports_timing(capsys):
    assert main(
        ["bench", "--family", "C", "--m", "50", "--n", "7", "--repeat", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "closed" in out and "us" in out


def test_bench_with_oracle_asserts_equality(capsys):
    assert main(
        [
            "bench",
            "--family",
            "C",
            "--m",
            "30",
            "--n",
            "5",
            "--with-oracle",
            "--repeat",
            "2",
            "--json",
        ]
    ) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["equal"] is True
    assert result["micros_closed"] >= 0
    assert result["micros_oracle"] > 0


def test_bench_cot(capsys):
    assert main(
        ["bench", "--family", "cot", "--n", "5", "--k", "12", "--repeat", "1"]
    ) == 0
    assert "closed" in capsys.readouterr().out


def test_bench_repeat_cost_guard_refuses_before_running(capsys, monkeypatch):
    """--repeat past MAX_TABLE_INDEX exits 2 before the request is built."""

    def build(*args):
        raise AssertionError("bench request built")

    monkeypatch.setattr(cli, "_eval_request", build)
    argv = ["bench", "--family", "C", "--m", "2", "--n", "3", "--repeat"]
    assert main([*argv, str(cli.MAX_TABLE_INDEX + 1)]) == 2
    assert "cost guard" in capsys.readouterr().err


@pytest.mark.parametrize("repeat", ["0", "-4"])
def test_bench_repeat_below_one_is_refused(repeat, capsys, monkeypatch):
    """--repeat 0 or below exits 2 before the request is built, where it
    used to run once and exit 0; run_bench refuses it too."""

    def build(*args):
        raise AssertionError("bench request built")

    monkeypatch.setattr(cli, "_eval_request", build)
    assert main(["bench", "--family", "C", "--m", "2", "--n", "3", "--repeat", repeat]) == 2
    assert "repeat must be >= 1" in capsys.readouterr().err
    with pytest.raises(ParameterError, match="repeat"):
        run_bench("C", 2, 3, None, False, int(repeat))


def test_run_bench_machinery():
    result = run_bench("C", 20, 7, None, True, 3)
    assert result["equal"] is True
    assert set(result) == {"family", "params", "micros_closed", "micros_oracle", "equal"}


def test_run_bench_starts_the_bernoulli_table_cold():
    from trigsum import exact_core

    exact_core.bernoulli(40)
    run_bench("C", 20, 7, None, False, 1)
    assert len(exact_core._SHARED_CACHE) == 1


def test_run_bench_walks_the_window_on_every_repeat(monkeypatch):
    """Each repeat times a cold closed form: the window memo is cleared
    before it, so C(200, 7) walks its window once per repeat, where a warm
    memo would walk it once in all and time a hit."""
    from trigsum import closed_forms

    windows = []
    real_window = closed_forms.binom_window
    monkeypatch.setattr(closed_forms, "binom_window", lambda m, n: windows.append((m, n)) or real_window(m, n))
    run_bench("C", 200, 7, None, False, 3)
    assert windows == [(200, 7)] * 3


# --- README examples ------------------------------------------------------------

def _readme_eval_examples():
    """(argv, printed lines) for every `$ trigsum eval ...` line of the README."""
    lines = (Path(__file__).parent.parent / "README.md").read_text().splitlines()
    examples = []
    for index, line in enumerate(lines):
        if line.startswith("$ trigsum eval "):
            printed = []
            for follower in lines[index + 1:]:
                if follower.startswith(("$ ", "```")):
                    break
                printed.append(follower)
            examples.append((shlex.split(line)[2:], printed))
    return examples


def test_readme_eval_examples_print_as_documented(capsys):
    examples = _readme_eval_examples()
    assert len(examples) >= 5
    for argv, printed in examples:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == "".join(f"{line}\n" for line in printed), argv


# --- module entry point ---------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"


def _run_python(*argv: str) -> subprocess.CompletedProcess:
    """``python argv`` in a fresh interpreter that imports this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_python_dash_m_entry():
    proc = _run_python("-m", "trigsum", "eval", "--family", "C", "--m", "2", "--n", "3")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "9/8"


_START_UP_PROBE = """
import sys

def loaded():
    watched = ("dataclasses", "inspect", "mpmath", "multiprocessing", "trigsum.oracle")
    return sorted(m for m in watched if m in sys.modules)

import trigsum.cli
print(loaded())
assert trigsum.cli.main(["eval", "--family", "C", "--m", "2", "--n", "3"]) == 0
assert trigsum.cli.main(["table", "--kind", "walks-path", "--n", "4", "--m-max", "3"]) == 0
print(loaded())
from trigsum.closed_forms import Family, SumSpec
from trigsum.oracle import evaluate_exact
assert evaluate_exact(SumSpec(Family.COS_POWER, 2, 3)) == 9 / 8
print(loaded())
"""


def test_start_up_imports_neither_mpmath_nor_multiprocessing():
    """Importing the CLI and running eval or table loads the oracle module
    but not mpmath (loaded by the first oracle sum) or multiprocessing
    (loaded when verify starts a pool); dataclasses and inspect are never
    loaded, not even by the oracle's first sum."""
    proc = _run_python("-c", _START_UP_PROBE)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == lines[-2] == "['trigsum.oracle']"
    assert lines[-1] == "['mpmath', 'trigsum.oracle']"
