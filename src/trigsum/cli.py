"""Command-line frontend: evaluate sums, run closed-form-vs-oracle
verification campaigns, emit coefficient/walk tables, and benchmark.

Exit codes: 0 success, 1 verification mismatch (or internal arithmetic
failure), 2 usage error. Machine output (--json) always renders exact
values as {"num": ..., "den": ...} integer pairs; human output prints
"p/q", collapsing to a bare integer when the denominator is 1.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from collections.abc import Callable
from fractions import Fraction
from functools import partial
from math import prod
from typing import NamedTuple

from . import closed_forms as cf
from . import cotangent as ct
from . import exact_core as ec
from . import genfunc as gf
from . import oracle as oc
from . import walks as wk
from .errors import CostGuardError, ParameterError, check_int
from .families import ByrneSmithParams, CotSumParams, Family, SumSpec
from .genfunc import MAX_TABLE_INDEX

__all__ = ["main", "run_bench"]

# token -> (the arguments its request reads, in report order; the request
# type built from them). Each request type is a record of families, whose
# constructor checks its arguments, raising ParameterError, and it answers
# token, params(), sort_key() and closed_value().
_REQUEST_FAMILIES = {
    **{f.value: (f.param_names, partial(SumSpec, f)) for f in Family},
    "cot": (("n", "k"), CotSumParams),
    "byrne-smith": (("n", "k"), ByrneSmithParams),
}
# Cost guard on the raw points of a verify grid, counted before any point
# is built. On the 20 SumSpec families at m = 200..202, n <= 24 (7,422
# cases), a built point held about 80 bytes and its case record about
# 1.6 KB, and a case took 0.08 to 0.12 ms of wall time on average (closed
# form plus oracle, with the campaign's memos; 0.6 to 0.9 s in all, 2-vCPU
# Xeon VM), so 10^6 such points are about 1.6 GB and 2 minutes, more at
# larger m; larger grids are refused with CostGuardError. The default grid
# has 3,660 points.
MAX_CASES = 10**6


def _alternating_request(kind: str):
    """Builder of the alternating sum over N = 2n points that the
    middle-range errata misstate, from their (m, n)."""
    return lambda m, n: SumSpec(Family.ALTERNATING, m, 2 * n, kind=kind)


class _Erratum(NamedTuple):
    """A documented erratum. It is no request: _errata_run compares its
    published expression with the oracle value of the sum it misstates at
    every point of its grid."""

    names: tuple  # the arguments it reads, in report order
    misstated: Callable  # builder of the request of the sum it misstates
    published: Callable  # the published expression; it builds that request itself
    grid: tuple  # the reproducer's points, as values of names
    holds: Callable  # (printed, truth, **point) -> the documented relation holds
    note: str  # formatted with the last point's printed, truth and difference


# (m, n) with n <= m < 2n = N: the middle range the alternating errata misstate
_MIDDLE_RANGE = tuple((m, n) for n in range(1, 7) for m in range(n, 2 * n))

_ERRATA_FAMILIES = {
    "barbero-naive": _Erratum(
        ("m", "n"), partial(SumSpec, Family.BARBERO_R), cf.barbero_R_naive, ((12, 3),),
        # closed form and oracle both 3798310, the single branch 18216 short
        lambda printed, truth, m, n: cf.barbero_R(m, n) == truth == 3798310 and printed == 3780094,
        "corrected value {truth}, single-branch value {printed}, "
        "difference {difference} (documented: 18216)",
    ),
    "alt-cos-middle": _Erratum(
        ("m", "n"), _alternating_request("cos"), cf.alternating_cos_middle_erratum, _MIDDLE_RANGE,
        lambda printed, truth, m, n: truth == n * printed and (truth == printed) == (n == 1),
        "middle-range expression is off by the factor n (exact at n = 1 only)",
    ),
    "alt-sin-middle": _Erratum(
        ("m", "n"), _alternating_request("sin"), cf.alternating_sin_middle_erratum, _MIDDLE_RANGE,
        lambda printed, truth, m, n: truth == (-1) ** n * n * printed and truth != printed,
        "middle-range expression is off by the factor n and the sign (-1)^n",
    ),
    "cot-all-positive": _Erratum(
        ("n", "k"), CotSumParams, ct.cot_power_sum_all_positive,
        tuple((n, k) for n in range(1, 5) for k in range(2, 9)),
        lambda printed, truth, n, k: truth != printed,
        "strictly-positive-index reading collapses to (-1)^n * k, wrong everywhere",
    ),
    "byrne-smith-printed": _Erratum(
        ("n", "k"), ByrneSmithParams, ct.byrne_smith_sum_uncorrected, ((1, 2),),
        lambda printed, truth, n, k: truth == 6 and printed == 10,
        "published closed form gives {printed} at (n=1, k=2); true value {truth}",
    ),
}


# Cost guard on --digits, checked before the value is computed. Rendering is
# quadratic in the digit count once the int-to-str limit is lifted: 10^5 places
# took 0.3 s and 10^6 places 19 s for a whole `trigsum eval` run (2-vCPU Xeon VM).
MAX_DIGITS = 10**5


def _decimal_string(value: Fraction, digits: int) -> str:
    """Exact decimal rendering to ``digits`` places, rounding half to even."""
    sign = "-" if value < 0 else ""
    num, den = abs(value).numerator, abs(value).denominator
    q, r = divmod(num * 10**digits, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    text = str(q)
    if digits:
        text = text.rjust(digits + 1, "0")
        text = text[:-digits] + "." + text[-digits:]
    return sign + text


def _lift_int_str_limit() -> None:
    # exact values can run past the default 4,300-digit limit on int <-> str
    # conversion, which would make printing them raise ValueError
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


def _fraction_text(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _value_json(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


# --- verify campaign -------------------------------------------------------

def _verify_case(req) -> dict:
    """One campaign case: closed form and oracle, timed, compared."""
    t0 = time.perf_counter_ns()
    try:
        closed = req.closed_value()
        closed_text = _fraction_text(closed)
    except ArithmeticError as exc:
        closed, closed_text = None, f"error: {exc}"
    micros_closed = (time.perf_counter_ns() - t0) // 1000
    t0 = time.perf_counter_ns()
    try:
        exact = oc.evaluate_exact(req)
        oracle_text = _fraction_text(exact)
    except ArithmeticError as exc:
        exact, oracle_text = None, f"error: {exc}"
    micros_oracle = (time.perf_counter_ns() - t0) // 1000
    return {
        "spec": {"family": req.token, **req.params()},
        "closed_form": closed_text,
        "oracle": oracle_text,
        "match": closed is not None and closed == exact,
        "micros_closed": micros_closed,
        "micros_oracle": micros_oracle,
    }


def _grid_size(names: tuple, ranges: dict) -> int:
    # q sweeps 2n+1 values per n: sum(2n+1) = len(n) * (n_first + n_last + 1)
    size = prod(len(ranges[name]) for name in names if name not in ("n", "q"))
    n = ranges["n"]
    if "q" in names:
        return size * len(n) * (n[0] + n[-1] + 1) if n else 0
    return size * len(n)


def _grid_requests(families: list[str], args) -> list:
    """All requests of the families inside the argument ranges: m, n and k
    sweep their ranges, q sweeps 1..2n+1 and kind cos and sin, each where
    the family reads it. Points outside a family's domain are dropped. A
    grid of more than MAX_CASES raw points, counted from the range lengths
    before any point is built, and a point past a cost guard (cotangent
    n > MAX_N, m > MAX_M) raise CostGuardError.
    """
    ranges = {
        "m": range(args.m_min, args.m_max + 1),
        # n = 0 is barbero's; _grid_size's q count needs n >= 0
        "n": range(max(args.n_min, 0), args.n_max + 1),
        "k": range(args.k_min, args.k_max + 1),
        "kind": ("cos", "sin"),
    }
    size = sum(_grid_size(_REQUEST_FAMILIES[family][0], ranges) for family in families)
    if size > MAX_CASES:
        raise CostGuardError(f"the verify grid has {size} points; at most {MAX_CASES} (cost guard)")
    requests = []
    for family in families:
        names, build = _REQUEST_FAMILIES[family]
        points = [{}]
        for name in names:  # q, whose range depends on n, always follows n
            points = [
                {**point, name: value}
                for point in points
                for value in (range(1, 2 * point["n"] + 2) if name == "q" else ranges[name])
            ]
        for point in points:
            try:
                requests.append(build(**point))
            except CostGuardError:
                raise
            except ParameterError:  # outside the family's domain
                continue
    return requests


def ProcessPoolExecutor(max_workers: int):
    """concurrent.futures.ProcessPoolExecutor, imported when a pool starts:
    it loads all of multiprocessing, which only verify --jobs > 1 needs."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers, initializer=_lift_int_str_limit)


def _run_cases(requests: list, jobs: int) -> list[dict]:
    requests = sorted(requests, key=lambda req: req.sort_key())
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1 and len(requests) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_verify_case, requests, chunksize=16))
    return [_verify_case(req) for req in requests]


# --- documented-errata cases ----------------------------------------------

def _errata_run(family: str) -> tuple[list[dict], bool, str]:
    """Run one documented-erratum reproducer over its grid.

    Returns (case records, reproduced?, note). ``reproduced`` means the
    documented relation between printed and true value holds at every
    point; a silent match (or a differently shaped mismatch) counts as NOT
    reproduced.
    """
    erratum = _ERRATA_FAMILIES[family]
    cases: list[dict] = []
    reproduced = True
    for values in erratum.grid:
        point = dict(zip(erratum.names, values))
        truth = oc.evaluate_exact(erratum.misstated(**point))
        printed = erratum.published(**point)
        cases.append(
            {
                "spec": {"family": family, **point},
                "closed_form": _fraction_text(printed),
                "oracle": _fraction_text(truth),
                "match": printed == truth,
                "micros_closed": 0,
                "micros_oracle": 0,
            }
        )
        reproduced = erratum.holds(printed, truth, **point) and reproduced
    note = erratum.note.format(printed=printed, truth=truth, difference=truth - printed)
    return cases, reproduced, note


# --- subcommands -----------------------------------------------------------

def _eval_request(family: str, given: dict):
    """(request, thunk computing its closed value) for one family token and
    the given arguments; the request is None for an erratum token."""
    entry = _REQUEST_FAMILIES.get(family) or _ERRATA_FAMILIES.get(family)
    if entry is None:
        raise ParameterError(f"unknown family {family!r}")
    names, build = entry[:2]
    for name in names:
        if given.get(name) is None:
            raise ParameterError(f"--family {family} requires --{name}")
    arguments = {name: given[name] for name in names}
    if family in _ERRATA_FAMILIES:
        return None, partial(entry.published, **arguments)
    request = build(**arguments)
    return request, request.closed_value


def cmd_eval(args) -> int:
    given = {key: getattr(args, key) for key in ("m", "n", "q", "k", "kind")}
    _, thunk = _eval_request(args.family, given)
    if (args.digits or 0) < 0:
        raise ParameterError("digits must be non-negative")
    if (args.digits or 0) > MAX_DIGITS:
        raise CostGuardError(f"digits must be <= {MAX_DIGITS} (cost guard)")
    value = thunk()
    if args.json:
        payload = {
            "family": args.family,
            "params": {key: val for key, val in given.items() if val is not None},
            "value": _value_json(value),
        }
        if args.digits is not None:
            payload["decimal"] = _decimal_string(value, args.digits)
        print(json.dumps(payload))
    else:
        print(_fraction_text(value))
        if args.digits is not None:
            print(_decimal_string(value, args.digits))
    return 0


def cmd_verify(args) -> int:
    if args.jobs < 1:
        raise ParameterError("--jobs must be at least 1")
    # a repeated token runs once, at its first place
    families = list(dict.fromkeys(args.family.split(","))) if args.family else list(_REQUEST_FAMILIES)
    for family in families:
        if family not in _REQUEST_FAMILIES and family not in _ERRATA_FAMILIES:
            raise ParameterError(f"unknown family {family!r}")
    normal = [f for f in families if f in _REQUEST_FAMILIES]
    errata = [f for f in families if f in _ERRATA_FAMILIES]
    if errata and not args.expect_known_errata:
        raise ParameterError(
            "errata families need --expect-known-errata (their mismatches are the point)"
        )
    if args.expect_known_errata and not errata:
        errata = list(_ERRATA_FAMILIES)

    requests = _grid_requests(normal, args)
    if not requests and not errata:  # total=0 would report a check that never ran
        raise ParameterError("the verify grid selects no case")
    cases = _run_cases(requests, args.jobs)
    mismatches = sum(not case["match"] for case in cases)

    all_reproduced = True
    notes: list[str] = []
    for family in errata:
        err_cases, reproduced, note = _errata_run(family)
        cases.extend(err_cases)
        notes.append(f"{family}: {note}")
        if not reproduced:
            all_reproduced = False
            notes.append(f"{family}: NOT reproduced as documented")

    report = {
        "cases": cases,
        "summary": {"total": len(cases), "mismatches": sum(not c["match"] for c in cases)},
    }
    _emit_report(report, notes, args)
    if args.expect_known_errata:
        return 0 if (mismatches == 0 and all_reproduced) else 1
    return 0 if mismatches == 0 else 1


def _emit_report(report: dict, notes: list[str], args) -> None:
    if args.out:
        with open(args.out, "w") as sink:
            if args.out.endswith(".csv"):
                _write_case_csv(sink, report["cases"])
            else:
                json.dump(report, sink, indent=2)
                sink.write("\n")
    if args.json:
        print(json.dumps(report))
        return
    for case in report["cases"]:
        spec = case["spec"]
        params = " ".join(f"{k}={v}" for k, v in spec.items() if k != "family")
        status = "ok" if case["match"] else "MISMATCH"
        print(
            f"{spec['family']:>18} {params:<24} closed={case['closed_form']} "
            f"oracle={case['oracle']} [{status}]"
        )
    for note in notes:
        print(f"note: {note}")
    summary = report["summary"]
    print(f"total={summary['total']} mismatches={summary['mismatches']}")


def _write_case_csv(sink, cases: list[dict]) -> None:
    writer = csv.writer(sink)
    writer.writerow(
        ["family", "params", "closed_form", "oracle", "match", "micros_closed", "micros_oracle"]
    )
    for case in cases:
        spec = case["spec"]
        params = ";".join(f"{k}={v}" for k, v in spec.items() if k != "family")
        writer.writerow(
            [
                spec["family"],
                params,
                case["closed_form"],
                case["oracle"],
                case["match"],
                case["micros_closed"],
                case["micros_oracle"],
            ]
        )


class _TableKind(NamedTuple):
    """A `table --kind`. Every kind requires --n. Its row builder looks up
    gf, wk and ct when called."""

    index: str | None  # the option bounding the row index, or None
    bfile: bool  # whether --bfile applies
    header: tuple
    rows: Callable  # (n, last index) -> the rows, as tuples in header order


def _sigma_rows(kind: str):
    return lambda n, k_max: enumerate(gf.sigma_table(kind, n, k_max))


def _walk_rows(graph: wk.GraphKind):
    return lambda n, m_max: enumerate(wk.closed_walk_counts(graph, n, m_max))


_TABLE_KINDS = {
    "sigma": _TableKind("k-max", False, ("k", "value"), _sigma_rows("cos")),
    "sigma-minus": _TableKind("k-max", False, ("k", "value"), _sigma_rows("sin")),
    "walks-path": _TableKind("m-max", True, ("m", "count"), _walk_rows(wk.GraphKind.PATH)),
    "walks-cycle": _TableKind("m-max", True, ("m", "count"), _walk_rows(wk.GraphKind.CYCLE)),
    "cot-poly": _TableKind(
        None, False, ("j", "coefficient"),
        lambda n, _: enumerate(ct.cot_sum_polynomial(n).coefficients),
    ),
}


def _cell_json(value):
    return _value_json(value) if isinstance(value, Fraction) else int(value)


def cmd_table(args) -> int:
    """Check the kind's arguments, then build its rows once: the index
    guard and --bfile are refused before any row is built."""
    table = _TABLE_KINDS[args.kind]
    if args.n is None:
        raise ParameterError(f"--kind {args.kind} requires --n")
    last = None
    if table.index:
        last = getattr(args, table.index.replace("-", "_"))
        if last < 0:
            raise ParameterError(f"--{table.index} must be non-negative")
        if last > MAX_TABLE_INDEX:
            raise CostGuardError(f"--{table.index} must be <= {MAX_TABLE_INDEX} (cost guard)")
    if args.bfile and not table.bfile:
        raise ParameterError("--bfile only applies to walks tables")
    if args.bfile and args.json:
        raise ParameterError("--bfile and --json cannot be combined")
    rows = table.rows(args.n, last)
    if args.bfile:
        text = "\n".join(f"{m} {count}" for m, count in rows)
    elif args.json:
        text = json.dumps([dict(zip(table.header, map(_cell_json, row))) for row in rows])
    else:
        sink = io.StringIO()
        writer = csv.writer(sink)
        writer.writerow(table.header)
        writer.writerows(map(_fraction_text, row) for row in rows)
        text = sink.getvalue().rstrip("\n")
    if args.out:
        with open(args.out, "w") as sink:
            sink.write(text + "\n")
    else:
        print(text)
    return 0


def run_bench(args_family: str, m: int | None, n: int | None, k: int | None,
              with_oracle: bool, repeat: int) -> dict:
    """Measure closed-form (and optionally oracle) wall time for one case.

    Returns {family, params, micros_closed, micros_oracle?, equal?}; the
    closed-form time is the minimum over ``repeat`` runs, at least one and
    at most MAX_TABLE_INDEX of them.
    """
    check_int("repeat", repeat)
    if repeat < 1:
        raise ParameterError("repeat must be >= 1")
    if repeat > MAX_TABLE_INDEX:
        raise CostGuardError(f"repeat must be <= {MAX_TABLE_INDEX} (cost guard)")
    given = {"m": m, "n": n, "q": 1, "k": k, "kind": "cos"}
    request, thunk = _eval_request(args_family, given)
    best = None
    value = None
    for _ in range(repeat):
        cf.clear_caches()
        ct.clear_caches()
        ec.clear_caches()
        t0 = time.perf_counter_ns()
        value = thunk()
        elapsed = time.perf_counter_ns() - t0
        best = elapsed if best is None else min(best, elapsed)
    result = {
        "family": args_family,
        "params": {key: val for key, val in (("m", m), ("n", n), ("k", k)) if val is not None},
        "micros_closed": best // 1000,
    }
    if with_oracle:
        if request is None:
            raise ParameterError("oracle timing is not defined for erratum families")
        best_oracle = None
        for _ in range(repeat):
            oc.clear_caches()
            t0 = time.perf_counter_ns()
            exact = oc.evaluate_exact(request)
            elapsed = time.perf_counter_ns() - t0
            best_oracle = elapsed if best_oracle is None else min(best_oracle, elapsed)
        result["micros_oracle"] = best_oracle // 1000
        result["equal"] = exact == value
    return result


def cmd_bench(args) -> int:
    result = run_bench(args.family, args.m, args.n, args.k, args.with_oracle, args.repeat)
    if args.json:
        print(json.dumps(result))
        return 0
    params = " ".join(f"{k}={v}" for k, v in result["params"].items())
    line = f"{result['family']} {params}: closed {result['micros_closed']} us"
    if "micros_oracle" in result:
        line += f", oracle {result['micros_oracle']} us, equal={result['equal']}"
    print(line)
    return 0


# --- argument parsing -------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigsum",
        description="Exact trigonometric power sums, cotangent sums, series "
        "coefficients, and closed-walk counts, with an interval-arithmetic "
        "verification oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", help="machine-readable output")

    p_eval = sub.add_parser("eval", parents=[shared], help="evaluate one sum exactly")
    p_eval.add_argument("--family", required=True, choices=[*_REQUEST_FAMILIES, *_ERRATA_FAMILIES])
    p_eval.add_argument("--m", type=int)
    p_eval.add_argument("--n", type=int)
    p_eval.add_argument("--q", type=int, default=1)
    p_eval.add_argument("--k", type=int)
    p_eval.add_argument("--kind", choices=["cos", "sin"], default="cos")
    p_eval.add_argument("--digits", type=int, help="also print an exact decimal rendering")
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser(
        "verify", parents=[shared], help="closed form vs oracle campaign"
    )
    p_verify.add_argument(
        "--family",
        help="comma-separated family tokens (default: every regular family)",
    )
    p_verify.add_argument("--m-min", type=int, default=0)
    p_verify.add_argument("--m-max", type=int, default=8)
    p_verify.add_argument("--n-min", type=int, default=1)
    p_verify.add_argument("--n-max", type=int, default=6)
    p_verify.add_argument("--k-min", type=int, default=1, help="cot/byrne-smith k lower bound")
    p_verify.add_argument("--k-max", type=int, default=8, help="cot/byrne-smith k upper bound")
    p_verify.add_argument(
        "--jobs", type=int, default=1, help="worker processes, at least 1 and at most the CPU count"
    )
    p_verify.add_argument("--out", help="write the report to FILE (.csv or JSON)")
    p_verify.add_argument(
        "--expect-known-errata",
        action="store_true",
        help="also run documented-erratum reproducers; exit 0 only if each "
        "reproduces its documented discrepancy",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", parents=[shared], help="emit coefficient/walk tables")
    p_table.add_argument("--kind", required=True, choices=list(_TABLE_KINDS))
    p_table.add_argument("--n", type=int)
    p_table.add_argument("--k-max", type=int, default=10)
    p_table.add_argument("--m-max", type=int, default=10)
    p_table.add_argument("--out", help="write the table to FILE")
    p_table.add_argument(
        "--bfile",
        action="store_true",
        help="walks tables only: plain 'm count' lines for sequence-archive comparison",
    )
    p_table.set_defaults(func=cmd_table)

    p_bench = sub.add_parser("bench", parents=[shared], help="time closed form vs oracle")
    p_bench.add_argument("--family", required=True, choices=list(_REQUEST_FAMILIES))
    p_bench.add_argument("--m", type=int)
    p_bench.add_argument("--n", type=int)
    p_bench.add_argument("--k", type=int)
    p_bench.add_argument("--repeat", type=int, default=5)
    p_bench.add_argument("--with-oracle", action="store_true")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _lift_int_str_limit()
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"arithmetic failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
