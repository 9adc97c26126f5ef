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
from fractions import Fraction
from functools import partial
from math import prod

from . import closed_forms as cf
from . import cotangent as ct
from . import exact_core as ec
from . import genfunc as gf
from . import oracle as oc
from . import walks as wk
from .closed_forms import Family, SumSpec
from .cotangent import ByrneSmithParams, CotSumParams
from .errors import CostGuardError, ParameterError, check_int
from .genfunc import MAX_TABLE_INDEX

__all__ = ["main", "run_bench"]

# token -> (the arguments its request reads, in report order; the request
# type built from them). Each request type answers token, params(),
# sort_key(), validate() and closed_value().
_REQUEST_FAMILIES = {
    **{f.value: (tuple(SumSpec(f, 0, 1).params()), partial(SumSpec, f)) for f in Family},
    "cot": (("n", "k"), CotSumParams),
    "byrne-smith": (("n", "k"), ByrneSmithParams),
}
# Cost guard on the raw points of a verify grid, counted before any point
# is built. A built point holds about 300 bytes and a case takes 0.3 to 2 ms
# (closed form plus oracle), so 10^6 points are about 300 MB and 5 to 30
# minutes; larger grids are refused with CostGuardError. The default grid
# has 3,660 points.
MAX_CASES = 10**6


def _alternating_request(kind: str):
    """Builder of the alternating sum over N = 2n points that the
    middle-range errata misstate, from their (m, n)."""
    return lambda m, n: SumSpec(Family.ALTERNATING, m, 2 * n, kind=kind)


# erratum token -> (the arguments it reads; the builder of the request of the
# sum it misstates; the published expression it evaluates, which validates
# that request itself). An erratum is no request: _errata_run compares each
# one with the oracle value of the sum it misstates.
_ERRATA_FAMILIES = {
    "barbero-naive": (("m", "n"), partial(SumSpec, Family.BARBERO_R), cf.barbero_R_naive),
    "alt-cos-middle": (("m", "n"), _alternating_request("cos"), cf.alternating_cos_middle_erratum),
    "alt-sin-middle": (("m", "n"), _alternating_request("sin"), cf.alternating_sin_middle_erratum),
    "cot-all-positive": (("n", "k"), CotSumParams, ct.cot_power_sum_all_positive),
    "byrne-smith-printed": (("n", "k"), ByrneSmithParams, ct.byrne_smith_sum_uncorrected),
}


# Cost guard on --digits. Rendering is quadratic in the digit count once
# the int-to-str limit is lifted: 10^5 places took 0.3 s and 10^6 places
# 19 s for a whole `trigsum eval` run on a 2-vCPU Xeon VM.
MAX_DIGITS = 10**5


def _decimal_string(value: Fraction, digits: int) -> str:
    """Exact decimal rendering to ``digits`` places, rounding half to even."""
    if digits < 0:
        raise ParameterError("digits must be non-negative")
    if digits > MAX_DIGITS:
        raise CostGuardError(f"digits must be <= {MAX_DIGITS} (cost guard)")
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
        "n": range(max(args.n_min, 1), args.n_max + 1),
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
            request = build(**point)
            try:
                request.validate()
            except CostGuardError:
                raise
            except ParameterError:
                continue
            requests.append(request)
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

def _errata_run(family: str) -> tuple[list[dict], bool, list[str]]:
    """Run one documented-erratum reproducer.

    Returns (case records, reproduced?, notes). ``reproduced`` means the
    discrepancy exists and has exactly its documented shape; a silent match
    (or a differently shaped mismatch) counts as NOT reproduced.
    """
    if family not in _ERRATA_FAMILIES:
        raise ParameterError(f"unknown erratum family {family!r}")
    _, misstated, published = _ERRATA_FAMILIES[family]
    cases: list[dict] = []
    notes: list[str] = []
    reproduced = True

    def record(params: dict, wrong: Fraction, truth: Fraction) -> bool:
        match = wrong == truth
        cases.append(
            {
                "spec": {"family": family, **params},
                "closed_form": _fraction_text(wrong),
                "oracle": _fraction_text(truth),
                "match": match,
                "micros_closed": 0,
                "micros_oracle": 0,
            }
        )
        return match

    if family == "barbero-naive":
        truth = cf.barbero_R(12, 3)
        wrong = published(12, 3)
        oracle_truth = oc.evaluate_exact(misstated(12, 3))
        record({"m": 12, "n": 3}, wrong, oracle_truth)
        reproduced = (
            truth == oracle_truth == 3798310
            and wrong == 3780094
            and truth - wrong == 18216
        )
        notes.append(
            f"corrected value {truth}, single-branch value {wrong}, "
            f"difference {truth - wrong} (documented: 18216)"
        )
    elif family in ("alt-cos-middle", "alt-sin-middle"):
        sin = family == "alt-sin-middle"
        for n in range(1, 7):
            for m in range(n, 2 * n):
                truth = oc.evaluate_exact(misstated(m, n))
                wrong = published(m, n)
                matched = record({"m": m, "n": n}, wrong, truth)
                if sin:
                    # truth = (-1)^n * n * printed, never equal
                    if truth != (-1) ** n * n * wrong or matched:
                        reproduced = False
                else:
                    # truth = n * printed, equal exactly when n = 1
                    if truth != n * wrong or matched != (n == 1):
                        reproduced = False
        notes.append(
            "middle-range expression is off by the factor n"
            + (" and the sign (-1)^n" if sin else " (exact at n = 1 only)")
        )
    elif family == "cot-all-positive":
        for n in range(1, 5):
            for k in range(2, 9):
                truth = oc.evaluate_exact(misstated(n, k))
                wrong = published(n, k)
                if record({"n": n, "k": k}, wrong, truth):
                    reproduced = False
        notes.append(
            "strictly-positive-index reading collapses to (-1)^n * k, wrong everywhere"
        )
    else:  # byrne-smith-printed
        truth = oc.evaluate_exact(misstated(1, 2))
        wrong = published(1, 2)
        record({"n": 1, "k": 2}, wrong, truth)
        reproduced = truth == 6 and wrong == 10
        notes.append(
            f"published closed form gives {wrong} at (n=1, k=2); true value {truth}"
        )
    return cases, reproduced, notes


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
        return None, partial(entry[2], **arguments)
    request = build(**arguments)
    return request, request.closed_value


def cmd_eval(args) -> int:
    given = {key: getattr(args, key) for key in ("m", "n", "q", "k", "kind")}
    _, thunk = _eval_request(args.family, given)
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
    families = args.family.split(",") if args.family else list(_REQUEST_FAMILIES)
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

    cases = _run_cases(_grid_requests(normal, args), args.jobs)
    mismatches = sum(not case["match"] for case in cases)

    all_reproduced = True
    notes: list[str] = []
    for family in errata:
        err_cases, reproduced, err_notes = _errata_run(family)
        cases.extend(err_cases)
        notes.extend(f"{family}: {note}" for note in err_notes)
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


_TABLE_KINDS = ("sigma", "sigma-minus", "walks-path", "walks-cycle", "cot-poly")


def _check_table_index(name: str, value: int) -> None:
    if value < 0:
        raise ParameterError(f"--{name} must be non-negative")
    if value > MAX_TABLE_INDEX:
        raise CostGuardError(f"--{name} must be <= {MAX_TABLE_INDEX} (cost guard)")


def cmd_table(args) -> int:
    kind = args.kind
    if kind in ("sigma", "sigma-minus"):
        if args.n is None:
            raise ParameterError("--kind sigma requires --n")
        _check_table_index("k-max", args.k_max)
        rows = [
            {"k": k, "value": gf.sigma_minus(k, args.n) if kind == "sigma-minus" else gf.sigma(k, args.n)}
            for k in range(args.k_max + 1)
        ]
        header = ["k", "value"]
    elif kind in ("walks-path", "walks-cycle"):
        if args.n is None:
            raise ParameterError(f"--kind {kind} requires --n")
        _check_table_index("m-max", args.m_max)
        graph = wk.GraphKind.PATH if kind == "walks-path" else wk.GraphKind.CYCLE
        if args.bfile:
            for line in wk.walk_table_lines(graph, args.n, args.m_max):
                print(line)
            return 0
        counts = wk.closed_walk_counts(graph, args.n, args.m_max)
        rows = [{"m": m, "count": count} for m, count in enumerate(counts)]
        header = ["m", "count"]
    elif kind == "cot-poly":
        if args.n is None:
            raise ParameterError("--kind cot-poly requires --n")
        poly = ct.cot_sum_polynomial(args.n)
        rows = [{"j": j, "coefficient": c} for j, c in enumerate(poly.coefficients)]
        header = ["j", "coefficient"]
    else:
        raise ParameterError(f"unknown table kind {kind!r}")

    if args.bfile:
        raise ParameterError("--bfile only applies to walks tables")

    def cell_json(value):
        return _value_json(value) if isinstance(value, Fraction) else int(value)

    if args.json:
        text = json.dumps([{k: cell_json(v) for k, v in row.items()} for row in rows])
    else:
        sink = io.StringIO()
        writer = csv.writer(sink)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [_fraction_text(v) if isinstance(v, Fraction) else v for v in row.values()]
            )
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
        "--jobs", type=int, default=1, help="worker processes, at most the CPU count"
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
    p_table.add_argument("--kind", required=True, choices=_TABLE_KINDS)
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
