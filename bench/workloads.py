"""The four benchmark workloads.

Each workload turns a seed into one *pass*: a list of jobs, each job one
fresh interpreter. A job knows its untraced command, its traced command and
how to check the child's output against a reference computed here, before
any timing, from the oracle (``evaluate_exact``) or the integer matrix
trace (``trace_oracle``) -- never from the closed form being timed.

A job's check returns an ``Outcome``: ops attempted and failed, per-op
latencies, and the busy time that ``ops_per_s`` divides by. An op fails on
a wrong value, a nonzero exit, a mismatch, an exception or a wrong case
count.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable

from trigsum.closed_forms import Family, SumSpec
from trigsum.cotangent import ByrneSmithParams, CotSumParams
from trigsum.oracle import evaluate_exact
from trigsum.walks import GraphKind, GraphSpec, trace_oracle

CHILD = "bench/child.py"
SUM_FAMILIES = [f.value for f in Family]
EVEN_N = {"alternating", "weight-pi3", "ell5-alt-product"}
USES_Q = {"scaled", "coprime", "gcd"}
USES_KIND = USES_Q | {"alternating"}


@dataclass
class RunResult:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float


@dataclass
class Outcome:
    attempted: int
    failed: int
    latencies_ms: list[float]
    busy_s: float
    notes: list[str] = field(default_factory=list)


@dataclass
class Job:
    argv: list[str]
    traced_argv: list[str]
    check: Callable[[RunResult], Outcome]


def _text(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _decimal(value: Fraction, digits: int) -> str:
    # exact rendering, round half to even
    sign = "-" if value < 0 else ""
    q, r = divmod(abs(value.numerator) * 10**digits, value.denominator)
    if 2 * r > value.denominator or (2 * r == value.denominator and q % 2):
        q += 1
    text = str(q).rjust(digits + 1, "0")
    return sign + (text[:-digits] + "." + text[-digits:] if digits else text)


def _hex(value: Fraction) -> list[str]:
    return [format(value.numerator, "x"), format(value.denominator, "x")]


def _spec_params(rng: random.Random, family: str, m: int, n: int) -> dict:
    """m, n, q, kind satisfying the family's documented constraints."""
    if family in EVEN_N and n % 2:
        n += 1
    if family in ("merca-half", "merca-shifted"):
        m = max(m, 1)
    q = 1
    if family == "scaled":
        q = n * rng.randint(1, 2)
    elif family == "coprime":
        q = rng.choice([c for c in range(1, 2 * n + 2) if gcd(c, n) == 1])
    elif family == "gcd":
        q = rng.randint(1, 2 * n + 1)
    kind = rng.choice(("cos", "sin")) if family in USES_KIND else "cos"
    return {"m": m, "n": n, "q": q, "kind": kind}


def _sum_spec(family: str, p: dict) -> SumSpec:
    return SumSpec(Family(family), p["m"], p["n"], p["q"], p["kind"])


def _child_failed(result: RunResult, attempted: int, what: str) -> Outcome:
    tail = result.stderr.strip().splitlines()[-1:] or [""]
    return Outcome(attempted, attempted, [], result.wall_s, [f"{what}: exit {result.code} {tail[0]}"])


# --- eval_cli ------------------------------------------------------------------

# The README's command-line examples with their literal outputs.
README_EXAMPLES = [
    ({"family": "C", "m": 2, "n": 3}, "9/8\n"),
    ({"family": "cot", "n": 3, "k": 4}, "2\n"),
    ({"family": "barbero", "m": 12, "n": 3}, "3798310\n"),
    ({"family": "C", "m": 2, "n": 3, "digits": 4}, "9/8\n1.1250\n"),
    (
        {"family": "quoniam", "m": 2, "n": 4, "json": True},
        '{"family": "quoniam", "params": {"m": 2, "n": 4}, "value": {"num": 7, "den": 1}}\n',
    ),
]


class EvalCli:
    """Small ``trigsum eval`` requests, one fresh interpreter each."""

    name = "eval_cli"

    def __init__(self, seed: int, smoke: bool = False, plant_fault: bool = False) -> None:
        self.min_ops = 1 if smoke else 100  # so that ten latencies lie beyond p90
        rng = random.Random(seed)
        requests = [dict(req, readme=text) for req, text in README_EXAMPLES]
        requests += [self._random_request(rng) for _ in range(2 if smoke else 15)]
        rng.shuffle(requests)
        self._references: dict[tuple, Fraction] = {}
        self.jobs = []
        for index, req in enumerate(requests):
            expected = self._expected(req)
            if plant_fault and index == 0:
                expected += "planted\n"
            self.jobs.append(self._job(req, expected))

    @staticmethod
    def _random_request(rng: random.Random) -> dict:
        family = rng.choice(SUM_FAMILIES + ["cot", "byrne-smith"])
        if family == "cot":
            req = {"family": family, "n": rng.randint(1, 4), "k": rng.randint(2, 12)}
        elif family == "byrne-smith":
            req = {"family": family, "n": rng.randint(1, 4), "k": rng.randint(1, 8)}
        elif family == "quoniam":
            n = rng.randint(1, 8)
            req = {"family": family, "m": rng.randint(1, n), "n": n}
        else:
            params = _spec_params(rng, family, rng.randint(0, 12), rng.randint(1, 8))
            req = {"family": family, "m": params["m"], "n": params["n"]}
            if family in USES_Q:
                req["q"] = params["q"]
            if family in USES_KIND:
                req["kind"] = params["kind"]
        mode = rng.choice(("plain", "digits", "json", "json-digits"))
        if "digits" in mode:
            req["digits"] = rng.randint(0, 12)
        if mode.startswith("json"):
            req["json"] = True
        return req

    def _reference(self, req: dict) -> Fraction:
        family = req["family"]
        if family == "cot":
            request = CotSumParams(req["n"], req["k"])
        elif family == "byrne-smith":
            request = ByrneSmithParams(req["n"], req["k"])
        else:
            request = SumSpec(
                Family(family), req["m"], req["n"], req.get("q", 1), req.get("kind", "cos")
            )
        if request not in self._references:
            self._references[request] = evaluate_exact(request)
        return self._references[request]

    def _expected(self, req: dict) -> str:
        value = self._reference(req)
        digits = req.get("digits")
        if not req.get("json"):
            return _text(value) + "\n" + ("" if digits is None else _decimal(value, digits) + "\n")
        # the CLI reports every parameter it holds; q and kind have defaults
        params = {"m": req.get("m"), "n": req.get("n"), "q": req.get("q", 1),
                  "k": req.get("k"), "kind": req.get("kind", "cos")}
        payload = {
            "family": req["family"],
            "params": {k: v for k, v in params.items() if v is not None},
            "value": {"num": value.numerator, "den": value.denominator},
        }
        if digits is not None:
            payload["decimal"] = _decimal(value, digits)
        return json.dumps(payload) + "\n"

    @staticmethod
    def _argv(req: dict) -> list[str]:
        argv = ["eval", "--family", req["family"]]
        for key in ("m", "n", "q", "k", "kind", "digits"):
            if key in req:
                argv += [f"--{key}", str(req[key])]
        if req.get("json"):
            argv.append("--json")
        return argv

    def _job(self, req: dict, expected: str) -> Job:
        argv = self._argv(req)

        def check(result: RunResult) -> Outcome:
            latency = [result.wall_s * 1000]
            if result.code != 0:
                return _child_failed(result, 1, " ".join(argv))
            notes = []
            wrong = result.stdout != expected
            readme = req.get("readme")
            if readme is not None and result.stdout != readme:
                if req.get("json"):
                    # The README's JSON example omits the q and kind keys the
                    # CLI prints; compare the fields it does show.
                    shown, got = json.loads(readme), json.loads(result.stdout)
                    wrong |= any(got.get(k) != shown[k] for k in ("family", "value"))
                    wrong |= any(got["params"].get(k) != v for k, v in shown["params"].items())
                    notes.append("README quoniam --json line differs from the CLI output byte-wise")
                else:
                    wrong = True
            if wrong:
                notes.append(f"{' '.join(argv)}: got {result.stdout!r}, expected {expected!r}")
            return Outcome(1, int(wrong), latency, result.wall_s, notes)

        return Job(["-m", "trigsum", *argv], [CHILD, "--trace", "cli", *argv], check)


# --- verify workloads -----------------------------------------------------------

def _verify_check(expected_cases: int):
    def check(result: RunResult) -> Outcome:
        if result.code != 0:
            return _child_failed(result, expected_cases, "verify")
        try:
            report = json.loads(result.stdout)
            cases = report["cases"]
            reported_mismatches = report["summary"]["mismatches"]
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome(expected_cases, expected_cases, [], result.wall_s, [f"verify: bad report {exc!r}"])
        mismatches = sum(
            not case["match"] or case["closed_form"] != case["oracle"] for case in cases
        )
        miscount = abs(len(cases) - expected_cases)
        failed = min(expected_cases, mismatches + miscount)
        notes = []
        if miscount:
            notes.append(f"verify: {len(cases)} cases, expected {expected_cases}")
        if mismatches or reported_mismatches:
            notes.append(f"verify: {mismatches} mismatching cases (report says {reported_mismatches})")
            failed = max(failed, 1)
        latencies = [(c["micros_closed"] + c["micros_oracle"]) / 1000 for c in cases]
        return Outcome(expected_cases, failed, latencies, result.wall_s, notes)

    return check


def _verify_job(args: list[str], expected_cases: int) -> Job:
    argv = ["verify", "--jobs", "1", "--json", *args]
    return Job(
        ["-m", "trigsum", *argv],
        [CHILD, "--trace", "cli", *argv],
        _verify_check(expected_cases),
    )


def sum_grid_cases(families: list[str], m_range: range, n_max: int) -> int:
    """Case count of ``verify`` over SumSpec families, from the documented
    grid (q in 1..2n+1 where read, cos and sin where read) and constraints."""
    count = 0
    for family in families:
        for kind in ("cos", "sin") if family in USES_KIND else ("cos",):
            for m in m_range:
                for n in range(1, n_max + 1):
                    for q in range(1, 2 * n + 2) if family in USES_Q else (1,):
                        ok = {
                            "scaled": q % n == 0,
                            "coprime": gcd(n, q) == 1,
                            "quoniam": 1 <= m <= n,
                            "merca-half": m >= 1,
                            "merca-shifted": m >= 1,
                        }.get(family, True)
                        count += ok and not (family in EVEN_N and n % 2)
    return count


class VerifyDefault:
    """The literal default ``trigsum verify --jobs 1`` grid; seed-independent."""

    name = "verify_default"
    min_ops = 1
    CASES = 2547  # every family's default grid; fewer means the grid shrank

    def __init__(self, seed: int, smoke: bool = False, plant_fault: bool = False) -> None:
        args, cases = [], self.CASES
        if smoke:
            # C: m 0..2 x n 1..2; cot: n 1..2 x k 2..3; byrne-smith: n 1..2 x k 1..3
            args, cases = ["--family", "C,cot,byrne-smith", "--m-max", "2", "--n-max", "2", "--k-max", "3"], 16
        self.jobs = [_verify_job(args, cases + int(plant_fault))]


class VerifyOracle:
    """Every SumSpec family over a seeded three-wide m window near 200, n <= 24."""

    name = "verify_oracle"
    min_ops = 1

    def __init__(self, seed: int, smoke: bool = False, plant_fault: bool = False) -> None:
        rng = random.Random(seed)
        m_lo, width, n_max = (rng.randint(195, 205), 3, 24) if not smoke else (20, 1, 3)
        ms = range(m_lo, m_lo + width)
        args = [
            "--family", ",".join(SUM_FAMILIES),
            "--m-min", str(ms.start), "--m-max", str(ms.stop - 1), "--n-max", str(n_max),
        ]
        cases = sum_grid_cases(SUM_FAMILIES, ms, n_max)
        self.jobs = [_verify_job(args, cases + int(plant_fault))]


# --- closed_large_m ---------------------------------------------------------------

CLOSED_KINDS = SUM_FAMILIES + ["path", "cycle", "resolvent"]


class ClosedLargeM:
    """Seeded library calls at large m. Per call kind, one m near the middle
    of each of four log-uniform strata of 500..3200, each stratum with its
    own n in 6..9: the seed moves every m (and picks cos/sin, q and order)
    but hardly the spread of sizes, so ops_per_s and the percentiles
    compare across seeds."""

    name = "closed_large_m"

    def __init__(self, seed: int, smoke: bool = False, plant_fault: bool = False) -> None:
        self.min_ops = 1 if smoke else 100
        rng = random.Random(seed)
        m_lo, m_hi, strata = (20, 60, 1) if smoke else (500, 3200, 4)
        calls = []
        for index, kind in enumerate(CLOSED_KINDS):
            for stratum in range(strata):
                position = (stratum + 0.45 + 0.1 * rng.random()) / strata
                m = round(m_lo * (m_hi / m_lo) ** position)
                n = 6 + (index + stratum) % 4
                calls.append(self._call(rng, kind, m, n))
        rng.shuffle(calls)
        self.calls = calls
        self.references = [self._reference(call, rng) for call in calls]
        if plant_fault:
            index, value = self.references[0][0]
            self.references[0][0] = (index, [value[0] + "1", value[1]])
        spec = json.dumps(calls)
        self.jobs = [Job([CHILD, "calls", spec], [CHILD, "--trace", "calls", spec], self._check)]

    @staticmethod
    def _call(rng: random.Random, kind: str, m: int, n: int) -> dict:
        if kind == "path":
            return {"fn": "path", "n": n, "m": m}
        if kind == "cycle":
            return {"fn": "cycle", "n": n | 1, "m": m}
        if kind == "resolvent":
            return {"fn": "resolvent", "kind": rng.choice(("cos", "sin")), "n": n, "order": m // 12}
        if kind == "quoniam":
            # needs n >= m; the oracle sums n/2 terms, so keep m at the low end
            m = min(m, 500 + rng.randint(0, 300))
            return {"fn": "evaluate", "family": kind, "m": m, "n": m + rng.randint(0, 8), "q": 1, "kind": "cos"}
        return {"fn": "evaluate", "family": kind, **_spec_params(rng, kind, m, n)}

    @staticmethod
    def _reference(call: dict, rng: random.Random) -> list[tuple[int | None, list[str]]]:
        """(coefficient index or None, expected hex pair) items to compare."""
        fn = call["fn"]
        if fn == "evaluate":
            return [(None, _hex(evaluate_exact(_sum_spec(call["family"], call))))]
        if fn in ("path", "cycle"):
            graph = GraphSpec(GraphKind.PATH if fn == "path" else GraphKind.CYCLE, call["n"])
            return [(None, _hex(Fraction(trace_oracle(graph, 2 * call["m"]))))]
        # resolvent: coefficient j is C(j, n)/n (resp. S); check the last and two more
        family = "C" if call["kind"] == "cos" else "S"
        order = call["order"]
        picks = sorted({order, rng.randint(0, order), rng.randint(0, order)})
        return [
            (j, _hex(evaluate_exact(SumSpec(Family(family), j, call["n"])) / call["n"]))
            for j in picks
        ]

    def _check(self, result: RunResult) -> Outcome:
        attempted = len(self.calls)
        if result.code != 0:
            return _child_failed(result, attempted, "calls")
        try:
            rows = json.loads(result.stdout)
        except ValueError as exc:
            return Outcome(attempted, attempted, [], result.wall_s, [f"calls: bad output {exc!r}"])
        if len(rows) != attempted:
            return Outcome(attempted, attempted, [], result.wall_s, [f"calls: {len(rows)} results"])
        failed, notes = 0, []
        for call, row, reference in zip(self.calls, rows, self.references):
            value = row.get("value")
            ok = value is not None and all(
                (value if index is None else value[index]) == expected
                for index, expected in reference
            )
            if call["fn"] == "resolvent" and ok:
                ok = len(value) == call["order"] + 1
            if not ok:
                failed += 1
                notes.append(f"{call}: {row.get('error', 'wrong value')}")
        latencies = [row["ns"] / 1e6 for row in rows]
        return Outcome(attempted, failed, latencies, sum(latencies) / 1000, notes)


WORKLOADS = {cls.name: cls for cls in (EvalCli, VerifyDefault, VerifyOracle, ClosedLargeM)}
