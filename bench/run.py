"""trigsum benchmark harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 bench/run.py --selftest

Run from the root of a checkout. Every job is a fresh interpreter started
with this interpreter, PYTHONPATH=src and TRIGSUM_JOBS removed, so every
lru cache and the Bernoulli table start cold. ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` alternates untraced and traced jobs and
reports the per-layer metrics. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the full record, with
provenance, goes to .bench_out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_LAUNCHES = 11
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MiB",
}

# Main metric of each layer on the workload it dominates: a zero here means
# a wrapper missed its lookup site, not that the layer got free.
MUST_BE_NONZERO = {
    "eval_cli": ("import.mpmath_ms", "import.trigsum_ms", "cli.self_ms", "closed_forms.calls"),
    "verify_default": (
        "cli.self_ms",
        "cotangent.cot_power_sum.calls",
        "cotangent.byrne_smith.ms",
        "oracle.denominator_bound.ms",
        "oracle.evaluate_exact.calls",
    ),
    "verify_oracle": ("closed_forms.calls", "oracle.direct_sum.calls", "oracle.direct_sum.ms", "oracle.reconstruct.ms"),
    "closed_large_m": (
        "exact_core.calls",
        "closed_forms.primary_ms",
        "closed_forms.crosscheck_ms",
        "genfunc.self_ms",
        "walks.self_ms",
    ),
}


def _child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("TRIGSUM_JOBS", None)
    return env


def run_child(argv: list[str]):
    """Run ``python argv`` from the checkout root; wall time and peak RSS of
    that one process (from wait4), stdout and stderr."""
    from workloads import RunResult

    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        env=_child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return RunResult(proc.returncode, out.decode(), err[0].decode(), wall, usage.ru_maxrss / 1024)


def setup_sample() -> float:
    """Wall time of one fresh ``python -c 'import trigsum.cli'``."""
    result = run_child(["-c", "import trigsum.cli"])
    if result.code != 0:
        raise RuntimeError(f"import trigsum.cli failed: {result.stderr.strip()}")
    return result.wall_s


def done(start: float, last_pass_s: float, seconds: float) -> bool:
    """Stop at the pass boundary nearest to ``seconds``: another pass would
    end more than half a pass late."""
    return time.perf_counter() - start + last_pass_s / 2 >= seconds


class Tally:
    """Ops, failures and notes over every checked job of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        for note in outcome.notes:
            if note not in self.notes and len(self.notes) < 50:
                self.notes.append(note)


def quantile(samples: list[float], q: float) -> float:
    """The mean of the order statistics within 1% of rank q*(n-1), at least
    one on each side. Verify reports per-case times in whole microseconds,
    so a single order statistic would often repeat exactly between runs."""
    ordered = sorted(samples)
    rank = round(q * (len(ordered) - 1))
    half = max(1, len(ordered) // 100)
    window = ordered[max(0, rank - half): rank + half + 1]
    return sum(window) / len(window)


def run_untraced(workload, seconds: float, tally: Tally) -> dict:
    """Whole passes for about ``seconds`` (and at least min_ops ops). The
    set-up launches are spread over the run, one per seconds/SETUP_LAUNCHES,
    so that their median and the workload's see the same machine."""
    latencies: list[float] = []
    rates: list[float] = []
    setup: list[float] = []
    rss = 0.0
    setup_sample()  # may compile bytecode; not kept
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        ops, busy = 0, 0.0
        for job in workload.jobs:
            result = run_child(job.argv)
            outcome = job.check(result)
            tally.add(outcome)
            latencies += outcome.latencies_ms
            ops += outcome.attempted - outcome.failed
            busy += outcome.busy_s
            rss = max(rss, result.rss_mb)
            due = (time.perf_counter() - start) * SETUP_LAUNCHES / max(seconds, 1)
            while len(setup) < min(due, SETUP_LAUNCHES):
                setup.append(setup_sample())
        rates.append(ops / busy)
        if done(start, time.perf_counter() - pass_start, seconds) and len(latencies) >= workload.min_ops:
            break
    while len(setup) < SETUP_LAUNCHES:
        setup.append(setup_sample())
    return {
        "metrics": {
            "setup_s": statistics.median(setup),
            "ops_per_s": statistics.median(rates),
            "op_ms.p50": quantile(latencies, 0.5),
            "op_ms.p90": quantile(latencies, 0.9),
            "peak_rss_mb": rss,
        },
        "samples": {"passes": len(rates), "latencies": len(latencies), "setup_launches": len(setup)},
    }


def run_traced(workload, seconds: float, tally: Tally) -> dict:
    """Whole passes, each job run untraced then traced, until ``seconds``."""
    records, imports = [], []
    plain_s = traced_s = 0.0
    passes = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for job in workload.jobs:
            plain = run_child(job.argv)
            tally.add(job.check(plain))
            traced = run_child(job.traced_argv)
            tally.add(job.check(traced))
            lines = [ln for ln in traced.stderr.splitlines() if ln.startswith("TRACE ")]
            if not lines:
                raise RuntimeError(f"traced job left no trace: {traced.stderr.strip()[-500:]}")
            record = json.loads(lines[-1][len("TRACE "):])
            records.append(record)
            imports.append(tuple(record["import_ms"]))
            plain_s += plain.wall_s
            traced_s += traced.wall_s
        passes += 1
        if done(start, time.perf_counter() - pass_start, seconds):
            break
    merged = tracer.merge(records)
    metrics = tracer.layer_metrics(merged, passes, imports, traced_s / plain_s)
    return {
        "metrics": metrics,
        "samples": {"passes": passes, "traced_processes": len(records)},
        "unpatched": merged["unpatched"],
        "traced_wall_ms_per_pass": traced_s * 1000 / passes,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def provenance(seed: int, seconds: int, trace: int) -> dict:
    import mpmath.libmp

    return {
        "python": platform.python_version(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_workload(name: str, seed: int, seconds: int, trace: int,
                 smoke: bool = False, plant_fault: bool = False) -> dict:
    import workloads

    workload = workloads.WORKLOADS[name](seed, smoke=smoke, plant_fault=plant_fault)
    tally = Tally()
    record = {"workload": name, "provenance": provenance(seed, seconds, trace)}
    if trace:
        run = run_traced(workload, seconds, tally)
        units = tracer.PER_LAYER_UNITS
        zero = [m for m in MUST_BE_NONZERO[name] if not run["metrics"][m]]
        if zero:
            tally.notes.append(f"traced layer metrics read zero: {zero}")
        record["unpatched_sites"] = run["unpatched"]
        record["traced_wall_ms_per_pass"] = run["traced_wall_ms_per_pass"]
    else:
        run = run_untraced(workload, seconds, tally)
        units = END_TO_END_UNITS
        zero = []
    record["samples"] = run["samples"]
    record["attempted"] = tally.attempted
    record["failed"] = tally.failed
    record["fail_ratio"] = tally.failed / tally.attempted
    record["notes"] = tally.notes
    record["result"] = {
        "correct": tally.failed == 0 and not zero,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": run["metrics"][k], "unit": units[k]} for k in units},
    }
    return record


def write_record(record: dict) -> Path:
    prov = record["provenance"]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{record['workload']}-seed{prov['seed']}-trace{prov['trace']}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path


def print_summary(record: dict) -> None:
    name = record["workload"]
    for metric, entry in record["result"]["metrics"].items():
        print(f"{name:>15}  {metric:<38} {entry['value']:>14.6g} {entry['unit']}")
    print(f"{name:>15}  {'fail_ratio':<38} {record['fail_ratio']:>14.6g} ratio"
          f"  ({record['failed']}/{record['attempted']} ops)")
    print(f"{name:>15}  samples {json.dumps(record['samples'])}")
    for note in record["notes"]:
        print(f"{name:>15}  note: {note}")


def selftest() -> int:
    """Tiny inputs: every metric name and unit is emitted in both modes and
    matches BENCHMARK.json, a clean run has fail_ratio 0, and a planted
    wrong reference raises it above 0."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert declared[0] == END_TO_END_UNITS, "end_to_end in BENCHMARK.json out of date"
    assert declared[1] == tracer.PER_LAYER_UNITS, "per_layer in BENCHMARK.json out of date"
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            record = run_workload(name, 1, 0, trace, smoke=True)
            result = record["result"]
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != declared[trace]:
                problems.append(f"{name} trace={trace}: metrics {sorted(emitted)}")
            if not result["correct"] or record["fail_ratio"] != 0:
                problems.append(f"{name} trace={trace}: clean run failed: {record['notes']}")
        planted = run_workload(name, 1, 0, 0, smoke=True, plant_fault=True)
        if not planted["fail_ratio"] > 0 or planted["result"]["correct"]:
            problems.append(f"{name}: planted wrong reference not detected")
        print(f"selftest {name}: planted fail_ratio {planted['fail_ratio']:.3g}")
    for problem in problems:
        print(f"selftest FAIL {problem}")
    print("selftest " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "trigsum" / "__init__.py").is_file():
        print(f"error: no trigsum package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.selftest:
        return selftest()
    if args.workload not in (*workloads.WORKLOADS, "all"):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, args.trace)
        print_summary(record)
        print(f"{name:>15}  record {write_record(record).relative_to(ROOT)}")
        print(json.dumps({"provenance": record["provenance"], "samples": record["samples"]}))
        results.append(record["result"])
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{name}/{metric}": entry
                for name, r in zip(names, results)
                for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
