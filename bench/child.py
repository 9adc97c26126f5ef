"""One benchmark job, run in a fresh interpreter with PYTHONPATH=src.

    child.py [--trace] cli ARG...     run ``trigsum ARG...`` in this process
    child.py [--trace] calls JSON     time each library call listed in JSON

``calls`` prints one JSON list to stdout: per call its wall time in ns and
its value as hexadecimal numerator/denominator pairs (or the error). With
``--trace`` the package is wrapped by ``tracer.Tracer`` before the work
starts, and one line ``TRACE {json}`` goes to stderr at the end. The first
statements time ``import mpmath`` and ``import trigsum.cli`` so that the
trace can report the import layer.
"""

import sys
import time

_T0 = time.perf_counter_ns()
import mpmath  # noqa: E402,F401
_T1 = time.perf_counter_ns()
import trigsum.cli  # noqa: E402
_T2 = time.perf_counter_ns()

import json  # noqa: E402
from fractions import Fraction  # noqa: E402


def _encode(value) -> list:
    if isinstance(value, int):
        value = Fraction(value)
    if isinstance(value, Fraction):
        return [format(value.numerator, "x"), format(value.denominator, "x")]
    return [_encode(c) for c in value.coeffs]


def _bind(call: dict):
    """(function, args) for one call spec; names are looked up on the
    package at call time so traced runs see the wrapped functions."""
    fn = call["fn"]
    if fn == "evaluate":
        spec = trigsum.SumSpec(
            trigsum.Family(call["family"]), call["m"], call["n"], call["q"], call["kind"]
        )
        return trigsum.evaluate, (spec,)
    if fn == "path":
        return trigsum.path_closed_walks, (call["n"], call["m"])
    if fn == "cycle":
        return trigsum.cycle_closed_walks, (call["n"], call["m"])
    if fn == "resolvent":
        return trigsum.resolvent_coefficients, (call["kind"], call["n"], call["order"])
    raise ValueError(f"unknown call {fn!r}")


def run_calls(calls: list[dict]) -> int:
    results = []
    for call in calls:
        fn, args = _bind(call)
        start = time.perf_counter_ns()
        try:
            value = fn(*args)
        except Exception as exc:  # recorded as a failed op by the harness
            results.append({"ns": time.perf_counter_ns() - start, "error": repr(exc)})
            continue
        elapsed = time.perf_counter_ns() - start
        results.append({"ns": elapsed, "value": _encode(value)})
    print(json.dumps(results))
    return 0


def main(argv: list[str]) -> int:
    tracer = None
    if argv[0] == "--trace":
        from tracer import Tracer

        argv = argv[1:]
        tracer = Tracer()
        tracer.install()
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        code = trigsum.cli.main(rest)
    elif mode == "calls":
        code = run_calls(json.loads(rest[0]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    if tracer is not None:
        sys.stdout.flush()
        record = tracer.record()
        record["import_ms"] = [(_T1 - _T0) / 1e6, (_T2 - _T1) / 1e6]
        print("TRACE " + json.dumps(record), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
