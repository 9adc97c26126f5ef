"""Per-layer tracing of the trigsum package, applied from outside it.

``Tracer.install`` wraps every public function of the package's modules
and rebinds each wrapped name wherever a package module looks it up: the
defining module, every module that did ``from .x import name``, and the
package namespace. The package's source is not touched.

Two kinds of wrapper:

- a *span* (every layer but ``exact_core``) counts calls, inclusive time
  (outermost activation only, so recursion is not counted twice) and self
  time (duration minus the time of spans opened inside it);
- a *probe* (``exact_core``, the leaf arithmetic every layer calls) counts
  calls and inclusive time but opens no span, so its time stays in the
  caller's self time. Generator functions are probed per item yielded.
  ``exact_core``'s own namespace is left alone, so its internal recursion
  (``composition_tuples`` calls itself) is not counted.

``Tracer.record`` returns the raw counters as JSON-ready data;
``layer_metrics`` turns counters summed over processes into the per-layer
metrics the benchmark reports.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time

LAYERS = ("exact_core", "closed_forms", "cotangent", "genfunc", "walks", "oracle", "cli")

# Names the package imports with ``from ... import ...``; each must end up
# wrapped at its lookup site or the layer it feeds reads low.
REBOUND_SITES = (
    "closed_forms.binom",
    "walks.binom",
    "genfunc.binom",
    "cotangent.binom",
    "cotangent.bernoulli",
    "cotangent.composition_tuples",
    "oracle.cot_sum_polynomial",
    "genfunc.cos_power_sum",
    "genfunc.sin_power_sum",
)

_PRIMARY = ("closed_forms.cos_power_sum", "closed_forms.sin_power_sum")
_NOT_CROSSCHECK = _PRIMARY + ("closed_forms.evaluate",)

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        # qualified name -> [calls, inclusive_ns, self_ns, items]
        self.stats: dict[str, list[int]] = {}
        self._stack: list[list[int]] = []  # child time of each open span
        self._open: dict[str, int] = {}  # open activations per name
        self._originals: dict[str, object] = {}
        self._exact_open: list[list[int]] = []  # direct_sum calls per open evaluate_exact
        self.first_try = 0
        self.precision_sum = 0
        self.unpatched: list[str] = []

    # --- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0, 0, 0])
        stack, active = self._stack, self._open
        hook = self._hooks(name)

        def span(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            frame = [0]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _now() - start
                stack.pop()
                active[name] -= 1
                stat[0] += 1
                stat[2] += elapsed - frame[0]
                if not active[name]:
                    stat[1] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if name == "oracle.evaluate_exact":
                    if self._exact_open.pop()[0] == 1:
                        self.first_try += 1

        return span

    def _hooks(self, name: str):
        if name == "oracle.evaluate_exact":
            return lambda args, kwargs: self._exact_open.append([0])
        if name == "oracle.direct_sum":
            def on_direct_sum(args, kwargs):
                bits = args[1] if len(args) > 1 else kwargs["precision_bits"]
                self.precision_sum += bits
                if self._exact_open:
                    self._exact_open[-1][0] += 1
            return on_direct_sum
        return None

    def _probe(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0, 0, 0])
        active = self._open

        if inspect.isgeneratorfunction(fn):
            def items(*args, **kwargs):
                stat[0] += 1
                for item in fn(*args, **kwargs):
                    stat[3] += 1
                    yield item
            return items

        def probe(*args, **kwargs):
            active[name] = active.get(name, 0) + 1
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _now() - start
                active[name] -= 1
                stat[0] += 1
                if not active[name]:
                    stat[1] += elapsed

        return probe

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        import trigsum
        import trigsum.cli  # noqa: F401  (loads every module of the package)

        modules = {layer: sys.modules[f"trigsum.{layer}"] for layer in LAYERS}
        public: dict[int, tuple[str, str, object]] = {}
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr)
                if (
                    callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__
                ):
                    public[id(obj)] = (f"{layer}.{attr}", layer, obj)

        wrappers: dict[int, object] = {}
        for module in (trigsum, *modules.values()):
            for attr, obj in list(vars(module).items()):
                entry = public.get(id(obj))
                if entry is None:
                    continue
                name, layer, fn = entry
                if layer == "exact_core" and module is modules["exact_core"]:
                    continue
                if id(obj) not in wrappers:
                    make = self._probe if layer == "exact_core" else self._span
                    wrappers[id(obj)] = make(name, fn)
                    self._originals[name] = fn
                setattr(module, attr, wrappers[id(obj)])

        wrapped = set(map(id, wrappers.values()))
        for site in REBOUND_SITES:
            layer, attr = site.split(".")
            if id(getattr(modules[layer], attr, None)) not in wrapped:
                self.unpatched.append(site)

    # --- output -------------------------------------------------------------

    def record(self) -> dict:
        caches = {}
        for name, fn in self._originals.items():
            info = getattr(fn, "cache_info", None)
            if info is not None:
                got = info()
                caches[name] = [got.hits, got.misses]
        return {
            "stats": self.stats,
            "caches": caches,
            "first_try": self.first_try,
            "precision_sum": self.precision_sum,
            "unpatched": self.unpatched,
        }


def merge(records: list[dict]) -> dict:
    """Sum the counters of several processes' records."""
    stats: dict[str, list[int]] = {}
    caches: dict[str, list[int]] = {}
    for rec in records:
        for name, row in rec["stats"].items():
            acc = stats.setdefault(name, [0, 0, 0, 0])
            for i, value in enumerate(row):
                acc[i] += value
        for name, row in rec["caches"].items():
            acc = caches.setdefault(name, [0, 0])
            acc[0] += row[0]
            acc[1] += row[1]
    return {
        "stats": stats,
        "caches": caches,
        "first_try": sum(rec["first_try"] for rec in records),
        "precision_sum": sum(rec["precision_sum"] for rec in records),
        "unpatched": sorted({site for rec in records for site in rec["unpatched"]}),
    }


# name -> unit, in report order; the per-layer half of BENCHMARK.json
PER_LAYER_UNITS = {
    "import.mpmath_ms": "ms",
    "import.trigsum_ms": "ms",
    "cli.self_ms": "ms",
    "closed_forms.calls": "count",
    "closed_forms.self_ms": "ms",
    "closed_forms.primary_ms": "ms",
    "closed_forms.crosscheck_ms": "ms",
    "exact_core.calls": "count",
    "exact_core.binom.calls": "count",
    "exact_core.binom.ms": "ms",
    "exact_core.bernoulli.calls": "count",
    "exact_core.bernoulli.ms": "ms",
    "exact_core.compositions.items": "count",
    "genfunc.self_ms": "ms",
    "walks.self_ms": "ms",
    "cotangent.self_ms": "ms",
    "cotangent.cot_power_sum.calls": "count",
    "cotangent.cot_power_sum.self_ms": "ms",
    "cotangent.cot_power_sum.hit_ratio": "ratio",
    "cotangent.cot_sum_polynomial.self_ms": "ms",
    "cotangent.byrne_smith.ms": "ms",
    "oracle.self_ms": "ms",
    "oracle.denominator_bound.ms": "ms",
    "oracle.evaluate_exact.calls": "count",
    "oracle.evaluate_exact.ms": "ms",
    "oracle.direct_sum.calls": "count",
    "oracle.direct_sum.ms": "ms",
    "oracle.reconstruct.ms": "ms",
    "oracle.retries": "count",
    "oracle.first_try_ratio": "ratio",
    "oracle.precision_bits.mean": "bits",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(
    merged: dict, passes: int, import_ms: list[tuple[float, float]], overhead: float
) -> dict[str, float]:
    """Per-layer metrics from merged counters. Counts and times are per pass
    over the workload's inputs; import times are medians per process."""
    stats = merged["stats"]

    def row(name: str) -> list[int]:
        return stats.get(name, [0, 0, 0, 0])

    def total(index: int, names) -> float:
        return sum(row(name)[index] for name in names) / passes

    def in_layer(layer: str):
        return [name for name in stats if name.split(".")[0] == layer]

    def ms(ns: float) -> float:
        return ns / 1e6

    closed = in_layer("closed_forms")
    exact_calls = row("oracle.evaluate_exact")[0]
    direct_calls = row("oracle.direct_sum")[0]
    hits, misses = merged["caches"].get("cotangent.cot_power_sum", (0, 0))
    out = {
        "import.mpmath_ms": statistics.median(m for m, _ in import_ms),
        "import.trigsum_ms": statistics.median(t for _, t in import_ms),
        "cli.self_ms": ms(total(2, in_layer("cli"))),
        "closed_forms.calls": total(0, closed),
        "closed_forms.self_ms": ms(total(2, closed)),
        "closed_forms.primary_ms": ms(total(1, _PRIMARY)),
        "closed_forms.crosscheck_ms": ms(
            total(2, [n for n in closed if n not in _NOT_CROSSCHECK])
        ),
        "exact_core.calls": total(0, in_layer("exact_core")),
        "exact_core.binom.calls": total(0, ["exact_core.binom"]),
        "exact_core.binom.ms": ms(total(1, ["exact_core.binom"])),
        "exact_core.bernoulli.calls": total(0, ["exact_core.bernoulli"]),
        "exact_core.bernoulli.ms": ms(total(1, ["exact_core.bernoulli"])),
        "exact_core.compositions.items": total(
            3, ["exact_core.composition_tuples", "exact_core.compositions"]
        ),
        "genfunc.self_ms": ms(total(2, in_layer("genfunc"))),
        "walks.self_ms": ms(total(2, in_layer("walks"))),
        "cotangent.self_ms": ms(total(2, in_layer("cotangent"))),
        "cotangent.cot_power_sum.calls": total(0, ["cotangent.cot_power_sum"]),
        "cotangent.cot_power_sum.self_ms": ms(total(2, ["cotangent.cot_power_sum"])),
        "cotangent.cot_power_sum.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cotangent.cot_sum_polynomial.self_ms": ms(total(2, ["cotangent.cot_sum_polynomial"])),
        "cotangent.byrne_smith.ms": ms(total(1, ["cotangent.byrne_smith_sum"])),
        "oracle.self_ms": ms(total(2, in_layer("oracle"))),
        "oracle.denominator_bound.ms": ms(total(1, ["oracle.denominator_bound_for"])),
        "oracle.evaluate_exact.calls": exact_calls / passes,
        "oracle.evaluate_exact.ms": ms(total(1, ["oracle.evaluate_exact"])),
        "oracle.direct_sum.calls": direct_calls / passes,
        "oracle.direct_sum.ms": ms(total(1, ["oracle.direct_sum"])),
        "oracle.reconstruct.ms": ms(total(1, ["oracle.reconstruct"])),
        "oracle.retries": (direct_calls - exact_calls) / passes,
        "oracle.first_try_ratio": merged["first_try"] / exact_calls if exact_calls else 0.0,
        "oracle.precision_bits.mean": merged["precision_sum"] / direct_calls if direct_calls else 0.0,
        "trace.overhead_ratio": overhead,
    }
    return {name: out[name] for name in PER_LAYER_UNITS}
