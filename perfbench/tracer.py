"""In-memory span tracer wrapped around the public functions of qsslab.

The benchmark measures each layer from outside: ``install`` replaces a
public function (or a dataclass's ``__post_init__``) with a wrapper that
records one span per call. A function is patched in every qsslab module
namespace that binds it, because callers look names up in their own
module: ``DensityMatrix.__post_init__`` finds ``hermitian_eig`` in
``quantum_core``, while ``access_analysis`` holds its own binding of
``trace_distance``.

Spans are kept in flat arrays (name, parent, start, end) and reduced once,
when the run ends. A span's self time is its duration minus the durations
of its direct children; calls are strictly nested in one thread, so the
children never overlap and their durations add up.
"""

from __future__ import annotations

import importlib
import time
from array import array
from typing import Any, Callable, Optional

MODULES = ("quantum_core", "code5", "access_analysis", "classical_bound", "cli")

#: (module, attribute) of every wrapped callable; classes are traced through
#: ``__post_init__``, i.e. the validation that runs on construction.
TRACED = (
    ("quantum_core", "hermitian_eig"),
    ("quantum_core", "DensityMatrix"),
    ("quantum_core", "PureState"),
    ("quantum_core", "reduced_state"),
    ("quantum_core", "von_neumann_entropy"),
    ("quantum_core", "trace_distance"),
    ("access_analysis", "access_structure_report"),
    ("access_analysis", "classify_subset"),
    ("access_analysis", "holevo_information"),
    ("access_analysis", "reconstruct_quantum"),
    ("access_analysis", "reconstruct_classical"),
    ("code5", "verify_distance"),
    ("code5", "apply_pauli"),
    ("code5", "encode_quantum"),
    ("classical_bound", "search_linear_schemes"),
    ("classical_bound", "realizes_threshold"),
)

#: Span names; ``cli.main`` is recorded by the launcher of the CLI workload.
SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TRACED) + ("cli.main",)

SUBCOMMANDS = ("report", "distance", "encode", "reconstruct", "search-classical")
STARTUP = ("startup.interpreter_ms", "startup.import_numpy_ms", "startup.import_qsslab_ms")
#: Work counters reported as they are; exact for a seed.
WORK_COUNTERS = (
    "quantum_core.hermitian_eig.n3_sum",
    "access_analysis.reconstruct_quantum.refused",
    "code5.operators_scanned",
    "classical_bound.assignments_tried",
    "classical_bound.schemes_completed",
)

#: (lru_cache attribute in access_analysis, counter prefix).
CACHES = (
    ("_codeword_reduction", "access_analysis.reduction_cache"),
    ("_recovery_kraus", "access_analysis.recovery_cache"),
)

#: Counters summed across processes; the ratios are derived from them.
COUNTERS = (
    WORK_COUNTERS
    + ("classical_bound.pruned",)
    + tuple(f"{prefix}.{kind}" for _, prefix in CACHES for kind in ("hits", "misses"))
    + STARTUP
    + tuple(f"cli.{sub}.ms" for sub in SUBCOMMANDS)
)


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{span}.{kind}" for span in SPAN_NAMES for kind in ("calls", "self_ms")]
    names += WORK_COUNTERS
    names.append("classical_bound.pruned_ratio")
    names += [f"{prefix}.hit_ratio" for _, prefix in CACHES]
    names += STARTUP
    names += [f"cli.{sub}.ms" for sub in SUBCOMMANDS]
    names += ["trace.ops", "trace.wall_ms", "trace.uncovered_frac", "trace.overhead_ratio"]
    return names


def _unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    return "count"


PER_LAYER_UNITS = {name: _unit(name) for name in per_layer_names()}


class Tracer:
    """Records spans and counters for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self._merged: dict[str, list] = {}

    def span(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[[dict, Any], None]] = None,
        on_error: Optional[Callable[[dict, BaseException], None]] = None,
    ) -> Callable:
        """Wrap ``fn`` so each call records a span named ``name``."""
        nid = len(self.names)
        self.names.append(name)
        stack, counters = self._stack, self.counters
        name_id, parent, start, end = self._name_id, self._parent, self._start, self._end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(counters, exc)
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(counters, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def merge(self, summary: dict) -> None:
        """Add a summary written by another process (see ``summary``)."""
        for name, (calls, self_s) in summary["spans"].items():
            rec = self._merged.setdefault(name, [0, 0.0])
            rec[0] += calls
            rec[1] += self_s
        for name, value in summary["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + value

    def summary(self) -> dict:
        """Calls and self seconds per span name, plus the counters."""
        n = len(self._start)
        duration = [self._end[i] - self._start[i] for i in range(n)]
        self_s = list(duration)
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                self_s[p] -= duration[i]
        spans = {name: [calls, secs] for name, (calls, secs) in self._merged.items()}
        for i in range(n):
            rec = spans.setdefault(self.names[self._name_id[i]], [0, 0.0])
            rec[0] += 1
            rec[1] += self_s[i]
        return {"spans": spans, "counters": dict(self.counters)}

    def read_caches(self) -> None:
        """Add the hit and miss counts of the access_analysis caches."""
        access = importlib.import_module("qsslab.access_analysis")
        for attr, prefix in CACHES:
            cached = getattr(access, attr, None)
            if cached is not None and hasattr(cached, "cache_info"):
                info = cached.cache_info()
                self.counters[f"{prefix}.hits"] += info.hits
                self.counters[f"{prefix}.misses"] += info.misses


def _count_eig(counters: dict, result) -> None:
    counters["quantum_core.hermitian_eig.n3_sum"] += len(result[0]) ** 3


def _count_operators(counters: dict, report) -> None:
    counters["code5.operators_scanned"] += sum(c.operators_checked for c in report.checks)


def _count_search(counters: dict, report) -> None:
    counters["classical_bound.assignments_tried"] += report.assignments_tried
    counters["classical_bound.schemes_completed"] += report.schemes_completed
    counters["classical_bound.pruned"] += (
        report.pruned_small_qualified + report.pruned_large_unqualified
    )


def _count_refusal(counters: dict, exc: BaseException) -> None:
    if type(exc).__name__ == "UnqualifiedSubsetError":
        counters["access_analysis.reconstruct_quantum.refused"] += 1


HOOKS = {
    "quantum_core.hermitian_eig": {"after": _count_eig},
    "code5.verify_distance": {"after": _count_operators},
    "classical_bound.search_linear_schemes": {"after": _count_search},
    "access_analysis.reconstruct_quantum": {"on_error": _count_refusal},
}


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced callable of qsslab; returns a function that undoes it.

    A callable missing from the package is skipped, so its metrics read 0.
    """
    modules = [importlib.import_module(f"qsslab.{m}") for m in MODULES]
    modules.append(importlib.import_module("qsslab"))
    patched: list[tuple[Any, str, Any]] = []
    for mod_name, attr in TRACED:
        name = f"{mod_name}.{attr}"
        original = getattr(importlib.import_module(f"qsslab.{mod_name}"), attr, None)
        if original is None:
            continue
        if isinstance(original, type):
            init = original.__dict__.get("__post_init__")
            if init is not None:
                patched.append((original, "__post_init__", init))
                setattr(original, "__post_init__", tracer.span(name, init))
            continue
        wrapper = tracer.span(name, original, **HOOKS.get(name, {}))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    patched.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def restore() -> None:
        for owner, key, value in reversed(patched):
            setattr(owner, key, value)

    return restore


def layer_metrics(summary: dict, ops: int, wall_s: float, overhead_ratio: float) -> dict:
    """Per-layer metrics of one traced window, keyed as in ``per_layer_names``."""
    spans, counters = summary["spans"], summary["counters"]
    metrics: dict[str, float] = {name: counters.get(name, 0) for name in COUNTERS}
    covered_s = sum(metrics[name] for name in STARTUP) / 1000.0
    for name in SPAN_NAMES:
        calls, self_s = spans.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_ms"] = self_s * 1000.0
        covered_s += self_s
    assignments = metrics["classical_bound.assignments_tried"]
    metrics["classical_bound.pruned_ratio"] = (
        metrics["classical_bound.pruned"] / assignments if assignments else 0.0
    )
    for _, prefix in CACHES:
        hits = metrics[f"{prefix}.hits"]
        lookups = hits + metrics[f"{prefix}.misses"]
        metrics[f"{prefix}.hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["trace.ops"] = ops
    metrics["trace.wall_ms"] = wall_s * 1000.0
    metrics["trace.uncovered_frac"] = 1.0 - covered_s / wall_s if wall_s > 0 else 0.0
    metrics["trace.overhead_ratio"] = overhead_ratio
    return {name: metrics[name] for name in per_layer_names()}
