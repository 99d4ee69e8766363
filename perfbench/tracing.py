"""Spans and counts around the public functions of each layer, for traced runs only.

Wrappers are installed from outside the package: every binding of a
wrapped function in a loaded ``entact`` module is replaced, so calls
through ``from .analysis import ...`` are seen as well.  Spans are kept in
memory as ``[name, job, start, end, parent, is_call]`` and reduced once at
the end of the run.  A span's self time is its duration minus the
durations of its direct children; the run is single-threaded, so
children never overlap.
"""
from __future__ import annotations

import statistics
import sys
import time
from collections import Counter
from typing import Any, Callable

# (metric prefix, owner, attribute, kind); owner is a module name or a class
# path inside one, kind is "call" or "generator".  Percentiles are reported
# for the prefixes in PERCENTILES: each makes at least 100 calls in the
# traced run of the workload that exercises it.
LAYER_FUNCTIONS = (
    ("model.Grouping", "entact.model:Grouping", "__init__", "call"),
    ("model.indicator_vector", "entact.model:FamilyState", "indicator_vector", "call"),
    ("analysis.iter_set_partitions", "entact.analysis", "iter_set_partitions", "generator"),
    ("analysis.grouping_report", "entact.analysis", "grouping_report", "call"),
    ("analysis.search_specifications", "entact.analysis", "search_specifications", "call"),
    ("analysis.distillation_witness", "entact.analysis", "distillation_witness", "call"),
    ("protocols.distill_pipeline", "entact.protocols", "distill_pipeline", "call"),
    ("protocols.join_povm", "entact.protocols", "join_povm", "call"),
    ("protocols.required_amplification", "entact.protocols", "required_amplification", "call"),
    ("protocols.amplify", "entact.protocols", "amplify", "call"),
    ("protocols.measure_out_party", "entact.protocols", "measure_out_party", "call"),
    ("protocols.permute_parties", "entact.protocols", "permute_parties", "call"),
    ("oracle.build_density", "entact.oracle", "build_density", "call"),
    ("oracle.partial_transpose", "entact.oracle", "partial_transpose", "call"),
    ("oracle.min_pt_eigenvalue", "entact.oracle", "min_pt_eigenvalue", "call"),
    ("oracle.ppt_agreement_report", "entact.oracle", "ppt_agreement_report", "call"),
    ("construct.example_state", "entact.construct", "example_state", "call"),
    ("construct.example_pattern", "entact.construct", "example_pattern", "call"),
    ("construct.from_specification", "entact.construct", "from_specification", "call"),
    ("cli.main", "entact.cli", "main", "call"),
)

PERCENTILES = {
    "model.Grouping", "model.indicator_vector", "analysis.grouping_report",
    "analysis.distillation_witness", "protocols.distill_pipeline", "protocols.join_povm",
    "protocols.required_amplification", "protocols.amplify", "protocols.measure_out_party",
    "protocols.permute_parties", "oracle.partial_transpose", "oracle.min_pt_eigenvalue",
}
MIN_PERCENTILE_CALLS = 100

# Exact counts and ratios: (metric, unit, better).
COUNTS = (
    ("analysis.pair_verdicts", "count", "lower"),
    ("analysis.distillable_share", "ratio", "higher"),
    ("analysis.requirement_calls", "count", "lower"),
    ("protocols.max_amplification", "exponent", "lower"),
    ("protocols.failed", "count", "lower"),
    ("protocols.degenerate", "count", "lower"),
    ("oracle.eig_ops_computed", "flop", "lower"),
    ("cli.output_bytes", "B", "lower"),
)

# Floating-point operations of one eigenvalues-only solve of a complex
# Hermitian d x d matrix: the tridiagonal reduction, 16/3 d^3, dominates.
# Computed from the matrix size, not measured.
EIG_FLOPS_PER_D3 = 16.0 / 3.0


def per_layer_metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric of a traced run as (name, unit, better)."""
    out = []
    for prefix, _, _, _ in LAYER_FUNCTIONS:
        if prefix == "cli.main":
            out.append((f"{prefix}.self_s", "s", "lower"))
            continue
        out.append((f"{prefix}.calls", "count", "lower"))
        out.append((f"{prefix}.self_s", "s", "lower"))
        if prefix in PERCENTILES:
            out.append((f"{prefix}.p50_us", "us", "lower"))
            out.append((f"{prefix}.p90_us", "us", "lower"))
    out.extend(COUNTS)
    out.append(("trace.overhead_pct", "%", "lower"))
    out.append(("host.ref_ms", "ms", "lower"))
    return out


def _resolve(owner: str) -> Any:
    module, _, cls = owner.partition(":")
    obj = sys.modules[module]
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans and counts while installed; `summary` reduces them."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        self.job: Any = None
        self.counts: Counter = Counter()
        self.max_amplification = 0
        self._restore: list[tuple[Any, str, Any]] = []

    def _open(self, name: str, is_call: bool) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.job, time.perf_counter(), 0.0, parent, is_call])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    def _call_wrapper(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            if name == "analysis.search_specifications":
                args, kwargs = self._count_requirement_calls(args, kwargs)
            idx = self._open(name, True)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._observe_error(name, exc)
                raise
            finally:
                self._close(idx)
            self._observe(name, args, result)
            return result

        return wrapper

    def _generator_wrapper(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            is_call = True
            while True:
                idx = self._open(name, is_call)
                is_call = False
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item

        return wrapper

    def _count_requirement_calls(self, args, kwargs):
        """Wrap the requirement a search is given so that its calls are counted."""
        args = list(args)
        requirement = args[1] if len(args) > 1 else kwargs["requirement"]

        def counted(behavior):
            self.counts["analysis.requirement_calls"] += 1
            return requirement(behavior)

        if len(args) > 1:
            args[1] = counted
        else:
            kwargs["requirement"] = counted
        return tuple(args), kwargs

    def _observe(self, name: str, args: tuple, result: Any) -> None:
        if name == "analysis.grouping_report":
            self.counts["analysis.pair_verdicts"] += len(result.pairs)
            self.counts["distillable_pairs"] += sum(1 for pv in result.pairs if pv.distillable)
        elif name == "protocols.required_amplification":
            self.max_amplification = max(self.max_amplification, result)
        elif name == "oracle.min_pt_eigenvalue":
            self.counts["oracle.eig_ops_computed"] += EIG_FLOPS_PER_D3 * args[0].shape[0] ** 3

    def _observe_error(self, name: str, exc: Exception) -> None:
        degenerate = sys.modules["entact.protocols"].DegenerateStateError
        if name == "protocols.distill_pipeline" and isinstance(exc, degenerate):
            self.counts["protocols.degenerate"] += 1

    def install(self) -> None:
        """Wrap every layer function that is loaded; oracle only if imported."""
        for prefix, owner, attr, kind in LAYER_FUNCTIONS:
            if owner.partition(":")[0] not in sys.modules:
                continue
            target = _resolve(owner)
            original = getattr(target, attr)
            make = self._generator_wrapper if kind == "generator" else self._call_wrapper
            wrapped = make(prefix, original)
            if isinstance(target, type):
                self._rebind(target, attr, original, wrapped)
                continue
            for name, module in list(sys.modules.items()):
                if name == "entact" or name.startswith("entact."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, key, original, wrapped)

    def _rebind(self, owner: Any, key: str, original: Any, wrapped: Any) -> None:
        setattr(owner, key, wrapped)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def summary(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counts."""
        child_time = [0.0] * len(self.spans)
        for name, job, start, end, parent, is_call in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        durations: dict[str, list[float]] = {}
        for idx, (name, job, start, end, parent, is_call) in enumerate(self.spans):
            self_s[name] += (end - start) - child_time[idx]
            if is_call:
                calls[name] += 1
                durations.setdefault(name, []).append(end - start)
        out: dict[str, float] = {}
        for prefix, _, _, _ in LAYER_FUNCTIONS:
            out[f"{prefix}.self_s"] = self_s[prefix]
            if prefix == "cli.main":
                continue
            out[f"{prefix}.calls"] = calls[prefix]
            if prefix in PERCENTILES:
                p50 = p90 = 0.0
                samples = durations.get(prefix, [])
                if len(samples) >= MIN_PERCENTILE_CALLS:
                    deciles = statistics.quantiles(samples, n=10)
                    p50, p90 = deciles[4] * 1e6, deciles[8] * 1e6
                out[f"{prefix}.p50_us"] = p50
                out[f"{prefix}.p90_us"] = p90
        pairs = self.counts["analysis.pair_verdicts"]
        out["analysis.pair_verdicts"] = pairs
        distillable = self.counts["distillable_pairs"]
        out["analysis.distillable_share"] = distillable / pairs if pairs else 0.0
        out["analysis.requirement_calls"] = self.counts["analysis.requirement_calls"]
        out["protocols.max_amplification"] = self.max_amplification
        out["protocols.failed"] = self.counts["protocols.failed"]
        out["protocols.degenerate"] = self.counts["protocols.degenerate"]
        out["oracle.eig_ops_computed"] = self.counts["oracle.eig_ops_computed"]
        out["cli.output_bytes"] = self.counts["cli.output_bytes"]
        return out

