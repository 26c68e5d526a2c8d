"""Span recorder for the traced run, wrapped around public entry points.

The wrappers live in the benchmark, not in the program: each one records a
span (name, start, end, parent span, op id) around a call into one layer's
public entry point.  Spans are recorded only while an op is being timed,
kept in memory and written out when the run ends.

A layer's self time is its span time minus its child spans' time; summed
over every span that is the top-level span time, so per-layer self times
plus ``unattributed_s`` (op time outside any span) add up to the traced
wall, which is the sum of the traced pass's op intervals.

Search stage seconds come from each search's own ``SearchResult.stage_times``
in the same run.  The only child spans a search can have are the design
store reads and writes of its read-through ``design`` stage, so
``search.design_s`` is that stage minus the search's child spans and
``search.unstaged_s`` is the search wall minus all its stages.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: store methods traced on whatever class ``open_store`` returns
STORE_METHODS = (
    "get_design", "put_design", "get_result",
    "put_result", "result_metas", "result_payload",
)
SEARCH_STAGES = ("design", "batch_assembly", "batch_cost", "verify", "ml")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name: str, parent: int, op: int) -> None:
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.op = op
        self.attrs: Optional[Dict] = None

    def to_list(self) -> List:
        return [self.name, self.start, self.end, self.parent, self.op, self.attrs]


class Recorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.op = -1  # -1: no op is being timed, nothing is recorded

    def start_op(self, index: int) -> None:
        self.op = index

    def end_op(self) -> None:
        self.op = -1

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable] = None,
             only_under: Optional[str] = None) -> Callable:
        """``fn`` recording a span per call.  ``only_under`` records only
        calls made directly inside a span of that name."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack
            if recorder.op < 0 or (
                only_under is not None
                and (not stack or recorder.spans[stack[-1]].name != only_under)
            ):
                return fn(*args, **kwargs)
            span = Span(name, stack[-1] if stack else -1, recorder.op)
            stack.append(len(recorder.spans))
            recorder.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(result)
            return result

        return traced


def _search_attrs(result) -> Dict:
    return {
        "stages": dict(result.stage_times),
        "designer_runs": result.designer_runs,
        "evals": result.total_evaluations,
        "valid": sum(1 for r in result.history if r.valid),
        "static_pruned": result.static_pruned,
        "design_hits": result.design_cache_hits,
        "design_misses": result.design_cache_misses,
        "analysis_hits": result.analysis_cache_hits,
        "analysis_misses": result.analysis_cache_misses,
    }


def _baseline_attrs(measurements) -> Dict:
    values = list(measurements.values())
    return {"n": len(values), "ok": sum(1 for m in values if m.ok)}


def _patch(recorder: Recorder, owner, attr: str, name: str, **kwargs) -> None:
    setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), **kwargs))


def install(recorder: Recorder, store_class: type) -> None:
    """Wrap the program's layer entry points, and the store methods on
    ``store_class`` (the class ``open_store`` returns, so a backend change
    stays traced)."""
    import repro.bench.runner
    import repro.export
    from repro.bench.store import ResultStore
    from repro.core.kernel.program import GeneratedProgram
    from repro.search.engine import SearchEngine
    from repro.search.evaluation import StagedEvaluator
    from repro.serve.frontend import Frontend

    _patch(recorder, SearchEngine, "search", "search", attrs=_search_attrs)
    _patch(recorder, repro.bench.runner, "measure_baselines", "baselines",
           attrs=_baseline_attrs)
    _patch(recorder, ResultStore, "put", "bench.result_put")
    _patch(recorder, repro.export, "program_payload", "export.payload")
    _patch(recorder, Frontend, "resolve", "serve.resolve")
    _patch(recorder, StagedEvaluator, "build", "serve.transfer_build",
           only_under="serve.resolve")
    _patch(recorder, GeneratedProgram, "run", "serve.transfer_run",
           only_under="serve.resolve")
    for method in STORE_METHODS:
        _patch(recorder, store_class, method, f"store.{method}")


def layer_metrics(spans: List[List], traced_wall_s: float) -> Dict[str, float]:
    """Per-layer self times and counters from recorded spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _op, _attrs in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    totals: Dict[str, float] = defaultdict(float)  # search stages, counters
    for i, (name, start, end, _parent, _op, attrs) in enumerate(spans):
        calls[name] += 1
        if name == "baselines":
            totals["baselines_n"] += attrs["n"]
            totals["baselines_ok"] += attrs["ok"]
        if name != "search":
            self_s[name] += end - start - child[i]
            continue
        stages = dict(attrs["stages"])
        totals["unstaged"] += end - start - sum(stages.values())
        totals["design"] += stages.pop("design", 0.0) - child[i]
        for stage, seconds in stages.items():
            totals[stage if stage in SEARCH_STAGES else "other_stages"] += seconds
        for key, value in attrs.items():
            if key != "stages":
                totals[key] += value
    attributed = sum(self_s.values()) + sum(
        totals[k] for k in ("unstaged", "other_stages") + SEARCH_STAGES
    )

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "traced_wall_s": traced_wall_s,
        "unattributed_s": traced_wall_s - attributed,
        "search.calls": calls["search"],
        "search.design_s": totals["design"],
        "search.batch_assembly_s": totals["batch_assembly"],
        "search.batch_cost_s": totals["batch_cost"],
        "search.verify_s": totals["verify"],
        "search.ml_s": totals["ml"],
        "search.other_stages_s": totals["other_stages"],
        "search.unstaged_s": totals["unstaged"],
        "search.designer_runs": totals["designer_runs"],
        "search.evals": totals["evals"],
        "search.valid_frac": ratio(totals["valid"], totals["evals"]),
        "search.static_pruned": totals["static_pruned"],
        "search.design_cache_hit_rate": ratio(
            totals["design_hits"], totals["design_hits"] + totals["design_misses"]
        ),
        "search.analysis_cache_hit_rate": ratio(
            totals["analysis_hits"],
            totals["analysis_hits"] + totals["analysis_misses"],
        ),
        "baselines.measure_s": self_s["baselines"],
        "baselines.ok_frac": ratio(totals["baselines_ok"], totals["baselines_n"]),
        "bench.result_put_s": self_s["bench.result_put"],
        "bench.result_put.calls": calls["bench.result_put"],
        "export.payload_s": self_s["export.payload"],
        "export.payload.calls": calls["export.payload"],
        "serve.dispatch_s": self_s["serve.resolve"],
        "serve.transfer_build_s": self_s["serve.transfer_build"],
        "serve.transfer_run_s": self_s["serve.transfer_run"],
    }
    for method in STORE_METHODS:
        metrics[f"store.{method}_s"] = self_s[f"store.{method}"]
        metrics[f"store.{method}.calls"] = calls[f"store.{method}"]
    return metrics
