"""Functional executor + statistics extraction for generated kernels.

A generated kernel is described by an :class:`ExecutionPlan` — the
neutral contract between the kernel builder (:mod:`repro.core.kernel`) and
the simulated GPU.  The plan says, for every *stored* element (original
non-zeros plus padding), which output row it contributes to and which CUDA
thread processes it, plus the chain of reduction strategies that funnels
per-thread partial results into the ``y`` vector.

Execution is parameterised on a :class:`~repro.workloads.Workload`: the
same plan arrays serve ``y = A @ x`` (gather along columns, scatter along
rows — the default, bit-identical to the stack's historical behaviour),
``Y = A @ X`` with a dense k-column operand, and transpose SpMV
``y = A.T @ x`` (gather along rows, scatter along columns — reduction
chains are re-validated against the *column* partial flow, so
direct-store row kernels correctly become invalid and atomic designs win,
as on real hardware).

:func:`execute` does two things:

1. **Functional execution** — computes ``y`` exactly (vectorised NumPy), so
   every machine-designed kernel is verified against the workload's
   reference computation.
2. **Performance projection** — derives :class:`~repro.gpu.cost.KernelCostInputs`
   from the plan (divergence, imbalance, partial-result flow through the
   reduction levels, atomics, workload flop/traffic scaling) and evaluates
   the analytic cost model.

Statistics are extracted with linear-time primitives: the reduction walk
sorts the ``(group, row)`` key space at most once and then works on
boundary differences of the (much smaller) distinct-pair set, distinct
counting uses ``bincount`` presence tables instead of sort-based
``np.unique``, and the functional ``y`` is a weighted ``bincount`` rather
than ``np.add.at``.  When a plan carries a
:class:`~repro.gpu.analysis.LeafAnalysis` (``plan.analysis``, attached by
the staged evaluator), everything runtime scalars cannot change — valid
mask and masked scatter side, functional ``y`` per input vector — is
computed once per design leaf; the sorted pair machinery, the per-thread
histogram and the reduction walk once per thread assignment (the walk
also per block size when the chain has a block-level step); and the cost
projection once per assignment plus launch block size, shared across the
whole runtime-parameter grid.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.errors import (
    DiagnosableError,
    PLAN_GATHER_RANGE,
    PLAN_SCATTER_RANGE,
    REDUCE_CHAIN_BLOCK_TOTAL,
    REDUCE_CHAIN_DIRECT_STORE,
    REDUCE_CHAIN_NO_GLOBAL,
    REDUCE_CHAIN_ORDER,
    REDUCE_CHAIN_THREAD_TOTAL,
    REDUCE_CHAIN_WARP_TOTAL,
    code_of,
)
from repro.gpu.arch import GPUSpec
from repro.gpu.cost import CostBreakdown, CostModel, KernelCostInputs
from repro.gpu.memory import (
    INDEX_BYTES,
    VALUE_BYTES,
    coalescing_efficiency,
    gather_traffic_bytes,
    unique_column_count,
)
from repro.workloads import DEFAULT_WORKLOAD, Workload

__all__ = [
    "ReductionStep",
    "ExecutionPlan",
    "ExecutionResult",
    "PlanValidationError",
    "compute_cost_entry",
    "cost_entry_key",
    "execute",
    "functional_y_entry",
    "plan_cost_inputs",
    "validate_plan",
]

#: Reduction levels in pipeline order.
LEVELS = ("thread", "warp", "block", "global")

#: Strategies per level understood by the executor (matches Table II).
LEVEL_STRATEGIES = {
    "thread": {"THREAD_TOTAL_RED", "THREAD_BITMAP_RED"},
    "warp": {"WARP_TOTAL_RED", "WARP_BITMAP_RED", "WARP_SEG_RED"},
    "block": {"SHMEM_TOTAL_RED", "SHMEM_OFFSET_RED"},
    "global": {"GMEM_ATOM_RED", "GMEM_DIRECT_STORE"},
}


class PlanValidationError(DiagnosableError):
    """A reduction chain is semantically invalid for this work assignment.

    Carries a stable diagnostic ``code`` (see :mod:`repro.errors`) shared
    with the static verifier, so dynamic and static verdicts are
    comparable; ``str(exc)`` stays the bare message (byte-identity).
    """

    default_code = "PLAN-INVALID"


@dataclass(frozen=True)
class ReductionStep:
    """One stage of the reduction pipeline (level + strategy name)."""

    level: str
    strategy: str

    def __post_init__(self) -> None:
        if self.level not in LEVEL_STRATEGIES:
            raise ValueError(f"unknown reduction level {self.level!r}")
        if self.strategy not in LEVEL_STRATEGIES[self.level]:
            raise ValueError(
                f"strategy {self.strategy!r} not valid at level {self.level!r}"
            )


@dataclass
class ExecutionPlan:
    """Work assignment + reduction chain of one generated kernel.

    Arrays are aligned with *stored order* (the machine-designed format's
    element order, padding included).  Padding elements carry
    ``out_rows == -1`` and ``col_indices == -1``.
    """

    n_rows: int
    n_cols: int
    useful_nnz: int
    values: np.ndarray
    col_indices: np.ndarray
    out_rows: np.ndarray
    thread_of_nz: np.ndarray
    n_threads: int
    threads_per_block: int
    reduction_steps: Tuple[ReductionStep, ...]
    interleaved: bool = False
    extra_format_bytes: float = 0.0
    #: Mean contiguous elements a thread consumes before its neighbour's
    #: data begins: chunk size for chunk-per-thread mappings, 1.0 for
    #: round-robin / grid-stride distributions.  None = derive from the mean
    #: per-thread element count (chunked assumption).
    storage_run_length: Optional[float] = None
    #: bytes per matrix/x/y value (4 = fp32, 8 = fp64)
    value_bytes: int = 4
    label: str = ""
    #: weak reference to the per-leaf analysis
    #: (:class:`repro.gpu.analysis.LeafAnalysis`) attached by the staged
    #: builds; None = standalone plan.  Weak because the analysis memoises
    #: this plan and its kernel unit: a strong reference back would make
    #: every analysed plan a cycle that only the cyclic collector frees.
    analysis_ref: Optional[weakref.ref] = field(
        default=None, repr=False, compare=False
    )
    #: ``(assignment key, n_threads, tpb)``: the thread assignment's key in
    #: its leaf analysis plus the launch geometry — shares cost
    #: projections across runtime assignments that launch alike.
    cost_key: Optional[Tuple] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.values.shape[0]
        for arr_name in ("col_indices", "out_rows", "thread_of_nz"):
            arr = getattr(self, arr_name)
            if arr.shape != (n,):
                raise ValueError(f"{arr_name} must match values length {n}")
        if self.threads_per_block <= 0:
            raise ValueError("threads_per_block must be positive")
        if self.n_threads <= 0:
            raise ValueError("n_threads must be positive")
        if n:
            # An out-of-range thread id would silently corrupt the
            # per-thread bincounts plan_cost_inputs is built on.
            tmin = int(self.thread_of_nz.min())
            tmax = int(self.thread_of_nz.max())
            if tmin < 0 or tmax >= self.n_threads:
                raise ValueError(
                    f"thread_of_nz out of range: ids span [{tmin}, {tmax}] "
                    f"but n_threads is {self.n_threads}"
                )
            if int(self.out_rows.max(initial=-1)) >= self.n_rows:
                raise ValueError(
                    f"out_rows references row >= n_rows ({self.n_rows})"
                )
        if not self.reduction_steps:
            raise ValueError("plan needs at least a global reduction step")
        if self.reduction_steps[-1].level != "global":
            raise ValueError("last reduction step must be global")

    @property
    def analysis(self) -> Optional[object]:
        """The plan's leaf analysis while whoever owns it (a search's
        state, a built program) keeps it alive; None otherwise."""
        ref = self.analysis_ref
        return None if ref is None else ref()

    # Convenience geometry -------------------------------------------------
    @property
    def warp_size(self) -> int:
        return 32

    @property
    def n_warps(self) -> int:
        return (self.n_threads + self.warp_size - 1) // self.warp_size

    @property
    def n_blocks(self) -> int:
        return (self.n_threads + self.threads_per_block - 1) // self.threads_per_block

    @property
    def stored_elements(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class ExecutionResult:
    """Output of one simulated kernel run."""

    y: np.ndarray
    cost: CostBreakdown
    inputs: KernelCostInputs

    @property
    def time_s(self) -> float:
        return self.cost.total_s

    @property
    def gflops(self) -> float:
        return self.cost.gflops


# ---------------------------------------------------------------------------
# Partial-result flow through the reduction pipeline
# ---------------------------------------------------------------------------

@dataclass
class _PipelineStats:
    """Counts accumulated while partial results flow through the levels."""

    shuffle_ops: int = 0
    shmem_ops: int = 0
    serial_red_ops: int = 0
    sync_barriers: int = 0
    atomic_ops: int = 0
    final_rows: Optional[np.ndarray] = None


@dataclass(frozen=True)
class _PairCounts:
    n_groups: int
    per_group_max: int


def _dedup_sorted(key: np.ndarray) -> np.ndarray:
    """Distinct values of an already-sorted key array (boundary diff)."""
    if key.size <= 1:
        return key
    mask = np.empty(key.size, dtype=bool)
    mask[0] = True
    np.not_equal(key[1:], key[:-1], out=mask[1:])
    return key[mask]


def _sorted_unique_pairs(
    groups: np.ndarray, rows: np.ndarray, base: int
) -> np.ndarray:
    """Sorted distinct ``group * base + row`` keys.

    Storage-order block grouping means the key stream is frequently
    already sorted (chunk-per-thread mappings over row-sorted elements);
    the O(n) monotonicity probe then skips the sort entirely.
    """
    key = groups.astype(np.int64) * base + rows
    if key.size > 1 and np.any(key[1:] < key[:-1]):
        key = np.sort(key)
    return _dedup_sorted(key)


def _pair_stats(key: np.ndarray, base: int) -> _PairCounts:
    """Distinct-group count and max distinct rows per group, from the
    sorted distinct-pair key array — one boundary-diff pass, no sort."""
    if key.size == 0:
        return _PairCounts(0, 0)
    g = key // base
    boundary = np.empty(g.size, dtype=bool)
    boundary[0] = True
    np.not_equal(g[1:], g[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    ends = np.empty(starts.size, dtype=np.int64)
    ends[:-1] = starts[1:]
    ends[-1] = g.size
    return _PairCounts(int(starts.size), int((ends - starts).max()))


def _regroup(key: np.ndarray, base: int, shrink: int) -> np.ndarray:
    """Coarsen the group component of a sorted distinct-pair key by
    ``shrink`` (e.g. threads -> warps), re-sorting only the shrunken set."""
    if shrink <= 1 or key.size == 0:
        return key
    g = key // base
    return _sorted_unique_pairs(g // shrink, key - g * base, base)


def _flow_partials(
    plan: ExecutionPlan,
    valid: Optional[np.ndarray] = None,
    start_pairs: Optional[Tuple[np.ndarray, int]] = None,
    scatter: Optional[np.ndarray] = None,
    n_out: Optional[int] = None,
    rows: Optional[np.ndarray] = None,
) -> _PipelineStats:
    """Walk the reduction chain, validating strategies and counting ops.

    Partial results start as the distinct (thread, row) pairs; each level
    merges partials that share a row within its scope.  TOTAL strategies
    additionally require their scope to contain a single row.  Group ids
    are tracked together with their current granularity (threads per
    group), so a block step after a warp step regroups correctly.

    The walk state is the sorted distinct ``(group, row)`` key set plus
    the current multiset size (pre-merge partial count).  ``start_pairs``
    optionally supplies the initial sorted machinery — the one O(n log n)
    step — precomputed per design leaf by its leaf analysis.

    ``scatter``/``n_out`` override the output-index array and output size
    (transpose workloads scatter into columns: the same walk then
    validates the chain against the *column* partial flow, so e.g.
    GMEM_DIRECT_STORE demands one partial per output column).  Defaults
    are the row side — the historical SpMV behaviour, unchanged.
    ``rows`` optionally supplies ``scatter[valid]`` (the leaf analysis
    caches it per workload scope), so the walk does not re-mask it.
    """
    if valid is None:
        valid = plan.out_rows >= 0
    scatter_override = scatter is not None
    if scatter is None:
        scatter = plan.out_rows
    if n_out is None:
        n_out = plan.n_rows
    if rows is None:
        rows = scatter[valid]
    if scatter_override and rows.size:
        # The row side is range-checked by ExecutionPlan.__post_init__ and
        # the valid mask; an overridden scatter side (transpose: columns)
        # carries no such guarantee, and a stray negative/overflowing
        # index must surface as an invalid plan, not a bincount crash.
        lo, hi = int(rows.min()), int(rows.max())
        if lo < 0 or hi >= n_out:
            raise PlanValidationError(
                "valid element with out-of-range column",
                code=PLAN_SCATTER_RANGE,
            )
    stats = _PipelineStats()
    if rows.size == 0:
        stats.final_rows = rows
        return stats

    if start_pairs is None:
        base = int(rows.max()) + 1
        cur_key = _sorted_unique_pairs(plan.thread_of_nz[valid], rows, base)
    else:
        cur_key, base = start_pairs
    #: partial count of the current multiset: raw elements until the first
    #: merge, the distinct-pair count afterwards.
    cur_size = int(rows.size)
    #: rows of the current partials, with multiplicity (None = derive from
    #: cur_key once a merge has happened).
    rows_multiset: Optional[np.ndarray] = rows
    granularity = 1  # threads represented by one group id
    reached_global = False

    for step in plan.reduction_steps:
        if step.level == "thread":
            distinct = _pair_stats(cur_key, base)
            if step.strategy == "THREAD_TOTAL_RED":
                if distinct.per_group_max > 1:
                    raise PlanValidationError(
                        "THREAD_TOTAL_RED requires each thread to cover one row",
                        code=REDUCE_CHAIN_THREAD_TOTAL,
                    )
                # serial adds happen inside the FMA loop — already counted
                # in the compute term
            else:  # THREAD_BITMAP_RED: per-element row-boundary checks
                stats.serial_red_ops += cur_size
            cur_size = int(cur_key.size)
            rows_multiset = None
        elif step.level == "warp":
            if granularity > plan.warp_size:
                raise PlanValidationError(
                    "warp reduction cannot follow a coarser-grained step",
                    code=REDUCE_CHAIN_ORDER,
                )
            cur_key = _regroup(cur_key, base, plan.warp_size // granularity)
            granularity = plan.warp_size
            distinct = _pair_stats(cur_key, base)
            n_active_warps = distinct.n_groups
            if step.strategy == "WARP_TOTAL_RED":
                if distinct.per_group_max > 1:
                    raise PlanValidationError(
                        "WARP_TOTAL_RED requires one row per warp",
                        code=REDUCE_CHAIN_WARP_TOTAL,
                    )
                stats.shuffle_ops += n_active_warps * 5
            elif step.strategy == "WARP_SEG_RED":
                stats.shuffle_ops += n_active_warps * 10
            else:  # WARP_BITMAP_RED
                stats.shuffle_ops += n_active_warps * 8
            cur_size = int(cur_key.size)
            rows_multiset = None
        elif step.level == "block":
            if granularity > plan.threads_per_block:
                raise PlanValidationError(
                    "block reduction cannot follow a coarser-grained step",
                    code=REDUCE_CHAIN_ORDER,
                )
            cur_key = _regroup(
                cur_key, base, plan.threads_per_block // granularity
            )
            granularity = plan.threads_per_block
            distinct = _pair_stats(cur_key, base)
            n_active_blocks = distinct.n_groups
            if step.strategy == "SHMEM_TOTAL_RED":
                if distinct.per_group_max > 1:
                    raise PlanValidationError(
                        "SHMEM_TOTAL_RED requires one row per thread block",
                        code=REDUCE_CHAIN_BLOCK_TOTAL,
                    )
                stats.shmem_ops += cur_size
                stats.sync_barriers += n_active_blocks * max(
                    1, int(np.log2(max(2, plan.threads_per_block)))
                )
            else:  # SHMEM_OFFSET_RED: segmented row-offset reduce in shmem
                stats.shmem_ops += 3 * cur_size
                stats.sync_barriers += n_active_blocks * 2
            cur_size = int(cur_key.size)
            rows_multiset = None
        else:  # global
            reached_global = True
            final_rows = (
                rows_multiset if rows_multiset is not None else cur_key % base
            )
            stats.final_rows = final_rows
            if step.strategy == "GMEM_ATOM_RED":
                stats.atomic_ops = cur_size
            else:  # GMEM_DIRECT_STORE — every output written exactly once
                counts = np.bincount(final_rows, minlength=n_out)
                if counts.max(initial=0) > 1:
                    raise PlanValidationError(
                        "GMEM_DIRECT_STORE requires a single partial per row; "
                        "use GMEM_ATOM_RED",
                        code=REDUCE_CHAIN_DIRECT_STORE,
                    )
    if not reached_global:
        raise PlanValidationError(
            "reduction chain never reached global memory",
            code=REDUCE_CHAIN_NO_GLOBAL,
        )
    return stats


# ---------------------------------------------------------------------------
# Cost-input extraction
# ---------------------------------------------------------------------------

def plan_cost_inputs(
    plan: ExecutionPlan, gpu: GPUSpec, workload: Optional[Workload] = None
) -> KernelCostInputs:
    """Summarise a plan into the numbers the cost model consumes.

    Plans carrying a leaf analysis share one projection per distribution
    digest (see :func:`_cost_projection`); standalone plans compute from
    scratch.  ``workload`` selects the operation being modelled (None =
    the default SpMV).
    """
    workload = workload or DEFAULT_WORKLOAD
    if plan.analysis is not None and plan.cost_key is not None:
        entry = _cost_projection(plan, gpu, workload)
        if entry[0] == "error":
            raise PlanValidationError(
                entry[1], code=entry[2] if len(entry) > 2 else None
            )
        return entry[1]
    return _compute_cost_inputs(plan, gpu, workload)


def _cost_projection(
    plan: ExecutionPlan, gpu: GPUSpec, workload: Workload
) -> Tuple:
    """Cached ``("ok", inputs, cost)`` / ``("error", msg, code)`` for an
    analysis-backed plan, keyed by the distribution digest + GPU (+ the
    workload token for non-default workloads)."""
    analysis = plan.analysis
    key = workload.scope_key(plan.cost_key + (gpu.name, plan.value_bytes))
    return analysis.cost_projection(
        key, lambda: compute_cost_entry(plan, gpu, workload)
    )


def cost_entry_key(plan: ExecutionPlan, gpu: GPUSpec, workload: Workload) -> Tuple:
    """The cache key :func:`_cost_projection` files a plan's entry under —
    exposed so the batched evaluator can look up whole distribution-digest
    batches via :meth:`LeafAnalysis.cost_batch`."""
    return workload.scope_key(plan.cost_key + (gpu.name, plan.value_bytes))


def compute_cost_entry(
    plan: ExecutionPlan, gpu: GPUSpec, workload: Optional[Workload] = None
) -> Tuple:
    """Uncached entry-form cost projection: ``("ok", inputs, cost)`` or
    ``("error", message, code)`` — never raises for an invalid chain, so
    cached replay is exact for every candidate sharing the entry."""
    workload = workload or DEFAULT_WORKLOAD
    try:
        inputs = _compute_cost_inputs(plan, gpu, workload)
    except PlanValidationError as exc:
        return ("error", str(exc), code_of(exc))
    return ("ok", inputs, CostModel(gpu).evaluate(inputs))


def functional_y_entry(
    plan: ExecutionPlan, x: np.ndarray, workload: Optional[Workload] = None
) -> Tuple:
    """Cached ``("ok", y)`` / ``("error", msg, code)`` of an analysis-backed
    plan for one operand — the per-leaf functional result :func:`execute`
    consults, exposed for the batched evaluator (which sums the per-kernel
    entries itself instead of running ``execute`` per candidate)."""
    workload = workload or DEFAULT_WORKLOAD
    analysis = plan.analysis

    def compute_y() -> Tuple:
        valid = analysis.cached_array("valid", lambda: plan.out_rows >= 0)
        try:
            return ("ok", _functional_y(plan, x, valid, workload))
        except PlanValidationError as exc:
            return ("error", str(exc), code_of(exc))

    return analysis.functional_y(
        x, compute_y, scope="" if workload.is_default else workload.token
    )


def _thread_stats(plan: ExecutionPlan) -> Tuple[np.ndarray, float, float]:
    """Distribution-only statistics: per-thread element histogram, warp
    lockstep issue slots, mean active run length."""
    per_thread = np.bincount(
        plan.thread_of_nz, minlength=plan.n_threads
    ).astype(np.int64)
    # Warp lockstep: pad threads to a multiple of warp size, take the max
    # element count per warp — idle lanes still burn issue slots.
    warp = plan.warp_size
    padded_len = plan.n_warps * warp
    padded = np.zeros(padded_len, dtype=np.int64)
    padded[: per_thread.size] = per_thread
    warp_max = padded.reshape(plan.n_warps, warp).max(axis=1)
    lockstep = float((warp_max * warp).sum())
    active = per_thread[per_thread > 0]
    active_mean = float(active.mean()) if active.size else 1.0
    return per_thread, lockstep, active_mean


def _compute_cost_inputs(
    plan: ExecutionPlan, gpu: GPUSpec, workload: Optional[Workload] = None
) -> KernelCostInputs:
    workload = workload or DEFAULT_WORKLOAD
    # Gather/scatter orientation: the default workload gathers x along
    # column indices and scatters partials into rows; a transpose workload
    # swaps the two sides.  Cache names are scoped by the workload token
    # (identity for the default) so orientations never share entries.
    if workload.transpose:
        scatter_arr, n_out = plan.col_indices, plan.n_cols
        gather_arr, gather_domain = plan.out_rows, plan.n_rows
    else:
        scatter_arr, n_out = plan.out_rows, plan.n_rows
        gather_arr, gather_domain = plan.col_indices, plan.n_cols
    analysis = plan.analysis
    if analysis is not None:
        valid = analysis.cached_array("valid", lambda: plan.out_rows >= 0)
        unique_cols = analysis.cached_scalar(
            workload.scope_key(("unique_cols",)),
            lambda: unique_column_count(gather_arr),
        )
        start_pairs = rows_valid = None
        if plan.cost_key is not None:
            rows_valid = analysis.cached_array(
                workload.scope_key(("rows_valid",)),
                lambda: scatter_arr[valid],
            )
            if rows_valid.size:
                base = analysis.cached_scalar(
                    workload.scope_key(("row_base",)),
                    lambda: int(rows_valid.max()) + 1,
                )
                dist_key = plan.cost_key[0]
                start_pairs = analysis.start_pairs(
                    workload.scope_key((dist_key,)),
                    lambda: (
                        _sorted_unique_pairs(
                            plan.thread_of_nz[valid], rows_valid, base
                        ),
                        base,
                    ),
                )
    else:
        valid = plan.out_rows >= 0
        unique_cols = unique_column_count(gather_arr)
        start_pairs = rows_valid = None
    stored = plan.stored_elements
    warp = plan.warp_size
    if analysis is not None and plan.cost_key is not None:
        # Per-thread histogram, warp lockstep and mean run length depend on
        # the distribution only — share them across block-size variations.
        per_thread, lockstep, active_mean = analysis.cached_scalar(
            ("thread_stats", plan.cost_key[0], plan.n_threads),
            lambda: _thread_stats(plan),
        )
    else:
        per_thread, lockstep, active_mean = _thread_stats(plan)

    # Block-level work distribution.
    tpb = plan.threads_per_block
    padded_blocks = plan.n_blocks * tpb
    per_thread_b = np.zeros(padded_blocks, dtype=np.int64)
    per_thread_b[: per_thread.size] = per_thread
    block_work = per_thread_b.reshape(plan.n_blocks, tpb).sum(axis=1)
    max_block = float(block_work.max(initial=0))
    mean_block = float(block_work.mean()) if block_work.size else 0.0

    avg_run = (
        float(plan.storage_run_length)
        if plan.storage_run_length is not None
        else active_mean
    )
    coalescing = coalescing_efficiency(avg_run, plan.interleaved, warp)

    # Each gathered operand element is a k-vector under a multi-column
    # workload: k contiguous values move per distinct gather index, and
    # the L2-fit decision must see the true operand footprint (the
    # default workload keeps the historical fp32 single-vector estimate).
    operand_bytes = (
        0.0
        if workload.is_default
        else float(gather_domain) * plan.value_bytes * workload.k
    )
    gather = gather_traffic_bytes(
        plan.useful_nnz, unique_cols, gather_domain, gpu,
        operand_bytes=operand_bytes,
    ) * (plan.value_bytes / VALUE_BYTES) * workload.k

    def walk() -> Tuple[_PipelineStats, int]:
        stats = _flow_partials(
            plan,
            valid=valid,
            start_pairs=start_pairs,
            # None on the row side: the plan invariant already range-checks
            # it, so only a transpose (column) scatter needs the walk's
            # override + validation path.
            scatter=scatter_arr if workload.transpose else None,
            n_out=n_out if workload.transpose else None,
            rows=rows_valid,
        )
        final_rows = stats.final_rows
        if final_rows is not None and final_rows.size and stats.atomic_ops:
            max_atomics = int(
                np.bincount(final_rows, minlength=n_out).max(initial=0)
            )
        else:
            max_atomics = 0
        stats.final_rows = None  # counts only: this is what gets cached
        return stats, max_atomics

    if analysis is not None and plan.cost_key is not None:
        # The walk reads the block size only at a block-level step, so a
        # chain without one is walked once per thread assignment.
        walk_key = ("walk", plan.cost_key[0])
        if any(step.level == "block" for step in plan.reduction_steps):
            walk_key += (tpb,)
        stats, max_atomics = analysis.cached_scalar(
            workload.scope_key(walk_key), walk
        )
    else:
        stats, max_atomics = walk()

    vb = plan.value_bytes
    format_bytes = stored * (vb + INDEX_BYTES) + plan.extra_format_bytes
    y_bytes = (n_out * vb + stats.atomic_ops * 2 * vb) * workload.k

    return KernelCostInputs(
        useful_flops=workload.flops(plan.useful_nnz),
        stored_elements=stored,
        format_bytes=float(format_bytes),
        gather_bytes=float(gather),
        y_bytes=float(y_bytes),
        coalescing=coalescing,
        n_threads=plan.n_threads,
        n_warps=plan.n_warps,
        n_blocks=plan.n_blocks,
        threads_per_block=tpb,
        warp_lockstep_elements=lockstep,
        max_block_elements=max_block,
        mean_block_elements=mean_block,
        atomic_ops=stats.atomic_ops,
        max_atomics_per_row=max_atomics,
        shmem_ops=stats.shmem_ops,
        shuffle_ops=stats.shuffle_ops,
        serial_red_ops=stats.serial_red_ops,
        sync_barriers=stats.sync_barriers,
        value_bytes=plan.value_bytes,
        rhs_vectors=workload.k,
    )


def validate_plan(plan: ExecutionPlan, workload: Optional[Workload] = None) -> None:
    """Raise :class:`PlanValidationError` if the reduction chain is invalid
    for the workload (None = the default SpMV: row-scatter semantics)."""
    workload = workload or DEFAULT_WORKLOAD
    if workload.transpose:
        _flow_partials(plan, scatter=plan.col_indices, n_out=plan.n_cols)
    else:
        _flow_partials(plan)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _functional_y(
    plan: ExecutionPlan,
    x: np.ndarray,
    valid: np.ndarray,
    workload: Optional[Workload] = None,
) -> np.ndarray:
    """Exact result via weighted bincounts over the valid elements.

    The default workload is one bincount into rows; SpMM repeats it per
    dense column; a transpose workload gathers ``x`` along rows and
    scatters into columns.
    """
    workload = workload or DEFAULT_WORKLOAD
    cols = plan.col_indices[valid]
    if cols.size and (cols.min() < 0 or cols.max() >= plan.n_cols):
        raise PlanValidationError(
            "valid element with out-of-range column",
            code=PLAN_GATHER_RANGE if not workload.transpose else PLAN_SCATTER_RANGE,
        )
    if workload.is_default:
        products = plan.values[valid] * x[cols]
        if not products.size:
            return np.zeros(plan.n_rows, dtype=np.float64)
        return np.bincount(
            plan.out_rows[valid], weights=products, minlength=plan.n_rows
        )
    if workload.transpose:
        # Valid elements always carry an in-range row (plan invariant), so
        # the row gather needs no extra check; cols is the scatter side.
        products = plan.values[valid] * x[plan.out_rows[valid]]
        out = np.zeros(plan.n_cols, dtype=np.float64)
        if products.size:
            out += np.bincount(cols, weights=products, minlength=plan.n_cols)
        return out
    # Multi-column (SpMM): one bincount per dense RHS column.
    out = np.zeros((plan.n_rows, workload.k), dtype=np.float64)
    if cols.size:
        rows = plan.out_rows[valid]
        products = plan.values[valid][:, None] * x[cols, :]
        for j in range(workload.k):
            out[:, j] = np.bincount(
                rows, weights=products[:, j], minlength=plan.n_rows
            )
    return out


def execute(
    plan: ExecutionPlan,
    x: np.ndarray,
    gpu: GPUSpec,
    workload: Optional[Workload] = None,
) -> ExecutionResult:
    """Run the kernel functionally and project its performance.

    Returns the exact result (verified against padding-safety invariants)
    and the cost breakdown.  Raises :class:`PlanValidationError` for
    semantically invalid reduction chains — the same kernels that would
    compute wrong answers on real hardware.  ``workload`` selects the
    operation (None = the default SpMV, bit-identical to the historical
    single-operation executor).

    Analysis-backed plans reuse the leaf's cached cost projection and the
    cached functional result for this ``x``; the returned array is then a
    shared read-only array.
    """
    workload = workload or DEFAULT_WORKLOAD
    x = np.asarray(x, dtype=np.float64)
    if workload.is_default:
        if x.shape != (plan.n_cols,):
            raise ValueError(f"x must have shape ({plan.n_cols},)")
    else:
        expected = workload.operand_shape(plan.n_rows, plan.n_cols)
        if x.shape != expected:
            raise ValueError(
                f"operand for workload {workload.name!r} must have shape "
                f"{expected}"
            )

    analysis = plan.analysis
    if analysis is not None and plan.cost_key is not None:
        # validates the reduction chain
        entry = _cost_projection(plan, gpu, workload)
        if entry[0] == "error":
            raise PlanValidationError(
                entry[1], code=entry[2] if len(entry) > 2 else None
            )
        _, inputs, cost = entry
        y_entry = functional_y_entry(plan, x, workload)
        if y_entry[0] == "error":
            raise PlanValidationError(
                y_entry[1], code=y_entry[2] if len(y_entry) > 2 else None
            )
        y = y_entry[1]
    else:
        # validates the reduction chain
        inputs = plan_cost_inputs(plan, gpu, workload)
        y = _functional_y(plan, x, plan.out_rows >= 0, workload)
        cost = CostModel(gpu).evaluate(inputs)
    return ExecutionResult(y=y, cost=cost, inputs=inputs)
