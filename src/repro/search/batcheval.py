"""Batched evaluation: candidates sharing a design as one pass.

The search measures a structure's parameter assignments in batches, and
most candidates of a batch differ only in runtime scalars while sharing
every memoized quantity.  This module evaluates them array-at-a-time:

:func:`group_candidates`
    Splits one ask batch into *design groups* — candidates whose merged
    (lock-overlaid) parameters agree on every non-runtime key, i.e. exactly
    the candidates :func:`~repro.core.kernel.builder.design_signature`
    would collapse onto one design — without building a single graph copy.
    Groups remember each member's position in the submission batch, so
    results scatter back into submission order.

:class:`BatchEvaluator`
    Evaluates one group in two steps.  :meth:`~BatchEvaluator.assemble`
    runs the design phase once per group through the search's design memo,
    takes the design's :class:`~repro.gpu.analysis.DesignAnalysis` from the
    search's analysis memo, grafts each candidate's runtime assignment onto
    the representative graph's runtime nodes (no graph copies), and fetches
    kernel units and cost projections for the whole runtime grid through
    the batched :class:`~repro.gpu.analysis.LeafAnalysis` entry points.
    The resulting :class:`AssembledGroup` projects every candidate's GFLOPS
    from the cost model alone — the successive-halving cheap rung — and
    :meth:`~BatchEvaluator.finish` completes candidates: the functional
    result is read once per leaf and numeric verification runs once per
    design.  Scoring replicates
    :meth:`~repro.core.kernel.program.GeneratedProgram.run` float-for-float
    (same accumulation order, same error strings), so every candidate
    scores exactly what the plain ``KernelBuilder.build`` →
    ``GeneratedProgram.run`` reference path scores.

Stage accounting: group assembly lands in ``batch_assembly``, cost +
scoring in ``batch_cost``, and numeric verification stays under ``verify``
(the design-phase share stays under ``design``), so ``--profile`` keeps a
faithful breakdown.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.designer import DesignError
from repro.core.graph import GraphValidationError
from repro.core.kernel.builder import (
    BuildError,
    KernelBuilder,
    RUNTIME_PARAM_OPS,
    design_signature,
    runtime_nodes_for_leaf,
)
from repro.core.kernel.program import GeneratedProgram, KernelUnit
from repro.gpu.analysis import DesignAnalysis
from repro.gpu.arch import GPUSpec
from repro.gpu.executor import (
    PlanValidationError,
    compute_cost_entry,
    cost_entry_key,
    functional_y_entry,
)
from repro.search.space import SampledStructure, graph_with_params
from repro.sparse.matrix import SparseMatrix
from repro.workloads import Workload

if TYPE_CHECKING:
    from repro.search.engine import _SearchState

__all__ = [
    "AssembledGroup",
    "CandidateGroup",
    "BatchEvaluator",
    "design_group_key",
    "group_candidates",
]

#: the exceptions one candidate's failure is allowed to surface as (each
#: folds into a zero-score record carrying its class and message).
EVAL_ERRORS = (DesignError, BuildError, PlanValidationError, GraphValidationError)


@dataclass
class CandidateGroup:
    """Candidates of one ask batch sharing a design signature."""

    #: positions in the submission batch (results scatter back by these)
    indices: List[int] = field(default_factory=list)
    assignments: List[Dict] = field(default_factory=list)


def design_group_key(
    merged: Dict, op_names: Sequence[str], keep_tpb: bool = False
) -> Tuple:
    """Merged parameters with runtime keys masked — the cheap stand-in for
    :func:`design_signature` over one proposal's assignments.

    ``keep_tpb`` retains ``threads_per_block`` entries (the one runtime
    scalar the static verifier reads), giving the static-pruning memo key.
    """
    items = []
    for key, value in merged.items():
        idx = key[0]
        if (
            0 <= idx < len(op_names)
            and op_names[idx] in RUNTIME_PARAM_OPS
            and not (keep_tpb and key[1] == "threads_per_block")
        ):
            continue
        items.append((key, value))
    items.sort(key=lambda item: item[0])
    return tuple(items)


def group_candidates(
    proposal: SampledStructure, assignments: Sequence[Dict]
) -> List[CandidateGroup]:
    """Group a structure's assignments by design identity.

    Two assignments land in one group exactly when their merged
    (lock-overlaid) parameters agree on every non-runtime key — the same
    masking rule as :func:`~repro.core.kernel.builder.design_signature`,
    computed without building graph copies.  Groups preserve
    first-occurrence order.
    """
    op_names = [node.op_name for node in proposal.graph.walk()]
    locks = proposal.locks
    groups: Dict[Tuple, CandidateGroup] = {}
    for position, assignment in enumerate(assignments):
        merged = dict(locks)
        merged.update(assignment)
        key = design_group_key(merged, op_names)
        group = groups.get(key)
        if group is None:
            groups[key] = group = CandidateGroup()
        group.indices.append(position)
        group.assignments.append(assignment)
    return list(groups.values())


def _sum_y(ys: Sequence[np.ndarray], shape) -> np.ndarray:
    """Per-kernel results accumulated exactly like ``GeneratedProgram.run``
    (zeros then ``+=`` in kernel order — bit-identical float behaviour)."""
    y = np.zeros(shape, dtype=np.float64)
    for arr in ys:
        y += arr
    return y


@dataclass
class AssembledGroup:
    """One design group after assembly and costing, before any candidate
    has run.  Candidates are indexed by their position in the group."""

    matrix: SparseMatrix
    #: flops of one run under the search's workload
    wl_flops: float
    #: per candidate: the failure message, or None once assembled
    errors: List[Optional[str]]
    #: the design's analysis (None when the design phase failed)
    design: Optional[DesignAnalysis] = None
    #: per candidate: its kernel units (None on failure)
    kernels: List[Optional[List[KernelUnit]]] = field(default_factory=list)
    #: per candidate: one cost entry per kernel, ``("ok", inputs, cost)``
    #: or ``("error", message, code)`` (None on failure)
    costs: List[Optional[List[Tuple]]] = field(default_factory=list)
    #: per leaf: its functional-result entry, read on first use
    ys: List[Optional[Tuple]] = field(default_factory=list)

    def rung_score(self, c: int) -> float:
        """Candidate ``c``'s projected GFLOPS — the cheap rung: the cost
        model alone, no functional execution and no verification.  The
        formula is the measured score's, so a valid candidate projects
        exactly what it measures; a candidate that fails assembly or
        costing projects 0.0, as it would measure."""
        if self.errors[c] is not None:
            return 0.0
        total = 0.0
        for entry in self.costs[c]:
            if entry[0] == "error":
                return 0.0
            total += entry[2].total_s
        return float(self.wl_flops / total / 1e9) if total > 0 else 0.0


class BatchEvaluator:
    """Evaluates design groups of candidates, one pass per group.

    Built once per engine from its kernel builder; everything memoized
    across groups lives in the per-search state passed to each call, and
    each group's representative graph is private to the call.
    """

    def __init__(
        self, builder: KernelBuilder, gpu: GPUSpec, workload: Workload
    ) -> None:
        self.builder = builder
        self.gpu = gpu
        self.workload = workload

    # ------------------------------------------------------------------
    def evaluate_group(
        self,
        matrix: SparseMatrix,
        proposal: SampledStructure,
        assignments: Sequence[Dict],
        state: "_SearchState",
    ) -> List[Tuple[float, Optional[GeneratedProgram], str]]:
        """``(gflops, program, error)`` per candidate, in group order."""
        group = self.assemble(matrix, proposal, assignments, state)
        return self.finish(group, range(len(group.errors)), state)

    # ------------------------------------------------------------------
    def assemble(
        self,
        matrix: SparseMatrix,
        proposal: SampledStructure,
        assignments: Sequence[Dict],
        state: "_SearchState",
    ) -> AssembledGroup:
        """Design, assemble and cost one group (see the module docstring)."""
        workload = self.workload
        gpu = self.gpu
        locks = proposal.locks
        assignments = list(assignments)
        n = len(assignments)
        group = AssembledGroup(
            matrix=matrix, wl_flops=workload.flops(matrix.nnz), errors=[None] * n
        )

        # ---- design phase: once per group --------------------------------
        try:
            rep = graph_with_params(proposal.graph, assignments[0], locks)
            signature = design_signature(rep)
            leaves = state.design_leaves(
                signature,
                lambda: self.builder.design_phase(matrix, rep),
            )
        except EVAL_ERRORS as exc:
            group.errors = [f"{type(exc).__name__}: {exc}"] * n
            return group
        design = group.design = state.design_analysis(signature)

        # ---- batch assembly: units for the whole runtime grid ------------
        t0 = time.perf_counter()
        proposal_walk = list(proposal.graph.walk())
        rep_walk = list(rep.walk())
        runtime_idx = [
            i
            for i, node in enumerate(rep_walk)
            if node.op_name in RUNTIME_PARAM_OPS
        ]
        leaf_nodes = [
            runtime_nodes_for_leaf(rep, leaf.branch_path) for leaf in leaves
        ]
        leaf_las = [design.leaf(i) for i in range(len(leaves))]

        # Unit-cache keys per candidate per leaf: graft each candidate's
        # runtime parameters onto the (group-private) representative graph
        # instead of copying the whole graph per candidate.  The first
        # candidate reaching a key supplies the runtime leaf it assembles.
        unit_keys: List[List[Tuple]] = []
        runtimes: List[Dict[Tuple, object]] = [{} for _ in leaves]
        for assignment in assignments:
            merged = dict(locks)
            merged.update(assignment)
            for i in runtime_idx:
                params = dict(proposal_walk[i].params)
                for (idx, name), value in merged.items():
                    if idx == i:
                        params[name] = value
                rep_walk[i].params = params
            keys = []
            for leaf, nodes, memo in zip(leaves, leaf_nodes, runtimes):
                key, runtime = self.builder.runtime_unit_key(leaf, nodes)
                memo.setdefault(key, runtime)
                keys.append(key)
            unit_keys.append(keys)

        unit_entries: List[List[Tuple]] = [
            la.unit_batch(
                [keys[li] for keys in unit_keys],
                lambda key, la=la, memo=memo: self.builder.compute_unit_entry(
                    memo[key], la
                ),
            )
            for li, (la, memo) in enumerate(zip(leaf_las, runtimes))
        ]

        group.kernels = [None] * n
        for c in range(n):
            kernels: List[KernelUnit] = []
            error = None
            for li in range(len(leaves)):
                entry = unit_entries[li][c]
                if entry[0] == "error":
                    error = f"{entry[1].__name__}: {entry[2]}"
                    break
                kernels.append(entry[1])
            if error is None:
                conflict = design.cross_check(
                    lambda k=kernels: self.builder._cross_kernel_conflict(k)
                )
                if conflict is not None:
                    error = f"BuildError: {conflict}"
            group.errors[c] = error
            if error is None:
                group.kernels[c] = kernels
        state.add_time("batch_assembly", time.perf_counter() - t0)

        # ---- batch cost: every leaf's distribution batch at once ---------
        # Plans are shared per distribution, so the distinct set is tiny
        # even for large groups.
        t0 = time.perf_counter()
        cost_maps: List[Dict[Tuple, Tuple]] = []
        for li, la in enumerate(leaf_las):
            plans: Dict[Tuple, object] = {}
            for kernels in group.kernels:
                if kernels is not None:
                    plan = kernels[li].plan
                    plans.setdefault(cost_entry_key(plan, gpu, workload), plan)
            keys = list(plans)
            entries = la.cost_batch(
                keys,
                lambda key, plans=plans: compute_cost_entry(
                    plans[key], gpu, workload
                ),
            )
            cost_maps.append(dict(zip(keys, entries)))
        group.costs = [
            None
            if kernels is None
            else [
                cost_maps[li][cost_entry_key(unit.plan, gpu, workload)]
                for li, unit in enumerate(kernels)
            ]
            for kernels in group.kernels
        ]
        group.ys = [None] * len(leaves)
        state.add_time("batch_cost", time.perf_counter() - t0)
        return group

    # ------------------------------------------------------------------
    def finish(
        self,
        group: AssembledGroup,
        candidates: Sequence[int],
        state: "_SearchState",
    ) -> List[Tuple[float, Optional[GeneratedProgram], str]]:
        """Run and verify the given candidates of an assembled group:
        ``(gflops, program, error)`` for each, in the order given.

        Mirrors ``GeneratedProgram.run`` plus the search's numeric gate
        byte-for-byte: the same error strings, the same GFLOPS
        accumulation order, the same once-per-design numeric verdict.
        """
        t0 = time.perf_counter()
        verify_s = 0.0
        workload = self.workload
        matrix = group.matrix
        design = group.design
        x64 = np.asarray(state.x, dtype=np.float64)
        result_shape = workload.result_shape(matrix.n_rows, matrix.n_cols)
        results: List[Tuple[float, Optional[GeneratedProgram], str]] = []
        for c in candidates:
            if group.errors[c] is not None:
                results.append((0.0, None, group.errors[c]))
                continue
            kernels = group.kernels[c]
            total = 0.0
            ys: List[np.ndarray] = []
            error = None
            for li, (unit, entry) in enumerate(zip(kernels, group.costs[c])):
                if entry[0] == "error":
                    error = f"PlanValidationError: {entry[1]}"
                    break
                total += entry[2].total_s
                y_entry = group.ys[li]
                if y_entry is None:
                    y_entry = functional_y_entry(unit.plan, x64, workload)
                    group.ys[li] = y_entry
                if y_entry[0] == "error":
                    error = f"PlanValidationError: {y_entry[1]}"
                    break
                ys.append(y_entry[1])
            if error is not None:
                results.append((0.0, None, error))
                continue
            gflops = group.wl_flops / total / 1e9 if total > 0 else 0.0
            tv = time.perf_counter()
            ok = design.verdict(
                state.verify_key,
                lambda ys=ys: workload.allclose(
                    _sum_y(ys, result_shape), state.reference
                ),
            )
            verify_s += time.perf_counter() - tv
            if not ok:
                results.append((0.0, None, "numeric mismatch"))
                continue
            program = GeneratedProgram(
                matrix_name=matrix.name,
                n_rows=matrix.n_rows,
                n_cols=matrix.n_cols,
                useful_nnz=matrix.nnz,
                kernels=kernels,
                analysis=design,
            )
            results.append((float(gflops), program, ""))
        state.add_time("batch_cost", time.perf_counter() - t0 - verify_s)
        state.add_time("verify", verify_s)
        return results
