"""Kernel Builder (paper §V-C): metadata → execution plan.

The builder performs the *Distribution* half of kernel construction — it
derives, from the mapping-stage block structure, which CUDA thread touches
which stored element and what the launch geometry is.  The *Reduction* half
is carried by the metadata's reduction chain, which the executor interprets
(and :mod:`repro.core.kernel.codegen` renders as spliced fragments).

Distribution rules per finest mapped level:

========  ==========================================================
``bmt``   each BMT is one thread; chunk-contiguous access
``bmw``   BMW elements round-robin over the warp's 32 lanes
``bmtb``  BMTB elements round-robin over the block's threads
(none)    grid-stride loop over ``grid_threads`` (COO style)
========  ==========================================================

Round-robin distributions are naturally coalesced (consecutive lanes read
consecutive addresses); chunked BMT access is strided unless
INTERLEAVED_STORAGE transposed the layout.  A BMTB level over a finer
level fixes the launch block size itself; every other kernel launches
with ``SET_RESOURCES``'s ``threads_per_block`` (:func:`runtime_reads`).
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.designer import DesignError, Designer, DesignLeaf
from repro.core.format import MachineDesignedFormat, build_format
from repro.core.graph import GraphNode, OperatorGraph
from repro.core.kernel.codegen import generate_source
from repro.core.kernel.program import GeneratedProgram, KernelUnit
from repro.core.metadata import MatrixMetadataSet
from repro.core.operators import OperatorError
from repro.core.optimizer import ModelDrivenCompressor
from repro.gpu.analysis import DesignAnalysis, LeafAnalysis
from repro.gpu.executor import ExecutionPlan, ReductionStep
from repro.sparse.matrix import SparseMatrix
from repro.workloads import DEFAULT_WORKLOAD, Workload

__all__ = [
    "BuildError",
    "KernelBuilder",
    "build_program",
    "RUNTIME_PARAM_OPS",
    "design_signature",
    "design_graph",
    "runtime_nodes_for_leaf",
    "runtime_reads",
]

#: CUDA hard limit the builder refuses to exceed.
MAX_THREADS_PER_BLOCK = 1024
WARP = 32

#: Operators whose parameters only set scalar runtime metadata
#: (``threads_per_block`` / ``grid_threads``) and never reshape element or
#: block arrays.  The staged build runs the Designer with these parameters
#: at their defaults and re-applies the requested values cheaply during
#: plan assembly, so one set of design leaves serves the operator's whole
#: parameter grid.  Nothing executed during the design phase reads the
#: scalars these operators write.
RUNTIME_PARAM_OPS = frozenset({"SET_RESOURCES"})


def design_signature(graph: OperatorGraph) -> Tuple:
    """Graph identity with runtime-only parameters masked out.

    Two parameterised graphs share a signature exactly when their design
    phases produce identical leaves — the content-address of the design
    cache (together with the matrix token).
    """

    def node_sig(node: GraphNode) -> Tuple:
        params = (
            ()
            if node.op_name in RUNTIME_PARAM_OPS
            else tuple(sorted(node.params.items()))
        )
        return (
            node.op_name,
            params,
            tuple(tuple(node_sig(nd) for nd in child) for child in node.children),
        )

    return tuple(node_sig(n) for n in graph.nodes)


def design_graph(graph: OperatorGraph) -> OperatorGraph:
    """Copy of ``graph`` with runtime-only parameters reset to defaults, so
    the design phase is canonical for every runtime assignment."""
    new = graph.copy()
    for node in new.walk():
        if node.op_name in RUNTIME_PARAM_OPS:
            node.params = node.operator.default_params()
    return new


def runtime_nodes_for_leaf(
    graph: OperatorGraph, branch_path: Tuple[int, ...]
) -> List[GraphNode]:
    """The runtime-parameter nodes on one design leaf's branch path.

    Mirrors :meth:`Designer._run_sequence`: a branching node consumes one
    path component and the walk continues in the matching child sequence
    (or the shared continuation when the node has no explicit children).
    """
    collected: List[GraphNode] = []

    def follow(nodes: Sequence[GraphNode], path: Tuple[int, ...]) -> None:
        for i, node in enumerate(nodes):
            op = node.operator
            if op.branching:
                j = path[0] if path else 0
                if node.children:
                    child = node.children[min(j, len(node.children) - 1)]
                else:
                    child = list(nodes[i + 1 :])
                follow(child, path[1:])
                return
            if node.op_name in RUNTIME_PARAM_OPS:
                collected.append(node)

    follow(graph.nodes, tuple(branch_path))
    return collected


def runtime_reads(
    meta: MatrixMetadataSet,
) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """The runtime scalars a leaf's kernel reads, from its block structure.

    Returns ``(assignment, unit)``, each a tuple of names (``"tpb"`` =
    ``threads_per_block``, ``"grid"`` = ``grid_threads``; see
    :func:`_runtime_scalars`):

    * ``assignment`` — what the thread assignment (which thread runs each
      element, and how many threads there are) reads: nothing under a BMT
      or BMW level, ``tpb`` for BMTB round-robin, ``grid`` for the unmapped
      grid-stride loop;
    * ``unit`` — what the whole kernel unit reads: the assignment's scalars
      plus the launch block size, unless a BMTB level over a finer level
      fixes that itself.  ``work_per_thread`` reaches a kernel only through
      ``grid_threads``, so a mapped leaf never reads it.

    :meth:`KernelBuilder._distribute` and the unit-cache key both take
    their dependencies from here, so the leaf analysis computes one
    distribution per thread assignment and one unit per runtime value the
    leaf actually reads.
    """
    finest = meta.finest_level()
    if finest is None:
        return ("grid",), ("tpb", "grid")
    if finest == "bmtb":
        return ("tpb",), ("tpb",)
    if meta.blocks_of("bmtb") is not None:
        return (), ()
    return (), ("tpb",)


def _runtime_scalars(meta: MatrixMetadataSet) -> Dict[str, object]:
    """The runtime scalars by the names :func:`runtime_reads` uses."""
    return {"tpb": meta.threads_per_block, "grid": meta.grid_threads}


class BuildError(RuntimeError):
    """The design cannot be realised as a CUDA kernel (e.g. >1024 threads
    per block, or a warp mapped to more than 32 BMTs)."""


def _block_starts(blocks: np.ndarray) -> np.ndarray:
    """Start position of each dense-id block in storage order."""
    if blocks.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(np.r_[True, blocks[1:] != blocks[:-1]])


def _parent_of_block(child: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Parent block id of each child block (nesting is validated upstream)."""
    starts = _block_starts(child)
    return parent[starts]


def _first_child_of_parent(parent_of_child: np.ndarray) -> np.ndarray:
    """First child id per parent (children are globally numbered in order)."""
    n_parents = int(parent_of_child.max()) + 1 if parent_of_child.size else 0
    first = np.zeros(n_parents, dtype=np.int64)
    # children are sorted by parent; first occurrence index == child id
    starts = np.flatnonzero(
        np.r_[True, parent_of_child[1:] != parent_of_child[:-1]]
    )
    first[parent_of_child[starts]] = starts
    return first


def _round_up(value: int, multiple: int) -> int:
    return ((value + multiple - 1) // multiple) * multiple


class KernelBuilder:
    """Builds executable plans (and programs) from design leaves."""

    def __init__(
        self,
        compressor: Optional[ModelDrivenCompressor] = None,
        designer: Optional[Designer] = None,
        precision: str = "fp32",
        workload: Optional[Workload] = None,
    ) -> None:
        if precision not in ("fp32", "fp64"):
            raise ValueError("precision must be 'fp32' or 'fp64'")
        self.compressor = compressor
        self.designer = designer or Designer()
        self.precision = precision
        #: the operation generated sources render for (the *design* phase
        #: is workload-independent — structure derives from the matrix
        #: alone — but the rendered inner loop and kernel name are not).
        self.workload = workload or DEFAULT_WORKLOAD

    # ------------------------------------------------------------------
    def build_plan(
        self,
        meta: MatrixMetadataSet,
        fmt: MachineDesignedFormat,
        label: str = "root",
        analysis: Optional[LeafAnalysis] = None,
    ) -> ExecutionPlan:
        """Project metadata into an executable plan.

        With ``analysis`` set, the thread distribution is cached per thread
        assignment (the runtime scalars it reads, see :func:`runtime_reads`)
        and the original-row projection per leaf; the plan itself is then
        cached per assignment plus launch block size — everything else in
        it (element arrays, reduction steps, format bytes) is
        leaf-invariant, so one :class:`ExecutionPlan` (construction plus
        its O(n) invariant checks) serves every runtime assignment that
        lands on the same launch, and the executor shares cost projections
        across the whole runtime grid.
        """
        if analysis is None:
            thread_of_nz, n_threads, tpb, run_length, _deps = self._distribute(meta)
            steps = self._reduction_steps(meta)
            return ExecutionPlan(
                n_rows=int(meta.get("orig_n_rows", meta.n_rows)),
                n_cols=meta.n_cols,
                useful_nnz=meta.useful_nnz,
                values=meta.elem_val,
                col_indices=meta.elem_col,
                out_rows=meta.origin_rows[meta.elem_row],
                thread_of_nz=thread_of_nz,
                n_threads=n_threads,
                threads_per_block=meta.threads_per_block if tpb is None else tpb,
                reduction_steps=steps,
                interleaved=meta.interleaved,
                extra_format_bytes=float(fmt.aux_bytes),
                storage_run_length=run_length,
                value_bytes=8 if self.precision == "fp64" else 4,
                label=label,
            )
        dist = analysis.distribution(
            _runtime_scalars(meta), lambda: self._distribute(meta)
        )
        tpb = (
            meta.threads_per_block
            if dist.threads_per_block is None
            else dist.threads_per_block
        )
        cost_key = (dist.key, dist.n_threads, tpb)

        def construct() -> ExecutionPlan:
            steps = self._reduction_steps(meta)
            return ExecutionPlan(
                n_rows=int(meta.get("orig_n_rows", meta.n_rows)),
                n_cols=meta.n_cols,
                useful_nnz=meta.useful_nnz,
                values=meta.elem_val,
                col_indices=meta.elem_col,
                out_rows=analysis.cached_array(
                    "out_rows", lambda: meta.origin_rows[meta.elem_row]
                ),
                thread_of_nz=dist.thread_of_nz,
                n_threads=dist.n_threads,
                threads_per_block=tpb,
                reduction_steps=steps,
                interleaved=meta.interleaved,
                extra_format_bytes=float(fmt.aux_bytes),
                storage_run_length=dist.run_length,
                value_bytes=8 if self.precision == "fp64" else 4,
                label=label,
                analysis_ref=weakref.ref(analysis),
                cost_key=cost_key,
            )

        return analysis.cached_scalar(("plan",) + cost_key, construct)

    @staticmethod
    def _reduction_steps(meta: MatrixMetadataSet) -> Tuple[ReductionStep, ...]:
        steps = tuple(
            ReductionStep(level, strategy) for level, strategy in meta.reduction_steps
        )
        if not steps or steps[-1].level != "global":
            raise BuildError("design has no global reduction step")
        return steps

    # ------------------------------------------------------------------
    def _distribute(
        self, meta: MatrixMetadataSet
    ) -> Tuple[np.ndarray, int, Optional[int], float, Tuple[str, ...]]:
        """Returns (thread_of_nz, n_threads, threads_per_block, run_length,
        deps).

        ``deps`` names the runtime scalars the *thread assignment* read
        (``"tpb"`` / ``"grid"``, the ``assignment`` half of
        :func:`runtime_reads`): none under a BMT or BMW level, ``"tpb"``
        for BMTB round-robin, ``"grid"`` when unmapped.  The leaf analysis
        keys distributions by exactly those values, so one assignment is
        computed once per leaf, not once per runtime assignment.

        ``threads_per_block`` is the block size a BMTB level over a finer
        level fixes, or None: the kernel then launches with the configured
        ``meta.threads_per_block``, which the distribution did not read
        (BMTB round-robin reads it through ``deps`` instead).
        """
        n = meta.stored_elements
        bmt = meta.blocks_of("bmt")
        bmw = meta.blocks_of("bmw")
        bmtb = meta.blocks_of("bmtb")
        deps, _unit_reads = runtime_reads(meta)
        tpb: Optional[int] = None

        if bmt is not None:
            n_bmt = int(meta.n_blocks("bmt") or 0)
            counts = np.bincount(bmt, minlength=n_bmt)
            run = float(counts[counts > 0].mean()) if n_bmt else 1.0
            if bmw is not None:
                parent_w = _parent_of_block(bmt, bmw)
                first_bmt = _first_child_of_parent(parent_w)
                lane_of_bmt = np.arange(n_bmt) - first_bmt[parent_w]
                if lane_of_bmt.max(initial=0) >= WARP:
                    raise BuildError("a warp was mapped to more than 32 BMTs")
                if bmtb is not None:
                    parent_b = _parent_of_block(bmw, bmtb)
                    first_bmw = _first_child_of_parent(parent_b)
                    warp_in_block = np.arange(parent_b.size) - first_bmw[parent_b]
                    warps_per_block = int(warp_in_block.max(initial=0)) + 1
                    tpb = warps_per_block * WARP
                    self._check_tpb(tpb)
                    n_bmtb = int(meta.n_blocks("bmtb") or 0)
                    thread_of_bmt = (
                        parent_b[parent_w] * tpb
                        + warp_in_block[parent_w] * WARP
                        + lane_of_bmt
                    )
                    n_threads = n_bmtb * tpb
                else:
                    thread_of_bmt = parent_w * WARP + lane_of_bmt
                    n_threads = (int(meta.n_blocks("bmw") or 0)) * WARP
            elif bmtb is not None:
                parent_b = _parent_of_block(bmt, bmtb)
                first_bmt = _first_child_of_parent(parent_b)
                bmt_in_block = np.arange(n_bmt) - first_bmt[parent_b]
                tpb = _round_up(int(bmt_in_block.max(initial=0)) + 1, WARP)
                self._check_tpb(tpb)
                n_bmtb = int(meta.n_blocks("bmtb") or 0)
                thread_of_bmt = parent_b * tpb + bmt_in_block
                n_threads = n_bmtb * tpb
            else:
                thread_of_bmt = np.arange(n_bmt, dtype=np.int64)
                n_threads = max(n_bmt, 1)
            thread_of_nz = thread_of_bmt[bmt]
            return (
                thread_of_nz.astype(np.int64),
                int(max(n_threads, 1)),
                tpb,
                run,
                deps,
            )

        if bmw is not None:
            starts = _block_starts(bmw)
            offset = np.zeros(int(bmw.max()) + 1, dtype=np.int64)
            offset[bmw[starts]] = starts
            pos = np.arange(n, dtype=np.int64) - offset[bmw]
            lane = pos % WARP
            if bmtb is not None:
                parent_b = _parent_of_block(bmw, bmtb)
                first_bmw = _first_child_of_parent(parent_b)
                warp_in_block = np.arange(parent_b.size) - first_bmw[parent_b]
                warps_per_block = int(warp_in_block.max(initial=0)) + 1
                tpb = warps_per_block * WARP
                self._check_tpb(tpb)
                n_bmtb = int(meta.n_blocks("bmtb") or 0)
                thread_of_nz = (
                    parent_b[bmw] * tpb + warp_in_block[bmw] * WARP + lane
                )
                n_threads = n_bmtb * tpb
            else:
                thread_of_nz = bmw * WARP + lane
                n_threads = (int(meta.n_blocks("bmw") or 0)) * WARP
            return (
                thread_of_nz.astype(np.int64),
                int(max(n_threads, 1)),
                tpb,
                1.0,
                deps,
            )

        if bmtb is not None:
            # Round-robin over the configured block: the assignment reads it.
            tpb_cfg = meta.threads_per_block
            starts = _block_starts(bmtb)
            offset = np.zeros(int(bmtb.max()) + 1, dtype=np.int64)
            offset[bmtb[starts]] = starts
            pos = np.arange(n, dtype=np.int64) - offset[bmtb]
            thread_of_nz = bmtb * tpb_cfg + pos % tpb_cfg
            n_bmtb = int(meta.n_blocks("bmtb") or 0)
            return (
                thread_of_nz.astype(np.int64),
                max(n_bmtb * tpb_cfg, 1),
                None,
                1.0,
                deps,
            )

        # Unmapped: COO-style grid-stride loop.
        grid = meta.grid_threads or min(max(n, 1), 4096 * WARP)
        grid = _round_up(int(grid), WARP)
        thread_of_nz = np.arange(n, dtype=np.int64) % grid
        return thread_of_nz, grid, None, 1.0, deps

    @staticmethod
    def _check_tpb(tpb: int) -> None:
        if tpb > MAX_THREADS_PER_BLOCK:
            raise BuildError(
                f"design requires {tpb} threads per block "
                f"(CUDA limit {MAX_THREADS_PER_BLOCK})"
            )

    # ------------------------------------------------------------------
    def build_unit(
        self, leaf: DesignLeaf, analysis: Optional[LeafAnalysis] = None
    ) -> KernelUnit:
        if analysis is None:
            fmt = build_format(leaf.meta, self.compressor, name=f"fmt_{leaf.label}")
        else:
            # Format arrays are projected from leaf-invariant metadata, so
            # one machine-designed format serves the whole runtime grid.
            fmt = analysis.cached_scalar(
                "format",
                lambda: build_format(
                    leaf.meta, self.compressor, name=f"fmt_{leaf.label}"
                ),
            )
        plan = self.build_plan(leaf.meta, fmt, label=leaf.label, analysis=analysis)
        if analysis is None:
            source = generate_source(leaf.meta, fmt, plan, workload=self.workload)
        else:
            # The rendered text depends on the plan only through the launch
            # geometry (and the workload) — share it across runtime
            # assignments that agree.
            source = analysis.cached_scalar(
                self.workload.scope_key(
                    ("source", plan.n_blocks, plan.threads_per_block,
                     plan.interleaved)
                ),
                lambda: generate_source(
                    leaf.meta, fmt, plan, workload=self.workload
                ),
            )
        return KernelUnit(
            label=leaf.label,
            plan=plan,
            format=fmt,
            source=source,
            applied_operators=list(leaf.meta.applied_operators),
        )

    def design_phase(
        self, matrix: SparseMatrix, graph: OperatorGraph
    ) -> List[DesignLeaf]:
        """Structure-level half of :meth:`build`.

        Runs the Designer with runtime-only parameters at their defaults;
        the returned leaves are valid for *every* runtime assignment of the
        same design-signature graph, so callers may cache and share them
        (they must then be treated as immutable).
        """
        return self.designer.design(matrix, design_graph(graph))

    def assembly_phase(
        self,
        matrix: SparseMatrix,
        graph: OperatorGraph,
        leaves: Sequence[DesignLeaf],
        analysis: Optional[DesignAnalysis] = None,
    ) -> GeneratedProgram:
        """Parameter-level half of :meth:`build`.

        Grafts ``graph``'s runtime parameters onto (possibly cached) design
        leaves, then builds formats, plans and sources.  Leaves are never
        mutated: runtime scalars are re-applied on a shallow store copy.

        ``analysis`` (one :class:`~repro.gpu.analysis.DesignAnalysis` per
        design signature) memoises assembled kernel units per runtime
        value each leaf reads and the cross-kernel write check per
        design, and is carried on the returned program for verdict reuse.
        """
        kernels = []
        for i, leaf in enumerate(leaves):
            la = None if analysis is None else analysis.leaf(i)
            kernels.append(self._assemble_unit(leaf, graph, la))
        if analysis is None:
            conflict = self._cross_kernel_conflict(kernels)
        else:
            conflict = analysis.cross_check(
                lambda: self._cross_kernel_conflict(kernels)
            )
        if conflict is not None:
            raise BuildError(conflict)
        return GeneratedProgram(
            matrix_name=matrix.name,
            n_rows=matrix.n_rows,
            n_cols=matrix.n_cols,
            useful_nnz=matrix.nnz,
            kernels=kernels,
            analysis=analysis,
        )

    def _assemble_unit(
        self,
        leaf: DesignLeaf,
        graph: OperatorGraph,
        analysis: Optional[LeafAnalysis],
    ) -> KernelUnit:
        """One leaf's kernel unit, memoised per runtime value it reads.

        The unit (format, plan, source) is a pure function of the leaf plus
        the runtime scalars its kernel reads (:meth:`runtime_unit_key`), so
        candidates agreeing on those get the same (immutable) unit object
        back — including deterministic replay of assembly failures.
        """
        nodes = runtime_nodes_for_leaf(graph, leaf.branch_path)
        if analysis is None:
            return self.build_unit(self._runtime_leaf(leaf, nodes), analysis=None)
        key, runtime = self.runtime_unit_key(leaf, nodes)
        entry = analysis.unit(
            key, lambda: self.compute_unit_entry(runtime, analysis)
        )
        if entry[0] == "error":
            raise entry[1](entry[2])
        return entry[1]

    def runtime_unit_key(
        self, leaf: DesignLeaf, nodes: Sequence[GraphNode]
    ) -> Tuple[Tuple, Union[DesignLeaf, Tuple]]:
        """Unit-cache key of one leaf under its branch path's runtime
        nodes, plus the input :meth:`compute_unit_entry` assembles.

        The nodes are re-applied to a runtime copy of the leaf, and the key
        is the values of the runtime scalars the leaf's unit reads
        (:func:`runtime_reads`): ``()`` when a BMTB level over a finer level
        fixes the launch, ``(threads_per_block,)`` for other mapped leaves,
        ``(threads_per_block, grid_threads)`` when unmapped.  A value the
        operator rejects keys by its own error message, and the input is
        then that error entry, so the failure replays exactly.
        """
        try:
            runtime = self._runtime_leaf(leaf, nodes)
        except DesignError as exc:
            return ("rejected", str(exc)), ("error", DesignError, str(exc))
        scalars = _runtime_scalars(runtime.meta)
        _assignment, reads = runtime_reads(leaf.meta)
        return tuple(scalars[name] for name in reads), runtime

    def compute_unit_entry(
        self, runtime: Union[DesignLeaf, Tuple], analysis: LeafAnalysis
    ) -> Tuple:
        """Entry-form unit assembly of a :meth:`runtime_unit_key` input:
        ``("ok", unit)`` or ``("error", exc_class, message)`` — the shape
        :meth:`LeafAnalysis.unit`/``unit_batch`` cache, shared by the
        per-candidate and batched evaluation paths."""
        if isinstance(runtime, tuple):
            return runtime
        try:
            unit = self.build_unit(runtime, analysis=analysis)
        except DesignError as exc:
            return ("error", DesignError, str(exc))
        except BuildError as exc:
            return ("error", BuildError, str(exc))
        return ("ok", unit)

    def _runtime_leaf(
        self, leaf: DesignLeaf, nodes: Sequence[GraphNode]
    ) -> DesignLeaf:
        """Leaf with the runtime-parameter operators re-applied with the
        requested values (the design ran with defaults)."""
        if not nodes:
            return leaf
        meta = leaf.meta.runtime_copy()
        for node in nodes:
            op = node.operator
            try:
                op.apply(meta, node.params)
            except OperatorError as exc:
                raise DesignError(f"{op.name}: {exc}") from exc
        return DesignLeaf(meta=meta, branch_path=leaf.branch_path)

    def build(self, matrix: SparseMatrix, graph: OperatorGraph) -> GeneratedProgram:
        """Design + assemble in one step (uncached staged build)."""
        return self.assembly_phase(matrix, graph, self.design_phase(matrix, graph))

    @staticmethod
    def _cross_kernel_conflict(kernels) -> Optional[str]:
        """Multi-kernel programs (COL_DIV / HYB_DECOMP branches) accumulate
        into the same rows; a kernel that plain-stores a row another kernel
        also writes would lose updates on real hardware.  Returns the error
        message (design-invariant, so callers may cache it) or None."""
        if len(kernels) < 2:
            return None
        rows_written = []
        for unit in kernels:
            la = unit.plan.analysis
            if la is not None:
                rows = la.cached_array(
                    "unique_out_rows",
                    lambda u=unit: np.unique(
                        u.plan.out_rows[u.plan.out_rows >= 0]
                    ),
                )
            else:
                rows = np.unique(unit.plan.out_rows[unit.plan.out_rows >= 0])
            rows_written.append(rows)
        for i, unit in enumerate(kernels):
            if unit.plan.reduction_steps[-1].strategy != "GMEM_DIRECT_STORE":
                continue
            for j, other_rows in enumerate(rows_written):
                if i == j:
                    continue
                if np.intersect1d(
                    rows_written[i], other_rows, assume_unique=True
                ).size:
                    return (
                        "GMEM_DIRECT_STORE in one kernel conflicts with rows "
                        "written by another kernel; use GMEM_ATOM_RED"
                    )
        return None


def build_program(
    matrix: SparseMatrix,
    graph: OperatorGraph,
    compress: bool = True,
    precision: str = "fp32",
    workload: Optional[Workload] = None,
) -> GeneratedProgram:
    """Convenience one-shot: design, generate, optimise.

    ``compress=False`` disables Model-Driven Format Compression (ablation);
    ``precision="fp64"`` builds a double-precision kernel (the paper
    evaluates fp32; fp64 is a library extension); ``workload`` renders the
    source for a non-default operation (run the program with the same
    workload).
    """
    compressor = ModelDrivenCompressor() if compress else None
    return KernelBuilder(
        compressor=compressor, precision=precision, workload=workload
    ).build(matrix, graph)
