"""CUDA-like source rendering of a generated kernel (paper Fig 7).

The rendered text is documentation-grade output: it shows a downstream user
exactly what kernel the Operator Graph designed — the loop nest over mapped
levels, the format arrays each level loads (with Model-Driven-Compressed
arrays replaced by their closed-form expressions, underlined in the paper's
figure), the reduction fragments and the adapters between them.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.core.format import MachineDesignedFormat
from repro.core.kernel.fragments import adapter_between, reduction_fragment
from repro.core.kernel.skeleton import KernelSkeleton, LoopLevel
from repro.core.metadata import MatrixMetadataSet
from repro.gpu.executor import ExecutionPlan
from repro.workloads import DEFAULT_WORKLOAD, Workload

__all__ = ["generate_source"]

_LEVEL_LOOPS = {
    "bmtb": (
        "BMTB",
        "for (int bmtb_id = blockIdx.x; bmtb_id < n_bmtb; bmtb_id += gridDim.x)",
    ),
    "bmw": (
        "BMW",
        "for (int bmw_id = warp_id(); bmw_id < n_bmw; bmw_id += total_warps())",
    ),
    "bmt": (
        "BMT",
        "for (int bmt_id = global_thread(); bmt_id < n_bmt; bmt_id += total_threads())",
    ),
}


def _meta_loads(fmt: MachineDesignedFormat, level: str) -> List[str]:
    """Loads (or inlined model expressions) of the level's format arrays."""
    lines: List[str] = [f"// get meta of {level.upper()}"]
    idx = f"{level}_id"
    for arr in fmt.arrays:
        if not arr.name.startswith(f"{level}_"):
            continue
        if arr.model is not None:
            expr = arr.model.expression(idx)
            lines.append(
                f"int {arr.name}_v = {expr};  "
                f"// Model-Driven Compression eliminated {arr.name}[]"
            )
            for pos, val in arr.model.exceptions:
                lines.append(f"if ({idx} == {pos}) {arr.name}_v = {val};")
        else:
            lines.append(f"int {arr.name}_v = {arr.name}[{idx}];")
    return lines


def _fragment_substitutions(workload: Workload) -> dict:
    """Textual rewrites that reorient the shared reduction fragments.

    The fragments keep two conventions regardless of workload:
    ``partial_result`` is the value being reduced and ``out_row`` the
    output index of ``y``.  Transpose workloads redirect the gather to
    the row side (``out_row`` then holds a column id — annotated in the
    loop body); SpMM rewrites gather and flush to their per-column forms
    (``j`` is the dense-column index, stated in the prologue).
    """
    if workload.is_default:
        return {}
    if workload.transpose:
        # ``row_of``-style helpers answer "which output index does this
        # element flush to" — on the transpose that is the column side.
        return {
            "x[col_indices[nz]]": "x[row_indices[nz]]",
            "row_of(": "col_of(",
        }
    k = workload.k
    return {
        "x[col_indices[nz]]": f"x[col_indices[nz] * {k} + j]",
        "y[out_row]": f"y[out_row * {k} + j]",
    }


def _subst(lines: List[str], substitutions: dict) -> List[str]:
    for old, new in substitutions.items():
        lines = [line.replace(old, new) for line in lines]
    return lines


def _nz_window(fmt: MachineDesignedFormat, level: str) -> List[str]:
    """Bind the innermost mapped level's stored-element window — the
    ``bmt_nz_begin``/``bmt_nz_end`` range every thread-stage fragment
    iterates (Model-Driven-Compressed offset arrays are inlined, like
    the meta loads above)."""
    name = f"{level}_nz_offsets"
    arr = next((a for a in fmt.arrays if a.name == name), None)
    lines = [f"// stored-element window of this {level.upper()}"]
    if arr is not None and arr.model is not None:
        lines.append(f"int bmt_nz_begin = {name}_v;")
        end = arr.model.expression(f"({level}_id + 1)")
        lines.append(f"int bmt_nz_end = {end};")
    else:
        lines.append(f"int bmt_nz_begin = {name}[{level}_id];")
        lines.append(f"int bmt_nz_end = {name}[{level}_id + 1];")
    return lines


def _gmem_seam(producer: str) -> List[str]:
    """Bind ``partial_result``/``out_row`` for the global step from
    wherever the last reduction stage left its result."""
    if producer == "WARP_SEG_RED":
        return [
            "// Adapter: the segment tail's carry is the surviving partial",
            "float partial_result = carry;",
            "int out_row = segment_row;",
        ]
    if producer == "WARP_BITMAP_RED":
        return [
            "// Adapter: the row tail's carry is the surviving partial",
            "float partial_result = carry;",
            "int out_row = my_row;",
        ]
    if producer == "SHMEM_TOTAL_RED":
        return [
            "// Adapter: the block's single surviving partial",
            "float partial_result = shmem_partials[0];",
            "int out_row = first_row_of_block;",
        ]
    if producer == "SHMEM_OFFSET_RED":
        return [
            "// Adapter: flush each merged row result (one per thread)",
            "int out_row = first_row_of_block + threadIdx.x;",
            "float partial_result = block_result[out_row];",
        ]
    if producer == "THREAD_BITMAP_RED":
        return [
            "// Adapter: the tail row's leftover accumulation",
            "float partial_result = thread_result;",
            "int out_row = row_of(bmt_nz_end - 1);",
        ]
    # TOTAL reductions leave one scope-wide result in thread_result.
    return [
        "// Adapter: expose the reduced result to the global step",
        "float partial_result = thread_result;",
        "int out_row = row_of(bmt_nz_begin);",
    ]


def _inner_loop_body(workload: Workload, index: str) -> List[str]:
    """The workload's multiply-accumulate statements for one stored
    element addressed by ``index`` (the slot every loop nest fills).

    Every workload keeps the fragment conventions: ``partial_result``
    carries the product and ``out_row`` the index ``y`` is flushed at, so
    the reduction fragments spliced below stay consistent.
    """
    if workload.is_default:
        return [
            f"float partial_result = val_arr[{index}] * x[col_indices[{index}]];",
            f"int out_row = row_indices[{index}];",
        ]
    if workload.transpose:
        return [
            f"float partial_result = val_arr[{index}] * x[row_indices[{index}]];"
            "  // transpose: gather x along rows",
            f"int out_row = col_indices[{index}];"
            "  // transpose: y is indexed by the column",
        ]
    k = workload.k
    return [
        f"// per dense column j in [0, {k}): the statements below (and the",
        "// reduction fragments) repeat element-wise for each j",
        f"float partial_result = val_arr[{index}] * "
        f"x[col_indices[{index}] * {k} + j];",
        f"int out_row = row_indices[{index}];"
        f"  // flushed into y[out_row * {k} + j]",
    ]


def _workload_note(workload: Workload, level: str) -> List[str]:
    """Comment-only body for mapped loop nests (the multiply-accumulate
    is implicit in the innermost level's reduction fragments; only the
    orientation/width needs spelling out for non-default workloads)."""
    if workload.transpose:
        return [
            f"// {workload.display}: each element of this {level.upper()} "
            "gathers x[row] and",
            "// scatters into y[col] — out_row in the fragments below is "
            "a column id",
        ]
    return [
        f"// {workload.display}: each element of this {level.upper()} "
        f"multiplies into {workload.k}",
        f"// partials, gathered from x[col * {workload.k} + j] and flushed "
        f"into y[row * {workload.k} + j]",
    ]


def generate_source(
    meta: MatrixMetadataSet,
    fmt: MachineDesignedFormat,
    plan: ExecutionPlan,
    workload: Optional[Workload] = None,
) -> str:
    """Render one kernel's CUDA-like source.

    ``workload`` parameterises the kernel name, the operand declaration
    and the inner multiply-accumulate body (None = the default SpMV,
    rendering the historical text unchanged).
    """
    workload = workload or DEFAULT_WORKLOAD
    args = ["const float* __restrict__ val_arr",
            "const int* __restrict__ row_indices",
            "const int* __restrict__ col_indices",
            "const float* __restrict__ x",
            "float* y"]
    for arr in fmt.arrays:
        if arr.name in ("values", "row_indices", "col_indices") or arr.model is not None:
            continue
        args.append(f"const int* __restrict__ {arr.name}")

    prologue = [
        f"// machine-designed by operator graph: "
        + " -> ".join(meta.applied_operators),
        f"// launch: {plan.n_blocks} blocks x {plan.threads_per_block} threads"
        + (", interleaved storage" if plan.interleaved else ""),
    ]
    if not workload.is_default:
        prologue.insert(0, f"// workload: {workload.display}")
    skeleton = KernelSkeleton(
        kernel_name=(
            f"{workload.name}_{(meta.get('matrix_name') or 'generated')}"
        ).replace("-", "_").replace(".", "_"),
        args=args,
        prologue=prologue,
    )

    mapped_levels = [
        level for level in ("bmtb", "bmw", "bmt") if meta.blocks_of(level) is not None
    ]
    if not mapped_levels:
        skeleton.loops.append(
            LoopLevel(
                name="NZ",
                header=(
                    "for (int nz = global_thread(); nz < n_stored; "
                    "nz += total_threads())"
                ),
                body=_inner_loop_body(workload, "nz"),
            )
        )
    else:
        for level in mapped_levels:
            name, header = _LEVEL_LOOPS[level]
            loop = LoopLevel(name=name, header=header)
            loop.get_meta = _meta_loads(fmt, level)
            skeleton.loops.append(loop)
        if not workload.is_default:
            # Mapped loop nests carry the multiply-accumulate implicitly
            # in the innermost level's reduction fragments; document the
            # workload's orientation there (no new identifiers).
            skeleton.loops[-1].body = _workload_note(
                workload, mapped_levels[-1]
            )

    # Reduction fragments, innermost-out, with adapters between stages;
    # access expressions are reoriented per workload so the rendered
    # gather/flush sides match the loop body's conventions.  Seam bindings
    # declare every identifier a fragment consumes from its upstream
    # context (the lint in ``repro.staticcheck.lint`` reads them back).
    substitutions = _fragment_substitutions(workload)
    steps = [s.strategy for s in plan.reduction_steps]
    innermost = skeleton.loops[-1]
    if mapped_levels and steps and steps[0].startswith("GMEM_"):
        # No pre-global reduction: every stored element of the scope's
        # window flushes individually through the global step.
        frag = _subst(_nz_window(fmt, mapped_levels[-1]), substitutions)
        frag.append("// per-element flush over the scope's window")
        frag.append("for (int nz = bmt_nz_begin; nz < bmt_nz_end; ++nz) {")
        body = _inner_loop_body(workload, "nz") + reduction_fragment(
            steps[0], substitutions
        )
        frag.extend("    " + line for line in _subst(body, substitutions))
        frag.append("}")
        innermost.reduction.extend(frag)
    else:
        prev_strategy = None
        for strategy in steps:
            frag: List[str] = []
            if prev_strategy is None:
                if mapped_levels:
                    frag.extend(
                        _subst(_nz_window(fmt, mapped_levels[-1]), substitutions)
                    )
                    if not strategy.startswith("THREAD_"):
                        # A warp/block-level first step consumes per-thread
                        # partials; bind them with the serial accumulation
                        # the implicit thread stage performs.
                        frag.extend(
                            _subst(
                                [
                                    "float thread_result = 0.0f;",
                                    "for (int nz = bmt_nz_begin; nz < bmt_nz_end; ++nz)",
                                    "    thread_result += val_arr[nz] * x[col_indices[nz]];",
                                ],
                                substitutions,
                            )
                        )
                elif strategy.startswith("THREAD_"):
                    frag.append("// grid-stride: one stored element per iteration")
                    frag.append("int bmt_nz_begin = nz;")
                    frag.append("int bmt_nz_end = nz + 1;")
                elif not strategy.startswith("GMEM_"):
                    frag.append(
                        "float thread_result = partial_result;"
                        "  // one stored element per iteration"
                    )
                # A shared-space first consumer still needs its partials
                # staged out of registers.
                frag.extend(adapter_between("THREAD_TOTAL_RED", strategy))
            if prev_strategy is not None:
                frag.extend(adapter_between(prev_strategy, strategy))
                if strategy.startswith("GMEM_") and mapped_levels:
                    frag.extend(
                        _subst(_gmem_seam(prev_strategy), substitutions)
                    )
            frag.extend(reduction_fragment(strategy, substitutions))
            innermost.reduction.extend(frag)
            prev_strategy = strategy

    if "origin_rows" in fmt:
        innermost.reduction.append(
            "// SORT provenance: out_row = origin_rows[current_row]"
        )

    # Shared memory is part of the launch contract only when some fragment
    # actually stages partials there.
    if any(
        "shmem_partials" in line
        for loop in skeleton.loops
        for line in loop.get_meta + loop.body + loop.reduction
    ):
        skeleton.prologue.append("extern __shared__ float shmem_partials[];")

    text = skeleton.render()
    if plan.value_bytes == 8:
        # Double-precision plans render a double pipeline end to end.
        text = re.sub(r"\bfloat\b", "double", text).replace("0.0f", "0.0")
    return text
