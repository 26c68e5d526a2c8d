"""Mapping-stage operators: distribute the matrix over GPU parallelism levels.

Table II (mapping): BMTB/BMW/BMT × ROW/COL_BLOCK, BMT_NNZ_BLOCK,
BMTB/BMW/BMT_PAD, SORT_BMTB — plus INTERLEAVED_STORAGE and BMTB_ROW_PAD
which appear in the paper's Fig 14a machine-designed format.

BMTB/BMW/BMT abbreviate "a block mapped to a thread block / warp / thread".
Blocks are contiguous runs of the element storage order, globally numbered,
and nested: every BMT lies inside one BMW (if warps are mapped) inside one
BMTB.  Mapping operators must therefore be applied coarse-to-fine; the
dependency rules below reject e.g. ``BMT_ROW_BLOCK`` followed by
``BMTB_ROW_BLOCK`` — the paper's own Fig 5 example of an illegal edge.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.core.metadata import MAP_LEVELS, MatrixMetadataSet
from repro.core.operators.base import (
    Operator,
    OperatorError,
    ParamSpec,
    Stage,
    register_operator,
)
from repro.errors import PAD_BUDGET

__all__ = [
    "MAX_PAD_BLOWUP",
    "BmtbRowBlock",
    "BmwRowBlock",
    "BmtRowBlock",
    "BmtbColBlock",
    "BmtColBlock",
    "BmtbNnzBlock",
    "BmwNnzBlock",
    "BmtNnzBlock",
    "BmtbPad",
    "BmwPad",
    "BmtPad",
    "BmtbRowPad",
    "SortBmtb",
    "InterleavedStorage",
]


#: Padding budget: no pad operator may grow a leaf's stored elements past
#: this multiple of its useful nonzeros.  ELL-style padding of a skewed
#: matrix otherwise allocates hundreds of times the matrix (the practical
#: limit that made cuSPARSE drop ELL).
MAX_PAD_BLOWUP = 10


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _check_pad_budget(meta: MatrixMetadataSet, padded: int, op_name: str) -> None:
    """Refuse, before allocating, padding that would store ``padded``
    elements past the leaf's budget (a coded :class:`OperatorError`)."""
    useful = meta.useful_nnz
    if padded > MAX_PAD_BLOWUP * max(useful, 1):
        raise OperatorError(
            f"{op_name}: padding {meta.stored_elements} elements to {padded} "
            f"exceeds {MAX_PAD_BLOWUP}x the {useful} useful nonzeros",
            code=PAD_BUDGET,
        )


def _level_index(level: str) -> int:
    return MAP_LEVELS.index(level)


def _require_level_free(meta: MatrixMetadataSet, level: str, op_name: str) -> None:
    """Enforce coarse-to-fine creation order for mapping levels."""
    if meta.blocks_of(level) is not None:
        raise OperatorError(f"{op_name}: {level} blocks already defined")
    for finer in MAP_LEVELS[_level_index(level) + 1 :]:
        if meta.blocks_of(finer) is not None:
            raise OperatorError(
                f"{op_name}: cannot create {level} blocks after finer "
                f"{finer} blocks exist (paper §IV-B dependency)"
            )


def _parent_blocks(meta: MatrixMetadataSet, level: str) -> Optional[np.ndarray]:
    """Block ids of the nearest coarser mapped level (None if unmapped)."""
    for coarser in reversed(MAP_LEVELS[: _level_index(level)]):
        blocks = meta.blocks_of(coarser)
        if blocks is not None:
            return blocks
    return None


def _contiguous_ids(keys: np.ndarray) -> np.ndarray:
    """Renumber group keys (non-decreasing not required) to dense ids
    following storage order of first appearance."""
    if keys.size == 0:
        return keys.astype(np.int64)
    change = np.empty(keys.size, dtype=bool)
    change[0] = True
    change[1:] = keys[1:] != keys[:-1]
    return np.cumsum(change) - 1


def _row_block_ids(
    meta: MatrixMetadataSet, rows_per_block: int, op_name: str
) -> np.ndarray:
    """Group elements into blocks of ``rows_per_block`` consecutive rows,
    nested within the current parent blocks."""
    if rows_per_block <= 0:
        raise OperatorError(f"{op_name}: rows_per_block must be positive")
    rows = meta.elem_row
    parent = _parent_blocks_for_new(meta, op_name)
    if parent is None:
        local = rows // rows_per_block
        return _contiguous_ids(local)
    # First row of each parent block (from elements; storage is row-major
    # within parents after row blocking).
    first_row = _per_group_min(parent, rows)
    local = (rows - first_row[parent]) // rows_per_block
    # Combine (parent, local) into dense global ids.
    return _contiguous_ids(parent * (local.max() + 1 if local.size else 1) + local)


def _parent_blocks_for_new(meta: MatrixMetadataSet, op_name: str) -> Optional[np.ndarray]:
    level = op_name.split("_")[0].lower()  # "bmtb" / "bmw" / "bmt"
    return _parent_blocks(meta, level)


def _per_group_min(groups: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Minimum of ``values`` per dense group id."""
    n_groups = int(groups.max()) + 1 if groups.size else 0
    out = np.full(n_groups, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(out, groups, values)
    return out


def _nnz_block_ids(
    meta: MatrixMetadataSet, nnz_per_block: int, op_name: str
) -> np.ndarray:
    """Chunk elements into runs of ``nnz_per_block``, never straddling a
    parent-block boundary (the load-balancing split of CSR5/Merge)."""
    if nnz_per_block <= 0:
        raise OperatorError(f"{op_name}: nnz_per_block must be positive")
    n = meta.stored_elements
    parent = _parent_blocks_for_new(meta, op_name)
    if parent is None:
        return np.arange(n, dtype=np.int64) // nnz_per_block
    # Position within parent block.
    starts = np.flatnonzero(np.r_[True, parent[1:] != parent[:-1]])
    offset_of_parent = np.zeros(int(parent.max()) + 1, dtype=np.int64)
    offset_of_parent[parent[starts]] = starts
    pos_in_parent = np.arange(n, dtype=np.int64) - offset_of_parent[parent]
    local = pos_in_parent // nnz_per_block
    return _contiguous_ids(parent * (int(local.max()) + 1) + local)


def _set_level_blocks(
    meta: MatrixMetadataSet, level: str, block_of_elem: np.ndarray
) -> int:
    n_blocks = int(block_of_elem.max()) + 1 if block_of_elem.size else 0
    meta.set_blocks(level, block_of_elem.astype(np.int64), n_blocks)
    return n_blocks


def _record_offsets(meta: MatrixMetadataSet, level: str) -> None:
    """Add the ``<level>_nz_offsets`` / ``<level>_row_offsets`` format arrays
    (paper Fig 5's added-metadata rows)."""
    blocks = meta.blocks_of(level)
    assert blocks is not None
    n = blocks.size
    starts = np.flatnonzero(np.r_[True, blocks[1:] != blocks[:-1]])
    nz_offsets = np.r_[starts, n].astype(np.int64)
    meta.format_arrays[f"{level}_nz_offsets"] = nz_offsets
    first_rows = meta.elem_row[starts] if n else np.zeros(0, dtype=np.int64)
    meta.format_arrays[f"{level}_row_offsets"] = first_rows.astype(np.int64)


def _pad_blocks(
    meta: MatrixMetadataSet,
    level: str,
    mode: str,
    multiple: int,
    op_name: str,
) -> None:
    """Pad every block at ``level`` to a size target.

    ``mode='multiple'`` rounds each block's element count up to a multiple of
    ``multiple``; ``mode='max'`` equalises all blocks within their parent to
    the parent's max block size (ELL/SELL semantics).  Padding elements copy
    the block's last element's row/column with value 0, so every reduction
    strategy stays semantically valid and no extra x hot-spot is created.
    The padded total is checked against :data:`MAX_PAD_BLOWUP` before any
    padded array is built.
    """
    blocks = meta.blocks_of(level)
    if blocks is None:
        raise OperatorError(f"{op_name}: no {level} blocks to pad")
    for finer in MAP_LEVELS[_level_index(level) + 1 :]:
        if meta.blocks_of(finer) is not None:
            raise OperatorError(
                f"{op_name}: padding must happen before finer {finer} blocks"
            )
    n = blocks.size
    if n == 0:
        return
    n_blocks = int(blocks.max()) + 1
    counts = np.bincount(blocks, minlength=n_blocks)
    if mode == "multiple":
        if multiple <= 1:
            return
        targets = ((counts + multiple - 1) // multiple) * multiple
    elif mode == "max":
        parent = _parent_blocks(meta, level)
        if parent is None:
            targets = np.full(n_blocks, counts.max(), dtype=np.int64)
        else:
            starts = np.flatnonzero(np.r_[True, blocks[1:] != blocks[:-1]])
            parent_of_block = parent[starts]
            max_per_parent = np.zeros(int(parent_of_block.max()) + 1, dtype=np.int64)
            np.maximum.at(max_per_parent, parent_of_block, counts)
            targets = max_per_parent[parent_of_block]
    else:
        raise OperatorError(f"{op_name}: unknown pad mode {mode!r}")
    targets = np.maximum(targets, counts)
    if (targets == counts).all():
        return

    block_starts_in = np.r_[0, np.cumsum(counts)]
    block_starts_out = np.r_[0, np.cumsum(targets)]
    total_out = int(block_starts_out[-1])
    _check_pad_budget(meta, total_out, op_name)
    out_block = np.repeat(np.arange(n_blocks), targets)
    pos = np.arange(total_out) - block_starts_out[out_block]
    # Source: real element when pos < count, else repeat the last element.
    src = block_starts_in[out_block] + np.minimum(pos, np.maximum(counts[out_block] - 1, 0))
    is_pad = pos >= counts[out_block]

    meta.elem_row = meta.elem_row[src]
    meta.elem_col = meta.elem_col[src]
    new_vals = meta.elem_val[src]
    new_vals[is_pad] = 0.0
    meta.elem_val = new_vals
    meta.elem_pad = meta.elem_pad[src] | is_pad
    # Re-derive every level's block ids through the gather.
    for lvl in MAP_LEVELS:
        lvl_blocks = meta.blocks_of(lvl)
        if lvl_blocks is not None:
            meta.set_blocks(lvl, lvl_blocks[src], int(lvl_blocks.max()) + 1)
    # Block sizes are now uniform per parent / per multiple: record them.
    meta.format_arrays[f"{level}_sizes"] = targets.astype(np.int64)
    _record_offsets(meta, level)


# ---------------------------------------------------------------------------
# Row-blocking operators
# ---------------------------------------------------------------------------

class _RowBlock(Operator):
    stage = Stage.MAPPING
    level = ""  # set by subclasses

    def check(self, meta: MatrixMetadataSet, params: Mapping[str, object]) -> None:
        super().check(meta, params)
        _require_level_free(meta, self.level, self.name)

    def apply(self, meta: MatrixMetadataSet, params: Mapping[str, object]) -> None:
        rows_per_block = int(params["rows_per_block"])  # type: ignore[index]
        ids = _row_block_ids(meta, rows_per_block, self.name)
        _set_level_blocks(meta, self.level, ids)
        _record_offsets(meta, self.level)
        meta.put(f"{self.level}_is_row_block", True)


@register_operator
class BmtbRowBlock(_RowBlock):
    """Split rows into blocks mapped to thread blocks ([39], [43], [46], [47])."""

    name = "BMTB_ROW_BLOCK"
    level = "bmtb"
    source = "SELL-family, CSR-Adaptive"
    description = "Row blocks mapped to CUDA thread blocks"
    params = (
        ParamSpec(
            "rows_per_block",
            coarse=(32, 128, 512),
            fine=(16, 32, 64, 128, 256, 512, 1024),
        ),
    )


@register_operator
class BmwRowBlock(_RowBlock):
    """Split rows into blocks mapped to warps (CSR-vector lineage)."""

    name = "BMW_ROW_BLOCK"
    level = "bmw"
    source = "CSR-Vector, LightSpMV"
    description = "Row blocks mapped to warps"
    params = (
        ParamSpec(
            "rows_per_block",
            coarse=(1, 4, 16),
            fine=(1, 2, 4, 8, 16, 32),
        ),
    )


@register_operator
class BmtRowBlock(_RowBlock):
    """Split rows into blocks mapped to single threads (CSR-scalar lineage)."""

    name = "BMT_ROW_BLOCK"
    level = "bmt"
    source = "CSR-Scalar, SELL-P"
    description = "Row blocks mapped to threads"
    params = (
        ParamSpec(
            "rows_per_block",
            coarse=(1, 2),
            fine=(1, 2, 4),
        ),
    )


# ---------------------------------------------------------------------------
# Column-blocking operators
# ---------------------------------------------------------------------------

class _ColBlock(Operator):
    stage = Stage.MAPPING
    level = ""

    def check(self, meta: MatrixMetadataSet, params: Mapping[str, object]) -> None:
        super().check(meta, params)
        _require_level_free(meta, self.level, self.name)

    def apply(self, meta: MatrixMetadataSet, params: Mapping[str, object]) -> None:
        cols_per_block = int(params["cols_per_block"])  # type: ignore[index]
        if cols_per_block <= 0:
            raise OperatorError(f"{self.name}: cols_per_block must be positive")
        parent = _parent_blocks_for_new(meta, self.name)
        col_band = meta.elem_col // cols_per_block
        if parent is None:
            keys = col_band
            order = np.argsort(keys, kind="stable")
        else:
            width = int(col_band.max()) + 1 if col_band.size else 1
            keys = parent * width + col_band
            order = np.argsort(keys, kind="stable")
        # Column blocking re-orders storage inside parents.
        meta.elem_row = meta.elem_row[order]
        meta.elem_col = meta.elem_col[order]
        meta.elem_val = meta.elem_val[order]
        meta.elem_pad = meta.elem_pad[order]
        for lvl in MAP_LEVELS[: _level_index(self.level)]:
            blocks = meta.blocks_of(lvl)
            if blocks is not None:
                meta.set_blocks(lvl, blocks[order], int(blocks.max()) + 1)
        ids = _contiguous_ids(keys[order])
        _set_level_blocks(meta, self.level, ids)
        _record_offsets(meta, self.level)
        # Column blocks need explicit column-band bases in the format.
        blocks = meta.blocks_of(self.level)
        starts = np.flatnonzero(np.r_[True, blocks[1:] != blocks[:-1]]) if blocks.size else np.zeros(0, np.int64)
        meta.format_arrays[f"{self.level}_col_bases"] = (
            meta.elem_col[starts] // cols_per_block * cols_per_block
        ).astype(np.int64)


@register_operator
class BmtbColBlock(_ColBlock):
    """Column bands mapped to thread blocks (2-D blocking [46])."""

    name = "BMTB_COL_BLOCK"
    level = "bmtb"
    source = "2-D blocked SpMV, BCOO"
    description = "Column bands mapped to CUDA thread blocks"
    params = (
        ParamSpec(
            "cols_per_block",
            coarse=(256, 1024),
            fine=(128, 256, 512, 1024, 2048, 4096),
        ),
    )


@register_operator
class BmtColBlock(_ColBlock):
    """Column chunks inside a row mapped to different threads ([39], [43])."""

    name = "BMT_COL_BLOCK"
    level = "bmt"
    source = "BiELL, BCOO"
    description = "Column chunks mapped to threads"
    params = (
        ParamSpec(
            "cols_per_block",
            coarse=(32, 128),
            fine=(16, 32, 64, 128, 256, 512),
        ),
    )


# ---------------------------------------------------------------------------
# NNZ-blocking operators (load-balanced splits)
# ---------------------------------------------------------------------------

class _NnzBlock(Operator):
    stage = Stage.MAPPING
    level = ""

    def check(self, meta: MatrixMetadataSet, params: Mapping[str, object]) -> None:
        super().check(meta, params)
        _require_level_free(meta, self.level, self.name)

    def apply(self, meta: MatrixMetadataSet, params: Mapping[str, object]) -> None:
        nnz_per_block = int(params["nnz_per_block"])  # type: ignore[index]
        ids = _nnz_block_ids(meta, nnz_per_block, self.name)
        _set_level_blocks(meta, self.level, ids)
        _record_offsets(meta, self.level)
        # NNZ splits straddle rows: the kernel needs per-element row ids
        # unless a coarser structure pins them; record the row-index array.
        meta.format_arrays.setdefault(
            "elem_row_indices", meta.elem_row.astype(np.int64)
        )


@register_operator
class BmtbNnzBlock(_NnzBlock):
    """Equal-nnz chunks mapped to thread blocks (Merge-based CSR lineage)."""

    name = "BMTB_NNZ_BLOCK"
    level = "bmtb"
    source = "Merge-based CSR"
    description = "Continuous non-zeros mapped to thread blocks"
    params = (
        ParamSpec(
            "nnz_per_block",
            coarse=(1024, 4096),
            fine=(512, 1024, 2048, 4096, 8192),
        ),
    )


@register_operator
class BmwNnzBlock(_NnzBlock):
    """Equal-nnz tiles mapped to warps (CSR5 tile lineage)."""

    name = "BMW_NNZ_BLOCK"
    level = "bmw"
    source = "CSR5"
    description = "Continuous non-zeros mapped to warps"
    params = (
        ParamSpec(
            "nnz_per_block",
            coarse=(64, 256),
            fine=(32, 64, 128, 256, 512),
        ),
    )


@register_operator
class BmtNnzBlock(_NnzBlock):
    """Equal-nnz runs mapped to threads ([18], [25], [41])."""

    name = "BMT_NNZ_BLOCK"
    level = "bmt"
    source = "CSR5, yaSpMV"
    description = "Continuous non-zeros mapped to threads"
    params = (
        ParamSpec(
            "nnz_per_block",
            coarse=(2, 8, 32),
            fine=(2, 4, 8, 16, 32, 64),
        ),
    )


# ---------------------------------------------------------------------------
# Padding operators
# ---------------------------------------------------------------------------

class _Pad(Operator):
    stage = Stage.MAPPING
    level = ""

    params = (
        ParamSpec("mode", coarse=("multiple", "max")),
        ParamSpec(
            "multiple",
            coarse=(4, 32),
            fine=(2, 4, 8, 16, 32, 64),
            description="size granularity for mode='multiple'",
        ),
    )

    def check(self, meta: MatrixMetadataSet, params: Mapping[str, object]) -> None:
        super().check(meta, params)
        if meta.blocks_of(self.level) is None:
            raise OperatorError(f"{self.name}: requires {self.level} blocks")

    def apply(self, meta: MatrixMetadataSet, params: Mapping[str, object]) -> None:
        _pad_blocks(
            meta,
            self.level,
            str(params["mode"]),
            int(params["multiple"]),
            self.name,
        )


@register_operator
class BmtbPad(_Pad):
    """Zero-pad thread-block chunks ([35], [46], [47])."""

    name = "BMTB_PAD"
    level = "bmtb"
    source = "row-grouped CSR"
    description = "Zero padding of BMTB element counts"


@register_operator
class BmwPad(_Pad):
    """Zero-pad warp chunks to uniform size."""

    name = "BMW_PAD"
    level = "bmw"
    source = "AdELL"
    description = "Zero padding of BMW element counts"


@register_operator
class BmtPad(_Pad):
    """Zero-pad per-thread chunks — ELL/SELL-P's equal-work trick."""

    name = "BMT_PAD"
    level = "bmt"
    source = "ELLPACK, SELL-P"
    description = "Zero padding of BMT element counts"


@register_operator
class BmtbRowPad(Operator):
    """Pad the row count of each BMTB to a multiple (paper Fig 14a).

    With interleaved storage every BMTB must present a rectangular
    rows × width tile; missing rows are stood in by one zero element
    duplicating the block's last row.
    """

    name = "BMTB_ROW_PAD"
    stage = Stage.MAPPING
    source = "SELL-P"
    description = "Pad rows per BMTB to a multiple"
    params = (
        ParamSpec("multiple", coarse=(32,), fine=(4, 8, 16, 32, 64)),
    )

    def check(self, meta: MatrixMetadataSet, params: Mapping[str, object]) -> None:
        super().check(meta, params)
        if meta.blocks_of("bmtb") is None or not meta.get("bmtb_is_row_block"):
            raise OperatorError("BMTB_ROW_PAD: requires row-blocked bmtb")
        for finer in ("bmw", "bmt"):
            if meta.blocks_of(finer) is not None:
                raise OperatorError(
                    "BMTB_ROW_PAD: must run before finer blocks exist"
                )

    def apply(self, meta: MatrixMetadataSet, params: Mapping[str, object]) -> None:
        multiple = int(params["multiple"])
        if multiple <= 1:
            return
        blocks = meta.blocks_of("bmtb")
        assert blocks is not None
        n = blocks.size
        if n == 0:
            return
        new_block = np.r_[True, blocks[1:] != blocks[:-1]]
        starts = np.flatnonzero(new_block)
        ends = np.r_[starts[1:], n]
        # Distinct rows per block, from unique (block run, row) keys.
        width = int(meta.elem_row.max()) + 1
        keys = np.unique((np.cumsum(new_block) - 1) * width + meta.elem_row)
        deficits = (-np.bincount(keys // width, minlength=starts.size)) % multiple
        if not deficits.any():
            return
        _check_pad_budget(meta, n + int(deficits.sum()), self.name)
        pad_rows = np.repeat(meta.elem_row[ends - 1], deficits)
        pad_blocks = np.repeat(blocks[starts], deficits)
        # Append pads, then restore block-contiguous order.
        rows = np.r_[meta.elem_row, pad_rows]
        cols = np.r_[meta.elem_col, meta.elem_col[-1] * np.ones(pad_rows.size, dtype=np.int64)]
        vals = np.r_[meta.elem_val, np.zeros(pad_rows.size)]
        pads = np.r_[meta.elem_pad, np.ones(pad_rows.size, dtype=bool)]
        all_blocks = np.r_[blocks, pad_blocks]
        order = np.argsort(all_blocks, kind="stable")
        meta.elem_row = rows[order]
        meta.elem_col = cols[order]
        meta.elem_val = vals[order]
        meta.elem_pad = pads[order]
        meta.set_blocks("bmtb", all_blocks[order], int(all_blocks.max()) + 1)
        _record_offsets(meta, "bmtb")


@register_operator
class SortBmtb(Operator):
    """Sort rows by length within each BMTB ([39]) — shrinks padding while
    keeping the sort window local (cheap format conversion)."""

    name = "SORT_BMTB"
    stage = Stage.MAPPING
    source = "SELL-C-sigma"
    description = "Sort rows in decreasing length within a BMTB"

    def check(self, meta: MatrixMetadataSet, params: Mapping[str, object]) -> None:
        super().check(meta, params)
        if meta.blocks_of("bmtb") is None or not meta.get("bmtb_is_row_block"):
            raise OperatorError("SORT_BMTB: requires row-blocked bmtb")
        for finer in ("bmw", "bmt"):
            if meta.blocks_of(finer) is not None:
                raise OperatorError("SORT_BMTB: must run before finer blocks")

    def apply(self, meta: MatrixMetadataSet, params: Mapping[str, object]) -> None:
        from repro.core.operators.converting import _renumber_rows

        blocks = meta.blocks_of("bmtb")
        assert blocks is not None
        lengths = np.bincount(meta.elem_row, minlength=meta.n_rows)
        # Row -> bmtb from the first element of each row (rows don't straddle
        # bmtb row blocks).
        starts = np.flatnonzero(np.r_[True, meta.elem_row[1:] != meta.elem_row[:-1]])
        row_ids = meta.elem_row[starts]
        bmtb_of_row_dense = blocks[starts]
        bmtb_of_row = np.zeros(meta.n_rows, dtype=np.int64)
        bmtb_of_row[row_ids] = bmtb_of_row_dense
        # Stable sort rows by (bmtb, -length) and renumber.
        order = np.lexsort((-lengths, bmtb_of_row))
        new_of_old = np.empty(meta.n_rows, dtype=np.int64)
        new_of_old[order] = np.arange(meta.n_rows)
        saved_blocks = blocks.copy()
        _renumber_rows(meta, new_of_old)
        # Row renumbering is within-bmtb, so block ids per element position
        # are preserved by the row-major re-sort.
        meta.set_blocks("bmtb", saved_blocks, int(saved_blocks.max()) + 1)
        _record_offsets(meta, "bmtb")


@register_operator
class InterleavedStorage(Operator):
    """Transpose per-block storage so warp lanes access consecutive
    addresses — the ELL/SELL column-major trick (paper Fig 14a)."""

    name = "INTERLEAVED_STORAGE"
    stage = Stage.MAPPING
    source = "ELLPACK, SELL"
    description = "Column-major (interleaved) storage within blocks"

    def check(self, meta: MatrixMetadataSet, params: Mapping[str, object]) -> None:
        super().check(meta, params)
        if meta.finest_level() is None:
            raise OperatorError(
                "INTERLEAVED_STORAGE: requires at least one mapping level"
            )

    def apply(self, meta: MatrixMetadataSet, params: Mapping[str, object]) -> None:
        meta.interleaved = True
