"""Mapping-stage operator tests: blocking, padding, nesting, dependencies."""

import tracemalloc

import numpy as np
import pytest

from repro.baselines import get_baseline
from repro.core.designer import DesignError, Designer
from repro.core.graph import OperatorGraph
from repro.core.metadata import MatrixMetadataSet
from repro.core.operators import OperatorError, get_operator
from repro.core.operators.mapping import MAX_PAD_BLOWUP
from repro.errors import PAD_BUDGET, code_of


def prepared(matrix, *ops_with_params):
    """Metadata after COMPRESS and the given (name, params) operators."""
    meta = MatrixMetadataSet.from_matrix(matrix)
    chain = [("COMPRESS", {})] + list(ops_with_params)
    for name, params in chain:
        op = get_operator(name)
        resolved = op.resolve_params(params)
        op.check(meta, resolved)
        op.apply(meta, resolved)
        meta.check_invariants()
    return meta


class TestRowBlocks:
    def test_bmtb_row_block(self, small_regular):
        meta = prepared(small_regular, ("BMTB_ROW_BLOCK", {"rows_per_block": 32}))
        blocks = meta.blocks_of("bmtb")
        assert meta.n_blocks("bmtb") == small_regular.n_rows // 32
        # every block covers exactly 32 rows
        for b in range(meta.n_blocks("bmtb")):
            rows = np.unique(meta.elem_row[blocks == b])
            assert rows.size <= 32
            assert rows.max() - rows.min() < 32
        assert "bmtb_nz_offsets" in meta.format_arrays
        assert "bmtb_row_offsets" in meta.format_arrays

    def test_requires_compress(self, small_regular):
        meta = MatrixMetadataSet.from_matrix(small_regular)
        op = get_operator("BMTB_ROW_BLOCK")
        with pytest.raises(OperatorError):
            op.check(meta, op.default_params())

    def test_nesting_bmt_in_bmtb(self, small_regular):
        meta = prepared(
            small_regular,
            ("BMTB_ROW_BLOCK", {"rows_per_block": 16}),
            ("BMT_ROW_BLOCK", {"rows_per_block": 1}),
        )
        assert meta.n_blocks("bmt") == small_regular.n_rows
        meta.check_invariants()  # nesting invariant

    def test_coarse_after_fine_rejected(self, small_regular):
        """The paper's Fig 5 dependency example."""
        meta = prepared(small_regular, ("BMT_ROW_BLOCK", {"rows_per_block": 1}))
        op = get_operator("BMTB_ROW_BLOCK")
        with pytest.raises(OperatorError, match="dependency"):
            op.check(meta, op.default_params())

    def test_duplicate_level_rejected(self, small_regular):
        meta = prepared(small_regular, ("BMT_ROW_BLOCK", {"rows_per_block": 1}))
        op = get_operator("BMT_ROW_BLOCK")
        with pytest.raises(OperatorError):
            op.check(meta, op.default_params())


class TestNnzBlocks:
    def test_even_chunks(self, small_irregular):
        meta = prepared(small_irregular, ("BMT_NNZ_BLOCK", {"nnz_per_block": 8}))
        counts = np.bincount(meta.blocks_of("bmt"))
        assert counts.max() <= 8
        assert (counts[:-1] == 8).all()

    def test_chunks_respect_parent(self, small_irregular):
        meta = prepared(
            small_irregular,
            ("BMTB_NNZ_BLOCK", {"nnz_per_block": 100}),
            ("BMT_NNZ_BLOCK", {"nnz_per_block": 7}),
        )
        meta.check_invariants()  # bmt chunks nest inside bmtb chunks

    def test_records_row_indices(self, small_irregular):
        meta = prepared(small_irregular, ("BMT_NNZ_BLOCK", {"nnz_per_block": 4}))
        assert "elem_row_indices" in meta.format_arrays


class TestColBlocks:
    def test_bmt_col_block_groups_columns(self, small_lp):
        meta = prepared(small_lp, ("BMT_COL_BLOCK", {"cols_per_block": 64}))
        blocks = meta.blocks_of("bmt")
        for b in np.unique(blocks)[:10]:
            cols = meta.elem_col[blocks == b]
            assert cols.max() // 64 == cols.min() // 64
        assert "bmt_col_bases" in meta.format_arrays

    def test_col_block_within_bmtb(self, small_lp):
        meta = prepared(
            small_lp,
            ("BMTB_ROW_BLOCK", {"rows_per_block": 64}),
            ("BMT_COL_BLOCK", {"cols_per_block": 128}),
        )
        meta.check_invariants()


class TestPadding:
    def test_pad_multiple(self, small_irregular):
        meta = prepared(
            small_irregular,
            ("BMT_ROW_BLOCK", {"rows_per_block": 1}),
            ("BMT_PAD", {"mode": "multiple", "multiple": 4}),
        )
        counts = np.bincount(meta.blocks_of("bmt"))
        assert (counts % 4 == 0).all()
        assert meta.elem_pad.sum() > 0
        assert (meta.elem_val[meta.elem_pad] == 0).all()
        assert meta.useful_nnz == small_irregular.nnz

    def test_pad_max_within_parent(self, small_irregular):
        meta = prepared(
            small_irregular,
            ("BMTB_ROW_BLOCK", {"rows_per_block": 32}),
            ("BMT_ROW_BLOCK", {"rows_per_block": 1}),
            ("BMT_PAD", {"mode": "max"}),
        )
        bmt = meta.blocks_of("bmt")
        bmtb = meta.blocks_of("bmtb")
        counts = np.bincount(bmt)
        # All bmts within one bmtb share the same (max) size.
        starts = np.flatnonzero(np.r_[True, bmt[1:] != bmt[:-1]])
        parent_of_bmt = bmtb[starts]
        for p in np.unique(parent_of_bmt):
            sizes = counts[parent_of_bmt == p]
            assert (sizes == sizes[0]).all()

    def test_pad_global_max_is_ell(self, small_irregular):
        meta = prepared(
            small_irregular,
            ("BMT_ROW_BLOCK", {"rows_per_block": 1}),
            ("BMT_PAD", {"mode": "max"}),
        )
        counts = np.bincount(meta.blocks_of("bmt"))
        assert (counts == counts.max()).all()

    def test_pad_requires_blocks(self, small_regular):
        meta = prepared(small_regular)
        op = get_operator("BMT_PAD")
        with pytest.raises(OperatorError):
            op.check(meta, op.default_params())

    def test_pad_before_finer_only(self, small_regular):
        meta = prepared(
            small_regular,
            ("BMTB_ROW_BLOCK", {"rows_per_block": 32}),
            ("BMT_ROW_BLOCK", {"rows_per_block": 1}),
        )
        op = get_operator("BMTB_PAD")
        with pytest.raises(OperatorError):
            resolved = op.resolve_params({"mode": "multiple", "multiple": 8})
            op.check(meta, resolved)
            op.apply(meta, resolved)

    def test_pad_noop_when_aligned(self, small_regular):
        meta = prepared(
            small_regular,
            ("BMT_NNZ_BLOCK", {"nnz_per_block": 4}),
        )
        stored_before = meta.stored_elements
        op = get_operator("BMT_PAD")
        resolved = op.resolve_params({"mode": "multiple", "multiple": 2})
        op.check(meta, resolved)
        op.apply(meta, resolved)
        # all chunks except possibly the last are size 4 (mult of 2)
        assert meta.stored_elements <= stored_before + 1


def _pad_graph(*mapping):
    return OperatorGraph.from_names(
        ["COMPRESS", *mapping, "THREAD_TOTAL_RED", "GMEM_ATOM_RED"]
    )


ELL_ROWS = ("BMT_ROW_BLOCK", {"rows_per_block": 1})


class TestPadBudget:
    """Every pad operator refuses, from block counts and before any padded
    array exists, to grow a leaf past ``MAX_PAD_BLOWUP`` x its useful
    nonzeros; the Designer reports it as a coded :class:`DesignError`."""

    @pytest.mark.parametrize(
        "mapping",
        [
            [ELL_ROWS, ("BMT_PAD", {"mode": "max"})],
            [ELL_ROWS, ("BMT_PAD", {"mode": "multiple", "multiple": 64})],
            [
                ("BMTB_ROW_BLOCK", {"rows_per_block": 1}),
                ("BMTB_ROW_PAD", {"multiple": 64}),
            ],
        ],
        ids=["BMT_PAD-max", "BMT_PAD-multiple-64", "BMTB_ROW_PAD-64"],
    )
    def test_over_budget_design_refused(self, one_full_row, mapping):
        with pytest.raises(DesignError, match="exceeds 10x the 1999 useful") as info:
            Designer().design(one_full_row, _pad_graph(*mapping))
        assert code_of(info.value.__cause__) == PAD_BUDGET
        assert code_of(info.value) == PAD_BUDGET

    def test_refused_design_allocates_little(self, one_full_row):
        """Built, this ELL design would hold 10^6 elements (~57 MB traced);
        refused from its block counts it stays far below that."""
        graph = _pad_graph(ELL_ROWS, ("BMT_PAD", {"mode": "max"}))
        tracemalloc.start()
        try:
            with pytest.raises(DesignError):
                Designer().design(one_full_row, graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("short_rows, fits", [(10, True), (11, False)])
    def test_budget_boundary_shared_with_ell(
        self, long_row_matrix, short_rows, fits
    ):
        """A 100-wide row over 10 one-entry rows pads to exactly 10x its
        110 nonzeros and is allowed; one more short row tips it over.  The
        ELL baseline's applicability check draws the same line."""
        matrix = long_row_matrix(short_rows + 1, 100)
        assert MAX_PAD_BLOWUP == 10
        assert get_baseline("ELL").applicable(matrix) is fits
        graph = _pad_graph(ELL_ROWS, ("BMT_PAD", {"mode": "max"}))
        if fits:
            (leaf,) = Designer().design(matrix, graph)
            assert leaf.meta.stored_elements == 10 * matrix.nnz
        else:
            with pytest.raises(DesignError):
                Designer().design(matrix, graph)


class TestSortBmtb:
    def test_sorts_rows_within_block(self, small_irregular):
        meta = prepared(
            small_irregular,
            ("BMTB_ROW_BLOCK", {"rows_per_block": 32}),
            ("SORT_BMTB", {}),
        )
        lengths = np.bincount(meta.elem_row, minlength=meta.n_rows)
        for start in range(0, meta.n_rows - 32, 32):
            part = lengths[start : start + 32]
            assert (np.diff(part) <= 0).all()

    def test_requires_row_blocked_bmtb(self, small_irregular):
        meta = prepared(small_irregular, ("BMTB_NNZ_BLOCK", {"nnz_per_block": 64}))
        op = get_operator("SORT_BMTB")
        with pytest.raises(OperatorError):
            op.check(meta, {})


class TestBmtbRowPad:
    def test_pads_row_count(self, small_irregular):
        meta = prepared(
            small_irregular,
            ("BMTB_ROW_BLOCK", {"rows_per_block": 24}),
            ("BMTB_ROW_PAD", {"multiple": 32}),
        )
        blocks = meta.blocks_of("bmtb")
        for b in np.unique(blocks):
            # counting duplicated pad rows as extra slots
            sel = blocks == b
            rows = meta.elem_row[sel]
            pads = meta.elem_pad[sel]
            slots = np.unique(rows[~pads]).size + int(pads.sum())
            assert slots % 32 == 0

    def test_requires_row_blocked(self, small_irregular):
        meta = prepared(small_irregular)
        op = get_operator("BMTB_ROW_PAD")
        with pytest.raises(OperatorError):
            op.check(meta, op.default_params())


class TestInterleaved:
    def test_sets_flag(self, small_regular):
        meta = prepared(
            small_regular,
            ("BMT_ROW_BLOCK", {"rows_per_block": 1}),
            ("INTERLEAVED_STORAGE", {}),
        )
        assert meta.interleaved

    def test_requires_mapping(self, small_regular):
        meta = prepared(small_regular)
        op = get_operator("INTERLEAVED_STORAGE")
        with pytest.raises(OperatorError):
            op.check(meta, {})
