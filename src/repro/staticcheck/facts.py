"""Symbolic matrix facts the chain analysis interprets designs against.

:class:`SparseMatrix` stores duplicate-free, row-major triplets that may
still contain explicit zeros; ``COMPRESS`` later drops the zero-valued
ones.  Every claim the analyzer makes therefore needs two views:

* **nonzero facts** — over triplets with a nonzero value.  These are a
  *lower bound* on what any kernel sees (nonzero triplets survive with or
  without COMPRESS), so they back ``INVALID`` claims: a conflict witnessed
  among nonzero triplets exists in the built plan either way.
* **stored facts** — over all triplets.  These are an *upper bound* on
  what a kernel without COMPRESS sees, so they back ``VALID`` claims on
  graphs that skip compression (with COMPRESS the nonzero facts are exact
  and serve both roles).

Padding never enters either view: the builder marks padding with
``out_row = -1`` and dynamic validation masks it from partial flow, so
facts over real triplets are exactly the facts over validated partials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.matrix import SparseMatrix

__all__ = ["MatrixFacts", "matrix_facts"]


@dataclass(frozen=True)
class MatrixFacts:
    """Aggregate facts of one matrix, computed once per search and reused
    by every static verdict it asks for."""

    n_rows: int
    n_cols: int
    #: stored triplet count (explicit zeros included) / nonzero count.
    nnz_stored: int
    nnz_nonzero: int
    #: facts over nonzero triplets (lower bounds for INVALID claims).
    max_cols_per_row_nz: int
    max_rows_per_col_nz: int
    n_nonempty_rows_nz: int
    n_distinct_cols_nz: int
    has_empty_row_nz: bool
    #: facts over all stored triplets (upper bounds for VALID claims on
    #: graphs without COMPRESS).
    max_cols_per_row_stored: int
    max_rows_per_col_stored: int
    n_nonempty_rows_stored: int
    n_distinct_cols_stored: int

    # -- compress-aware selectors ---------------------------------------
    # "upper" facts bound what the built plan can contain, "lower" facts
    # bound what it must contain; ``compressed`` says whether the graph
    # runs COMPRESS before mapping.
    def upper_max_elems_per_row(self, compressed: bool) -> int:
        return self.max_cols_per_row_nz if compressed else self.max_cols_per_row_stored

    def upper_max_elems_per_col(self, compressed: bool) -> int:
        return self.max_rows_per_col_nz if compressed else self.max_rows_per_col_stored

    def upper_n_nonempty_rows(self, compressed: bool) -> int:
        return self.n_nonempty_rows_nz if compressed else self.n_nonempty_rows_stored

    def upper_n_distinct_cols(self, compressed: bool) -> int:
        return self.n_distinct_cols_nz if compressed else self.n_distinct_cols_stored

    def upper_nnz(self, compressed: bool) -> int:
        return self.nnz_nonzero if compressed else self.nnz_stored


def _axis_facts(idx: np.ndarray, n: int):
    """(max entries per index, number of indices with entries)."""
    if idx.size == 0:
        return 0, 0
    counts = np.bincount(idx, minlength=n)
    return int(counts.max()), int(np.count_nonzero(counts))


def matrix_facts(matrix: SparseMatrix) -> MatrixFacts:
    """Compute the fact set of one matrix (O(nnz))."""
    rows, cols, vals = matrix.rows, matrix.cols, matrix.vals
    nz = vals != 0.0
    rows_nz, cols_nz = rows[nz], cols[nz]

    max_row_nz, nonempty_rows_nz = _axis_facts(rows_nz, matrix.n_rows)
    max_col_nz, distinct_cols_nz = _axis_facts(cols_nz, matrix.n_cols)
    max_row_st, nonempty_rows_st = _axis_facts(rows, matrix.n_rows)
    max_col_st, distinct_cols_st = _axis_facts(cols, matrix.n_cols)

    return MatrixFacts(
        n_rows=matrix.n_rows,
        n_cols=matrix.n_cols,
        nnz_stored=matrix.nnz,
        nnz_nonzero=int(np.count_nonzero(nz)),
        max_cols_per_row_nz=max_row_nz,
        max_rows_per_col_nz=max_col_nz,
        n_nonempty_rows_nz=nonempty_rows_nz,
        n_distinct_cols_nz=distinct_cols_nz,
        has_empty_row_nz=nonempty_rows_nz < matrix.n_rows,
        max_cols_per_row_stored=max_row_st,
        max_rows_per_col_stored=max_col_st,
        n_nonempty_rows_stored=nonempty_rows_st,
        n_distinct_cols_stored=distinct_cols_st,
    )
