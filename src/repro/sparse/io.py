"""Matrix Market I/O.

AlphaSparse's user contract (§III) is "input a Matrix Market file, get back a
machine-designed format and kernel".  This module implements the subset of
the MatrixMarket exchange format the paper's corpus uses: ``matrix
coordinate`` with ``real``/``integer``/``pattern`` fields and
``general``/``symmetric`` symmetry.
"""

from __future__ import annotations

import io
import os
from array import array
from typing import TextIO, Union

import numpy as np

from repro.errors import (
    MM_ENTRY,
    MM_ENTRY_COUNT,
    MM_HEADER,
    MM_INDEX_RANGE,
    MM_SIZE_LINE,
    DiagnosableError,
)
from repro.sparse.matrix import SparseMatrix

__all__ = ["read_matrix_market", "write_matrix_market", "MatrixMarketError"]


class MatrixMarketError(DiagnosableError):
    """Raised for malformed Matrix Market content; ``code`` names the
    defect (``MM-*`` in :mod:`repro.errors`).  Still a ``ValueError``."""


_SUPPORTED_FIELDS = {"real", "integer", "pattern", "double"}
_SUPPORTED_SYMMETRY = {"general", "symmetric", "skew-symmetric"}


def _open_maybe(path_or_file: Union[str, os.PathLike, TextIO], mode: str):
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        return path_or_file, False
    # Matrix Market is ASCII; a stray non-UTF-8 byte (say, a Latin-1 name
    # in a comment) survives decoding as a lone surrogate, so it is
    # harmless in a comment and a malformed field anywhere else.
    return open(path_or_file, mode, encoding="utf-8", errors="surrogateescape"), True


def read_matrix_market(source: Union[str, os.PathLike, TextIO]) -> SparseMatrix:
    """Parse a Matrix Market coordinate file into a :class:`SparseMatrix`.

    Symmetric and skew-symmetric storage is expanded to general form, which
    matches how the paper's SpMV treats every matrix.  A malformed size or
    entry line raises a :class:`MatrixMarketError` that names it, and
    memory grows with the entries read, never with the count the size line
    declares.
    """
    handle, should_close = _open_maybe(source, "r")
    try:
        header = handle.readline()
        if not header.startswith("%%MatrixMarket"):
            raise MatrixMarketError(
                "missing %%MatrixMarket header", code=MM_HEADER
            )
        parts = header.strip().split()
        if len(parts) < 5:
            raise MatrixMarketError(
                f"malformed header: {header!r}", code=MM_HEADER
            )
        _, obj, fmt, field, symmetry = parts[:5]
        obj, fmt = obj.lower(), fmt.lower()
        field, symmetry = field.lower(), symmetry.lower()
        if obj != "matrix" or fmt != "coordinate":
            raise MatrixMarketError(
                f"only 'matrix coordinate' supported, got {obj!r} {fmt!r}",
                code=MM_HEADER,
            )
        if field not in _SUPPORTED_FIELDS:
            raise MatrixMarketError(
                f"unsupported field {field!r}", code=MM_HEADER
            )
        if symmetry not in _SUPPORTED_SYMMETRY:
            raise MatrixMarketError(
                f"unsupported symmetry {symmetry!r}", code=MM_HEADER
            )

        for number, line in enumerate(handle, start=2):
            if line.strip() and not line.startswith("%"):
                break
        else:
            raise MatrixMarketError("missing size line", code=MM_SIZE_LINE)
        try:
            n_rows, n_cols, nnz = (int(p) for p in line.split())
        except ValueError:
            raise MatrixMarketError(
                f"line {number}: malformed size line {line.strip()!r}",
                code=MM_SIZE_LINE,
            ) from None
        if n_rows <= 0 or n_cols <= 0 or nnz < 0:
            raise MatrixMarketError(
                f"invalid size line {n_rows} {n_cols} {nnz}: dimensions "
                "must be positive and nnz non-negative",
                code=MM_SIZE_LINE,
            )

        pattern = field == "pattern"
        rows, cols, vals = array("q"), array("q"), array("d")
        for number, line in enumerate(handle, start=number + 1):
            entry = line.split()
            if not entry or entry[0].startswith("%"):
                continue
            if len(vals) >= nnz:
                raise MatrixMarketError(
                    f"line {number}: more entries than declared nnz {nnz}",
                    code=MM_ENTRY_COUNT,
                )
            try:
                rows.append(int(entry[0]) - 1)
                cols.append(int(entry[1]) - 1)
                vals.append(1.0 if pattern else float(entry[2]))
            except (IndexError, ValueError, OverflowError):
                raise MatrixMarketError(
                    f"line {number}: malformed entry {line.strip()!r}",
                    code=MM_ENTRY,
                ) from None
        if len(vals) != nnz:
            raise MatrixMarketError(
                f"declared {nnz} entries but found {len(vals)}",
                code=MM_ENTRY_COUNT,
            )
        rows = np.array(rows, dtype=np.int64)
        cols = np.array(cols, dtype=np.int64)
        vals = np.array(vals, dtype=np.float64)

        # Indices are 1-based in the file; a 0 or a value beyond the size
        # line would silently become a negative / out-of-range 0-based index
        # and only fail (or corrupt statistics) far downstream.
        for label, idx, bound in (("row", rows, n_rows), ("column", cols, n_cols)):
            if idx.size and (idx.min() < 0 or idx.max() >= bound):
                bad = idx[(idx < 0) | (idx >= bound)][0]
                raise MatrixMarketError(
                    f"{label} index {int(bad) + 1} outside declared range "
                    f"1..{bound}",
                    code=MM_INDEX_RANGE,
                )

        if symmetry in ("symmetric", "skew-symmetric"):
            off_diag = rows != cols
            extra_rows = cols[off_diag]
            extra_cols = rows[off_diag]
            extra_vals = vals[off_diag]
            if symmetry == "skew-symmetric":
                extra_vals = -extra_vals
            rows = np.concatenate([rows, extra_rows])
            cols = np.concatenate([cols, extra_cols])
            vals = np.concatenate([vals, extra_vals])

        name = ""
        if isinstance(source, (str, os.PathLike)):
            name = os.path.splitext(os.path.basename(os.fspath(source)))[0]
        return SparseMatrix(n_rows, n_cols, rows, cols, vals, name=name)
    finally:
        if should_close:
            handle.close()


def write_matrix_market(
    matrix: SparseMatrix, target: Union[str, os.PathLike, TextIO]
) -> None:
    """Write a matrix in general real coordinate Matrix Market form."""
    handle, should_close = _open_maybe(target, "w")
    try:
        handle.write("%%MatrixMarket matrix coordinate real general\n")
        handle.write(f"% written by repro (AlphaSparse reproduction)\n")
        handle.write(f"{matrix.n_rows} {matrix.n_cols} {matrix.nnz}\n")
        for r, c, v in zip(matrix.rows, matrix.cols, matrix.vals):
            handle.write(f"{r + 1} {c + 1} {v:.17g}\n")
    finally:
        if should_close:
            handle.close()


def loads(text: str) -> SparseMatrix:
    """Parse Matrix Market content from a string."""
    return read_matrix_market(io.StringIO(text))


def dumps(matrix: SparseMatrix) -> str:
    """Serialise a matrix to a Matrix Market string."""
    buf = io.StringIO()
    write_matrix_market(matrix, buf)
    return buf.getvalue()
