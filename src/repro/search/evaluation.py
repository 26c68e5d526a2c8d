"""Staged candidate builds: a design phase, then parameter-level assembly.

The three-level search evaluates hundreds of candidate designs per matrix.
Most of those candidates share a graph *structure* and differ only in
scalar parameters, so a candidate build splits into the structure-level
design phase (the Designer over the full metadata set) and the cheap
parameter-level assembly phase that grafts runtime scalars onto the
design's leaves.  The search memoizes design outcomes and leaf analyses
per design signature in its own per-search state (see
:mod:`repro.search.engine`), so nothing here outlives a search, and
nothing the Designer produces is persisted:

:func:`matrix_token`
    Content address of a matrix: the key persisted results are filed
    under.

:class:`StagedEvaluator`
    :meth:`StagedEvaluator.build` is the one-candidate build the serving
    frontend's neighbour transfers use: the design phase, then assembly
    on a fresh analysis.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.graph import OperatorGraph
from repro.core.kernel.builder import KernelBuilder
from repro.core.kernel.program import GeneratedProgram
from repro.gpu.analysis import DesignAnalysis, content_digest
from repro.sparse.matrix import SparseMatrix

__all__ = ["StagedEvaluator", "matrix_token"]


def matrix_token(matrix: SparseMatrix) -> Tuple:
    """Content-address of a matrix: name, shape and a triplet digest.

    Hashing the triplets (rather than trusting ``matrix.name``) keeps a
    shared multi-matrix store safe for anonymous or same-named matrices.
    Callers tuning a non-default workload scope the token with
    :meth:`repro.workloads.Workload.scope_token` before keying stores on
    it, so results of different workloads never mix (the default SpMV
    scope is the identity — historical keys unchanged).
    """
    digest = content_digest(matrix.rows, matrix.cols, matrix.vals)
    return (matrix.name, matrix.n_rows, matrix.n_cols, matrix.nnz, digest)


class StagedEvaluator:
    """The one-candidate staged build."""

    def __init__(self, builder: KernelBuilder) -> None:
        self.builder = builder

    def build(self, matrix: SparseMatrix, graph: OperatorGraph) -> GeneratedProgram:
        """Build one candidate program: the design phase, then assembly on
        a fresh :class:`~repro.gpu.analysis.DesignAnalysis` (carried on the
        program, so its runs reuse the analysed plans)."""
        leaves = self.builder.design_phase(matrix, graph)
        return self.builder.assembly_phase(
            matrix, graph, leaves, analysis=DesignAnalysis()
        )
