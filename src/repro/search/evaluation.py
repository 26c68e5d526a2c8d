"""Staged candidate builds: a design phase, then parameter-level assembly.

The three-level search evaluates hundreds of candidate designs per matrix.
Most of those candidates share a graph *structure* and differ only in
scalar parameters, so a candidate build splits into the structure-level
design phase (the Designer over the full metadata set) and the cheap
parameter-level assembly phase that grafts runtime scalars onto the
design's leaves.  The search memoizes design outcomes and leaf analyses
per design signature in its own per-search state (see
:mod:`repro.search.engine`), so nothing here outlives a search:

:func:`matrix_token`
    Content address of a matrix: the key persisted designs and results
    are filed under.

:class:`StagedEvaluator`
    The design phase, with optional read-through persistence to a
    :class:`~repro.store.design.DesignStore`: a store hit — a success *or*
    a recorded :class:`DesignError` — replays without running the
    Designer, and every Designer outcome is written back.  Stored leaves
    decode bit-exactly, so search histories are byte-identical store-on
    vs store-off, and a second search of the same matrix in a *fresh
    process* performs zero Designer runs.  :meth:`StagedEvaluator.build`
    is the one-candidate build the serving frontend's neighbour transfers
    use.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.designer import DesignError, DesignLeaf
from repro.core.graph import OperatorGraph
from repro.core.kernel.builder import KernelBuilder, design_signature
from repro.core.kernel.program import GeneratedProgram
from repro.gpu.analysis import DesignAnalysis, content_digest
from repro.sparse.matrix import SparseMatrix
from repro.store.design import DesignStore

__all__ = ["StagedEvaluator", "matrix_token"]


def matrix_token(matrix: SparseMatrix) -> Tuple:
    """Content-address of a matrix: name, shape and a triplet digest.

    Hashing the triplets (rather than trusting ``matrix.name``) keeps a
    shared multi-matrix store safe for anonymous or same-named matrices.
    Callers tuning a non-default workload scope the token with
    :meth:`repro.workloads.Workload.scope_token` before keying stores on
    it, so designs of different workloads never mix (the default SpMV
    scope is the identity — historical keys unchanged).
    """
    digest = content_digest(matrix.rows, matrix.cols, matrix.vals)
    return (matrix.name, matrix.n_rows, matrix.n_cols, matrix.nnz, digest)


class StagedEvaluator:
    """Design phase with optional store read-through, plus the
    one-candidate build."""

    def __init__(
        self,
        builder: KernelBuilder,
        store: Optional[DesignStore] = None,
        arch: str = "",
    ) -> None:
        self.builder = builder
        #: persistent design store (``arch`` names the GPU the designs are
        #: stored under — designs here are arch-independent, but the store
        #: keys on it so a multi-arch deployment can never cross-serve).
        self.store = store
        self.arch = arch

    def design(
        self,
        matrix: SparseMatrix,
        graph: OperatorGraph,
        token: Tuple,
        signature: Tuple,
    ) -> List[DesignLeaf]:
        """Design phase with store read-through and write-back.

        Store hits — successes *and* recorded :class:`DesignError`
        failures — replay without touching the Designer; misses run it and
        persist the outcome, so the next process warm-starts.
        """
        if self.store is None:
            return self.builder.design_phase(matrix, graph)
        outcome = self.store.get_design(token, signature, self.arch)
        if outcome is not None:
            status, value = outcome
            if status == "error":
                raise DesignError(value)
            return value
        try:
            leaves = self.builder.design_phase(matrix, graph)
        except DesignError as exc:
            self.store.put_design(token, signature, self.arch, error=str(exc))
            raise
        self.store.put_design(token, signature, self.arch, leaves=leaves)
        return leaves

    def build(
        self,
        matrix: SparseMatrix,
        graph: OperatorGraph,
        token: Optional[Tuple] = None,
    ) -> GeneratedProgram:
        """Build one candidate program: the design phase through the store,
        then assembly on a fresh :class:`~repro.gpu.analysis.DesignAnalysis`
        (carried on the program, so its runs reuse the analysed plans).

        ``token`` is the precomputed (workload-scoped) :func:`matrix_token`
        the store keys designs under; it defaults to the plain token.
        """
        token = token or matrix_token(matrix)
        leaves = self.design(matrix, graph, token, design_signature(graph))
        return self.builder.assembly_phase(
            matrix, graph, leaves, analysis=DesignAnalysis()
        )
