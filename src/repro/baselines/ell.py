"""ELL baseline (root format; cuSPARSE v9.2 ELL in the paper's PFS).

Every row padded to the global maximum length, column-major storage, one
thread per row.  Refuses matrices whose padding would exceed the pad
operators' blow-up budget (:data:`~repro.core.operators.mapping.MAX_PAD_BLOWUP`)
— the same practical restriction that made NVIDIA drop ELL from later
cuSPARSE releases.  Checking it from row statistics skips the Designer run
the budget would refuse anyway.
"""

from __future__ import annotations

from repro.baselines.base import GraphBaseline, register_baseline
from repro.core.graph import OperatorGraph
from repro.core.operators.mapping import MAX_PAD_BLOWUP
from repro.sparse.matrix import SparseMatrix

__all__ = ["EllBaseline"]


@register_baseline
class EllBaseline(GraphBaseline):
    name = "ELL"

    def applicable(self, matrix: SparseMatrix) -> bool:
        stats = matrix.stats
        padded = stats.max_row_length * stats.n_rows
        return padded <= MAX_PAD_BLOWUP * max(stats.nnz, 1)

    def graph(self, matrix: SparseMatrix) -> OperatorGraph:
        return OperatorGraph.from_names(
            [
                "COMPRESS",
                ("BMT_ROW_BLOCK", {"rows_per_block": 1}),
                ("BMT_PAD", {"mode": "max"}),
                "INTERLEAVED_STORAGE",
                ("SET_RESOURCES", {"threads_per_block": 256}),
                "THREAD_TOTAL_RED",
                "GMEM_DIRECT_STORE",
            ]
        )
