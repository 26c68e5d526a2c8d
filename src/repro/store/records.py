"""Result-record construction shared by the CLI, the corpus runner and the
serving frontend.

A result record is the serving layer's unit of knowledge about one
``(matrix, arch)`` pair: the winning Operator Graph, its measured GFLOPS,
the matrix's *feature signature* (the sparsity statistics the pruning rules
and the GBT cost model already condition on, log-scaled into a comparable
vector) and, optionally, the full exported artifact payload.  Records are
built with the artifact inline; the stores split it off into a blob of its
own when they persist the record (:mod:`repro.store.artifacts`), so
``frontend.resolve`` answers an exact hit from ~1 KB without rebuilding
or loading anything.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.graph import OperatorGraph
from repro.core.kernel.program import GeneratedProgram
from repro.gpu.analysis import content_digest
from repro.sparse.matrix import SparseMatrix

__all__ = [
    "FEATURE_NAMES",
    "feature_vector",
    "make_result_record",
    "nearest_result_digest",
    "search_result_record",
]

#: The matrix-level feature signature used for nearest-neighbour serving.
#: Size-like quantities are log-scaled (corpus matrices span orders of
#: magnitude), shape-like quantities stay linear.
FEATURE_NAMES = (
    "log_rows",
    "log_cols",
    "log_nnz",
    "log_avg_row_length",
    "log_row_variance",
    "log_max_row_length",
    "density",
    "empty_row_fraction",
)


def feature_vector(matrix: SparseMatrix) -> List[float]:
    """Feature signature of one matrix (aligned with :data:`FEATURE_NAMES`)."""
    s = matrix.stats
    return [
        math.log1p(s.n_rows),
        math.log1p(s.n_cols),
        math.log1p(s.nnz),
        math.log1p(s.avg_row_length),
        math.log1p(s.row_variance),
        math.log1p(s.max_row_length),
        float(s.density),
        s.empty_rows / s.n_rows if s.n_rows else 0.0,
    ]


def nearest_result_digest(
    metas: Sequence[Tuple[str, Dict]],
    own_features: Sequence[float],
    workload: str = "spmv",
    exclude_digest: Optional[str] = None,
) -> Optional[str]:
    """Digest of the stored result whose feature signature is closest.

    The donor-ranking rule shared by the serving frontend's tier-2
    neighbour transfer and the engine's cross-matrix warm start: walk the
    ``(digest, meta)`` pairs of ``result_metas``, keep graph-bearing
    records of the same workload (absent == spmv) that are not the matrix
    itself (``exclude_digest`` is its content digest), and rank by
    Euclidean feature distance with a deterministic ``(name, digest)``
    tie-break.  Returns ``None`` when no donor qualifies.
    """
    own = np.asarray(own_features, dtype=float)
    best: Optional[Tuple[Tuple[float, str, str], str]] = None
    for digest, meta in metas:
        if not meta.get("has_graph"):
            continue
        # Donors must share the request's workload (absent == spmv): a
        # SpMM request never transfers a SpMV design.
        if meta.get("workload", "spmv") != workload:
            continue
        if exclude_digest is not None and meta.get("matrix_digest") == exclude_digest:
            continue
        features = meta.get("features")
        if not features or len(features) != own.size:
            continue
        distance = float(
            np.linalg.norm(own - np.asarray(features, dtype=float))
        )
        rank = (distance, str(meta.get("name") or ""), digest)
        if best is None or rank < best[0]:
            best = (rank, digest)
    return None if best is None else best[1]


def search_result_record(
    matrix: SparseMatrix,
    arch: str,
    result,
    seed: int,
    include_artifact: bool = True,
) -> Dict:
    """Result record for one finished search (the shared shape persisted
    by the CLI, the corpus runner and the serving frontend — one place to
    extend the stored search metadata)."""
    return make_result_record(
        matrix,
        arch,
        result.best_gflops,
        result.best_graph,
        program=result.best_program if include_artifact else None,
        search={
            "total_evaluations": result.total_evaluations,
            "structures_tried": result.structures_tried,
            "designer_runs": result.designer_runs,
            "wall_time_s": result.wall_time_s,
            "seed": seed,
        },
        via="search",
        workload=getattr(result, "workload", "spmv"),
    )


def make_result_record(
    matrix: SparseMatrix,
    arch: str,
    best_gflops: float,
    graph: Optional[OperatorGraph],
    program: Optional[GeneratedProgram] = None,
    search: Optional[Dict] = None,
    via: str = "search",
    neighbour_of: str = "",
    workload: str = "spmv",
) -> Dict:
    """One JSON-safe result record (see module docstring for semantics).

    ``workload`` names the operation the record's numbers were measured
    for; the default SpMV is recorded *implicitly* (no key), so spmv
    records — and every pre-workload-layer store — keep their exact
    historical bytes, while non-default records are explicit.
    """
    # Imported here, not at module top: repro.export uses the store codec,
    # so a top-level import would cycle through this package's __init__.
    from repro.export import program_payload

    record = {
        "name": matrix.name,
        "arch": arch,
        "n_rows": matrix.n_rows,
        "n_cols": matrix.n_cols,
        "nnz": matrix.nnz,
        "matrix_digest": content_digest(matrix.rows, matrix.cols, matrix.vals),
        "features": feature_vector(matrix),
        "best_gflops": float(best_gflops),
        "graph": None if graph is None else graph.to_dict(),
        "search": dict(search) if search else {},
        "via": via,
        "neighbour_of": neighbour_of,
        "artifact": (
            None if program is None else program_payload(program, graph)
        ),
    }
    if workload and workload != "spmv":
        record["workload"] = workload
    return record
