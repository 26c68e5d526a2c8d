"""Quickstart: AlphaSparse end to end.

Feed a sparse matrix in, get a machine-designed format and SpMV kernel out
(paper §III: "Users only need to input a Matrix Market file ... AlphaSparse
will output a matrix stored in a specific format and a kernel
implementation").

Run:  python examples/quickstart.py [path/to/matrix.mtx]
Without an argument a SuiteSparse-like LP matrix is generated.
"""

import sys
import tempfile

import numpy as np

from repro import (
    A100,
    PerfectFormatSelector,
    SearchBudget,
    SearchEngine,
    get_workload,
    named_matrix,
    read_matrix_market,
)
from repro.search.evaluation import matrix_token
from repro.serve import Frontend
from repro.store import DesignStore, search_result_record


def main() -> None:
    if len(sys.argv) > 1:
        matrix = read_matrix_market(sys.argv[1])
    else:
        matrix = named_matrix("scfxm1-2r")
    stats = matrix.stats
    print(f"matrix: {matrix.name}  {matrix.n_rows}x{matrix.n_cols}  "
          f"nnz={matrix.nnz}  row variance={stats.row_variance:.1f} "
          f"({'irregular' if stats.is_irregular else 'regular'})")

    # --- search for a machine-designed format + kernel -----------------
    engine = SearchEngine(A100, budget=SearchBudget(max_total_evals=160))
    result = engine.search(matrix)
    print(f"\nsearch: {result.total_evaluations} program evaluations, "
          f"{result.structures_tried} graph structures, "
          f"{result.wall_time_s:.1f}s")
    print(f"best machine-designed SpMV: {result.best_gflops:.1f} GFLOPS")
    print("\nwinning Operator Graph:")
    print(result.best_graph.describe())

    # --- compare against the traditional auto-tuner --------------------
    pfs = PerfectFormatSelector().select(matrix, A100)
    print(f"\nPerfect Format Selector picks {pfs.selected_format}: "
          f"{pfs.gflops:.1f} GFLOPS")
    print(f"AlphaSparse speedup over PFS: "
          f"{result.best_gflops / pfs.gflops:.2f}x")

    # --- verify and show the artifact -----------------------------------
    x = np.random.default_rng(0).random(matrix.n_cols)
    out = result.best_program.run(x, A100)
    assert np.allclose(out.y, matrix.spmv_reference(x))
    print("\nresult verified against A @ x")

    unit = result.best_program.kernels[0]
    print("\nmachine-designed format:")
    print(unit.format.describe())
    print("\ngenerated kernel (CUDA-like rendering):")
    print(unit.source)

    # --- the same search, for a different workload ----------------------
    # The operation being tuned is pluggable: SpMM (dense multi-vector
    # RHS) and transpose SpMV ship alongside SpMV.  One engine = one
    # workload; caches and stores are keyed so they never cross.
    spmm = get_workload("spmm16")
    with SearchEngine(A100, budget=SearchBudget(max_total_evals=160),
                      workload=spmm) as spmm_engine:
        spmm_result = spmm_engine.search(matrix)
    X = spmm.make_operand(matrix)
    spmm_out = spmm_result.best_program.run(X, A100, workload=spmm)
    assert spmm.allclose(spmm_out.y, spmm.reference(matrix, X))
    print(f"\nbest machine-designed {spmm.display}: "
          f"{spmm_result.best_gflops:.1f} GFLOPS (verified against A @ X)")

    # --- persist the result: the one-time search is reusable ------------
    # Recording the finished search in a DesignStore means a *new*
    # process — hours later — answers the same matrix from disk, with no
    # search at all: the exact-hit tier of `python -m repro serve`.
    with tempfile.TemporaryDirectory() as store_dir:
        store = DesignStore(store_dir)
        store.put_result(matrix_token(matrix), A100.name,
                         search_result_record(matrix, A100.name, result, seed=0))
        with Frontend(A100, DesignStore(store_dir)) as frontend:
            served = frontend.resolve(matrix)
        print(f"\nserved from the {served.source} tier: "
              f"{served.gflops:.1f} GFLOPS "
              f"({'identical' if served.gflops == result.best_gflops else 'DIFFERENT'})")

if __name__ == "__main__":
    main()
