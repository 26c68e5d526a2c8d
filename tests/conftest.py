"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.graph import OperatorGraph
from repro.core.kernel.builder import build_program
from repro.gpu import A100
from repro.sparse import (
    SparseMatrix,
    banded_matrix,
    lp_like_matrix,
    power_law_matrix,
    random_uniform_matrix,
)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def tiny_matrix():
    """The 4x4 matrix of the paper's Fig 5 example (plus values)."""
    rows = [0, 0, 1, 2, 3]
    cols = [0, 2, 1, 3, 0]
    vals = [1.0, 2.0, 3.0, 4.0, 5.0]
    return SparseMatrix(4, 4, rows, cols, vals, name="fig5")


@pytest.fixture
def small_regular():
    return banded_matrix(256, bandwidth=3, seed=1, name="small_regular")


@pytest.fixture
def small_irregular():
    return power_law_matrix(512, avg_degree=8, seed=2, name="small_irregular")


@pytest.fixture
def small_lp():
    return lp_like_matrix(400, seed=3, name="small_lp")


@pytest.fixture
def small_uniform():
    return random_uniform_matrix(300, avg_degree=6, seed=4, name="small_uniform")


def _long_row_matrix(n: int, width: int) -> SparseMatrix:
    """``n`` x ``width``: row 0 is full, every other row holds one entry,
    so ELL pads it to ``n * width`` elements."""
    rows = np.r_[np.zeros(width, dtype=np.int64), np.arange(1, n)]
    cols = np.r_[np.arange(width), np.arange(1, n) % width]
    return SparseMatrix(n, width, rows, cols, name=f"long-row-{n}x{width}")


@pytest.fixture
def long_row_matrix():
    """Factory: :func:`_long_row_matrix`."""
    return _long_row_matrix


@pytest.fixture
def one_full_row():
    """1,000 x 1,000 with one full row (1,999 nnz): ELL pads it 500x."""
    return _long_row_matrix(1000, 1000)


@pytest.fixture(params=["small_regular", "small_irregular", "small_lp"])
def any_small_matrix(request):
    return request.getfixturevalue(request.param)


@pytest.fixture
def x_for():
    """Factory: deterministic dense vector for a matrix."""

    def make(matrix: SparseMatrix) -> np.ndarray:
        return np.random.default_rng(7).random(matrix.n_cols)

    return make


def run_graph(matrix: SparseMatrix, ops, gpu=A100, compress=True):
    """Helper: build a program from op names and run it."""
    graph = OperatorGraph.from_names(ops)
    program = build_program(matrix, graph, compress=compress)
    x = np.random.default_rng(7).random(matrix.n_cols)
    result = program.run(x, gpu)
    return program, result, matrix.spmv_reference(x)


@pytest.fixture
def graph_runner():
    return run_graph
