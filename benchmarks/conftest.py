"""Shared state for the benchmark harness.

Every paper figure/table has a `test_*` module here; expensive artefacts
(searches, PFS sweeps) are computed once per session and shared.  Scale is
controlled by ``REPRO_BENCH_CORPUS`` (number of corpus matrices, default 12)
and ``REPRO_BENCH_EVALS`` (per-matrix search evaluations, default 110), so a
thorough run is one environment variable away.

Each bench test (a) regenerates the paper artifact as a printed table or
series, (b) asserts the paper's qualitative *shape* (who wins, direction of
trends), and (c) times a representative kernel of the experiment through the
``benchmark`` fixture.

Everything in this directory is marked ``slow`` at collection time; the
default test run deselects it (see ``pytest.ini``), so figure reproduction
is opt-in: ``pytest benchmarks -m slow``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List

import numpy as np
import pytest

from repro.baselines import PerfectFormatSelector, PfsSelection
from repro.search import AnnealingSchedule, SearchBudget, SearchEngine, SearchResult
from repro.sparse import corpus
from repro.sparse.collection import CorpusEntry
from repro.gpu import A100, RTX2080

CORPUS_SIZE = int(os.environ.get("REPRO_BENCH_CORPUS", "12"))
MAX_EVALS = int(os.environ.get("REPRO_BENCH_EVALS", "110"))

BENCH_BUDGET = SearchBudget(
    max_structures=14,
    coarse_evals_per_structure=8,
    max_total_evals=MAX_EVALS,
    ml_top_k=4,
)


def pytest_collection_modifyitems(items):
    """Every figure/table reproduction is a slow test."""
    this_dir = os.path.dirname(__file__)
    for item in items:
        if str(item.fspath).startswith(this_dir):
            item.add_marker(pytest.mark.slow)


def bench_engine(gpu, seed: int = 11, enable_pruning: bool = True) -> SearchEngine:
    return SearchEngine(
        gpu,
        budget=BENCH_BUDGET,
        seed=seed,
        enable_pruning=enable_pruning,
        annealing=AnnealingSchedule(
            initial_temperature=0.25, cooling=0.82, patience=5
        ),
    )


@dataclass
class MatrixRun:
    """Everything the figure benches need for one corpus matrix."""

    entry: CorpusEntry
    alpha: SearchResult
    pfs: PfsSelection

    @property
    def matrix(self):
        return self.entry.matrix

    @property
    def speedup_vs_pfs(self) -> float:
        return self.alpha.best_gflops / self.pfs.gflops


@pytest.fixture(scope="session")
def bench_corpus() -> List[CorpusEntry]:
    return list(corpus(CORPUS_SIZE))


def _run_all(entries, gpu) -> List[MatrixRun]:
    """One shared engine per figure sweep: every matrix's search reuses the
    same design cache and worker pool (the collection-level driver)."""
    selector = PerfectFormatSelector()
    entries = list(entries)
    with bench_engine(gpu) as engine:
        alphas = engine.search_many(
            [entry.matrix for entry in entries],
            seeds=[100 + entry.index for entry in entries],
        )
    runs = []
    for entry, alpha in zip(entries, alphas):
        m = entry.matrix
        x = np.random.default_rng(0x5EED).random(m.n_cols)
        pfs = selector.select(m, gpu, x)
        runs.append(MatrixRun(entry=entry, alpha=alpha, pfs=pfs))
    return runs


@pytest.fixture(scope="session")
def runs_a100(bench_corpus) -> List[MatrixRun]:
    """AlphaSparse + PFS on the whole bench corpus, A100."""
    return _run_all(bench_corpus, A100)


@pytest.fixture(scope="session")
def runs_2080(bench_corpus) -> List[MatrixRun]:
    """Same on RTX 2080 (used by Figs 9a/9b); a half-size slice keeps the
    session bounded."""
    return _run_all(bench_corpus[: max(4, len(bench_corpus) // 2)], RTX2080)


@pytest.fixture(scope="session")
def x_of():
    def make(matrix):
        return np.random.default_rng(0x5EED).random(matrix.n_cols)

    return make
