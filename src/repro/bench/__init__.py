"""Corpus-scale evaluation pipeline (paper §VII, Figs 10-12).

The paper's headline numbers are corpus-level: geomean speedups over
PFS/cuSPARSE across hundreds of SuiteSparse matrices.  This package turns
the per-matrix building blocks (baseline measurement, the staged search
runtime) into a corpus pipeline:

:class:`~repro.bench.store.ResultStore`
    Incremental JSON persistence — every finished matrix is flushed to
    disk, so interrupted runs resume instead of restarting.

:class:`~repro.bench.runner.CorpusRunner`
    Drives baselines + design search per matrix over one shared
    :class:`~repro.search.engine.SearchEngine`, caching each matrix's
    reference SpMV so it is computed once, not once per baseline.

:mod:`~repro.bench.aggregate`
    Renders the paper's corpus tables from a store: per-baseline geomean
    speedups, the Fig 10 histogram, §VII-G creativity-class counts.

CLI entry point: ``python -m repro bench <matrices...> [--resume PATH]``.
"""

from repro.bench.store import (
    ResultStore,
    ResultStoreError,
    ResultStoreVersionError,
    StoreVersionError,
)
from repro.bench.runner import CorpusRunner, CorpusRunResult, CorpusRunStats
from repro.bench.aggregate import (
    baseline_speedups,
    creativity_counts,
    pfs_speedups,
    render_corpus_report,
)

__all__ = [
    "ResultStore",
    "ResultStoreError",
    "ResultStoreVersionError",
    "StoreVersionError",
    "CorpusRunner",
    "CorpusRunResult",
    "CorpusRunStats",
    "baseline_speedups",
    "creativity_counts",
    "pfs_speedups",
    "render_corpus_report",
]
