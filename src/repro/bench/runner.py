"""Corpus runner: baselines + design search for every matrix of a collection.

One :class:`CorpusRunner` drives the whole paper-§VII pipeline over a
matrix collection:

* one shared :class:`~repro.search.engine.SearchEngine` runs every
  search, exactly like ``SearchEngine.search_many`` (each search's memos
  are dropped when it returns, so a long corpus holds no earlier
  matrix's arrays);
* each matrix's dense input vector and reference SpMV are computed once
  and shared by all of its baselines (and the PFS oracle is derived from
  the same measurements instead of re-running the member kernels);
* every finished matrix is flushed to the
  :class:`~repro.bench.store.ResultStore`, so an interrupted run resumes
  without re-measuring completed matrices.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.analysis.metrics import classify_creativity
from repro.baselines import PFS_MEMBERS, PerfectFormatSelector
from repro.baselines.base import measure_baselines
from repro.bench.store import ResultStore
from repro.gpu.arch import GPUSpec
from repro.search import SearchBudget, SearchEngine
from repro.search.evaluation import matrix_token
from repro.search.samplers import DEFAULT_SAMPLER_NAME
from repro.sparse.collection import CorpusEntry
from repro.sparse.matrix import SparseMatrix
from repro.store.design import DesignStore
from repro.store.records import search_result_record
from repro.workloads import Workload, ensure_engine_workload

__all__ = ["CorpusRunner", "CorpusRunResult", "CorpusRunStats", "DEFAULT_BASELINES"]

#: The evaluation's full baseline set: the ten PFS members plus the
#: non-member comparisons the ``baselines`` command prints.
DEFAULT_BASELINES: List[str] = PFS_MEMBERS + ["DIA", "TACO", "CSR-Scalar", "CSR-Vector"]


@dataclass(frozen=True)
class CorpusRunStats:
    """Accounting of one :meth:`CorpusRunner.run` call."""

    measured: int
    resumed: int
    wall_s: float

    @property
    def total(self) -> int:
        return self.measured + self.resumed


@dataclass
class CorpusRunResult:
    """Records in input-collection order plus run accounting."""

    records: List[Dict] = field(default_factory=list)
    stats: CorpusRunStats = CorpusRunStats(0, 0, 0.0)
    store: Optional[ResultStore] = None


class CorpusRunner:
    """Run the full per-matrix evaluation over a collection, resumably.

    ``engine`` may be injected to share one engine beyond one runner; an
    injected engine is the caller's to close.

    ``design_store`` additionally records each matrix's winning
    result+artifact in a :class:`~repro.store.design.DesignStore`, so a
    corpus run doubles as a serving warm-up.  The store never changes what
    is measured — records stay byte-identical with or without it.
    """

    def __init__(
        self,
        gpu: GPUSpec,
        budget: Optional[SearchBudget] = None,
        seed: int = 0,
        store: Optional[ResultStore] = None,
        baselines: Optional[Sequence[str]] = None,
        engine: Optional[SearchEngine] = None,
        progress: Optional[Callable[[str], None]] = None,
        design_store: Optional[DesignStore] = None,
        workload: Optional[Workload] = None,
        warm_start: bool = False,
    ) -> None:
        self.gpu = gpu
        self.seed = seed
        self.store = store if store is not None else ResultStore()
        self.baselines = list(baselines) if baselines else list(DEFAULT_BASELINES)
        self.design_store = design_store
        self.warm_start = warm_start
        if warm_start and design_store is None and engine is None:
            raise ValueError("warm_start requires a design_store")
        self._owns_engine = engine is None
        ensure_engine_workload(engine, workload)
        self.engine = engine or SearchEngine(
            gpu,
            budget=budget,
            seed=seed,
            workload=workload,
            warm_start_store=design_store if warm_start else None,
        )
        #: the workload every baseline measurement and search runs under
        #: (the injected engine's when one is supplied).
        self.workload = self.engine.workload
        self.progress = progress or (lambda _msg: None)

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._owns_engine:
            self.engine.close()

    def __enter__(self) -> "CorpusRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def config(self) -> Dict:
        """The comparability contract a result store pins.

        Every result-affecting knob is included: the full search budget
        and the engine's search-space switches.  Two runs with equal
        configs produce identical records for the same matrix.
        """
        budget = self.engine.budget
        config = {
            "gpu": self.gpu.name,
            "seed": self.seed,
            "baselines": list(self.baselines),
            "budget": {
                "max_structures": budget.max_structures,
                "coarse_evals_per_structure": budget.coarse_evals_per_structure,
                "max_total_evals": budget.max_total_evals,
                "ml_top_k": budget.ml_top_k,
                "ml_fine_cap": budget.ml_fine_cap,
                "ml_min_samples": budget.ml_min_samples,
                "time_limit_s": budget.time_limit_s,
            },
            "engine": {
                "pruning": self.engine.enable_pruning,
                "extensions": self.engine.enable_extensions,
                "seeding": self.engine.enable_seeding,
                # Static pruning always runs; the key stays so that stores
                # written since the verifier existed keep resuming.
                "static_pruning": True,
            },
        }
        if self.engine.warm_start_store is not None:
            # Pinned only when on: warm starts seed the candidate stream
            # from the design store, so histories legitimately differ —
            # cold runs resume pre-warm-start result stores unchanged.
            config["engine"]["warm_start"] = True
        if not self.workload.is_default:
            # The default workload pins no key, so pre-workload-layer
            # result stores stay resumable and spmv configs byte-identical.
            config["workload"] = self.workload.name
        if self.engine.sampler_cls.name != DEFAULT_SAMPLER_NAME:
            # Same convention for the sampler: the default annealer pins
            # no key, so pre-sampler-layer result stores stay resumable.
            config["engine"]["sampler"] = self.engine.sampler_cls.name
            if self.engine.sampler_seed is not None:
                config["engine"]["sampler_seed"] = self.engine.sampler_seed
        return config

    @staticmethod
    def record_key(matrix: SparseMatrix) -> str:
        """Content-addressed store key: name plus a triplet digest, so a
        renamed-but-identical file resumes and a same-named different
        matrix does not collide."""
        token = matrix_token(matrix)
        return f"{token[0] or 'unnamed'}:{token[-1][:16]}"

    def _search_seed(self, key: str) -> int:
        """Per-matrix search seed derived from the matrix *content*, not
        its position in the input list — so corpus shards tile the full
        run and a resumed run measures leftovers identically regardless
        of ordering."""
        digest = key.rsplit(":", 1)[-1]
        return (self.seed + int(digest, 16)) % (2**63)

    # ------------------------------------------------------------------
    def run(
        self, matrices: Iterable[Union[SparseMatrix, CorpusEntry]]
    ) -> CorpusRunResult:
        start = time.perf_counter()
        self.store.bind_config(self.config())
        entries = [
            (m.matrix, m.family) if isinstance(m, CorpusEntry) else (m, "")
            for m in matrices
        ]
        records: List[Dict] = []
        measured = resumed = 0
        for i, (matrix, family) in enumerate(entries):
            key = self.record_key(matrix)
            if key in self.store:
                record = self.store.get(key)
                resumed += 1
                self.progress(
                    f"[{i + 1}/{len(entries)}] {matrix.name or key}: resumed"
                )
            else:
                record = self._evaluate_matrix(
                    matrix, family, seed=self._search_seed(key)
                )
                self.store.put(key, record)
                measured += 1
                self.progress(
                    f"[{i + 1}/{len(entries)}] {matrix.name or key}: "
                    f"best {record['search']['best_gflops']:.1f} GFLOPS, "
                    f"{record['search']['total_evaluations']} evals"
                )
            records.append(record)
        return CorpusRunResult(
            records=records,
            stats=CorpusRunStats(
                measured=measured,
                resumed=resumed,
                wall_s=time.perf_counter() - start,
            ),
            store=self.store,
        )

    # ------------------------------------------------------------------
    def _evaluate_matrix(
        self, matrix: SparseMatrix, family: str, seed: int
    ) -> Dict:
        """Everything the corpus tables need for one matrix, as plain JSON."""
        # Per-matrix caches: one operand, one reference result shared by
        # every baseline measurement (the search keeps its own, computed
        # once per search inside the engine).
        x = self.workload.make_operand(matrix)
        reference = self.workload.reference(matrix, x)
        measurements = measure_baselines(
            matrix,
            self.gpu,
            self.baselines,
            x=x,
            reference=reference,
            workload=self.workload,
        )

        pfs: Optional[Dict] = None
        members = [measurements[n] for n in PFS_MEMBERS if n in measurements]
        if any(m.ok for m in members):
            selection = PerfectFormatSelector().select_from(members, matrix.name)
            pfs = {
                "selected_format": selection.selected_format,
                "gflops": selection.gflops,
            }

        result = self.engine.search(matrix, seed=seed)
        creativity: Optional[Dict] = None
        best_ops: List[str] = []
        if result.best_graph is not None:
            best_ops = list(result.best_graph.operator_names())
            creativity = classify_creativity(result.best_graph, matrix)
        if self.design_store is not None and result.best_graph is not None:
            self.design_store.put_result(
                self.workload.scope_token(matrix_token(matrix)),
                self.gpu.name,
                search_result_record(matrix, self.gpu.name, result, seed=seed),
            )

        record = {
            "name": matrix.name,
            "family": family,
            "n_rows": matrix.n_rows,
            "n_cols": matrix.n_cols,
            "nnz": matrix.nnz,
            "baselines": {m.baseline: asdict(m) for m in measurements.values()},
            "pfs": pfs,
            "search": {
                "best_gflops": result.best_gflops,
                "best_ops": best_ops,
                "total_evaluations": result.total_evaluations,
                "structures_tried": result.structures_tried,
                "designer_runs": result.designer_runs,
                "design_cache_hits": result.design_cache_hits,
                "design_cache_misses": result.design_cache_misses,
                "wall_time_s": result.wall_time_s,
                "static_pruned": result.static_pruned,
            },
            "creativity": creativity,
        }
        if self.engine.warm_start_store is not None:
            # Absent key == cold search: records from cold runs keep
            # their exact historical bytes (GOLDEN_BENCH_DIGEST).
            record["search"]["warm_start_hits"] = result.warm_start_hits
        if result.sampler != DEFAULT_SAMPLER_NAME:
            # Absent keys == annealer: default-sampler records keep their
            # exact historical bytes (GOLDEN_BENCH_DIGEST).
            record["search"]["sampler"] = result.sampler
            record["search"]["sampler_pruned"] = result.sampler_pruned
        if not self.workload.is_default:
            # Absent key == spmv: pre-workload-layer records (and spmv
            # records) keep their exact historical bytes.
            record["workload"] = self.workload.name
        return record
