"""The three-level Search Engine (paper §VI-A).

Level 1 proposes graph structures (:class:`~repro.search.space.StructureSampler`),
level 2 measures each structure's coarse parameter grid by *running the
generated programs* on the simulated GPU, and level 3 fits a gradient-
boosted-tree cost model to the measurements and interpolates the fine grid,
re-measuring only the model's top picks.  Simulated annealing governs early
termination of the first two levels; every invalid candidate (dependency
violation, semantic reduction failure, wrong numeric result) scores zero and
is recorded, mirroring how the real system discards non-compiling kernels.

Candidates are evaluated in design groups by the batched evaluator of
:mod:`repro.search.batcheval`: design leaves are computed once per
structure signature and reused across the whole runtime-parameter grid.
Every memo that reuse needs — Designer outcomes, leaf analyses, static
verdicts — lives in the per-search state together with its hit counts and
stage timings, and is dropped when :meth:`SearchEngine.search` returns.
The engine itself holds no per-search mutable state — schedules and RNGs
are created per call too — so one engine can drive many searches,
including the collection-level :meth:`SearchEngine.search_many` loop
used by the CLI and the benchmark harness, without holding any earlier
matrix's arrays.  Nothing a search designs is persisted either: callers
that own a store write only finished results to it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.core.designer import DesignError, DesignLeaf
from repro.core.graph import GraphValidationError, OperatorGraph
from repro.core.kernel.builder import KernelBuilder
from repro.core.kernel.program import GeneratedProgram
from repro.core.optimizer import ModelDrivenCompressor
from repro.gpu.arch import GPUSpec
from repro.gpu.analysis import DesignAnalysis, content_digest
from repro.search.annealing import AnnealingSchedule
from repro.search.batcheval import (
    AssembledGroup,
    BatchEvaluator,
    design_group_key,
    group_candidates,
)
from repro.search.evaluation import StagedEvaluator, matrix_token
from repro.search.mlmodel import GradientBoostedTrees, mean_absolute_deviation
from repro.store.design import DesignStore
from repro.store.errors import StoreError
from repro.store.records import feature_vector, nearest_result_digest
from repro.search.pruning import (
    PruningRules,
    SuccessiveHalvingPruner,
    default_rules,
)
from repro.search.samplers import (
    DEFAULT_SAMPLER_NAME,
    Sampler,
    SearchSpace,
    get_sampler,
)
from repro.search.space import (
    SampledStructure,
    enumerate_param_grid,
    features_for,
    graph_with_params,
    param_slots,
)
from repro.sparse.matrix import SparseMatrix
from repro.staticcheck.diagnostics import Verdict
from repro.staticcheck.facts import MatrixFacts, matrix_facts
from repro.staticcheck.reduction import analyze_design
from repro.workloads import DEFAULT_WORKLOAD, WORKLOADS, Workload, get_workload

__all__ = ["SearchBudget", "EvalRecord", "SearchResult", "SearchEngine"]


@dataclass(frozen=True)
class SearchBudget:
    """Iteration/time budgets.

    The paper caps searches at 8 hours of kernel runs; here the analogous
    hard caps are evaluation counts (each evaluation builds and runs one
    generated program).  ``max_total_evals`` bounds coarse *and* fine
    evaluations together.  ``time_limit_s`` additionally stops the search
    between design groups once the wall clock runs out; the evaluation
    count at the deadline depends on the host, so only count-budgeted
    histories are reproducible.

    ``ml_min_samples`` defaults to the size of the coarse runtime grid
    (``SET_RESOURCES``: 3 thread counts x 2 work grains) — the sample
    count a structure's stratified coarse batch produces, so the fine
    level stays reachable under the default budget.
    """

    max_structures: int = 24
    coarse_evals_per_structure: int = 10
    max_total_evals: int = 320
    ml_top_k: int = 5
    ml_fine_cap: int = 256
    ml_min_samples: int = 6
    time_limit_s: Optional[float] = None


@dataclass
class EvalRecord:
    """One measured candidate (levels 2 or 3)."""

    iteration: int
    structure_sig: Tuple
    assignment: Dict
    gflops: float
    valid: bool
    level: str  # "coarse" | "fine"
    error: str = ""

    def identity(self) -> Tuple:
        """Hashable form of every result-bearing field — the byte-identity
        contract the golden-digest tests and benchmarks compare on."""
        return (
            self.iteration,
            self.structure_sig,
            tuple(sorted(map(str, self.assignment.items()))),
            self.gflops,
            self.valid,
            self.level,
            self.error,
        )


@dataclass
class SearchResult:
    """Output of one AlphaSparse search."""

    matrix_name: str
    gpu_name: str
    best_gflops: float
    best_graph: Optional[OperatorGraph]
    best_program: Optional[GeneratedProgram]
    history: List[EvalRecord]
    coarse_iterations: int
    total_evaluations: int
    structures_tried: int
    banned_operators: Set[str]
    ml_mad: Optional[float]
    wall_time_s: float
    #: design-reuse accounting: Designer executions and the design memo's
    #: hit/miss counters (one lookup per design group; misses are the
    #: distinct design signatures the search met).
    designer_runs: int = 0
    design_cache_hits: int = 0
    design_cache_misses: int = 0
    #: leaf-analysis memo counters (one lookup per successfully designed
    #: group) and the per-stage wall-time breakdown (design /
    #: batch_assembly / batch_cost / verify / ml).
    analysis_cache_hits: int = 0
    analysis_cache_misses: int = 0
    stage_times: Dict[str, float] = field(default_factory=dict)
    #: name of the workload this search tuned for, plus its dense-column
    #: count (kept directly so results of unregistered custom workloads
    #: still price themselves).
    workload: str = "spmv"
    workload_k: int = 1
    #: candidates the static verifier refuted before any evaluation was
    #: spent on them (see :mod:`repro.staticcheck`); they consume no
    #: entry in ``history`` and no slot of ``max_total_evals``.
    static_pruned: int = 0
    #: name of the sampler that drove this search (``"annealer"`` is the
    #: legacy default).
    sampler: str = DEFAULT_SAMPLER_NAME
    #: candidates dropped by successive-halving eval pruning: they lost a
    #: cheap cost-projection rung to a fully-measured valid winner, so no
    #: full measurement (and no ``history`` entry) was spent on them.
    #: Always 0 for the default annealer (it predates pruning and stays
    #: byte-identical).
    sampler_pruned: int = 0
    #: donor candidates injected from the warm-start store and measured
    #: before the ask/tell loop (0 when warm starts are off or no donor
    #: qualified); they do occupy history slots, so warm-started
    #: trajectories are intentionally not byte-comparable to cold runs.
    warm_start_hits: int = 0

    @property
    def best_time_s(self) -> float:
        if self.best_gflops <= 0:
            return float("inf")
        if self.best_program is None:
            return 0.0
        nnz = self.best_program.useful_nnz
        wl = WORKLOADS.get(self.workload)
        # Registered workloads own their flop formula; for a custom
        # unregistered one fall back to the generic FMA count the base
        # Workload.flops defines, from the recorded column count.
        flops = wl.flops(nnz) if wl is not None else (2.0 * nnz) * self.workload_k
        return flops / (self.best_gflops * 1e9)

    @property
    def design_cache_hit_rate(self) -> float:
        lookups = self.design_cache_hits + self.design_cache_misses
        return self.design_cache_hits / lookups if lookups else 0.0


@dataclass
class _SearchState:
    """Per-search mutable state (never stored on the engine)."""

    start: float
    budget: SearchBudget
    x: np.ndarray
    reference: np.ndarray
    #: content key of (x, reference) under which design-level numeric
    #: verdicts are cached — computed once per search.
    verify_key: str = ""
    history: List[EvalRecord] = field(default_factory=list)
    evals: int = 0
    best_gflops: float = 0.0
    best_graph: Optional[OperatorGraph] = None
    best_program: Optional[GeneratedProgram] = None
    #: matrix facts backing static pre-eval pruning (None = pruning off).
    facts: Optional[MatrixFacts] = None
    static_pruned: int = 0
    sampler_pruned: int = 0
    #: static-verifier verdicts memoized per (structure signature, params
    #: with grid_threads masked) — the verifier reads threads_per_block
    #: but never grid_threads, so candidates differing only in work grain
    #: share one verdict.
    static_memo: Dict[Tuple, bool] = field(default_factory=dict)
    #: Designer outcomes per design signature (the matrix is fixed
    #: within a search): the leaves, or the message of the
    #: :class:`DesignError` a structurally invalid design raised.
    designs: Dict[Tuple, Union[List[DesignLeaf], str]] = field(
        default_factory=dict
    )
    #: leaf-level analyses per design signature, shared by every
    #: candidate of the design's runtime-parameter grid
    analyses: Dict[Tuple, DesignAnalysis] = field(default_factory=dict)
    design_hits: int = 0
    analysis_hits: int = 0
    #: wall seconds per evaluation stage
    stage_times: Dict[str, float] = field(default_factory=dict)

    def add_time(self, stage: str, seconds: float) -> None:
        self.stage_times[stage] = self.stage_times.get(stage, 0.0) + seconds

    def design_leaves(
        self, signature: Tuple, design: Callable[[], List[DesignLeaf]]
    ) -> List[DesignLeaf]:
        """The design's leaves, running ``design`` at most once per
        signature.  A :class:`DesignError` outcome is memoized too and
        re-raised on every lookup: each parameter assignment of a
        structurally invalid graph records the same dead candidate, and
        rediscovering the failure would cost a Designer run per group."""
        t0 = time.perf_counter()
        try:
            outcome = self.designs.get(signature)
            if outcome is None:
                try:
                    outcome = design()
                except DesignError as exc:
                    outcome = str(exc)
                self.designs[signature] = outcome
            else:
                self.design_hits += 1
        finally:
            self.add_time("design", time.perf_counter() - t0)
        if isinstance(outcome, str):
            raise DesignError(outcome)
        return outcome

    def design_analysis(self, signature: Tuple) -> DesignAnalysis:
        """The design's analysis, created on its first lookup."""
        analysis = self.analyses.get(signature)
        if analysis is None:
            analysis = self.analyses[signature] = DesignAnalysis()
        else:
            self.analysis_hits += 1
        return analysis

    def time_up(self) -> bool:
        return (
            self.budget.time_limit_s is not None
            and time.perf_counter() - self.start > self.budget.time_limit_s
        )

    def out_of_budget(self) -> bool:
        return self.evals >= self.budget.max_total_evals or self.time_up()


class SearchEngine:
    """Drives AlphaSparse: enumerate, measure, interpolate, stop.

    Safe to reuse across many searches (see :meth:`search_many`): nothing
    a search memoizes outlives it.
    """

    def __init__(
        self,
        gpu: GPUSpec,
        budget: Optional[SearchBudget] = None,
        pruning: Optional[PruningRules] = None,
        enable_pruning: bool = True,
        annealing: Optional[AnnealingSchedule] = None,
        seed: int = 0,
        enable_extensions: bool = False,
        enable_seeding: bool = True,
        enable_static_pruning: bool = True,
        store: Optional[DesignStore] = None,
        workload: Optional[Workload] = None,
        sampler: Optional[object] = None,
        sampler_seed: Optional[int] = None,
        enable_sampler_pruning: bool = True,
        warm_start_store: Optional[DesignStore] = None,
    ) -> None:
        self.gpu = gpu
        self.budget = budget or SearchBudget()
        #: the operation every candidate is built, run and verified for
        #: (one engine = one workload; stores are keyed so that engines of
        #: different workloads sharing a store never cross).
        self.workload = (
            get_workload(workload) if workload is not None else DEFAULT_WORKLOAD
        )
        self.pruning = pruning if pruning is not None else default_rules()
        self.enable_pruning = enable_pruning
        #: template only — cloned per search so the engine stays stateless
        self.annealing = annealing or AnnealingSchedule()
        self.seed = seed
        #: opt in to the paper's future-work operators (SecVII-H HYB
        #: decomposition); off by default to mirror the paper's prototype
        self.enable_extensions = enable_extensions
        #: visit the source-format archetypes before random structures
        #: (ablatable design choice; see benchmarks/test_abl_seeding.py)
        self.enable_seeding = enable_seeding
        #: refute candidates with the static verifier before spending an
        #: evaluation on them (sound: only designs whose reduction chain
        #: provably cannot validate are skipped).  Also lets the sampler
        #: shape its chain menu to the workload.  Off reproduces the
        #: pre-verifier search histories byte for byte.
        self.enable_static_pruning = enable_static_pruning
        #: candidate sampler driving the ask/tell loop (name or class; see
        #: :mod:`repro.search.samplers`).  The default annealer reproduces
        #: the legacy engine behaviour byte for byte.
        self.sampler_cls = get_sampler(sampler)
        #: seed of the adaptive samplers' private RNG; None derives it
        #: from the per-search seed (the annealer draws from the engine
        #: RNG regardless, so this only affects qmc/tpe/dts).
        self.sampler_seed = sampler_seed
        #: successive-halving eval pruning for samplers that opt in
        #: (``Sampler.prunes``); losing candidates are dropped after a
        #: cheap cost-projection rung and counted in
        #: ``SearchResult.sampler_pruned``.
        self.enable_sampler_pruning = enable_sampler_pruning
        self.sh_pruner = SuccessiveHalvingPruner()
        self.builder = KernelBuilder(
            compressor=ModelDrivenCompressor(), workload=self.workload
        )
        #: never read or written by a search; held only so callers can
        #: persist results through ``engine.store`` (the CLI does).  Kept
        #: because perfbench's serve priming passes ``store=``; once it
        #: stops, delete the keyword and let the CLI hold its store.
        self.store = store
        self.evaluator = StagedEvaluator(self.builder)
        #: group evaluator: candidates sharing a design signature evaluate
        #: as one vectorized pass (see :mod:`repro.search.batcheval`).
        self.batch = BatchEvaluator(self.builder, gpu, self.workload)
        #: store consulted for cross-matrix warm starts (None = off): each
        #: search seeds itself from the closest prior winner's graph,
        #: injected as an iteration-0 candidate before the ask/tell loop.
        self.warm_start_store = warm_start_store

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the engine (a no-op: it holds nothing between
        searches; kept so engines work as context managers)."""

    def __enter__(self) -> "SearchEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def search_many(
        self,
        matrices: Iterable[SparseMatrix],
        seeds: Optional[Sequence[int]] = None,
    ) -> List[SearchResult]:
        """Collection-level driver: search every matrix with this engine.

        The way the benchmark harness reproduces whole paper figures;
        each search's memos are dropped before the next one starts.
        ``seeds`` optionally overrides the engine seed per matrix.
        """
        matrices = list(matrices)
        if seeds is not None and len(seeds) != len(matrices):
            raise ValueError("seeds must match matrices in length")
        return [
            self.search(m, seed=None if seeds is None else seeds[i])
            for i, m in enumerate(matrices)
        ]

    # ------------------------------------------------------------------
    def search(
        self, matrix: SparseMatrix, seed: Optional[int] = None
    ) -> SearchResult:
        start = time.perf_counter()
        rng = np.random.default_rng(self.seed if seed is None else seed)
        designer_before = self.builder.designer.executions
        banned = (
            self.pruning.ban_list(matrix.stats) if self.enable_pruning else set()
        )
        space = SearchSpace(
            banned=frozenset(banned),
            extensions=self.enable_extensions,
            seeding=self.enable_seeding,
            budget=self.budget,
            shaping_workload=(
                self.workload if self.enable_static_pruning else None
            ),
            annealing_termination=self.enable_pruning,
            annealing_template=self.annealing,
        )
        sampler: Sampler = self.sampler_cls()
        # The annealer draws its structure-sampler seed from ``rng`` inside
        # begin() — the first draw of the legacy engine loop, preserved.
        sampler.begin(
            space,
            rng,
            seed=(
                self.sampler_seed
                if self.sampler_seed is not None
                else (self.seed if seed is None else seed)
            ),
        )
        prune = sampler.prunes and self.enable_sampler_pruning

        x = self.workload.make_operand(matrix)
        reference = self.workload.reference(matrix, x)
        state = _SearchState(
            start=start,
            budget=self.budget,
            x=x,
            reference=reference,
            verify_key=content_digest(x, reference),
            facts=matrix_facts(matrix) if self.enable_static_pruning else None,
        )

        structure_store: Dict[Tuple, SampledStructure] = {}
        structures_tried = 0

        # ---------------- Level 0: cross-matrix warm start ----------------
        # Seed the search with the store's closest prior winner: the donor
        # graph is a full candidate (structure + parameters), measured as
        # an iteration-0 batch so the sampler's ask/tell loop sees it in
        # history and every later candidate must beat it.
        warm_start_hits = 0
        if self.warm_start_store is not None and not state.out_of_budget():
            donor = self._warm_start_proposal(matrix)
            if donor is not None:
                if donor.signature not in structure_store:
                    structure_store[donor.signature] = donor
                    structures_tried += 1
                records = self._measure_batch(
                    matrix, donor, [{}], state, level="coarse"
                )
                warm_start_hits = len(records)

        # ---------------- Levels 1 + 2: the ask/tell loop ----------------
        # The sampler owns *which* candidates to try (structures and
        # parameter assignments); the engine owns budgets, static pruning,
        # measurement and history recording.
        while not state.out_of_budget():
            batches = sampler.ask(state.history)
            if batches is None:
                break  # sampler done (terminated, exhausted, or converged)
            records_per_batch = []
            for batch in batches:
                if batch.proposal.signature not in structure_store:
                    structure_store[batch.proposal.signature] = batch.proposal
                    structures_tried += 1
                records_per_batch.append(
                    self._measure_batch(
                        matrix,
                        batch.proposal,
                        batch.assignments,
                        state,
                        level=batch.level,
                        prune=prune,
                    )
                )
            sampler.tell(batches, records_per_batch)

        coarse_iterations = state.evals

        # ---------------- Level 3: ML interpolation ----------------
        ml_mad: Optional[float] = None
        if (
            sampler.uses_ml_level
            and state.best_graph is not None
            and not state.out_of_budget()
        ):
            ml_mad = self._ml_level(matrix, state, structure_store, rng)

        designer_runs = self.builder.designer.executions - designer_before
        return SearchResult(
            matrix_name=matrix.name,
            gpu_name=self.gpu.name,
            best_gflops=state.best_gflops,
            best_graph=state.best_graph,
            best_program=state.best_program,
            history=state.history,
            coarse_iterations=coarse_iterations,
            total_evaluations=len(state.history),
            structures_tried=structures_tried,
            banned_operators=banned,
            ml_mad=ml_mad,
            wall_time_s=time.perf_counter() - start,
            designer_runs=designer_runs,
            design_cache_hits=state.design_hits,
            design_cache_misses=len(state.designs),
            analysis_cache_hits=state.analysis_hits,
            analysis_cache_misses=len(state.analyses),
            stage_times=dict(sorted(state.stage_times.items())),
            workload=self.workload.name,
            workload_k=self.workload.k,
            static_pruned=state.static_pruned,
            sampler=self.sampler_cls.name,
            sampler_pruned=state.sampler_pruned,
            warm_start_hits=warm_start_hits,
        )

    # ------------------------------------------------------------------
    def _measure_batch(
        self,
        matrix: SparseMatrix,
        proposal: SampledStructure,
        assignments: Sequence[Dict],
        state: _SearchState,
        level: str,
        prune: bool = False,
    ) -> List[EvalRecord]:
        """Evaluate a structure's parameter assignments as one batch.

        With static pruning on, assignments whose reduction chain the
        verifier refutes for this matrix+workload are dropped before
        anything else — they consume no evaluation slot and leave no
        history record, only the ``static_pruned`` counter.  Verdicts are
        memoized per runtime-masked key (grid_threads only — the verifier
        reads threads_per_block), so a structure's whole work-grain axis
        shares one analyze_design pass.

        With ``prune`` set (adaptive samplers), survivors of a cheap
        successive-halving cost-projection tournament are fully measured
        first and the losers are skipped entirely once a valid winner
        exists (``sampler_pruned``); otherwise every candidate is
        measured.  Returns the new history records, in submission order.
        """
        candidates = list(assignments)
        if state.facts is not None:
            kept = []
            op_names = [node.op_name for node in proposal.graph.walk()]
            for assignment in candidates:
                merged = dict(proposal.locks)
                merged.update(assignment)
                memo_key = (
                    proposal.signature,
                    design_group_key(merged, op_names, keep_tpb=True),
                )
                invalid = state.static_memo.get(memo_key)
                if invalid is None:
                    graph = graph_with_params(
                        proposal.graph, assignment, proposal.locks
                    )
                    report = analyze_design(graph, self.workload, state.facts)
                    invalid = report.verdict is Verdict.INVALID
                    state.static_memo[memo_key] = invalid
                if invalid:
                    state.static_pruned += 1
                else:
                    kept.append(assignment)
            candidates = kept
        if prune and len(candidates) > self.sh_pruner.min_survivors:
            return self._measure_pruned(matrix, proposal, candidates, state, level)
        return self._measure_list(matrix, proposal, candidates, state, level)

    # ------------------------------------------------------------------
    def _measure_pruned(
        self,
        matrix: SparseMatrix,
        proposal: SampledStructure,
        candidates: List[Dict],
        state: _SearchState,
        level: str,
    ) -> List[EvalRecord]:
        """Successive-halving measurement (see
        :class:`~repro.search.pruning.SuccessiveHalvingPruner`).

        Every candidate runs the cheap rung — its design group's assembly
        and cost pass, scored by :meth:`AssembledGroup.rung_score` with no
        functional execution or verification — and the halving tournament
        on projected scores groups candidates into waves: the final-rung
        survivors first, then the per-rung eliminated groups in descending
        projection order.  Wave 0 is fully measured; later waves run only
        while no valid measurement exists (assembly failures and invalid
        designs project 0, so an all-invalid survivor wave falls through
        to the next group).  Once a wave yields a valid winner, the
        remaining waves are dropped and counted in ``sampler_pruned`` —
        lossless on this simulator, where a valid candidate's measured
        GFLOPS equals its projection, so no pruned candidate could have
        beaten the winner.
        """
        slots: List[Tuple[AssembledGroup, int]] = [None] * len(candidates)
        for group in group_candidates(proposal, candidates):
            assembled = self.batch.assemble(
                matrix, proposal, group.assignments, state
            )
            for c, position in enumerate(group.indices):
                slots[position] = (assembled, c)
        waves = self.sh_pruner.waves(
            [assembled.rung_score(c) for assembled, c in slots]
        )
        records: List[EvalRecord] = []
        for index, wave in enumerate(waves):
            if index > 0 and any(r.valid and r.gflops > 0 for r in records):
                state.sampler_pruned += sum(len(w) for w in waves[index:])
                break
            if state.out_of_budget():
                break
            wave = wave[: max(0, self.budget.max_total_evals - state.evals)]
            results = [
                self.batch.finish(assembled, [c], state)[0]
                for assembled, c in (slots[i] for i in wave)
            ]
            records.extend(
                self._record(
                    proposal, [candidates[i] for i in wave], results, state, level
                )
            )
        return records

    # ------------------------------------------------------------------
    def _measure_list(
        self,
        matrix: SparseMatrix,
        proposal: SampledStructure,
        candidates: Sequence[Dict],
        state: _SearchState,
        level: str,
    ) -> List[EvalRecord]:
        """Fully measure candidates as one ordered batch.

        The batch is truncated to the remaining evaluation budget up front,
        candidates sharing a design signature are grouped, and each group
        evaluates as one vectorized pass.  Results fold into the search
        state in submission order.  The time limit is checked between
        groups; a group cut off by it leaves holes, which only occurs
        where reproducibility is already waived.
        """
        room = self.budget.max_total_evals - state.evals
        batch = list(candidates)[: max(0, room)]
        results: List[Optional[Tuple]] = [None] * len(batch)
        for group in group_candidates(proposal, batch):
            if state.time_up():
                break
            outs = self.batch.evaluate_group(
                matrix, proposal, group.assignments, state
            )
            for position, out in zip(group.indices, outs):
                results[position] = out
        return self._record(proposal, batch, results, state, level)

    def _record(
        self,
        proposal: SampledStructure,
        assignments: Sequence[Dict],
        results: Sequence[Optional[Tuple]],
        state: _SearchState,
        level: str,
    ) -> List[EvalRecord]:
        """Fold measured ``(gflops, program, error)`` results into history
        records and the best-so-far, in order (``None`` = not run)."""
        records: List[EvalRecord] = []
        for assignment, result in zip(assignments, results):
            if result is None:
                continue
            gflops, program, error = result
            state.evals += 1
            record = EvalRecord(
                iteration=state.evals,
                structure_sig=proposal.signature,
                assignment=dict(assignment),
                gflops=gflops,
                valid=error == "",
                level=level,
                error=error,
            )
            state.history.append(record)
            records.append(record)
            if gflops > state.best_gflops:
                state.best_gflops = gflops
                state.best_graph = graph_with_params(
                    proposal.graph, assignment, proposal.locks
                )
                state.best_program = program
        return records

    # ------------------------------------------------------------------
    def _warm_start_proposal(
        self, matrix: SparseMatrix
    ) -> Optional[SampledStructure]:
        """The warm-start store's closest prior winner, as a proposal.

        Donor ranking is the serving frontend's tier-2 rule
        (:func:`~repro.store.records.nearest_result_digest`): graph-bearing
        results of the same workload, excluding this matrix itself, ranked
        by feature-signature distance.  The donor graph carries its tuned
        parameters, so it is proposed with empty locks and a single empty
        assignment.  Any decode failure means no warm start, never an
        error — the search proceeds cold.
        """
        store = self.warm_start_store
        try:
            metas = store.result_metas(self.gpu.name)
        except StoreError:
            return None
        if not metas:
            return None
        digest = nearest_result_digest(
            metas,
            feature_vector(matrix),
            workload=self.workload.name,
            exclude_digest=matrix_token(matrix)[-1],
        )
        if digest is None:
            return None
        payload = store.result_payload(digest)
        if payload is None or not payload.get("graph"):
            return None
        try:
            graph = OperatorGraph.from_dict(payload["graph"])
        except (KeyError, TypeError, ValueError, GraphValidationError):
            return None
        return SampledStructure(graph=graph, locks={})

    # ------------------------------------------------------------------
    def _ml_level(
        self,
        matrix: SparseMatrix,
        state: _SearchState,
        structure_store: Dict[Tuple, SampledStructure],
        rng: np.random.Generator,
    ) -> Optional[float]:
        """Fit the GBT model per best structure, probe the fine grid.

        Fine evaluations continue the global iteration numbering and draw
        from the same ``max_total_evals`` budget as the coarse level.
        """
        valid = [r for r in state.history if r.valid and r.level == "coarse"]
        if not valid:
            return None
        # Best structure by measured coarse performance.
        best_by_structure: Dict[Tuple, float] = {}
        for rec in valid:
            best_by_structure[rec.structure_sig] = max(
                best_by_structure.get(rec.structure_sig, 0.0), rec.gflops
            )
        ranked = sorted(best_by_structure, key=best_by_structure.get, reverse=True)

        mad: Optional[float] = None
        for sig in ranked[:2]:
            if state.out_of_budget():
                break
            proposal = structure_store[sig]
            slots = param_slots(proposal.graph, proposal.locks)
            if not slots:
                continue
            samples = [r for r in valid if r.structure_sig == sig]
            if len(samples) < self.budget.ml_min_samples:
                continue
            t0 = time.perf_counter()
            X = np.stack(
                [features_for(slots, self._key_assign(r.assignment)) for r in samples]
            )
            y = np.array([r.gflops for r in samples])
            model = GradientBoostedTrees().fit(X, y)
            mad = mean_absolute_deviation(y, model.predict(X))
            state.add_time("ml", time.perf_counter() - t0)

            fine = enumerate_param_grid(
                proposal.graph,
                proposal.locks,
                level="fine",
                cap=self.budget.ml_fine_cap,
                rng=rng,
            )
            measured = {
                tuple(sorted(self._key_assign(r.assignment).items()))
                for r in samples
            }
            fine = [
                a
                for a in fine
                if tuple(sorted(a.items())) not in measured
            ]
            if not fine:
                continue
            t0 = time.perf_counter()
            Xf = np.stack([features_for(slots, a) for a in fine])
            pred = model.predict(Xf)
            state.add_time("ml", time.perf_counter() - t0)
            # Stable sort: tied predictions resolve to enumeration order,
            # which lists design-relevant combinations in contiguous blocks
            # — tied fine probes then share design leaves with one another
            # (and with the coarse level) through the design memo.
            top = np.argsort(-pred, kind="stable")[: self.budget.ml_top_k]
            self._measure_batch(
                matrix,
                proposal,
                [fine[int(idx)] for idx in top],
                state,
                level="fine",
            )
        return mad

    @staticmethod
    def _key_assign(assignment: Dict) -> Dict:
        """History assignments may have been JSON-ified; normalise keys."""
        out = {}
        for key, value in assignment.items():
            if isinstance(key, list):
                key = tuple(key)
            out[key] = value
        return out
