"""Staged evaluation tests: per-search design reuse and its accounting.

The acceptance bars: a search runs the Designer at least 5x less often than
it evaluates candidates, its memos count hits and misses truthfully, and
nothing a search memoizes outlives it — one engine driving many searches
holds no earlier matrix's designs or analyses once their results are gone.
(That memoized scores equal the plain uncached build is the replay oracle
in ``tests/test_batcheval.py``.)
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core.designer import DesignError, Designer
from repro.core.graph import OperatorGraph
from repro.core.kernel.builder import (
    KernelBuilder,
    design_graph,
    design_signature,
    runtime_nodes_for_leaf,
)
from repro.gpu import A100
from repro.gpu.analysis import DesignAnalysis
from repro.search import SearchBudget, SearchEngine
from repro.search.engine import _SearchState
from repro.search.evaluation import matrix_token
from repro.search.space import SampledStructure
from repro.sparse import banded_matrix, lp_like_matrix, power_law_matrix


SMALL_BUDGET = SearchBudget(
    max_structures=8, coarse_evals_per_structure=4, max_total_evals=50, ml_top_k=3
)


def _engine(seed=3, budget=SMALL_BUDGET):
    return SearchEngine(A100, budget=budget, seed=seed)


def _state(engine, matrix):
    """A fresh per-search state for ``matrix``, as ``search`` builds it."""
    x = engine.workload.make_operand(matrix)
    reference = engine.workload.reference(matrix, x)
    return _SearchState(
        start=0.0,
        budget=engine.budget,
        token=matrix_token(matrix),
        x=x,
        reference=reference,
        verify_key="verify",
    )


def _history_tuple(result):
    return [r.identity() for r in result.history]


class TestCacheCorrectness:
    def test_counters_surfaced(self):
        """The search's memo counters: one design lookup per candidate
        *group* (bounded by, and usually far below, the evaluation
        count), one Designer run per miss, one analysis per design that
        designed successfully."""
        m = power_law_matrix(512, avg_degree=8, seed=2, name="eval_irregular")
        result = _engine().search(m)
        assert result.design_cache_misses > 0
        assert result.design_cache_hits + result.design_cache_misses <= \
            result.total_evaluations
        assert result.designer_runs == result.design_cache_misses
        assert 0 < result.analysis_cache_misses <= result.design_cache_misses


class TestDesignerRunReduction:
    def test_at_least_5x_fewer_designer_runs(self):
        """Acceptance criterion: >=5x on a standard SearchBudget."""
        m = power_law_matrix(512, avg_degree=8, seed=2, name="eval_ratio")
        cached = SearchEngine(A100, budget=SearchBudget(), seed=0).search(m)
        # Uncached baseline runs the Designer once per evaluation.
        assert cached.designer_runs * 5 <= cached.total_evaluations
        # Batched evaluation collapses cache traffic itself: one lookup
        # per design group instead of one per candidate.
        assert (
            cached.design_cache_hits + cached.design_cache_misses
            < cached.total_evaluations
        )


class TestBudgetAndNumbering:
    """Satellite fixes: fine level obeys budgets and iteration ids."""

    @pytest.fixture(scope="class")
    def result(self):
        m = power_law_matrix(512, avg_degree=8, seed=2, name="eval_budget")
        return _engine(seed=1).search(m)

    def test_iteration_ids_unique_and_contiguous(self, result):
        assert [r.iteration for r in result.history] == list(
            range(1, len(result.history) + 1)
        )

    def test_fine_level_counts_against_budget(self):
        m = power_law_matrix(512, avg_degree=8, seed=2, name="eval_cap")
        budget = SearchBudget(
            max_structures=8, coarse_evals_per_structure=4, max_total_evals=20
        )
        res = SearchEngine(A100, budget=budget, seed=1).search(m)
        assert res.total_evaluations <= budget.max_total_evals
        assert len(res.history) <= budget.max_total_evals


class TestStagedBuildEquivalence:
    """design_phase + assembly_phase == the one-shot unstaged build."""

    GRAPHS = [
        ["COMPRESS", ("BMT_ROW_BLOCK", {"rows_per_block": 1}),
         ("SET_RESOURCES", {"threads_per_block": 512, "work_per_thread": 4}),
         "THREAD_TOTAL_RED", "GMEM_DIRECT_STORE"],
        ["COMPRESS", ("SET_RESOURCES", {"threads_per_block": 256,
                                        "work_per_thread": 8}),
         "GMEM_ATOM_RED"],
    ]

    @pytest.mark.parametrize("ops", GRAPHS, ids=["bmt-row", "coo"])
    def test_matches_unstaged_reference(self, small_regular, ops):
        graph = OperatorGraph.from_names(ops)
        builder = KernelBuilder()
        staged = builder.build(small_regular, graph)
        # Unstaged reference: run the Designer on the fully-parameterised
        # graph (the pre-refactor behaviour) and build each leaf directly.
        leaves = Designer().design(small_regular, graph)
        units = [builder.build_unit(leaf) for leaf in leaves]
        assert len(staged.kernels) == len(units)
        for got, want in zip(staged.kernels, units):
            assert got.plan.threads_per_block == want.plan.threads_per_block
            assert got.plan.n_threads == want.plan.n_threads
            np.testing.assert_array_equal(got.plan.thread_of_nz,
                                          want.plan.thread_of_nz)
            assert got.source == want.source
        x = np.random.default_rng(7).random(small_regular.n_cols)
        np.testing.assert_allclose(
            staged.run(x, A100).y, small_regular.spmv_reference(x),
            rtol=1e-9, atol=1e-9,
        )

    def test_runtime_reapply_rejects_bad_params(self, small_regular):
        graph = OperatorGraph.from_names([
            "COMPRESS",
            ("SET_RESOURCES", {"threads_per_block": 100}),
            "GMEM_ATOM_RED",
        ])
        with pytest.raises(DesignError, match="SET_RESOURCES"):
            KernelBuilder().build(small_regular, graph)


class TestDesignSignature:
    def test_runtime_params_masked(self):
        a = OperatorGraph.from_names([
            "COMPRESS", ("SET_RESOURCES", {"threads_per_block": 128}),
            "GMEM_ATOM_RED"])
        b = OperatorGraph.from_names([
            "COMPRESS", ("SET_RESOURCES", {"threads_per_block": 512}),
            "GMEM_ATOM_RED"])
        assert design_signature(a) == design_signature(b)

    def test_design_params_distinguish(self):
        a = OperatorGraph.from_names([
            "COMPRESS", ("BMT_ROW_BLOCK", {"rows_per_block": 1}),
            "SET_RESOURCES", "GMEM_ATOM_RED"])
        b = OperatorGraph.from_names([
            "COMPRESS", ("BMT_ROW_BLOCK", {"rows_per_block": 2}),
            "SET_RESOURCES", "GMEM_ATOM_RED"])
        assert design_signature(a) != design_signature(b)

    def test_design_graph_resets_runtime_params(self):
        g = OperatorGraph.from_names([
            "COMPRESS", ("SET_RESOURCES", {"threads_per_block": 1024}),
            "GMEM_ATOM_RED"])
        canonical = design_graph(g)
        node = next(n for n in canonical.walk() if n.op_name == "SET_RESOURCES")
        assert node.params == node.operator.default_params()
        # original untouched
        orig = next(n for n in g.walk() if n.op_name == "SET_RESOURCES")
        assert orig.params["threads_per_block"] == 1024

    def test_runtime_nodes_follow_branch_paths(self, small_irregular):
        graph = OperatorGraph.from_names([
            "ROW_DIV", "COMPRESS", "SET_RESOURCES", "GMEM_ATOM_RED"])
        leaves = Designer().design(small_irregular, graph)
        assert len(leaves) > 1
        for leaf in leaves:
            nodes = runtime_nodes_for_leaf(graph, leaf.branch_path)
            assert [n.op_name for n in nodes] == ["SET_RESOURCES"]


class TestDesignCache:
    """The per-search design memo (``_SearchState.design_leaves``)."""

    def test_factory_runs_once_per_key(self, small_regular):
        state = _state(_engine(), small_regular)
        calls = []
        leaves = ["leaf"]
        for _ in range(3):
            out = state.design_leaves(("k",), lambda: calls.append(1) or leaves)
        assert out is leaves
        assert len(calls) == 1
        assert (state.design_hits, len(state.designs)) == (2, 1)
        assert state.stage_times["design"] >= 0.0

    def test_design_errors_are_cached(self, small_regular):
        """A DesignError outcome is memoized and replayed with its message,
        so a structurally invalid design costs one Designer run per search
        (the design store persists such failures the same way)."""
        state = _state(_engine(), small_regular)
        calls = []

        def failing():
            calls.append(1)
            raise DesignError("SORT: cannot apply")

        for _ in range(2):
            with pytest.raises(DesignError, match="SORT: cannot apply"):
                state.design_leaves(("bad",), failing)
        assert len(calls) == 1
        assert state.design_hits == 1

    def test_matrix_token_distinguishes_content(self):
        a = banded_matrix(64, bandwidth=2, seed=0, name="same")
        b = power_law_matrix(64, avg_degree=3, seed=1, name="same")
        assert matrix_token(a) != matrix_token(b)
        assert matrix_token(a) == matrix_token(
            banded_matrix(64, bandwidth=2, seed=0, name="same")
        )

    def test_shared_cache_serves_evaluator(self, small_regular):
        """Two groups of one design in one search share its Designer run
        and its analysis; each scores what the plain build measures."""
        engine = _engine()
        state = _state(engine, small_regular)
        graph = OperatorGraph.from_names(
            ["COMPRESS", "SET_RESOURCES", "GMEM_ATOM_RED"])
        proposal = SampledStructure(graph=graph, locks={})
        outs = [
            engine.batch.evaluate_group(
                small_regular, proposal, [{(1, "threads_per_block"): tpb}], state
            )[0]
            for tpb in (128, 256)
        ]
        assert (state.design_hits, len(state.designs)) == (1, 1)
        assert (state.analysis_hits, len(state.analyses)) == (1, 1)
        for tpb, (gflops, program, error) in zip((128, 256), outs):
            assert error == ""
            plain = KernelBuilder().build(small_regular, OperatorGraph.from_names([
                "COMPRESS", ("SET_RESOURCES", {"threads_per_block": tpb}),
                "GMEM_ATOM_RED"]))
            assert gflops == plain.run(state.x, A100).gflops
            assert program.analysis is state.analyses[next(iter(state.analyses))]


class TestSearchMany:
    def test_matches_individual_searches(self):
        mats = [
            banded_matrix(512, bandwidth=3, seed=1, name="many_a"),
            power_law_matrix(512, avg_degree=8, seed=2, name="many_b"),
        ]
        with _engine() as engine:
            combined = engine.search_many(mats, seeds=[7, 9])
        individual = [
            _engine().search(mats[0], seed=7),
            _engine().search(mats[1], seed=9),
        ]
        for got, want in zip(combined, individual):
            assert got.best_gflops == want.best_gflops
            assert _history_tuple(got) == _history_tuple(want)

    def test_seed_length_validated(self):
        with pytest.raises(ValueError):
            _engine().search_many(
                [banded_matrix(64, bandwidth=2, seed=0)], seeds=[1, 2]
            )


class TestEngineIsStateless:
    def test_repeated_searches_identical(self):
        m = power_law_matrix(512, avg_degree=8, seed=2, name="stateless")
        engine = _engine()
        first = engine.search(m)
        second = engine.search(m)  # fresh memos, cloned schedule, fresh rng
        assert first.best_gflops == second.best_gflops
        assert _history_tuple(first) == _history_tuple(second)
        # nothing carried over: the second search designs from scratch
        assert second.designer_runs == first.designer_runs
        assert second.design_cache_hits == first.design_cache_hits

    def test_memos_released_with_results(self, monkeypatch):
        """Per-search scoping: while a result is held its winner's analysis
        stays alive and its program runs; once the results are dropped, no
        design leaf or analysis any of the searches created survives."""
        engine = _engine()
        refs = []
        init = DesignAnalysis.__init__

        def tracked_init(analysis):
            init(analysis)
            refs.append(weakref.ref(analysis))

        monkeypatch.setattr(DesignAnalysis, "__init__", tracked_init)
        design_phase = engine.builder.design_phase

        def tracked_design(matrix, graph):
            leaves = design_phase(matrix, graph)
            refs.extend(weakref.ref(leaf) for leaf in leaves)
            return leaves

        monkeypatch.setattr(engine.builder, "design_phase", tracked_design)
        matrices = [
            banded_matrix(256, bandwidth=3, seed=1, name="keep_a"),
            power_law_matrix(256, avg_degree=6, seed=2, name="keep_b"),
            lp_like_matrix(200, seed=3, name="keep_c"),
        ]
        results = [engine.search(m) for m in matrices]
        assert refs
        gc.collect()
        for matrix, result in zip(matrices, results):
            assert result.best_program is not None
            winner = weakref.ref(result.best_program.analysis)
            assert winner() is not None
            x = np.random.default_rng(5).random(matrix.n_cols)
            np.testing.assert_allclose(
                result.best_program.run(x, A100).y,
                matrix.spmv_reference(x), rtol=1e-9, atol=1e-9,
            )
        del results, result, winner
        gc.collect()
        alive = [ref for ref in refs if ref() is not None]
        assert not alive, f"{len(alive)} of {len(refs)} memo objects outlived"
