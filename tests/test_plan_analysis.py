"""Plan-analysis subsystem tests: linear-time statistics + leaf caches.

Three acceptance bars:

* the bincount / boundary-diff statistics must equal the seed's sort-based
  ``np.unique`` implementations exactly (randomised property tests,
  including a full reference reimplementation of the old reduction walk);
* analysis-backed plans must cost and compute exactly what standalone
  plans do;
* numeric verification (``spmv_allclose``) must run once per design, not
  once per candidate.
"""


import collections
import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mapping_paths import FINE_TPB, FINE_WPT, MAPPING_PATHS, fine_grid
from repro.core.designer import Designer, default_invariant_checks
from repro.core.graph import OperatorGraph
from repro.core.kernel.builder import KernelBuilder
from repro.core.operators import get_operator
from repro.gpu import A100, executor as executor_mod
from repro.gpu.analysis import DesignAnalysis, LeafAnalysis
from repro.gpu.executor import (
    ExecutionPlan,
    PlanValidationError,
    ReductionStep,
    _flow_partials,
    _functional_y,
    _pair_stats,
    _regroup,
    _sorted_unique_pairs,
    execute,
    plan_cost_inputs,
)
from repro.gpu.memory import unique_column_count
from repro.search import SearchBudget, SearchEngine
from repro.search.engine import _SearchState
from repro.search.evaluation import StagedEvaluator
from repro.search.space import graph_with_params
from repro.sparse import SparseMatrix, power_law_matrix


# ---------------------------------------------------------------------------
# Reference implementations (the seed's sort-based np.unique algorithms)
# ---------------------------------------------------------------------------

def _pair_counts_reference(groups, rows):
    if rows.size == 0:
        return (0, 0)
    key = groups.astype(np.int64) * (int(rows.max()) + 1) + rows
    uniq_pairs = np.unique(key)
    pair_groups = uniq_pairs // (int(rows.max()) + 1)
    group_ids, counts = np.unique(pair_groups, return_counts=True)
    return (int(group_ids.size), int(counts.max()))


def _merge_reference(groups, rows):
    if rows.size == 0:
        return groups, rows
    base = int(rows.max()) + 1
    key = groups.astype(np.int64) * base + rows
    uniq = np.unique(key)
    return (uniq // base), (uniq % base)


def _flow_partials_reference(plan):
    """The seed's reduction walk, verbatim, for differential testing."""
    valid = plan.out_rows >= 0
    rows = plan.out_rows[valid]
    threads = plan.thread_of_nz[valid]
    out = dict(shuffle_ops=0, shmem_ops=0, serial_red_ops=0, sync_barriers=0,
               atomic_ops=0, final_rows=None)
    if rows.size == 0:
        out["final_rows"] = rows
        return out
    cur_groups, cur_rows = threads, rows
    granularity = 1
    for step in plan.reduction_steps:
        if step.level == "thread":
            n_groups, per_group_max = _pair_counts_reference(cur_groups, cur_rows)
            if step.strategy == "THREAD_TOTAL_RED":
                if per_group_max > 1:
                    raise PlanValidationError("THREAD_TOTAL_RED reference")
            else:
                out["serial_red_ops"] += int(cur_rows.size)
            cur_groups, cur_rows = _merge_reference(cur_groups, cur_rows)
        elif step.level == "warp":
            if granularity > plan.warp_size:
                raise PlanValidationError("warp order reference")
            groups = cur_groups // (plan.warp_size // granularity)
            granularity = plan.warp_size
            n_groups, per_group_max = _pair_counts_reference(groups, cur_rows)
            if step.strategy == "WARP_TOTAL_RED":
                if per_group_max > 1:
                    raise PlanValidationError("WARP_TOTAL_RED reference")
                out["shuffle_ops"] += n_groups * 5
            elif step.strategy == "WARP_SEG_RED":
                out["shuffle_ops"] += n_groups * 10
            else:
                out["shuffle_ops"] += n_groups * 8
            cur_groups, cur_rows = _merge_reference(groups, cur_rows)
        elif step.level == "block":
            if granularity > plan.threads_per_block:
                raise PlanValidationError("block order reference")
            groups = cur_groups // (plan.threads_per_block // granularity)
            granularity = plan.threads_per_block
            n_groups, per_group_max = _pair_counts_reference(groups, cur_rows)
            if step.strategy == "SHMEM_TOTAL_RED":
                if per_group_max > 1:
                    raise PlanValidationError("SHMEM_TOTAL_RED reference")
                out["shmem_ops"] += int(cur_rows.size)
                out["sync_barriers"] += n_groups * max(
                    1, int(np.log2(max(2, plan.threads_per_block)))
                )
            else:
                out["shmem_ops"] += int(3 * cur_rows.size)
                out["sync_barriers"] += n_groups * 2
            cur_groups, cur_rows = _merge_reference(groups, cur_rows)
        else:
            out["final_rows"] = cur_rows
            if step.strategy == "GMEM_ATOM_RED":
                out["atomic_ops"] = int(cur_rows.size)
            else:
                counts = np.bincount(cur_rows, minlength=plan.n_rows)
                if counts.max(initial=0) > 1:
                    raise PlanValidationError("GMEM_DIRECT_STORE reference")
    return out


# ---------------------------------------------------------------------------
# Property tests: linear-time primitives == np.unique reference
# ---------------------------------------------------------------------------

@given(
    n=st.integers(0, 200),
    n_groups=st.integers(1, 40),
    n_rows=st.integers(1, 30),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=80, deadline=None)
def test_property_sorted_unique_pairs_match_unique(n, n_groups, n_rows, seed):
    rng = np.random.default_rng(seed)
    groups = rng.integers(0, n_groups, n).astype(np.int64)
    rows = rng.integers(0, n_rows, n).astype(np.int64)
    base = n_rows
    key = _sorted_unique_pairs(groups, rows, base)
    np.testing.assert_array_equal(
        key, np.unique(groups.astype(np.int64) * base + rows)
    )
    got = _pair_stats(key, base)
    want = _pair_counts_reference(groups, rows) if n else (0, 0)
    assert (got.n_groups, got.per_group_max) == want


@given(
    n=st.integers(1, 150),
    n_groups=st.integers(1, 64),
    n_rows=st.integers(1, 20),
    shrink=st.sampled_from([1, 2, 4, 32]),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_property_regroup_matches_merge_reference(n, n_groups, n_rows, shrink, seed):
    rng = np.random.default_rng(seed)
    groups = rng.integers(0, n_groups, n).astype(np.int64)
    rows = rng.integers(0, n_rows, n).astype(np.int64)
    base = n_rows
    key = _sorted_unique_pairs(groups, rows, base)
    regrouped = _regroup(key, base, shrink)
    want_g, want_r = _merge_reference(groups // shrink, rows)
    np.testing.assert_array_equal(regrouped // base, want_g)
    np.testing.assert_array_equal(regrouped % base, want_r)


@given(
    n=st.integers(0, 300),
    n_cols=st.integers(1, 80),
    pad_frac=st.floats(0.0, 0.5),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=80, deadline=None)
def test_property_unique_column_count_matches_unique(n, n_cols, pad_frac, seed):
    rng = np.random.default_rng(seed)
    cols = rng.integers(0, n_cols, n)
    pad = rng.random(n) < pad_frac
    cols[pad] = -1
    valid = cols[cols >= 0]
    want = int(np.unique(valid).size) if valid.size else 0
    assert unique_column_count(cols) == want


@given(
    n_rows=st.integers(1, 16),
    n_cols=st.integers(1, 16),
    nnz=st.integers(1, 60),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_property_bincount_y_bit_identical_to_add_at(n_rows, n_cols, nnz, seed):
    rng = np.random.default_rng(seed)
    m = SparseMatrix(
        n_rows, n_cols,
        rng.integers(0, n_rows, nnz),
        rng.integers(0, n_cols, nnz),
        rng.random(nnz) + 0.5,
    )
    plan = ExecutionPlan(
        n_rows=n_rows, n_cols=n_cols, useful_nnz=m.nnz,
        values=m.vals.copy(), col_indices=m.cols.copy(),
        out_rows=m.rows.copy(), thread_of_nz=np.zeros(m.nnz, dtype=np.int64),
        n_threads=1, threads_per_block=32,
        reduction_steps=(ReductionStep("global", "GMEM_ATOM_RED"),),
    )
    x = rng.random(n_cols)
    valid = plan.out_rows >= 0
    got = _functional_y(plan, x, valid)
    want = np.zeros(n_rows, dtype=np.float64)
    products = plan.values[valid] * x[plan.col_indices[valid]]
    np.add.at(want, plan.out_rows[valid], products)
    np.testing.assert_array_equal(got, want)  # bit-identical, not allclose


_CHAINS = [
    (("global", "GMEM_ATOM_RED"),),
    (("global", "GMEM_DIRECT_STORE"),),
    (("thread", "THREAD_TOTAL_RED"), ("global", "GMEM_DIRECT_STORE")),
    (("thread", "THREAD_BITMAP_RED"), ("global", "GMEM_ATOM_RED")),
    (("warp", "WARP_SEG_RED"), ("global", "GMEM_ATOM_RED")),
    (("warp", "WARP_TOTAL_RED"), ("global", "GMEM_DIRECT_STORE")),
    (("thread", "THREAD_BITMAP_RED"), ("warp", "WARP_BITMAP_RED"),
     ("block", "SHMEM_OFFSET_RED"), ("global", "GMEM_ATOM_RED")),
    (("block", "SHMEM_TOTAL_RED"), ("global", "GMEM_DIRECT_STORE")),
    (("warp", "WARP_BITMAP_RED"), ("block", "SHMEM_OFFSET_RED"),
     ("global", "GMEM_DIRECT_STORE")),
]


@given(
    n_rows=st.integers(1, 24),
    nnz=st.integers(1, 120),
    n_threads=st.integers(1, 96),
    chain=st.sampled_from(_CHAINS),
    sort_threads=st.booleans(),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=120, deadline=None)
def test_property_reduction_walk_matches_seed_reference(
    n_rows, nnz, n_threads, chain, sort_threads, seed
):
    """Differential test: the boundary-diff walk replays the seed's
    np.unique walk exactly — same counts, same final rows, same errors."""
    rng = np.random.default_rng(seed)
    threads = rng.integers(0, n_threads, nnz).astype(np.int64)
    if sort_threads:
        threads = np.sort(threads)
    rows = rng.integers(0, n_rows, nnz).astype(np.int64)
    pad = rng.random(nnz) < 0.2
    rows_padded = rows.copy()
    rows_padded[pad] = -1
    plan = ExecutionPlan(
        n_rows=n_rows, n_cols=8, useful_nnz=int((~pad).sum()),
        values=rng.random(nnz), col_indices=rng.integers(0, 8, nnz),
        out_rows=rows_padded, thread_of_nz=threads,
        n_threads=n_threads, threads_per_block=32,
        reduction_steps=tuple(ReductionStep(lv, s) for lv, s in chain),
    )
    try:
        want = _flow_partials_reference(plan)
    except PlanValidationError:
        with pytest.raises(PlanValidationError):
            _flow_partials(plan)
        return
    got = _flow_partials(plan)
    assert got.shuffle_ops == want["shuffle_ops"]
    assert got.shmem_ops == want["shmem_ops"]
    assert got.serial_red_ops == want["serial_red_ops"]
    assert got.sync_barriers == want["sync_barriers"]
    assert got.atomic_ops == want["atomic_ops"]
    np.testing.assert_array_equal(
        np.sort(got.final_rows), np.sort(want["final_rows"])
    )


# ---------------------------------------------------------------------------
# Analysis-backed plans == standalone plans
# ---------------------------------------------------------------------------

class TestAnalysisBackedEquivalence:
    GRAPH = ["COMPRESS", ("BMT_ROW_BLOCK", {"rows_per_block": 1}),
             ("SET_RESOURCES", {"threads_per_block": 256}),
             "THREAD_TOTAL_RED", "GMEM_DIRECT_STORE"]

    def test_cost_inputs_and_y_identical(self, small_irregular, x_for):
        graph = OperatorGraph.from_names(self.GRAPH)
        builder = KernelBuilder()
        plain = builder.build(small_irregular, graph)
        analysed = StagedEvaluator(builder).build(small_irregular, graph)
        x = x_for(small_irregular)
        for unit_p, unit_a in zip(plain.kernels, analysed.kernels):
            assert unit_a.plan.analysis is not None
            assert unit_p.plan.analysis is None
            assert plan_cost_inputs(unit_a.plan, A100) == plan_cost_inputs(
                unit_p.plan, A100
            )
            res_p = execute(unit_p.plan, x, A100)
            res_a = execute(unit_a.plan, x, A100)
            np.testing.assert_array_equal(res_p.y, res_a.y)
            assert res_p.cost.total_s == res_a.cost.total_s
        assert plain.source() == analysed.source()

    def test_cached_y_is_shared_and_readonly(self, small_irregular, x_for):
        graph = OperatorGraph.from_names(self.GRAPH)
        program = StagedEvaluator(KernelBuilder()).build(small_irregular, graph)
        x = x_for(small_irregular)
        y1 = execute(program.kernels[0].plan, x, A100).y
        y2 = execute(program.kernels[0].plan, x, A100).y
        assert y1 is y2  # one functional execution per leaf per x
        assert not y1.flags.writeable


# ---------------------------------------------------------------------------
# Search-level identity + verification accounting
# ---------------------------------------------------------------------------

SMALL_BUDGET = SearchBudget(
    max_structures=8, coarse_evals_per_structure=4, max_total_evals=50, ml_top_k=3
)


def _engine():
    return SearchEngine(A100, budget=SMALL_BUDGET, seed=3)


class TestSearchIdentity:
    @pytest.fixture(scope="class")
    def matrix(self):
        return power_law_matrix(512, avg_degree=8, seed=2, name="pa_identity")

    def test_analysis_counters_surfaced(self, matrix):
        result = _engine().search(matrix)
        assert result.analysis_cache_misses > 0
        # The batched path fetches each design's LeafAnalysis once per
        # candidate group — far fewer lookups than evaluations.
        assert (
            result.analysis_cache_hits + result.analysis_cache_misses
            <= result.total_evaluations
        )

    def test_stage_times_recorded(self, matrix):
        result = _engine().search(matrix)
        # Batched evaluation replaces the per-candidate assembly/analysis
        # stages with whole-group batch_assembly/batch_cost passes.
        for stage in ("design", "batch_assembly", "batch_cost", "verify"):
            assert result.stage_times.get(stage, 0.0) > 0.0
        assert set(result.stage_times) <= {
            "design", "batch_assembly", "batch_cost", "verify", "ml"
        }
        assert sum(result.stage_times.values()) <= result.wall_time_s

    def test_verification_runs_once_per_design(self, matrix, monkeypatch):
        # The engine verifies through the workload's allclose, which
        # routes to the shared spmv_allclose gate — count it there.
        import repro.workloads as workloads_mod

        calls = []
        real = workloads_mod.spmv_allclose

        def counting(y, reference):
            calls.append(1)
            return real(y, reference)

        monkeypatch.setattr(workloads_mod, "spmv_allclose", counting)
        result = _engine().search(matrix)
        ran = [r for r in result.history if r.error in ("", "numeric mismatch")]
        # one verification per *design*, not per candidate
        assert 0 < len(calls) <= result.analysis_cache_misses
        assert len(calls) < len(ran)


class TestNoReferenceCycles:
    """Plans hold their leaf analysis weakly, so what a search or a
    one-candidate build allocated is freed by reference counting the
    moment it is dropped, not whenever the cyclic collector next runs."""

    GRAPH = TestAnalysisBackedEquivalence.GRAPH

    @staticmethod
    def _cyclic_garbage():
        """Plans and analyses that only ``gc.collect()`` would free."""
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            found = [
                type(o).__name__
                for o in gc.garbage
                if isinstance(o, (LeafAnalysis, ExecutionPlan))
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        return found

    def test_search_and_build_leave_no_cyclic_garbage(self, small_irregular):
        gc.collect()
        gc.disable()
        try:
            with _engine() as engine:
                result = engine.search(small_irregular)
                graph = result.best_graph
                assert result.best_program.kernels[0].plan.analysis is not None
                del result
            program = StagedEvaluator(KernelBuilder()).build(
                small_irregular, graph
            )
            plan = program.kernels[0].plan
            assert plan.analysis is not None  # the program keeps it alive
            del program
            assert plan.analysis is None  # freed with the program
            del plan
            assert self._cyclic_garbage() == []
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# Satellite: ExecutionPlan thread-id validation
# ---------------------------------------------------------------------------

class TestThreadRangeValidation:
    def _plan(self, threads, n_threads):
        threads = np.asarray(threads, dtype=np.int64)
        n = threads.size
        return ExecutionPlan(
            n_rows=4, n_cols=4, useful_nnz=n,
            values=np.ones(n), col_indices=np.zeros(n, dtype=np.int64),
            out_rows=np.zeros(n, dtype=np.int64), thread_of_nz=threads,
            n_threads=n_threads, threads_per_block=32,
            reduction_steps=(ReductionStep("global", "GMEM_ATOM_RED"),),
        )

    def test_out_of_range_thread_id_rejected(self):
        """Regression: an id >= n_threads used to silently corrupt the
        per-thread bincounts in plan_cost_inputs."""
        with pytest.raises(ValueError, match="thread_of_nz out of range"):
            self._plan([0, 1, 4], n_threads=4)

    def test_negative_thread_id_rejected(self):
        with pytest.raises(ValueError, match="thread_of_nz out of range"):
            self._plan([0, -1, 2], n_threads=4)

    def test_boundary_ids_accepted(self):
        plan = self._plan([0, 3, 3], n_threads=4)
        assert plan.n_threads == 4

    def test_out_of_range_row_rejected(self):
        n = 3
        with pytest.raises(ValueError, match="out_rows"):
            ExecutionPlan(
                n_rows=2, n_cols=4, useful_nnz=n,
                values=np.ones(n), col_indices=np.zeros(n, dtype=np.int64),
                out_rows=np.array([0, 1, 2]), thread_of_nz=np.zeros(n, dtype=np.int64),
                n_threads=1, threads_per_block=32,
                reduction_steps=(ReductionStep("global", "GMEM_ATOM_RED"),),
            )


# ---------------------------------------------------------------------------
# Satellite: invariant-check gating
# ---------------------------------------------------------------------------

class TestInvariantGating:
    def test_on_under_pytest(self):
        assert default_invariant_checks() is True
        assert Designer().check_invariants is True

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "0")
        assert default_invariant_checks() is False
        assert Designer().check_invariants is False
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        assert Designer().check_invariants is True

    def test_off_outside_pytest(self, monkeypatch):
        monkeypatch.delenv("PYTEST_CURRENT_TEST", raising=False)
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        assert default_invariant_checks() is False

    def test_explicit_argument_still_wins(self):
        assert Designer(check_invariants=False).check_invariants is False
        assert Designer(check_invariants=True).check_invariants is True


# ---------------------------------------------------------------------------
# Analysis memo behaviour
# ---------------------------------------------------------------------------

class TestLeafAnalysisCache:
    def test_one_miss_per_design_key(self):
        """The per-search analysis memo: one DesignAnalysis per design
        signature, later lookups hit."""
        state = _SearchState(
            start=0.0, budget=SMALL_BUDGET,
            x=np.zeros(1), reference=np.zeros(1),
        )
        a = state.design_analysis(("k1",))
        assert state.design_analysis(("k1",)) is a
        b = state.design_analysis(("k2",))
        assert b is not a
        assert (state.analysis_hits, len(state.analyses)) == (1, 2)

    def test_leaf_analysis_computes_once(self):
        analysis = LeafAnalysis()
        calls = []

        def compute():
            calls.append(1)
            return np.arange(4)

        first = analysis.cached_array("k", compute)
        second = analysis.cached_array("k", compute)
        assert first is second
        assert len(calls) == 1
        assert not first.flags.writeable

    def test_assembly_errors_replayed_identically(self, small_regular):
        """A runtime-parameter failure of the staged build raises the same
        error type and message the plain build produces, every time."""
        from repro.core.designer import DesignError

        graph = OperatorGraph.from_names([
            "COMPRESS",
            ("SET_RESOURCES", {"threads_per_block": 100}),  # not warp multiple
            "GMEM_ATOM_RED",
        ])
        builder = KernelBuilder()
        with pytest.raises(DesignError) as plain:
            builder.build(small_regular, graph)
        evaluator = StagedEvaluator(builder)
        for _ in range(2):
            with pytest.raises(DesignError) as staged:
                evaluator.build(small_regular, graph)
            assert str(staged.value) == str(plain.value)


# ---------------------------------------------------------------------------
# Memo keys: one computation per thread assignment, one unit per value read
# ---------------------------------------------------------------------------

#: per mapping path: (distinct thread assignments, distinct units) over the
#: SET_RESOURCES fine grid, as counts of distinct block sizes ("tpb") and
#: distinct ``grid_threads`` ("grid")
_GRID_COUNTS = {
    "bmt": ("1", "tpb"),
    "bmt+bmw": ("1", "tpb"),
    "bmw": ("1", "tpb"),
    "bmw+bmtb": ("1", "1"),
    "bmt+bmtb": ("1", "1"),
    "bmt+bmw+bmtb": ("1", "1"),
    "bmtb": ("tpb", "tpb"),
    "none": ("grid", "tpb*grid"),
}


def _spy_calls(monkeypatch, counts):
    """Count the distribution, unit, start-pair and thread-stats
    computations (cache misses, not lookups)."""

    def counting(tag, real):
        def spy(*args, **kwargs):
            counts[tag] += 1
            return real(*args, **kwargs)
        return spy

    monkeypatch.setattr(
        KernelBuilder, "_distribute",
        counting("distribute", KernelBuilder._distribute),
    )
    monkeypatch.setattr(
        KernelBuilder, "compute_unit_entry",
        counting("unit", KernelBuilder.compute_unit_entry),
    )
    monkeypatch.setattr(
        executor_mod, "_thread_stats",
        counting("thread_stats", executor_mod._thread_stats),
    )
    real_pairs = LeafAnalysis.start_pairs

    def start_pairs(self, key, compute):
        return real_pairs(self, key, counting("start_pairs", compute))

    monkeypatch.setattr(LeafAnalysis, "start_pairs", start_pairs)


class TestRuntimeGridMemoKeys:
    """Over the full SET_RESOURCES fine grid, a leaf builds each thread
    assignment once and each kernel unit once per runtime value it reads:
    BMT / BMW assignments never read ``threads_per_block``, a BMTB level
    over a finer level fixes the launch itself, and only an unmapped leaf
    reads ``work_per_thread`` (through ``grid_threads``)."""

    @pytest.mark.parametrize("path", list(MAPPING_PATHS))
    def test_one_computation_per_thread_assignment(
        self, path, small_irregular, monkeypatch
    ):
        graph = OperatorGraph.from_names(MAPPING_PATHS[path])
        builder = KernelBuilder()
        (leaf,) = builder.design_phase(small_irregular, graph)
        counts = collections.Counter()
        _spy_calls(monkeypatch, counts)

        design = DesignAnalysis()
        launches = set()
        for assignment in fine_grid(graph):
            program = builder.assembly_phase(
                small_irregular,
                graph_with_params(graph, assignment, {}),
                [leaf],
                analysis=design,
            )
            (unit,) = program.kernels
            plan_cost_inputs(unit.plan, A100)
            launches.add(unit.plan.threads_per_block)

        set_resources = get_operator("SET_RESOURCES")

        def grid_threads(wpt):
            meta = leaf.meta.runtime_copy()
            set_resources.apply(
                meta, {"threads_per_block": 128, "work_per_thread": wpt}
            )
            return meta.grid_threads

        n_tpb = len(FINE_TPB)
        n_grid = len({grid_threads(wpt) for wpt in FINE_WPT})
        n = {"1": 1, "tpb": n_tpb, "grid": n_grid, "tpb*grid": n_tpb * n_grid}
        assignments, units = _GRID_COUNTS[path]
        for tag in ("distribute", "start_pairs", "thread_stats"):
            assert counts[tag] == n[assignments], (tag, dict(counts))
        assert counts["unit"] == n[units], dict(counts)
        # A fixed launch ignores the configured block size; every other
        # plan launches with it.
        assert len(launches) == (1 if units == "1" else n_tpb)
