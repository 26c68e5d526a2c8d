"""Workload-layer tests.

Four acceptance bars:

* every workload's reference computation must match a naive dense-matmul
  oracle (hypothesis property tests over random matrices, including empty
  rows and 1xn / nx1 edges);
* the default SpMV workload must be a *pure generalisation*: search
  histories are byte-identical to the pre-workload-layer code (golden
  digests captured from the seed revision before the refactor), store on
  and off;
* SpMM / transpose-SpMV searches must complete with verified-correct
  results, filed under per-workload store keys that never collide with
  SpMV's;
* the CLI hardening satellite: an unknown ``--workload`` lists the
  registered workloads.
"""

import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import SearchEngine, get_workload, named_matrix
from repro.baselines import get_baseline
from repro.baselines.base import measure_baselines
from repro.bench import CorpusRunner
from repro.cli import main
from repro.gpu import A100
from repro.search import SearchBudget
from repro.search.evaluation import matrix_token
from repro.serve import Frontend
from repro.sparse import SparseMatrix, corpus
from repro.store import DesignStore, StoreStats, search_result_record
from repro.workloads import (
    DEFAULT_WORKLOAD,
    WORKLOADS,
    SpMM,
    SpMV,
    SpMVT,
    register_workload,
)

# ---------------------------------------------------------------------------
# Golden digests of the default workload: a 96-eval seed-0 store-backed
# search of @2D_27628_bjtcai (captured at the pre-refactor revision,
# commit c4f5bd4) and a 48-eval seed-0 corpus(2) bench run.
# ---------------------------------------------------------------------------
GOLDEN_HISTORY_DIGEST = "698d9cef81eb821dce2abedb5b13ef4e"
# The default CorpusRunner's records (static pruning on, so each record
# carries ``search.static_pruned``), recorded at commit 9044b62.  Bench
# records embed design-cache counters, which count one lookup per
# candidate *group*.
GOLDEN_BENCH_DIGEST = "1cff54099ca9aea7916655e9d6ac3382"

GOLDEN_MATRIX = "2D_27628_bjtcai"
GOLDEN_BUDGET = dict(max_total_evals=96)


def _history_digest(result) -> str:
    blob = repr([r.identity() for r in result.history]).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def _tree_digest(root: str) -> str:
    h = hashlib.blake2b(digest_size=16)
    for dirpath, _dirs, files in sorted(os.walk(root)):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# References vs a dense oracle (hypothesis differential tests)
# ---------------------------------------------------------------------------

@st.composite
def sparse_matrices(draw, max_dim=24, max_nnz=64):
    """Random COO matrices incl. empty rows and 1xn / nx1 edge shapes."""
    shape_kind = draw(st.sampled_from(["general", "row", "col"]))
    if shape_kind == "row":
        n_rows, n_cols = 1, draw(st.integers(1, max_dim))
    elif shape_kind == "col":
        n_rows, n_cols = draw(st.integers(1, max_dim)), 1
    else:
        n_rows = draw(st.integers(1, max_dim))
        n_cols = draw(st.integers(1, max_dim))
    nnz = draw(st.integers(0, min(max_nnz, n_rows * n_cols)))
    rows = draw(st.lists(st.integers(0, n_rows - 1), min_size=nnz, max_size=nnz))
    cols = draw(st.lists(st.integers(0, n_cols - 1), min_size=nnz, max_size=nnz))
    vals = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            min_size=nnz,
            max_size=nnz,
        )
    )
    return SparseMatrix(n_rows, n_cols, rows, cols, vals)


@given(sparse_matrices(), st.integers(2, 6))
@settings(max_examples=60, deadline=None)
def test_property_spmm_matches_dense(m, k):
    x = np.linspace(-1.0, 1.0, m.n_cols * k).reshape(m.n_cols, k)
    np.testing.assert_allclose(
        m.spmm_reference(x), m.to_dense() @ x, rtol=1e-10, atol=1e-10
    )


@given(sparse_matrices())
@settings(max_examples=60, deadline=None)
def test_property_spmv_t_matches_dense(m):
    x = np.linspace(-1.0, 1.0, m.n_rows)
    np.testing.assert_allclose(
        m.spmv_t_reference(x), m.to_dense().T @ x, rtol=1e-10, atol=1e-10
    )


@given(sparse_matrices(), st.sampled_from(sorted(WORKLOADS)))
@settings(max_examples=60, deadline=None)
def test_property_workload_reference_matches_dense_oracle(m, name):
    """Every registered workload agrees with the dense oracle on the
    operand it generates itself."""
    wl = get_workload(name)
    x = wl.make_operand(m)
    assert x.shape == wl.operand_shape(m.n_rows, m.n_cols)
    reference = wl.reference(m, x)
    assert reference.shape == wl.result_shape(m.n_rows, m.n_cols)
    dense = m.to_dense()
    oracle = dense.T @ x if wl.transpose else dense @ x
    np.testing.assert_allclose(reference, oracle, rtol=1e-10, atol=1e-10)
    assert wl.allclose(oracle, reference)


# ---------------------------------------------------------------------------
# Registry, flops and key scoping
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_registered_set(self):
        assert {"spmv", "spmm4", "spmm16", "spmvt"} <= set(WORKLOADS)
        assert get_workload("spmv") is DEFAULT_WORKLOAD
        assert get_workload(None) is DEFAULT_WORKLOAD
        wl = get_workload("spmm16")
        assert get_workload(wl) is wl  # idempotent on instances

    def test_unknown_name_lists_workloads(self):
        with pytest.raises(ValueError, match="registered workloads"):
            get_workload("nope")
        with pytest.raises(ValueError, match="spmm16"):
            get_workload("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            register_workload(SpMV())

    def test_spmm_requires_multiple_columns(self):
        with pytest.raises(ValueError, match="k >= 2"):
            SpMM(1)

    def test_flops_single_source_of_truth(self):
        nnz = 12345
        assert SpMV().flops(nnz) == 2.0 * nnz
        assert get_workload("spmm4").flops(nnz) == 2.0 * nnz * 4
        assert get_workload("spmm16").flops(nnz) == 2.0 * nnz * 16
        assert SpMVT().flops(nnz) == 2.0 * nnz

    def test_shapes(self):
        assert SpMV().operand_shape(3, 5) == (5,)
        assert SpMV().result_shape(3, 5) == (3,)
        assert get_workload("spmm4").operand_shape(3, 5) == (5, 4)
        assert get_workload("spmm4").result_shape(3, 5) == (3, 4)
        assert SpMVT().operand_shape(3, 5) == (3,)
        assert SpMVT().result_shape(3, 5) == (5,)

    def test_scope_token(self):
        token = ("m", 4, 5, 6, "deadbeef")
        assert DEFAULT_WORKLOAD.scope_token(token) == token  # identity
        scoped = {
            name: get_workload(name).scope_token(token)
            for name in ("spmm4", "spmm16", "spmvt")
        }
        digests = {token[-1]} | {t[-1] for t in scoped.values()}
        assert len(digests) == 4  # all distinct
        for t in scoped.values():
            assert len(t) == 5 and t[:4] == token[:4]  # shape preserved
        # deterministic
        assert scoped["spmvt"] == get_workload("spmvt").scope_token(token)

    def test_scope_key(self):
        assert DEFAULT_WORKLOAD.scope_key(("a", 1)) == ("a", 1)
        assert get_workload("spmvt").scope_key(("a", 1)) == ("a", 1, "spmvt")


# ---------------------------------------------------------------------------
# Byte-identity of the default workload vs the pre-refactor seed
# ---------------------------------------------------------------------------

class TestSpmvByteIdentity:
    @pytest.fixture(scope="class")
    def matrix(self):
        return named_matrix(GOLDEN_MATRIX)

    def _search(self, matrix, store=None, workload=None):
        # The default configuration, static pruning included: the verifier
        # refutes no spmv candidate on this matrix, so the pre-verifier
        # golden below is also the default engine's digest.
        engine = SearchEngine(
            A100,
            budget=SearchBudget(**GOLDEN_BUDGET),
            seed=0,
            store=store,
            workload=workload,
        )
        try:
            return engine.search(matrix)
        finally:
            engine.close()

    def test_golden_history_and_store(self, matrix, tmp_path):
        """The acceptance assertion: ``--workload spmv`` reproduces the
        pre-refactor search history byte for byte (digest captured at
        commit c4f5bd4), and a store-backed search leaves its store
        exactly as created — searches design in memory only."""
        fresh, used = tmp_path / "fresh", tmp_path / "store"
        DesignStore(fresh)
        store = DesignStore(used)
        result = self._search(matrix, store=store, workload=get_workload("spmv"))
        assert _history_digest(result) == GOLDEN_HISTORY_DIGEST
        assert sorted(os.listdir(used)) == sorted(os.listdir(fresh))
        assert _tree_digest(os.fspath(used)) == _tree_digest(os.fspath(fresh))
        assert result.workload == "spmv"

    def test_identity_across_store(self, matrix, tmp_path):
        baseline = self._search(matrix)
        result = self._search(matrix, store=DesignStore(tmp_path / "store"))
        assert [r.identity() for r in result.history] == [
            r.identity() for r in baseline.history
        ]

    def test_default_engine_equals_explicit_spmv(self, matrix):
        implicit = self._search(matrix)
        explicit = self._search(matrix, workload=get_workload("spmv"))
        assert [r.identity() for r in implicit.history] == [
            r.identity() for r in explicit.history
        ]


class TestBenchByteIdentity:
    def test_golden_bench_records(self):
        """Default bench records reproduce the recorded bytes for the
        default workload (wall-clock fields stripped)."""
        runner = CorpusRunner(
            A100, budget=SearchBudget(max_total_evals=48), seed=0
        )
        with runner:
            result = runner.run(corpus(2))

        def strip(rec):
            rec = json.loads(json.dumps(rec))
            rec["search"].pop("wall_time_s", None)
            return rec

        blob = json.dumps([strip(r) for r in result.records], sort_keys=True)
        digest = hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()
        assert digest == GOLDEN_BENCH_DIGEST
        # spmv records carry no workload key (historical bytes) and no
        # workload config pin (old result stores stay resumable).
        assert all("workload" not in r for r in result.records)
        assert "workload" not in runner.config()
        # static pruning always runs: the config pins it and every record
        # carries its counter.
        assert runner.config()["engine"]["static_pruning"] is True
        assert all("static_pruned" in r["search"] for r in result.records)


# ---------------------------------------------------------------------------
# New workloads end to end
# ---------------------------------------------------------------------------

class TestNewWorkloadSearches:
    @pytest.fixture(scope="class")
    def matrix(self):
        return named_matrix(GOLDEN_MATRIX)

    @pytest.mark.parametrize("name", ["spmm16", "spmvt"])
    def test_search_completes_verified(self, matrix, name, tmp_path):
        wl = get_workload(name)
        store = DesignStore(tmp_path / "store")
        engine = SearchEngine(
            A100,
            budget=SearchBudget(**GOLDEN_BUDGET),
            seed=0,
            store=store,
            workload=wl,
        )
        try:
            result = engine.search(matrix)
        finally:
            engine.close()
        assert result.workload == name
        assert result.best_gflops > 0
        # independent re-verification of the winner
        x = wl.make_operand(matrix)
        out = result.best_program.run(x, A100, workload=wl)
        assert wl.allclose(out.y, wl.reference(matrix, x))
        # GFLOPS numerator comes from Workload.flops
        assert out.gflops == pytest.approx(
            wl.flops(matrix.nnz) / out.total_time_s / 1e9
        )
        # per-workload store keys: scoped digest differs from the raw one
        token = matrix_token(matrix)
        scoped = wl.scope_token(token)
        assert scoped[-1] != token[-1]
        assert store.stats() == StoreStats()  # searches never touch it

    def test_store_keys_never_collide_across_workloads(self, matrix, tmp_path):
        """One store directory, three workloads: each search's result is
        filed under its own workload-scoped key and reads back as that
        workload's."""
        store = DesignStore(tmp_path / "shared")
        digests = {}
        for name in ("spmv", "spmm16", "spmvt"):
            engine = SearchEngine(
                A100,
                budget=SearchBudget(max_total_evals=32),
                seed=0,
                store=store,
                workload=get_workload(name),
            )
            try:
                result = engine.search(matrix)
            finally:
                engine.close()
            digests[name] = _history_digest(result)
            store.put_result(
                engine.workload.scope_token(matrix_token(matrix)),
                A100.name,
                search_result_record(matrix, A100.name, result, seed=0),
            )
        assert len(set(digests.values())) == 3  # distinct trajectories
        assert len(DesignStore(tmp_path / "shared")) == 3
        for name in digests:
            key = get_workload(name).scope_token(matrix_token(matrix))
            record = store.get_result(key, A100.name)
            assert record.get("workload", "spmv") == name

    def test_unregistered_custom_workload_searches_and_prices(self):
        """A custom Workload instance works without registration — the
        result prices itself from the recorded column count."""

        class CustomSpMM(SpMM):
            def __init__(self):
                super().__init__(3)
                self.name = "custom-spmm3"
                self.display = "custom SpMM (k=3)"

        wl = CustomSpMM()
        matrix = named_matrix("scfxm1-2r")
        engine = SearchEngine(
            A100, budget=SearchBudget(max_total_evals=24), seed=0, workload=wl
        )
        try:
            result = engine.search(matrix)
        finally:
            engine.close()
        assert result.best_gflops > 0
        assert result.workload == "custom-spmm3"
        assert result.workload_k == 3
        assert np.isfinite(result.best_time_s)
        assert result.best_time_s == pytest.approx(
            wl.flops(result.best_program.useful_nnz)
            / (result.best_gflops * 1e9)
        )

    def test_spmvt_rejects_direct_store_kernels(self, matrix):
        """A direct-store row kernel cannot scatter into columns: CSR's
        one-thread-per-row program must be invalid under transpose SpMV
        while the atomic COO program stays correct."""
        wl = get_workload("spmvt")
        x = wl.make_operand(matrix)
        reference = wl.reference(matrix, x)
        coo = get_baseline("COO").measure(matrix, A100, x, reference, workload=wl)
        assert coo.ok
        csr = get_baseline("CSR").measure(matrix, A100, x, reference, workload=wl)
        assert not csr.applicable
        assert "invalid for workload spmvt" in csr.note


class TestTransposeScatterValidation:
    def test_out_of_range_column_is_invalid_plan_not_crash(self):
        """Regression: under the transpose workload the scatter side is
        ``col_indices``, which the plan invariant does not range-check —
        a malformed plan must raise PlanValidationError (recorded as an
        invalid candidate), never a bincount ValueError."""
        from repro.gpu.executor import (
            ExecutionPlan,
            PlanValidationError,
            ReductionStep,
            execute,
            validate_plan,
        )

        wl = get_workload("spmvt")
        plan = ExecutionPlan(
            n_rows=4,
            n_cols=4,
            useful_nnz=3,
            values=np.ones(3),
            col_indices=np.array([0, -1, 2], dtype=np.int64),  # valid elem, bad col
            out_rows=np.array([0, 1, 2], dtype=np.int64),
            thread_of_nz=np.array([0, 1, 2], dtype=np.int64),
            n_threads=4,
            threads_per_block=32,
            reduction_steps=(ReductionStep("global", "GMEM_ATOM_RED"),),
        )
        with pytest.raises(PlanValidationError):
            validate_plan(plan, workload=wl)
        with pytest.raises(PlanValidationError):
            execute(plan, np.ones(4), A100, workload=wl)


class TestBaselineWorkloads:
    @pytest.fixture(scope="class")
    def matrix(self):
        return named_matrix("scfxm1-2r")

    @pytest.mark.parametrize("name", ["spmm4", "spmvt"])
    def test_measure_baselines_batched(self, matrix, name):
        wl = get_workload(name)
        measurements = measure_baselines(
            matrix, A100, ["COO", "CSR", "ELL"], workload=wl
        )
        assert list(measurements) == ["COO", "CSR", "ELL"]
        assert measurements["COO"].ok  # atomics are valid for every workload
        reference = wl.reference(matrix, wl.make_operand(matrix))
        assert reference.shape == wl.result_shape(matrix.n_rows, matrix.n_cols)
        for meas in measurements.values():
            if meas.ok:
                assert meas.gflops > 0 and np.isfinite(meas.time_s)

    def test_spmm_amortises_gather(self, matrix):
        """SpMM reuses each gathered matrix element across k columns, so
        measured GFLOPS must exceed SpMV's on the same kernel."""
        spmv = get_baseline("COO").measure(matrix, A100)
        spmm = get_baseline("COO").measure(
            matrix, A100, workload=get_workload("spmm16")
        )
        assert spmm.ok and spmv.ok
        assert spmm.gflops > spmv.gflops


# ---------------------------------------------------------------------------
# Serving: per-workload result keys and neighbour tiers
# ---------------------------------------------------------------------------

class TestServeIsolation:
    def test_workloads_never_cross_serve(self, tmp_path):
        matrix = named_matrix("scfxm1-2r")
        store_path = tmp_path / "store"
        budget = SearchBudget(
            max_structures=8, coarse_evals_per_structure=6, max_total_evals=48
        )
        with Frontend(A100, DesignStore(store_path), budget=budget) as f:
            first = f.resolve(matrix)
        assert first.source == "search"
        # Same matrix, SpMM workload: the stored SpMV result must be
        # invisible (no exact hit, no neighbour transfer of it).
        wl = get_workload("spmm16")
        with Frontend(
            A100, DesignStore(store_path), budget=budget, workload=wl
        ) as f:
            second = f.resolve(matrix)
            assert second.source == "search"
            third = f.resolve(matrix)
            assert third.source == "store"
            assert third.gflops == second.gflops
        # The SpMV tier still answers its own record exactly.
        with Frontend(A100, DesignStore(store_path), budget=budget) as f:
            again = f.resolve(matrix)
        assert again.source == "store"
        assert again.gflops == first.gflops


# ---------------------------------------------------------------------------
# Bench: per-workload rows
# ---------------------------------------------------------------------------

class TestBenchWorkloads:
    def test_records_carry_workload(self):
        runner = CorpusRunner(
            A100,
            budget=SearchBudget(max_total_evals=24),
            seed=0,
            baselines=["COO", "CSR"],
            workload=get_workload("spmm4"),
        )
        with runner:
            result = runner.run(corpus(1))
        (record,) = result.records
        assert record["workload"] == "spmm4"
        assert runner.config()["workload"] == "spmm4"

    def test_injected_engine_workload_conflict_rejected(self):
        engine = SearchEngine(A100, workload=get_workload("spmvt"))
        try:
            with pytest.raises(ValueError, match="conflicts"):
                CorpusRunner(A100, engine=engine, workload=get_workload("spmm4"))
            runner = CorpusRunner(A100, engine=engine)
            assert runner.workload.name == "spmvt"
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# CLI hardening satellites
# ---------------------------------------------------------------------------

class TestCliHardening:
    def test_unknown_workload_lists_registered(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "@scfxm1-2r", "--workload", "sddmm"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown workload 'sddmm'" in err
        for name in sorted(WORKLOADS):
            assert name in err

    def test_search_workload_flag(self, capsys):
        assert main([
            "search", "@scfxm1-2r", "--workload", "spmm16", "--evals", "24",
        ]) == 0
        out = capsys.readouterr().out
        assert "best machine-designed SpMM (k=16)" in out

    def test_serve_workload_flag(self, tmp_path, capsys):
        store = os.fspath(tmp_path / "store")
        assert main([
            "serve", "@scfxm1-2r", "--store", store, "--workload", "spmvt",
            "--evals", "32",
        ]) == 0
        out = capsys.readouterr().out
        assert "search" in out
