"""Static design verifier tests.

Four acceptance bars:

* **soundness** — the reduction-chain analysis never contradicts the
  dynamic validator: a hypothesis differential suite over random matrices
  and all four workloads checks INVALID ⇒ the build/validation refuses
  the design and VALID ⇒ validation passes (build failures confirm
  INVALID and vacuously discharge VALID);
* **byte-compatibility** — with static pruning disabled the engine
  reproduces the pre-verifier transpose-SpMV search history byte for
  byte (golden digest below), and pruning-off bench configs/records pin
  no new keys;
* **effectiveness** — with pruning on, the transpose-SpMV search's
  valid-evaluation fraction rises from 0.25 to >= 0.85 without losing
  the winning design (best GFLOPS >= 17.3);
* **lint + audit** — generated kernels of valid designs lint clean,
  seeded defects are flagged with the right codes, and the store audit
  catches corrupt entries, unknown workloads and unregistered operators.
"""

import hashlib
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import SearchEngine, get_workload, named_matrix
from repro.cli import main
from repro.core.kernel.builder import KernelBuilder
from repro.core.optimizer import ModelDrivenCompressor
from repro.errors import (
    KERNEL_ACCUM_DTYPE,
    KERNEL_DEAD_FRAGMENT,
    KERNEL_OOB_INDEX,
    KERNEL_SCATTER_NEEDS_ATOMIC,
    KERNEL_UNDECLARED_IDENT,
    REDUCE_CHAIN_DIRECT_STORE,
    STORE_BAD_WORKLOAD,
    STORE_CORRUPT_ENTRY,
    STORE_UNKNOWN_OPERATOR,
)
from repro.gpu import A100
from repro.gpu.executor import PlanValidationError, validate_plan
from repro.search import SearchBudget
from repro.search.evaluation import matrix_token
from repro.search.space import (
    StructureSampler,
    enumerate_param_grid,
    graph_with_params,
    seed_structures,
)
from repro.sparse import SparseMatrix
from repro.staticcheck import (
    ChainReport,
    Diagnostic,
    Severity,
    Verdict,
    analyze_design,
    audit_store,
    lint_kernel,
    matrix_facts,
)
from repro.store import DesignStore, search_result_record
from repro.workloads import WORKLOADS

# 96-eval seed-0 transpose-SpMV search of @2D_27628_bjtcai, captured at
# the pre-verifier revision: the pruning-off engine must keep producing
# exactly these bytes.
GOLDEN_SPMVT_DIGEST = "13979115ac26a0e0dd164212b4dafce5"
GOLDEN_MATRIX = "2D_27628_bjtcai"


def _history_digest(result) -> str:
    blob = repr([r.identity() for r in result.history]).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# Differential soundness: static verdicts vs the dynamic validator
# ---------------------------------------------------------------------------

@st.composite
def sparse_matrices(draw, max_dim=12, max_nnz=36):
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


@given(sparse_matrices(), st.sampled_from(sorted(WORKLOADS)), st.integers(0, 3))
@settings(max_examples=16, deadline=None)
def test_differential_soundness(m, name, sampler_seed):
    """The soundness contract, checked against ground truth: on every
    sampled candidate the chain analysis must agree with
    :func:`~repro.gpu.executor.validate_plan`."""
    wl = get_workload(name)
    builder = KernelBuilder(compressor=ModelDrivenCompressor(), workload=wl)
    sampler = StructureSampler(seed=sampler_seed, workload=wl)
    proposals = seed_structures() + [sampler.sample() for _ in range(2)]
    facts = matrix_facts(m)
    for proposal in proposals:
        grid = enumerate_param_grid(
            proposal.graph, proposal.locks, level="coarse", cap=2,
            rng=np.random.default_rng(0),
        )
        for assignment in grid:
            graph = graph_with_params(proposal.graph, assignment,
                                      proposal.locks)
            report = analyze_design(graph, wl, facts)
            assert report.sound
            if report.verdict is Verdict.INVALID:
                # refutations must come with error diagnostics
                assert report.errors, graph.operator_names()
            try:
                leaves = builder.design_phase(m, graph)
                program = builder.assembly_phase(m, graph, leaves)
            except Exception:
                # Build failure: INVALID is confirmed, VALID is vacuous
                # (nothing ran that could contradict it).
                continue
            try:
                for unit in program.kernels:
                    validate_plan(unit.plan, wl)
                dyn_ok = True
            except PlanValidationError:
                dyn_ok = False
            ops = "/".join(graph.operator_names())
            if report.verdict is Verdict.INVALID:
                assert not dyn_ok, (
                    f"{name} {ops}: static INVALID but dynamically valid"
                )
            elif report.verdict is Verdict.VALID:
                assert dyn_ok, (
                    f"{name} {ops}: static VALID but validator refused"
                )
            # dynamically valid designs generate lint-error-free kernels
            if dyn_ok:
                for unit in program.kernels:
                    errors = [
                        d for d in lint_kernel(
                            unit.source, unit.plan.value_bytes, report=report
                        )
                        if d.severity is Severity.ERROR
                    ]
                    assert not errors, (name, ops, errors)


def test_transpose_direct_store_refuted_statically():
    """The motivating case: row-oriented direct-store chains scatter by
    column under transpose SpMV — the analysis must refute some seeded
    structures for spmvt while leaving them valid for spmv."""
    m = named_matrix("scfxm1-2r")
    facts = matrix_facts(m)
    spmvt = get_workload("spmvt")
    spmv = get_workload("spmv")
    refuted = 0
    for proposal in seed_structures():
        for assignment in enumerate_param_grid(
            proposal.graph, proposal.locks, level="coarse", cap=2,
            rng=np.random.default_rng(0),
        ):
            graph = graph_with_params(proposal.graph, assignment,
                                      proposal.locks)
            report = analyze_design(graph, spmvt, facts)
            if report.verdict is Verdict.INVALID:
                refuted += 1
                assert any(
                    d.code.startswith("REDUCE-CHAIN") for d in report.errors
                )
                # the same design must not be refuted for plain SpMV
                assert (
                    analyze_design(graph, spmv, facts).verdict
                    is not Verdict.INVALID
                )
    assert refuted > 0


# ---------------------------------------------------------------------------
# Pre-eval pruning: byte-compatibility off, effectiveness on
# ---------------------------------------------------------------------------

class TestStaticPruning:
    @pytest.fixture(scope="class")
    def matrix(self):
        return named_matrix(GOLDEN_MATRIX)

    def _search(self, matrix, pruning):
        engine = SearchEngine(
            A100,
            budget=SearchBudget(max_total_evals=96),
            seed=0,
            workload=get_workload("spmvt"),
            enable_static_pruning=pruning,
        )
        try:
            return engine.search(matrix)
        finally:
            engine.close()

    def test_pruning_off_reproduces_pre_verifier_bytes(self, matrix):
        result = self._search(matrix, pruning=False)
        assert _history_digest(result) == GOLDEN_SPMVT_DIGEST
        assert result.static_pruned == 0

    def test_pruning_lifts_valid_fraction(self, matrix):
        """The acceptance bar: pruning turns a search that burned 75% of
        its budget on provably-invalid candidates into one whose history
        is >= 85% valid, at no cost to the winning design."""
        result = self._search(matrix, pruning=True)
        assert result.static_pruned > 0
        valid = sum(r.valid for r in result.history)
        assert valid / len(result.history) >= 0.85
        assert result.best_gflops >= 17.3
        # pruned candidates consume no evaluation slot
        assert result.total_evaluations <= 96
        assert result.best_program is not None

    def test_pruning_never_raises_on_spmv(self, matrix):
        """Default engines prune; a plain SpMV search must still complete
        and report its (possibly zero) pruning counter."""
        engine = SearchEngine(
            A100, budget=SearchBudget(max_total_evals=24), seed=0
        )
        try:
            result = engine.search(named_matrix("scfxm1-2r"))
        finally:
            engine.close()
        assert result.best_gflops > 0
        assert result.static_pruned >= 0


class TestBenchPruningKeys:
    def test_record_and_config_carry_counter_only_when_on(self):
        from repro.bench import CorpusRunner
        from repro.sparse import corpus

        runner = CorpusRunner(
            A100,
            budget=SearchBudget(max_total_evals=12),
            seed=0,
            baselines=["COO"],
        )
        with runner:
            result = runner.run(corpus(1))
        (record,) = result.records
        assert runner.config()["engine"]["static_pruning"] is True
        assert record["search"]["static_pruned"] >= 0


# ---------------------------------------------------------------------------
# Kernel lint: seeded defects get the right codes
# ---------------------------------------------------------------------------

_CLEAN_KERNEL = """\
__global__ void spmv_k(const float* __restrict__ values,
                       const int* __restrict__ col_indices,
                       const float* __restrict__ x, float* y) {
    int bmt_id = global_thread();
    float thread_result = 0.0f;
    for (int nz = 0; nz < n_stored; ++nz)
        thread_result += values[nz] * x[col_indices[nz]];
    y[bmt_id] = thread_result;
}
"""


class TestKernelLint:
    def test_clean_kernel_has_no_diagnostics(self):
        assert lint_kernel(_CLEAN_KERNEL) == []

    def test_undeclared_identifier_is_error(self):
        source = _CLEAN_KERNEL.replace("thread_result +=", "warp_total +=")
        codes = [d.code for d in lint_kernel(source)]
        assert KERNEL_UNDECLARED_IDENT in codes
        (diag,) = [d for d in lint_kernel(source)
                   if d.code == KERNEL_UNDECLARED_IDENT]
        assert diag.severity is Severity.ERROR
        assert "warp_total" in diag.message

    def test_dead_declaration_is_warning(self):
        source = _CLEAN_KERNEL.replace(
            "float thread_result = 0.0f;",
            "float thread_result = 0.0f;\n    int leftover = 3;",
        )
        diags = lint_kernel(source)
        assert [d.code for d in diags] == [KERNEL_DEAD_FRAGMENT]
        assert diags[0].severity is Severity.WARNING

    def test_meta_load_convention_not_dead(self):
        source = _CLEAN_KERNEL.replace(
            "float thread_result = 0.0f;",
            "float thread_result = 0.0f;\n    int bmt_meta_v = col_indices[0];",
        )
        assert lint_kernel(source) == []

    def test_plus_one_index_warns_unless_offsets(self):
        bad = _CLEAN_KERNEL.replace("x[col_indices[nz]]", "x[nz + 1]")
        assert KERNEL_OOB_INDEX in [d.code for d in lint_kernel(bad)]
        ok = _CLEAN_KERNEL.replace(
            "values[nz]", "values[bmt_row_offsets[nz + 1]]"
        ).replace(
            "int bmt_id = global_thread();",
            "int bmt_id = global_thread();\n"
            "    const int* bmt_row_offsets = col_indices;",
        )
        assert KERNEL_OOB_INDEX not in [d.code for d in lint_kernel(ok)]

    def test_direct_store_escalates_on_refuted_chain(self):
        report = ChainReport(
            verdict=Verdict.INVALID,
            diagnostics=(
                Diagnostic(
                    REDUCE_CHAIN_DIRECT_STORE, Severity.ERROR,
                    "direct store conflicts",
                ),
            ),
        )
        codes = [d.code for d in lint_kernel(_CLEAN_KERNEL, report=report)]
        assert KERNEL_SCATTER_NEEDS_ATOMIC in codes
        # the atomic form of the same store is acceptable
        atomic = _CLEAN_KERNEL.replace(
            "y[bmt_id] = thread_result;",
            "atomicAdd(&y[bmt_id], thread_result);",
        )
        assert KERNEL_SCATTER_NEEDS_ATOMIC not in [
            d.code for d in lint_kernel(atomic, report=report)
        ]

    def test_float_in_double_plan_warns(self):
        diags = lint_kernel(_CLEAN_KERNEL, value_bytes=8)
        assert KERNEL_ACCUM_DTYPE in [d.code for d in diags]
        double = (
            _CLEAN_KERNEL.replace("float", "double").replace("0.0f", "0.0")
        )
        assert lint_kernel(double, value_bytes=8) == []


# ---------------------------------------------------------------------------
# Store audit
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def populated_store(tmp_path_factory):
    """A store holding one finished result record."""
    path = tmp_path_factory.mktemp("audit") / "store"
    matrix = named_matrix("scfxm1-2r")
    store = DesignStore(path)
    engine = SearchEngine(
        A100, budget=SearchBudget(max_total_evals=16), seed=0, store=store
    )
    try:
        result = engine.search(matrix)
    finally:
        engine.close()
    store.put_result(
        matrix_token(matrix),
        A100.name,
        search_result_record(matrix, A100.name, result, seed=0),
    )
    return path


class TestStoreAudit:
    def test_clean_store_audits_clean(self, populated_store):
        assert audit_store(DesignStore(populated_store)) == []

    def _copy(self, src, dst):
        shutil.copytree(src, dst)
        return dst

    def test_corrupt_entry_is_error(self, populated_store, tmp_path):
        path = self._copy(populated_store, tmp_path / "corrupt")
        victim = next((path / "results").glob("*.json"))
        victim.write_text(victim.read_text()[:20])
        diags = audit_store(DesignStore(path))
        assert any(
            d.code == STORE_CORRUPT_ENTRY and d.severity is Severity.ERROR
            for d in diags
        )

    def test_unknown_workload_is_error(self, populated_store, tmp_path):
        path = self._copy(populated_store, tmp_path / "badwl")
        store = DesignStore(path)
        (record,) = store.results(A100.name)
        record = dict(record)
        record["workload"] = "nope"
        store.put_result(("other", 1, 1, 1, "d"), A100.name, record)
        diags = audit_store(DesignStore(path))
        assert any(
            d.code == STORE_BAD_WORKLOAD and d.severity is Severity.ERROR
            for d in diags
        )


    def test_unknown_operator_in_result_graph_is_error(
        self, populated_store, tmp_path
    ):
        path = self._copy(populated_store, tmp_path / "renamed")
        store = DesignStore(path)
        (record,) = store.results(A100.name)
        record = json.loads(json.dumps(record))
        record["graph"]["nodes"][0]["op"] = "BOGUS_OP"
        store.put_result(("other", 1, 1, 1, "d"), A100.name, record)
        unknown = [
            d for d in audit_store(DesignStore(path))
            if d.code == STORE_UNKNOWN_OPERATOR
        ]
        assert unknown and all(d.severity is Severity.ERROR for d in unknown)


# ---------------------------------------------------------------------------
# CLI: python -m repro check
# ---------------------------------------------------------------------------

class TestCheckCommand:
    def test_space_self_check_passes(self, capsys):
        assert main(["check", "--samples", "0"]) == 0
        out = capsys.readouterr().out
        assert "check passed" in out
        assert "candidate designs" in out

    def test_store_audit_passes_on_clean_store(self, populated_store, capsys):
        assert main(["check", "--store", str(populated_store)]) == 0
        assert "check passed" in capsys.readouterr().out

    def test_store_audit_fails_on_corruption(
        self, populated_store, tmp_path, capsys
    ):
        path = tmp_path / "broken"
        shutil.copytree(populated_store, path)
        victim = next((path / "results").glob("*.json"))
        victim.write_text("{not json")
        assert main(["check", "--store", str(path)]) == 1
        out = capsys.readouterr().out
        assert STORE_CORRUPT_ENTRY in out
        assert "check failed" in out

    def test_missing_store_is_usage_error(self, tmp_path, capsys):
        assert main(["check", "--store", str(tmp_path / "absent")]) == 2
        assert "error:" in capsys.readouterr().out
