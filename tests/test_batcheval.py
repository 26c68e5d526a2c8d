"""Batched group evaluation + cross-matrix warm-start tests.

Acceptance bars:

* replay oracle: every candidate the group evaluator scores during a
  search, rebuilt alone through the plain reference path that baselines
  and export use (``graph_with_params`` → ``KernelBuilder.build`` →
  ``GeneratedProgram.run`` → ``workload.allclose``), gets exactly the same
  ``(gflops, valid, error)`` — on the golden matrix and on random
  matrices (hypothesis);
* search histories reproduce the golden digest captured from the seed
  revision's per-candidate loop, store on and off;
* cross-matrix warm starts: a stored winner seeds the candidate stream
  as an iteration-0 candidate, an empty store degrades to an exactly
  cold search, and the corpus runner pins its config/record keys only
  when warm starting (historical stores stay resumable byte-for-byte).
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro import SearchEngine, named_matrix
from repro.bench import CorpusRunner
from repro.core.designer import DesignError
from repro.core.graph import GraphValidationError, OperatorGraph
from repro.core.kernel.builder import BuildError, KernelBuilder
from repro.core.optimizer import ModelDrivenCompressor
from repro.gpu import A100
from repro.gpu.executor import PlanValidationError
from repro.search import SearchBudget
from repro.search.engine import _SearchState
from repro.search.evaluation import matrix_token
from repro.search.space import SampledStructure, graph_with_params
from repro.sparse import SparseMatrix, corpus
from repro.store import DesignStore, search_result_record

# Same golden history digest as tests/test_workloads.py: a 96-eval
# seed-0 search of @2D_27628_bjtcai, captured from the pre-batching
# per-candidate loop.
GOLDEN_HISTORY_DIGEST = "698d9cef81eb821dce2abedb5b13ef4e"
GOLDEN_MATRIX = "2D_27628_bjtcai"


def _history_digest(result) -> str:
    blob = repr([r.identity() for r in result.history]).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def _identities(result):
    return [r.identity() for r in result.history]


# ---------------------------------------------------------------------------
# Replay oracle: group evaluation == the plain one-candidate reference
# ---------------------------------------------------------------------------

def _assert_matches_reference(engine, matrix, scored):
    """Rebuild each scored ``(proposal, assignment, (gflops, program,
    error))`` through the plain reference path and require the identical
    ``(gflops, valid, error)``."""
    workload = engine.workload
    builder = KernelBuilder(compressor=ModelDrivenCompressor(), workload=workload)
    x = workload.make_operand(matrix)
    reference = workload.reference(matrix, x)
    for proposal, assignment, (gflops, _program, error) in scored:
        try:
            graph = graph_with_params(proposal.graph, assignment, proposal.locks)
            run = builder.build(matrix, graph).run(x, A100, workload=workload)
        except (
            DesignError, BuildError, PlanValidationError, GraphValidationError
        ) as exc:
            want = (0.0, False, f"{type(exc).__name__}: {exc}")
        else:
            if workload.allclose(run.y, reference):
                want = (float(run.gflops), True, "")
            else:
                want = (0.0, False, "numeric mismatch")
        assert (gflops, error == "", error) == want, assignment


def _assert_scores_replay(matrix, evals, seed=0):
    """Search ``matrix`` with a spy on the group evaluator, then replay
    every candidate it scored through the plain reference path."""
    engine = SearchEngine(A100, budget=SearchBudget(max_total_evals=evals))
    scored = []
    evaluate_group = engine.batch.evaluate_group

    def spy(matrix, proposal, assignments, state):
        outs = evaluate_group(matrix, proposal, assignments, state)
        scored.extend(
            (proposal, assignment, out)
            for assignment, out in zip(assignments, outs)
        )
        return outs

    engine.batch.evaluate_group = spy
    result = engine.search(matrix, seed=seed)
    assert len(scored) == result.total_evaluations
    _assert_matches_reference(engine, matrix, scored)
    return scored


class TestBatchedHistoryIdentity:
    @pytest.mark.parametrize("with_store", [True, False], ids=["store", "no-store"])
    def test_golden_history(self, with_store, tmp_path):
        store = DesignStore(str(tmp_path / "store")) if with_store else None
        with SearchEngine(
            A100, budget=SearchBudget(max_total_evals=96), seed=0, store=store
        ) as engine:
            result = engine.search(named_matrix(GOLDEN_MATRIX))
        assert _history_digest(result) == GOLDEN_HISTORY_DIGEST, (
            f"search history diverged (store={with_store})"
        )

    def test_golden_scores_replay_through_reference(self):
        scored = _assert_scores_replay(named_matrix(GOLDEN_MATRIX), evals=96)
        assert any(error == "" for _p, _a, (_g, _prog, error) in scored)

    def test_assembly_errors_match_reference(self, small_regular):
        """A group mixing valid and invalid runtime parameters: each
        failure carries the reference build's exact class and message."""
        engine = SearchEngine(A100)
        x = engine.workload.make_operand(small_regular)
        state = _SearchState(
            start=0.0, budget=engine.budget,
            x=x, reference=engine.workload.reference(small_regular, x),
            verify_key="verify",
        )
        proposal = SampledStructure(
            graph=OperatorGraph.from_names(
                ["COMPRESS", "SET_RESOURCES", "GMEM_ATOM_RED"]),
            locks={},
        )
        assignments = [
            {(1, "threads_per_block"): tpb} for tpb in (128, 100, 256)
        ]
        outs = engine.batch.evaluate_group(
            small_regular, proposal, assignments, state
        )
        assert outs[1][2].startswith("DesignError: ")
        _assert_matches_reference(
            engine, small_regular,
            [(proposal, a, out) for a, out in zip(assignments, outs)],
        )

    def test_batch_stage_timings_recorded(self):
        with SearchEngine(
            A100, budget=SearchBudget(max_total_evals=32), seed=0
        ) as engine:
            result = engine.search(named_matrix(GOLDEN_MATRIX))
        times = dict(result.stage_times)
        assert times.get("batch_assembly", 0.0) > 0.0
        assert times.get("batch_cost", 0.0) > 0.0
        # The per-candidate stages it replaced must not double-count.
        assert times.get("assembly", 0.0) == 0.0
        assert times.get("analysis", 0.0) == 0.0


@st.composite
def small_matrices(draw, max_dim=20, max_nnz=48):
    n_rows = draw(st.integers(1, max_dim))
    n_cols = draw(st.integers(1, max_dim))
    nnz = draw(st.integers(1, min(max_nnz, n_rows * n_cols)))
    rows = draw(st.lists(st.integers(0, n_rows - 1), min_size=nnz, max_size=nnz))
    cols = draw(st.lists(st.integers(0, n_cols - 1), min_size=nnz, max_size=nnz))
    # Strictly positive values: a matrix whose entries compress away to
    # zero nnz crashes the builder (pre-existing degenerate-input
    # behaviour, out of scope here).
    vals = draw(
        st.lists(st.floats(0.5, 8.0), min_size=nnz, max_size=nnz)
    )
    return SparseMatrix(n_rows, n_cols, rows, cols, vals, name="prop")


@given(small_matrices(), st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_property_batched_equals_per_candidate(matrix, seed):
    _assert_scores_replay(matrix, evals=16, seed=seed)


# ---------------------------------------------------------------------------
# Cross-matrix warm starts
# ---------------------------------------------------------------------------

class TestWarmStart:
    def _populate(self, store, matrix, seed=0, evals=24):
        """Search ``matrix`` cold and record its winner the way the CLI
        and corpus runner do, so the store can donate it."""
        with SearchEngine(
            A100, budget=SearchBudget(max_total_evals=evals), seed=seed,
            store=store,
        ) as engine:
            result = engine.search(matrix)
            assert result.best_graph is not None
            store.put_result(
                engine.workload.scope_token(matrix_token(matrix)),
                A100.name,
                search_result_record(matrix, A100.name, result, seed=seed),
            )
        return result

    def test_empty_store_is_exactly_cold(self, tmp_path):
        store = DesignStore(str(tmp_path / "empty"))
        matrix = named_matrix(GOLDEN_MATRIX)
        results = []
        for warm in (store, None):
            with SearchEngine(
                A100, budget=SearchBudget(max_total_evals=24), seed=0,
                warm_start_store=warm,
            ) as engine:
                results.append(engine.search(matrix))
        assert results[0].warm_start_hits == 0
        assert _identities(results[0]) == _identities(results[1])

    def test_donor_seeds_iteration_zero(self, tmp_path):
        store = DesignStore(str(tmp_path / "donors"))
        donor_result = self._populate(store, named_matrix("scfxm1-2r"))
        with SearchEngine(
            A100, budget=SearchBudget(max_total_evals=24), seed=0,
            warm_start_store=store,
        ) as engine:
            warm = engine.search(named_matrix("consph"))
        assert warm.warm_start_hits == 1
        first = warm.history[0]
        # The donor candidate is the stored winner's graph verbatim.
        assert (
            [op for op, *_rest in first.structure_sig]
            == list(donor_result.best_graph.operator_names())
        )

    def test_own_result_never_donates(self, tmp_path):
        """Self-exclusion: the store's entry for this very matrix must
        not warm-start it (that is the design store's exact-hit job)."""
        store = DesignStore(str(tmp_path / "self"))
        matrix = named_matrix("scfxm1-2r")
        self._populate(store, matrix)
        with SearchEngine(
            A100, budget=SearchBudget(max_total_evals=24), seed=0,
            warm_start_store=store,
        ) as engine:
            result = engine.search(matrix)
        assert result.warm_start_hits == 0

    def test_corpus_runner_requires_design_store(self):
        with pytest.raises(ValueError, match="design_store"):
            CorpusRunner(A100, warm_start=True)

    def test_corpus_runner_pins_keys_only_when_enabled(self, tmp_path):
        budget = SearchBudget(max_total_evals=12)
        matrices = list(corpus(2))
        cold = CorpusRunner(A100, budget=budget)
        with cold:
            assert "warm_start" not in cold.config()["engine"]
            cold_records = cold.run(matrices).records
        assert all("warm_start_hits" not in r["search"] for r in cold_records)

        store = DesignStore(str(tmp_path / "ws"))
        warm = CorpusRunner(
            A100, budget=budget, design_store=store, warm_start=True
        )
        with warm:
            assert warm.config()["engine"]["warm_start"] is True
            warm_records = warm.run(matrices).records
        assert all(
            isinstance(r["search"]["warm_start_hits"], int)
            for r in warm_records
        )
        # The first corpus matrix has no prior winner; later ones do.
        assert warm_records[0]["search"]["warm_start_hits"] == 0
        assert warm_records[1]["search"]["warm_start_hits"] == 1
