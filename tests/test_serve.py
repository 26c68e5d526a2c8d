"""Serving-frontend tests: tier resolution, write-back, counters, batching."""

import numpy as np
import pytest

from repro.gpu import A100
from repro.search import SearchBudget
from repro.search.evaluation import matrix_token
from repro.serve import Frontend, ServeStats, default_serve_budget
from repro.sparse import banded_matrix, power_law_matrix
from repro.store import DesignStore

BUDGET = SearchBudget(
    max_structures=6, coarse_evals_per_structure=6, max_total_evals=24
)


@pytest.fixture
def store(tmp_path):
    return DesignStore(tmp_path / "store")


def frontend(store, budget=BUDGET):
    return Frontend(A100, store, budget=budget)


MATRIX_A = banded_matrix(192, bandwidth=3, seed=1, name="a")
MATRIX_B = banded_matrix(224, bandwidth=3, seed=2, name="b")
MATRIX_C = power_law_matrix(256, avg_degree=6, seed=3, name="c")


class TestTiers:
    def test_cold_request_searches_then_exact_hits(self, store):
        with frontend(store) as fe:
            first = fe.resolve(MATRIX_A)
            assert first.source == "search" and first.ok
            assert first.gflops > 0 and first.graph is not None
            assert first.artifact is not None
            again = fe.resolve(MATRIX_A)
            assert again.source == "store"
            assert again.gflops == first.gflops
            assert fe.stats() == ServeStats(
                exact_hits=1, neighbour_hits=0, searches=1, misses=0
            )

    def test_exact_hit_survives_process_restart(self, store, tmp_path):
        with frontend(store) as fe:
            first = fe.resolve(MATRIX_A)
        with frontend(DesignStore(tmp_path / "store")) as fresh:
            served = fresh.resolve(MATRIX_A)
            assert served.source == "store"
            assert served.gflops == first.gflops
            # graph round-trips structurally
            assert served.graph.signature() == first.graph.signature()

    def test_neighbour_transfer_and_writeback(self, store):
        with frontend(store) as fe:
            fe.resolve(MATRIX_A)
            transferred = fe.resolve(MATRIX_B)
            assert transferred.source == "neighbour"
            assert transferred.neighbour_of == "a"
            assert transferred.gflops > 0
            # the transferred answer became an exact entry
            record = store.get_result(matrix_token(MATRIX_B), "A100")
            assert record["via"] == "neighbour"
            assert record["neighbour_of"] == "a"
            assert fe.resolve(MATRIX_B).source == "store"

    def test_transferred_result_is_numerically_verified(self, store):
        """The neighbour tier measures the transplanted design on the new
        matrix — the served GFLOPS must match a direct re-measurement."""
        with frontend(store) as fe:
            fe.resolve(MATRIX_A)
            response = fe.resolve(MATRIX_B)
            assert response.source == "neighbour"
            program_payload = response.artifact
            assert program_payload["matrix_name"] == "b"
            # re-evaluate the same graph directly
            program = fe.engine.evaluator.build(MATRIX_B, response.graph)
            x = np.random.default_rng(0x5EED).random(MATRIX_B.n_cols)
            rerun = program.run(x, A100)
            assert rerun.gflops == pytest.approx(response.gflops)

    def test_miss_when_budget_finds_nothing(self, store):
        empty_budget = SearchBudget(max_structures=1, max_total_evals=0)
        with frontend(store, budget=empty_budget) as fe:
            response = fe.resolve(MATRIX_A)
            assert response.source == "miss" and not response.ok
            assert fe.stats().misses == 1
            assert store.get_result(matrix_token(MATRIX_A), "A100") is None


class TestBatch:
    def test_batch_resolution_order_and_dedup(self, store):
        with frontend(store) as fe:
            fe.resolve(MATRIX_A)  # seed the store
            responses = fe.resolve_batch([MATRIX_A, MATRIX_B, MATRIX_C])
            assert [r.matrix_name for r in responses] == ["a", "b", "c"]
            assert responses[0].source == "store"
            assert all(r.ok for r in responses)
            stats = fe.stats()
            assert stats.requests == 4
            assert stats.exact_hits >= 1

    def test_batch_matches_sequential(self, tmp_path):
        matrices = [MATRIX_A, MATRIX_B, MATRIX_C]
        with frontend(DesignStore(tmp_path / "s1")) as fe:
            sequential = [fe.resolve(m) for m in matrices]
        with frontend(DesignStore(tmp_path / "s2")) as fe:
            batched = fe.resolve_batch(matrices)
        for a, b in zip(sequential, batched):
            assert (a.source, a.gflops, a.neighbour_of) == (
                b.source,
                b.gflops,
                b.neighbour_of,
            )

    def test_batch_neighbour_chaining_matches_sequential(self, tmp_path):
        """Donor chaining inside one batch: request N must be able to
        transfer from request N-1's freshly written result, exactly like
        sequential resolution."""
        donor = banded_matrix(160, bandwidth=3, seed=7, name="d")
        mid = banded_matrix(200, bandwidth=3, seed=8, name="m200")
        near_mid = banded_matrix(208, bandwidth=3, seed=9, name="m208")

        with frontend(DesignStore(tmp_path / "seq")) as fe:
            fe.resolve(donor)
            sequential = [fe.resolve(mid), fe.resolve(near_mid)]
        assert sequential[0].neighbour_of == "d"
        # m208 is closer to m200 than to d — sequential chains on it
        assert sequential[1].neighbour_of == "m200"

        with frontend(DesignStore(tmp_path / "batch")) as fe:
            fe.resolve(donor)
            batched = fe.resolve_batch([mid, near_mid])
        assert [
            (r.source, r.gflops, r.neighbour_of) for r in batched
        ] == [
            (r.source, r.gflops, r.neighbour_of) for r in sequential
        ]

    def test_search_tier_reproducible_across_frontends(self, tmp_path):
        """The fallback search seeds from matrix *content*, so what a
        fresh search finds is a property of the matrix, not of which
        frontend (or request history) triggered it."""
        with frontend(DesignStore(tmp_path / "s1")) as fe1:
            r1 = fe1.resolve(MATRIX_C)
            seed1 = fe1._search_seed(matrix_token(MATRIX_C))
        with frontend(DesignStore(tmp_path / "s2")) as fe2:
            fe2.resolve(MATRIX_A)  # unrelated earlier traffic
            r2 = fe2._resolve_search(MATRIX_C, matrix_token(MATRIX_C))
            seed2 = fe2._search_seed(matrix_token(MATRIX_C))
        assert r1.source == r2.source == "search"
        assert seed1 == seed2
        assert r1.gflops == r2.gflops


class TestStatsAndBudget:
    def test_stats_since_delta(self, store):
        with frontend(store) as fe:
            fe.resolve(MATRIX_A)
            before = fe.stats()
            fe.resolve(MATRIX_A)
            delta = fe.stats().since(before)
            assert delta == ServeStats(exact_hits=1)
            assert delta.hit_rate == 1.0

    def test_default_serve_budget_is_bounded(self):
        budget = default_serve_budget()
        assert budget.max_total_evals < SearchBudget().max_total_evals
