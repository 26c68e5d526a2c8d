"""Pluggable-sampler tests: registry UX, annealer byte-identity behind the
ask/tell interface, adaptive-sampler determinism against recorded history
digests, structure budgets, and the successive-halving never-prunes-the-best
property together with the exact-projection contract that makes it hold."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import named_matrix
from repro.bench.runner import CorpusRunner
from repro.gpu import A100
from repro.search import (
    AnnealerSampler,
    QMCSampler,
    Sampler,
    ScrambledSobol,
    SearchBudget,
    SearchEngine,
    SuccessiveHalvingPruner,
    TPESampler,
    get_sampler,
    sampler_names,
)
from repro.search.batcheval import BatchEvaluator
from repro.sparse.generators import power_law_matrix
from repro.store import DesignStore
from repro.workloads import get_workload

# The pre-sampler-interface golden digest (tests/test_workloads.py): the
# default sampler must keep reproducing these bytes.
GOLDEN_HISTORY_DIGEST = "698d9cef81eb821dce2abedb5b13ef4e"
GOLDEN_MATRIX = "2D_27628_bjtcai"
GOLDEN_BUDGET = dict(max_total_evals=96)

ADAPTIVE = ["qmc", "tpe"]

# History digest, ``sampler_pruned`` and best GFLOPS of a 64-evaluation
# seed-0 search of ``pl-512`` (TestAdaptiveDeterminism's matrix) with
# sampler pruning on.  The padding budget (``MAX_PAD_BLOWUP``) refuses
# this matrix's ELL-style candidates (1,766 -> 26,112 elements) as
# DesignErrors.  The best is pinned next to each digest so that a
# re-record cannot hide a worse search.
ADAPTIVE_GOLDEN = {
    "qmc": ("d7952193c579217c85a8ea9b3cbffed2", 176, 12.4283),
    "tpe": ("5dbddb3b595da858ebc6fa09cd698d1b", 101, 12.4283),
}


def _history_digest(result) -> str:
    blob = repr([r.identity() for r in result.history])
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# Registry and typo UX
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_names(self):
        assert sampler_names() == ["annealer", "qmc", "tpe"]

    def test_default_is_annealer(self):
        assert get_sampler(None) is AnnealerSampler

    def test_lookup_by_name_and_class(self):
        assert get_sampler("tpe") is TPESampler
        assert get_sampler(TPESampler) is TPESampler

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="unknown sampler 'bogus'"):
            get_sampler("bogus")
        with pytest.raises(ValueError, match="annealer, qmc, tpe"):
            get_sampler("bogus")

    def test_cli_types_reject_cleanly(self):
        import argparse

        from repro.cli import _sampler_arg, _sampler_seed_arg

        assert _sampler_arg("qmc") is QMCSampler
        assert _sampler_seed_arg("17") == 17
        with pytest.raises(argparse.ArgumentTypeError, match="registered samplers"):
            _sampler_arg("bogus")
        with pytest.raises(argparse.ArgumentTypeError, match="integer sampler seed"):
            _sampler_seed_arg("seven")

    def test_duplicate_registration_errors(self):
        from repro.search.samplers import register_sampler

        class Dup(Sampler):
            name = "tpe"

            def begin(self, space, rng, seed):  # pragma: no cover
                pass

            def ask(self, history):  # pragma: no cover
                return None

        with pytest.raises(ValueError, match="duplicate sampler"):
            register_sampler(Dup)


# ---------------------------------------------------------------------------
# Byte identity: the annealer behind the interface
# ---------------------------------------------------------------------------

class TestAnnealerByteIdentity:
    @pytest.fixture(scope="class")
    def matrix(self):
        return named_matrix(GOLDEN_MATRIX)

    def _search(self, matrix, store=None, sampler=None):
        engine = SearchEngine(
            A100,
            budget=SearchBudget(**GOLDEN_BUDGET),
            seed=0,
            store=store,
            sampler=sampler,
        )
        try:
            return engine.search(matrix)
        finally:
            engine.close()

    def test_golden_across_store(self, matrix, tmp_path):
        """The acceptance assertion: default-sampler histories are
        byte-identical to the pre-interface engine, store on and off."""
        for use_store in (False, True):
            store = DesignStore(tmp_path / "store") if use_store else None
            result = self._search(matrix, store=store)
            assert _history_digest(result) == GOLDEN_HISTORY_DIGEST, (
                f"store={use_store} diverged from the "
                "pre-sampler-interface golden digest"
            )
            assert result.sampler == "annealer"
            assert result.sampler_pruned == 0

    def test_explicit_annealer_is_the_default(self, matrix):
        assert (
            _history_digest(self._search(matrix, sampler="annealer"))
            == GOLDEN_HISTORY_DIGEST
        )


# ---------------------------------------------------------------------------
# Adaptive-sampler determinism
# ---------------------------------------------------------------------------

class TestAdaptiveDeterminism:
    @pytest.fixture(scope="class")
    def matrix(self):
        return power_law_matrix(512, avg_degree=8, seed=1, name="pl-512")

    def _search(self, matrix, sampler, sampler_seed=None):
        engine = SearchEngine(
            A100,
            budget=SearchBudget(max_total_evals=64),
            seed=0,
            sampler=sampler,
            sampler_seed=sampler_seed,
        )
        try:
            return engine.search(matrix)
        finally:
            engine.close()

    @pytest.mark.parametrize("sampler", ADAPTIVE)
    def test_golden_history_with_pruning(self, matrix, sampler):
        """Recorded bytes, not self-comparison: each adaptive sampler's
        successive-halving search reproduces the recorded history digest
        and prune count (adaptive samplers draw only from their private
        RNG, never during evaluation, so a seed fixes the trajectory)."""
        digest, pruned, best = ADAPTIVE_GOLDEN[sampler]
        result = self._search(matrix, sampler)
        assert _history_digest(result) == digest
        assert result.sampler_pruned == pruned
        assert result.best_gflops == pytest.approx(best, abs=1e-4)

    @pytest.mark.parametrize("sampler", ADAPTIVE)
    def test_sampler_seed_reproducible(self, matrix, sampler):
        a = self._search(matrix, sampler, sampler_seed=7)
        b = self._search(matrix, sampler, sampler_seed=7)
        assert [r.identity() for r in a.history] == [
            r.identity() for r in b.history
        ]

    def test_sampler_seed_changes_trajectory(self, matrix):
        a = self._search(matrix, "qmc", sampler_seed=1)
        b = self._search(matrix, "qmc", sampler_seed=2)
        assert [r.identity() for r in a.history] != [
            r.identity() for r in b.history
        ]

    def test_result_records_sampler(self, matrix):
        result = self._search(matrix, "tpe")
        assert result.sampler == "tpe"
        assert result.sampler_pruned > 0

    @pytest.mark.parametrize("sampler", ["annealer"] + ADAPTIVE)
    def test_structure_budget_is_respected(self, matrix, sampler):
        """``max_structures`` caps every sampler, archetype seeds
        included, and structures TPE retires stay counted."""
        engine = SearchEngine(
            A100,
            budget=SearchBudget(max_total_evals=48, max_structures=4),
            seed=0,
            sampler=sampler,
        )
        result = engine.search(matrix)
        assert 0 < result.structures_tried <= 4
        assert len({r.structure_sig for r in result.history}) <= 4


# ---------------------------------------------------------------------------
# Successive halving
# ---------------------------------------------------------------------------

class TestSuccessiveHalving:
    def test_waves_partition_in_descending_order(self):
        pruner = SuccessiveHalvingPruner()
        scores = [3.0, 9.0, 1.0, 7.0, 5.0, 0.0, 2.0, 8.0]
        waves = pruner.waves(scores)
        flat = [i for wave in waves for i in wave]
        assert sorted(flat) == list(range(len(scores)))
        assert [scores[i] for i in flat] == sorted(scores, reverse=True)
        assert len(waves[0]) == pruner.min_survivors

    def test_small_batches_never_pruned(self):
        pruner = SuccessiveHalvingPruner()
        assert pruner.waves([1.0, 2.0]) == [[1, 0]]
        assert pruner.waves([]) == []

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            SuccessiveHalvingPruner(eta=1.0)
        with pytest.raises(ValueError):
            SuccessiveHalvingPruner(min_survivors=0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                st.booleans(),
            ),
            max_size=40,
        )
    )
    def test_never_prunes_the_eventual_best(self, candidates):
        """Replay the engine's pruned-measurement loop on an arbitrary
        batch: projections are exact for valid candidates (this
        simulator's measurement contract) and invalid candidates measure
        0.  Whatever is pruned, the best fully-measured score must equal
        the best score full measurement of *every* candidate would have
        found."""
        pruner = SuccessiveHalvingPruner()
        projections = [score for score, _valid in candidates]
        measured_all = [
            score if valid else 0.0 for score, valid in candidates
        ]
        waves = pruner.waves(projections)
        measured = []
        for index, wave in enumerate(waves):
            if index > 0 and any(m > 0 for m in measured):
                break  # remaining waves are pruned
            measured.extend(measured_all[i] for i in wave)
        assert max(measured, default=0.0) == max(measured_all, default=0.0)

    def test_pruning_never_hurts_on_a_real_search(self):
        """QMC asks the same candidate sequence regardless of history, and
        per batch the pruner always measures the batch's best valid
        candidate (the hypothesis property above).  So at an equal
        full-measurement budget the pruned run — which stretches the same
        budget across strictly more batches — must end at least as good as
        measuring everything."""

        class FullyMeasuredQMC(QMCSampler):
            prunes = False

        matrix = power_law_matrix(384, avg_degree=6, seed=2, name="pl-384")
        results = {}
        for sampler in (QMCSampler, FullyMeasuredQMC):
            engine = SearchEngine(
                A100,
                budget=SearchBudget(max_total_evals=400),
                seed=0,
                sampler=sampler,
                sampler_seed=3,
            )
            try:
                results[sampler.prunes] = engine.search(matrix)
            finally:
                engine.close()
        assert results[True].best_gflops >= results[False].best_gflops
        assert results[True].sampler_pruned > 0
        assert results[False].sampler_pruned == 0

    @pytest.mark.parametrize("workload", ["spmv", "spmvt"])
    @pytest.mark.parametrize("sampler", ["annealer"] + ADAPTIVE)
    def test_projection_equals_measurement(
        self, monkeypatch, sampler, workload
    ):
        """The assumption that makes pruning lossless: every valid
        candidate's cheap-rung projection is exactly the GFLOPS its full
        measurement reports (spied on every ``BatchEvaluator.finish``)."""
        finish = BatchEvaluator.finish
        pairs = []

        def spy(self, group, candidates, state):
            candidates = list(candidates)
            results = finish(self, group, candidates, state)
            for c, (gflops, _program, error) in zip(candidates, results):
                if error == "":
                    pairs.append((group.rung_score(c), gflops))
            return results

        monkeypatch.setattr(BatchEvaluator, "finish", spy)
        matrix = power_law_matrix(384, avg_degree=6, seed=2, name="pl-384")
        engine = SearchEngine(
            A100,
            budget=SearchBudget(max_total_evals=48),
            seed=0,
            sampler=sampler,
            workload=get_workload(workload),
        )
        engine.search(matrix)
        assert pairs
        assert [p for p, _ in pairs] == [g for _, g in pairs]


# ---------------------------------------------------------------------------
# Scrambled Sobol
# ---------------------------------------------------------------------------

class TestScrambledSobol:
    def test_points_in_unit_cube_and_deterministic(self):
        a = ScrambledSobol(5, np.random.default_rng(0)).take(64)
        b = ScrambledSobol(5, np.random.default_rng(0)).take(64)
        assert a == b
        assert all(0.0 <= u < 1.0 for point in a for u in point)

    def test_dimension_zero_is_equidistributed(self):
        points = ScrambledSobol(3, np.random.default_rng(1)).take(64)
        first = [p[0] for p in points]
        assert len(set(first)) == 64  # digital shift preserves distinctness
        counts = np.bincount((np.array(first) * 8).astype(int), minlength=8)
        assert counts.min() >= 7 and counts.max() <= 9

    def test_scramble_off_reproduces_sobol(self):
        rng = np.random.default_rng(0)
        points = ScrambledSobol(2, rng, scramble=False).take(3)
        # Gray-code Sobol' starting at x_1: 1/2, then 3/4 / 1/4 pattern.
        assert points[0] == [0.5, 0.5]
        assert sorted(p[0] for p in points[1:]) == [0.25, 0.75]

    def test_rejects_zero_dimensions(self):
        with pytest.raises(ValueError):
            ScrambledSobol(0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Bench/store config pinning
# ---------------------------------------------------------------------------

class TestConfigPinning:
    def test_default_sampler_pins_no_keys(self):
        runner = CorpusRunner(
            A100, budget=SearchBudget(max_total_evals=24), seed=0
        )
        with runner:
            config = runner.config()
            matrix = power_law_matrix(256, avg_degree=5, seed=3, name="pl-256")
            record = runner._evaluate_matrix(matrix, family="synthetic", seed=0)
        assert "sampler" not in config["engine"]
        assert "sampler_seed" not in config["engine"]
        assert "sampler" not in record["search"]
        assert "sampler_pruned" not in record["search"]

    def test_non_default_sampler_is_pinned(self):
        engine = SearchEngine(
            A100,
            budget=SearchBudget(max_total_evals=24),
            seed=0,
            sampler="tpe",
            sampler_seed=11,
        )
        runner = CorpusRunner(A100, engine=engine)
        with runner:
            config = runner.config()
            matrix = power_law_matrix(256, avg_degree=5, seed=3, name="pl-256")
            record = runner._evaluate_matrix(matrix, family="synthetic", seed=0)
        assert config["engine"]["sampler"] == "tpe"
        assert config["engine"]["sampler_seed"] == 11
        assert record["search"]["sampler"] == "tpe"
        assert "sampler_pruned" in record["search"]
