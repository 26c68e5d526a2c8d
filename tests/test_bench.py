"""Corpus evaluation pipeline tests: result store, runner, aggregation."""

import json

import numpy as np
import pytest

from repro.bench import (
    CorpusRunner,
    ResultStore,
    ResultStoreError,
    StoreVersionError,
    baseline_speedups,
    creativity_counts,
    pfs_speedups,
    render_corpus_report,
)
from repro.gpu import A100
from repro.search import SearchBudget
from repro.sparse import banded_matrix, lp_like_matrix, power_law_matrix

#: Small but real matrices — big enough that every baseline runs, small
#: enough that three searches stay in tier-1 time.
MATRICES = [
    banded_matrix(192, bandwidth=3, seed=1, name="bench-banded"),
    power_law_matrix(256, avg_degree=6, seed=2, name="bench-powerlaw"),
    lp_like_matrix(200, seed=3, name="bench-lp"),
]

BUDGET = SearchBudget(max_structures=8, coarse_evals_per_structure=6,
                      max_total_evals=24)


def run_corpus(store=None, matrices=None, seed=0):
    with CorpusRunner(A100, budget=BUDGET, seed=seed, store=store) as runner:
        return runner.run(MATRICES if matrices is None else matrices)


@pytest.fixture(scope="module")
def fresh_run():
    """One full in-memory corpus run shared by the read-only tests."""
    return run_corpus()


class TestResultStore:
    def test_in_memory_roundtrip(self):
        store = ResultStore()
        store.put("k", {"name": "m"})
        assert "k" in store and store.get("k") == {"name": "m"}
        assert len(store) == 1

    def test_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "store.json"
        store = ResultStore(path)
        store.bind_config({"gpu": "A100"})
        store.put("a", {"name": "a", "v": 1})
        store.put("b", {"name": "b", "v": 2})
        again = ResultStore(path)
        assert len(again) == 2
        assert again.get("a") == {"name": "a", "v": 1}
        assert again.config == {"gpu": "A100"}

    def test_flush_is_atomic_valid_json(self, tmp_path):
        path = tmp_path / "store.json"
        store = ResultStore(path)
        for i in range(5):
            store.put(f"k{i}", {"v": i})
            data = json.loads(path.read_text())  # parseable after every put
            assert len(data["matrices"]) == i + 1
        assert not list(tmp_path.glob("*.tmp"))  # no temp-file litter

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text("{not json")
        with pytest.raises(ResultStoreError, match="cannot load"):
            ResultStore(path)
        path.write_text('{"schema": 99, "matrices": {}}')
        with pytest.raises(StoreVersionError, match="schema"):
            ResultStore(path)

    def test_pre_pinning_store_raises_version_error(self, tmp_path):
        """A store written before run-config pinning (no schema marker)
        must fail as a clear version error, never a KeyError downstream."""
        path = tmp_path / "store.json"
        path.write_text('{"matrices": {"m:abc": {"name": "m"}}}')
        with pytest.raises(StoreVersionError, match="predates"):
            ResultStore(path)
        # the concrete type is ALSO a ResultStoreError, so pre-existing
        # broad `except ResultStoreError` handlers keep catching it
        with pytest.raises(ResultStoreError):
            ResultStore(path)

    def test_config_mismatch_rejected(self, tmp_path):
        path = tmp_path / "store.json"
        store = ResultStore(path)
        store.bind_config({"gpu": "A100", "evals": 24})
        store.flush()
        reopened = ResultStore(path)
        reopened.bind_config({"gpu": "A100", "evals": 24})  # same is fine
        with pytest.raises(ResultStoreError, match="different run"):
            reopened.bind_config({"gpu": "RTX2080", "evals": 24})


class TestRunnerResume:
    def test_interrupt_resume_identical_table(self, tmp_path):
        """write -> interrupt -> resume: the resumed run re-measures only
        the missing matrices and the final table is identical to an
        uninterrupted run."""
        path = tmp_path / "store.json"
        partial = run_corpus(store=ResultStore(path), matrices=MATRICES[:2])
        assert partial.stats.measured == 2

        resumed = run_corpus(store=ResultStore(path))  # all three
        assert resumed.stats.resumed == 2
        assert resumed.stats.measured == 1

        fresh = run_corpus()
        assert (render_corpus_report(resumed.records)
                == render_corpus_report(fresh.records))

    def test_resumed_run_measures_nothing(self, tmp_path):
        path = tmp_path / "store.json"
        first = run_corpus(store=ResultStore(path))
        again = run_corpus(store=ResultStore(path))
        assert again.stats.measured == 0
        assert again.stats.resumed == len(MATRICES)
        assert again.records == first.records

    def test_store_keys_content_addressed(self):
        renamed = banded_matrix(192, bandwidth=3, seed=1, name="other-name")
        same_name = banded_matrix(192, bandwidth=5, seed=7, name="bench-banded")
        key = CorpusRunner.record_key(MATRICES[0])
        assert CorpusRunner.record_key(renamed) != key  # name is part of it
        assert CorpusRunner.record_key(same_name) != key  # content too
        assert CorpusRunner.record_key(MATRICES[0]) == key

    def test_config_guard_stops_mixed_stores(self, tmp_path):
        path = tmp_path / "store.json"
        run_corpus(store=ResultStore(path), matrices=MATRICES[:1])
        with pytest.raises(ResultStoreError, match="different run"):
            run_corpus(store=ResultStore(path), matrices=MATRICES[:1], seed=99)

    def test_config_guard_pins_full_budget(self, tmp_path):
        """Any result-affecting budget field mismatch is rejected, not just
        the eval cap — otherwise a resume would silently mix searches run
        under different coarse/fine budgets."""
        path = tmp_path / "store.json"
        run_corpus(store=ResultStore(path), matrices=MATRICES[:1])
        other = SearchBudget(
            max_structures=BUDGET.max_structures,
            coarse_evals_per_structure=BUDGET.coarse_evals_per_structure + 2,
            max_total_evals=BUDGET.max_total_evals,
        )
        with CorpusRunner(A100, budget=other, store=ResultStore(path)) as runner:
            with pytest.raises(ResultStoreError, match="different run"):
                runner.run(MATRICES[:1])

    def test_record_independent_of_list_position(self):
        """A matrix's record depends on its content, not where it sits in
        the input list — so corpus shards tile the full run and resumes
        are order-insensitive."""
        full = run_corpus()
        alone = run_corpus(matrices=[MATRICES[2]])

        def stripped(record):
            out = json.loads(json.dumps(record))  # deep copy
            out["search"].pop("wall_time_s")  # the one wall-clock field
            return out

        assert stripped(alone.records[0]) == stripped(full.records[2])


class TestAggregation:
    def test_records_shape(self, fresh_run):
        assert len(fresh_run.records) == len(MATRICES)
        for record in fresh_run.records:
            assert record["baselines"]
            assert record["search"]["total_evaluations"] > 0
            for meas in record["baselines"].values():
                assert np.isfinite(meas["gflops"])
                assert np.isfinite(meas["time_s"])

    def test_no_non_finite_aggregates(self, fresh_run):
        """The speedup() inf bug, demonstrably fixed: inapplicable
        baselines (0 GFLOPS) are filtered, never turned into inf."""
        per_baseline = baseline_speedups(fresh_run.records)
        assert per_baseline
        for name, values in per_baseline.items():
            assert all(np.isfinite(v) and v > 0 for v in values), name
        # At least one baseline is inapplicable somewhere on this mix
        # (DIA on the power-law matrix), so filtering is actually exercised.
        n_searched = sum(
            1 for r in fresh_run.records if r["search"]["best_gflops"] > 0
        )
        assert any(len(v) < n_searched for v in per_baseline.values())

    def test_pfs_speedups_finite(self, fresh_run):
        values = pfs_speedups(fresh_run.records)
        assert values
        assert all(np.isfinite(v) for v in values)

    def test_report_renders_all_sections(self, fresh_run):
        text = render_corpus_report(fresh_run.records, title="Mini corpus")
        assert "Mini corpus" in text
        assert "geomean speedup" in text
        assert "Fig 10" in text
        assert "Creativity" in text
        assert "inf" not in text and "nan" not in text

    def test_report_from_reloaded_store(self, tmp_path):
        """The same table renders from the persisted JSON alone."""
        path = tmp_path / "store.json"
        live = run_corpus(store=ResultStore(path))
        reloaded = ResultStore(path)
        # Store order may differ from input order; compare per-baseline
        # aggregates, which are order-insensitive sets of measurements.
        assert (baseline_speedups(sorted(reloaded.records(), key=lambda r: r["name"]))
                == baseline_speedups(sorted(live.records, key=lambda r: r["name"])))

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError):
            render_corpus_report([])

    def test_creativity_counts_sum(self, fresh_run):
        counts = creativity_counts(fresh_run.records)
        classified = (counts["machine-designed"] + counts["source-format"])
        assert classified == len(MATRICES)
        assert (counts["parameter-novel"] + counts["structure-novel"]
                == counts["machine-designed"])
