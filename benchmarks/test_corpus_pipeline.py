"""Corpus pipeline throughput — records `BENCH_corpus.json`.

Runs the full §VII pipeline (every baseline + design search per matrix)
over the bench corpus through the resumable :class:`CorpusRunner`,
asserts the resume and determinism contracts at corpus scale, and writes
the throughput record to ``BENCH_corpus.json`` at the repo root so later
PRs can compare corpus-level speed.

Slow-marked like every module in this directory; run with
``pytest benchmarks -m slow``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from datetime import datetime, timezone

from conftest import BENCH_BUDGET, CORPUS_SIZE, bench_engine
from repro.bench import CorpusRunner, ResultStore, render_corpus_report
from repro.gpu import A100

OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_corpus.json")


def _runner(store, engine):
    return CorpusRunner(A100, seed=11, store=store, engine=engine)


def test_corpus_pipeline_throughput(bench_corpus, tmp_path):
    entries = bench_corpus[: max(4, CORPUS_SIZE // 2)]
    store_path = tmp_path / "corpus_store.json"

    with bench_engine(A100) as engine:
        t0 = time.perf_counter()
        cold = _runner(ResultStore(store_path), engine).run(entries)
        cold_wall = time.perf_counter() - t0

        # Resume from the persisted store: nothing re-measured, same table.
        t0 = time.perf_counter()
        warm = _runner(ResultStore(store_path), engine).run(entries)
        warm_wall = time.perf_counter() - t0

    assert cold.stats.measured == len(entries)
    assert warm.stats.measured == 0
    assert warm.stats.resumed == len(entries)
    report = render_corpus_report(cold.records, title="Bench corpus")
    assert report == render_corpus_report(warm.records, title="Bench corpus")
    assert "inf" not in report and "nan" not in report
    print()
    print(report)

    total_evals = sum(r["search"]["total_evaluations"] for r in cold.records)
    record = {
        "recorded_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "gpu": "A100",
        "matrices": len(entries),
        "budget_evals_per_matrix": BENCH_BUDGET.max_total_evals,
        "cold_wall_s": round(cold_wall, 3),
        "resume_wall_s": round(warm_wall, 3),
        "matrices_per_minute": round(60.0 * len(entries) / cold_wall, 2),
        "total_search_evaluations": total_evals,
        "store_bytes": store_path.stat().st_size,
    }
    with open(OUT_PATH, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"corpus throughput baseline written to {os.path.abspath(OUT_PATH)}")

    # Resume must be orders of magnitude cheaper than measuring.
    assert warm_wall < cold_wall
