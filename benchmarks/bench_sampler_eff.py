"""Record (or CI-check) the sampler sample-efficiency baseline.

Runs one standard-budget search per corpus matrix per sampler (annealer,
qmc, tpe) for the spmv and spmvt workloads, and writes per-sampler
best GFLOPS + evals-to-best to ``BENCH_samplers.json`` at the repo root.
Not a pytest module: run it directly.

    PYTHONPATH=src python benchmarks/bench_sampler_eff.py

Sample efficiency is counted in *full measurements* (history entries):
successive-halving projections are the cheap rung and deliberately free.
``evals_to_best`` is the first history iteration reaching the search's own
final best; ``evals_to_match`` is the first iteration reaching 99% of the
*annealer's* best on the same matrix (the ±1% equivalence band).

``--check`` mode (the CI sampler-efficiency gate) re-runs the annealer and
the gated sampler (tpe) and fails — without touching the committed JSON —
unless on every workload the gated sampler (a) matches the annealer's best
GFLOPS within 1% on every matrix and (b) needs at most ``--max-ratio``
(default 0.5) of the annealer's evaluations to get there, summed over the
corpus:

    PYTHONPATH=src python benchmarks/bench_sampler_eff.py --check

Both modes also measure store-seeded cross-matrix *warm starts*: the
corpus is searched sequentially twice — cold, and with each search's
winner written to a design store that seeds the next matrix's candidate
stream — and the warm pass must need no more total evals-to-best than
the cold pass (``--check`` fails otherwise).

Every search is seeded and count-budgeted, so both modes are deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from datetime import datetime, timezone

from repro.gpu import A100
from repro.search import SearchBudget, SearchEngine
from repro.search.evaluation import matrix_token
from repro.sparse import banded_matrix, lp_like_matrix, power_law_matrix
from repro.store import DesignStore, search_result_record

OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_samplers.json")

MATRICES = [
    banded_matrix(768, bandwidth=4, seed=0, name="banded-768"),
    power_law_matrix(1024, avg_degree=10, seed=4, name="powerlaw-1024"),
    lp_like_matrix(400, seed=3, name="lp-400"),
]

#: the warm-start corpus: family *pairs* in sequence, because that is
#: what cross-matrix transfer is for — the first member of each family
#: searches cold and donates, the second should then reach its best in
#: far fewer evaluations (often 1: the donor IS its best design).
WARM_MATRICES = MATRICES + [
    banded_matrix(1024, bandwidth=4, seed=1, name="banded-1024"),
    power_law_matrix(1408, avg_degree=10, seed=5, name="powerlaw-1408"),
    lp_like_matrix(560, seed=6, name="lp-560"),
]

WORKLOADS = ["spmv", "spmvt"]
SAMPLERS = ["annealer", "qmc", "tpe"]

#: the sampler the CI gate holds to the efficiency target.
GATED_SAMPLER = "tpe"
#: equivalence band: "matches the annealer" means within 1% of its best.
MATCH_FRACTION = 0.99


def _search_all(workload: str, sampler: str):
    engine = SearchEngine(
        A100,
        budget=SearchBudget(),
        seed=0,
        workload=workload,
        sampler=sampler,
    )
    with engine:
        return engine.search_many(MATRICES)


def _evals_to_reach(history, target: float):
    """First history iteration with a valid measurement >= target."""
    for rec in history:
        if rec.valid and rec.gflops >= target:
            return rec.iteration
    return None


def _sampler_rows(results, annealer_results):
    """Per-matrix efficiency rows for one sampler on one workload."""
    rows = []
    for res, ann in zip(results, annealer_results):
        target = MATCH_FRACTION * ann.best_gflops
        rows.append({
            "matrix": res.matrix_name,
            "best_gflops": round(res.best_gflops, 3),
            "evals_to_best": _evals_to_reach(res.history, res.best_gflops),
            "evals_to_match": _evals_to_reach(res.history, target),
            "total_evaluations": res.total_evaluations,
            "sampler_pruned": res.sampler_pruned,
            "matched_annealer": res.best_gflops >= target,
        })
    return rows


def _gate(rows, annealer_rows, max_ratio: float):
    """The CI acceptance: every matrix matched, and total evals-to-match
    within ``max_ratio`` of the annealer's total evals-to-best."""
    matched = all(r["matched_annealer"] for r in rows)
    if not all(r["evals_to_match"] is not None for r in rows):
        return {"matched": matched, "evals_ratio": None, "ok": False}
    sampler_evals = sum(r["evals_to_match"] for r in rows)
    annealer_evals = sum(r["evals_to_best"] for r in annealer_rows)
    ratio = sampler_evals / annealer_evals if annealer_evals else None
    return {
        "matched": matched,
        "sampler_evals_to_match": sampler_evals,
        "annealer_evals_to_best": annealer_evals,
        "evals_ratio": round(ratio, 3) if ratio is not None else None,
        "ok": bool(matched and ratio is not None and ratio <= max_ratio),
    }


def _print_rows(workload: str, sampler: str, rows) -> None:
    for r in rows:
        print(f"  {workload:5s} {sampler:9s} {r['matrix']:>14s}: "
              f"best {r['best_gflops']:8.2f}  "
              f"to-best {str(r['evals_to_best']):>4s}  "
              f"to-match {str(r['evals_to_match']):>4s}  "
              f"evals {r['total_evaluations']:3d}  "
              f"pruned {r['sampler_pruned']:3d}")


def _sequential_search(workload: str, warm: bool):
    """Search the corpus one matrix at a time; with ``warm`` each winner
    is recorded to a design store that seeds the next matrix's search
    (the corpus-runner ``--warm-start`` behaviour, measured directly)."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        store = DesignStore(os.path.join(tmp, "store")) if warm else None
        engine = SearchEngine(
            A100,
            budget=SearchBudget(),
            seed=0,
            workload=workload,
            warm_start_store=store,
        )
        with engine:
            for matrix in WARM_MATRICES:
                result = engine.search(matrix)
                results.append(result)
                if store is not None and result.best_graph is not None:
                    store.put_result(
                        engine.workload.scope_token(matrix_token(matrix)),
                        A100.name,
                        search_result_record(
                            matrix, A100.name, result, seed=0
                        ),
                    )
    return results


def _warm_start_block(workload: str = "spmv"):
    """Cold vs store-seeded sequential corpus pass: per-matrix
    evals-to-best, plus the gate the CI check enforces (the warm pass
    reaches its bests in no more total evaluations than the cold one)."""
    cold = _sequential_search(workload, warm=False)
    warm = _sequential_search(workload, warm=True)
    rows = []
    for c, w in zip(cold, warm):
        rows.append({
            "matrix": c.matrix_name,
            "cold_best_gflops": round(c.best_gflops, 3),
            "warm_best_gflops": round(w.best_gflops, 3),
            "cold_evals_to_best": _evals_to_reach(c.history, c.best_gflops),
            "warm_evals_to_best": _evals_to_reach(w.history, w.best_gflops),
            "warm_start_hits": w.warm_start_hits,
        })
    cold_total = sum(r["cold_evals_to_best"] or 0 for r in rows)
    warm_total = sum(r["warm_evals_to_best"] or 0 for r in rows)
    return {
        "workload": workload,
        "per_matrix": rows,
        "cold_evals_to_best": cold_total,
        "warm_evals_to_best": warm_total,
        "ok": warm_total < cold_total,
    }


def _print_warm_start(block) -> None:
    for r in block["per_matrix"]:
        print(f"  warm-start {r['matrix']:>14s}: "
              f"cold to-best {str(r['cold_evals_to_best']):>4s} "
              f"({r['cold_best_gflops']:8.2f})  "
              f"warm to-best {str(r['warm_evals_to_best']):>4s} "
              f"({r['warm_best_gflops']:8.2f})  "
              f"hits {r['warm_start_hits']}")
    print(f"warm-start ({block['workload']}): "
          f"{block['warm_evals_to_best']} warm vs "
          f"{block['cold_evals_to_best']} cold total evals-to-best "
          f"{'ok' if block['ok'] else 'FAIL'}")


def check(max_ratio: float) -> int:
    """CI gate: the gated sampler must reach the annealer's best (within
    1%) in at most ``max_ratio`` of its evaluations, per workload."""
    failures = []
    for workload in WORKLOADS:
        annealer = _search_all(workload, "annealer")
        annealer_rows = _sampler_rows(annealer, annealer)
        gated = _sampler_rows(_search_all(workload, GATED_SAMPLER), annealer)
        _print_rows(workload, "annealer", annealer_rows)
        _print_rows(workload, GATED_SAMPLER, gated)
        gate = _gate(gated, annealer_rows, max_ratio)
        verdict = "ok" if gate["ok"] else "FAIL"
        print(f"{workload}: {GATED_SAMPLER} matched={gate['matched']} "
              f"evals-ratio={gate['evals_ratio']} "
              f"(limit {max_ratio}) {verdict}")
        if not gate["ok"]:
            failures.append(workload)
    warm_block = _warm_start_block()
    _print_warm_start(warm_block)
    if not warm_block["ok"]:
        failures.append("warm-start")
    if failures:
        print(f"sampler-efficiency gate failed on: {', '.join(failures)}")
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="enforce the efficiency gate against a fresh "
                             "run instead of re-recording the baseline")
    parser.add_argument("--max-ratio", type=float, default=0.5,
                        help="fail --check when the gated sampler needs "
                             "more than this fraction of the annealer's "
                             "evaluations to match its best")
    args = parser.parse_args()
    if args.check:
        return check(args.max_ratio)

    record = {
        "recorded_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "budget": "SearchBudget() defaults",
        "matrices": [m.name for m in MATRICES],
        "match_fraction": MATCH_FRACTION,
        "gated_sampler": GATED_SAMPLER,
        "workloads": {},
    }
    for workload in WORKLOADS:
        annealer_results = _search_all(workload, "annealer")
        annealer_rows = _sampler_rows(annealer_results, annealer_results)
        per_sampler = {"annealer": {"per_matrix": annealer_rows}}
        for sampler in SAMPLERS[1:]:
            rows = _sampler_rows(
                _search_all(workload, sampler), annealer_results
            )
            per_sampler[sampler] = {
                "per_matrix": rows,
                "gate": _gate(rows, annealer_rows, max_ratio=0.5),
            }
        record["workloads"][workload] = per_sampler
        for sampler, block in per_sampler.items():
            _print_rows(workload, sampler, block["per_matrix"])

    record["warm_start"] = _warm_start_block()
    _print_warm_start(record["warm_start"])

    with open(OUT_PATH, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"baseline written to {os.path.abspath(OUT_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
