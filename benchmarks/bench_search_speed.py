"""Record (or regression-check) the search-speed baseline.

Runs one standard-budget search per corpus matrix on one engine, best-of-N,
asserts the repeats agree bit-for-bit, and writes the best wall clock plus
design-memo counters to ``BENCH_search_speed.json`` at the repo root under
the ``serial_cached`` configuration name.  Not a pytest module: run it
directly.

    PYTHONPATH=src python benchmarks/bench_search_speed.py

``--check`` mode (the CI perf gate) re-measures best-of-N and fails —
without touching the committed JSON — when search runs slower than
``--max-regression`` times the recorded baseline:

    PYTHONPATH=src python benchmarks/bench_search_speed.py --check
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from datetime import datetime, timezone

from repro.gpu import A100
from repro.search import SearchBudget, SearchEngine
from repro.sparse import banded_matrix, lp_like_matrix, power_law_matrix

OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_search_speed.json")

#: the recorded configuration the gate compares against
CONFIG = "serial_cached"

MATRICES = [
    banded_matrix(768, bandwidth=4, seed=0, name="banded-768"),
    power_law_matrix(1024, avg_degree=10, seed=4, name="powerlaw-1024"),
    lp_like_matrix(400, seed=3, name="lp-400"),
]


def _run(seed: int = 0):
    engine = SearchEngine(A100, budget=SearchBudget(), seed=seed)
    t0 = time.perf_counter()
    results = engine.search_many(MATRICES)
    wall = time.perf_counter() - t0
    return wall, results


def _identities(results):
    return [[r.identity() for r in result.history] for result in results]


def check(max_regression: float, repeats: int) -> int:
    """CI perf gate: fail when search regresses vs the committed baseline.
    Best-of-``repeats`` damps scheduler noise; the factor absorbs
    machine-to-machine variance (the gate catches algorithmic
    regressions, not hardware differences)."""
    try:
        with open(OUT_PATH) as fh:
            baseline = json.load(fh)["wall_s"][CONFIG]
    except (OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"cannot load committed {CONFIG!r} baseline {OUT_PATH}: {exc}")
        return 2
    wall = min(_run()[0] for _ in range(repeats))
    ratio = wall / baseline
    verdict = "ok" if ratio <= max_regression else "REGRESSION"
    print(f"{CONFIG:>16}: {wall:6.3f}s vs recorded {baseline:6.3f}s "
          f"({ratio:4.2f}x, limit {max_regression:.1f}x) {verdict}")
    if ratio > max_regression:
        print(f"search regressed >{max_regression:.1f}x")
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed baseline "
                             "instead of re-recording it")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="fail --check when wall clock exceeds this "
                             "multiple of the recorded number")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N runs in --check")
    parser.add_argument("--record-repeats", type=int, default=5,
                        help="best-of-N runs when recording the baseline")
    args = parser.parse_args()
    if args.check:
        return check(args.max_regression, args.repeats)

    wall, results = _run()
    for _ in range(max(1, args.record_repeats) - 1):
        again_wall, again = _run()
        # Repeats must reproduce the exact candidate-by-candidate history.
        assert _identities(again) == _identities(results), (
            "search history diverged between repeats"
        )
        wall = min(wall, again_wall)
    print(f"{CONFIG:>16}: {wall:6.2f}s  "
          f"designs={sum(r.designer_runs for r in results)}  "
          f"evals={sum(r.total_evaluations for r in results)}")

    record = {
        "recorded_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "budget": "SearchBudget() defaults",
        "matrices": [m.name for m in MATRICES],
        "wall_s": {CONFIG: round(wall, 3)},
        "searches_per_min": {CONFIG: round(len(MATRICES) * 60.0 / wall, 1)},
        "total_evaluations": sum(r.total_evaluations for r in results),
        "designer_runs": sum(r.designer_runs for r in results),
        "design_cache": {
            "hits": sum(r.design_cache_hits for r in results),
            "misses": sum(r.design_cache_misses for r in results),
        },
    }
    with open(OUT_PATH, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"baseline written to {os.path.abspath(OUT_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
