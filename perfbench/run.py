"""The repository's benchmark: ``search``, ``corpus`` and ``serve`` workloads.

    python3 perfbench/run.py --workload search --seed 2022 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1      # every workload

Run from the repository root; it needs ``src/repro`` and nothing else
outside ``perfbench/``.  Each workload (see ``workloads.py``) runs as fresh
child processes (``child.py``), one phase each:

1. ``prime`` (``serve`` only): writes the primed store;
2. ``setup`` x8: ``setup_s`` is the median of seven fresh interpreters'
   time to ready for the first op, after one discarded start that warms
   the page cache;
3. ``timed``: whole passes of the workload's seeded ops until at least
   ``--seconds`` of op time is measured; every end-to-end metric except
   ``setup_s`` comes from here.  Passes are sized to take longer than
   ``run_seconds`` on the parent commit, so every run there is one pass:
   a process's first pass runs 10-20% slower than later ones (heap
   growth), and mixing one- and two-pass runs would widen the spread;
4. ``traced`` (``--trace 1``): one more pass with spans recorded around
   the layers' public entry points (``tracing.py``);
5. ``check``: every distinct delivered design runs on its op's ``x`` and
   is compared with a NumPy ``y`` from the COO triplets; the PFS pick of
   each ``search`` and ``serve`` matrix is priced.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  An op fails on an exception, a
``miss`` or ``degraded`` answer, a search with no valid design, or a
failed output check; failures are counted as found.

End-to-end metrics:

* ``setup_s``: see above; never input generation, priming or checks.
* ``ops_per_min``: completed ops per minute of op time.
* ``op_ms.p50``, ``op_ms.tail``: the median op latency, and the latency
  at q = 100 * (1 - 10 / ops per pass), the highest percentile with at
  least 10 ops of one pass beyond it (q is printed with n).  Passes repeat
  the same ops, so a commit that fits more passes estimates the same q.
* ``peak_rss_mb``: ``ru_maxrss`` of the process that ran only the timed
  phase.
* ``store_mb`` (deterministic): bytes of one pass's stores at its end
  (``corpus``, ``serve``).  ``search`` has no store; there it is the bytes
  of the result records ``search --store`` would write for the pass, with
  their artifacts inline.
* ``gflops.geomean`` (deterministic): simulated GFLOPS of delivered
  designs: the best per search, the best per matrix, the design per
  answered request.  A result of the reproduction, not system speed; it
  catches a change that gets faster by finding worse designs.
* ``speedup_vs_pfs.geomean`` (deterministic): delivered GFLOPS over the
  Perfect Format Selector's pick on the same matrix, per op.  ``corpus``
  uses the runner's own PFS pick; ``search`` and ``serve`` price it in the
  check phase.

The default seed is 2022 (the corpus's own default); seed 7 is held out
for checking a later claim on a seed not used while writing it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("search", "corpus", "serve")
DEFAULT_SEED = 2022
SETUP_CHILDREN = 7
#: deadline for one workload's phases (a run must end within 180 s)
BUDGET_S = 170.0

#: metric names, units and run length are declared once, in BENCHMARK.json
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


class BenchError(RuntimeError):
    pass


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _geomean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Runner:
    def __init__(self, seed: int, seconds: int, workdir: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.deadline = 0.0
        self.env = dict(os.environ)
        # library defaults are single-threaded; keep BLAS pools at one too
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.env["TMPDIR"] = workdir

    def child(self, *args: str) -> str:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"out of time before phase {args[0]}")
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, *args],
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"phase {args[0]} overran the time budget") from None
        if proc.returncode != 0:
            raise BenchError(f"phase {args[0]} exited with {proc.returncode}")
        return proc.stdout

    def read(self, name: str):
        with open(os.path.join(self.workdir, name)) as fh:
            return json.load(fh)

    def run(self, workload: str, trace: bool) -> "Result":
        self.deadline = time.monotonic() + BUDGET_S
        seed = str(self.seed)
        for name in ("timed.json", "traced.json", "check.json"):
            if os.path.exists(os.path.join(self.workdir, name)):
                os.remove(os.path.join(self.workdir, name))
        if workload == "serve":
            self.child("prime", workload, seed, self.workdir)
        # one discarded start first, so every timed start finds the
        # interpreter and the library in the page cache
        self.child("setup", workload, seed, self.workdir)
        setups = [
            json.loads(self.child("setup", workload, seed, self.workdir)
                       .splitlines()[-1])["setup_s"]
            for _ in range(SETUP_CHILDREN)
        ]
        self.child("timed", workload, seed, self.workdir, str(self.seconds))
        if trace:
            self.child("traced", workload, seed, self.workdir)
        self.child("check", workload, seed, self.workdir)
        timed = self.read("timed.json")
        checks = self.read("check.json")
        traced = self.read("traced.json") if trace else None
        result = Result(workload, timed, traced, checks)
        result.metrics = (
            result.per_layer() if trace else result.end_to_end(setups)
        )
        if traced is not None:
            os.makedirs(os.path.join(ROOT, ".perfbench", "traces"), exist_ok=True)
            trace_path = os.path.join(
                ROOT, ".perfbench", "traces", f"{workload}-seed{seed}.json"
            )
            with open(trace_path, "w") as fh:
                json.dump({"spans": traced["spans"], "layers": traced["layers"]}, fh)
            result.notes.append(f"spans written to {os.path.relpath(trace_path, ROOT)}")
        return result


class Result:
    def __init__(self, workload, timed, traced, checks) -> None:
        self.workload = workload
        self.timed = timed
        self.traced = traced
        self.verdicts = checks["verdicts"]
        self.pfs = {int(k): v for k, v in checks["pfs"].items()}
        self.metrics: dict = {}
        self.notes: list = []
        passes = timed["passes"] + ([traced] if traced else [])
        outcomes = [o for p in passes for o in p["outcomes"]]
        reasons = Counter(filter(None, map(self.failure, outcomes)))
        self.attempted = len(outcomes)
        self.failed = sum(reasons.values())
        for reason, count in reasons.most_common():
            self.notes.append(f"failed x{count}: {reason}")

    def failure(self, outcome) -> str:
        if outcome["error"]:
            return outcome["error"]
        if not outcome["design"]:
            return "no design delivered"
        key = f"{outcome['matrix_id']}:{outcome['design']}"
        if not self.verdicts.get(key, False):
            return "output check failed"
        return ""

    def end_to_end(self, setups) -> dict:
        passes = self.timed["passes"]
        first = passes[0]["outcomes"]
        ms = [o["ms"] for p in passes for o in p["outcomes"]]
        q = 100.0 * (1.0 - 10.0 / len(first))
        delivered = [o for o in first if not self.failure(o) and o["gflops"] > 0]
        pfs = [
            o["pfs_gflops"] if self.workload == "corpus" else self.pfs[o["matrix_id"]]
            for o in delivered
        ]
        store_bytes = {p["store_bytes"] for p in passes}
        if len(store_bytes) > 1:
            self.notes.append(f"store bytes differ between passes: {sorted(store_bytes)}")
        self.notes.append(
            f"{len(passes)} pass(es), n={len(ms)} ops ({len(first)} per pass); "
            f"op_ms.tail is p{q:.4g}; setup_s is the median of {setups}"
        )
        return {
            "setup_s": statistics.median(setups),
            "ops_per_min": 60.0 * len(ms) / (sum(ms) / 1e3),
            "op_ms.p50": _percentile(ms, 50.0),
            "op_ms.tail": _percentile(ms, q),
            "peak_rss_mb": self.timed["peak_rss_mb"],
            "store_mb": passes[0]["store_bytes"] / 1e6,
            "gflops.geomean": _geomean(o["gflops"] for o in delivered),
            "speedup_vs_pfs.geomean": _geomean(
                o["gflops"] / p for o, p in zip(delivered, pfs) if p > 0
            ),
        }

    def per_layer(self) -> dict:
        traced = self.traced
        metrics = dict(traced["layers"])
        untraced = statistics.median(
            sum(o["ms"] for o in p["outcomes"]) / 1e3 for p in self.timed["passes"]
        )
        metrics["trace_overhead_frac"] = metrics["traced_wall_s"] / untraced - 1.0
        counters = traced["counters"]
        outcomes = traced["outcomes"]
        for key in ("exact", "neighbour", "search", "miss", "degraded", "hit_rate"):
            metrics[f"serve.{key}"] = counters.get(key, 0)
        metrics["serve.cross_family_transfers"] = sum(
            1 for o in outcomes
            if o["tier"] == "neighbour" and o["donor"].split("_", 1)[0] != o["family"]
        )
        for metric, tier in (("exact", "store"), ("neighbour", "neighbour")):
            ms = [o["ms"] for o in outcomes if o["tier"] == tier]
            metrics[f"serve.{metric}_ms.p50"] = _percentile(ms, 50.0) if ms else 0.0
        self.notes.append(
            f"traced wall {metrics['traced_wall_s']:.3f} s vs untraced median "
            f"pass {untraced:.3f} s"
        )
        return metrics


def _with_units(metrics: dict, declared: list) -> dict:
    """``metrics`` in the declared order with their declared units; a
    metric computed but not declared, or declared but not computed, is a
    benchmark bug."""
    if set(metrics) != {m["name"] for m in declared}:
        raise BenchError(
            f"metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ {m['name'] for m in declared})}"
        )
    return {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
        for m in declared
    }


def main(argv=None) -> int:
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no src/repro under {ROOT}; run from a repository checkout",
              file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    runner = Runner(args.seed % 2**32, args.seconds, workdir)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = runner.run(name, bool(args.trace))
            result.metrics = _with_units(result.metrics, declared)
            results.append(result)
            print(f"== {name} (seed {args.seed}): attempted {result.attempted}, "
                  f"failed {result.failed}")
            for note in result.notes:
                print(f"   {note}")
            for metric, entry in result.metrics.items():
                print(f"   {metric:34s} {entry['value']:>14.6g} {entry['unit']}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result.workload}/"
        metrics.update({prefix + k: v for k, v in result.metrics.items()})
    failed = sum(r.failed for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
