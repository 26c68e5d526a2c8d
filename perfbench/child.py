"""One benchmark phase in a fresh interpreter (started by ``run.py``).

    child.py setup  WORKLOAD SEED WORKDIR           -> {"setup_s": ...}
    child.py prime  serve    SEED WORKDIR           -> primes the serve store
    child.py timed  WORKLOAD SEED WORKDIR SECONDS   -> passes until SECONDS
    child.py traced WORKLOAD SEED WORKDIR           -> one traced pass
    child.py check  WORKLOAD SEED WORKDIR           -> output checks, PFS

Each phase reads and writes JSON files in WORKDIR.  ``setup`` times from
this interpreter's first statement to the end of the workload's set-up
calls: ``import repro`` plus the engine, the runner and its stores, or the
store open and the ``Frontend``.  It never covers input generation, store
priming or output checks, which other phases do.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402


def _write(workdir: str, name: str, data) -> None:
    with open(os.path.join(workdir, name), "w") as fh:
        json.dump(data, fh)


def _read(workdir: str, name: str):
    with open(os.path.join(workdir, name)) as fh:
        return json.load(fh)


def _pass_json(record: "workloads.Pass") -> dict:
    return {
        "outcomes": [asdict(o) for o in record.outcomes],
        "designs": record.designs,
        "store_bytes": record.store_bytes,
        "counters": record.counters,
    }


def setup(name: str, workdir: str) -> None:
    cls = workloads.WORKLOADS[name]
    directory = os.path.join(workdir, f"setup-{os.getpid()}")
    handle = cls.setup(workdir, directory)
    elapsed = time.perf_counter() - T0
    handle.close()
    print(json.dumps({"setup_s": elapsed}))


def timed(workload, workdir: str, seconds: float) -> None:
    clock = workloads.Clock()
    passes = []
    measured = 0.0
    while not passes or measured < seconds:
        record = workload.run_pass(workdir, clock)
        passes.append(_pass_json(record))
        measured += sum(o.ms for o in record.outcomes) / 1e3
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _write(workdir, "timed.json", {"passes": passes, "peak_rss_mb": peak})


def traced(workload, workdir: str) -> None:
    import tracing
    from repro.store import open_store

    probe = os.path.join(workdir, "store-probe")
    recorder = tracing.Recorder()
    tracing.install(recorder, type(open_store(probe)))
    clock = workloads.Clock(recorder.start_op, recorder.end_op)
    record = workload.run_pass(workdir, clock)
    wall = sum(o.ms for o in record.outcomes) / 1e3
    out = _pass_json(record)
    out["layers"] = tracing.layer_metrics(
        [s.to_list() for s in recorder.spans], wall
    )
    out["spans"] = [s.to_list() for s in recorder.spans]
    _write(workdir, "traced.json", out)


def check(workload, workdir: str) -> None:
    """Run every distinct delivered design on its op's ``x`` against a
    NumPy ``y`` from the COO triplets, and price each matrix's PFS pick."""
    from repro.baselines import PFS_MEMBERS, PerfectFormatSelector
    from repro.baselines.base import measure_baselines
    from repro.core import build_program
    from repro.core.graph import OperatorGraph

    passes = _read(workdir, "timed.json")["passes"]
    if os.path.exists(os.path.join(workdir, "traced.json")):
        passes.append(_read(workdir, "traced.json"))
    verdicts = {}
    matrices = set()
    for record in passes:
        for outcome in record["outcomes"]:
            matrices.add(outcome["matrix_id"])
            key = f"{outcome['matrix_id']}:{outcome['design']}"
            if not outcome["design"] or key in verdicts:
                continue
            if outcome["checked"] is not None:  # checked in-process
                verdicts[key] = outcome["checked"]
                continue
            matrix = workload.by_id[outcome["matrix_id"]]
            graph = OperatorGraph.from_dict(record["designs"][outcome["design"]])
            x = workloads.operand(workload.seed, outcome["matrix_id"], matrix.n_cols)
            try:
                y = build_program(matrix, graph).run(x, workloads.GPU).y
            except Exception as exc:  # a design that no longer builds fails
                print(f"check: {matrix.name}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                verdicts[key] = False
                continue
            verdicts[key] = workloads.outputs_match(y, workloads.reference_y(matrix, x))
    pfs = {}
    if workload.name != "corpus":  # the corpus runner picks PFS itself
        selector = PerfectFormatSelector()
        for mid in sorted(matrices):
            matrix = workload.by_id[mid]
            measured = measure_baselines(matrix, workloads.GPU, PFS_MEMBERS)
            pfs[mid] = selector.select_from(list(measured.values()), matrix.name).gflops
    _write(workdir, "check.json", {"verdicts": verdicts, "pfs": pfs})


def main(argv) -> None:
    phase, name, seed, workdir = argv[:4]
    if phase == "setup":
        setup(name, workdir)
        return
    workload = workloads.WORKLOADS[name](int(seed))
    if phase == "prime":
        workload.prime(workdir)
    elif phase == "timed":
        timed(workload, workdir, float(argv[4]))
    elif phase == "traced":
        traced(workload, workdir)
    elif phase == "check":
        check(workload, workdir)
    else:
        raise SystemExit(f"unknown phase {phase!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
