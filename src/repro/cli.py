"""Command-line interface — the paper's user contract as a tool.

"Users only need to input a Matrix Market file of a sparse matrix, and
AlphaSparse will output a matrix stored in a specific format and a kernel
implementation" (§III).

Commands::

    python -m repro search <matrix.mtx | @named> [more matrices ...]
                           [--gpu A100] [--evals N] [--profile]
                           [--workload spmv|spmm4|spmm16|spmvt]
                           [--out DIR] [--store DIR] [--warm-start]
                           [--no-pruning] [--extensions] [--seed S]
    python -m repro baselines <matrix.mtx | @named> [--gpu A100]
                              [--workload NAME]
    python -m repro bench <matrix.mtx | @named | @corpus:N> [more ...]
                          [--gpu A100] [--evals N] [--seed S]
                          [--workload NAME] [--resume PATH] [--store DIR]
                          [--warm-start]
    python -m repro serve <matrix.mtx | @named> [more ...] --store DIR
                          [--gpu A100] [--evals N] [--workers N]
                          [--backend auto|dir|journal] [--deadline S]
                          [--workload NAME] [--out DIR]
    python -m repro store {ls | gc | verify | compact} DIR [--repair]
    python -m repro check [--store DIR] [--matrix SPEC] [--workload NAME]
                          [--samples N] [--seed S]
    python -m repro stats <matrix.mtx | @named>
    python -m repro operators
    python -m repro matrices

``@name`` selects one of the built-in named matrices (e.g. ``@scfxm1-2r``).
``search`` accepts several matrices; they share one engine and print a
collection summary.
``bench`` runs the corpus pipeline — every baseline *and* the design
search per matrix — and prints the paper's corpus tables; ``--resume
PATH`` persists per-matrix results incrementally so an interrupted run
picks up where it stopped.  ``@corpus:N`` expands to the first N matrices
of the built-in deterministic corpus (``@corpus:K-N`` for a shard).

``--store DIR`` (search/bench) records each finished search — winning
graph, GFLOPS and exported artifact — in an on-disk
:class:`~repro.store.design.DesignStore`, so ``serve`` answers that
matrix from the store without searching.  ``--warm-start`` additionally
seeds each search's candidate stream with the store's nearest-neighbour
*winning* design (cross-matrix transfer — a corpus run's earlier
matrices warm-start its later ones).
``serve`` answers requests store-first (exact hit → feature
nearest-neighbour transfer → bounded fresh search); with ``--workers N``
it serves through a supervised multi-process resolver pool (crashed
workers restart, deadline-blown requests degrade tier-by-tier, every
request gets an answer).  ``store ls/gc/verify/compact`` inspect, prune,
integrity-check (``verify --repair`` quarantines damage) and compact a
store directory; ``--backend journal`` selects the crash-safe
append-only store backend built for multi-process serving.

``check`` runs the static verifier against the search space: it samples
candidate designs, compares the chain analysis's verdicts against the
dynamic validator (any disagreement is a ``CHECK-UNSOUND`` error) and
lints every kernel the valid designs generate.  With ``--store DIR`` it
instead audits a persisted design store (entry integrity, decoded
graphs, embedded kernel sources).  Exit status 1 on any error-severity
finding, so CI can gate on it.

``--workload`` (search/bench/serve/baselines/check) selects the operation
being tuned/measured — ``spmv`` (default), ``spmm4``/``spmm16`` (dense
multi-vector SpMM) or ``spmvt`` (transpose SpMV).  Store and cache keys
are workload-scoped, so artifacts of different workloads sharing one
store directory never cross-serve.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis import render_search_summary, render_table
from repro.baselines import PFS_MEMBERS, PerfectFormatSelector, get_baseline
from repro.bench import CorpusRunner, ResultStore, render_corpus_report
from repro.core.operators import OPERATOR_REGISTRY, Stage
from repro.export import export_program, write_artifact
from repro.gpu import gpu_by_name
from repro.search import SearchBudget, SearchEngine
from repro.search.evaluation import matrix_token
from repro.serve import Frontend, default_serve_budget
from repro.sparse import NAMED_MATRICES, corpus, named_matrix, read_matrix_market
from repro.sparse.matrix import SparseMatrix
from repro.staticcheck import Severity, Verdict, analyze_design, audit_store
from repro.store import DesignStore, StoreError, open_store, search_result_record
from repro.workloads import WORKLOADS, Workload, get_workload

__all__ = ["main"]


def _load_matrix(spec: str) -> SparseMatrix:
    if spec.startswith("@"):
        return named_matrix(spec[1:])
    return read_matrix_market(spec)


def _workload_arg(value: str) -> Workload:
    """argparse type for ``--workload``: a bad name errors with the list
    of registered workloads instead of surfacing a KeyError traceback."""
    try:
        return get_workload(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _sampler_arg(value: str):
    """argparse type for ``--sampler``: a bad name errors with the list of
    registered samplers instead of surfacing a KeyError traceback."""
    from repro.search.samplers import get_sampler

    try:
        return get_sampler(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _sampler_seed_arg(value: str) -> int:
    """argparse type for ``--sampler-seed``: rejects non-integers with a
    clean usage error instead of a runtime traceback."""
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer sampler seed, got {value!r}"
        ) from None


def _cmd_search(args: argparse.Namespace) -> int:
    specs: List[str] = args.matrix
    matrices = [_load_matrix(spec) for spec in specs]
    gpu = gpu_by_name(args.gpu)
    store = DesignStore(args.store) if args.store else None
    if args.warm_start and store is None:
        raise SystemExit("--warm-start requires --store DIR")
    engine = SearchEngine(
        gpu,
        budget=SearchBudget(max_total_evals=args.evals),
        seed=args.seed,
        enable_pruning=not args.no_pruning,
        enable_extensions=args.extensions,
        store=store,
        workload=args.workload,
        sampler=args.sampler,
        sampler_seed=args.sampler_seed,
        warm_start_store=store if args.warm_start else None,
    )
    try:
        if len(matrices) == 1:
            return _search_single(engine, matrices[0], specs[0], gpu, args)
        return _search_collection(engine, matrices, specs, gpu, args)
    finally:
        engine.close()


def _record_search_result(engine, matrix, result, args) -> None:
    """Persist one finished CLI search to the design store (result entry
    with the exported artifact inline, so ``serve`` answers it exactly),
    under the engine workload's scoped key."""
    if engine.store is None or result.best_graph is None:
        return
    engine.store.put_result(
        engine.workload.scope_token(matrix_token(matrix)),
        engine.gpu.name,
        search_result_record(matrix, engine.gpu.name, result, seed=args.seed),
    )


def _search_single(engine, matrix, spec, gpu, args) -> int:
    stats = matrix.stats
    print(f"matrix {matrix.name or spec}: {matrix.n_rows}x{matrix.n_cols}, "
          f"nnz={matrix.nnz}, row variance={stats.row_variance:.1f} "
          f"({'irregular' if stats.is_irregular else 'regular'})")
    result = engine.search(matrix)
    print(f"\nsearch: {result.total_evaluations} evaluations over "
          f"{result.structures_tried} structures in {result.wall_time_s:.1f}s"
          + (f", banned: {sorted(result.banned_operators)}"
             if result.banned_operators else ""))
    print(f"design cache: {result.designer_runs} designer runs for "
          f"{result.total_evaluations} evaluations "
          f"({result.design_cache_hits} hits / "
          f"{result.design_cache_misses} misses)")
    if result.sampler != "annealer":
        print(f"sampler: {result.sampler}, {result.sampler_pruned} "
              "candidates pruned by successive halving")
    if engine.warm_start_store is not None:
        print(f"warm start: {result.warm_start_hits} stored design(s) "
              "seeded the candidate stream")
    if args.profile:
        print()
        print(_render_profile(result))
    if result.best_graph is None:
        print("no valid candidate found within the evaluation budget; "
              "raise --evals")
        return 1
    _record_search_result(engine, matrix, result, args)
    print(f"best machine-designed {engine.workload.display}: "
          f"{result.best_gflops:.1f} GFLOPS ({gpu.name} model)")
    print("\nwinning Operator Graph:")
    print(result.best_graph.describe())
    if args.compare_pfs:
        pfs = PerfectFormatSelector().select(matrix, gpu)
        print(f"\nPFS picks {pfs.selected_format}: {pfs.gflops:.1f} GFLOPS "
              f"-> speedup {result.best_gflops / pfs.gflops:.2f}x")
    if args.out:
        manifest = export_program(result.best_program, args.out, result.best_graph)
        print(f"\nartifact exported: {manifest}")
    else:
        print("\ngenerated kernel:")
        print(result.best_program.source())
    return 0


def _render_profile(result) -> str:
    """Stage-timing breakdown of one search (``--profile``)."""
    stages = ["design", "batch_assembly", "batch_cost", "verify", "ml"]
    times = dict(result.stage_times)
    accounted = sum(times.get(s, 0.0) for s in stages)
    rows = [[s, f"{times.get(s, 0.0) * 1e3:.1f}"] for s in stages]
    rows.append(["other (search overhead)",
                 f"{max(0.0, result.wall_time_s - accounted) * 1e3:.1f}"])
    rows.append(["total wall", f"{result.wall_time_s * 1e3:.1f}"])
    table = render_table(
        f"Stage timing for {result.matrix_name} (ms)",
        ["stage", "time"],
        rows,
    )
    return (
        table
        + f"\nleaf-analysis cache: {result.analysis_cache_hits} hits / "
          f"{result.analysis_cache_misses} misses (design-level lookups)"
    )


def _search_collection(engine, matrices, specs, gpu, args) -> int:
    """Multi-matrix mode: one engine, one summary."""
    results = engine.search_many(matrices)
    print(render_search_summary(
        results, title=f"Search summary on {gpu.name} model (shared engine)"
    ))
    if args.profile:
        for result in results:
            print()
            print(_render_profile(result))
    used_dirs: set = set()
    for i, (spec, matrix, result) in enumerate(zip(specs, matrices, results)):
        if result.best_program is None:
            print(f"{matrix.name or spec}: no valid candidate found within "
                  "the evaluation budget; raise --evals")
            continue
        _record_search_result(engine, matrix, result, args)
        if args.compare_pfs:
            pfs = PerfectFormatSelector().select(matrix, gpu)
            print(f"{matrix.name or spec}: PFS picks {pfs.selected_format} "
                  f"({pfs.gflops:.1f} GFLOPS) -> speedup "
                  f"{result.best_gflops / pfs.gflops:.2f}x")
        if args.out:
            # Distinct matrices may share a name (same basename from
            # different directories); suffix collisions instead of
            # silently overwriting the earlier artifact.
            sub = matrix.name or f"matrix{i}"
            if sub in used_dirs:
                sub = f"{sub}-{i}"
            used_dirs.add(sub)
            out_dir = os.path.join(args.out, sub)
            manifest = export_program(result.best_program, out_dir, result.best_graph)
            print(f"{matrix.name or spec}: artifact exported: {manifest}")
    return 0


def _expand_bench_specs(specs: List[str]) -> List[object]:
    """Bench accepts everything ``search`` does plus ``@corpus:N`` /
    ``@corpus:K-N`` corpus slices (shard of the deterministic corpus)."""
    matrices: List[object] = []
    for spec in specs:
        if spec.startswith("@corpus:"):
            rng = spec[len("@corpus:"):]
            try:
                if "-" in rng:
                    lo, hi = (int(p) for p in rng.split("-", 1))
                else:
                    lo, hi = 0, int(rng)
            except ValueError:
                raise SystemExit(
                    f"bad corpus slice {spec!r}; use @corpus:N or @corpus:K-N"
                )
            if hi <= lo:
                raise SystemExit(f"empty corpus slice {spec!r}")
            matrices.extend(corpus(hi - lo, start=lo))
        else:
            matrices.append(_load_matrix(spec))
    return matrices


def _cmd_bench(args: argparse.Namespace) -> int:
    matrices = _expand_bench_specs(args.matrix)
    gpu = gpu_by_name(args.gpu)
    store = ResultStore(args.resume)
    design_store = DesignStore(args.store) if args.store else None
    if args.warm_start and design_store is None:
        raise SystemExit("--warm-start requires --store DIR")
    runner = CorpusRunner(
        gpu,
        budget=SearchBudget(max_total_evals=args.evals),
        seed=args.seed,
        store=store,
        progress=print,
        design_store=design_store,
        workload=args.workload,
        warm_start=args.warm_start,
    )
    with runner:
        result = runner.run(matrices)
    stats = result.stats
    print(f"\ncorpus run: {stats.measured} measured, {stats.resumed} resumed "
          f"in {stats.wall_s:.1f}s"
          + (f"; results persisted to {args.resume}" if args.resume else ""))
    if design_store is not None:
        print(f"design store: {design_store.stats().result_writes} "
              f"results written ({args.store})")
    print()
    print(render_corpus_report(
        result.records,
        title=f"Corpus evaluation on {gpu.name} model",
    ))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Store-first request resolution (exact → neighbour → bounded search).

    ``--workers N`` (N >= 1) serves through the supervised multi-process
    :class:`~repro.serve.pool.ResolverPool` instead of the in-process
    frontend: crashed workers restart, hung requests are killed at the
    deadline, and every request gets an answer — degraded if need be.
    """
    import dataclasses

    from repro.serve import ResolverPool

    matrices = [_load_matrix(spec) for spec in args.matrix]
    gpu = gpu_by_name(args.gpu)
    budget = dataclasses.replace(
        default_serve_budget(), max_total_evals=args.evals
    )
    summary = ""
    if args.workers > 0:
        with ResolverPool(gpu, args.store, workers=args.workers,
                          backend=args.backend, budget=budget,
                          seed=args.seed, workload=args.workload.name,
                          deadline_s=args.deadline) as pool:
            responses = pool.resolve_batch(matrices)
            pstats = pool.stats()
        summary = (f"pool: {args.workers} workers, "
                   f"{pstats.redispatched} re-dispatched / "
                   f"{pstats.restarts} restarts / "
                   f"{pstats.degraded} degraded")
    else:
        store = open_store(args.store, backend=args.backend)
        with Frontend(gpu, store, budget=budget, seed=args.seed,
                      workload=args.workload) as frontend:
            responses = frontend.resolve_batch(matrices)
            stats = frontend.stats()
        summary = (f"frontend: {stats.exact_hits} exact / "
                   f"{stats.neighbour_hits} neighbour / "
                   f"{stats.searches} searched / {stats.misses} missed "
                   f"(hit rate {stats.hit_rate:.0%})")
    rows = []
    for response in responses:
        detail = ""
        if response.source == "neighbour":
            detail = f"transferred from {response.neighbour_of}"
        elif response.source == "search":
            detail = f"{response.evaluations} evaluations"
        elif response.source == "degraded":
            detail = response.note
        elif response.source == "miss":
            detail = "no valid design in budget; raise --evals"
        rows.append([
            response.matrix_name or "<unnamed>",
            response.source,
            f"{response.gflops:.1f}" if response.ok else "-",
            detail,
        ])
    print(render_table(
        f"Serving {len(responses)} request(s) on {gpu.name} model "
        f"(store: {args.store})",
        ["matrix", "source", "GFLOPS", "detail"],
        rows,
    ))
    print(summary)
    if args.out:
        used_dirs: set = set()
        for i, response in enumerate(responses):
            if response.artifact is None:
                continue
            sub = response.matrix_name or f"matrix{i}"
            if sub in used_dirs:
                sub = f"{sub}-{i}"
            used_dirs.add(sub)
            manifest = write_artifact(
                response.artifact, os.path.join(args.out, sub)
            )
            print(f"{response.matrix_name}: artifact exported: {manifest}")
    return 0 if any(r.ok for r in responses) else 1


def _cmd_store(args: argparse.Namespace) -> int:
    """Maintenance subcommands over one store directory
    (ls/gc/verify/compact), backend-dispatched via ``open_store``."""
    try:
        store = open_store(args.path, create=False)
    except StoreError as exc:
        print(f"error: {exc}")
        return 2
    if args.action == "compact":
        if not hasattr(store, "compact"):
            print("error: only journal-backend stores compact; this store "
                  "uses the directory backend")
            return 2
        info = store.compact()
        print(f"compacted to epoch {info['epoch']}: {info['results']} "
              f"results + {info['claims']} claims in the snapshot, "
              f"{info['reclaimed_bytes']} journal bytes reclaimed")
        return 0
    if args.action == "ls":
        entries = store.entries()
        print(render_table(
            f"Design store {args.path} ({len(entries)} entries)",
            ["kind", "matrix", "arch", "status", "detail", "bytes"],
            [
                [e.kind, e.matrix, e.arch, "ok" if e.ok else "CORRUPT",
                 e.detail, e.bytes]
                for e in entries
            ],
        ))
        return 0
    if args.action == "verify":
        statuses = store.verify(repair=args.repair)
        bad = [s for s in statuses if not s.ok]
        for status in bad:
            print(f"CORRUPT {status.kind}/{status.filename}: {status.detail}")
        print(f"verified {len(statuses)} entries: "
              f"{len(statuses) - len(bad)} ok, {len(bad)} corrupt")
        if args.repair and getattr(store, "quarantine_log", None):
            for name, reason in store.quarantine_log:
                print(f"quarantined {name}: {reason}")
        return 1 if bad else 0
    # gc
    removed_corrupt, removed_designs = store.gc()
    for name in removed_corrupt:
        print(f"removed corrupt entry {name}")
    for name in removed_designs:
        print(f"removed legacy design entry {name}")
    print(f"gc: {len(removed_corrupt)} corrupt + "
          f"{len(removed_designs)} legacy design entries removed, "
          f"{len(store)} kept")
    return 0


def _check_probes(seed: int) -> List[SparseMatrix]:
    """Small adversarial probe matrices for the differential self-check:
    random shapes/densities plus the degenerate single-row / single-column
    cases that stress the chain analysis's coverage reasoning."""
    import numpy as np

    rng = np.random.default_rng(seed)
    probes: List[SparseMatrix] = []
    for i in range(4):
        n_rows = int(rng.integers(1, 12))
        n_cols = int(rng.integers(1, 12))
        nnz = int(rng.integers(0, n_rows * n_cols + 1))
        rows = rng.integers(0, n_rows, nnz)
        cols = rng.integers(0, n_cols, nnz)
        vals = np.where(rng.random(nnz) < 0.15, 0.0, rng.standard_normal(nnz))
        probes.append(
            SparseMatrix(n_rows, n_cols, rows, cols, vals, name=f"probe{i}")
        )
    probes.append(
        SparseMatrix(1, 5, [0] * 4, [0, 1, 2, 3], [1, 2, 3, 4], name="onerow")
    )
    probes.append(
        SparseMatrix(5, 1, [0, 1, 2, 3], [0] * 4, [1, 2, 3, 4], name="onecol")
    )
    return probes


def _check_space(args: argparse.Namespace) -> List:
    """Differential self-check: the chain analysis's verdict on every
    sampled candidate must agree with the dynamic validator (INVALID ⇒
    the build/validation refuses it; VALID ⇒ validation passes), and the
    kernels of dynamically valid designs must lint error-free."""
    import numpy as np

    from repro.core.kernel.builder import KernelBuilder
    from repro.core.optimizer import ModelDrivenCompressor
    from repro.errors import CHECK_UNSOUND
    from repro.gpu.executor import PlanValidationError, validate_plan
    from repro.search.space import (
        StructureSampler,
        enumerate_param_grid,
        graph_with_params,
        seed_structures,
    )
    from repro.staticcheck import Diagnostic, lint_kernel, matrix_facts

    workload = args.workload
    matrices = (
        [_load_matrix(args.matrix)] if args.matrix else _check_probes(args.seed)
    )
    builder = KernelBuilder(compressor=ModelDrivenCompressor(), workload=workload)
    sampler = StructureSampler(seed=args.seed, workload=workload)
    proposals = seed_structures() + [
        sampler.sample() for _ in range(args.samples)
    ]

    diagnostics: List = []
    counts = {"checked": 0, "valid": 0, "invalid": 0, "unknown": 0, "linted": 0}
    for matrix in matrices:
        facts = matrix_facts(matrix)
        for proposal in proposals:
            grid = enumerate_param_grid(
                proposal.graph, proposal.locks, level="coarse", cap=4,
                rng=np.random.default_rng(args.seed),
            )
            for assignment in grid:
                graph = graph_with_params(proposal.graph, assignment,
                                          proposal.locks)
                report = analyze_design(graph, workload, facts)
                counts["checked"] += 1
                counts[report.verdict.value] += 1
                program = None
                try:
                    leaves = builder.design_phase(matrix, graph)
                    program = builder.assembly_phase(matrix, graph, leaves)
                    dyn_ok = True
                    detail = ""
                    try:
                        for unit in program.kernels:
                            validate_plan(unit.plan, workload)
                    except PlanValidationError as exc:
                        dyn_ok = False
                        detail = str(exc)
                except Exception as exc:
                    # Build failure: an INVALID verdict is confirmed, a
                    # VALID one is vacuous (nothing ran to contradict it).
                    dyn_ok = None
                    detail = f"{type(exc).__name__}: {exc}"
                node = f"{matrix.name}:{'/'.join(graph.operator_names())}"
                if report.verdict is Verdict.INVALID and dyn_ok is True:
                    diagnostics.append(Diagnostic(
                        CHECK_UNSOUND, Severity.ERROR,
                        "chain analysis said INVALID but the design "
                        "validates dynamically",
                        node=node,
                    ))
                if report.verdict is Verdict.VALID and dyn_ok is False:
                    diagnostics.append(Diagnostic(
                        CHECK_UNSOUND, Severity.ERROR,
                        f"chain analysis said VALID but the dynamic "
                        f"validator refused the design: {detail}",
                        node=node,
                    ))
                if dyn_ok is True and program is not None:
                    for unit in program.kernels:
                        counts["linted"] += 1
                        for diag in lint_kernel(
                            unit.source, unit.plan.value_bytes, report=report
                        ):
                            if diag.severity is not Severity.ERROR:
                                continue
                            diagnostics.append(Diagnostic(
                                diag.code, diag.severity, diag.message,
                                node=f"{node}/kernel:{unit.label}"
                                + (f"/{diag.node}" if diag.node else ""),
                            ))
    print(f"checked {counts['checked']} candidate designs on "
          f"{len(matrices)} matrices ({workload.display}): "
          f"{counts['valid']} statically valid, {counts['invalid']} "
          f"refuted, {counts['unknown']} unknown; "
          f"{counts['linted']} kernels linted")
    return diagnostics


def _cmd_check(args: argparse.Namespace) -> int:
    """Static verifier entry point: store audit or space self-check."""
    if args.store:
        try:
            store = open_store(args.store, create=False)
        except StoreError as exc:
            print(f"error: {exc}")
            return 2
        diagnostics = audit_store(store)
        print(f"audited design store {args.store}: {len(store)} entries")
    else:
        diagnostics = _check_space(args)
    errors = 0
    for diag in diagnostics:
        if diag.severity is Severity.ERROR:
            errors += 1
        where = f" [{diag.node}]" if diag.node else ""
        print(f"{diag.severity.value.upper()} {diag.code}{where}: "
              f"{diag.message}")
    if errors:
        print(f"check failed: {errors} error(s), "
              f"{len(diagnostics) - errors} warning(s)")
        return 1
    print(f"check passed: 0 errors, {len(diagnostics)} warning(s)")
    return 0


def _cmd_baselines(args: argparse.Namespace) -> int:
    matrix = _load_matrix(args.matrix)
    gpu = gpu_by_name(args.gpu)
    workload = args.workload
    x = workload.make_operand(matrix, seed=0)
    reference = workload.reference(matrix, x)
    rows = []
    for name in PFS_MEMBERS + ["DIA", "TACO", "CSR-Scalar", "CSR-Vector"]:
        meas = get_baseline(name).measure(
            matrix, gpu, x, reference=reference, workload=workload
        )
        rows.append([
            name,
            meas.gflops if meas.applicable else "n/a",
            "yes" if meas.correct else ("-" if not meas.applicable else "NO"),
        ])
    rows.sort(key=lambda r: r[1] if isinstance(r[1], float) else -1.0,
              reverse=True)
    print(render_table(
        f"Baselines on {matrix.name or args.matrix} "
        f"({gpu.name} model, {workload.display})",
        ["format", "GFLOPS", "correct"],
        rows,
    ))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    matrix = _load_matrix(args.matrix)
    s = matrix.stats
    print(render_table(
        f"{matrix.name or args.matrix}",
        ["property", "value"],
        [
            ["rows", s.n_rows],
            ["cols", s.n_cols],
            ["nnz", s.nnz],
            ["avg row length", s.avg_row_length],
            ["row variance", s.row_variance],
            ["max row length", s.max_row_length],
            ["min row length", s.min_row_length],
            ["empty rows", s.empty_rows],
            ["density", s.density],
            ["irregular (paper def.)", str(s.is_irregular)],
        ],
    ))
    return 0


def _cmd_operators(_args: argparse.Namespace) -> int:
    rows = []
    for stage in Stage:
        for op in sorted(OPERATOR_REGISTRY.values(), key=lambda o: o.name):
            if op.stage is not stage:
                continue
            params = ", ".join(p.name for p in op.params) or "-"
            rows.append([op.name, stage.name.lower(), params, op.source])
    print(render_table(
        "Registered operators (paper Table II + extensions)",
        ["operator", "stage", "parameters", "source"],
        rows,
    ))
    return 0


def _cmd_matrices(_args: argparse.Namespace) -> int:
    rows = []
    for name in NAMED_MATRICES:
        m = named_matrix(name)
        rows.append([name, m.n_rows, m.nnz, m.stats.row_variance])
    print(render_table(
        "Built-in named matrices (stand-ins for the paper's case studies)",
        ["name", "rows", "nnz", "row variance"],
        rows,
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AlphaSparse reproduction: machine-designed SpMV from a matrix",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="search a machine-designed format+kernel")
    p.add_argument("matrix", nargs="+",
                   help="Matrix Market path(s) or @named-matrix(es); several "
                        "matrices share one engine")
    p.add_argument("--gpu", default="A100")
    p.add_argument("--evals", type=int, default=200,
                   help="max program evaluations")
    p.add_argument("--workload", type=_workload_arg,
                   default=get_workload("spmv"), metavar="NAME",
                   help="operation to tune for: "
                        + ", ".join(sorted(WORKLOADS))
                        + " (default: spmv)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sampler", type=_sampler_arg, default=None,
                   metavar="NAME",
                   help="candidate sampler: annealer (default, the paper's "
                        "three-level loop), qmc, tpe, or dts; adaptive "
                        "samplers add successive-halving eval pruning")
    p.add_argument("--sampler-seed", type=_sampler_seed_arg, default=None,
                   metavar="S",
                   help="seed of the adaptive samplers' private RNG "
                        "(default: derived from --seed; the annealer "
                        "ignores it)")
    p.add_argument("--out", default=None, help="export artifact directory")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="persistent design store: each finished search's "
                        "result and artifact are recorded there, so serve "
                        "answers the matrix without searching")
    p.add_argument("--warm-start", action="store_true",
                   help="seed the candidate stream with the store's "
                        "nearest-neighbour winning design (requires "
                        "--store; cross-matrix transfer, so histories "
                        "differ from cold searches)")
    p.add_argument("--no-pruning", action="store_true")
    p.add_argument("--extensions", action="store_true",
                   help="enable future-work operators (HYB_DECOMP)")
    p.add_argument("--compare-pfs", action="store_true",
                   help="also run the Perfect Format Selector")
    p.add_argument("--profile", action="store_true",
                   help="print the per-stage timing breakdown (design / "
                        "batch_assembly / batch_cost / verify / ml, plus "
                        "search overhead) and leaf-analysis cache counters")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "bench",
        help="corpus-scale evaluation: all baselines + design search per "
             "matrix, aggregated into the paper's tables",
    )
    p.add_argument("matrix", nargs="+",
                   help="Matrix Market path(s), @named-matrix(es), or "
                        "@corpus:N / @corpus:K-N corpus slices")
    p.add_argument("--gpu", default="A100")
    p.add_argument("--evals", type=int, default=160,
                   help="max search evaluations per matrix")
    p.add_argument("--workload", type=_workload_arg,
                   default=get_workload("spmv"), metavar="NAME",
                   help="operation every baseline and search measures: "
                        + ", ".join(sorted(WORKLOADS))
                        + " (default: spmv)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resume", default=None, metavar="PATH",
                   help="persist per-matrix results to PATH (JSON) as they "
                        "finish and skip matrices already recorded there")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="also record each matrix's winning result and "
                        "artifact in a persistent design store, for "
                        "--warm-start and serving")
    p.add_argument("--warm-start", action="store_true",
                   help="seed each matrix's search with the store's "
                        "nearest-neighbour winning design (requires "
                        "--store; earlier corpus matrices then warm-start "
                        "later ones)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "serve",
        help="resolve kernel requests store-first: exact design-store hit, "
             "then feature nearest-neighbour transfer, then a bounded "
             "fresh search",
    )
    p.add_argument("matrix", nargs="+",
                   help="Matrix Market path(s) or @named-matrix(es)")
    p.add_argument("--store", required=True, metavar="DIR",
                   help="design-store directory backing the frontend")
    p.add_argument("--gpu", default="A100")
    p.add_argument("--evals", type=int, default=96,
                   help="evaluation budget of the bounded fallback search")
    p.add_argument("--workload", type=_workload_arg,
                   default=get_workload("spmv"), metavar="NAME",
                   help="operation requests are resolved for (store keys "
                        "and neighbour transfers never cross workloads): "
                        + ", ".join(sorted(WORKLOADS))
                        + " (default: spmv)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=0, metavar="N",
                   help="N >= 1: serve through a supervised pool of N "
                        "resolver processes (crash restart, deadlines, "
                        "graceful degradation); 0: in-process frontend "
                        "(default)")
    p.add_argument("--backend", choices=("auto", "dir", "journal"),
                   default="auto",
                   help="store backend: auto reads the existing header "
                        "(new stores default to dir); journal is the "
                        "crash-safe multi-writer log")
    p.add_argument("--deadline", type=float, default=30.0, metavar="S",
                   help="per-request wall-clock deadline under --workers; "
                        "a worker past it is killed and the request "
                        "re-dispatched one degradation tier down")
    p.add_argument("--out", default=None,
                   help="materialise each served artifact under DIR/<name>")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "store",
        help="inspect or maintain a design store "
             "(ls / gc / verify / compact)",
    )
    p.add_argument("action", choices=("ls", "gc", "verify", "compact"),
                   help="ls: list entries; gc: prune corrupt entries, "
                        "claims and legacy design entries; verify: "
                        "integrity-check "
                        "every entry (exit 1 on corruption); compact: "
                        "fold a journal-backend store into a snapshot "
                        "and reset its log")
    p.add_argument("path", help="design-store directory")
    p.add_argument("--repair", action="store_true",
                   help="with verify: quarantine every failing entry "
                        "(directory backend moves files to corrupt/; "
                        "journal backend compacts away damaged records)")
    p.set_defaults(func=_cmd_store)

    p = sub.add_parser(
        "check",
        help="static verifier: differential soundness self-check + kernel "
             "lint over sampled designs, or (--store) a design-store audit; "
             "exit 1 on any error-severity finding",
    )
    p.add_argument("--store", default=None, metavar="DIR",
                   help="audit this design store instead of the search "
                        "space (entry integrity, decoded graphs, embedded "
                        "kernel sources)")
    p.add_argument("--matrix", default=None, metavar="SPEC",
                   help="probe matrix (path or @named) for the differential "
                        "check; default: built-in synthetic probes")
    p.add_argument("--workload", type=_workload_arg,
                   default=get_workload("spmv"), metavar="NAME",
                   help="workload the differential check runs under: "
                        + ", ".join(sorted(WORKLOADS))
                        + " (default: spmv)")
    p.add_argument("--samples", type=int, default=12,
                   help="sampled structures beyond the seeds (default 12)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("baselines", help="measure every baseline format")
    p.add_argument("matrix")
    p.add_argument("--gpu", default="A100")
    p.add_argument("--workload", type=_workload_arg,
                   default=get_workload("spmv"), metavar="NAME",
                   help="operation to measure: "
                        + ", ".join(sorted(WORKLOADS))
                        + " (default: spmv)")
    p.set_defaults(func=_cmd_baselines)

    p = sub.add_parser("stats", help="print a matrix's sparsity statistics")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("operators", help="list registered operators")
    p.set_defaults(func=_cmd_operators)

    p = sub.add_parser("matrices", help="list built-in named matrices")
    p.set_defaults(func=_cmd_matrices)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
