"""The benchmark's three workloads: seeded inputs, set-up calls and passes.

Every workload is one process, one client and a closed loop with no think
time: the public serving API is synchronous (``Frontend.resolve`` answers
one request), so nothing queues requests and an open-loop schedule would
time the generator's own queue.  Everything runs on library defaults:
one evaluation thread, the annealer sampler, default budgets and the
default (directory) store backend.  Inputs come only from the seed,
through :func:`repro.sparse.corpus` and a seeded NumPy generator.

A *pass* is one fixed, seeded list of ops.  The timed phase repeats whole
passes, each from the same starting state, until at least ``--seconds`` of
op time is measured, so every pass does identical work and the
deterministic metrics (``store_mb``, ``gflops.geomean``,
``speedup_vs_pfs.geomean``, the serve tier counts) repeat exactly.

The corpus size grid is 1536, 2560, 4096, 6144, 9216 and 14336 rows.
``search`` draws its first three rows, ``corpus`` its first two and the
``serve`` universe its first four.  The 9216 and 14336 rows are left out
to keep a run small on a 2-core / 8 GB machine: one ``powerlaw`` search at
14336 rows alone peaks at ~2.2 GB RSS (seeds 2-5), and an 8-matrix
session at 9216 rows peaks at ~2.3 GB.

Workload notes (parent-commit values, 2-core / 8 GB x86 VM, Python 3.11)
-----------------------------------------------------------------------
``search`` — offline tuning.  Why: the Designer / plan assembly / cost
model / GBT loop does all the work; the store, baselines and serve layers
do none.  A 32-matrix prototype split as ``batch_cost`` 43%,
``batch_assembly`` 24%, ``design`` 24%, ``ml`` 3% and other 6%.
``peak_rss_mb`` shows the shared engine's caches, which never evict:

* this workload, 8-matrix sessions to 4096 rows: median 992 MB over
  seeds 201-210 (0.94-1.01 GB);
* 8-matrix sessions to 6144 rows: 1.27-1.51 GB peak;
* sessions of 4 over the whole 48-matrix corpus (seed 1): 2.9 GB peak,
  set by the 14336-row ``powerlaw`` search;
* one engine over the default 48-matrix corpus grows from 139 MB after 4
  matrices to 5.1 GB after 40 and is OOM-killed at ~41 matrices;
* the same 16 matrices need 789 MB with one shared engine and 398 MB with
  fresh engines.

Traced (seed 7): ``batch_cost`` 6.3 s, ``batch_assembly`` 4.0 s and
``design`` 3.5 s of a 16.3 s pass of 96 searches.

Noise seen while sizing: the same 16-matrix pass read 3.3-3.5 s right
after a multi-GB run, while the kernel reclaimed memory, and 2.35-2.53 s
later.  Each timed phase therefore runs in a fresh process.  On that VM a
fixed 40 ms probe loop reads 27-79 ms from second to second, and the same
seed's ``ops_per_min`` moves by up to 12% between runs.

``corpus`` — the paper's corpus evaluation, as ``bench --store DIR
--resume PATH`` runs it.  Why: the store's write-heavy use and the only
workload that runs the baselines layer and yields the speedup over PFS.
A 12-matrix prototype trace split as ``put_design`` 58.6% of wall at
~23 ms per write, ``measure_baselines`` 10.4% and ``ResultStore.put``
0.7%.  It runs the default ``dir`` backend, so a switch to ``journal``
shows up here: 16 searches with a store took 3.4 s with no store, 8.6 s
on ``dir`` and 219 s on ``journal``, whose writes replay the whole log.
Traced (seed 7): ``put_design`` 8.2 s of a 13.6 s pass (397 writes),
``measure_baselines`` 1.2 s; ``store_mb`` median 726 MB per pass over
seeds 201-210.

``serve`` — store-first serving.  Why: the store's read path does most of
the work and the search loop almost none.  A 300-request prototype split
as ``get_result`` 58.6%, ``put_design`` 9.3%, ``put_result`` 4.2% and
``result_payload`` 3.7%.  Repeats put exact hits under ``op_ms.p50``;
first touches put neighbour transfers under ``op_ms.tail``.  First
touches of unprimed families are where the transfer defect lives
(``serve.cross_family_transfers``, ``store_mb``, ``op_ms.tail``): on the
seed-2022 corpus ``outliers_007`` took a 6.5 GFLOPS design from an LP
donor where an offline search finds 95.8, and ``outliers_047`` took
8.5 s and 375 MB, after which each exact hit cost 1.5-2 s.  Cross-family
transfers carried artifacts of 48-375 MB.  In this workload (sizes to
6144 rows), seeds 201-210 read ``store_mb`` median 226 MB,
``op_ms.tail`` (p99.58) median 65 ms and ``speedup_vs_pfs.geomean`` median
0.97: answered designs are slower than the PFS pick.  Seed 7 made 9 of its
22 transfers across families; ``get_result`` took 11.6 s of a 16.8 s
traced pass.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import A100, SearchEngine, corpus
from repro.bench import ResultStore
from repro.bench.runner import CorpusRunner
from repro.search import SearchBudget
from repro.search.evaluation import matrix_token
from repro.serve import Frontend
from repro.sparse.collection import CorpusEntry
from repro.sparse.matrix import SparseMatrix
from repro.store import open_store, search_result_record

GPU = A100
#: corpus entries per size row: ``corpus()`` cycles its eight families
ROW = 8


@dataclass
class Op:
    """One op of a pass: the matrix it runs on and, for searches, a seed."""

    matrix_id: int
    matrix: SparseMatrix
    family: str
    seed: Optional[int] = None


@dataclass
class Outcome:
    """What one op delivered, recorded outside its timed interval."""

    matrix_id: int
    family: str
    ms: float
    error: str = ""
    gflops: float = 0.0
    design: str = ""  # key into the pass's designs, "" when none
    tier: str = ""  # serve: the answering tier
    donor: str = ""  # serve: the neighbour donor's name
    pfs_gflops: float = 0.0  # corpus: the runner's PFS pick
    checked: Optional[bool] = None  # search: the in-process output check


def family_of(name: str) -> str:
    return name.split("_", 1)[0]


def operand(seed: int, matrix_id: int, n_cols: int) -> np.ndarray:
    """The op's dense input vector, from the workload seed."""
    return np.random.default_rng([seed, matrix_id]).standard_normal(n_cols)


def reference_y(matrix: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """y = A x from the COO triplets, with NumPy only."""
    return np.bincount(
        matrix.rows, weights=matrix.vals * x[matrix.cols], minlength=matrix.n_rows
    )


def outputs_match(y: np.ndarray, ref: np.ndarray) -> bool:
    scale = float(np.abs(ref).max(initial=1.0))
    return bool(np.allclose(y, ref, rtol=1e-5, atol=1e-8 * scale))


def design_key(graph_dict: Dict) -> str:
    text = json.dumps(graph_dict, sort_keys=True, default=str)
    return hashlib.blake2b(text.encode(), digest_size=12).hexdigest()


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(path)
        for name in names
    )


def grid_draws(
    rng: np.random.Generator, draws: int, rows: int
) -> List[List[SparseMatrix]]:
    """``draws`` seeded corpus grids, each the eight families at the first
    ``rows`` sizes of the size grid."""
    return [
        [e.matrix for e in corpus(ROW * rows, seed=int(rng.integers(2**31)))]
        for _ in range(draws)
    ]


class Pass:
    """Per-pass recording: op latencies and delivered designs."""

    def __init__(self) -> None:
        self.outcomes: List[Outcome] = []
        self.designs: Dict[str, Dict] = {}
        self.store_bytes = 0
        #: the program's own counters for the pass (serve: ``ServeStats``)
        self.counters: Dict[str, float] = {}

    def deliver(self, outcome: Outcome, graph_dict: Optional[Dict]) -> None:
        if graph_dict is not None:
            outcome.design = design_key(graph_dict)
            self.designs.setdefault(outcome.design, graph_dict)
        self.outcomes.append(outcome)


class Clock:
    """Times one op at a time; ``on_start``/``on_end`` let the traced run
    record spans only inside op intervals."""

    def __init__(self, on_start: Callable[[int], None] = lambda _i: None,
                 on_end: Callable[[], None] = lambda: None) -> None:
        self.on_start = on_start
        self.on_end = on_end

    def time(self, index: int, fn):
        self.on_start(index)
        t0 = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:  # an op failure is counted, not fatal
            ms = (time.perf_counter() - t0) * 1e3
            self.on_end()
            return None, ms, f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - t0) * 1e3
        self.on_end()
        return value, ms, ""


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------
class SearchWorkload:
    """Offline tuning: sessions of ``engine.search(m, seed=...)``.

    A pass is four seeded draws of the grid's first three size rows (96
    matrices, every family at every size four times).  Each draw is
    searched one size row at a time, rows in seeded order: a row is a
    session of 8 searches in seeded order sharing one
    ``SearchEngine(A100)`` with no store, the way ``search_many``,
    multi-matrix ``search`` and ``CorpusRunner`` run.  One op is one
    ``engine.search(m, seed=...)``.  The delivered design is the search's
    best program, checked in-process right after the op.
    """

    name = "search"
    draws = 4
    rows = 3

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        self.seed = seed
        self.sessions: List[List[Op]] = []
        for d, draw in enumerate(grid_draws(rng, self.draws, self.rows)):
            for row in rng.permutation(self.rows):
                session = []
                for k in (row * ROW + rng.permutation(ROW)).tolist():
                    matrix = draw[k]
                    session.append(Op(d * len(draw) + k, matrix, family_of(matrix.name),
                                      seed=int(rng.integers(2**31))))
                self.sessions.append(session)
        self.by_id = {o.matrix_id: o.matrix for s in self.sessions for o in s}

    @staticmethod
    def setup(workdir: str, directory: str) -> SearchEngine:
        return SearchEngine(GPU)

    def run_pass(self, workdir: str, clock: Clock) -> Pass:
        record = Pass()
        index = 0
        for session in self.sessions:
            engine = self.setup(workdir, "")
            for op in session:
                result, ms, error = clock.time(
                    index, lambda: engine.search(op.matrix, seed=op.seed)
                )
                index += 1
                outcome = Outcome(op.matrix_id, op.family, ms, error)
                graph = None
                if result is not None:
                    outcome.gflops = float(result.best_gflops)
                    if result.best_graph is None:
                        outcome.error = "search found no valid design"
                    else:
                        graph = result.best_graph.to_dict()
                        outcome.checked = self._check(op, result)
                        # what ``search --store`` would persist for this
                        # result: the record with its artifact inline
                        record.store_bytes += len(json.dumps(
                            search_result_record(
                                op.matrix, GPU.name, result, seed=op.seed
                            )
                        ))
                record.deliver(outcome, graph)
            engine.close()
            del engine
            gc.collect()
        return record

    def _check(self, op: Op, result) -> bool:
        x = operand(self.seed, op.matrix_id, op.matrix.n_cols)
        y = result.best_program.run(x, GPU).y
        return outputs_match(y, reference_y(op.matrix, x))


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------
class CorpusWorkload:
    """The corpus evaluation: ``runner.run([entry])`` per matrix.

    A pass is two seeded 16-matrix corpus evaluations, each of every
    family at 1536 and 2560 rows.  One 24-matrix evaluation up to 4096
    rows, which moves the median op off the 1536/2560 boundary, was tried
    and was no steadier over ten seeds (``op_ms.p50`` spread 0.16 against
    0.15, ``ops_per_min`` 0.15 against 0.07) at 1.7 GB peak RSS against
    0.9 GB.  Each evaluation is one
    ``CorpusRunner(A100, store=ResultStore(path),
    design_store=open_store(dir))`` over fresh stores; one op is
    ``runner.run([entry])``: 14 baselines, the PFS pick, the search and
    persistence.  The delivered design is the result the runner wrote to
    the design store, read back after the evaluation.
    """

    name = "corpus"
    evaluations = 2
    per_evaluation = 16

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 2])
        self.seed = seed
        self.evals: List[List[Op]] = []
        mid = 0
        for _ in range(self.evaluations):
            entries = corpus(self.per_evaluation, seed=int(rng.integers(2**31)))
            self.evals.append(
                [Op(mid + e.index, e.matrix, e.family) for e in entries]
            )
            mid += self.per_evaluation
        self.by_id = {o.matrix_id: o.matrix for ev in self.evals for o in ev}

    @staticmethod
    def setup(workdir: str, directory: str) -> CorpusRunner:
        return CorpusRunner(
            GPU,
            store=ResultStore(os.path.join(directory, "results.json")),
            design_store=open_store(os.path.join(directory, "designs")),
        )

    def run_pass(self, workdir: str, clock: Clock) -> Pass:
        record = Pass()
        index = 0
        for k, ops in enumerate(self.evals):
            directory = os.path.join(workdir, f"corpus-{k}")
            shutil.rmtree(directory, ignore_errors=True)
            runner = self.setup(workdir, directory)
            outcomes = []
            for op in ops:
                entry = CorpusEntry(op.matrix_id, op.family, op.matrix)
                run, ms, error = clock.time(index, lambda: runner.run([entry]))
                index += 1
                outcome = Outcome(op.matrix_id, op.family, ms, error)
                if run is not None:
                    rec = run.records[0]
                    outcome.gflops = float(rec["search"]["best_gflops"])
                    if rec["pfs"] is not None:
                        outcome.pfs_gflops = float(rec["pfs"]["gflops"])
                outcomes.append(outcome)
            store = runner.design_store
            for op, outcome in zip(ops, outcomes):
                graph = None
                if not outcome.error:
                    stored = store.get_result(matrix_token(op.matrix), GPU.name)
                    if stored is None or stored.get("graph") is None:
                        outcome.error = "search found no valid design"
                    else:
                        graph = stored["graph"]
                record.deliver(outcome, graph)
            runner.close()
            record.store_bytes += dir_bytes(directory)
            del runner, store
            shutil.rmtree(directory, ignore_errors=True)
            gc.collect()
        return record


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------
#: families with no primed result: the corpus's three irregular families,
#: so their first touches are transfers of regular families' designs, where
#: the transfer defect lives
UNPRIMED = ("powerlaw", "lp", "outliers")
#: size rows primed for every other family (1536 and 2560)
PRIMED_ROWS = (0, 1)
#: Zipf exponent of request popularity over a family's sizes
ZIPF_S = 2.0


class ServeWorkload:
    """Store-first serving: ``frontend.resolve(m)`` over a Zipf stream.

    The universe is one seeded corpus grid (32 matrices: every family at
    1536-6144 rows).  A separate process primes a store the way ``search
    --store`` writes it with the two smallest sizes of the five regular
    families (10 matrices); the irregular ``powerlaw``, ``lp`` and
    ``outliers`` stay unprimed.  The stream gives each family the same
    number of requests and, within a family, Zipf popularity (s = 2) by
    size, smallest first, in seeded order.  One op is
    ``frontend.resolve(m)`` through one ``Frontend(A100, open_store(dir))``.

    Each pass starts from a copy of the primed store.  The 22 unprimed
    matrices are first touches (neighbour transfers, or searches when no
    transfer verifies), 16 of them at 4096 and 6144 rows; every other
    request is an exact hit, 70% of them on 1536-row matrices.  So
    ``op_ms.p50`` sits inside the 1536-row exact-hit mass and
    ``op_ms.tail``, with 10 ops beyond it, inside the large first touches.
    """

    name = "serve"
    requests = 2400

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 3])
        self.seed = seed
        self.universe = grid_draws(rng, 1, 4)[0]
        families = [family_of(m.name) for m in self.universe[:ROW]]
        self.primed = [
            row * ROW + f
            for row in PRIMED_ROWS
            for f, family in enumerate(families)
            if family not in UNPRIMED
        ]
        weights = np.arange(1, 5) ** -ZIPF_S
        per_family = self.requests // ROW
        counts = np.maximum(1, np.round(per_family * weights / weights.sum()))
        stream = np.concatenate([
            np.full(int(counts[row]), row * ROW + f)
            for f in range(ROW)
            for row in range(4)
        ])
        rng.shuffle(stream)
        self.stream = [int(i) for i in stream]
        self.by_id = dict(enumerate(self.universe))

    @staticmethod
    def primed_dir(workdir: str) -> str:
        return os.path.join(workdir, "serve-primed")

    def prime(self, workdir: str) -> None:
        """Write results the way ``python -m repro search --store DIR``
        does (its default 200-evaluation budget and seed 0); runs in a
        process of its own."""
        store = open_store(self.primed_dir(workdir))
        budget = SearchBudget(max_total_evals=200)
        for start in range(0, len(self.primed), 4):
            # a fresh engine every four searches bounds this process's
            # memory; the store contents do not depend on engine sharing
            with SearchEngine(GPU, budget=budget, seed=0, store=store) as engine:
                for i in self.primed[start:start + 4]:
                    matrix = self.universe[i]
                    result = engine.search(matrix)
                    store.put_result(
                        engine.workload.scope_token(matrix_token(matrix)),
                        GPU.name,
                        search_result_record(matrix, GPU.name, result, seed=0),
                    )
            gc.collect()

    @classmethod
    def setup(cls, workdir: str, directory: str) -> Frontend:
        return Frontend(GPU, open_store(cls.primed_dir(workdir)))

    def run_pass(self, workdir: str, clock: Clock) -> Pass:
        record = Pass()
        directory = os.path.join(workdir, "serve-pass")
        shutil.rmtree(directory, ignore_errors=True)
        shutil.copytree(self.primed_dir(workdir), directory)
        frontend = Frontend(GPU, open_store(directory))
        for index, i in enumerate(self.stream):
            matrix = self.universe[i]
            response, ms, error = clock.time(index, lambda: frontend.resolve(matrix))
            outcome = Outcome(i, family_of(matrix.name), ms, error)
            graph = None
            if response is not None:
                outcome.tier = response.source
                outcome.gflops = float(response.gflops)
                outcome.donor = response.neighbour_of
                if response.source in ("miss", "degraded"):
                    outcome.error = f"{response.source} answer"
                elif response.graph is not None:
                    graph = response.graph.to_dict()
                else:
                    outcome.error = "answer carries no design"
            record.deliver(outcome, graph)
        stats = frontend.stats()
        record.counters = {
            "exact": stats.exact_hits,
            "neighbour": stats.neighbour_hits,
            "search": stats.searches,
            "miss": stats.misses,
            "degraded": stats.degraded,
            "hit_rate": stats.hit_rate,
        }
        frontend.close()
        record.store_bytes = dir_bytes(directory)
        shutil.rmtree(directory, ignore_errors=True)
        return record


WORKLOADS = {w.name: w for w in (SearchWorkload, CorpusWorkload, ServeWorkload)}
