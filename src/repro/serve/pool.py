"""Supervised multi-process resolver pool over one shared design store.

One :class:`~repro.serve.frontend.Frontend` answers requests in-process;
this module scales that out and — more importantly — makes it survive the
failures a real serving deployment sees: worker processes that die
mid-request, requests that hang past their deadline, a store that throws
I/O errors.  The design:

* **N resolver workers**, each a forked process owning its *own* store
  handle (journal-backend file locking mediates the shared file) and its
  own frontend and search engine.  Each worker talks to the supervisor
  over a **private duplex pipe** — deliberately *not* a shared queue:
  shared ``multiprocessing.Queue`` locks are held briefly by whichever
  process is sending, so killing a worker at the wrong instant would
  poison the lock for every survivor.  With per-worker pipes a dying
  worker can only break its own channel, which the supervisor reads as
  the death it is.
* **Supervision** — the parent schedules every request itself (it always
  knows which worker holds which request), watches worker liveness
  (``Process.is_alive`` plus a shared heartbeat array the workers stamp
  each loop) and per-request deadlines.  A dead worker is restarted (up
  to ``max_restarts``) and its in-flight request re-dispatched; a request
  past its deadline gets its worker killed and re-dispatched likewise.
* **Degradation on re-dispatch** — every re-dispatch lowers the request's
  tier cap by one rung (search → neighbour → exact → degraded), so a
  request that keeps killing workers cannot livelock the pool: it
  monotonically walks down to an answer that cannot fail.
* **At-most-once search** — before running the expensive search tier a
  worker must win a durable *claim record* in the store
  (:meth:`claim_search`, a journaled append that survives the claimant's
  death).  A re-dispatched request that fails to claim answers from the
  cheap tiers instead of re-running a search another worker may have
  completed — or may still be running.
* **Parent fallback** — when restarts are exhausted or a request falls
  off the ladder, the parent answers it inline (still honouring the
  claim fence), bottoming out at an explicit ``DEGRADED`` response.  The
  pool therefore answers **every** request, always; the counters in
  :class:`PoolStats` say how gracefully.

Fault injection (:class:`~repro.reliability.faults.FaultPlan`) is shipped
to every worker, which derives the same deterministic schedule: a
``worker_kill`` decision is a real ``os._exit`` mid-request, a
``worker_hang`` a real stall — the chaos suite drives the exact paths
described above, reproducibly.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from collections import deque
from dataclasses import dataclass, replace
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.core.graph import OperatorGraph
from repro.gpu.arch import GPUSpec
from repro.reliability.faults import FaultPlan
from repro.search.engine import SearchBudget
from repro.serve.frontend import (
    TIER_DEGRADED,
    TIER_SEARCH,
    Frontend,
    ServeResponse,
    default_serve_budget,
)
from repro.sparse.matrix import SparseMatrix
from repro.store import open_store
from repro.store.codec import key_digest
from repro.workloads import DEFAULT_WORKLOAD_NAME, get_workload

__all__ = ["ResolverPool", "PoolStats", "search_claim_key"]


def search_claim_key(workload: str, arch: str, matrix_digest: str) -> str:
    """The durable at-most-once fence for one search target."""
    return key_digest("search-claim", workload, arch, matrix_digest)


@dataclass(frozen=True)
class PoolStats:
    """Supervision counters for one pool lifetime."""

    requests: int = 0
    answered: int = 0
    #: answers produced by the explicit DEGRADED tier (worker or parent)
    degraded: int = 0
    #: re-dispatches after a worker death, deadline kill, or tier failure
    redispatched: int = 0
    #: worker processes restarted by the supervisor
    restarts: int = 0
    #: workers killed for blowing a request deadline
    deadline_kills: int = 0
    #: requests the parent answered inline (ladder exhausted)
    parent_fallbacks: int = 0
    #: search claims lost to another worker (at-most-once fence held)
    claims_lost: int = 0


def _response_doc(response: ServeResponse) -> Dict:
    """Pipe-safe dict form of a response (graph as its dict encoding)."""
    return {
        "matrix_name": response.matrix_name,
        "source": response.source,
        "gflops": response.gflops,
        "graph": None if response.graph is None else response.graph.to_dict(),
        "artifact": response.artifact,
        "neighbour_of": response.neighbour_of,
        "evaluations": response.evaluations,
        "wall_time_s": response.wall_time_s,
        "note": response.note,
    }


def _response_from_doc(doc: Dict) -> ServeResponse:
    graph = doc.get("graph")
    return ServeResponse(
        matrix_name=doc["matrix_name"],
        source=doc["source"],
        gflops=doc["gflops"],
        graph=None if graph is None else OperatorGraph.from_dict(graph),
        artifact=doc.get("artifact"),
        neighbour_of=doc.get("neighbour_of", ""),
        evaluations=doc.get("evaluations", 0),
        wall_time_s=doc.get("wall_time_s", 0.0),
        note=doc.get("note", ""),
    )


def _worker_main(
    worker_id: int,
    conn: Connection,
    store_path: str,
    backend: str,
    gpu: GPUSpec,
    budget: SearchBudget,
    seed: int,
    workload_name: str,
    include_artifacts: bool,
    faults: Optional[FaultPlan],
    heartbeat,
) -> None:
    """Resolver worker: serve tasks from the private pipe until told to
    stop (a ``None`` task or the pipe closing).

    Tasks are ``(req_id, attempt, max_tier, matrix)``.  Injected
    kills/hangs happen right after a task is received — the window where
    a real crash is hardest to tell from slowness.  Results go back as
    ``("done", req_id, attempt, doc, claim_lost)`` or
    ``("fail", req_id, attempt, error)``.
    """
    injector = faults.injector() if faults is not None else None
    try:
        store = open_store(store_path, backend=backend, faults=faults)
        frontend = Frontend(
            gpu,
            store,
            budget=budget,
            seed=seed,
            workload=get_workload(workload_name),
            include_artifacts=include_artifacts,
        )
    except Exception as exc:  # startup failure: report and die visibly
        try:
            conn.send(("worker-error", repr(exc)))
        except (BrokenPipeError, OSError):
            pass
        return
    arch = gpu.name
    workload_name = frontend.workload.name
    while True:
        heartbeat[worker_id] = time.monotonic()
        try:
            if not conn.poll(0.05):
                continue
            task = conn.recv()
        except (EOFError, OSError):
            break  # supervisor went away
        if task is None:
            break
        req_id, attempt, max_tier, matrix = task
        heartbeat[worker_id] = time.monotonic()
        if injector is not None and injector.decide(
            "worker_kill", req_id, attempt
        ):
            os._exit(17)  # a real death, not an exception
        if injector is not None and injector.decide(
            "worker_hang", req_id, attempt
        ):
            time.sleep(faults.worker_hang_s)
        try:
            response, claim_lost = _resolve_task(
                frontend, store, workload_name, arch, matrix, max_tier
            )
            message = (
                "done",
                req_id,
                attempt,
                _response_doc(response),
                claim_lost,
            )
        except Exception as exc:
            message = ("fail", req_id, attempt, repr(exc))
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):
            break


def _resolve_task(
    frontend: Frontend,
    store,
    workload_name: str,
    arch: str,
    matrix: SparseMatrix,
    max_tier: int,
) -> Tuple[ServeResponse, bool]:
    """Resolve one request with the search tier behind the claim fence.

    Cheap tiers run first; only when they degrade *and* the request is
    still allowed to search do we try to claim the search execution.
    Losing the claim means another worker ran (or is running) this
    search: the degraded answer stands rather than duplicating work.
    """
    from repro.search.evaluation import matrix_token

    cheap_cap = min(max_tier, TIER_SEARCH - 1)
    response = frontend.resolve(matrix, max_tier=cheap_cap)
    if response.source != "degraded" or max_tier < TIER_SEARCH:
        return response, False
    token = matrix_token(matrix)
    claim = search_claim_key(workload_name, arch, token[-1])
    if not store.claim_search(claim):
        return response, True
    start = time.perf_counter()
    searched = frontend._resolve_search(matrix, token)
    searched.wall_time_s = time.perf_counter() - start
    return searched, False


@dataclass
class _Slot:
    """One worker position: process handle, its pipe, current request."""

    proc: Optional[mp.Process] = None
    conn: Optional[Connection] = None
    req_id: Optional[int] = None
    started: float = 0.0


class ResolverPool:
    """Supervised worker pool answering batches of matrix requests.

    The pool's contract is *an answer for every request, in request
    order* — measured answers when the infrastructure cooperates,
    explicit ``DEGRADED`` answers when it does not.  See the module
    docstring for the supervision protocol.
    """

    def __init__(
        self,
        gpu: GPUSpec,
        store_path: str | os.PathLike,
        workers: int = 2,
        backend: str = "auto",
        budget: Optional[SearchBudget] = None,
        seed: int = 0,
        workload: str = DEFAULT_WORKLOAD_NAME,
        include_artifacts: bool = True,
        deadline_s: float = 30.0,
        max_restarts: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.gpu = gpu
        self.store_path = os.fspath(store_path)
        self.backend = backend
        self.workers = workers
        self.budget = budget or default_serve_budget()
        self.seed = seed
        self.workload = workload
        self.include_artifacts = include_artifacts
        #: per-request wall-clock deadline; a worker past it is killed
        #: and the request re-dispatched one tier down
        self.deadline_s = deadline_s
        self.max_restarts = (
            workers * 3 if max_restarts is None else max_restarts
        )
        self.faults = faults
        # the store must exist before workers race to open it
        open_store(self.store_path, backend=backend)
        self._ctx = mp.get_context("fork")
        self._heartbeat = self._ctx.Array("d", [0.0] * workers)
        self._slots: List[_Slot] = [_Slot() for _ in range(workers)]
        self._restarts_used = 0
        self._stats = PoolStats()
        self._parent_frontend: Optional[Frontend] = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "ResolverPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> PoolStats:
        return replace(self._stats)

    def heartbeats(self) -> List[float]:
        """Seconds since each worker's last heartbeat (telemetry)."""
        now = time.monotonic()
        return [now - t if t else float("inf") for t in self._heartbeat]

    def _bump(self, **deltas: int) -> None:
        self._stats = replace(
            self._stats,
            **{k: getattr(self._stats, k) + v for k, v in deltas.items()},
        )

    def _spawn(self, worker_id: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                child_conn,
                self.store_path,
                self.backend,
                self.gpu,
                self.budget,
                self.seed,
                self.workload,
                self.include_artifacts,
                self.faults,
                self._heartbeat,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()  # the child's end lives in the child only
        slot = self._slots[worker_id]
        slot.proc, slot.conn, slot.req_id = proc, parent_conn, None
        self._heartbeat[worker_id] = time.monotonic()

    def _ensure_workers(self) -> None:
        for worker_id, slot in enumerate(self._slots):
            if slot.proc is None:
                self._spawn(worker_id)

    def _retire(self, worker_id: int, kill: bool = False) -> Optional[int]:
        """Tear down one worker slot; returns its in-flight req_id."""
        slot = self._slots[worker_id]
        req_id = slot.req_id
        if slot.proc is not None:
            if kill and slot.proc.is_alive():
                slot.proc.terminate()
            slot.proc.join(timeout=1.0)
            if slot.proc.is_alive():
                slot.proc.kill()
                slot.proc.join(timeout=1.0)
        if slot.conn is not None:
            slot.conn.close()
        slot.proc, slot.conn, slot.req_id = None, None, None
        return req_id

    def _restart(self, worker_id: int) -> None:
        if self._restarts_used < self.max_restarts:
            self._restarts_used += 1
            self._bump(restarts=1)
            self._spawn(worker_id)

    def _parent(self) -> Frontend:
        """Lazy in-process frontend for supervisor-side fallbacks (it
        opens its own store handle, *without* fault injection: the parent
        is the reliability backstop, not a chaos subject)."""
        if self._parent_frontend is None:
            store = open_store(self.store_path, backend=self.backend)
            self._parent_frontend = Frontend(
                self.gpu,
                store,
                budget=self.budget,
                seed=self.seed,
                workload=get_workload(self.workload),
                include_artifacts=self.include_artifacts,
            )
        return self._parent_frontend

    def close(self) -> None:
        for worker_id, slot in enumerate(self._slots):
            if slot.conn is not None:
                try:
                    slot.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
            self._retire(worker_id)
        if self._parent_frontend is not None:
            self._parent_frontend.close()
            self._parent_frontend = None

    # ------------------------------------------------------------------
    def resolve_batch(
        self,
        matrices: Iterable[SparseMatrix],
        max_tier: int = TIER_SEARCH,
    ) -> List[ServeResponse]:
        """Answer every request; responses come back in request order."""
        matrices = list(matrices)
        if not matrices:
            return []
        self._ensure_workers()
        self._bump(requests=len(matrices))
        #: req_id -> (attempt, tier) for requests not yet answered
        pending: Dict[int, Tuple[int, int]] = {
            req_id: (0, max_tier) for req_id in range(len(matrices))
        }
        backlog: Deque[int] = deque(range(len(matrices)))
        answers: Dict[int, ServeResponse] = {}

        while len(answers) < len(matrices):
            self._drain(answers, pending, backlog)
            now = time.monotonic()
            self._check_workers(pending, backlog)
            self._check_deadlines(pending, backlog, now)
            self._assign(matrices, pending, backlog, answers)
            if len(answers) < len(matrices):
                time.sleep(0.005)
        self._bump(answered=len(matrices))
        return [answers[req_id] for req_id in range(len(matrices))]

    # ------------------------------------------------------------------
    def _assign(
        self,
        matrices: List[SparseMatrix],
        pending: Dict[int, Tuple[int, int]],
        backlog: Deque[int],
        answers: Dict[int, ServeResponse],
    ) -> None:
        """Hand backlog requests to idle workers; answer inline the ones
        the ladder (or the worker fleet) has exhausted."""
        while backlog:
            req_id = backlog[0]
            if req_id in answers:
                backlog.popleft()
                continue
            attempt, tier = pending[req_id]
            if tier <= TIER_DEGRADED or self._workers_exhausted():
                backlog.popleft()
                self._answer_inline(req_id, matrices[req_id], tier, answers)
                pending.pop(req_id, None)
                continue
            slot_id = self._idle_worker()
            if slot_id is None:
                return
            backlog.popleft()
            slot = self._slots[slot_id]
            try:
                slot.conn.send((req_id, attempt, tier, matrices[req_id]))
            except (BrokenPipeError, OSError):
                # died since the liveness sweep: requeue, let
                # _check_workers reap and restart it
                backlog.appendleft(req_id)
                return
            slot.req_id = req_id
            slot.started = time.monotonic()

    def _idle_worker(self) -> Optional[int]:
        for worker_id, slot in enumerate(self._slots):
            if (
                slot.proc is not None
                and slot.proc.is_alive()
                and slot.conn is not None
                and slot.req_id is None
            ):
                return worker_id
        return None

    def _drain(
        self,
        answers: Dict[int, ServeResponse],
        pending: Dict[int, Tuple[int, int]],
        backlog: Deque[int],
    ) -> None:
        conns = {
            slot.conn: worker_id
            for worker_id, slot in enumerate(self._slots)
            if slot.conn is not None
        }
        if not conns:
            return
        for conn in connection_wait(list(conns), timeout=0.02):
            worker_id = conns[conn]
            slot = self._slots[worker_id]
            try:
                message = conn.recv()
            except (EOFError, OSError):
                # death mid-message; _check_workers reaps the process
                continue
            kind = message[0]
            if kind == "done":
                _, req_id, attempt, doc, claim_lost = message
                slot.req_id = None
                if claim_lost:
                    self._bump(claims_lost=1)
                if req_id not in answers:
                    response = _response_from_doc(doc)
                    if response.source == "degraded":
                        self._bump(degraded=1)
                    answers[req_id] = response
                    pending.pop(req_id, None)
            elif kind == "fail":
                _, req_id, attempt, error = message
                slot.req_id = None
                if req_id not in answers:
                    self._downgrade(req_id, pending, backlog)
            elif kind == "worker-error":
                # startup failure; the process is exiting on its own and
                # _check_workers will reap and restart under the budget
                pass

    def _check_workers(
        self,
        pending: Dict[int, Tuple[int, int]],
        backlog: Deque[int],
    ) -> None:
        """Reap dead workers, re-dispatch their requests, restart them."""
        for worker_id, slot in enumerate(self._slots):
            if slot.proc is None or slot.proc.is_alive():
                continue
            req_id = self._retire(worker_id)
            if req_id is not None and req_id in pending:
                self._downgrade(req_id, pending, backlog)
            self._restart(worker_id)

    def _check_deadlines(
        self,
        pending: Dict[int, Tuple[int, int]],
        backlog: Deque[int],
        now: float,
    ) -> None:
        """Kill workers that blew a request deadline (hangs included)."""
        if self.deadline_s is None:
            return
        for worker_id, slot in enumerate(self._slots):
            if slot.req_id is None or now - slot.started <= self.deadline_s:
                continue
            self._bump(deadline_kills=1)
            req_id = self._retire(worker_id, kill=True)
            if req_id is not None and req_id in pending:
                self._downgrade(req_id, pending, backlog)
            self._restart(worker_id)

    def _downgrade(
        self,
        req_id: int,
        pending: Dict[int, Tuple[int, int]],
        backlog: Deque[int],
    ) -> None:
        """Queue one failed request for re-dispatch one tier down."""
        attempt, tier = pending.get(req_id, (0, TIER_SEARCH))
        pending[req_id] = (attempt + 1, tier - 1)
        self._bump(redispatched=1)
        backlog.append(req_id)

    def _workers_exhausted(self) -> bool:
        alive = any(
            slot.proc is not None and slot.proc.is_alive()
            for slot in self._slots
        )
        return not alive and self._restarts_used >= self.max_restarts

    def _answer_inline(
        self,
        req_id: int,
        matrix: SparseMatrix,
        tier: int,
        answers: Dict[int, ServeResponse],
    ) -> None:
        """Parent-side backstop: resolve inline at the request's current
        tier (the search tier still honours the claim fence), falling to
        an explicit DEGRADED answer on any failure — never raises."""
        frontend = self._parent()
        try:
            response, claim_lost = _resolve_task(
                frontend,
                frontend.store,
                frontend.workload.name,
                self.gpu.name,
                matrix,
                max(tier, TIER_DEGRADED),
            )
            if claim_lost:
                self._bump(claims_lost=1)
        except Exception:
            response = frontend.resolve_degraded(matrix)
        self._bump(parent_fallbacks=1)
        if response.source == "degraded":
            self._bump(degraded=1)
        answers[req_id] = response
