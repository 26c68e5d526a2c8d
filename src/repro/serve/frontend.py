"""Serving frontend: answer "give me a kernel for this matrix" requests.

The production story for AlphaSparse is a service: a user submits a sparse
matrix, the service returns a machine-designed format+kernel artifact.
Paying a full search per request is only necessary for matrices nobody has
seen before; the :class:`Frontend` resolves each request through three
tiers, cheapest first:

1. **Exact store hit** — the :class:`~repro.store.design.DesignStore`
   already holds a finished result for this exact matrix content on this
   arch: answer straight from its ~1 KB record (graph, GFLOPS and the
   ``artifact_digest`` of its artifact blob), zero computation.  The
   blob itself is never read here; a caller that materialises the
   artifact loads it with the store's ``load_artifact``.
2. **Feature-signature nearest neighbour** — find the stored result whose
   matrix statistics (the same sparsity features the pruning rules and the
   GBT cost model condition on, log-scaled; see
   :func:`repro.store.records.feature_vector`) are closest, transplant its
   winning Operator Graph onto the new matrix, build + run + numerically
   verify it.  One candidate evaluation instead of hundreds — and the
   transferred result is written back, so it becomes an exact hit next
   time.
3. **Bounded fresh search** — fall back to a real (budget-capped) search;
   its result is persisted for future requests.

Resolution is also the unit of *graceful degradation*: every tier has a
numeric rank (``TIER_SEARCH`` > ``TIER_NEIGHBOUR`` > ``TIER_EXACT`` >
``TIER_DEGRADED``) and callers may cap the most expensive tier a request
is allowed to use (``max_tier``).  When a capped request cannot be
answered from the store — or when a tier fails with infrastructure
trouble (store I/O errors, lock timeouts) — the request walks *down* the
ladder under the frontend's :class:`~repro.reliability.retry.RetryPolicy`
and bottoms out at :meth:`Frontend.resolve_degraded`, which never raises:
it answers with the nearest stored donor's design *unverified* (flagged
in ``note``, never written back) or, with an empty store, an unmeasured
CSR baseline graph.  A ``DEGRADED`` answer is explicit (``source ==
"degraded"``) so callers can tell a best-effort artifact from a measured
one.

Batches resolve in request order: each request tries the exact tier
first (a failed store read counts as a miss there), and a miss walks the
degradation ladder — neighbour transfers and fresh searches write results
that later requests chain on, so batch output is identical to sequential
resolution.  Hit/miss/fallback counters are surfaced as ``stats()``
snapshots with ``since`` deltas.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.designer import DesignError
from repro.core.graph import GraphValidationError, OperatorGraph
from repro.core.kernel.builder import BuildError
from repro.gpu.arch import GPUSpec
from repro.gpu.executor import PlanValidationError
from repro.reliability.retry import RetryPolicy
from repro.search.engine import SearchBudget, SearchEngine
from repro.search.evaluation import matrix_token
from repro.sparse.matrix import SparseMatrix
from repro.store.design import DesignStore
from repro.store.errors import StoreError
from repro.store.records import (
    feature_vector,
    make_result_record,
    nearest_result_digest,
    search_result_record,
)
from repro.workloads import Workload, ensure_engine_workload

__all__ = [
    "Frontend",
    "ServeResponse",
    "ServeStats",
    "default_serve_budget",
    "default_fallback_policy",
    "TIER_DEGRADED",
    "TIER_EXACT",
    "TIER_NEIGHBOUR",
    "TIER_SEARCH",
]

#: Degradation-ladder ranks: a request's ``max_tier`` caps the most
#: expensive tier it may use; infrastructure failures walk it down one
#: rung per retry.  ``TIER_DEGRADED`` answers always succeed.
TIER_DEGRADED = 0
TIER_EXACT = 1
TIER_NEIGHBOUR = 2
TIER_SEARCH = 3


def default_fallback_policy() -> RetryPolicy:
    """Serve-tier fallback: each infrastructure failure burns one attempt
    and one ladder rung.  Store trouble (I/O errors, lock timeouts) is
    retryable; anything else is a programming error and propagates."""
    return RetryPolicy(
        attempts=4,
        base_delay_s=0.01,
        multiplier=2.0,
        max_delay_s=0.2,
        retry_on=(OSError, StoreError),
    )


def default_serve_budget() -> SearchBudget:
    """The bounded fresh-search budget: deep enough to find a usable
    design, far below the offline-search default (320 evaluations)."""
    return SearchBudget(
        max_structures=12,
        coarse_evals_per_structure=8,
        max_total_evals=96,
        ml_top_k=4,
    )


@dataclass(frozen=True)
class ServeStats:
    """Per-tier request counters (``since``-comparable snapshots)."""

    exact_hits: int = 0
    neighbour_hits: int = 0
    searches: int = 0
    misses: int = 0
    #: requests re-resolved after an infrastructure failure (each ladder
    #: step counts once — a request retried twice adds two)
    retried: int = 0
    #: requests answered by the explicit DEGRADED tier
    degraded: int = 0

    @property
    def requests(self) -> int:
        return (
            self.exact_hits
            + self.neighbour_hits
            + self.searches
            + self.misses
            + self.degraded
        )

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served without a fresh search."""
        total = self.requests
        return (self.exact_hits + self.neighbour_hits) / total if total else 0.0

    def since(self, other: "ServeStats") -> "ServeStats":
        return ServeStats(
            exact_hits=self.exact_hits - other.exact_hits,
            neighbour_hits=self.neighbour_hits - other.neighbour_hits,
            searches=self.searches - other.searches,
            misses=self.misses - other.misses,
            retried=self.retried - other.retried,
            degraded=self.degraded - other.degraded,
        )


@dataclass
class ServeResponse:
    """One resolved request.

    ``source`` is the tier that answered: ``"store"`` (exact hit),
    ``"neighbour"`` (transferred design), ``"search"`` (fresh bounded
    search), ``"degraded"`` (best-effort answer under failure or a tier
    cap — ``note`` says what it is and ``gflops`` is *not* a measurement
    on this matrix) or ``"miss"`` (the bounded search found no valid
    design — raise the budget or search offline).  ``artifact`` is the
    :func:`repro.export.program_payload` dict; materialise it with
    :func:`repro.export.write_artifact`.  An exact hit leaves it None and
    names the stored blob in ``artifact_digest`` instead: load it with
    the store's ``load_artifact`` (records written before artifacts were
    split off still carry it inline, and then ``artifact`` is set).
    """

    matrix_name: str
    source: str
    gflops: float
    graph: Optional[OperatorGraph] = None
    artifact: Optional[Dict] = field(default=None, repr=False)
    #: the store's artifact blob for this answer (None: none stored)
    artifact_digest: Optional[str] = None
    neighbour_of: str = ""
    evaluations: int = 0
    wall_time_s: float = 0.0
    #: human-readable caveat for degraded answers ("" otherwise)
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.source != "miss"


class Frontend:
    """Store-first request resolution over one shared search engine.

    ``engine`` may be injected to share one engine beyond one frontend
    (an injected engine is the caller's to close); otherwise the frontend
    owns an engine built from ``budget``.
    """

    def __init__(
        self,
        gpu: GPUSpec,
        store: DesignStore,
        budget: Optional[SearchBudget] = None,
        seed: int = 0,
        engine: Optional[SearchEngine] = None,
        include_artifacts: bool = True,
        workload: Optional[Workload] = None,
        fallback_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.gpu = gpu
        self.store = store
        self.arch = gpu.name
        self.seed = seed
        #: omit artifact payloads from responses/records (smaller stores
        #: when callers only want the measured numbers)
        self.include_artifacts = include_artifacts
        self._owns_engine = engine is None
        ensure_engine_workload(engine, workload)
        self.engine = engine or SearchEngine(
            gpu,
            budget=budget or default_serve_budget(),
            seed=seed,
            workload=workload,
        )
        #: the operation requests are resolved for: store lookups are
        #: scoped to it and the neighbour tier only considers donors of
        #: the same workload, so a SpMM request can never be answered
        #: with a SpMV artifact.
        self.workload = self.engine.workload
        #: degradation-ladder retry budget for infrastructure failures
        self.fallback_policy = fallback_policy or default_fallback_policy()
        self._lock = threading.Lock()
        self._stats = ServeStats()
        #: cached neighbour-ranking index (one store scan, reused across
        #: requests; invalidated whenever this frontend writes a result)
        self._metas: Optional[List[Tuple[str, Dict]]] = None

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._owns_engine:
            self.engine.close()

    def __enter__(self) -> "Frontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> ServeStats:
        with self._lock:
            return replace(self._stats)

    def refresh(self) -> None:
        """Drop the cached neighbour index — call when *another* process
        has been writing to the shared store.  This frontend's own writes
        invalidate it automatically."""
        with self._lock:
            self._metas = None

    def _cached_metas(self) -> List[Tuple[str, Dict]]:
        with self._lock:
            metas = self._metas
        if metas is None:
            metas = self.store.result_metas(self.arch)
            with self._lock:
                # Two threads may race on a cold cache; both scans return
                # the same listing, keep whichever landed first.
                if self._metas is None:
                    self._metas = metas
                metas = self._metas
        return metas

    def _record_result(self, token: Tuple, record: Dict) -> Optional[str]:
        """Persist one result under the workload-scoped key; returns the
        stored artifact blob's digest.

        ``token`` is the *raw* matrix token everywhere in this class;
        scoping happens only at the store boundary (here and in
        :meth:`_from_store`), so self-exclusion and seed derivation keep
        using the plain matrix digest.
        """
        digest = self.store.put_result(
            self.workload.scope_token(token), self.arch, record
        )
        self.refresh()
        return digest

    def _count(self, tier: str) -> None:
        with self._lock:
            self._stats = replace(
                self._stats, **{tier: getattr(self._stats, tier) + 1}
            )

    # ------------------------------------------------------------------
    def resolve(
        self, matrix: SparseMatrix, max_tier: int = TIER_SEARCH
    ) -> ServeResponse:
        """Resolve one request: exact hit → neighbour → bounded search.

        ``max_tier`` caps the most expensive tier: ``TIER_NEIGHBOUR``
        forbids fresh searches (a capped request the store cannot answer
        degrades instead of searching), ``TIER_EXACT`` additionally
        forbids transfer evaluation, ``TIER_DEGRADED`` answers from
        :meth:`resolve_degraded` outright.
        """
        start = time.perf_counter()
        token = matrix_token(matrix)
        response = self._resolve_tier(matrix, token, max_tier)
        response.wall_time_s = time.perf_counter() - start
        return response

    def resolve_batch(
        self, matrices: Iterable[SparseMatrix], max_tier: int = TIER_SEARCH
    ) -> List[ServeResponse]:
        """Resolve many requests; responses come back in request order.

        Requests resolve one after another, so a request sees every
        earlier request's write-back (neighbour transfers and fresh
        searches), exactly as sequential :meth:`resolve` calls would.

        One request's failure never loses the rest of the batch: an exact
        read that fails counts as a miss, and the request is then
        re-resolved down the degradation ladder (:attr:`fallback_policy`),
        bottoming out at a ``DEGRADED`` answer.  The ``retried``/
        ``degraded`` counters on :meth:`stats` surface how often that
        happened.
        """
        responses: List[ServeResponse] = []
        for matrix in matrices:
            t0 = time.perf_counter()
            token = matrix_token(matrix)
            try:
                response = self._from_store(matrix, token)
            except self.fallback_policy.retry_on:
                response = None
            if response is not None:
                self._count("exact_hits")
            else:
                response = self._resolve_with_fallback(matrix, token, max_tier)
            response.wall_time_s = time.perf_counter() - t0
            responses.append(response)
        return responses

    def _resolve_tier(
        self, matrix: SparseMatrix, token: Tuple, max_tier: int
    ) -> ServeResponse:
        """One pass down the tiers, capped at ``max_tier``.  Tier failures
        propagate; :meth:`_resolve_with_fallback` adds the retry ladder."""
        if max_tier <= TIER_DEGRADED:
            return self.resolve_degraded(matrix, token)
        response = self._from_store(matrix, token)
        if response is not None:
            self._count("exact_hits")
            return response
        if max_tier >= TIER_NEIGHBOUR:
            response = self._from_neighbour(matrix, token)
            if response is not None:
                self._count("neighbour_hits")
                return response
        if max_tier >= TIER_SEARCH:
            return self._resolve_search(matrix, token)
        return self.resolve_degraded(matrix, token)

    def _resolve_with_fallback(
        self, matrix: SparseMatrix, token: Tuple, max_tier: int
    ) -> ServeResponse:
        """Walk the degradation ladder under :attr:`fallback_policy`.

        Each retryable infrastructure failure (store I/O, lock timeout)
        burns one policy attempt *and* one tier: a request that failed at
        the search tier retries capped at neighbour, then exact, then
        answers degraded.  Non-retryable exceptions propagate — a
        programming error must never be papered over as degradation.
        """
        policy = self.fallback_policy
        tier = max_tier
        for attempt in range(policy.attempts):
            try:
                return self._resolve_tier(matrix, token, tier)
            except policy.retry_on:
                self._count("retried")
                tier -= 1
                if tier <= TIER_DEGRADED or attempt + 1 >= policy.attempts:
                    break
                time.sleep(policy.delay(attempt))
        return self.resolve_degraded(matrix, token)

    def resolve_degraded(
        self, matrix: SparseMatrix, token: Optional[Tuple] = None
    ) -> ServeResponse:
        """The explicit DEGRADED answer: best known artifact, zero
        evaluation, never raises.

        Preference order: the nearest stored donor's design *unverified*
        (``gflops`` is the donor's measurement on the donor's matrix, not
        this one — ``note`` says so, and nothing is written back), else an
        unmeasured CSR baseline graph (the paper evaluation's universal
        fallback format), else a graph-less answer carrying only the
        explanation.  ``ok`` stays True: the caller got the best artifact
        the degraded service could produce, explicitly flagged.
        """
        if token is None:
            token = matrix_token(matrix)
        graph = None
        gflops = 0.0
        donor_name = ""
        note = ""
        try:
            donor = self._nearest(matrix, token)
        except Exception:
            donor = None
        if donor is not None:
            try:
                graph = OperatorGraph.from_dict(donor["graph"])
                donor_name = str(
                    donor.get("name") or donor.get("matrix_digest", "")
                )
                gflops = float(donor.get("best_gflops", 0.0))
                note = (
                    f"degraded: unverified transfer from {donor_name!r}; "
                    "gflops is the donor's measurement, not this matrix's"
                )
            except (KeyError, TypeError, ValueError, GraphValidationError):
                graph = None
        if graph is None:
            try:
                from repro.baselines import get_baseline

                graph = get_baseline("CSR").graph(matrix)
                gflops = 0.0
                note = "degraded: unmeasured CSR baseline graph"
            except Exception:
                graph = None
                note = (
                    "degraded: no stored donor and no applicable baseline; "
                    "answer carries no design"
                )
        self._count("degraded")
        return ServeResponse(
            matrix_name=matrix.name,
            source="degraded",
            gflops=gflops,
            graph=graph,
            neighbour_of=donor_name,
            note=note,
        )

    # ------------------------------------------------------------------
    # Tier 1 + 2 (cheap)
    # ------------------------------------------------------------------
    def _from_store(
        self, matrix: SparseMatrix, token: Tuple
    ) -> Optional[ServeResponse]:
        record = self.store.get_result(
            self.workload.scope_token(token), self.arch
        )
        if record is None or record.get("graph") is None:
            return None
        return ServeResponse(
            matrix_name=matrix.name or record.get("name", ""),
            source="store",
            gflops=float(record["best_gflops"]),
            graph=OperatorGraph.from_dict(record["graph"]),
            artifact=record.get("artifact"),
            artifact_digest=record.get("artifact_digest"),
            neighbour_of=record.get("neighbour_of", ""),
        )

    def _from_neighbour(
        self, matrix: SparseMatrix, token: Tuple
    ) -> Optional[ServeResponse]:
        donor = self._nearest(matrix, token)
        if donor is None:
            return None
        try:
            graph = OperatorGraph.from_dict(donor["graph"])
        except (KeyError, TypeError, ValueError, GraphValidationError):
            return None
        evaluated = self._evaluate_transfer(matrix, graph)
        if evaluated is None:
            return None
        gflops, program = evaluated
        donor_name = str(donor.get("name") or donor.get("matrix_digest", ""))
        record = make_result_record(
            matrix,
            self.arch,
            gflops,
            graph,
            program=program if self.include_artifacts else None,
            via="neighbour",
            neighbour_of=donor_name,
            workload=self.workload.name,
        )
        artifact_digest = self._record_result(token, record)
        return ServeResponse(
            matrix_name=matrix.name,
            source="neighbour",
            gflops=gflops,
            graph=graph,
            artifact=record["artifact"],
            artifact_digest=artifact_digest,
            neighbour_of=donor_name,
            evaluations=1,
        )

    def _nearest(
        self, matrix: SparseMatrix, token: Tuple
    ) -> Optional[Dict]:
        """The stored result with the closest feature signature (excluding
        the matrix itself), deterministically tie-broken.

        Ranking walks the store's result records — O(results) reads of
        ~1 KB — and never an artifact blob.  The ranking rule itself is
        :func:`repro.store.records.nearest_result_digest`, shared with the
        engine's cross-matrix warm start."""
        digest = nearest_result_digest(
            self._cached_metas(),
            feature_vector(matrix),
            workload=self.workload.name,
            exclude_digest=token[-1],
        )
        if digest is None:
            return None
        return self.store.result_payload(digest)

    def _evaluate_transfer(self, matrix: SparseMatrix, graph: OperatorGraph):
        """Build + run + numerically verify one transplanted design.

        A donor graph is a full candidate (structure + parameters); it may
        simply not apply to the new matrix — every such failure means
        falling through to the search tier, never an error."""
        x = self.workload.make_operand(matrix)
        reference = self.workload.reference(matrix, x)
        try:
            program = self.engine.evaluator.build(matrix, graph)
            result = program.run(x, self.gpu, workload=self.workload)
        except (DesignError, BuildError, PlanValidationError, GraphValidationError):
            return None
        if not self.workload.allclose(result.y, reference):
            return None
        if result.gflops <= 0.0:
            return None
        return float(result.gflops), program

    # ------------------------------------------------------------------
    # Tier 3: bounded fresh search
    # ------------------------------------------------------------------
    def _search_seed(self, token: Tuple) -> int:
        """Content-derived seed — the corpus runner's exact scheme (same
        truncated digest), so a frontend fallback search and a ``bench
        --store`` run persist the *same* design for the same matrix and
        base seed, and request order never changes what a search finds."""
        return (self.seed + int(token[-1][:16], 16)) % (2**63)

    def _resolve_search(
        self, matrix: SparseMatrix, token: Tuple
    ) -> ServeResponse:
        seed = self._search_seed(token)
        result = self.engine.search(matrix, seed=seed)
        if result.best_graph is None:
            self._count("misses")
            return ServeResponse(
                matrix_name=matrix.name,
                source="miss",
                gflops=0.0,
                evaluations=result.total_evaluations,
            )
        record = search_result_record(
            matrix,
            self.arch,
            result,
            seed=seed,
            include_artifact=self.include_artifacts,
        )
        artifact_digest = self._record_result(token, record)
        self._count("searches")
        return ServeResponse(
            matrix_name=matrix.name,
            source="search",
            gflops=result.best_gflops,
            graph=result.best_graph,
            artifact=record["artifact"],
            artifact_digest=artifact_digest,
            evaluations=result.total_evaluations,
        )
