"""Leaf-level plan analysis: share everything runtime scalars cannot change.

Candidate evaluation during search re-assembles and re-measures one design
leaf under many runtime-parameter assignments (``SET_RESOURCES``: thread
counts and work grains).  Profiling shows most of that work is *identical*
across the whole runtime grid — the element arrays (``values`` /
``col_indices`` / ``out_rows``) belong to the leaf, not the candidate — yet
the executor used to recompute sort-based statistics and the functional
``y`` for every assignment.

This module is the plan-analysis subsystem that makes evaluation
incremental across a leaf's runtime grid:

:class:`LeafAnalysis`
    Per-design-leaf cache of the quantities runtime scalars cannot change:
    the valid-element mask, the original-row projection (``out_rows``), the
    distinct-column count, the unique output rows, the sorted
    ``(thread, row)`` pair machinery the reduction walk starts from, the
    functional ``y`` per input vector — and, keyed by the scalars that *do*
    matter, the thread distribution, the assembled
    :class:`~repro.core.kernel.program.KernelUnit` and the full cost
    projection (:class:`~repro.gpu.cost.KernelCostInputs` +
    :class:`~repro.gpu.cost.CostBreakdown`).

:class:`DesignAnalysis`
    One analysis per design: a :class:`LeafAnalysis` per kernel of the
    (possibly branching) design, the cached cross-kernel write check, and
    the cached ``spmv_allclose`` verdict — numeric verification runs once
    per design instead of once per candidate.  The search keeps one per
    design signature in its per-search state, so every analysis is dropped
    with its search (except the winner's, which its program holds).

Everything cached is the output of a deterministic function of the leaf
plus explicit key scalars, so search histories do not depend on what is
cached.  Cached arrays are handed out read-only; treat every returned
object as immutable.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "DesignAnalysis",
    "DistResult",
    "LeafAnalysis",
    "content_digest",
]


def content_digest(*parts: object) -> str:
    """blake2b-128 content address of arrays / bytes / strings.

    Shared by the leaf analyses, the engine's verify keys and the matrix
    token the store files results under.
    """
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, (bytes, bytearray)):
            h.update(part)
        elif isinstance(part, str):
            h.update(part.encode("utf-8"))
        else:
            h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DistResult:
    """One cached thread distribution (output of ``KernelBuilder._distribute``).

    ``key`` is the deps-projected runtime-scalar tuple the distribution was
    cached under.  The dependency set is pinned per leaf, so within one
    :class:`LeafAnalysis` the tuple identifies the distribution — downstream
    caches (plan, cost projection, thread stats) key on it directly, which
    is why a leaf whose distribution ignores a runtime scalar shares cost
    projections across the whole grid without hashing ``thread_of_nz``.
    """

    thread_of_nz: np.ndarray
    n_threads: int
    threads_per_block: int
    run_length: Optional[float]
    key: Tuple


class LeafAnalysis:
    """Lazy per-leaf cache of deterministic computations.

    All methods take a ``compute`` closure so this class stays free of
    builder/executor imports (those modules import *us*).  The lock only
    guards dict lookups/inserts — closures run outside it.  Two threads
    racing on a cold key may both compute; every closure is a
    deterministic function of the key, so ``setdefault`` keeps the first
    result and the duplicate is discarded unseen.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self._scalars: Dict[object, object] = {}
        self._arrays: Dict[object, np.ndarray] = {}
        self._dist: Dict[Tuple, DistResult] = {}
        self._pairs: Dict[Tuple, Tuple[np.ndarray, int]] = {}
        self._cost: Dict[Tuple, Tuple] = {}
        self._units: Dict[Tuple, Tuple] = {}
        self._y: Dict[str, Tuple] = {}
        self._x_memo: Optional[Tuple[np.ndarray, str]] = None

    # -- generic memo helpers -------------------------------------------
    def cached_array(
        self, name: object, compute: Callable[[], np.ndarray]
    ) -> np.ndarray:
        with self.lock:
            arr = self._arrays.get(name)
        if arr is None:
            value = _readonly(np.asarray(compute()))
            with self.lock:
                arr = self._arrays.setdefault(name, value)
        return arr

    def cached_scalar(self, name: object, compute: Callable[[], object]) -> object:
        with self.lock:
            if name in self._scalars:
                return self._scalars[name]
        value = compute()
        with self.lock:
            return self._scalars.setdefault(name, value)

    # -- keyed caches ----------------------------------------------------
    def distribution(
        self,
        scalars: Dict[str, object],
        compute: Callable[[], Tuple[np.ndarray, int, int, Optional[float], Tuple[str, ...]]],
    ) -> DistResult:
        """Thread distribution, keyed by the runtime scalars it depends on.

        ``compute`` returns ``(thread_of_nz, n_threads, tpb, run, deps)``
        where ``deps`` names the entries of ``scalars`` the chosen
        distribution path read.  The dependency set is a property of the
        leaf's block structure, so the first computation pins it; later
        lookups project ``scalars`` onto it — a leaf whose distribution is
        fully structural computes exactly one distribution for its whole
        runtime grid.
        """
        with self.lock:
            deps = self._scalars.get("__dist_deps")
            if deps is not None:
                dist = self._dist.get(tuple(scalars[name] for name in deps))
                if dist is not None:
                    return dist
        thread_of_nz, n_threads, tpb, run, deps = compute()
        key = tuple(scalars[name] for name in deps)
        dist = DistResult(
            thread_of_nz=_readonly(thread_of_nz),
            n_threads=int(n_threads),
            threads_per_block=int(tpb),
            run_length=run,
            key=key,
        )
        with self.lock:
            self._scalars["__dist_deps"] = deps
            return self._dist.setdefault(key, dist)

    def start_pairs(
        self, key: Tuple, compute: Callable[[], Tuple[np.ndarray, int]]
    ) -> Tuple[np.ndarray, int]:
        """Sorted distinct ``(thread, row)`` keys + base for the reduction walk."""
        with self.lock:
            pairs = self._pairs.get(key)
        if pairs is None:
            sorted_key, base = compute()
            value = (_readonly(sorted_key), int(base))
            with self.lock:
                pairs = self._pairs.setdefault(key, value)
        return pairs

    def cost_projection(self, key: Tuple, compute: Callable[[], Tuple]) -> Tuple:
        """``("ok", inputs, cost)`` or ``("error", message)`` per cost key.

        ``compute`` must return such a tuple rather than raise, so invalid
        reduction chains replay their exact :class:`PlanValidationError`
        for every candidate without re-walking the chain.
        """
        with self.lock:
            entry = self._cost.get(key)
        if entry is None:
            value = compute()
            with self.lock:
                entry = self._cost.setdefault(key, value)
        return entry

    def unit(self, key: Tuple, compute: Callable[[], Tuple]) -> Tuple:
        """``("ok", KernelUnit)`` or ``("error", exc_name, message)`` per
        runtime-parameter assignment."""
        with self.lock:
            entry = self._units.get(key)
        if entry is None:
            value = compute()
            with self.lock:
                entry = self._units.setdefault(key, value)
        return entry

    # -- batch entry points ---------------------------------------------
    def unit_batch(
        self, keys: List[Tuple], compute: Callable[[Tuple], Tuple]
    ) -> List[Tuple]:
        """Unit entries for ``keys``, in order, with batched lock trips.

        The whole runtime grid of one design group is looked up under a
        single lock acquisition; ``compute(key)`` runs once per *distinct*
        missing key (first-occurrence order, outside the lock) and the
        results are inserted with one further trip.  ``setdefault`` keeps
        a concurrently-raced first value, exactly like :meth:`unit`.
        """
        with self.lock:
            entries = {key: self._units.get(key) for key in keys}
        missing = [key for key, entry in entries.items() if entry is None]
        if missing:
            computed = {key: compute(key) for key in missing}
            with self.lock:
                for key, value in computed.items():
                    entries[key] = self._units.setdefault(key, value)
        return [entries[key] for key in keys]

    def cost_batch(
        self, keys: List[Tuple], compute: Callable[[Tuple], Tuple]
    ) -> List[Tuple]:
        """Cost-projection entries for ``keys``, in order, with batched
        lock trips — the distribution-digest analogue of :meth:`unit_batch`
        (entry shape is :meth:`cost_projection`'s)."""
        with self.lock:
            entries = {key: self._cost.get(key) for key in keys}
        missing = [key for key, entry in entries.items() if entry is None]
        if missing:
            computed = {key: compute(key) for key in missing}
            with self.lock:
                for key, value in computed.items():
                    entries[key] = self._cost.setdefault(key, value)
        return [entries[key] for key in keys]

    # -- functional execution -------------------------------------------
    def x_digest(self, x: np.ndarray) -> str:
        """Content digest of ``x`` (memoised for the common fixed-x search)."""
        with self.lock:
            memo = self._x_memo
        if memo is not None and memo[0] is x:
            return memo[1]
        digest = content_digest(x)
        with self.lock:
            self._x_memo = (x, digest)
        return digest

    def functional_y(
        self, x: np.ndarray, compute: Callable[[], Tuple], scope: str = ""
    ) -> Tuple:
        """``("ok", y)`` or ``("error", message)`` for one input operand.

        ``scope`` namespaces the entry (non-default workload token): two
        workloads may legitimately share the same operand bytes — e.g.
        SpMV and transpose SpMV on a square matrix — but never a result.
        """
        key = self.x_digest(x)
        if scope:
            key = f"{scope}:{key}"
        with self.lock:
            entry = self._y.get(key)
        if entry is None:
            value = compute()
            if value[0] == "ok":
                value = ("ok", _readonly(value[1]))
            with self.lock:
                entry = self._y.setdefault(key, value)
        return entry


class DesignAnalysis:
    """Analyses for every kernel of one cached design, plus design-level
    caches (cross-kernel write check, numeric verdict)."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self._leaves: List[LeafAnalysis] = []
        self._cross_check: Optional[Tuple] = None  # ("ok",) | ("error", msg)
        self._verdicts: Dict[str, bool] = {}

    def leaf(self, index: int) -> LeafAnalysis:
        with self.lock:
            while len(self._leaves) <= index:
                self._leaves.append(LeafAnalysis())
            return self._leaves[index]

    def cross_check(self, compute: Callable[[], Optional[str]]) -> Optional[str]:
        """Cached cross-kernel write conflict: ``None`` (ok) or the error
        message.  ``compute`` returns the same and, being deterministic,
        runs outside the lock (a racing duplicate is discarded)."""
        with self.lock:
            entry = self._cross_check
        if entry is None:
            message = compute()
            value = ("ok",) if message is None else ("error", message)
            with self.lock:
                if self._cross_check is None:
                    self._cross_check = value
                entry = self._cross_check
        return None if entry[0] == "ok" else entry[1]

    def verdict(self, key: str, compute: Callable[[], bool]) -> bool:
        """Cached numeric-verification verdict for one ``(x, reference)``
        context key — verification runs once per design, not per candidate
        (deterministic compute runs outside the lock)."""
        with self.lock:
            if key in self._verdicts:
                return self._verdicts[key]
        value = bool(compute())
        with self.lock:
            return self._verdicts.setdefault(key, value)
