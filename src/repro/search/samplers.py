"""Pluggable candidate samplers: the ask/tell layer of the search engine.

The three-level engine historically hard-wired *how* candidates are chosen:
annealing over structures, a stratified coarse grid per structure, GBT
interpolation on top.  This module makes that choice a first-class plugin
(the same move the workload layer made for *what* is tuned): a
:class:`Sampler` proposes evaluation batches (``ask``) and folds measured
results back in (``tell``), while the engine keeps everything samplers must
not own — budgets, static pruning, the staged evaluator, history recording.

Three samplers ship:

``annealer`` (:class:`~repro.search.annealing.AnnealerSampler`)
    The historical behaviour behind the interface — structure proposals
    with archetype seeding, simulated-annealing acceptance/termination and
    the stratified coarse grid.  It is the default and draws from the
    *engine's* RNG in exactly the legacy order, so default-sampler search
    histories stay byte-identical to the pre-interface code (golden-digest
    asserted in ``tests/test_search_samplers.py``).

``qmc`` (:class:`QMCSampler`)
    Quasi-Monte-Carlo startup sampler: scrambled Sobol'-style digital
    points over every structure's runtime-parameter grid.  Space-filling
    coverage with no model — the recommended startup phase and a strong
    cheap baseline for the sample-efficiency benchmark.

``tpe`` (:class:`TPESampler`)
    Tree-structured-Parzen-Estimator-style sampler: told observations are
    split into good/bad sets by a gamma quantile, per-parameter discrete
    densities are fit to each, and candidates are asked by expected-
    improvement ratio ``l_good / l_bad`` (the optuna TPE recipe adapted to
    the discrete operator-parameter grids).

Adaptive samplers (everything but the annealer) draw only from their own
seeded RNG inside ``ask``/``tell`` — never during evaluation — so a seed
fixes the ask sequence, and they set ``prunes = True``: the engine
projects candidate costs cheaply and fully measures only the survivors of
a successive-halving tournament (see
:class:`~repro.search.pruning.SuccessiveHalvingPruner`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Type, Union

import numpy as np

from repro.search.space import (
    SampledStructure,
    StructureSampler,
    param_slots,
    seed_structures,
)

__all__ = [
    "AskBatch",
    "SearchSpace",
    "Sampler",
    "QMCSampler",
    "TPESampler",
    "ScrambledSobol",
    "SAMPLERS",
    "DEFAULT_SAMPLER_NAME",
    "register_sampler",
    "get_sampler",
    "sampler_names",
]

#: Name of the sampler whose behaviour (and bench/store config keys) must
#: stay bit-identical to the pre-interface engine.
DEFAULT_SAMPLER_NAME = "annealer"


# ---------------------------------------------------------------------------
# The ask/tell contract
# ---------------------------------------------------------------------------

@dataclass
class AskBatch:
    """One structure's worth of candidates to evaluate next: what
    ``ask`` returns and what ``tell`` receives back with its records."""

    proposal: SampledStructure
    assignments: List[Dict]
    level: str = "coarse"


@dataclass(frozen=True)
class SearchSpace:
    """Per-search view of the search space a sampler draws from.

    Everything here is decided by the engine (pruning rules, workload
    shaping, budgets); samplers treat it as read-only.
    """

    banned: frozenset
    extensions: bool
    seeding: bool
    budget: "SearchBudget"  # noqa: F821 - engine import cycle, runtime only
    #: the engine's workload, handed to :class:`StructureSampler` to shape
    #: its reduction-chain menu (only transpose workloads change it).
    shaping_workload: object
    #: whether annealing-based early termination applies (the engine's
    #: ``enable_pruning``; paper footnote 10 couples the two).
    annealing_termination: bool = True
    #: the engine's :class:`~repro.search.annealing.AnnealingSchedule`
    #: template (cloned per search by the annealer; other samplers ignore
    #: it).  Typed loosely to keep this module import-cycle-free.
    annealing_template: Optional[object] = None

    def seed_proposals(self) -> List[SampledStructure]:
        """Archetype proposals compatible with the ban list."""
        if not self.seeding:
            return []
        return seed_structures(set(self.banned), extensions=self.extensions)

    def structure_sampler(self, seed: int) -> StructureSampler:
        """A random-structure source honouring bans/extensions/shaping."""
        return StructureSampler(
            banned=set(self.banned),
            seed=seed,
            extensions=self.extensions,
            workload=self.shaping_workload,
        )


def propose_structure(
    sampler: StructureSampler, seen: Set[Tuple], max_attempts: int = 40
) -> Optional[SampledStructure]:
    """Draw an unseen structure, or None when the (pruned) space looks
    exhausted — the engine's historical dedup loop, shared by samplers."""
    for _ in range(max_attempts):
        proposal = sampler.sample()
        if proposal.signature not in seen:
            return proposal
    return None


class Sampler(ABC):
    """Ask/tell candidate source driving one search.

    One instance serves one search: the engine constructs a fresh sampler
    per :meth:`SearchEngine.search` call and drives it as::

        sampler.begin(space, rng=search_rng, seed=sampler_seed)
        while budget remains:
            batch = sampler.ask(history)      # None = sampler done
            records = engine.measure(batch)   # full, or SH if prunes
            sampler.tell(batch, records)

    ``rng`` is the engine's live per-search generator — only the default
    annealer may draw from it (that is what byte-identity requires);
    adaptive samplers must derive all randomness from ``seed`` so ask
    sequences are reproducible across worker counts.
    """

    #: registry key (and CLI spelling).
    name: str = ""
    #: run the engine's GBT fine-grid interpolation level after the ask
    #: loop (the legacy three-level shape; adaptive samplers do their own
    #: exploitation instead).
    uses_ml_level: bool = True
    #: successive-halving eval pruning: the engine projects each batch's
    #: candidates through the cheap cost rung and fully measures rung
    #: survivors only.
    prunes: bool = False

    @abstractmethod
    def begin(
        self, space: SearchSpace, rng: np.random.Generator, seed: int
    ) -> None:
        """Bind the per-search context before the first ask."""

    @abstractmethod
    def ask(self, history: Sequence) -> Optional[AskBatch]:
        """The next evaluation batch, or None when the sampler is done.

        ``history`` is the live list of measured
        :class:`~repro.search.engine.EvalRecord` (pruned candidates never
        appear in it).
        """

    def tell(self, batch: AskBatch, records: List) -> None:
        """Fold the batch's new history records back in (fewer than its
        assignments when pruning or the budget cut the batch).  A no-op
        by default: history-driven samplers read ``ask``'s history."""


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: name -> sampler class (the CLI's ``--sampler`` choices).
SAMPLERS: Dict[str, Type[Sampler]] = {}


def register_sampler(cls: Type[Sampler]) -> Type[Sampler]:
    """Add a sampler class to the registry (duplicate names error)."""
    if not cls.name:
        raise ValueError("sampler must define a name")
    if cls.name in SAMPLERS:
        raise ValueError(f"duplicate sampler {cls.name!r}")
    SAMPLERS[cls.name] = cls
    return cls


def _ensure_builtins() -> None:
    # The annealer lives in repro.search.annealing (which imports this
    # module for the base class); importing it lazily here avoids the
    # cycle while keeping every entry point's registry complete.
    import repro.search.annealing  # noqa: F401


def sampler_names() -> List[str]:
    _ensure_builtins()
    return sorted(SAMPLERS)


def get_sampler(
    name: Union[str, Type[Sampler], None]
) -> Type[Sampler]:
    """Resolve a sampler class by name (idempotent on classes).

    Unknown names raise a :class:`ValueError` listing the registered
    samplers, so a CLI typo reads as guidance rather than a KeyError.
    """
    _ensure_builtins()
    if name is None:
        return SAMPLERS[DEFAULT_SAMPLER_NAME]
    if isinstance(name, type) and issubclass(name, Sampler):
        return name
    try:
        return SAMPLERS[name]
    except KeyError:
        raise ValueError(
            f"unknown sampler {name!r}; registered samplers: "
            + ", ".join(sorted(SAMPLERS))
        ) from None


# ---------------------------------------------------------------------------
# Scrambled Sobol'-style digital sequence
# ---------------------------------------------------------------------------

#: Joe-Kuo direction-number initialisation (primitive polynomial
#: coefficient ``a`` and initial odd ``m_i``) for dimensions 2..13; the
#: first dimension is the van der Corput sequence.  Dimensions beyond the
#: table reuse entries under independent digital shifts — still uniform,
#: no longer a strict Sobol' sequence (operator graphs rarely exceed ~10
#: searchable parameters, so the table covers practice).
_SOBOL_TABLE: List[Tuple[int, Tuple[int, ...]]] = [
    (0, (1,)),
    (1, (1, 3)),
    (1, (1, 3, 1)),
    (2, (1, 1, 1)),
    (1, (1, 1, 3, 3)),
    (4, (1, 3, 5, 13)),
    (2, (1, 1, 5, 5, 17)),
    (4, (1, 1, 5, 5, 5)),
    (7, (1, 1, 7, 11, 19)),
    (11, (1, 1, 5, 1, 1)),
    (13, (1, 1, 1, 3, 11)),
    (14, (1, 3, 5, 5, 31)),
]


class ScrambledSobol:
    """Gray-code Sobol' generator with per-dimension digital-shift
    scrambling (XOR with a random word, the cheap member of the Owen
    family).  30 output bits; points lie in [0, 1)."""

    BITS = 30

    def __init__(self, dim: int, rng: np.random.Generator, scramble: bool = True):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self._v = [self._directions(d) for d in range(dim)]
        self._shift = [
            int(rng.integers(1 << self.BITS)) if scramble else 0
            for _ in range(dim)
        ]
        self._x = [0] * dim
        self._count = 0

    def _directions(self, d: int) -> List[int]:
        bits = self.BITS
        if d == 0:
            return [1 << (bits - 1 - i) for i in range(bits)]
        a, m = _SOBOL_TABLE[(d - 1) % len(_SOBOL_TABLE)]
        s = len(m)
        v = [0] * bits
        for i in range(min(s, bits)):
            v[i] = m[i] << (bits - 1 - i)
        for i in range(s, bits):
            v[i] = v[i - s] ^ (v[i - s] >> s)
            for k in range(1, s):
                if (a >> (s - 1 - k)) & 1:
                    v[i] ^= v[i - k]
        return v

    def next(self) -> List[float]:
        """The next point (Gray-code update: one XOR per dimension)."""
        # ctz(count + 1) == number of trailing ones of count.
        n, c = self._count, 0
        while n & 1:
            n >>= 1
            c += 1
        denom = float(1 << self.BITS)
        point = []
        for d in range(self.dim):
            self._x[d] ^= self._v[d][c]
            point.append(((self._x[d] ^ self._shift[d]) & ((1 << self.BITS) - 1)) / denom)
        self._count += 1
        return point

    def take(self, n: int) -> List[List[float]]:
        return [self.next() for _ in range(n)]


# ---------------------------------------------------------------------------
# Shared grid helpers
# ---------------------------------------------------------------------------

def _assignment_key(assignment: Dict) -> Tuple:
    """Order-independent hashable identity of one assignment (the same
    normalisation :meth:`EvalRecord.identity` applies)."""
    return tuple(sorted(map(str, assignment.items())))


def _default_assignment(slots) -> Dict:
    """The canonical all-first-coarse-value assignment — the same point
    ``enumerate_param_grid`` always emits first."""
    return {key: coarse[0] for key, coarse, _fine in slots}


def _point_assignment(slots, point: Sequence[float]) -> Dict:
    """Map one unit-cube point onto the fine grids (full resolution)."""
    out = {}
    for (key, _coarse, fine), u in zip(slots, point):
        idx = min(int(u * len(fine)), len(fine) - 1)
        out[key] = fine[idx]
    return out


class _StructurePoints:
    """Per-structure candidate stream: the canonical default first, then
    deduplicated scrambled-Sobol points over the fine grids."""

    #: give up after this many consecutive duplicate draws — the grid is
    #: effectively exhausted for sampling purposes.
    MAX_STALE = 64

    def __init__(self, proposal: SampledStructure, rng: np.random.Generator):
        self.proposal = proposal
        self.slots = param_slots(proposal.graph, proposal.locks)
        self._sobol = (
            ScrambledSobol(len(self.slots), rng) if self.slots else None
        )
        self._seen: Set[Tuple] = set()
        self._emitted_default = False

    def seen(self, assignment: Dict) -> None:
        self._seen.add(_assignment_key(assignment))

    def next(self) -> Optional[Dict]:
        if not self._emitted_default:
            self._emitted_default = True
            default = _default_assignment(self.slots)
            key = _assignment_key(default)
            if key not in self._seen:
                self._seen.add(key)
                return default
        if self._sobol is None:
            return None  # parameterless structure: only the default exists
        for _ in range(self.MAX_STALE):
            assignment = _point_assignment(self.slots, self._sobol.next())
            key = _assignment_key(assignment)
            if key not in self._seen:
                self._seen.add(key)
                return assignment
        return None

    def batch(self, n: int) -> List[Dict]:
        out = []
        for _ in range(n):
            assignment = self.next()
            if assignment is None:
                break
            out.append(assignment)
        return out


class _AdaptiveBase(Sampler):
    """Common machinery of the adaptive samplers: a structure pool built
    from archetype seeds plus random proposals, and per-structure
    QMC candidate streams."""

    uses_ml_level = False
    prunes = True

    #: candidates asked per batch (before successive-halving).
    batch_size = 6

    def begin(
        self, space: SearchSpace, rng: np.random.Generator, seed: int
    ) -> None:
        self.space = space
        self.rng = np.random.default_rng(seed)
        self._structures = space.structure_sampler(
            seed=int(self.rng.integers(2**31))
        )
        self._pool: Dict[Tuple, _StructurePoints] = {}
        self._order: List[Tuple] = []
        for proposal in space.seed_proposals()[: space.budget.max_structures]:
            self._add(proposal)

    # -- pool -----------------------------------------------------------
    def _add(self, proposal: SampledStructure) -> Optional[Tuple]:
        sig = proposal.signature
        if sig in self._pool:
            return None
        self._pool[sig] = _StructurePoints(proposal, self.rng)
        self._order.append(sig)
        return sig

    def _add_random(self) -> Optional[Tuple]:
        # Count the pool, not ``_order``: TPE retires exhausted structures
        # from ``_order``, and they still count as tried.
        if len(self._pool) >= self.space.budget.max_structures:
            return None
        proposal = propose_structure(self._structures, set(self._pool))
        if proposal is None:
            return None
        return self._add(proposal)

    def _batch(self, sig: Tuple, n: int, level: str) -> Optional[AskBatch]:
        points = self._pool[sig]
        assignments = points.batch(n)
        if not assignments:
            return None
        return AskBatch(points.proposal, assignments, level=level)


# ---------------------------------------------------------------------------
# QMC startup sampler
# ---------------------------------------------------------------------------

@register_sampler
class QMCSampler(_AdaptiveBase):
    """Scrambled-Sobol' space-filling sweep over the parameter grids.

    Visits the archetype seeds first (their canonical default assignment
    is always point 0 — the classic format each archetype encodes), fills
    the structure pool with random proposals up to the structure budget,
    and asks one low-discrepancy batch per structure per round until the
    evaluation budget runs out.  No model, no history dependence: the ask
    sequence is a pure function of the sampler seed.
    """

    name = "qmc"

    def begin(self, space, rng, seed) -> None:
        super().begin(space, rng, seed)
        while self._add_random() is not None:
            pass
        self._cursor = 0

    def ask(self, history) -> Optional[AskBatch]:
        points = self.space.budget.coarse_evals_per_structure
        for _ in range(len(self._order)):
            sig = self._order[self._cursor % len(self._order)]
            self._cursor += 1
            batch = self._batch(sig, points, level="coarse")
            if batch is not None:
                return batch
        return None  # every structure's stream is exhausted


# ---------------------------------------------------------------------------
# TPE sampler
# ---------------------------------------------------------------------------

@register_sampler
class TPESampler(_AdaptiveBase):
    """Discrete TPE: good/bad Parzen densities over the parameter grids.

    Startup measures QMC batches on the leading archetype seeds.  After
    that each ask (1) picks a structure by probability-matching on its
    share of the *good* observations (with an epsilon chance of proposing
    a brand-new structure), (2) fits per-parameter categorical densities
    to the structure's good and bad observations (add-``alpha``
    smoothing), and (3) draws ``n_ei_candidates`` proposals from the good
    density, ranking them by the expected-improvement surrogate
    ``log l_good - log l_bad`` and asking the top ``batch_size``.
    """

    name = "tpe"

    #: structures receiving a QMC startup batch before the model kicks in.
    #: Covers every archetype seed: the seeds are the classic formats, and
    #: successive halving keeps a startup batch at ~2 full measurements,
    #: so sweeping all of them stays cheap and avoids missing the seed the
    #: incumbent annealer would have found early.
    n_startup_structures = 12
    #: points per startup batch.
    startup_points = 5
    #: top quantile of valid observations forming the "good" density.
    gamma = 0.25
    #: proposals drawn from the good density per ask.
    n_ei_candidates = 24
    #: add-this smoothing mass per grid value in both densities.
    alpha = 1.0
    #: chance per ask of exploring a brand-new random structure.
    epsilon_new = 0.1
    #: observations a structure needs before TPE models it.
    min_obs = 4

    def begin(self, space, rng, seed) -> None:
        super().begin(space, rng, seed)
        self._startup = list(self._order[: self.n_startup_structures])
        if not self._startup and self._add_random() is not None:
            self._startup = list(self._order)

    # -- ask ------------------------------------------------------------
    def ask(self, history) -> Optional[AskBatch]:
        if self._startup:
            sig = self._startup.pop(0)
            batch = self._batch(sig, self.startup_points, level="coarse")
            if batch is not None:
                return batch
            return self.ask(history)
        if self.rng.random() < self.epsilon_new:
            sig = self._add_random()
            if sig is not None:
                batch = self._batch(sig, self.startup_points, level="coarse")
                if batch is not None:
                    return batch
        by_sig = self._records_by_structure(history)
        sig = self._pick_structure(by_sig)
        if sig is None:
            return None
        if len(by_sig.get(sig, ())) < self.min_obs:
            batch = self._batch(sig, self.startup_points, level="coarse")
        else:
            batch = self._tpe_batch(sig, by_sig[sig])
        if batch is None:
            # Stream exhausted: retire the structure and move on.
            self._order.remove(sig)
            return self.ask(history) if self._order else None
        return batch

    # -- internals ------------------------------------------------------
    def _records_by_structure(self, history) -> Dict[Tuple, List]:
        out: Dict[Tuple, List] = {}
        for rec in history:
            out.setdefault(rec.structure_sig, []).append(rec)
        return out

    def _good_threshold(self, history) -> float:
        scores = sorted(
            (r.gflops for r in history if r.valid and r.gflops > 0),
            reverse=True,
        )
        if not scores:
            return 0.0
        n_good = max(2, int(np.ceil(self.gamma * len(scores))))
        return scores[min(n_good, len(scores)) - 1]

    def _pick_structure(self, by_sig: Dict[Tuple, List]) -> Optional[Tuple]:
        """Probability matching on each structure's good-observation count
        (Laplace-smoothed, so unmeasured pool members stay reachable)."""
        if not self._order:
            return None
        threshold = self._good_threshold(
            [r for recs in by_sig.values() for r in recs]
        )
        weights = []
        for sig in self._order:
            recs = by_sig.get(sig, [])
            good = sum(
                1 for r in recs if r.valid and r.gflops >= threshold
            )
            weights.append(good + 0.5)
        probs = np.asarray(weights) / sum(weights)
        idx = int(self.rng.choice(len(self._order), p=probs))
        return self._order[idx]

    def _tpe_batch(self, sig: Tuple, recs: List) -> Optional[AskBatch]:
        points = self._pool[sig]
        slots = points.slots
        if not slots:
            return self._batch(sig, 1, level="fine")
        ranked = sorted(recs, key=lambda r: -r.gflops)
        n_good = max(2, int(np.ceil(self.gamma * len(ranked))))
        good = [r for r in ranked[:n_good] if r.valid and r.gflops > 0]
        bad = ranked[n_good:] + [r for r in ranked[:n_good] if not r.valid]
        if not good:
            return self._batch(sig, self.startup_points, level="coarse")
        good_density = self._densities(slots, good)
        bad_density = self._densities(slots, bad)
        proposals: Dict[Tuple, Tuple[float, Dict]] = {}
        for _ in range(self.n_ei_candidates):
            assignment = {}
            score = 0.0
            for j, (key, _coarse, fine) in enumerate(slots):
                pg, pb = good_density[j], bad_density[j]
                idx = int(self.rng.choice(len(fine), p=pg))
                assignment[key] = fine[idx]
                score += float(np.log(pg[idx]) - np.log(pb[idx]))
            akey = _assignment_key(assignment)
            if akey not in points._seen:
                best = proposals.get(akey)
                if best is None or score > best[0]:
                    proposals[akey] = (score, assignment)
        if not proposals:
            return self._batch(sig, self.batch_size, level="fine")
        top = sorted(proposals.values(), key=lambda sa: -sa[0])
        assignments = [a for _s, a in top[: self.batch_size]]
        for assignment in assignments:
            points.seen(assignment)
        return AskBatch(points.proposal, assignments, level="fine")

    def _densities(self, slots, recs) -> List[np.ndarray]:
        """Per-slot categorical densities over the fine grids."""
        out = []
        for key, _coarse, fine in slots:
            counts = np.full(len(fine), self.alpha, dtype=np.float64)
            for rec in recs:
                value = rec.assignment.get(key, fine[0])
                if value in fine:
                    counts[fine.index(value)] += 1.0
            out.append(counts / counts.sum())
        return out
