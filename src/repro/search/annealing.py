"""Simulated-annealing acceptance and termination (paper §VI-A).

The first two search levels "could be terminated early by simulated
annealing": worse candidates are accepted with a temperature-decayed
probability (keeping structure exploration alive early on), and the search
stops once the temperature has cooled *and* no improvement has been seen for
a patience window — or when the hard iteration/time budget runs out.

:class:`AnnealerSampler` packages this behaviour behind the pluggable
:class:`~repro.search.samplers.Sampler` interface as the default sampler:
it reproduces the legacy engine loop draw for draw (structure-sampler
seeding, archetype-seed ordering, stratified coarse grids, Metropolis
acceptance), so default-sampler search histories are byte-identical to the
pre-interface engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.search.samplers import (
    AskBatch,
    Sampler,
    SearchSpace,
    propose_structure,
    register_sampler,
)
from repro.search.space import enumerate_param_grid

__all__ = ["AnnealingSchedule", "AnnealerSampler"]


@dataclass
class AnnealingSchedule:
    """Acceptance temperature + patience-based termination.

    ``temperature`` is relative: a candidate that is ``d`` percent worse
    than the incumbent is accepted with probability ``exp(-d / T)``.
    """

    initial_temperature: float = 0.30
    cooling: float = 0.90
    min_temperature: float = 0.01
    patience: int = 8

    def __post_init__(self) -> None:
        if not 0.0 < self.cooling < 1.0:
            raise ValueError("cooling must be in (0, 1)")
        if self.initial_temperature <= 0:
            raise ValueError("initial_temperature must be positive")
        self._temperature = self.initial_temperature
        self._since_improvement = 0

    # ------------------------------------------------------------------
    @property
    def temperature(self) -> float:
        return self._temperature

    def accept(
        self, candidate: float, incumbent: float, rng: np.random.Generator
    ) -> bool:
        """Metropolis acceptance on (higher-is-better) GFLOPS scores."""
        if candidate >= incumbent:
            return True
        if incumbent <= 0:
            return True
        relative_loss = (incumbent - candidate) / incumbent
        prob = float(np.exp(-relative_loss / max(self._temperature, 1e-9)))
        return bool(rng.random() < prob)

    def step(self, improved: bool) -> None:
        """Advance the schedule after each structure evaluation."""
        self._temperature = max(
            self.min_temperature, self._temperature * self.cooling
        )
        self._since_improvement = 0 if improved else self._since_improvement + 1

    def should_terminate(self) -> bool:
        """Stop once the schedule has cooled substantially and no candidate
        improved for ``patience`` consecutive structures.  Searches on
        regular matrices plateau early (the archetype seeds already sit near
        the optimum) and stop sooner — the behaviour behind the paper's
        Fig 13 iteration counts."""
        cooled = self._temperature <= max(
            self.min_temperature, 0.5 * self.initial_temperature
        )
        return cooled and self._since_improvement >= self.patience

    def reset(self) -> None:
        self._temperature = self.initial_temperature
        self._since_improvement = 0

    def clone(self) -> "AnnealingSchedule":
        """Fresh schedule with the same hyper-parameters.

        The search engine clones its schedule template per search so the
        engine itself carries no per-search mutable state and concurrent
        searches cannot corrupt each other's cooling trajectories.
        """
        return AnnealingSchedule(
            initial_temperature=self.initial_temperature,
            cooling=self.cooling,
            min_temperature=self.min_temperature,
            patience=self.patience,
        )


@register_sampler
class AnnealerSampler(Sampler):
    """The historical three-level search behind the ask/tell interface.

    Byte-identity contract: every random draw happens on the *engine's*
    per-search generator in exactly the legacy order — (1) the structure
    sampler's seed in :meth:`begin`, (2) per structure the stratified
    coarse-grid draw in :meth:`ask` followed by the Metropolis acceptance
    draw in :meth:`tell`.  The ``seed`` argument of ``begin`` is therefore
    unused here (``--sampler-seed`` only affects the adaptive samplers).
    """

    name = "annealer"
    uses_ml_level = True
    prunes = False

    def begin(
        self, space: SearchSpace, rng: np.random.Generator, seed: int
    ) -> None:
        self._space = space
        self._rng = rng
        self._structures = space.structure_sampler(
            seed=int(rng.integers(2**31))
        )
        template = space.annealing_template
        self._schedule: AnnealingSchedule = (
            template.clone()
            if isinstance(template, AnnealingSchedule)
            else AnnealingSchedule()
        )
        # Level 1 visits the source-format archetypes first (the search
        # space contains every format of Table II by construction), then
        # explores random machine designs.
        self._seeds = space.seed_proposals()
        self._seen: Set[Tuple] = set()
        self._tried = 0
        self._incumbent = 0.0

    # ------------------------------------------------------------------
    def ask(self, history: Sequence) -> Optional[AskBatch]:
        if self._tried >= self._space.budget.max_structures:
            return None
        # Paper footnote 10: the "no pruning" baseline removes simulated
        # annealing too, so early termination is part of the pruned
        # configuration.
        if self._space.annealing_termination and self._schedule.should_terminate():
            return None
        proposal = None
        while self._seeds:
            candidate = self._seeds.pop(0)
            if candidate.signature not in self._seen:
                proposal = candidate
                break
        if proposal is None:
            proposal = propose_structure(self._structures, self._seen)
        if proposal is None:
            return None  # structure space (as pruned) exhausted
        self._seen.add(proposal.signature)
        self._tried += 1
        assignments = enumerate_param_grid(
            proposal.graph,
            proposal.locks,
            level="coarse",
            cap=self._space.budget.coarse_evals_per_structure,
            rng=self._rng,
        )
        return AskBatch(proposal, assignments, level="coarse")

    def tell(self, batch: AskBatch, records: List) -> None:
        structure_best = max((r.gflops for r in records), default=0.0)
        improved = structure_best > self._incumbent
        if self._schedule.accept(structure_best, self._incumbent, self._rng):
            self._incumbent = max(self._incumbent, structure_best)
        self._schedule.step(improved)
