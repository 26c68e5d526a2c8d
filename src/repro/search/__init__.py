"""Search Engine (paper §VI): three-level search over Operator Graphs.

Level 1 enumerates graph *structures*; level 2 measures operator
*parameters* on a coarse grid by running the generated programs; level 3
interpolates to the fine parameter grid with a gradient-boosted-tree cost
model (the paper uses XGBoost; :mod:`repro.search.mlmodel` is a from-scratch
equivalent).  Simulated annealing terminates the first two levels early and
pruning rules ban operators that cannot pay off for the input's sparsity
pattern.

Candidate selection is pluggable (:mod:`repro.search.samplers`): the
annealer above is the default :class:`Sampler`, with quasi-Monte-Carlo
and TPE alternatives selected via ``SearchEngine(sampler=...)`` /
``--sampler``; adaptive samplers add successive-halving eval pruning
(:class:`SuccessiveHalvingPruner`).
"""

from repro.search.engine import SearchBudget, SearchEngine, SearchResult, EvalRecord
from repro.search.evaluation import StagedEvaluator
from repro.search.mlmodel import GradientBoostedTrees, RegressionTree
from repro.search.annealing import AnnealerSampler, AnnealingSchedule
from repro.search.pruning import (
    PruningRules,
    SuccessiveHalvingPruner,
    default_rules,
)
from repro.search.samplers import (
    AskBatch,
    QMCSampler,
    Sampler,
    ScrambledSobol,
    SearchSpace,
    TPESampler,
    get_sampler,
    register_sampler,
    sampler_names,
)
from repro.search.space import StructureSampler, enumerate_param_grid

__all__ = [
    "SearchBudget",
    "SearchEngine",
    "SearchResult",
    "EvalRecord",
    "StagedEvaluator",
    "GradientBoostedTrees",
    "RegressionTree",
    "AnnealingSchedule",
    "AnnealerSampler",
    "PruningRules",
    "SuccessiveHalvingPruner",
    "default_rules",
    "StructureSampler",
    "enumerate_param_grid",
    "Sampler",
    "AskBatch",
    "SearchSpace",
    "ScrambledSobol",
    "QMCSampler",
    "TPESampler",
    "get_sampler",
    "register_sampler",
    "sampler_names",
]
