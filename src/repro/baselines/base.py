"""Baseline format infrastructure.

Every baseline of the paper's evaluation (§VII-B) is implemented on the
same simulated GPU as AlphaSparse's generated kernels — the analogue of the
paper running every library on the same physical card.  Most baselines are
expressed as fixed Operator Graphs (they *are* the source formats of
Table II); HYB and DIA need custom construction and override
:meth:`SpmvBaseline.program`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.designer import DesignError
from repro.core.graph import OperatorGraph
from repro.core.kernel.builder import BuildError, KernelBuilder
from repro.core.kernel.program import GeneratedProgram
from repro.errors import code_of
from repro.gpu.arch import GPUSpec
from repro.gpu.executor import PlanValidationError
from repro.sparse.matrix import SparseMatrix
from repro.workloads import DEFAULT_WORKLOAD, Workload

__all__ = [
    "BaselineMeasurement",
    "SpmvBaseline",
    "GraphBaseline",
    "BASELINE_REGISTRY",
    "register_baseline",
    "get_baseline",
    "measure_baselines",
    "measurement_ok",
]


@dataclass(frozen=True)
class BaselineMeasurement:
    """One baseline's result on one matrix/GPU.

    Every field is always finite: inapplicable baselines carry
    ``gflops=0.0, time_s=0.0`` (they never ran) and incorrect ones
    ``gflops=0.0`` with the real kernel time, so column sums/means in
    reporting never see ``inf``.  Aggregators select on :attr:`ok` rather
    than interpreting the zeros.
    """

    baseline: str
    matrix: str
    gpu: str
    gflops: float
    time_s: float
    correct: bool
    applicable: bool = True
    note: str = ""

    @property
    def ok(self) -> bool:
        """Usable as a speedup denominator: applicable, correct, ran."""
        return measurement_ok(self)


def measurement_ok(meas) -> bool:
    """The one usability predicate: applicable, correct, > 0 GFLOPS.

    Accepts a live :class:`BaselineMeasurement` or its dict form from a
    persisted result store, so live aggregation and store-reading paths
    cannot diverge on what "usable" means.
    """
    if isinstance(meas, BaselineMeasurement):
        return meas.applicable and meas.correct and meas.gflops > 0
    return bool(meas["applicable"] and meas["correct"] and meas["gflops"] > 0)


class SpmvBaseline(ABC):
    """A human-designed SpMV format + kernel."""

    #: Registry name, e.g. ``"CSR5"``.
    name: str = ""

    def applicable(self, matrix: SparseMatrix) -> bool:
        """Some formats refuse pathological inputs (e.g. ELL's padding cap)."""
        return True

    @abstractmethod
    def program(self, matrix: SparseMatrix) -> GeneratedProgram:
        """Construct the baseline's program for a matrix."""

    # ------------------------------------------------------------------
    def measure(
        self,
        matrix: SparseMatrix,
        gpu: GPUSpec,
        x: Optional[np.ndarray] = None,
        reference: Optional[np.ndarray] = None,
        workload: Optional[Workload] = None,
    ) -> BaselineMeasurement:
        """Run the baseline; inapplicable formats report zero GFLOPS.

        ``workload`` selects the operation measured (None = the default
        SpMV).  ``reference`` is the precomputed workload reference —
        batched callers (:func:`measure_baselines`, the corpus runner) pass
        it so the reference computation runs once per matrix, not once per
        baseline.  Correctness uses the workload's order-tolerant
        ``allclose`` gate: atomic-reduction baselines (COO, row-grouped
        CSR) legitimately accumulate in a different order than the
        reference.  A baseline whose reduction chain is semantically
        invalid for the workload — e.g. a direct-store row kernel asked to
        scatter into columns under transpose SpMV — reports inapplicable,
        exactly like a library refusing an unsupported operation, and so
        does one whose design the builder refuses (a
        :class:`~repro.core.designer.DesignError` or
        :class:`~repro.core.kernel.builder.BuildError`, e.g. padding past
        the budget); the note names the refusal's diagnostic code.
        """
        workload = workload or DEFAULT_WORKLOAD

        def inapplicable(note: str) -> BaselineMeasurement:
            return BaselineMeasurement(
                baseline=self.name,
                matrix=matrix.name,
                gpu=gpu.name,
                gflops=0.0,
                time_s=0.0,
                correct=False,
                applicable=False,
                note=note,
            )

        if not self.applicable(matrix):
            return inapplicable("format not applicable to this sparsity pattern")
        if x is None:
            x = workload.make_operand(matrix)
        if reference is None:
            reference = workload.reference(matrix, x)
        try:
            prog = self.program(matrix)
        except (DesignError, BuildError) as exc:
            return inapplicable(f"{code_of(exc)}: design refused: {exc}")
        try:
            result = prog.run(x, gpu, workload=workload)
        except PlanValidationError as exc:
            return inapplicable(
                f"kernel invalid for workload {workload.name}: {exc}"
            )
        correct = workload.allclose(result.y, reference)
        return BaselineMeasurement(
            baseline=self.name,
            matrix=matrix.name,
            gpu=gpu.name,
            gflops=result.gflops if correct else 0.0,
            time_s=result.total_time_s,
            correct=correct,
            note=(
                ""
                if correct
                else f"numeric mismatch against reference {workload.display}"
            ),
        )


class GraphBaseline(SpmvBaseline):
    """Baseline defined by a (possibly matrix-dependent) Operator Graph.

    Baselines are built *without* Model-Driven Format Compression: the
    released libraries they model hand-wrote their access patterns but do
    not fit-and-inline index arrays — that optimisation is AlphaSparse's
    own (paper Fig 14c credits it with +32 %).
    """

    def __init__(self) -> None:
        self._builder = KernelBuilder(compressor=None)

    @abstractmethod
    def graph(self, matrix: SparseMatrix) -> OperatorGraph:
        """The fixed design; parameters may adapt to matrix statistics the
        way the original implementations' auto-configuration does."""

    def program(self, matrix: SparseMatrix) -> GeneratedProgram:
        return self._builder.build(matrix, self.graph(matrix))


#: name -> baseline instance.
BASELINE_REGISTRY: Dict[str, SpmvBaseline] = {}


def register_baseline(cls):
    """Class decorator adding a baseline to the registry."""
    instance = cls()
    if not instance.name:
        raise ValueError(f"{cls.__name__} must define a name")
    if instance.name in BASELINE_REGISTRY:
        raise ValueError(f"duplicate baseline {instance.name!r}")
    BASELINE_REGISTRY[instance.name] = instance
    return cls


def get_baseline(name: str) -> SpmvBaseline:
    try:
        return BASELINE_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown baseline {name!r}; registered: {sorted(BASELINE_REGISTRY)}"
        ) from None


def measure_baselines(
    matrix: SparseMatrix,
    gpu: GPUSpec,
    names: List[str],
    x: Optional[np.ndarray] = None,
    reference: Optional[np.ndarray] = None,
    workload: Optional[Workload] = None,
) -> Dict[str, BaselineMeasurement]:
    """Measure several baselines on one matrix, sharing one reference.

    The batched entry point for corpus-scale evaluation: ``x`` and the
    reference result are computed once per workload and reused by every
    baseline (the per-matrix caches the corpus runner relies on).  Results
    come back keyed by baseline name, in ``names`` order (Python dicts
    preserve insertion order).
    """
    workload = workload or DEFAULT_WORKLOAD
    if x is None:
        x = workload.make_operand(matrix)
    if reference is None:
        reference = workload.reference(matrix, x)

    measurements = [
        get_baseline(name).measure(
            matrix, gpu, x, reference=reference, workload=workload
        )
        for name in names
    ]
    return {m.baseline: m for m in measurements}
