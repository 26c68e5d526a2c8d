"""Simulated GPU substrate.

The paper measures generated CUDA kernels on an NVIDIA A100 and RTX 2080.
This environment has no GPU, so kernels produced by the generator execute
*functionally* in NumPy while an analytic performance model — parameterised
with the two cards' published specifications — predicts the kernel time.
SpMV is memory-bound (the paper's own roofline argument, §VII-C), so the
model scores exactly the quantities the paper attributes performance to:
bytes moved (format + gathered x + y), padding waste, warp divergence and
load imbalance, reduction-strategy cost, atomic contention, L2-cache fit and
SM occupancy.

Public entry points:

* :class:`~repro.gpu.arch.GPUSpec` with :data:`~repro.gpu.arch.A100` and
  :data:`~repro.gpu.arch.RTX2080` presets,
* :class:`~repro.gpu.executor.ExecutionPlan` — the neutral description of a
  generated kernel's work assignment,
* :func:`~repro.gpu.executor.execute` — run a plan: returns ``y`` plus the
  predicted time/GFLOPS breakdown.
"""

from repro.gpu.analysis import DesignAnalysis, LeafAnalysis
from repro.gpu.arch import GPUSpec, A100, RTX2080, gpu_by_name
from repro.gpu.cost import CostBreakdown, CostModel, KernelCostInputs
from repro.gpu.executor import (
    ExecutionPlan,
    ExecutionResult,
    ReductionStep,
    execute,
    plan_cost_inputs,
)
from repro.gpu.memory import (
    coalescing_efficiency,
    gather_traffic_bytes,
    l2_bandwidth_boost,
)

__all__ = [
    "DesignAnalysis",
    "LeafAnalysis",
    "GPUSpec",
    "A100",
    "RTX2080",
    "gpu_by_name",
    "CostBreakdown",
    "CostModel",
    "KernelCostInputs",
    "ExecutionPlan",
    "ExecutionResult",
    "ReductionStep",
    "execute",
    "plan_cost_inputs",
    "coalescing_efficiency",
    "gather_traffic_bytes",
    "l2_bandwidth_boost",
]
