"""Designer — executes an Operator Graph against the Matrix Metadata Set.

"The Designer executes these operators in order to modify the Matrix
Metadata Set, which includes all details of the matrix state" (paper §III).
Branching operators split the metadata into sub-matrices; every leaf of the
recursion yields a fully-transformed metadata set from which the Format &
Kernel Generator produces one kernel of the final program.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.graph import GraphNode, OperatorGraph
from repro.core.metadata import MatrixMetadataSet
from repro.core.operators import OperatorError
from repro.sparse.matrix import SparseMatrix

__all__ = ["Designer", "DesignError", "DesignLeaf", "default_invariant_checks"]


class DesignError(RuntimeError):
    """An operator could not be applied to the current matrix state.

    Wraps :class:`OperatorError`; the search engine treats it as a dead
    candidate rather than a crash.
    """


@dataclass
class DesignLeaf:
    """One leaf of the (possibly branching) design: final metadata plus the
    branch path that produced it."""

    meta: MatrixMetadataSet
    branch_path: tuple

    @property
    def label(self) -> str:
        if not self.branch_path:
            return "root"
        return "/".join(str(i) for i in self.branch_path)


def default_invariant_checks() -> bool:
    """Whether metadata invariants are re-validated after every operator.

    The checks are a debugging net, not a correctness requirement — on the
    search/bench hot path they cost ~100+ full-array scans per search.  The
    resolution order: the ``REPRO_CHECK_INVARIANTS`` environment variable
    (``0``/``false`` off, anything else on) wins; otherwise checks are on
    under pytest and off everywhere else.
    """
    env = os.environ.get("REPRO_CHECK_INVARIANTS")
    if env is not None:
        return env.strip().lower() not in ("", "0", "false", "no", "off")
    return "PYTEST_CURRENT_TEST" in os.environ


class Designer:
    """Runs Operator Graphs; safe to share across threads.

    The only mutable state is :attr:`executions`, a monotonic counter of
    :meth:`design` calls used by the search to report how often its design
    memo saved a Designer run; it is updated under a lock.

    ``check_invariants=None`` (the default) resolves via
    :func:`default_invariant_checks`: enabled under pytest or when forced
    by ``REPRO_CHECK_INVARIANTS``, disabled on search/bench hot paths.
    """

    def __init__(self, check_invariants: Optional[bool] = None) -> None:
        self.check_invariants = (
            default_invariant_checks()
            if check_invariants is None
            else check_invariants
        )
        self._exec_lock = threading.Lock()
        self._executions = 0

    @property
    def executions(self) -> int:
        """How many times :meth:`design` has run (cache-efficacy metric)."""
        return self._executions

    # ------------------------------------------------------------------
    def design(
        self, matrix: SparseMatrix, graph: OperatorGraph
    ) -> List[DesignLeaf]:
        """Execute ``graph`` on ``matrix``; returns one leaf per sub-matrix."""
        with self._exec_lock:
            self._executions += 1
        meta = MatrixMetadataSet.from_matrix(matrix)
        leaves: List[DesignLeaf] = []
        self._run_sequence(meta, graph.nodes, (), leaves)
        if not leaves:
            raise DesignError("graph produced no design leaves")
        return leaves

    # ------------------------------------------------------------------
    def _run_sequence(
        self,
        meta: MatrixMetadataSet,
        nodes: Sequence[GraphNode],
        path: tuple,
        leaves: List[DesignLeaf],
    ) -> None:
        for i, node in enumerate(nodes):
            op = node.operator
            if op.branching:
                try:
                    op.check(meta, node.params)
                    children_meta = op.partition(meta, node.params)  # type: ignore[attr-defined]
                except OperatorError as exc:
                    raise DesignError(f"{op.name}: {exc}") from exc
                rest = list(nodes[i + 1 :])
                for j, child_meta in enumerate(children_meta):
                    child_meta.applied_operators.append(op.name)
                    if node.children:
                        child_nodes = node.children[min(j, len(node.children) - 1)]
                    else:
                        child_nodes = rest
                    self._run_sequence(child_meta, child_nodes, path + (j,), leaves)
                return
            try:
                op.check(meta, node.params)
                op.apply(meta, node.params)
            except OperatorError as exc:
                raise DesignError(f"{op.name}: {exc}") from exc
            meta.applied_operators.append(op.name)
            if self.check_invariants:
                meta.check_invariants()
        leaves.append(DesignLeaf(meta=meta, branch_path=path))
