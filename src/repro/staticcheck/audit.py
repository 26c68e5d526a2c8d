"""Static audit of a persisted :class:`~repro.store.design.DesignStore`.

The store outlives the code that wrote it, so this pass replays the other
two static passes over everything it persisted: entry integrity (the
store's own ``verify``, records and the artifact blobs they name),
decoded result graphs re-judged by the chain analysis against the live
operator registry, and every kernel source in a result's artifact run
through the lint.  Artifacts load through the store's ``load_artifact``
(records written before artifacts were split off carry theirs inline).
Either backend audits the same way.  ``python -m repro check --store``
exits non-zero on any error-severity finding.
"""

from __future__ import annotations

from typing import List

from repro.core.graph import GraphValidationError, OperatorGraph
from repro.errors import (
    STORE_BAD_GRAPH,
    STORE_BAD_WORKLOAD,
    STORE_CORRUPT_ENTRY,
    STORE_UNKNOWN_OPERATOR,
    code_of,
)
from repro.staticcheck.diagnostics import Diagnostic, Severity
from repro.staticcheck.lint import lint_kernel
from repro.staticcheck.reduction import analyze_design
from repro.workloads import WORKLOADS

__all__ = ["audit_store"]


def _record_label(record: dict) -> str:
    return f"result:{record.get('name') or '<unnamed>'}@{record.get('arch')}"


def audit_store(store) -> List[Diagnostic]:
    """Audit one open :class:`~repro.store.design.DesignStore`.

    Returns every finding; callers treat :attr:`Severity.ERROR` entries as
    fatal (the CLI exits 1) and the rest as advisory.
    """
    diagnostics: List[Diagnostic] = []

    # 1. Entry integrity — unreadable, truncated or edited entries.
    for status in store.verify():
        if status.ok:
            continue
        diagnostics.append(
            Diagnostic(
                STORE_CORRUPT_ENTRY,
                Severity.ERROR,
                f"{status.kind} entry failed verification: {status.detail}",
                node=f"{status.kind}:{status.filename}",
            )
        )

    # 2. Result records: the winning graph must decode against the live
    #    registry, re-validate, and pass the chain-shape analysis; its
    #    persisted kernel sources must lint clean of errors.
    for record in store.results():
        label = _record_label(record)
        workload_name = record.get("workload", "spmv")
        if workload_name not in WORKLOADS:
            diagnostics.append(
                Diagnostic(
                    STORE_BAD_WORKLOAD,
                    Severity.ERROR,
                    f"record names unknown workload {workload_name!r}",
                    node=label,
                )
            )
        graph_dict = record.get("graph")
        report = None
        if graph_dict is not None:
            try:
                graph = OperatorGraph.from_dict(graph_dict)
            except KeyError as exc:
                diagnostics.append(
                    Diagnostic(
                        STORE_UNKNOWN_OPERATOR,
                        Severity.ERROR,
                        f"stored graph will not decode: {exc}",
                        node=label,
                    )
                )
                graph = None
            except (GraphValidationError, TypeError, ValueError) as exc:
                diagnostics.append(
                    Diagnostic(
                        code_of(exc)
                        if isinstance(exc, GraphValidationError)
                        else STORE_BAD_GRAPH,
                        Severity.ERROR,
                        f"stored graph no longer validates: {exc}",
                        node=label,
                    )
                )
                graph = None
            if graph is not None:
                report = analyze_design(graph)
                for diag in report.errors:
                    diagnostics.append(
                        Diagnostic(
                            diag.code, diag.severity, diag.message, node=label
                        )
                    )
        if "artifact" in record:
            artifact = record["artifact"]
        else:
            artifact = store.load_artifact(record.get("artifact_digest"))
        if isinstance(artifact, dict):
            for kernel in artifact.get("kernels", []):
                source = kernel.get("source_text")
                if not isinstance(source, str):
                    continue
                for diag in lint_kernel(source, report=report):
                    diagnostics.append(
                        Diagnostic(
                            diag.code,
                            diag.severity,
                            diag.message,
                            node=f"{label}/kernel:{kernel.get('label')}"
                            + (f"/{diag.node}" if diag.node else ""),
                        )
                    )
    return diagnostics
