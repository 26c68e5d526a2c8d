"""Common error taxonomy: stable diagnostic codes for validation failures.

Every dynamic validation error the stack raises — a reduction chain that
cannot validate for its work assignment (:class:`PlanValidationError` in
:mod:`repro.gpu.executor`), a malformed operator graph
(:class:`GraphValidationError` in :mod:`repro.core.graph`) — derives from
:class:`DiagnosableError` and carries a stable ``code``.  The static
verifier (:mod:`repro.staticcheck`) proves verdicts under the *same*
codes, which is what makes the two comparable: a differential test can
assert not just "statically invalid implies dynamically invalid" but that
both sides agree on *why*.

Codes are part of the public contract (documented in the README's "Static
checking" section); the message text is not — but note that error strings
are embedded in :meth:`EvalRecord.identity` digests, so changing a
message is a byte-identity break while adding a code is not.
``str(exc)`` therefore stays exactly the message, with the code riding
along as an attribute.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "DiagnosableError",
    "REDUCE_CHAIN_THREAD_TOTAL",
    "REDUCE_CHAIN_WARP_TOTAL",
    "REDUCE_CHAIN_BLOCK_TOTAL",
    "REDUCE_CHAIN_DIRECT_STORE",
    "REDUCE_CHAIN_ORDER",
    "REDUCE_CHAIN_NO_GLOBAL",
    "PLAN_SCATTER_RANGE",
    "PLAN_GATHER_RANGE",
    "GRAPH_BRANCH_CHILDREN",
    "GRAPH_NESTING_DEPTH",
    "GRAPH_EMPTY",
    "GRAPH_STAGE_ORDER",
    "GRAPH_AFTER_GLOBAL",
    "GRAPH_BRANCH_TAIL",
    "GRAPH_BRANCH_CONTINUATION",
    "GRAPH_NO_GLOBAL",
    "KERNEL_UNDECLARED_IDENT",
    "KERNEL_SCATTER_NEEDS_ATOMIC",
    "KERNEL_OOB_INDEX",
    "KERNEL_DEAD_FRAGMENT",
    "KERNEL_ACCUM_DTYPE",
    "STORE_CORRUPT_ENTRY",
    "STORE_BAD_GRAPH",
    "STORE_UNKNOWN_OPERATOR",
    "STORE_BAD_WORKLOAD",
    "STORE_QUARANTINED",
    "STORE_TAIL_LOST",
    "CHECK_UNSOUND",
    "code_of",
]

# --- reduction-chain semantics (shared with repro.staticcheck) -------------
REDUCE_CHAIN_THREAD_TOTAL = "REDUCE-CHAIN-THREAD-TOTAL"
REDUCE_CHAIN_WARP_TOTAL = "REDUCE-CHAIN-WARP-TOTAL"
REDUCE_CHAIN_BLOCK_TOTAL = "REDUCE-CHAIN-BLOCK-TOTAL"
REDUCE_CHAIN_DIRECT_STORE = "REDUCE-CHAIN-DIRECT-STORE"
REDUCE_CHAIN_ORDER = "REDUCE-CHAIN-ORDER"
REDUCE_CHAIN_NO_GLOBAL = "REDUCE-CHAIN-NO-GLOBAL"

# --- plan geometry ---------------------------------------------------------
PLAN_SCATTER_RANGE = "PLAN-SCATTER-RANGE"
PLAN_GATHER_RANGE = "PLAN-GATHER-RANGE"

# --- operator-graph shape --------------------------------------------------
GRAPH_BRANCH_CHILDREN = "GRAPH-BRANCH-CHILDREN"
GRAPH_NESTING_DEPTH = "GRAPH-NESTING-DEPTH"
GRAPH_EMPTY = "GRAPH-EMPTY"
GRAPH_STAGE_ORDER = "GRAPH-STAGE-ORDER"
GRAPH_AFTER_GLOBAL = "GRAPH-AFTER-GLOBAL"
GRAPH_BRANCH_TAIL = "GRAPH-BRANCH-TAIL"
GRAPH_BRANCH_CONTINUATION = "GRAPH-BRANCH-CONTINUATION"
GRAPH_NO_GLOBAL = "GRAPH-NO-GLOBAL"

# --- generated-kernel lint (static-only; never raised dynamically) ---------
KERNEL_UNDECLARED_IDENT = "KERNEL-UNDECLARED-IDENT"
KERNEL_SCATTER_NEEDS_ATOMIC = "KERNEL-SCATTER-NEEDS-ATOMIC"
KERNEL_OOB_INDEX = "KERNEL-OOB-INDEX"
KERNEL_DEAD_FRAGMENT = "KERNEL-DEAD-FRAGMENT"
KERNEL_ACCUM_DTYPE = "KERNEL-ACCUM-DTYPE"

# --- design-store audit (static-only) --------------------------------------
STORE_CORRUPT_ENTRY = "STORE-CORRUPT-ENTRY"
STORE_BAD_GRAPH = "STORE-BAD-GRAPH"
STORE_UNKNOWN_OPERATOR = "STORE-UNKNOWN-OPERATOR"
STORE_BAD_WORKLOAD = "STORE-BAD-WORKLOAD"
#: a corrupt entry was moved aside to the store's ``corrupt/`` sibling dir
#: (first detection on a read path, or ``store verify --repair``) — the
#: store stops retrying it and a rewrite of the key heals cleanly
STORE_QUARANTINED = "STORE-QUARANTINED"
#: a journal-backend store lost records after a mid-log framing corruption
#: (everything before the damage replays; compaction reclaims the file)
STORE_TAIL_LOST = "STORE-TAIL-LOST"

# --- the checker checking itself (differential self-test) ------------------
CHECK_UNSOUND = "CHECK-UNSOUND"


class DiagnosableError(ValueError):
    """A :class:`ValueError` carrying a stable diagnostic ``code``.

    ``str(exc)`` is exactly ``message`` — codes never leak into the text,
    because error strings participate in the search-history byte-identity
    contract.
    """

    #: Fallback when a raise site predates the taxonomy (or an error is
    #: re-raised from a cache that only persisted the message).
    default_code = "UNCLASSIFIED"

    def __init__(self, message: str = "", *, code: Optional[str] = None) -> None:
        super().__init__(message)
        self.code = code or self.default_code


def code_of(exc: BaseException) -> str:
    """Diagnostic code of any exception (``UNCLASSIFIED`` when untyped)."""
    return getattr(exc, "code", None) or DiagnosableError.default_code
