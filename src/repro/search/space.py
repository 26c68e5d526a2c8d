"""Search space: structure sampling and parameter-grid enumeration.

The structure sampler composes Operator Graphs the way the paper's level-1
search does — choosing operators stage by stage, honouring dependency rules
and the pruning ban list.  It also emits *parameter locks*: values implied
by the structure choice (e.g. THREAD_TOTAL_RED forces one row per thread),
which the parameter levels must not search over.

Parameter enumeration (levels 2 and 3) walks the cartesian product of every
unlocked operator parameter on the coarse or fine grid, capped and sampled
without replacement when the product explodes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.graph import GraphNode, OperatorGraph
from repro.core.kernel.builder import RUNTIME_PARAM_OPS
from repro.core.operators import get_operator

__all__ = [
    "SampledStructure",
    "StructureSampler",
    "enumerate_param_grid",
    "graph_with_params",
    "param_slots",
    "features_for",
]

#: (node_index_in_walk_order, param_name) — a searchable coordinate.
ParamKey = Tuple[int, str]


@dataclass
class SampledStructure:
    """A level-1 proposal: graph skeleton + structurally locked parameters."""

    graph: OperatorGraph
    locks: Dict[ParamKey, object] = field(default_factory=dict)
    #: memoised structure signature — the graph never mutates after
    #: sampling, and the engine reads this per candidate in its hot loop.
    _signature: Optional[Tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def signature(self) -> Tuple:
        if self._signature is None:
            self._signature = self.graph.structure_signature()
        return self._signature


# ---------------------------------------------------------------------------
# Structure sampling
# ---------------------------------------------------------------------------

class StructureSampler:
    """Random composition of Operator Graph structures.

    ``banned`` removes operators per the pruning rules; proposals are
    deduplicated by the caller via :attr:`SampledStructure.signature`.
    """

    def __init__(
        self,
        banned: Optional[Set[str]] = None,
        seed: int = 0,
        extensions: bool = False,
        workload=None,
    ) -> None:
        self.banned = set(banned or ())
        self.rng = np.random.default_rng(seed)
        #: include future-work operators (HYB_DECOMP, paper SecVII-H) in the menu
        self.extensions = extensions
        #: optional workload to shape the reduction-chain menu for.  With a
        #: transpose workload the sampler skips row-oriented TOTAL steps and
        #: direct stores (the static verifier proves those can never
        #: validate — scatter runs along columns).  ``None`` and
        #: non-transpose workloads draw from the full menu.
        self.workload = workload

    # -- small helpers ---------------------------------------------------
    def _ok(self, name: str) -> bool:
        return name not in self.banned

    def _maybe(self, prob: float) -> bool:
        return bool(self.rng.random() < prob)

    def _pick(self, options: Sequence[str]) -> Optional[str]:
        options = [o for o in options if self._ok(o)]
        if not options:
            return None
        return str(self.rng.choice(options))

    # --------------------------------------------------------------------
    def sample(self) -> SampledStructure:
        """One random structure (always statically valid)."""
        nodes: List[GraphNode] = []
        locks: Dict[ParamKey, object] = {}

        # Converting: optional reorder, optional branch, COMPRESS.
        reorder = None
        if self._maybe(0.45):
            reorder = self._pick(["SORT", "SORT_SUB"])
            if reorder:
                nodes.append(GraphNode(reorder))
        if self._maybe(0.18):
            menu = ["ROW_DIV", "BIN"]
            if self.extensions:
                menu.append("HYB_DECOMP")
            branch = self._pick(menu)
            if branch:
                nodes.append(GraphNode(branch))
        nodes.append(GraphNode("COMPRESS"))

        # Mapping: compose levels coarse-to-fine.
        level_kinds: Dict[str, str] = {}
        if self._maybe(0.55):
            kind = self._pick(["BMTB_ROW_BLOCK", "BMTB_NNZ_BLOCK", "BMTB_COL_BLOCK"])
            if kind:
                nodes.append(GraphNode(kind))
                level_kinds["bmtb"] = kind
        if self._maybe(0.40):
            kind = self._pick(["BMW_ROW_BLOCK", "BMW_NNZ_BLOCK"])
            if kind:
                nodes.append(GraphNode(kind))
                level_kinds["bmw"] = kind
        if self._maybe(0.60):
            kind = self._pick(["BMT_ROW_BLOCK", "BMT_NNZ_BLOCK", "BMT_COL_BLOCK"])
            if kind:
                nodes.append(GraphNode(kind))
                level_kinds["bmt"] = kind

        # Decorations.
        if level_kinds.get("bmtb") == "BMTB_ROW_BLOCK":
            if self._maybe(0.30) and self._ok("SORT_BMTB"):
                # insert right after the BMTB node
                idx = next(
                    i for i, nd in enumerate(nodes) if nd.op_name == "BMTB_ROW_BLOCK"
                )
                nodes.insert(idx + 1, GraphNode("SORT_BMTB"))
        finest = None
        for lvl in ("bmt", "bmw", "bmtb"):
            if lvl in level_kinds:
                finest = lvl
                break
        if finest and self._maybe(0.45):
            pad_name = {"bmt": "BMT_PAD", "bmw": "BMW_PAD", "bmtb": "BMTB_PAD"}[finest]
            if self._ok(pad_name):
                mode = "max" if ("bmtb" in level_kinds and finest == "bmt") else "multiple"
                nodes.append(GraphNode(pad_name, {"mode": mode}))
        if level_kinds and self._maybe(0.40) and self._ok("INTERLEAVED_STORAGE"):
            nodes.append(GraphNode("INTERLEAVED_STORAGE"))

        # Implementing: resources + reduction chain.
        nodes.append(GraphNode("SET_RESOURCES"))
        chain, chain_locks = self._reduction_chain(level_kinds, reorder)
        nodes.extend(GraphNode(name) for name in chain)

        graph = OperatorGraph(nodes)

        # Structural locks: pin parameters implied by reduction validity.
        walk = list(graph.walk())
        for i, node in enumerate(walk):
            if (node.op_name, "rows_per_block") in chain_locks and node.op_name in (
                "BMT_ROW_BLOCK",
                "BMW_ROW_BLOCK",
            ):
                locks[(i, "rows_per_block")] = chain_locks[(node.op_name, "rows_per_block")]
        return SampledStructure(graph=graph, locks=locks)

    # --------------------------------------------------------------------
    def _reduction_chain(
        self, level_kinds: Dict[str, str], reorder: Optional[str]
    ) -> Tuple[List[str], Dict[Tuple[str, str], object]]:
        """Choose a reduction chain consistent with the mapping structure.

        With a transpose workload set, row-oriented TOTAL steps and the
        direct-store ending are excluded up front instead of generated and
        rejected: partials scatter along *columns*, so a one-row-per-scope
        TOTAL reduction (or a row-aligned single-writer claim) can never
        validate whenever some row touches two columns — exactly the
        ``REDUCE-CHAIN-*`` verdicts :mod:`repro.staticcheck` proves.
        """
        chain: List[str] = []
        locks: Dict[Tuple[str, str], object] = {}
        transpose = self.workload is not None and getattr(
            self.workload, "transpose", False
        )
        single_writer = not transpose  # can we end with a direct store?

        bmt_kind = level_kinds.get("bmt")
        bmw_kind = level_kinds.get("bmw")
        if bmt_kind:
            if (
                not transpose
                and bmt_kind == "BMT_ROW_BLOCK"
                and self._ok("THREAD_TOTAL_RED")
                and self._maybe(0.7)
            ):
                chain.append("THREAD_TOTAL_RED")
                locks[("BMT_ROW_BLOCK", "rows_per_block")] = 1
            elif self._ok("THREAD_BITMAP_RED"):
                chain.append("THREAD_BITMAP_RED")
                single_writer = single_writer and bmt_kind == "BMT_ROW_BLOCK"
            if bmt_kind != "BMT_ROW_BLOCK":
                single_writer = False
        if bmw_kind or (bmt_kind and self._maybe(0.25)):
            if (
                not transpose
                and bmw_kind == "BMW_ROW_BLOCK"
                and self._ok("WARP_TOTAL_RED")
                and self._maybe(0.7)
            ):
                chain.append("WARP_TOTAL_RED")
                locks[("BMW_ROW_BLOCK", "rows_per_block")] = 1
            else:
                warp_op = self._pick(["WARP_SEG_RED", "WARP_BITMAP_RED"])
                if warp_op:
                    chain.append(warp_op)
                if bmw_kind and bmw_kind != "BMW_ROW_BLOCK":
                    single_writer = False
        if "bmtb" in level_kinds and self._maybe(0.45):
            block_menu = (
                ["SHMEM_OFFSET_RED"]
                if transpose
                else ["SHMEM_OFFSET_RED", "SHMEM_TOTAL_RED"]
            )
            block_op = self._pick(block_menu)
            if block_op:
                chain.append(block_op)
                if block_op == "SHMEM_OFFSET_RED":
                    # block-level merge guarantees one partial per row within
                    # a row-blocked BMTB
                    if level_kinds["bmtb"] == "BMTB_ROW_BLOCK":
                        single_writer = single_writer and True
                    else:
                        single_writer = False

        # Column splits always create multiple writers per row.
        if any(kind.endswith("COL_BLOCK") for kind in level_kinds.values()):
            single_writer = False
        if not level_kinds:
            single_writer = False  # COO grid-stride
        if not chain and not level_kinds:
            pass  # plain COO: elements straight to atomics

        if single_writer and self._ok("GMEM_DIRECT_STORE") and self._maybe(0.75):
            chain.append("GMEM_DIRECT_STORE")
        else:
            chain.append("GMEM_ATOM_RED")
        return chain, locks


# ---------------------------------------------------------------------------
# Archetype seeds
# ---------------------------------------------------------------------------

#: (name, op sequence, {op_name: {param: locked_value}}).  These are the
#: source-format design points of Table II — the search space provably
#: contains every one of them, so level 1 visits them first (the paper's
#: claim "AlphaSparse has covered almost all popular formats" made
#: operational).  All other parameters stay searchable.
_ARCHETYPES: List[Tuple[str, List[str], Dict[str, Dict[str, object]]]] = [
    ("csr-scalar", ["COMPRESS", "BMT_ROW_BLOCK", "SET_RESOURCES",
                    "THREAD_TOTAL_RED", "GMEM_DIRECT_STORE"],
     {"BMT_ROW_BLOCK": {"rows_per_block": 1}}),
    ("csr-vector", ["COMPRESS", "BMW_ROW_BLOCK", "SET_RESOURCES",
                    "WARP_TOTAL_RED", "GMEM_DIRECT_STORE"],
     {"BMW_ROW_BLOCK": {"rows_per_block": 1}}),
    ("ell", ["COMPRESS", "BMT_ROW_BLOCK", "BMT_PAD", "INTERLEAVED_STORAGE",
             "SET_RESOURCES", "THREAD_TOTAL_RED", "GMEM_DIRECT_STORE"],
     {"BMT_ROW_BLOCK": {"rows_per_block": 1}, "BMT_PAD": {"mode": "max"}}),
    ("sell", ["SORT", "COMPRESS", "BMTB_ROW_BLOCK", "BMT_ROW_BLOCK",
              "BMT_PAD", "INTERLEAVED_STORAGE", "SET_RESOURCES",
              "THREAD_TOTAL_RED", "GMEM_DIRECT_STORE"],
     {"BMT_ROW_BLOCK": {"rows_per_block": 1}, "BMT_PAD": {"mode": "max"}}),
    ("csr5-like", ["COMPRESS", "BMW_NNZ_BLOCK", "BMT_NNZ_BLOCK",
                   "INTERLEAVED_STORAGE", "SET_RESOURCES",
                   "THREAD_BITMAP_RED", "WARP_SEG_RED", "GMEM_ATOM_RED"], {}),
    ("merge-like", ["COMPRESS", "BMTB_NNZ_BLOCK", "BMT_NNZ_BLOCK",
                    "SET_RESOURCES", "THREAD_BITMAP_RED", "SHMEM_OFFSET_RED",
                    "GMEM_ATOM_RED"], {}),
    ("csr-adaptive", ["COMPRESS", "BMTB_ROW_BLOCK", "SET_RESOURCES",
                      "SHMEM_OFFSET_RED", "GMEM_DIRECT_STORE"], {}),
    ("row-grouped", ["COMPRESS", "BMTB_ROW_BLOCK", "SET_RESOURCES",
                     "GMEM_ATOM_RED"], {}),
    ("coo", ["COMPRESS", "SET_RESOURCES", "GMEM_ATOM_RED"], {}),
    # The Fig 14a mixed design: SELL's block structure + row-grouped CSR's
    # thread blocking + CSR-Adaptive's shared-memory reduction.
    ("fig14-mix", ["SORT", "COMPRESS", "BMTB_ROW_BLOCK", "BMT_ROW_BLOCK",
                   "BMT_PAD", "INTERLEAVED_STORAGE", "SET_RESOURCES",
                   "THREAD_TOTAL_RED", "SHMEM_OFFSET_RED",
                   "GMEM_DIRECT_STORE"],
     {"BMT_ROW_BLOCK": {"rows_per_block": 1}}),
]


#: Future-work archetype (paper SecVII-H): HYB's row-width decomposition,
#: regular head handled ELL-style, both children accumulating atomically.
_EXTENSION_ARCHETYPES: List[Tuple[str, List[str], Dict[str, Dict[str, object]]]] = [
    ("hyb-like", ["HYB_DECOMP", "COMPRESS", "BMT_ROW_BLOCK", "BMT_PAD",
                  "INTERLEAVED_STORAGE", "SET_RESOURCES", "THREAD_TOTAL_RED",
                  "GMEM_ATOM_RED"],
     {"BMT_ROW_BLOCK": {"rows_per_block": 1}, "BMT_PAD": {"mode": "max"}}),
]


def seed_structures(
    banned: Optional[Set[str]] = None, extensions: bool = False
) -> List[SampledStructure]:
    """Archetype proposals compatible with the ban list, in priority order."""
    banned = set(banned or ())
    archetypes = list(_ARCHETYPES)
    if extensions:
        archetypes = archetypes + _EXTENSION_ARCHETYPES
    seeds: List[SampledStructure] = []
    for _name, ops, op_locks in archetypes:
        if any(op in banned for op in ops):
            continue
        graph = OperatorGraph.from_names(ops)
        locks: Dict[ParamKey, object] = {}
        for i, node in enumerate(graph.walk()):
            for pname, value in op_locks.get(node.op_name, {}).items():
                locks[(i, pname)] = value
        seeds.append(SampledStructure(graph=graph, locks=locks))
    return seeds


# ---------------------------------------------------------------------------
# Parameter enumeration
# ---------------------------------------------------------------------------

def param_slots(
    graph: OperatorGraph, locks: Optional[Dict[ParamKey, object]] = None
) -> List[Tuple[ParamKey, Tuple[object, ...], Tuple[object, ...]]]:
    """Searchable parameters of a graph: (key, coarse grid, fine grid)."""
    locks = locks or {}
    slots = []
    for i, node in enumerate(graph.walk()):
        op = get_operator(node.op_name)
        for spec in op.params:
            key = (i, spec.name)
            if key in locks:
                continue
            slots.append((key, spec.coarse, spec.fine))
    return slots


def graph_with_params(
    graph: OperatorGraph,
    assignment: Dict[ParamKey, object],
    locks: Optional[Dict[ParamKey, object]] = None,
) -> OperatorGraph:
    """Copy of ``graph`` with the assignment (and locks) applied."""
    new = graph.copy()
    merged = dict(locks or {})
    merged.update(assignment)
    for i, node in enumerate(new.walk()):
        for (idx, name), value in merged.items():
            if idx == i:
                node.params[name] = value
    return new


def enumerate_param_grid(
    graph: OperatorGraph,
    locks: Optional[Dict[ParamKey, object]] = None,
    level: str = "coarse",
    cap: int = 64,
    rng: Optional[np.random.Generator] = None,
) -> List[Dict[ParamKey, object]]:
    """Assignments over the coarse/fine cartesian product, sampled to ``cap``.

    The default assignment (all-first grid values) is always included first,
    so every structure gets at least one canonical measurement.

    When the product exceeds ``cap``, sampling is *stratified by design
    relevance*: parameters of runtime-only operators (``SET_RESOURCES``,
    see :data:`repro.core.kernel.builder.RUNTIME_PARAM_OPS`) are crossed in
    full against a small pool of design-relevant combinations.  Design
    leaves depend only on the design-relevant parameters, so every batch
    enumerated this way re-runs the Designer once per pool entry and the
    staged evaluator's cache serves the rest — design-parameter exploration
    happens across structures and through the fine level instead of inside
    one coarse batch.
    """
    if level not in ("coarse", "fine"):
        raise ValueError("level must be 'coarse' or 'fine'")
    slots = param_slots(graph, locks)
    if not slots:
        return [{}]
    grids = [coarse if level == "coarse" else fine for _, coarse, fine in slots]
    keys = [key for key, _, _ in slots]
    total = 1
    for g in grids:
        total *= len(g)
    if total <= cap:
        product = itertools.product(*grids)
        return [dict(zip(keys, combo)) for combo in product]

    op_names = [node.op_name for node in graph.walk()]
    is_runtime = [op_names[key[0]] in RUNTIME_PARAM_OPS for key in keys]
    design_grids = [g for g, rt in zip(grids, is_runtime) if not rt]
    runtime_grids = [g for g, rt in zip(grids, is_runtime) if rt]
    n_runtime = 1
    for g in runtime_grids:
        n_runtime *= len(g)
    n_design_total = 1
    for g in design_grids:
        n_design_total *= len(g)

    rng = rng or np.random.default_rng(0)
    # Design-combo pool: canonical defaults first, then distinct samples.
    pool: List[Tuple[object, ...]] = [tuple(g[0] for g in design_grids)]
    seen = {pool[0]}
    max_design = min(max(1, cap // n_runtime), n_design_total)
    attempts = 0
    while len(pool) < max_design and attempts < cap * 20:
        combo = tuple(g[rng.integers(len(g))] for g in design_grids)
        attempts += 1
        if combo in seen:
            continue
        seen.add(combo)
        pool.append(combo)

    assignments: List[Dict[ParamKey, object]] = []
    for design_combo in pool:
        for runtime_combo in itertools.product(*runtime_grids):
            design_it = iter(design_combo)
            runtime_it = iter(runtime_combo)
            values = [
                next(runtime_it) if rt else next(design_it) for rt in is_runtime
            ]
            assignments.append(dict(zip(keys, values)))
            if len(assignments) == cap:
                return assignments
    return assignments


def features_for(
    slots: Sequence[Tuple[ParamKey, Tuple[object, ...], Tuple[object, ...]]],
    assignment: Dict[ParamKey, object],
) -> np.ndarray:
    """Numeric feature vector of an assignment (for the GBT cost model).

    Numeric parameters enter in log2 (grids are geometric); categorical
    parameters enter as their index in the fine grid.
    """
    feats = np.zeros(len(slots), dtype=np.float64)
    for j, (key, _coarse, fine) in enumerate(slots):
        value = assignment.get(key, fine[0])
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            feats[j] = np.log2(max(float(value), 1e-9))
        else:
            feats[j] = float(fine.index(value)) if value in fine else -1.0
    return feats
