"""One design per thread-distribution path of the kernel builder.

Keys name the mapped levels (``none`` = the unmapped grid-stride loop).
Each design has one ``SET_RESOURCES`` node, whose full fine grid the
memo-key tests sweep, and a reduction chain that is valid for SpMV under
every grid point; block-level steps under a configured block size make
the cost depend on ``threads_per_block`` where the thread assignment does
not.  Shared by ``test_plan_analysis.py`` (one computation per thread
assignment) and ``test_batcheval.py`` (the replay oracle).
"""

from repro.core.operators import get_operator

MAPPING_PATHS = {
    "bmt": ["COMPRESS", ("BMT_ROW_BLOCK", {"rows_per_block": 1}),
            "SET_RESOURCES", "THREAD_TOTAL_RED", "SHMEM_OFFSET_RED",
            "GMEM_ATOM_RED"],
    "bmt+bmw": ["COMPRESS", "BMW_NNZ_BLOCK", "BMT_NNZ_BLOCK",
                "SET_RESOURCES", "THREAD_BITMAP_RED", "WARP_SEG_RED",
                "GMEM_ATOM_RED"],
    "bmw": ["COMPRESS", ("BMW_ROW_BLOCK", {"rows_per_block": 1}),
            "SET_RESOURCES", "WARP_SEG_RED", "SHMEM_OFFSET_RED",
            "GMEM_ATOM_RED"],
    "bmw+bmtb": ["COMPRESS", ("BMTB_ROW_BLOCK", {"rows_per_block": 16}),
                 ("BMW_ROW_BLOCK", {"rows_per_block": 1}),
                 "SET_RESOURCES", "WARP_SEG_RED", "GMEM_ATOM_RED"],
    "bmt+bmtb": ["COMPRESS", "BMTB_NNZ_BLOCK", "BMT_NNZ_BLOCK",
                 "SET_RESOURCES", "THREAD_BITMAP_RED", "SHMEM_OFFSET_RED",
                 "GMEM_ATOM_RED"],
    "bmt+bmw+bmtb": ["COMPRESS", ("BMTB_ROW_BLOCK", {"rows_per_block": 16}),
                     ("BMW_ROW_BLOCK", {"rows_per_block": 1}),
                     ("BMT_ROW_BLOCK", {"rows_per_block": 1}),
                     "SET_RESOURCES", "GMEM_ATOM_RED"],
    "bmtb": ["COMPRESS", ("BMTB_ROW_BLOCK", {"rows_per_block": 32}),
             "SET_RESOURCES", "SHMEM_OFFSET_RED", "GMEM_ATOM_RED"],
    "none": ["COMPRESS", "SET_RESOURCES", "GMEM_ATOM_RED"],
}

_SET_RESOURCES = get_operator("SET_RESOURCES")
#: the ``SET_RESOURCES`` fine grid: 5 block sizes x 5 work grains
FINE_TPB = _SET_RESOURCES.param_spec("threads_per_block").fine
FINE_WPT = _SET_RESOURCES.param_spec("work_per_thread").fine


def fine_grid(graph):
    """One assignment per point of the fine grid, keyed the way
    ``graph_with_params`` takes them."""
    (idx,) = [
        i for i, node in enumerate(graph.walk())
        if node.op_name == "SET_RESOURCES"
    ]
    return [
        {(idx, "threads_per_block"): tpb, (idx, "work_per_thread"): wpt}
        for tpb in FINE_TPB
        for wpt in FINE_WPT
    ]
