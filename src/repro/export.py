"""Artifact export: persist a generated SpMV program to disk.

The paper positions AlphaSparse as "an extremely optimized library
generator" whose output "can be directly called in real-world applications"
(§III, artifact description).  This module writes that artifact: a
directory containing the machine-designed format's arrays (``.npy``), the
generated kernel source, the winning Operator Graph (JSON, reloadable), and
a manifest — everything a downstream build would need.

Export is split into two halves so the design store can persist the same
artifact *inline*:

:func:`program_payload`
    The artifact as one JSON-safe dict — sources, launch geometry,
    operator provenance and format arrays (bit-exact base64 encoding,
    compressed arrays as their closed-form model).  This is what a
    :class:`~repro.store.design.DesignStore` result entry carries, so the
    serving frontend can hand back a complete artifact without rebuilding
    the program.

:func:`write_artifact`
    Materialises a payload into the on-disk directory layout below.

:func:`export_program` is the original one-shot composition of the two.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

import numpy as np

from repro.core.graph import OperatorGraph
from repro.core.kernel.program import GeneratedProgram
from repro.store.codec import decode_array, encode_array

__all__ = [
    "export_program",
    "program_payload",
    "write_artifact",
    "load_exported_graph",
    "read_manifest",
]

_MANIFEST = "manifest.json"
_GRAPH = "operator_graph.json"


def program_payload(
    program: GeneratedProgram,
    graph: Optional[OperatorGraph] = None,
    encoded: bool = True,
) -> Dict[str, object]:
    """The program's complete artifact as one JSON-safe dict.

    ``encoded=False`` keeps format arrays as raw ndarrays instead of
    base64 — the plain disk-export path uses it to skip the encode/decode
    round-trip entirely (the resulting payload is for
    :func:`write_artifact` only, not for JSON serialisation).
    """
    payload: Dict[str, object] = {
        "matrix_name": program.matrix_name,
        "n_rows": program.n_rows,
        "n_cols": program.n_cols,
        "useful_nnz": program.useful_nnz,
        "format_bytes": program.format_bytes,
        "kernels": [],
    }
    for unit in program.kernels:
        array_entries = []
        for arr in unit.format.arrays:
            entry: Dict[str, object] = {
                "name": arr.name,
                "stored_bytes": arr.stored_bytes,
                "raw_bytes": arr.raw_bytes,
            }
            if arr.model is not None:
                entry["model"] = {
                    "kind": arr.model.kind,
                    "coeffs": list(arr.model.coeffs),
                    "period": arr.model.period,
                    "exceptions": [list(e) for e in arr.model.exceptions],
                    "length": arr.model.length,
                }
            else:
                entry["data"] = encode_array(arr.data) if encoded else arr.data
            array_entries.append(entry)
        payload["kernels"].append(
            {
                "label": unit.label.replace("/", "_") or "root",
                "source_text": unit.source,
                "operators": list(unit.applied_operators),
                "launch": {
                    "blocks": unit.plan.n_blocks,
                    "threads_per_block": unit.plan.threads_per_block,
                    "interleaved": unit.plan.interleaved,
                },
                "arrays": array_entries,
            }
        )
    if graph is not None:
        payload["operator_graph"] = graph.to_dict()
    return payload


def write_artifact(
    payload: Dict[str, object], directory: str | os.PathLike
) -> str:
    """Materialise a :func:`program_payload` dict on disk.

    Layout::

        <dir>/manifest.json
        <dir>/operator_graph.json          (when the graph is present)
        <dir>/kernel_<label>.cu            (CUDA-like source per kernel)
        <dir>/<label>/<array>.npy          (format arrays per kernel)

    The JSON files are written key-sorted, so an artifact exports the same
    bytes whether it comes from memory or from a store.  Returns the
    manifest path.
    """
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    manifest: Dict[str, object] = {
        "matrix_name": payload["matrix_name"],
        "n_rows": payload["n_rows"],
        "n_cols": payload["n_cols"],
        "useful_nnz": payload["useful_nnz"],
        "format_bytes": payload["format_bytes"],
        "kernels": [],
    }
    for kernel in payload["kernels"]:
        label = kernel["label"]
        kernel_dir = os.path.join(directory, label)
        os.makedirs(kernel_dir, exist_ok=True)
        array_entries = []
        for arr in kernel["arrays"]:
            entry: Dict[str, object] = {
                "name": arr["name"],
                "stored_bytes": arr["stored_bytes"],
                "raw_bytes": arr["raw_bytes"],
            }
            if "model" in arr:
                entry["model"] = dict(arr["model"])
            else:
                path = os.path.join(kernel_dir, f"{arr['name']}.npy")
                data = arr["data"]
                if isinstance(data, dict):
                    data = decode_array(data)
                np.save(path, np.asarray(data))
                entry["file"] = os.path.relpath(path, directory)
            array_entries.append(entry)
        source_path = os.path.join(directory, f"kernel_{label}.cu")
        with open(source_path, "w") as handle:
            handle.write(kernel["source_text"] + "\n")
        manifest["kernels"].append(
            {
                "label": label,
                "source": os.path.relpath(source_path, directory),
                "operators": list(kernel["operators"]),
                "launch": dict(kernel["launch"]),
                "arrays": array_entries,
            }
        )
    if "operator_graph" in payload:
        with open(os.path.join(directory, _GRAPH), "w") as handle:
            json.dump(payload["operator_graph"], handle, indent=2, sort_keys=True)
        manifest["operator_graph"] = _GRAPH
    manifest_path = os.path.join(directory, _MANIFEST)
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
    return manifest_path


def export_program(
    program: GeneratedProgram,
    directory: str | os.PathLike,
    graph: Optional[OperatorGraph] = None,
) -> str:
    """Write a program's artifact directory; returns the manifest path."""
    return write_artifact(
        program_payload(program, graph, encoded=False), directory
    )


def read_manifest(directory: str | os.PathLike) -> Dict[str, object]:
    """Load an exported artifact's manifest."""
    with open(os.path.join(os.fspath(directory), _MANIFEST)) as handle:
        return json.load(handle)


def load_exported_graph(directory: str | os.PathLike) -> OperatorGraph:
    """Reload the Operator Graph saved next to an exported program."""
    with open(os.path.join(os.fspath(directory), _GRAPH)) as handle:
        return OperatorGraph.from_dict(json.load(handle))
