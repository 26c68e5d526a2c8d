"""Persistent design store (see :mod:`repro.store.design`).

Turns one-time search output into durable, content-addressed artifacts:
one result entry per ``(matrix, arch)`` — the winning graph, its GFLOPS,
feature signature and search metadata — lets the serving layer answer
without searching.  Each entry is two objects: a ~1 KB record, and the
exported artifact as a blob under ``artifacts/`` named by the blake2b of
its bytes (:mod:`repro.store.artifacts`).  Exact hits and neighbour
ranking read records only; callers that use the artifact (``serve
--out``, the resolver pool's parent, the static audit, ``store verify``)
load it with ``load_artifact``.  Searches themselves never touch a store:
they design in memory, and only their finished results are written.

Two interchangeable backends hold bit-identical content:

* ``dir`` (:class:`DesignStore`) — one file per record, atomic replace.
* ``journal`` (:class:`~repro.store.journal.JournalStore`) — crash-safe
  append-only log of checksummed records, multi-writer file locking,
  and snapshot compaction (the serving backend).

Both keep artifact blobs in the same ``artifacts/`` tree, written before
the record that names them.

:func:`open_store` dispatches on the store header so callers never need
to know which backend wrote a directory.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.store.codec import key_digest, payload_digest
from repro.store.design import (
    SCHEMA_VERSION,
    DesignStore,
    EntryStatus,
    StoreStats,
    result_entry_doc,
    result_meta_doc,
)
from repro.store.errors import StoreError, StoreVersionError
from repro.store.journal import JournalStore, LockTimeoutError
from repro.store.records import (
    FEATURE_NAMES,
    feature_vector,
    make_result_record,
    search_result_record,
)

__all__ = [
    "DesignStore",
    "JournalStore",
    "open_store",
    "EntryStatus",
    "StoreStats",
    "StoreError",
    "StoreVersionError",
    "LockTimeoutError",
    "SCHEMA_VERSION",
    "FEATURE_NAMES",
    "feature_vector",
    "make_result_record",
    "search_result_record",
    "result_entry_doc",
    "result_meta_doc",
    "key_digest",
    "payload_digest",
]


def open_store(
    path: str | os.PathLike,
    backend: str = "auto",
    create: bool = True,
    faults=None,
    **kwargs,
):
    """Open (or create) a design store with the right backend.

    ``backend="auto"`` reads the existing header and opens whichever
    backend wrote the store; when creating a *new* store, ``auto`` means
    ``dir`` (the conservative default — ``journal`` is the serving
    backend and is opted into explicitly).  Extra keyword arguments go to
    the backend constructor (e.g. ``lock_policy``/``auto_compact_bytes``
    for the journal backend; they are rejected for ``dir``).
    """
    if backend not in ("auto", "dir", "journal"):
        raise StoreError(
            f"unknown store backend {backend!r}; one of auto/dir/journal"
        )
    path = os.fspath(path)
    if backend == "auto":
        backend = _detect_backend(path) or "dir"
    if backend == "journal":
        return JournalStore(path, create=create, faults=faults, **kwargs)
    if kwargs:
        raise StoreError(
            f"directory backend takes no extra options, got {sorted(kwargs)}"
        )
    return DesignStore(path, create=create, faults=faults)


def _detect_backend(path: str) -> Optional[str]:
    """Backend recorded in an existing store header, else None."""
    header_path = os.path.join(path, "store.json")
    try:
        with open(header_path, "r") as fh:
            header = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(header, dict) or header.get("kind") != "design-store":
        return None
    return str(header.get("backend", "dir"))
