"""Content-addressed artifact blobs, stored apart from result records.

A result record is ~1 KB: the winning graph, its GFLOPS, the feature
signature and search metadata.  The exported artifact that rides with it
(kernel sources plus base64 format arrays) is 235 KB–1.2 MB.  Both store
backends therefore keep the two apart: ``put_result`` writes the artifact
to ``artifacts/<digest>.json``, where the digest is the blake2b-128 of
the blob's raw bytes, and the record keeps only ``artifact_digest``.
Exact hits, neighbour ranking and donor reads touch records only.

The few callers that use an artifact load it through
:meth:`ArtifactBlobs.read`, the one loader: it checks the digest over the
raw bytes before decoding anything.  Records written before the split
carry their artifact inline under ``artifact`` and keep serving it; no
code writes that layout any more.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from typing import Dict, List, Optional, Tuple

__all__ = [
    "ARTIFACTS",
    "QUARANTINE",
    "ArtifactBlobs",
    "BlobBackedStore",
    "CorruptBlob",
    "split_record",
]

#: blob directory under a store root (both backends)
ARTIFACTS = "artifacts"
#: where damaged files are moved (both backends)
QUARANTINE = "corrupt"
#: the only digest form a blob name may take (records are read from disk,
#: so a damaged one must never name a path outside ``artifacts/``)
_DIGEST = re.compile(r"[0-9a-f]{32}\Z")


def _well_formed(digest: object) -> bool:
    return isinstance(digest, str) and _DIGEST.match(digest) is not None


class CorruptBlob(Exception):
    """A blob is missing, unreadable or does not match its digest."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def split_record(record: Dict) -> Tuple[Dict, Optional[bytes]]:
    """``(stored record, blob bytes)`` of one result record.

    A record carrying ``artifact`` is stored with ``artifact_digest`` in
    its place (None when there is no artifact, and then no blob); any
    other record, such as one read back from a store, is stored as given.
    The caller's record is never mutated.
    """
    if "artifact" not in record:
        return record, None
    stored = {key: value for key, value in record.items() if key != "artifact"}
    artifact = record["artifact"]
    if artifact is None:
        stored["artifact_digest"] = None
        return stored, None
    data = json.dumps(artifact, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    stored["artifact_digest"] = _digest(data)
    return stored, data


class ArtifactBlobs:
    """The ``artifacts/`` tree of one store root.

    ``durable=True`` fsyncs each blob and the directory before
    :meth:`put` returns: the journal backend's records are fsynced
    appends, and a record must never outlive the blob it names.
    """

    def __init__(self, root: str, durable: bool = False) -> None:
        self.root = root
        self.directory = os.path.join(root, ARTIFACTS)
        self.durable = durable

    def path(self, digest: str) -> str:
        return os.path.join(self.directory, f"{digest}.json")

    def put(self, data: bytes, digest: str) -> None:
        """Write one blob (temp file + ``os.replace``).  Always rewrites,
        so a put heals a damaged blob of the same content."""
        os.makedirs(self.directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                if self.durable:
                    fh.flush()
                    os.fsync(fh.fileno())
            os.replace(tmp, self.path(digest))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        if self.durable:
            dir_fd = os.open(self.directory, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)

    def read(self, digest: str) -> Dict:
        """The artifact behind ``digest``; raises :class:`CorruptBlob`."""
        if not _well_formed(digest):
            raise CorruptBlob(f"malformed artifact digest {digest!r}")
        try:
            with open(self.path(digest), "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            raise CorruptBlob("artifact blob missing") from None
        except OSError as exc:
            raise CorruptBlob(f"artifact blob unreadable: {exc}") from exc
        if _digest(data) != digest:
            raise CorruptBlob(
                "artifact blob digest mismatch (truncated or edited)"
            )
        try:
            artifact = json.loads(data)
        except ValueError as exc:
            raise CorruptBlob(f"artifact blob not valid JSON: {exc}") from exc
        if not isinstance(artifact, dict):
            raise CorruptBlob("artifact blob is not a JSON object")
        return artifact

    def quarantine(self, digest: str) -> bool:
        """Move a damaged blob to ``corrupt/``; False when there was
        nothing to move."""
        if not _well_formed(digest):
            return False
        directory = os.path.join(self.root, QUARANTINE)
        try:
            os.makedirs(directory, exist_ok=True)
            os.replace(
                self.path(digest), os.path.join(directory, f"{digest}.json")
            )
        except OSError:
            return False
        return True

    def size(self, digest: str) -> int:
        if not _well_formed(digest):
            return 0
        try:
            return os.path.getsize(self.path(digest))
        except OSError:
            return 0

    def gc(self, referenced: set) -> List[str]:
        """Delete blobs no record names, and temp files of interrupted
        writes; returns the removed paths relative to the store root."""
        if not os.path.isdir(self.directory):
            return []
        removed = []
        for name in sorted(os.listdir(self.directory)):
            stem, ext = os.path.splitext(name)
            if ext == ".json" and stem in referenced:
                continue
            os.unlink(os.path.join(self.directory, name))
            removed.append(f"{ARTIFACTS}/{name}")
        return removed


class BlobBackedStore:
    """Artifact access shared by both store backends.

    The host class sets ``_blobs`` and provides ``_bump(**counters)`` and
    ``_log_quarantine(relative_name, reason)``.
    """

    _blobs: ArtifactBlobs

    def _put_record(self, record: Dict) -> Dict:
        """Write ``record``'s artifact blob, if it carries one, and return
        the record to store in its place."""
        stored, data = split_record(record)
        if data is not None:
            self._blobs.put(data, stored["artifact_digest"])
        return stored

    def load_artifact(self, digest: Optional[str]) -> Optional[Dict]:
        """The artifact a record's ``artifact_digest`` names, or None.

        A missing or damaged blob counts in :attr:`StoreStats.corrupt`
        and is moved to ``corrupt/``; the next ``put_result`` of the same
        artifact writes it afresh.
        """
        if not digest:
            return None
        try:
            return self._blobs.read(digest)
        except CorruptBlob as exc:
            self._bump(corrupt=1)
            self._quarantine_blob(digest, exc.reason)
            return None

    def _quarantine_blob(self, digest: str, reason: str) -> None:
        if self._blobs.quarantine(digest):
            self._log_quarantine(f"{ARTIFACTS}/{digest}.json", reason)

    def _artifact_problem(self, record: Dict) -> Optional[str]:
        """Why ``record``'s blob fails to load (None: it loads, or the
        record names none) — the ``verify`` check, without quarantine."""
        digest = record.get("artifact_digest")
        if not digest:
            return None
        try:
            self._blobs.read(digest)
        except CorruptBlob as exc:
            return f"{ARTIFACTS}/{digest}.json: {exc.reason}"
        return None
