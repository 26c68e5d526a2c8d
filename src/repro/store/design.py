"""Persistent, content-addressed store of finished search results.

A one-time AlphaSparse search yields a reusable machine-designed
format+kernel per matrix — but every in-process memo dies with the
process.  The :class:`DesignStore` persists the one output worth keeping:

**Result entries** hold one finished search per ``(matrix, arch)``: the
winning Operator Graph, its measured GFLOPS, the matrix's feature
signature (nearest-neighbour serving) and the exported artifact payload
(everything :func:`repro.export.export_program` writes, inline).  A
stored matrix is answered from its result record; nothing the Designer
produces on the way is persisted — the search rebuilds any intermediate
design in milliseconds, far less than writing it would cost.

Layout — one directory, sharded one-file-per-entry::

    <root>/store.json            header: {"schema": N, "kind": "design-store"}
    <root>/results/<digest>.json
    <root>/results/<digest>.meta  nearest-neighbour sidecar
    <root>/claims/<digest>.json   at-most-once search fences

Stores written by earlier revisions may also hold a ``designs/`` tree of
Designer outputs; nothing reads it, and :meth:`DesignStore.gc` deletes it.

Every write goes through a temp file + ``os.replace`` (the
``bench.ResultStore`` atomicity pattern), and distinct keys live in
distinct files, so concurrent writers — two engines sharing one store
path, or one engine racing a crash — can never corrupt each other: the
worst outcome of a race on the *same* key is that one complete entry
replaces another.  A store whose header schema does not match this
revision raises :class:`~repro.store.errors.StoreVersionError` up front;
an individually corrupt or truncated entry file is treated as a miss
(counted in :attr:`StoreStats.corrupt`) so serving degrades instead of
failing.  On first detection the damaged file is *quarantined* — moved to
a ``corrupt/`` sibling directory (``STORE-QUARANTINED`` in the
:mod:`repro.errors` taxonomy) — so the store never re-reads known damage,
a later write of the same key heals cleanly, and the evidence survives for
post-mortems; ``verify --repair`` quarantines in bulk and ``gc`` prunes.

An alternative *journal* backend with the same read/write surface —
append-only log, multi-writer file locking, crash recovery, compaction —
lives in :mod:`repro.store.journal`; :func:`repro.store.open_store`
dispatches on the header's ``backend`` field.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.reliability.faults import FaultInjector, FaultPlan
from repro.store.codec import key_digest, payload_digest
from repro.store.errors import StoreError, StoreVersionError

__all__ = [
    "DesignStore",
    "StoreStats",
    "EntryStatus",
    "SCHEMA_VERSION",
    "result_entry_doc",
    "result_meta_doc",
]

SCHEMA_VERSION = 1

_HEADER = "store.json"
_RESULTS = "results"
#: Designer-output tree of stores written by earlier revisions (gc deletes it)
_LEGACY_DESIGNS = "designs"
_QUARANTINE = "corrupt"
_CLAIMS = "claims"


def _matrix_fields(token: Tuple) -> Dict[str, object]:
    name, n_rows, n_cols, nnz, digest = token
    return {
        "name": name,
        "n_rows": int(n_rows),
        "n_cols": int(n_cols),
        "nnz": int(nnz),
        "digest": digest,
    }


def result_entry_doc(token: Tuple, arch: str, record: Dict) -> Dict[str, object]:
    """The canonical result entry document.

    Shared by both backends — the directory store writes it as one file,
    the journal store embeds it in a log record — so stored *content* is
    bit-identical regardless of backend (asserted by the differential
    suite in ``tests/test_journal_store.py``).
    """
    return {
        "schema": SCHEMA_VERSION,
        "kind": "result",
        "arch": arch,
        "matrix": _matrix_fields(token),
        "payload_digest": payload_digest(record),
        "payload": record,
    }


def result_meta_doc(arch: Optional[str], record: Dict) -> Dict:
    """Lightweight nearest-neighbour metadata derived from one record."""
    meta = {
        "schema": SCHEMA_VERSION,
        "arch": arch,
        "name": record.get("name"),
        "matrix_digest": record.get("matrix_digest"),
        "features": record.get("features"),
        "best_gflops": record.get("best_gflops"),
        "via": record.get("via", "search"),
        "has_graph": record.get("graph") is not None,
    }
    if "workload" in record:
        # Absent == spmv (matching the record convention), so sidecars
        # of pre-workload-layer stores stay byte-identical.
        meta["workload"] = record["workload"]
    return meta


def result_detail(record: Dict) -> str:
    """``ls``/``verify`` detail column of one result record."""
    gflops = record.get("best_gflops")
    via = record.get("via", "search")
    if isinstance(gflops, (int, float)):
        return f"{gflops:.1f} GFLOPS via {via}"
    return via


@dataclass(frozen=True)
class StoreStats:
    """Counters of one store handle: result hits/misses/writes, plus
    corrupt entries encountered and quarantined."""

    result_hits: int = 0
    result_misses: int = 0
    result_writes: int = 0
    corrupt: int = 0
    quarantined: int = 0


@dataclass(frozen=True)
class EntryStatus:
    """One entry's integrity verdict (``verify`` / ``ls``)."""

    kind: str  # "result" | "journal"
    filename: str
    ok: bool
    matrix: str
    arch: str
    detail: str
    bytes: int


class _CorruptEntry(Exception):
    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class DesignStore:
    """On-disk content-addressed store of finished search results."""

    def __init__(
        self,
        path: str | os.PathLike,
        create: bool = True,
        faults: Optional[FaultPlan | FaultInjector] = None,
    ) -> None:
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        self._stats = StoreStats()
        #: chaos seam — a :class:`~repro.reliability.faults.FaultInjector`
        #: consulted on entry reads/writes (None in production)
        self.faults = (
            faults.injector() if isinstance(faults, FaultPlan) else faults
        )
        #: ``(relative filename, reason)`` per entry this handle moved to
        #: ``corrupt/`` — the evidence behind ``STORE-QUARANTINED`` lines
        self.quarantine_log: List[Tuple[str, str]] = []
        header_path = os.path.join(self.path, _HEADER)
        if os.path.isfile(self.path):
            raise StoreError(
                f"{self.path!r} is a file; a design store is a directory"
            )
        if os.path.exists(header_path):
            try:
                with open(header_path, "r") as fh:
                    header = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise StoreError(
                    f"cannot read design-store header {header_path!r}: {exc}"
                ) from exc
            if not isinstance(header, dict) or header.get("kind") != "design-store":
                raise StoreError(
                    f"{self.path!r} is not a design store (bad header)"
                )
            if header.get("schema") != SCHEMA_VERSION:
                raise StoreVersionError(
                    f"design store {self.path!r} has schema "
                    f"{header.get('schema')!r}, this revision reads "
                    f"{SCHEMA_VERSION}; rebuild the store (or read it with "
                    "the revision that wrote it)"
                )
            if header.get("backend", "dir") != "dir":
                raise StoreError(
                    f"design store {self.path!r} uses the "
                    f"{header.get('backend')!r} backend; open it with "
                    "repro.store.open_store (or the matching backend class)"
                )
        elif create:
            os.makedirs(self.path, exist_ok=True)
            self._atomic_write(
                header_path, {"schema": SCHEMA_VERSION, "kind": "design-store"}
            )
        else:
            raise StoreError(f"no design store at {self.path!r}")
        os.makedirs(os.path.join(self.path, _RESULTS), exist_ok=True)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def stats(self) -> StoreStats:
        with self._lock:
            return replace(self._stats)

    def _bump(self, **deltas: int) -> None:
        with self._lock:
            self._stats = replace(
                self._stats,
                **{k: getattr(self._stats, k) + v for k, v in deltas.items()},
            )

    def __len__(self) -> int:
        return len(self._list(_RESULTS))

    # ------------------------------------------------------------------
    # Low-level entry I/O
    # ------------------------------------------------------------------
    def _entry_path(self, digest: str) -> str:
        return os.path.join(self.path, _RESULTS, f"{digest}.json")

    def _list(self, kind: str) -> List[str]:
        directory = os.path.join(self.path, kind)
        if not os.path.isdir(directory):
            return []
        return sorted(
            name for name in os.listdir(directory) if name.endswith(".json")
        )

    def _atomic_write(self, path: str, document: Dict) -> None:
        if self.faults is not None:
            self.faults.maybe_slow("write", path)
            self.faults.maybe_io_error("write", path)
        directory = os.path.dirname(path)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(document, fh, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def _read_entry(self, path: str) -> Dict:
        """Load + integrity-check one result entry; raises _CorruptEntry."""
        try:
            if self.faults is not None:
                self.faults.maybe_slow("read", path)
                self.faults.maybe_io_error("read", path)
            with open(path, "r") as fh:
                entry = json.load(fh)
        except OSError as exc:
            raise _CorruptEntry(f"unreadable: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise _CorruptEntry(f"not valid JSON: {exc}") from exc
        if not isinstance(entry, dict):
            raise _CorruptEntry("entry is not a JSON object")
        if entry.get("schema") != SCHEMA_VERSION:
            raise _CorruptEntry(
                f"entry schema {entry.get('schema')!r} != {SCHEMA_VERSION}"
            )
        if entry.get("kind") != "result":
            raise _CorruptEntry(
                f"entry kind {entry.get('kind')!r}, expected 'result'"
            )
        if "payload" not in entry or "payload_digest" not in entry:
            raise _CorruptEntry("entry has no payload")
        if payload_digest(entry["payload"]) != entry["payload_digest"]:
            raise _CorruptEntry("payload digest mismatch (truncated or edited)")
        return entry

    def _quarantine(self, path: str, reason: str) -> bool:
        """Move a corrupt entry to ``corrupt/`` on first detection.

        Quarantining (rather than retrying the damage forever, or deleting
        the evidence) clears the key — so the caller's write-back heals the
        store — while keeping the damaged bytes for inspection.  A second
        corruption of the same filename overwrites the earlier quarantined
        copy: the most recent damage is the interesting one.  Best-effort:
        a read-only store just keeps treating the entry as a miss.
        """
        rel = os.path.relpath(path, self.path)
        try:
            directory = os.path.join(self.path, _QUARANTINE)
            os.makedirs(directory, exist_ok=True)
            os.replace(path, os.path.join(directory, os.path.basename(path)))
        except OSError:
            return False
        with self._lock:
            self.quarantine_log.append((rel, reason))
            self._stats = replace(
                self._stats, quarantined=self._stats.quarantined + 1
            )
        return True

    def _read_or_quarantine(self, path: str) -> Optional[Dict]:
        """One entry read: the entry, or None after quarantining damage."""
        try:
            return self._read_entry(path)
        except _CorruptEntry as exc:
            self._bump(corrupt=1)
            self._quarantine(path, exc.reason)
            return None

    # ------------------------------------------------------------------
    # Retired design entries
    # ------------------------------------------------------------------
    def get_design(self, *args, **kwargs):
        # Stub: perfbench/tracing.py wraps this name on the store class.
        # Delete it once the benchmark stops tracing it.
        raise StoreError("design entries are no longer stored")

    def put_design(self, *args, **kwargs):
        # Stub: perfbench/tracing.py wraps this name on the store class.
        # Delete it once the benchmark stops tracing it.
        raise StoreError("design entries are no longer stored")

    # ------------------------------------------------------------------
    # Result entries
    # ------------------------------------------------------------------
    def result_digest(self, token: Tuple, arch: str) -> str:
        return key_digest("result", token, arch)

    def get_result(self, token: Tuple, arch: str) -> Optional[Dict]:
        """The stored search result for ``(matrix, arch)``, or None."""
        path = self._entry_path(self.result_digest(token, arch))
        if not os.path.exists(path):
            self._bump(result_misses=1)
            return None
        try:
            entry = self._read_entry(path)
            if entry.get("matrix", {}).get("digest") != token[-1]:
                raise _CorruptEntry("matrix digest does not match key")
        except _CorruptEntry as exc:
            self._bump(result_misses=1, corrupt=1)
            self._quarantine(path, exc.reason)
            return None
        self._bump(result_hits=1)
        return entry["payload"]

    def put_result(self, token: Tuple, arch: str, record: Dict) -> None:
        """Persist (or overwrite) the finished search result for a matrix.

        Results are overwritten: a fresh full search may legitimately
        replace a neighbour-transferred record with a better one.  A small
        ``.meta`` sidecar (features, name, GFLOPS — no artifact) is written
        next to the entry so nearest-neighbour scans never have to decode
        full artifact payloads.
        """
        digest = self.result_digest(token, arch)
        self._atomic_write(
            self._entry_path(digest), result_entry_doc(token, arch, record)
        )
        self._atomic_write(self._meta_path(digest), result_meta_doc(arch, record))
        self._bump(result_writes=1)

    # -- lightweight result metadata (nearest-neighbour index) ----------
    def _meta_path(self, digest: str) -> str:
        return os.path.join(self.path, _RESULTS, f"{digest}.meta")

    def result_metas(self, arch: Optional[str] = None) -> List[Tuple[str, Dict]]:
        """``(digest, meta)`` per stored result — the cheap scan the
        serving frontend ranks neighbours on.  A missing or unreadable
        sidecar self-heals from one full entry read (and is written back);
        corrupt entries are skipped and counted."""
        out: List[Tuple[str, Dict]] = []
        for name in self._list(_RESULTS):
            digest = name[: -len(".json")]
            meta: Optional[Dict] = None
            meta_path = self._meta_path(digest)
            if os.path.exists(meta_path):
                try:
                    with open(meta_path, "r") as fh:
                        candidate = json.load(fh)
                    if (
                        isinstance(candidate, dict)
                        and candidate.get("schema") == SCHEMA_VERSION
                    ):
                        meta = candidate
                except (OSError, json.JSONDecodeError):
                    meta = None
            if meta is None:
                entry = self._read_or_quarantine(self._entry_path(digest))
                if entry is None:
                    continue
                meta = result_meta_doc(entry.get("arch"), entry["payload"])
                try:
                    self._atomic_write(meta_path, meta)
                except OSError:
                    # Read-only store (multi-reader serving deployment):
                    # serve from the in-memory meta, heal nothing.
                    pass
            if arch is not None and meta.get("arch") != arch:
                continue
            out.append((digest, meta))
        return out

    def result_payload(self, digest: str) -> Optional[Dict]:
        """Full (digest-verified) record behind one :meth:`result_metas`
        row — loaded only for the chosen neighbour, never during ranking."""
        path = self._entry_path(digest)
        if not os.path.exists(path):
            return None
        entry = self._read_or_quarantine(path)
        return None if entry is None else entry["payload"]

    def results(self, arch: Optional[str] = None) -> List[Dict]:
        """Every valid stored result record (optionally one arch only),
        in deterministic filename order; corrupt entries are skipped."""
        records = []
        for name in self._list(_RESULTS):
            entry = self._read_or_quarantine(
                os.path.join(self.path, _RESULTS, name)
            )
            if entry is None:
                continue
            if arch is not None and entry.get("arch") != arch:
                continue
            records.append(entry["payload"])
        return records

    # ------------------------------------------------------------------
    # Maintenance (CLI: store ls / verify / gc)
    # ------------------------------------------------------------------
    def entries(self) -> List[EntryStatus]:
        """Integrity status of every result entry file (``ls``/``verify``)."""
        out: List[EntryStatus] = []
        for name in self._list(_RESULTS):
            path = os.path.join(self.path, _RESULTS, name)
            size = os.path.getsize(path) if os.path.exists(path) else 0
            try:
                entry = self._read_entry(path)
            except _CorruptEntry as exc:
                out.append(
                    EntryStatus("result", name, False, "?", "?", exc.reason, size)
                )
                continue
            out.append(
                EntryStatus(
                    "result",
                    name,
                    True,
                    str(entry.get("matrix", {}).get("name") or "<unnamed>"),
                    str(entry.get("arch")),
                    result_detail(entry["payload"]),
                    size,
                )
            )
        return out

    def verify(self, repair: bool = False) -> List[EntryStatus]:
        """Integrity check of every entry (:meth:`entries`).

        With ``repair=True`` every failing entry is quarantined to
        ``corrupt/`` on the spot (the ``store verify --repair`` CLI path),
        exactly as a read path would on first detection; the returned
        statuses still describe the damage found.
        """
        statuses = self.entries()
        if repair:
            for status in statuses:
                if not status.ok:
                    self._quarantine(
                        os.path.join(self.path, _RESULTS, status.filename),
                        status.detail,
                    )
        return statuses

    # ------------------------------------------------------------------
    # Search claims (at-most-once execution for the resolver pool)
    # ------------------------------------------------------------------
    def claim_search(self, key: str) -> bool:
        """Atomically claim one search execution; True iff we won it.

        The resolver pool writes a claim *before* starting a fresh search
        so a request re-dispatched after a worker death can prove a search
        already started and degrade instead of running it again —
        at-most-once search execution.  Claims are durable (they must
        survive the claimant's crash); ``gc`` prunes them.
        """
        directory = os.path.join(self.path, _CLAIMS)
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{key_digest('claim', key)}.json")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w") as fh:
            json.dump({"schema": SCHEMA_VERSION, "key": key}, fh)
            fh.write("\n")
        return True

    def claims(self) -> List[str]:
        """Every outstanding claim key (diagnostics / chaos assertions)."""
        directory = os.path.join(self.path, _CLAIMS)
        if not os.path.isdir(directory):
            return []
        out = []
        for name in sorted(os.listdir(directory)):
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(directory, name), "r") as fh:
                    out.append(str(json.load(fh)["key"]))
            except (OSError, json.JSONDecodeError, KeyError, TypeError):
                continue
        return out

    def gc(self) -> Tuple[List[str], List[str]]:
        """Prune corrupt entries, legacy design entries and claims.

        Returns ``(removed_corrupt, removed_designs)`` relative filenames;
        the second list is the ``designs/`` tree an earlier revision wrote,
        which nothing reads any more.
        """
        removed_corrupt: List[str] = []
        for name in self._list(_RESULTS):
            path = os.path.join(self.path, _RESULTS, name)
            try:
                self._read_entry(path)
            except _CorruptEntry:
                os.unlink(path)
                removed_corrupt.append(f"{_RESULTS}/{name}")
        designs_dir = os.path.join(self.path, _LEGACY_DESIGNS)
        removed_designs = [
            f"{_LEGACY_DESIGNS}/{name}"
            for name in (
                sorted(os.listdir(designs_dir))
                if os.path.isdir(designs_dir)
                else []
            )
        ]
        shutil.rmtree(designs_dir, ignore_errors=True)
        # Meta sidecars are derived data: drop any whose entry is gone
        # (including entries gc just removed) — they regenerate on demand.
        results_dir = os.path.join(self.path, _RESULTS)
        for name in sorted(os.listdir(results_dir)):
            if not name.endswith(".meta"):
                continue
            entry_path = os.path.join(
                results_dir, name[: -len(".meta")] + ".json"
            )
            if not os.path.exists(entry_path):
                os.unlink(os.path.join(results_dir, name))
        # Claims are per-run execution fences; once no pool run is live
        # they are residue, and gc is only run between serving sessions.
        claims_dir = os.path.join(self.path, _CLAIMS)
        if os.path.isdir(claims_dir):
            for name in sorted(os.listdir(claims_dir)):
                if name.endswith(".json"):
                    os.unlink(os.path.join(claims_dir, name))
        return removed_corrupt, removed_designs
