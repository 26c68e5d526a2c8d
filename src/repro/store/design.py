"""Persistent, content-addressed design store.

A one-time AlphaSparse search yields a reusable machine-designed
format+kernel per matrix — but every in-process cache dies with the
process.  The :class:`DesignStore` turns search results into durable
artifacts:

**Design entries** persist Designer output keyed on
``(matrix token, design signature, arch name)`` — a search's design-memo
key plus the matrix and the architecture — so a second search of the same matrix *in a different process* warm-starts
from stored designs and performs zero Designer runs.  Failed designs
(:class:`~repro.core.designer.DesignError`) are stored too; replaying the
failure is as load-bearing for byte-identical histories as replaying a
success.

**Result entries** persist one finished search per ``(matrix, arch)``:
the winning Operator Graph, its measured GFLOPS, the matrix's feature
signature (nearest-neighbour serving) and the exported artifact payload
(everything :func:`repro.export.export_program` writes, inline).

Layout — one directory, sharded one-file-per-entry::

    <root>/store.json            header: {"schema": N, "kind": "design-store"}
    <root>/designs/<digest>.json
    <root>/results/<digest>.json

Every write goes through a temp file + ``os.replace`` (the
``bench.ResultStore`` atomicity pattern), and distinct keys live in
distinct files, so concurrent writers — two engines sharing one store
path, or one engine racing a crash — can never corrupt each other: the
worst outcome of a race on the *same* key is that identical content is
replaced by identical content.  A store whose header schema does not match
this revision raises :class:`~repro.store.errors.StoreVersionError` up
front; an individually corrupt or truncated entry file is treated as a
cache miss (counted in :attr:`StoreStats.corrupt`) so serving degrades
instead of failing.  On first detection the damaged file is *quarantined*
— moved to a ``corrupt/`` sibling directory (``STORE-QUARANTINED`` in the
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
import tempfile
import threading
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.designer import DesignLeaf
from repro.reliability.faults import FaultInjector, FaultPlan
from repro.store.codec import (
    decode_leaves,
    encode_leaves,
    key_digest,
    payload_digest,
)
from repro.store.errors import StoreError, StoreVersionError

__all__ = [
    "DesignStore",
    "StoreStats",
    "EntryStatus",
    "SCHEMA_VERSION",
    "design_entry_doc",
    "result_entry_doc",
    "result_meta_doc",
]

SCHEMA_VERSION = 1

_HEADER = "store.json"
_KINDS = ("designs", "results")
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


def design_entry_doc(
    token: Tuple, signature: Tuple, arch: str, payload: Dict[str, object]
) -> Dict[str, object]:
    """The canonical design entry document.

    Shared by both backends — the directory store writes it as one file,
    the journal store embeds it in a log record — so stored *content* is
    bit-identical regardless of backend (asserted by the differential
    suite in ``tests/test_journal_store.py``).
    """
    return {
        "schema": SCHEMA_VERSION,
        "kind": "design",
        "arch": arch,
        "matrix": _matrix_fields(token),
        "signature": repr(signature),
        "payload_digest": payload_digest(payload),
        "payload": payload,
    }


def result_entry_doc(token: Tuple, arch: str, record: Dict) -> Dict[str, object]:
    """The canonical result entry document (see :func:`design_entry_doc`)."""
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


@dataclass(frozen=True)
class StoreStats:
    """Counters of one :class:`DesignStore` handle (hit/miss/write per
    entry kind, plus corrupt entries encountered), ``since``-comparable
    like the in-memory cache stats."""

    design_hits: int = 0
    design_misses: int = 0
    design_writes: int = 0
    result_hits: int = 0
    result_misses: int = 0
    result_writes: int = 0
    corrupt: int = 0
    quarantined: int = 0

    def since(self, other: "StoreStats") -> "StoreStats":
        return StoreStats(
            design_hits=self.design_hits - other.design_hits,
            design_misses=self.design_misses - other.design_misses,
            design_writes=self.design_writes - other.design_writes,
            result_hits=self.result_hits - other.result_hits,
            result_misses=self.result_misses - other.result_misses,
            result_writes=self.result_writes - other.result_writes,
            corrupt=self.corrupt - other.corrupt,
            quarantined=self.quarantined - other.quarantined,
        )


@dataclass(frozen=True)
class EntryStatus:
    """One entry's integrity verdict (``verify`` / ``ls``)."""

    kind: str  # "design" | "result"
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
    """On-disk content-addressed store of designs and search results."""

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
        for kind in _KINDS:
            os.makedirs(os.path.join(self.path, kind), exist_ok=True)

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
        return sum(len(self._list(kind)) for kind in _KINDS)

    # ------------------------------------------------------------------
    # Low-level entry I/O
    # ------------------------------------------------------------------
    def _entry_path(self, kind: str, digest: str) -> str:
        return os.path.join(self.path, kind, f"{digest}.json")

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

    def _read_entry(self, path: str, kind: str) -> Dict:
        """Load + integrity-check one entry file; raises _CorruptEntry."""
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
        if entry.get("kind") != kind:
            raise _CorruptEntry(
                f"entry kind {entry.get('kind')!r}, expected {kind!r}"
            )
        if "payload" not in entry or "payload_digest" not in entry:
            raise _CorruptEntry("entry has no payload")
        if payload_digest(entry["payload"]) != entry["payload_digest"]:
            raise _CorruptEntry("payload digest mismatch (truncated or edited)")
        return entry

    # ------------------------------------------------------------------
    # Design entries
    # ------------------------------------------------------------------
    def design_digest(self, token: Tuple, signature: Tuple, arch: str) -> str:
        return key_digest("design", token, signature, arch)

    def get_design(
        self, token: Tuple, signature: Tuple, arch: str
    ) -> Optional[Tuple[str, object]]:
        """Stored design-phase outcome, or None on miss/corruption.

        Returns ``("ok", leaves)`` for a stored success and
        ``("error", message)`` for a stored :class:`DesignError` — the
        caller replays the failure exactly like the in-memory cache does.
        """
        path = self._entry_path(
            "designs", self.design_digest(token, signature, arch)
        )
        if not os.path.exists(path):
            self._bump(design_misses=1)
            return None
        try:
            entry = self._read_entry(path, "design")
            payload = entry["payload"]
            if entry.get("matrix", {}).get("digest") != token[-1]:
                raise _CorruptEntry("matrix digest does not match key")
            if payload.get("status") == "error":
                outcome: Tuple[str, object] = ("error", str(payload["message"]))
            else:
                outcome = ("ok", decode_leaves(payload["leaves"]))
        except (_CorruptEntry, KeyError, TypeError, ValueError) as exc:
            self._bump(design_misses=1, corrupt=1)
            self._quarantine(path, str(exc))
            return None
        self._bump(design_hits=1)
        return outcome

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

    def put_design(
        self,
        token: Tuple,
        signature: Tuple,
        arch: str,
        leaves: Optional[Sequence[DesignLeaf]] = None,
        error: Optional[str] = None,
    ) -> None:
        """Persist one design-phase outcome (success or DesignError).

        First writer wins: an existing entry for the key is left alone —
        design output is a deterministic function of the key, so a racing
        second writer would only replace identical content.
        """
        if (leaves is None) == (error is None):
            raise StoreError("put_design takes exactly one of leaves/error")
        path = self._entry_path(
            "designs", self.design_digest(token, signature, arch)
        )
        if os.path.exists(path):
            return
        if error is not None:
            payload: Dict[str, object] = {"status": "error", "message": error}
        else:
            payload = {"status": "ok", "leaves": encode_leaves(leaves)}
        self._atomic_write(path, design_entry_doc(token, signature, arch, payload))
        self._bump(design_writes=1)

    # ------------------------------------------------------------------
    # Result entries
    # ------------------------------------------------------------------
    def result_digest(self, token: Tuple, arch: str) -> str:
        return key_digest("result", token, arch)

    def get_result(self, token: Tuple, arch: str) -> Optional[Dict]:
        """The stored search result for ``(matrix, arch)``, or None."""
        path = self._entry_path("results", self.result_digest(token, arch))
        if not os.path.exists(path):
            self._bump(result_misses=1)
            return None
        try:
            entry = self._read_entry(path, "result")
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

        Unlike designs, results are overwritten: a fresh full search may
        legitimately replace a neighbour-transferred record with a better
        one.  A small ``.meta`` sidecar (features, name, GFLOPS — no
        artifact) is written next to the entry so nearest-neighbour scans
        never have to decode full artifact payloads.
        """
        digest = self.result_digest(token, arch)
        self._atomic_write(
            self._entry_path("results", digest),
            result_entry_doc(token, arch, record),
        )
        self._atomic_write(
            self._meta_path(digest), self._meta_from_record(arch, record)
        )
        self._bump(result_writes=1)

    # -- lightweight result metadata (nearest-neighbour index) ----------
    def _meta_path(self, digest: str) -> str:
        return os.path.join(self.path, "results", f"{digest}.meta")

    # Kept as a method alias: the canonical builder is module-level so the
    # journal backend derives identical metadata without a store handle.
    _meta_from_record = staticmethod(result_meta_doc)

    def result_metas(self, arch: Optional[str] = None) -> List[Tuple[str, Dict]]:
        """``(digest, meta)`` per stored result — the cheap scan the
        serving frontend ranks neighbours on.  A missing or unreadable
        sidecar self-heals from one full entry read (and is written back);
        corrupt entries are skipped and counted."""
        out: List[Tuple[str, Dict]] = []
        for name in self._list("results"):
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
                entry_path = os.path.join(self.path, "results", name)
                try:
                    entry = self._read_entry(entry_path, "result")
                except _CorruptEntry as exc:
                    self._bump(corrupt=1)
                    self._quarantine(entry_path, exc.reason)
                    continue
                meta = self._meta_from_record(entry.get("arch"), entry["payload"])
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
        path = self._entry_path("results", digest)
        if not os.path.exists(path):
            return None
        try:
            entry = self._read_entry(path, "result")
        except _CorruptEntry as exc:
            self._bump(corrupt=1)
            self._quarantine(path, exc.reason)
            return None
        return entry["payload"]

    def results(self, arch: Optional[str] = None) -> List[Dict]:
        """Every valid stored result record (optionally one arch only),
        in deterministic filename order; corrupt entries are skipped."""
        records = []
        for name in self._list("results"):
            path = os.path.join(self.path, "results", name)
            try:
                entry = self._read_entry(path, "result")
            except _CorruptEntry as exc:
                self._bump(corrupt=1)
                self._quarantine(path, exc.reason)
                continue
            if arch is not None and entry.get("arch") != arch:
                continue
            records.append(entry["payload"])
        return records

    def design_payloads(self) -> List[Tuple[str, str, Dict]]:
        """``(filename, signature-repr, payload)`` per valid design entry,
        in deterministic filename order — the static audit walks these to
        re-judge persisted designs; corrupt entries are skipped (they are
        already surfaced by :meth:`verify`)."""
        out: List[Tuple[str, str, Dict]] = []
        for name in self._list("designs"):
            path = os.path.join(self.path, "designs", name)
            try:
                entry = self._read_entry(path, "design")
            except _CorruptEntry:
                continue
            out.append(
                (name, str(entry.get("signature", "")), entry["payload"])
            )
        return out

    # ------------------------------------------------------------------
    # Maintenance (CLI: store ls / verify / gc)
    # ------------------------------------------------------------------
    def entries(self) -> List[EntryStatus]:
        """Integrity status of every entry file (``ls`` / ``verify``)."""
        out: List[EntryStatus] = []
        for kind_dir, kind in (("designs", "design"), ("results", "result")):
            for name in self._list(kind_dir):
                path = os.path.join(self.path, kind_dir, name)
                size = os.path.getsize(path) if os.path.exists(path) else 0
                try:
                    entry = self._read_entry(path, kind)
                except _CorruptEntry as exc:
                    out.append(
                        EntryStatus(kind, name, False, "?", "?", exc.reason, size)
                    )
                    continue
                matrix = entry.get("matrix", {})
                if kind == "design":
                    payload = entry["payload"]
                    if payload.get("status") == "error":
                        detail = "design error (cached failure)"
                    else:
                        detail = f"{len(payload.get('leaves', []))} leaf(s)"
                else:
                    payload = entry["payload"]
                    gflops = payload.get("best_gflops")
                    via = payload.get("via", "search")
                    detail = (
                        f"{gflops:.1f} GFLOPS via {via}"
                        if isinstance(gflops, (int, float))
                        else via
                    )
                out.append(
                    EntryStatus(
                        kind,
                        name,
                        True,
                        str(matrix.get("name") or "<unnamed>"),
                        str(entry.get("arch")),
                        detail,
                        size,
                    )
                )
        return out

    def verify(self, repair: bool = False) -> List[EntryStatus]:
        """Deep integrity check: :meth:`entries` plus payload decoding —
        a design entry must also hydrate back into leaves.

        With ``repair=True`` every failing entry is quarantined to
        ``corrupt/`` on the spot (the ``store verify --repair`` CLI path),
        exactly as a read path would on first detection; the returned
        statuses still describe the damage found.
        """
        out = []
        for status in self.entries():
            if status.ok and status.kind == "design":
                path = os.path.join(self.path, "designs", status.filename)
                try:
                    entry = self._read_entry(path, "design")
                    if entry["payload"].get("status") != "error":
                        decode_leaves(entry["payload"]["leaves"])
                except (_CorruptEntry, KeyError, TypeError, ValueError) as exc:
                    status = replace(
                        status, ok=False, detail=f"payload will not hydrate: {exc}"
                    )
            if repair and not status.ok:
                kind_dir = "designs" if status.kind == "design" else "results"
                self._quarantine(
                    os.path.join(self.path, kind_dir, status.filename),
                    status.detail,
                )
            out.append(status)
        return out

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
        """Prune corrupt entries and unreferenced designs.

        A design entry is *referenced* when a valid result record exists
        for the same ``(matrix digest, arch)`` — i.e. some search of that
        matrix ran to completion.  Unreferenced designs are partial-search
        residue; they would be regenerated (and re-stored) by the next
        search, so pruning them is always safe.  Returns
        ``(removed_corrupt, removed_unreferenced)`` filenames.
        """
        referenced = set()
        for name in self._list("results"):
            path = os.path.join(self.path, "results", name)
            try:
                entry = self._read_entry(path, "result")
            except _CorruptEntry:
                continue
            referenced.add(
                (entry.get("matrix", {}).get("digest"), entry.get("arch"))
            )
        removed_corrupt: List[str] = []
        removed_unreferenced: List[str] = []
        for kind_dir, kind in (("designs", "design"), ("results", "result")):
            for name in self._list(kind_dir):
                path = os.path.join(self.path, kind_dir, name)
                try:
                    entry = self._read_entry(path, kind)
                except _CorruptEntry:
                    os.unlink(path)
                    removed_corrupt.append(f"{kind_dir}/{name}")
                    continue
                if kind == "design":
                    key = (
                        entry.get("matrix", {}).get("digest"),
                        entry.get("arch"),
                    )
                    if key not in referenced:
                        os.unlink(path)
                        removed_unreferenced.append(f"{kind_dir}/{name}")
        # Meta sidecars are derived data: drop any whose entry is gone
        # (including entries gc just removed) — they regenerate on demand.
        results_dir = os.path.join(self.path, "results")
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
        return removed_corrupt, removed_unreferenced
