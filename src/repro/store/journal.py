"""Crash-safe append-only journal backend for the design store.

The directory backend (:class:`~repro.store.design.DesignStore`) gives
per-entry atomicity via temp-file + ``os.replace`` — good enough for two
cooperating engines, but every entry is its own file (directory churn at
serving scale) and there is no total order of writes to recover or reason
from.  The :class:`JournalStore` keeps the *same read/write surface* and
replaces the layout with a single append-only log:

Layout::

    <root>/store.json      {"schema": 1, "kind": "design-store",
                            "backend": "journal"}
    <root>/journal.log     16-byte header + length-prefixed records
    <root>/journal.lock    writer mutual exclusion (flock)
    <root>/snapshot.json   compacted state (absent until first compaction)
    <root>/artifacts/<blake2b>.json  artifact blobs, as in the dir backend

Journal format — a 16-byte header (``b"REPROJNL"`` magic + big-endian
u64 *epoch*, bumped on every compaction) followed by records::

    [u32 payload length][u32 crc32(payload)][payload bytes]

where the payload is canonical JSON ``{"op": ..., "key": ..., "entry": ...}``
(ops: ``result`` — last-writer-wins, ``claim`` — at-most-once search
fence, ``drop`` — journal-style quarantine of a damaged entry).  Entry
documents are byte-identical to the directory backend's files (shared
builders in :mod:`repro.store.design`), so the two backends hold
bit-identical content for the same write sequence.  A result record is
~1 KB: its artifact is a content-addressed blob under ``artifacts/``
(:mod:`repro.store.artifacts`), written and fsynced before the record's
append, so no replayed record names a blob that never reached the disk.
Logs and snapshots written by earlier revisions may hold records with the
artifact inline (they keep serving it) and may also carry Designer output
(``design`` records, ``drop`` records of kind ``design``, a snapshot
``designs`` map); replay skips the Designer output without counting it as
damage, and the next compaction leaves it out.

Crash safety:

* **Torn tail** — a writer dying mid-append leaves a partial frame.  The
  length prefix + CRC make it detectable: readers simply never advance
  past it, and the next writer (which must hold the file lock, so no
  in-flight append can be mistaken for a crash) truncates the tail before
  appending.  A torn final record is dropped; it never poisons the log.
* **Multi-writer** — appends happen under an exclusive ``flock`` acquired
  with bounded retries and deterministic backoff
  (:class:`~repro.reliability.retry.RetryPolicy`); exhaustion raises
  :class:`LockTimeoutError` instead of blocking forever.  Under the lock a
  writer replays only the records other handles appended since its last
  look, so an append costs O(record), not O(log).
* **Compaction** — :meth:`compact` folds the current state into
  ``snapshot.json`` (atomic replace) and resets the journal to an empty
  log with a bumped epoch.  A crash between the two steps is safe: a
  snapshot *newer* than the journal epoch means the journal's records are
  already folded in and are ignored until recovery resets the file.  Each
  handle remembers the ``os.stat`` identity of the snapshot it loaded, so
  a writer that finds a different snapshot on disk recovers in full
  before appending, rather than appending to a log that is already folded.
* **Read-through cache** — each handle keeps the replayed state in memory
  and revalidates it against ``(epoch, journal size)`` per read: same
  epoch + unchanged size is a pure cache hit, grown size replays only the
  delta, anything else reloads snapshot + journal.

Damage inside a CRC-valid frame (payload digest mismatch — e.g. the
``corrupt_record`` fault) is skipped at replay without losing framing;
frame-level damage loses the records behind it (``STORE-TAIL-LOST``),
which ``verify`` reports and ``compact``/``gc`` reclaim.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.reliability.faults import FaultInjector, FaultPlan, InjectedCrash
from repro.reliability.retry import RetryError, RetryPolicy, call_with_retry
from repro.store.artifacts import ArtifactBlobs, BlobBackedStore
from repro.store.codec import key_digest, payload_digest
from repro.store.design import (
    SCHEMA_VERSION,
    EntryStatus,
    StoreStats,
    result_detail,
    result_entry_doc,
    result_meta_doc,
)
from repro.store.errors import StoreError, StoreVersionError

try:  # posix writer locking; the fallback below covers exotic platforms
    import fcntl
except ImportError:  # pragma: no cover - non-posix
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "JournalStore",
    "LockContended",
    "LockTimeoutError",
    "default_lock_policy",
]

_MAGIC = b"REPROJNL"
_HEADER_SIZE = 16  # magic + u64 epoch
_FRAME = struct.Struct(">II")  # payload length, crc32
_MAX_RECORD = 1 << 30

_JOURNAL = "journal.log"
_LOCKFILE = "journal.lock"
_SNAPSHOT = "snapshot.json"
_STOREHEADER = "store.json"


class LockContended(OSError):
    """One journal-lock acquisition attempt failed (retried internally)."""


class LockTimeoutError(StoreError):
    """The journal writer lock stayed contended past the retry budget."""


def default_lock_policy() -> RetryPolicy:
    """Bounded lock acquisition: ~50 tries over roughly two seconds."""
    return RetryPolicy(
        attempts=50,
        base_delay_s=0.002,
        multiplier=1.4,
        max_delay_s=0.06,
        jitter=0.25,
        retry_on=(LockContended,),
    )


@dataclass
class _State:
    """Replayed journal state plus the cache-validity token."""

    epoch: int = 0
    offset: int = _HEADER_SIZE
    #: ``(inode, size, mtime_ns)`` of the snapshot this state was loaded
    #: from (None: there was none) — a writer that finds another one on
    #: disk recovers in full before appending
    snapshot_id: Optional[Tuple[int, int, int]] = None
    #: a compaction crashed between its snapshot and the log reset: every
    #: log record is already folded in, and the next writer must finish
    #: the reset before appending
    reset_pending: bool = False
    results: Dict[str, Dict] = field(default_factory=dict)
    claims: Set[str] = field(default_factory=set)
    #: keys of Designer-output records an earlier revision wrote; nothing
    #: reads them and compaction leaves them out
    legacy_designs: Set[str] = field(default_factory=set)
    #: payload-invalid records skipped during replay (reason strings)
    invalid: List[str] = field(default_factory=list)
    #: framing damage found mid-log: (offset, reason) — records behind it
    #: are unreachable until compaction
    tail_lost: Optional[Tuple[int, str]] = None


class JournalStore(BlobBackedStore):
    """Append-only journal with the :class:`DesignStore` API surface."""

    backend = "journal"

    def __init__(
        self,
        path: str | os.PathLike,
        create: bool = True,
        faults: Optional[FaultPlan | FaultInjector] = None,
        lock_policy: Optional[RetryPolicy] = None,
        auto_compact_bytes: Optional[int] = 64 << 20,
    ) -> None:
        self.path = os.fspath(path)
        self.faults = (
            faults.injector() if isinstance(faults, FaultPlan) else faults
        )
        self.lock_policy = lock_policy or default_lock_policy()
        #: journal size that triggers snapshot compaction after an append
        #: (None disables; the CLI ``store compact`` always works)
        self.auto_compact_bytes = auto_compact_bytes
        self._mutex = threading.RLock()
        self._stats = StoreStats()
        self._state = _State()
        self._loaded = False
        self._append_serial = 0
        #: per-handle serial numbers of lock attempts: injected lock faults
        #: replay for the same sequence of operations on this handle,
        #: whatever else the process has locked before
        self._lock_serials = itertools.count(1)
        self.quarantine_log: List[Tuple[str, str]] = []
        self._blobs = ArtifactBlobs(self.path, durable=True)

        if os.path.isfile(self.path):
            raise StoreError(
                f"{self.path!r} is a file; a design store is a directory"
            )
        header_path = os.path.join(self.path, _STOREHEADER)
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
            if header.get("backend", "dir") != "journal":
                raise StoreError(
                    f"design store {self.path!r} uses the "
                    f"{header.get('backend', 'dir')!r} backend; open it with "
                    "repro.store.open_store (or DesignStore directly)"
                )
        elif create:
            os.makedirs(self.path, exist_ok=True)
            tmp = os.path.join(self.path, f".{_STOREHEADER}.tmp")
            with open(tmp, "w") as fh:
                json.dump(
                    {
                        "schema": SCHEMA_VERSION,
                        "kind": "design-store",
                        "backend": "journal",
                    },
                    fh,
                    sort_keys=True,
                )
                fh.write("\n")
            os.replace(tmp, header_path)
        else:
            raise StoreError(f"no design store at {self.path!r}")
        journal = self._journal_path
        if not os.path.exists(journal):
            if not create:
                # a header without a journal is an interrupted creation;
                # recreate the empty log rather than failing every read
                pass
            with open(journal, "xb") as fh:
                fh.write(_MAGIC + struct.pack(">Q", 0))
        # Open-time recovery: if we can take the writer lock without
        # waiting, drop any torn tail now; if a live writer holds it, that
        # writer performs the same recovery before its next append.
        try:
            with self._file_lock(blocking_attempts=1):
                self._recover_locked()
        except (LockTimeoutError, OSError):
            pass

    # ------------------------------------------------------------------
    # Paths / locking
    # ------------------------------------------------------------------
    @property
    def _journal_path(self) -> str:
        return os.path.join(self.path, _JOURNAL)

    @property
    def _snapshot_path(self) -> str:
        return os.path.join(self.path, _SNAPSHOT)

    def _file_lock(self, blocking_attempts: Optional[int] = None):
        """Exclusive cross-process writer lock (bounded-retry flock)."""
        return _JournalLock(
            os.path.join(self.path, _LOCKFILE),
            policy=(
                self.lock_policy
                if blocking_attempts is None
                else replace(self.lock_policy, attempts=blocking_attempts)
            ),
            serials=self._lock_serials,
            faults=self.faults,
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def stats(self) -> StoreStats:
        with self._mutex:
            return replace(self._stats)

    def _bump(self, **deltas: int) -> None:
        with self._mutex:
            self._stats = replace(
                self._stats,
                **{k: getattr(self._stats, k) + v for k, v in deltas.items()},
            )

    def __len__(self) -> int:
        with self._mutex:
            self._refresh()
            return len(self._state.results)

    # ------------------------------------------------------------------
    # Journal reading (the read-through cache tier)
    # ------------------------------------------------------------------
    def _read_header(self) -> int:
        try:
            with open(self._journal_path, "rb") as fh:
                head = fh.read(_HEADER_SIZE)
        except OSError as exc:
            raise StoreError(
                f"cannot read journal {self._journal_path!r}: {exc}"
            ) from exc
        if len(head) < _HEADER_SIZE or head[: len(_MAGIC)] != _MAGIC:
            raise StoreError(
                f"journal {self._journal_path!r} has no valid header"
            )
        return struct.unpack(">Q", head[len(_MAGIC) :])[0]

    def _refresh(self) -> None:
        """Revalidate the in-memory state against the journal position.

        Same epoch + same size: cache hit, nothing read.  Same epoch,
        grown file: replay only the new bytes.  Anything else (compaction
        happened, or the file shrank under recovery): full reload.
        """
        if self.faults is not None:
            self.faults.maybe_slow("journal-refresh")
        try:
            size = os.path.getsize(self._journal_path)
            epoch = self._read_header()
        except (OSError, StoreError):
            if self._loaded:
                return  # serve the cache; writers will surface the error
            raise
        state = self._state
        if self._loaded and epoch == state.epoch and size == state.offset:
            return
        if self._loaded and epoch == state.epoch and size > state.offset:
            self._replay(state, start=state.offset)
            return
        self._state = self._load_state()
        self._loaded = True

    def _snapshot_id(self) -> Optional[Tuple[int, int, int]]:
        try:
            st = os.stat(self._snapshot_path)
        except OSError:
            return None
        return (st.st_ino, st.st_size, st.st_mtime_ns)

    def _load_state(self) -> _State:
        """Full reload: snapshot (if any) + journal replay."""
        # stat before reading: a snapshot replaced in between then shows
        # up as a changed identity at the next locked operation
        state = _State(snapshot_id=self._snapshot_id())
        snapshot = self._read_snapshot()
        journal_epoch = self._read_header()
        if snapshot is not None:
            state.results = dict(snapshot.get("results", {}))
            state.claims = set(snapshot.get("claims", []))
            state.legacy_designs = set(snapshot.get("designs", {}))
            if int(snapshot.get("epoch", 0)) > journal_epoch:
                # compaction crashed after the snapshot, before the journal
                # reset: every journal record is already folded in.  Keep
                # the *journal's* epoch as the cache token so refresh stays
                # consistent until a writer finishes the reset.
                state.epoch = journal_epoch
                state.offset = os.path.getsize(self._journal_path)
                state.reset_pending = True
                return state
        state.epoch = journal_epoch
        state.offset = _HEADER_SIZE
        self._replay(state, start=_HEADER_SIZE)
        return state

    def _read_snapshot(self) -> Optional[Dict]:
        if not os.path.exists(self._snapshot_path):
            return None
        try:
            with open(self._snapshot_path, "r") as fh:
                snapshot = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(snapshot, dict) or snapshot.get("schema") != SCHEMA_VERSION:
            return None
        return snapshot

    def _replay(self, state: _State, start: int) -> None:
        """Apply journal records from ``start``; never advances past an
        incomplete or frame-corrupt record."""
        with open(self._journal_path, "rb") as fh:
            fh.seek(start)
            data = fh.read()
        pos = 0
        while True:
            if pos + _FRAME.size > len(data):
                break  # incomplete frame header: torn tail or in-flight
            length, crc = _FRAME.unpack_from(data, pos)
            if length > _MAX_RECORD:
                state.tail_lost = (start + pos, f"absurd record length {length}")
                self._bump(corrupt=1)
                break
            body = data[pos + _FRAME.size : pos + _FRAME.size + length]
            if len(body) < length:
                break  # incomplete payload: torn tail or in-flight
            if zlib.crc32(body) != crc:
                state.tail_lost = (start + pos, "record checksum mismatch")
                self._bump(corrupt=1)
                break
            self._apply(state, body)
            pos += _FRAME.size + length
        state.offset = start + pos

    def _apply(self, state: _State, body: bytes) -> None:
        """Apply one CRC-valid record; payload damage skips the record."""
        try:
            record = json.loads(body.decode("utf-8"))
            op = record["op"]
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            state.invalid.append(f"undecodable record: {exc}")
            self._bump(corrupt=1)
            return
        key = record.get("key")
        if op == "claim":
            if isinstance(key, str):
                state.claims.add(key)
            return
        if op == "design":
            if isinstance(key, str):
                state.legacy_designs.add(key)
            return
        if op == "drop":
            if record.get("kind") == "design":
                state.legacy_designs.discard(key)
            else:
                state.results.pop(key, None)
            return
        if op != "result":
            state.invalid.append(f"unknown op {op!r}")
            self._bump(corrupt=1)
            return
        entry = record.get("entry")
        ok = (
            isinstance(key, str)
            and isinstance(entry, dict)
            and entry.get("schema") == SCHEMA_VERSION
            and entry.get("kind") == op
            and "payload" in entry
            and payload_digest(entry["payload"]) == entry.get("payload_digest")
        )
        if not ok:
            state.invalid.append(f"{op} record {key!r}: payload digest mismatch")
            self._bump(corrupt=1)
            return
        state.results[key] = entry

    # ------------------------------------------------------------------
    # Journal writing
    # ------------------------------------------------------------------
    def _recover_locked(self) -> None:
        """Full recovery; caller holds the file lock.

        Replays to find the last complete record, then truncates anything
        beyond it — a torn final record from a crashed writer is dropped
        here, never replayed.  Also finishes a crashed compaction (snapshot
        newer than the journal) by resetting the log.
        """
        snapshot = self._read_snapshot()
        journal_epoch = self._read_header()
        if snapshot is not None and int(snapshot.get("epoch", 0)) > journal_epoch:
            self._reset_journal(int(snapshot["epoch"]))
            self._state = self._load_state()
            self._loaded = True
            return
        state = self._load_state()
        self._truncate_beyond(state.offset)
        self._state = state
        self._loaded = True

    def _sync_locked(self) -> None:
        """Bring the state to the end of the log; caller holds the file
        lock.

        The common case costs O(new bytes): same epoch, same snapshot and
        a log no shorter than our offset — replay what other handles
        appended since, and truncate a torn tail behind it.  Anything else
        (another handle compacted, the log shrank, a snapshot appeared or
        changed, a crashed compaction awaits its reset) takes full
        recovery.
        """
        state = self._state
        if (
            self._loaded
            and not state.reset_pending
            and self._snapshot_id() == state.snapshot_id
            and self._read_header() == state.epoch
        ):
            size = os.path.getsize(self._journal_path)
            if size >= state.offset:
                if size > state.offset:
                    self._replay(state, start=state.offset)
                    self._truncate_beyond(state.offset)
                return
        self._recover_locked()

    def _truncate_beyond(self, offset: int) -> None:
        if os.path.getsize(self._journal_path) > offset:
            with open(self._journal_path, "r+b") as fh:
                fh.truncate(offset)
                fh.flush()
                os.fsync(fh.fileno())

    def _reset_journal(self, epoch: int) -> None:
        with open(self._journal_path, "r+b") as fh:
            fh.seek(0)
            fh.write(_MAGIC + struct.pack(">Q", epoch))
            fh.truncate(_HEADER_SIZE)
            fh.flush()
            os.fsync(fh.fileno())

    def _append(self, record: Dict) -> None:
        """Append one record; caller holds mutex + file lock and has
        synced, so ``self._state.offset`` is the true end of file."""
        self._append_serial += 1
        serial = self._append_serial
        if self.faults is not None:
            self.faults.maybe_slow("journal-append", serial)
            self.faults.maybe_io_error("journal-append", serial)
        body = json.dumps(record, sort_keys=True).encode("utf-8")
        if self.faults is not None and self.faults.decide(
            "corrupt_record", serial
        ):
            # flip a payload byte and checksum the damage: the frame stays
            # valid, replay-time digest validation must reject the payload
            corrupted = bytearray(body)
            corrupted[len(corrupted) // 2] ^= 0xFF
            body = bytes(corrupted)
        wire = _FRAME.pack(len(body), zlib.crc32(body)) + body
        torn_at = None
        if self.faults is not None and self.faults.decide("torn_write", serial):
            # deterministic cut strictly inside the frame
            from repro.reliability.retry import _unit_hash

            u = _unit_hash(self.faults.plan.seed, "torn-cut", serial)
            torn_at = 1 + int(u * (len(wire) - 1))
        with open(self._journal_path, "r+b") as fh:
            fh.seek(self._state.offset)
            fh.write(wire if torn_at is None else wire[:torn_at])
            fh.flush()
            os.fsync(fh.fileno())
        if torn_at is not None:
            raise InjectedCrash(
                f"torn journal write at append #{serial} "
                f"({torn_at}/{len(wire)} bytes)"
            )
        # apply what actually hit the disk (a corrupt-injected record must
        # not land in our cache either)
        self._apply(self._state, body)
        self._state.offset += len(wire)

    def _write_locked(self, record: Dict) -> None:
        with self._mutex:
            with self._file_lock():
                self._sync_locked()
                self._append(record)
                if (
                    self.auto_compact_bytes is not None
                    and self._state.offset > self.auto_compact_bytes
                ):
                    self._compact_locked()

    def _quarantine_result(self, digest: str, reason: str) -> None:
        """Journal-style quarantine: a ``drop`` record clears the damaged
        key (so a write-back heals) and the damage is logged."""
        try:
            self._write_locked({"op": "drop", "kind": "result", "key": digest})
        except (StoreError, OSError):
            return
        self._log_quarantine(f"result/{digest}", reason)

    def _log_quarantine(self, rel: str, reason: str) -> None:
        with self._mutex:
            self.quarantine_log.append((rel, reason))
            self._stats = replace(
                self._stats, quarantined=self._stats.quarantined + 1
            )

    # ------------------------------------------------------------------
    # Result entries
    # ------------------------------------------------------------------
    def result_digest(self, token: Tuple, arch: str) -> str:
        return key_digest("result", token, arch)

    def get_result(self, token: Tuple, arch: str) -> Optional[Dict]:
        digest = self.result_digest(token, arch)
        with self._mutex:
            self._refresh()
            entry = self._state.results.get(digest)
        if entry is None:
            self._bump(result_misses=1)
            return None
        if entry.get("matrix", {}).get("digest") != token[-1]:
            self._quarantine_result(digest, "matrix digest does not match key")
            self._bump(result_misses=1, corrupt=1)
            return None
        self._bump(result_hits=1)
        return entry["payload"]

    def put_result(self, token: Tuple, arch: str, record: Dict) -> Optional[str]:
        """Persist (or overwrite) the finished result for a matrix; an
        inline ``artifact`` becomes a durable blob before the append.
        Returns the stored record's ``artifact_digest``."""
        digest = self.result_digest(token, arch)
        stored = self._put_record(record)
        entry = result_entry_doc(token, arch, stored)
        with self._mutex:
            self._write_locked({"op": "result", "key": digest, "entry": entry})
        self._bump(result_writes=1)
        return stored.get("artifact_digest")

    def result_metas(self, arch: Optional[str] = None) -> List[Tuple[str, Dict]]:
        """``(digest, meta)`` per stored result, digest-ordered — derived
        in memory from the replayed records."""
        with self._mutex:
            self._refresh()
            items = sorted(self._state.results.items())
        out = []
        for digest, entry in items:
            meta = result_meta_doc(entry.get("arch"), entry.get("payload", {}))
            if arch is not None and meta.get("arch") != arch:
                continue
            out.append((digest, meta))
        return out

    def result_payload(self, digest: str) -> Optional[Dict]:
        with self._mutex:
            self._refresh()
            entry = self._state.results.get(digest)
        return None if entry is None else entry.get("payload")

    def results(self, arch: Optional[str] = None) -> List[Dict]:
        with self._mutex:
            self._refresh()
            items = sorted(self._state.results.items())
        return [
            entry["payload"]
            for _, entry in items
            if arch is None or entry.get("arch") == arch
        ]

    # ------------------------------------------------------------------
    # Claims (at-most-once search execution)
    # ------------------------------------------------------------------
    def claim_search(self, key: str) -> bool:
        """Atomically claim one search execution; True iff we won it.

        The check and the claim append happen under one hold of the writer
        lock, so two workers racing on the same key serialise: exactly one
        sees True.  Claims are journal records — they survive the
        claimant's death, which is the whole point."""
        with self._mutex:
            with self._file_lock():
                self._sync_locked()
                if key in self._state.claims:
                    return False
                self._append({"op": "claim", "key": key})
        return True

    def claims(self) -> List[str]:
        with self._mutex:
            self._refresh()
            return sorted(self._state.claims)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> Dict[str, int]:
        """Fold the journal into ``snapshot.json`` and reset the log.

        Returns counters (kept entries, journal bytes reclaimed).  Safe
        against crashes at any point: the snapshot is written atomically
        *before* the journal reset, and recovery finishes an interrupted
        reset on the next locked operation.
        """
        with self._mutex:
            with self._file_lock():
                self._sync_locked()
                return self._compact_locked()

    def _compact_locked(self) -> Dict[str, int]:
        state = self._state
        reclaimed = state.offset - _HEADER_SIZE
        new_epoch = state.epoch + 1
        snapshot = {
            "schema": SCHEMA_VERSION,
            "kind": "design-store-snapshot",
            "epoch": new_epoch,
            "results": state.results,
            "claims": sorted(state.claims),
        }
        tmp = self._snapshot_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(snapshot, fh, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._snapshot_path)
        self._reset_journal(new_epoch)
        state.epoch = new_epoch
        state.offset = _HEADER_SIZE
        state.snapshot_id = self._snapshot_id()
        state.legacy_designs = set()
        state.invalid = []
        state.tail_lost = None
        return {
            "results": len(state.results),
            "claims": len(state.claims),
            "reclaimed_bytes": max(0, reclaimed),
            "epoch": new_epoch,
        }

    # ------------------------------------------------------------------
    # Maintenance (ls / verify / gc)
    # ------------------------------------------------------------------
    def entries(self) -> List[EntryStatus]:
        with self._mutex:
            self._refresh()
            state = self._state
            results = sorted(state.results.items())
            invalid = list(state.invalid)
            tail_lost = state.tail_lost
        out: List[EntryStatus] = []
        for digest, entry in results:
            matrix = entry.get("matrix", {})
            payload = entry.get("payload", {})
            blob = payload.get("artifact_digest")
            problem = self._artifact_problem(payload)
            out.append(
                EntryStatus(
                    "result",
                    f"{digest}.json",
                    problem is None,
                    str(matrix.get("name") or "<unnamed>"),
                    str(entry.get("arch")),
                    problem or result_detail(payload),
                    len(json.dumps(entry, sort_keys=True))
                    + (self._blobs.size(blob) if blob else 0),
                    blob,
                )
            )
        for reason in invalid:
            out.append(
                EntryStatus("journal", _JOURNAL, False, "?", "?", reason, 0)
            )
        if tail_lost is not None:
            offset, reason = tail_lost
            out.append(
                EntryStatus(
                    "journal",
                    _JOURNAL,
                    False,
                    "?",
                    "?",
                    f"records lost after offset {offset}: {reason} "
                    "(compact to reclaim)",
                    0,
                )
            )
        return out

    def verify(self, repair: bool = False) -> List[EntryStatus]:
        """Integrity check (:meth:`entries`).  With ``repair=True``, a
        result whose artifact blob fails is dropped (the blob quarantined)
        and journal damage is reclaimed by an immediate compaction."""
        statuses = self.entries()
        if repair and any(not status.ok for status in statuses):
            for status in statuses:
                if status.ok or status.kind != "result":
                    continue
                if status.artifact_digest:
                    self._quarantine_blob(status.artifact_digest, status.detail)
                self._quarantine_result(
                    status.filename[: -len(".json")], status.detail
                )
            self.compact()
        return statuses

    def gc(self) -> Tuple[List[str], List[str], List[str]]:
        """Prune invalid records, legacy design records, unreferenced
        artifact blobs and claims, then compact.

        Mirrors :meth:`DesignStore.gc`: returns ``(removed_corrupt,
        removed_legacy, removed_blobs)``; claims are between-runs residue
        and are cleared.
        """
        with self._mutex:
            with self._file_lock():
                self._sync_locked()
                state = self._state
                removed_corrupt = [
                    f"{_JOURNAL}: {reason}" for reason in state.invalid
                ]
                if state.tail_lost is not None:
                    offset, reason = state.tail_lost
                    removed_corrupt.append(
                        f"{_JOURNAL}: records after offset {offset} ({reason})"
                    )
                removed_legacy = [
                    f"designs/{digest}.json"
                    for digest in sorted(state.legacy_designs)
                ]
                state.claims.clear()
                self._compact_locked()
                removed_blobs = self._blobs.gc({
                    entry.get("payload", {}).get("artifact_digest")
                    for entry in state.results.values()
                })
        return removed_corrupt, removed_legacy, removed_blobs


class _JournalLock:
    """Exclusive flock with bounded, fault-injectable acquisition."""

    def __init__(
        self,
        path: str,
        policy: RetryPolicy,
        serials: Iterator[int],
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.path = path
        self.policy = policy
        #: serial numbers of acquisition attempts (injected faults key on them)
        self.serials = serials
        self.faults = faults
        self._fd: Optional[int] = None

    def _try_acquire(self) -> None:
        serial = next(self.serials)
        if self.faults is not None and self.faults.decide(
            "lock_timeout", serial
        ):
            raise LockContended("injected lock contention")
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            # without fcntl (non-posix) the O_CREAT open itself is the
            # best-effort mutual exclusion; in-process the store mutex
            # already serialises writers
        except OSError as exc:
            os.close(fd)
            raise LockContended(f"journal lock busy: {exc}") from exc
        self._fd = fd

    def __enter__(self) -> "_JournalLock":
        try:
            call_with_retry(
                self._try_acquire, self.policy, describe="journal lock"
            )
        except RetryError as exc:
            raise LockTimeoutError(
                f"could not acquire journal lock {self.path!r}: {exc}"
            ) from exc
        return self

    def __exit__(self, *exc_info) -> None:
        if self._fd is not None:
            try:
                if fcntl is not None:
                    fcntl.flock(self._fd, fcntl.LOCK_UN)
            finally:
                os.close(self._fd)
                self._fd = None
