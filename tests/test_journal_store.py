"""Journal store backend: crash consistency, faults, parity with the
directory backend.

The load-bearing suite is :class:`TestCrashConsistency`: a writer killed
mid-append must never cost more than the record it was writing.  We
simulate the kill at *every* byte offset of a populated journal —
truncate, reopen, and assert the survivor recovers to exactly the state
of the last complete record, with the torn tail physically truncated.

Records carry their artifact as a content-addressed blob under
``artifacts/``, fsynced before the append that names it, so no cut ever
leaves a record naming a blob that is not on disk.

The differential test then pins the other half of the contract: for the
same write sequence, the journal backend and the directory backend hold
bit-identical entry documents (shared doc builders) and byte-identical
artifact blobs, so the serving layer cannot tell them apart.  Appends are
O(record): under the writer lock a handle replays only what other handles
appended since its last look.
"""

import fcntl
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.reliability.faults import FaultPlan, InjectedCrash
from repro.reliability.retry import RetryPolicy
from repro.search.evaluation import matrix_token
from repro.sparse import banded_matrix
from repro.store import DesignStore, JournalStore, StoreError, open_store
from repro.store.journal import (
    _FRAME,
    _HEADER_SIZE,
    LockContended,
    LockTimeoutError,
)

ARCH = "A100"

_MATS = [
    banded_matrix(8 + 4 * i, bandwidth=1, seed=i, name=f"m{i}") for i in range(3)
]
_TOKENS = [matrix_token(m) for m in _MATS]


def _result(gflops):
    return {"best_gflops": float(gflops), "via": "search"}


def _with_artifact(gflops):
    """A result whose artifact becomes a blob (distinct per value)."""
    return dict(_result(gflops), artifact={"kernels": [], "gflops": gflops})


def _blobs(root):
    """``{filename: bytes}`` of a store's artifact blobs."""
    directory = os.path.join(root, "artifacts")
    if not os.path.isdir(directory):
        return {}
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _assert_blobs_on_disk(store):
    """No record the store serves names a blob that is not on disk."""
    for record in store.results():
        digest = record.get("artifact_digest")
        if digest:
            assert os.path.exists(
                os.path.join(store.path, "artifacts", f"{digest}.json")
            ), digest


def _frames(data):
    """Absolute (start, end) offsets of every complete frame in ``data``."""
    pos, out = _HEADER_SIZE, []
    while pos + _FRAME.size <= len(data):
        length, _ = _FRAME.unpack_from(data, pos)
        end = pos + _FRAME.size + length
        if end > len(data):
            break
        out.append((pos, end))
        pos = end
    return out


def _fast_lock_policy():
    return RetryPolicy(
        attempts=2, base_delay_s=0.001, max_delay_s=0.002,
        retry_on=(LockContended,),
    )


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------
class TestOpenStore:
    def test_auto_detects_backend(self, tmp_path):
        jpath, dpath = tmp_path / "j", tmp_path / "d"
        assert isinstance(open_store(jpath, backend="journal"), JournalStore)
        assert isinstance(open_store(dpath, backend="dir"), DesignStore)
        assert isinstance(open_store(jpath), JournalStore)  # header says so
        assert isinstance(open_store(dpath), DesignStore)
        assert isinstance(open_store(tmp_path / "fresh"), DesignStore)

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="unknown store backend"):
            open_store(tmp_path / "s", backend="sqlite")

    def test_wrong_class_for_backend_rejected(self, tmp_path):
        open_store(tmp_path / "j", backend="journal")
        with pytest.raises(StoreError, match="journal"):
            DesignStore(tmp_path / "j")
        open_store(tmp_path / "d", backend="dir")
        with pytest.raises(StoreError, match="backend"):
            JournalStore(tmp_path / "d")


# ----------------------------------------------------------------------
# Round trips and multi-handle visibility
# ----------------------------------------------------------------------
class TestJournalBasics:
    def test_result_roundtrip_across_handles(self, tmp_path):
        store = JournalStore(tmp_path / "s")
        store.put_result(_TOKENS[0], ARCH, _result(1.0))
        store.put_result(_TOKENS[0], ARCH, _result(2.0))  # last wins
        store.put_result(_TOKENS[1], ARCH, _result(3.0))

        fresh = JournalStore(tmp_path / "s")
        assert fresh.get_result(_TOKENS[0], ARCH)["best_gflops"] == 2.0
        assert fresh.get_result(_TOKENS[1], ARCH)["best_gflops"] == 3.0
        assert fresh.get_result(_TOKENS[2], ARCH) is None
        assert fresh.get_result(_TOKENS[0], "RTX2080") is None
        assert len(fresh) == 2

    def test_second_handle_sees_live_appends(self, tmp_path):
        h1 = JournalStore(tmp_path / "s")
        h2 = JournalStore(tmp_path / "s")
        h1.put_result(_TOKENS[0], ARCH, _result(1.0))
        assert h2.get_result(_TOKENS[0], ARCH)["best_gflops"] == 1.0
        epoch_before = h2._state.epoch
        h1.put_result(_TOKENS[1], ARCH, _result(2.0))
        # same epoch, grown file: incremental replay, not a full reload
        assert h2.get_result(_TOKENS[1], ARCH)["best_gflops"] == 2.0
        assert h2._state.epoch == epoch_before

    def test_claims_are_at_most_once_and_durable(self, tmp_path):
        store = JournalStore(tmp_path / "s")
        assert store.claim_search("key-1") is True
        assert store.claim_search("key-1") is False
        other = JournalStore(tmp_path / "s")
        assert other.claim_search("key-1") is False  # survives the handle
        assert other.claims() == ["key-1"]
        other.gc()  # claims are between-runs residue
        assert JournalStore(tmp_path / "s").claim_search("key-1") is True


# ----------------------------------------------------------------------
# Crash consistency (the tentpole acceptance criterion)
# ----------------------------------------------------------------------
class TestCrashConsistency:
    def test_recovery_at_every_truncation_offset(self, tmp_path):
        """Kill the writer at every byte of the journal: the survivor
        recovers to exactly the last complete record, and physically
        truncates the torn tail."""
        path = tmp_path / "s"
        store = JournalStore(path)
        store.put_result(_TOKENS[0], ARCH, _with_artifact(1.0))
        store.put_result(_TOKENS[1], ARCH, _with_artifact(5.0))
        store.claim_search("claim-1")
        store._quarantine_result(store.result_digest(_TOKENS[1], ARCH), "drop")
        store.put_result(_TOKENS[0], ARCH, _with_artifact(2.0))

        journal = path / "journal.log"
        data = journal.read_bytes()
        frames = _frames(data)
        assert len(frames) == 5
        records = [
            json.loads(data[s + _FRAME.size : e]) for s, e in frames
        ]

        for cut in range(_HEADER_SIZE, len(data) + 1):
            journal.write_bytes(data[:cut])
            survivor = JournalStore(path)
            survivor.claims()  # force a refresh
            results, claims = {}, set()
            boundary = _HEADER_SIZE
            for (start, end), record in zip(frames, records):
                if end > cut:
                    break
                boundary = end
                if record["op"] == "result":
                    results[record["key"]] = record["entry"]
                elif record["op"] == "drop":
                    results.pop(record["key"], None)
                else:
                    claims.add(record["key"])
            assert survivor._state.results == results, f"cut at {cut}"
            assert survivor._state.claims == claims, f"cut at {cut}"
            assert os.path.getsize(journal) == boundary, f"cut at {cut}"
            _assert_blobs_on_disk(survivor)

    def test_crash_between_blob_and_append_leaves_no_dangling_record(
        self, tmp_path, monkeypatch
    ):
        """A writer that dies after its blob is durable but before the
        append leaves an unreferenced blob, never a record naming a
        missing one; ``gc`` collects the blob."""
        path = tmp_path / "s"
        store = JournalStore(path)
        store.put_result(_TOKENS[0], ARCH, _with_artifact(1.0))

        def crash(record):
            raise InjectedCrash("died between blob and append")

        monkeypatch.setattr(store, "_write_locked", crash)
        with pytest.raises(InjectedCrash):
            store.put_result(_TOKENS[1], ARCH, _with_artifact(2.0))
        survivor = JournalStore(path)
        assert survivor.get_result(_TOKENS[1], ARCH) is None
        _assert_blobs_on_disk(survivor)
        assert len(_blobs(path)) == 2
        _, _, removed_blobs = survivor.gc()
        assert len(removed_blobs) == 1
        assert survivor.load_artifact(
            survivor.get_result(_TOKENS[0], ARCH)["artifact_digest"]
        ) == {"kernels": [], "gflops": 1.0}

    def test_torn_write_fault_loses_only_that_record(self, tmp_path):
        plan = FaultPlan(seed=0, torn_write_rate=1.0)
        store = JournalStore(tmp_path / "s", faults=plan)
        with pytest.raises(InjectedCrash, match="torn journal write"):
            store.put_result(_TOKENS[0], ARCH, _with_artifact(1.0))
        survivor = JournalStore(tmp_path / "s")
        assert survivor.get_result(_TOKENS[0], ARCH) is None
        assert os.path.getsize(tmp_path / "s" / "journal.log") == _HEADER_SIZE
        assert len(_blobs(tmp_path / "s")) == 1  # durable, unreferenced

    def test_corrupt_record_rejected_at_replay(self, tmp_path):
        plan = FaultPlan(seed=0, corrupt_record_rate=1.0)
        store = JournalStore(tmp_path / "s", faults=plan)
        store.put_result(_TOKENS[0], ARCH, _result(1.0))
        # the damaged bytes never reach the writer's own cache either
        assert store.get_result(_TOKENS[0], ARCH) is None
        fresh = JournalStore(tmp_path / "s")
        assert fresh.get_result(_TOKENS[0], ARCH) is None
        reasons = [e.detail for e in fresh.entries() if e.kind == "journal"]
        assert any("digest mismatch" in r or "undecodable" in r for r in reasons)

    def test_mid_log_frame_damage_reported_and_repaired(self, tmp_path):
        path = tmp_path / "s"
        store = JournalStore(path)
        store.put_result(_TOKENS[0], ARCH, _result(1.0))
        store.put_result(_TOKENS[1], ARCH, _result(2.0))
        journal = path / "journal.log"
        data = bytearray(journal.read_bytes())
        (start, end), _ = _frames(bytes(data))
        data[start + _FRAME.size + 2] ^= 0xFF  # break the first record's CRC
        journal.write_bytes(bytes(data))

        damaged = JournalStore(path)
        # frame-level damage: everything behind it is unreachable
        assert damaged.get_result(_TOKENS[0], ARCH) is None
        assert damaged.get_result(_TOKENS[1], ARCH) is None
        rows = [e for e in damaged.entries() if e.kind == "journal" and not e.ok]
        assert rows and "records lost after offset" in rows[0].detail
        damaged.verify(repair=True)  # compacts the damage away
        clean = JournalStore(path)
        assert not [e for e in clean.entries() if not e.ok]

    def test_compaction_crash_between_snapshot_and_reset(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "s"
        store = JournalStore(path)
        store.put_result(_TOKENS[0], ARCH, _result(3.0))

        def crash(epoch):
            raise InjectedCrash("died before the journal reset")

        monkeypatch.setattr(store, "_reset_journal", crash)
        with pytest.raises(InjectedCrash):
            store.compact()
        # snapshot (epoch 1) is on disk; journal still epoch 0 + records.
        # A reader that cannot recover (writer lock held elsewhere) must
        # not double-apply the journal on top of the snapshot.
        lock_fd = os.open(path / "journal.lock", os.O_CREAT | os.O_RDWR)
        try:
            fcntl.flock(lock_fd, fcntl.LOCK_EX)
            reader = JournalStore(path, lock_policy=_fast_lock_policy())
            assert reader.get_result(_TOKENS[0], ARCH)["best_gflops"] == 3.0
        finally:
            fcntl.flock(lock_fd, fcntl.LOCK_UN)
            os.close(lock_fd)
        # with the lock free, open-time recovery finishes the reset
        recovered = JournalStore(path)
        assert recovered.get_result(_TOKENS[0], ARCH)["best_gflops"] == 3.0
        assert recovered._read_header() == 1
        assert os.path.getsize(path / "journal.log") == _HEADER_SIZE

    def test_handle_opened_before_crashed_compaction_appends_safely(
        self, tmp_path, monkeypatch
    ):
        """A handle opened before another handle's compaction crashed
        between snapshot and log reset must not append to the folded log
        (a fresh reader would skip it as already compacted)."""
        path = tmp_path / "s"
        crasher = JournalStore(path)
        crasher.put_result(_TOKENS[0], ARCH, _result(3.0))
        survivor = JournalStore(path)

        def crash(epoch):
            raise InjectedCrash("died before the journal reset")

        monkeypatch.setattr(crasher, "_reset_journal", crash)
        with pytest.raises(InjectedCrash):
            crasher.compact()
        survivor.put_result(_TOKENS[1], ARCH, _result(4.0))

        fresh = JournalStore(path)
        assert fresh.get_result(_TOKENS[0], ARCH)["best_gflops"] == 3.0
        assert fresh.get_result(_TOKENS[1], ARCH)["best_gflops"] == 4.0

    def test_reader_loaded_mid_crash_finishes_reset_before_append(
        self, tmp_path, monkeypatch
    ):
        """A handle that loaded the crashed-compaction state while another
        process held the lock finishes the reset before its own append."""
        path = tmp_path / "s"
        crasher = JournalStore(path)
        crasher.put_result(_TOKENS[0], ARCH, _result(3.0))

        def crash(epoch):
            raise InjectedCrash("died before the journal reset")

        monkeypatch.setattr(crasher, "_reset_journal", crash)
        with pytest.raises(InjectedCrash):
            crasher.compact()
        lock_fd = os.open(path / "journal.lock", os.O_CREAT | os.O_RDWR)
        try:
            fcntl.flock(lock_fd, fcntl.LOCK_EX)
            reader = JournalStore(path, lock_policy=_fast_lock_policy())
            assert reader.get_result(_TOKENS[0], ARCH)["best_gflops"] == 3.0
        finally:
            fcntl.flock(lock_fd, fcntl.LOCK_UN)
            os.close(lock_fd)
        reader.put_result(_TOKENS[1], ARCH, _result(4.0))

        fresh = JournalStore(path)
        assert fresh.get_result(_TOKENS[0], ARCH)["best_gflops"] == 3.0
        assert fresh.get_result(_TOKENS[1], ARCH)["best_gflops"] == 4.0

    def test_appends_replay_only_new_records(self, tmp_path, monkeypatch):
        """Appends cost O(record): after open, 500 appends (from two
        interleaved handles) reload the snapshot and replay the whole log
        at most once, instead of once per append."""
        path = tmp_path / "s"
        writer, other = JournalStore(path), JournalStore(path)
        calls = {"_load_state": 0, "_read_snapshot": 0}
        for name in calls:
            original = getattr(writer, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(writer, name, counted)
        record = {"best_gflops": 1.0, "via": "search", "pad": "x" * 2000}
        for i in range(500):
            token = ("m", 1, 1, 1, f"d{i}")
            (other if i % 50 == 0 else writer).put_result(token, ARCH, record)
        assert calls["_load_state"] <= 1 and calls["_read_snapshot"] <= 1
        assert len(JournalStore(path)) == len(writer) == 500

    def test_compact_and_auto_compact_preserve_contents(self, tmp_path):
        store = JournalStore(tmp_path / "s")
        store.put_result(_TOKENS[0], ARCH, _result(1.0))
        store.claim_search("claim-1")
        report = store.compact()
        assert report["epoch"] == 1 and report["reclaimed_bytes"] > 0
        fresh = JournalStore(tmp_path / "s")
        assert fresh.get_result(_TOKENS[0], ARCH)["best_gflops"] == 1.0
        assert fresh.claims() == ["claim-1"]

        auto = JournalStore(tmp_path / "auto", auto_compact_bytes=64)
        auto.put_result(_TOKENS[0], ARCH, _result(1.0))
        auto.put_result(_TOKENS[1], ARCH, _result(2.0))
        assert auto._read_header() >= 1  # compaction fired on its own
        assert JournalStore(tmp_path / "auto").get_result(
            _TOKENS[1], ARCH
        )["best_gflops"] == 2.0


# ----------------------------------------------------------------------
# Locking and quarantine
# ----------------------------------------------------------------------
class TestLockingAndQuarantine:
    def test_contended_lock_times_out_bounded(self, tmp_path):
        path = tmp_path / "s"
        store = JournalStore(path, lock_policy=_fast_lock_policy())
        lock_fd = os.open(path / "journal.lock", os.O_CREAT | os.O_RDWR)
        try:
            fcntl.flock(lock_fd, fcntl.LOCK_EX)
            with pytest.raises(LockTimeoutError, match="journal lock"):
                store.put_result(_TOKENS[0], ARCH, _result(1.0))
        finally:
            fcntl.flock(lock_fd, fcntl.LOCK_UN)
            os.close(lock_fd)
        store.put_result(_TOKENS[0], ARCH, _result(1.0))  # recovers after

    def test_injected_lock_timeouts_beat_the_retry_budget(self, tmp_path):
        plan = FaultPlan(seed=0, lock_timeout_rate=1.0)
        store = JournalStore(
            tmp_path / "s", faults=plan, lock_policy=_fast_lock_policy()
        )
        with pytest.raises(LockTimeoutError):
            store.put_result(_TOKENS[0], ARCH, _result(1.0))

    def test_partial_injected_contention_is_survived_by_retry(self, tmp_path):
        plan = FaultPlan(seed=0, lock_timeout_rate=0.4)
        store = JournalStore(
            tmp_path / "s",
            faults=plan,
            lock_policy=RetryPolicy(
                attempts=20, base_delay_s=0.0005, max_delay_s=0.002,
                retry_on=(LockContended,),
            ),
        )
        for i, token in enumerate(_TOKENS):
            store.put_result(token, ARCH, _result(float(i)))
        assert len(store.results(ARCH)) == 3
        assert store.faults.fired.get("lock_timeout", 0) > 0

    def test_mismatched_result_is_quarantined_and_heals(self, tmp_path):
        """A result whose matrix digest does not match its key is dropped
        by a durable ``drop`` record, and a write-back heals the key."""
        from repro.store.design import result_entry_doc

        path = tmp_path / "s"
        store = JournalStore(path)
        digest = store.result_digest(_TOKENS[0], ARCH)
        # CRC-valid, digest-valid record filed under the wrong matrix
        entry = result_entry_doc(_TOKENS[1], ARCH, _result(1.0))
        store._write_locked({"op": "result", "key": digest, "entry": entry})
        assert store.get_result(_TOKENS[0], ARCH) is None
        assert store.stats().quarantined == 1
        assert store.quarantine_log[0][0] == f"result/{digest}"
        fresh = JournalStore(path)
        assert len(fresh) == 0
        store.put_result(_TOKENS[0], ARCH, _result(2.0))
        assert fresh.get_result(_TOKENS[0], ARCH)["best_gflops"] == 2.0


# ----------------------------------------------------------------------
# Differential parity with the directory backend
# ----------------------------------------------------------------------
class TestBackendParity:
    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=1, max_value=999),
                st.booleans(),
            ),
            max_size=10,
        )
    )
    def test_backends_hold_bit_identical_content(self, ops):
        """Same write sequence → byte-identical records and artifact blobs
        in both backends (shared doc builders), so reads cannot diverge."""
        with tempfile.TemporaryDirectory() as tmp:
            stores = (
                DesignStore(os.path.join(tmp, "dir")),
                JournalStore(os.path.join(tmp, "journal")),
            )
            for idx, value, artifact in ops:
                record = _with_artifact(value) if artifact else _result(value)
                for store in stores:
                    store.put_result(_TOKENS[idx], ARCH, record)
            dir_store, journal_store = stores
            results_dir = os.path.join(tmp, "dir", "results")
            assert sorted(os.listdir(results_dir)) == sorted(
                f"{key}.json" for key in journal_store._state.results
            )
            for key, entry in journal_store._state.results.items():
                with open(os.path.join(results_dir, f"{key}.json"), "rb") as fh:
                    on_disk = fh.read()
                assert on_disk == (
                    json.dumps(entry, sort_keys=True) + "\n"
                ).encode("utf-8")
            assert _blobs(os.path.join(tmp, "dir")) == _blobs(
                os.path.join(tmp, "journal")
            )
            assert dir_store.results() == journal_store.results()
            assert dir_store.result_metas() == journal_store.result_metas()
            for idx in range(len(_TOKENS)):
                assert dir_store.get_result(
                    _TOKENS[idx], ARCH
                ) == journal_store.get_result(_TOKENS[idx], ARCH)
            for record in dir_store.results():
                assert dir_store.load_artifact(
                    record.get("artifact_digest")
                ) == journal_store.load_artifact(record.get("artifact_digest"))
