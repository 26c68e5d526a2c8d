"""Design-store tests: result entries, artifact blobs, corruption,
concurrency, and stores written before design entries were retired.

The store holds finished search results only, each as a small record
plus a content-addressed artifact blob.  Searches never touch it — they
design in memory — and stores written by earlier revisions, which also
hold Designer output and inline artifacts, keep serving their results.
"""

import builtins
import hashlib
import json
import os
import shutil
import threading

import numpy as np
import pytest

from repro.bench import CorpusRunner
from repro.cli import main
from repro.gpu import A100
from repro.reliability.faults import InjectedCrash
from repro.search import SearchBudget, SearchEngine
from repro.search.evaluation import matrix_token
from repro.serve import Frontend
from repro.sparse import banded_matrix, corpus
from repro.store import (
    DesignStore,
    JournalStore,
    StoreError,
    StoreVersionError,
    make_result_record,
    open_store,
    search_result_record,
)
from repro.store.artifacts import ArtifactBlobs
from repro.store.codec import decode_array, encode_array

BUDGET = SearchBudget(
    max_structures=6, coarse_evals_per_structure=6, max_total_evals=24
)
LEGACY_STORES = os.path.join(os.path.dirname(__file__), "fixtures", "legacy_store")


def search_once(matrix, store=None, seed=3):
    with SearchEngine(A100, budget=BUDGET, seed=seed, store=store) as engine:
        return engine.search(matrix)


def record_search(store, matrix, seed=3):
    """Search ``matrix`` and persist its result the way the CLI does."""
    result = search_once(matrix, seed=seed)
    store.put_result(
        matrix_token(matrix),
        A100.name,
        search_result_record(matrix, A100.name, result, seed=seed),
    )
    return result


def history_identity(result):
    return [record.identity() for record in result.history]


def _with_artifact(gflops, tag):
    """A minimal record carrying an inline artifact."""
    return {
        "best_gflops": float(gflops),
        "via": "search",
        "artifact": {"kernels": [], "tag": tag},
    }


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
class TestCodec:
    def test_array_roundtrip_exact(self):
        for arr in (
            np.arange(17, dtype=np.int64),
            np.random.default_rng(0).random(33),
            np.array([], dtype=np.float64),
            np.array([True, False, True]),
            np.arange(6, dtype=np.int32).reshape(2, 3),
        ):
            back = decode_array(json.loads(json.dumps(encode_array(arr))))
            assert back.dtype == arr.dtype
            assert back.shape == arr.shape
            assert np.array_equal(back, arr)
            assert back.tobytes() == arr.tobytes()  # bit-exact
            assert back.flags.writeable


# ----------------------------------------------------------------------
# Store basics
# ----------------------------------------------------------------------
class TestDesignStore:
    def test_design_entry_methods_raise(self, tmp_path):
        """Design entries are retired: the two names survive only as
        stubs, and neither touches the disk."""
        store = DesignStore(tmp_path / "store")
        token = matrix_token(banded_matrix(8, bandwidth=1, seed=0, name="m"))
        with pytest.raises(StoreError, match="no longer stored"):
            store.get_design(token, ("sig",), "A100")
        with pytest.raises(StoreError, match="no longer stored"):
            store.put_design(token, ("sig",), "A100", error="x")
        assert sorted(os.listdir(tmp_path / "store")) == ["results", "store.json"]

    def test_result_roundtrip_and_overwrite(self, tmp_path):
        store = DesignStore(tmp_path / "store")
        matrix = banded_matrix(16, bandwidth=1, seed=0, name="m")
        token = matrix_token(matrix)
        assert store.get_result(token, "A100") is None
        store.put_result(token, "A100", {"best_gflops": 1.0, "via": "search"})
        assert store.get_result(token, "A100")["best_gflops"] == 1.0
        store.put_result(token, "A100", {"best_gflops": 2.0, "via": "search"})
        assert store.get_result(token, "A100")["best_gflops"] == 2.0
        assert len(store.results("A100")) == 1
        assert store.results("RTX2080") == []

    def test_result_metas_read_records(self, tmp_path):
        """Nearest-neighbour scans rank on metas derived from the ~1 KB
        records themselves: no sidecar file is written."""
        matrix = banded_matrix(16, bandwidth=1, seed=0, name="m")
        token = matrix_token(matrix)
        store = DesignStore(tmp_path / "store")
        store.put_result(
            token, "A100", make_result_record(matrix, "A100", 2.5, None)
        )
        digest = store.result_digest(token, "A100")
        ((got_digest, meta),) = store.result_metas("A100")
        assert got_digest == digest
        assert meta["name"] == "m" and meta["best_gflops"] == 2.5
        assert meta["has_graph"] is False
        assert len(meta["features"]) == 8
        assert os.listdir(tmp_path / "store" / "results") == [f"{digest}.json"]
        assert DesignStore(tmp_path / "store").result_metas("A100") == [
            (digest, meta)
        ]
        assert store.result_payload(digest)["best_gflops"] == 2.5
        assert store.result_payload("0" * 32) is None

    def test_gc_deletes_legacy_metas_and_unreferenced_blobs(self, tmp_path):
        """``gc`` removes ``.meta`` sidecars (earlier revisions wrote
        them; nothing reads them) and blobs no record names any more."""
        root = tmp_path / "store"
        store = DesignStore(root)
        token = ("m", 1, 1, 1, "d")
        store.put_result(token, "A100", _with_artifact(1.0, "old"))
        store.put_result(token, "A100", _with_artifact(2.0, "new"))
        digest = store.result_digest(token, "A100")
        (root / "results" / f"{digest}.meta").write_text("{}")
        (record,) = store.results()
        live = record["artifact_digest"]
        assert len(os.listdir(root / "artifacts")) == 2

        removed_corrupt, removed_legacy, removed_blobs = DesignStore(root).gc()
        assert removed_corrupt == []
        assert removed_legacy == [f"results/{digest}.meta"]
        assert len(removed_blobs) == 1 and live not in removed_blobs[0]
        assert os.listdir(root / "artifacts") == [f"{live}.json"]
        assert store.load_artifact(live) == {"kernels": [], "tag": "new"}

    def test_version_mismatch_raises(self, tmp_path):
        root = tmp_path / "store"
        DesignStore(root)
        (root / "store.json").write_text(
            '{"schema": 99, "kind": "design-store"}'
        )
        with pytest.raises(StoreVersionError, match="schema"):
            DesignStore(root)

    def test_non_store_paths_rejected(self, tmp_path):
        target = tmp_path / "file.json"
        target.write_text("{}")
        with pytest.raises(StoreError, match="is a file"):
            DesignStore(target)
        with pytest.raises(StoreError, match="no design store"):
            DesignStore(tmp_path / "missing", create=False)
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "store.json").write_text('{"kind": "something-else"}')
        with pytest.raises(StoreError, match="not a design store"):
            DesignStore(bad)


# ----------------------------------------------------------------------
# Corruption and recovery
# ----------------------------------------------------------------------
class TestCorruption:
    def test_truncated_entry_is_a_miss_not_a_crash(self, tmp_path):
        a = banded_matrix(64, bandwidth=2, seed=0, name="a")
        b = banded_matrix(96, bandwidth=2, seed=1, name="b")
        root = tmp_path / "store"
        store = DesignStore(root)
        for matrix in (a, b):
            record_search(store, matrix)
        entries = sorted((root / "results").glob("*.json"))
        assert len(entries) == 2
        # Truncate one entry mid-payload (simulated torn write from a
        # crashed process without os.replace) and scribble on another.
        text = entries[0].read_text()
        entries[0].write_text(text[: len(text) // 2])
        entries[1].write_text('{"schema": 1, "kind": "result"}')

        store = DesignStore(root)
        assert store.get_result(matrix_token(a), "A100") is None
        assert store.get_result(matrix_token(b), "A100") is None
        assert store.stats().corrupt == 2 and store.stats().quarantined == 2

        # Serving re-searches the damaged matrix instead of failing, and
        # its write-back heals the store for the next process.
        with Frontend(A100, store, budget=BUDGET) as frontend:
            response = frontend.resolve(a)
        assert response.source == "search" and response.ok
        healed = DesignStore(root).get_result(matrix_token(a), "A100")
        assert healed["best_gflops"] == response.gflops

    def test_verify_flags_and_gc_prunes(self, tmp_path):
        root = tmp_path / "store"
        store = DesignStore(root)
        for seed in (0, 1):
            record_search(
                store, banded_matrix(64, bandwidth=2, seed=seed, name=f"m{seed}")
            )
        entry = sorted((root / "results").glob("*.json"))[0]
        entry.write_text(entry.read_text()[:40])

        statuses = DesignStore(root).verify()
        bad = [s for s in statuses if not s.ok]
        assert len(bad) == 1 and bad[0].kind == "result"

        removed_corrupt, _, removed_blobs = DesignStore(root).gc()
        assert removed_corrupt == [f"results/{entry.name}"]
        # the pruned record's artifact blob is unreferenced now
        assert len(removed_blobs) == 1
        assert len(os.listdir(root / "artifacts")) == 1
        statuses = DesignStore(root).verify()
        assert len(statuses) == 1 and all(s.ok for s in statuses)

    def test_corrupt_entry_quarantined_on_first_detection(self, tmp_path):
        """A damaged entry is moved to ``corrupt/`` the first time it is
        read — not retried forever, not silently deleted — and the key is
        healed by the next write-back."""
        matrix = banded_matrix(16, bandwidth=1, seed=0, name="m")
        token = matrix_token(matrix)
        root = tmp_path / "store"
        store = DesignStore(root)
        store.put_result(token, "A100", {"best_gflops": 1.0, "via": "search"})
        digest = store.result_digest(token, "A100")
        entry = root / "results" / f"{digest}.json"
        entry.write_text("{broken")

        reader = DesignStore(root)
        assert reader.get_result(token, "A100") is None
        assert not entry.exists()  # moved, not left to fail again
        assert (root / "corrupt" / f"{digest}.json").exists()
        assert reader.stats().quarantined == 1
        ((rel, reason),) = reader.quarantine_log
        assert rel == f"results/{digest}.json" and reason
        # second read is a plain miss: no re-quarantine, no crash
        assert reader.get_result(token, "A100") is None
        assert reader.stats().quarantined == 1
        # write-back heals the key
        reader.put_result(token, "A100", {"best_gflops": 2.0, "via": "search"})
        assert reader.get_result(token, "A100")["best_gflops"] == 2.0

    def test_verify_repair_quarantines(self, tmp_path):
        matrix = banded_matrix(16, bandwidth=1, seed=0, name="m")
        token = matrix_token(matrix)
        root = tmp_path / "store"
        store = DesignStore(root)
        store.put_result(token, "A100", {"best_gflops": 1.0, "via": "search"})
        digest = store.result_digest(token, "A100")
        (root / "results" / f"{digest}.json").write_text("not json")

        checker = DesignStore(root)
        flagged = [s for s in checker.verify(repair=True) if not s.ok]
        assert len(flagged) == 1
        assert (root / "corrupt" / f"{digest}.json").exists()
        assert all(s.ok for s in DesignStore(root).verify())


# ----------------------------------------------------------------------
# Concurrency
# ----------------------------------------------------------------------
class TestConcurrentWriters:
    def test_two_engines_one_store_path(self, tmp_path):
        """Two engines racing to record the same matrix in one store
        directory: no corruption, no temp-file litter, and both searches
        match the store-less result."""
        matrix = banded_matrix(128, bandwidth=3, seed=1, name="race")
        root = tmp_path / "store"
        results = {}
        errors = []

        def run(tag):
            try:
                results[tag] = record_search(DesignStore(root), matrix)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        reference = search_once(matrix)
        for result in results.values():
            assert history_identity(result) == history_identity(reference)
        store = DesignStore(root)
        statuses = store.verify()
        assert len(statuses) == 1 and all(s.ok for s in statuses)
        stored = store.get_result(matrix_token(matrix), "A100")
        assert stored["best_gflops"] == reference.best_gflops
        assert not list((root / "results").glob("*.tmp"))


# ----------------------------------------------------------------------
# Records and artifact blobs
# ----------------------------------------------------------------------
@pytest.fixture(params=["dir", "journal"])
def backend(request):
    return request.param


SPLIT_MATRIX = banded_matrix(64, bandwidth=2, seed=0, name="split")


class TestArtifactBlobs:
    """Each result is a small record plus a content-addressed blob;
    exact hits read the record alone."""

    def _stored(self, tmp_path, backend):
        store = open_store(tmp_path / "store", backend=backend)
        result = record_search(store, SPLIT_MATRIX)
        record = store.get_result(matrix_token(SPLIT_MATRIX), "A100")
        return store, result, record

    def test_put_result_splits_record_from_blob(self, tmp_path, backend):
        store, result, record = self._stored(tmp_path, backend)
        assert "artifact" not in record
        digest = record["artifact_digest"]
        blob = tmp_path / "store" / "artifacts" / f"{digest}.json"
        assert hashlib.blake2b(
            blob.read_bytes(), digest_size=16
        ).hexdigest() == digest
        assert len(json.dumps(record)) < 2048  # the record stays small
        expected = search_result_record(
            SPLIT_MATRIX, "A100", result, seed=3
        )["artifact"]
        assert store.load_artifact(digest) == json.loads(json.dumps(expected))
        assert store.load_artifact(None) is None

    def test_exact_hit_opens_nothing_under_artifacts(
        self, tmp_path, backend, monkeypatch
    ):
        self._stored(tmp_path, backend)
        store = open_store(tmp_path / "store", create=False)
        opened, loads = [], []
        real_open = builtins.open

        def spy_open(file, *args, **kwargs):
            opened.append(os.fspath(file) if not isinstance(file, int) else "")
            return real_open(file, *args, **kwargs)

        real_read = ArtifactBlobs.read

        def spy_read(self, digest):
            loads.append(digest)
            return real_read(self, digest)

        monkeypatch.setattr(builtins, "open", spy_open)
        monkeypatch.setattr(ArtifactBlobs, "read", spy_read)
        with Frontend(A100, store, budget=BUDGET) as frontend:
            response = frontend.resolve(SPLIT_MATRIX)
        assert response.source == "store"
        assert response.artifact is None and response.artifact_digest
        assert loads == []
        assert opened and not [p for p in opened if "artifacts" in p]
        # the one loader still serves the answer's artifact on demand
        assert store.load_artifact(response.artifact_digest)["kernels"]
        assert loads == [response.artifact_digest]

    @pytest.mark.parametrize("damage", ["truncate", "edit"])
    def test_damaged_blob_quarantined_counted_and_healed(
        self, tmp_path, backend, damage
    ):
        store, result, record = self._stored(tmp_path, backend)
        digest = record["artifact_digest"]
        blob = tmp_path / "store" / "artifacts" / f"{digest}.json"
        data = blob.read_bytes()
        if damage == "truncate":
            blob.write_bytes(data[: len(data) // 2])
        else:  # still valid JSON, one base64 character changed
            at = data.index(b'"data":"') + len(b'"data":"')
            flipped = b"B" if data[at:at + 1] != b"B" else b"C"
            blob.write_bytes(data[:at] + flipped + data[at + 1:])

        reader = open_store(tmp_path / "store", create=False)
        assert reader.load_artifact(digest) is None
        assert reader.stats().corrupt == 1 and reader.stats().quarantined == 1
        assert not blob.exists()
        assert (tmp_path / "store" / "corrupt" / f"{digest}.json").exists()
        ((rel, reason),) = reader.quarantine_log
        assert rel == f"artifacts/{digest}.json" and "artifact blob" in reason
        # the record still answers exact hits; a second load is a plain miss
        assert reader.get_result(matrix_token(SPLIT_MATRIX), "A100") == record
        assert reader.load_artifact(digest) is None
        assert reader.stats().quarantined == 1
        # the next put of the same artifact writes the blob afresh
        reader.put_result(
            matrix_token(SPLIT_MATRIX),
            "A100",
            search_result_record(SPLIT_MATRIX, "A100", result, seed=3),
        )
        assert blob.read_bytes() == data
        assert reader.load_artifact(digest)["kernels"]

    def test_malformed_digest_touches_no_file(self, tmp_path, backend):
        """A digest is a blob name only when it is 32 hex digits: a
        damaged record naming ``../store`` must not move the header."""
        store = open_store(tmp_path / "store", backend=backend)
        store.put_result(("m", 1, 1, 1, "d"), "A100", _with_artifact(1.0, "x"))
        assert store.load_artifact("../store") is None
        assert store.load_artifact(7) is None
        assert (tmp_path / "store" / "store.json").exists()
        assert store.stats().corrupt == 2 and store.stats().quarantined == 0

    def test_verify_flags_missing_blob_and_repair_drops_record(
        self, tmp_path, backend, capsys
    ):
        store, _, record = self._stored(tmp_path, backend)
        path = str(tmp_path / "store")
        (tmp_path / "store" / "artifacts"
         / f"{record['artifact_digest']}.json").unlink()
        assert main(["store", "verify", path]) == 1
        assert "artifact blob missing" in capsys.readouterr().out
        assert main(["check", "--store", path]) == 1
        assert main(["store", "verify", path, "--repair"]) == 1
        assert main(["store", "verify", path]) == 0
        assert open_store(path, create=False).get_result(
            matrix_token(SPLIT_MATRIX), "A100"
        ) is None

    def test_crash_before_record_leaves_no_dangling_record(
        self, tmp_path, monkeypatch
    ):
        """The directory backend writes the blob before the record: a
        writer that dies in between leaves an unreferenced blob (which
        ``gc`` collects), never a record naming a missing blob."""
        root = tmp_path / "store"
        store = DesignStore(root)
        token = ("m", 1, 1, 1, "d")

        def crash(path, document):
            raise InjectedCrash("died between blob and record")

        monkeypatch.setattr(store, "_atomic_write", crash)
        with pytest.raises(InjectedCrash):
            store.put_result(token, "A100", _with_artifact(1.0, "lost"))
        fresh = DesignStore(root)
        assert fresh.get_result(token, "A100") is None
        assert len(os.listdir(root / "artifacts")) == 1
        assert len(fresh.gc()[2]) == 1
        assert os.listdir(root / "artifacts") == []

    def test_overwritten_blob_is_collected(self, tmp_path, backend):
        store = open_store(tmp_path / "store", backend=backend)
        token = ("m", 1, 1, 1, "d")
        old = store.put_result(token, "A100", _with_artifact(1.0, "old"))
        new = store.put_result(token, "A100", _with_artifact(2.0, "new"))
        assert old != new
        # a record without an artifact names no blob
        assert store.put_result(
            ("n", 1, 1, 1, "e"), "A100", {"best_gflops": 1.0, "artifact": None}
        ) is None
        _, _, removed_blobs = open_store(tmp_path / "store").gc()
        assert removed_blobs == [f"artifacts/{old}.json"]
        assert os.listdir(tmp_path / "store" / "artifacts") == [f"{new}.json"]


# ----------------------------------------------------------------------
# Searches never touch a store
# ----------------------------------------------------------------------
class TestSearchesNeverTouchStore:
    @pytest.fixture
    def design_calls(self, monkeypatch):
        """Every call that reaches the retired design-entry stubs."""
        calls = []

        def spy(name):
            def stub(self, *args, **kwargs):
                calls.append(name)
                raise StoreError("design entries are no longer stored")

            return stub

        for name in ("get_design", "put_design"):
            monkeypatch.setattr(DesignStore, name, spy(name))
        return calls

    def test_corpus_run_and_serve_pass(self, tmp_path, design_calls):
        budget = SearchBudget(max_total_evals=16)
        matrices = list(corpus(2))
        with CorpusRunner(A100, budget=budget) as plain:
            expected = [r["search"] for r in plain.run(matrices).records]
        with CorpusRunner(
            A100, budget=budget, design_store=DesignStore(tmp_path / "corpus")
        ) as runner:
            records = runner.run(matrices).records
        assert [r["search"]["designer_runs"] for r in records] == [
            r["designer_runs"] for r in expected
        ]

        a = banded_matrix(192, bandwidth=3, seed=1, name="a")
        b = banded_matrix(224, bandwidth=3, seed=2, name="b")
        with Frontend(A100, DesignStore(tmp_path / "serve"), budget=BUDGET) as fe:
            assert fe.resolve(a).source == "search"
            assert fe.resolve(b).source == "neighbour"
            assert fe.resolve(b).source == "store"
        assert design_calls == []


# ----------------------------------------------------------------------
# Stores written before design entries were retired
# ----------------------------------------------------------------------
def copy_legacy_store(tmp_path, backend):
    """A scratch copy of one committed legacy fixture store."""
    path = tmp_path / backend
    shutil.copytree(os.path.join(LEGACY_STORES, backend), path)
    return path


@pytest.fixture(params=["dir", "journal"])
def legacy_store(request, tmp_path):
    return copy_legacy_store(tmp_path, request.param)


LEGACY_MATRIX = banded_matrix(48, bandwidth=2, seed=0, name="legacy")


class TestLegacyStores:
    """Stores written before design entries were retired keep serving.

    ``tests/fixtures/legacy_store`` holds one store per backend, written by
    the last revision that stored Designer output (commit 343d2f9) with::

        matrix = banded_matrix(48, bandwidth=2, seed=0, name="legacy")
        token = matrix_token(matrix)
        for backend in ("dir", "journal"):
            store = open_store(f"{out}/{backend}", backend=backend)
            with SearchEngine(A100, budget=SearchBudget(max_total_evals=8),
                              seed=0, store=store) as engine:
                result = engine.search(matrix)
            store.put_result(token, A100.name,
                             search_result_record(matrix, A100.name, result,
                                                  seed=0))
            if backend == "journal":
                store.compact()  # designs now sit in the snapshot's map
                digest = store.design_digest(token, ("legacy",), A100.name)
                store.put_design(token, ("legacy",), A100.name,
                                 error="legacy")
                store._write_locked({"op": "drop", "kind": "design",
                                     "key": digest})
                store.claim_search("legacy-claim")

    (the journal's lock file is recreated on open and is not committed).
    """

    def test_results_still_serve(self, legacy_store):
        store = open_store(legacy_store, create=False)
        token = matrix_token(LEGACY_MATRIX)
        record = store.get_result(token, "A100")
        assert record["name"] == "legacy" and record["graph"] is not None
        # written before the split: the artifact is inline, no blob
        assert record["artifact"]["kernels"]
        assert "artifact_digest" not in record
        ((_, meta),) = store.result_metas("A100")
        assert meta["best_gflops"] == record["best_gflops"]
        with Frontend(A100, store) as frontend:
            response = frontend.resolve(LEGACY_MATRIX)
        assert response.source == "store"
        assert response.gflops == record["best_gflops"]
        assert response.artifact == record["artifact"]
        assert response.artifact_digest is None

    def test_verify_and_check_pass(self, legacy_store, capsys):
        store = open_store(legacy_store, create=False)
        statuses = store.verify()
        assert [s.kind for s in statuses] == ["result"]
        assert all(s.ok for s in statuses)
        assert store.stats().corrupt == 0
        assert main(["store", "verify", str(legacy_store)]) == 0
        assert main(["check", "--store", str(legacy_store)]) == 0
        assert "check passed" in capsys.readouterr().out

    def test_rewrite_uses_the_split_layout(self, legacy_store):
        """The old layout is read, never written: putting a legacy record
        back stores it as a record plus a blob."""
        store = open_store(legacy_store, create=False)
        token = matrix_token(LEGACY_MATRIX)
        legacy = store.get_result(token, "A100")
        digest = store.put_result(token, "A100", legacy)
        record = open_store(legacy_store, create=False).get_result(
            token, "A100"
        )
        assert "artifact" not in record and record["artifact_digest"] == digest
        assert store.load_artifact(digest) == legacy["artifact"]

    def test_journal_replay_skips_legacy_designs(self, tmp_path):
        store = JournalStore(copy_legacy_store(tmp_path, "journal"))
        assert store.claims() == ["legacy-claim"]
        state = store._state
        # two designs in the snapshot map; the log's third was dropped
        assert len(state.legacy_designs) == 2
        assert state.invalid == [] and state.tail_lost is None
        assert store.stats().corrupt == 0 and len(store) == 1

    def test_dir_gc_deletes_designs_tree(self, tmp_path):
        path = copy_legacy_store(tmp_path, "dir")
        designs = sorted(os.listdir(path / "designs"))
        assert len(designs) == 2
        (meta,) = [n for n in os.listdir(path / "results") if n.endswith(".meta")]
        assert DesignStore(path).gc() == (
            [], [f"designs/{name}" for name in designs] + [f"results/{meta}"], []
        )
        assert os.listdir(path / "results") == [meta[: -len(".meta")] + ".json"]
        assert not (path / "designs").exists()
        self._assert_results_read(path)

    def test_journal_compact_drops_legacy_designs(self, tmp_path):
        path = copy_legacy_store(tmp_path, "journal")
        store = JournalStore(path)
        assert store.compact()["results"] == 1
        snapshot = json.loads((path / "snapshot.json").read_text())
        assert "designs" not in snapshot
        assert snapshot["claims"] == ["legacy-claim"]
        store.put_result(("other", 1, 1, 1, "d"), "A100", {"best_gflops": 1.0})
        assert b'"design"' not in (path / "journal.log").read_bytes()
        assert JournalStore(path)._state.legacy_designs == set()
        self._assert_results_read(path)

    def test_journal_gc_lists_legacy_designs(self, tmp_path):
        path = copy_legacy_store(tmp_path, "journal")
        removed_corrupt, removed, removed_blobs = JournalStore(path).gc()
        assert removed_corrupt == [] and len(removed) == 2
        assert removed_blobs == []
        assert all(name.startswith("designs/") for name in removed)
        assert "designs" not in json.loads((path / "snapshot.json").read_text())
        self._assert_results_read(path)

    @staticmethod
    def _assert_results_read(path):
        store = open_store(path, create=False)
        record = store.get_result(matrix_token(LEGACY_MATRIX), "A100")
        assert record["name"] == "legacy"
        assert all(s.ok for s in store.verify())
