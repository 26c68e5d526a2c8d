"""Design-store tests: codec exactness, warm starts, corruption, concurrency.

The load-bearing contract is the warm start: a second search of the same
matrix against the same store path — through a *fresh* engine and a fresh
store handle, simulating a new process — must perform zero Designer runs
and replay a byte-identical history vs a store-less search.
"""

import json
import threading

import numpy as np
import pytest

from repro.core.designer import DesignError, DesignLeaf
from repro.core.metadata import MatrixMetadataSet
from repro.gpu import A100
from repro.search import SearchBudget, SearchEngine
from repro.search.evaluation import matrix_token
from repro.store import (
    DesignStore,
    StoreError,
    StoreVersionError,
    decode_leaves,
    decode_value,
    encode_leaves,
    encode_value,
    make_result_record,
)
from repro.sparse import banded_matrix, power_law_matrix

BUDGET = SearchBudget(
    max_structures=6, coarse_evals_per_structure=6, max_total_evals=24
)


def search_once(matrix, store=None, seed=3):
    with SearchEngine(A100, budget=BUDGET, seed=seed, store=store) as engine:
        return engine.search(matrix)


def history_identity(result):
    return [record.identity() for record in result.history]


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
            back = decode_value(encode_value(arr))
            assert back.dtype == arr.dtype
            assert back.shape == arr.shape
            assert np.array_equal(back, arr)
            assert back.tobytes() == arr.tobytes()  # bit-exact

    def test_scalars_tuples_nested(self):
        value = {
            "steps": [("warp", "SEG_RED"), ("global", "ATOM")],
            "n": 42,
            "flag": True,
            "none": None,
            "f": 0.1 + 0.2,  # not exactly representable in decimal
            "np_scalar": np.int64(7),
            "nested": {"arr": np.arange(3)},
        }
        back = decode_value(encode_value(value))
        assert back["steps"] == [("warp", "SEG_RED"), ("global", "ATOM")]
        assert type(back["steps"][0]) is tuple
        assert back["n"] == 42 and back["flag"] is True and back["none"] is None
        assert back["f"] == value["f"]  # exact double round-trip
        assert back["np_scalar"] == np.int64(7)
        assert back["np_scalar"].dtype == np.int64
        assert np.array_equal(back["nested"]["arr"], np.arange(3))

    def test_unsupported_type_rejected(self):
        with pytest.raises(StoreError, match="cannot persist"):
            encode_value(object())
        with pytest.raises(StoreError, match="string keys"):
            encode_value({1: "x"})

    def test_reserved_tag_keys_rejected(self):
        """A plain dict carrying a codec tag key would decode as the
        tagged type — the codec must refuse, not silently corrupt."""
        for tag in ("__ndarray__", "__tuple__", "__npscalar__"):
            with pytest.raises(StoreError, match="reserved codec tag"):
                encode_value({"outer": {tag: [1, 2]}})

    def test_leaves_roundtrip(self):
        matrix = banded_matrix(32, bandwidth=2, seed=0, name="m")
        meta = MatrixMetadataSet.from_matrix(matrix)
        leaf = DesignLeaf(meta=meta, branch_path=(0, 1))
        (back,) = decode_leaves(
            json.loads(json.dumps(encode_leaves([leaf])))
        )
        assert back.branch_path == (0, 1)
        assert sorted(back.meta.keys()) == sorted(meta.keys())
        for key in meta.keys():
            a, b = meta.get(key), back.meta.get(key)
            if isinstance(a, np.ndarray):
                assert b.dtype == a.dtype and np.array_equal(a, b)
            else:
                assert a == b


# ----------------------------------------------------------------------
# Store basics
# ----------------------------------------------------------------------
class TestDesignStore:
    def test_design_roundtrip_across_handles(self, tmp_path):
        matrix = banded_matrix(32, bandwidth=2, seed=0, name="m")
        token = matrix_token(matrix)
        meta = MatrixMetadataSet.from_matrix(matrix)
        signature = (("COMPRESS", ()),)
        store = DesignStore(tmp_path / "store")
        store.put_design(
            token, signature, "A100",
            leaves=[DesignLeaf(meta=meta, branch_path=())],
        )
        fresh = DesignStore(tmp_path / "store")  # new handle, same disk
        status, leaves = fresh.get_design(token, signature, "A100")
        assert status == "ok"
        assert np.array_equal(leaves[0].meta.elem_val, matrix.vals)
        # different arch or signature: miss
        assert fresh.get_design(token, signature, "RTX2080") is None
        assert fresh.get_design(token, (("SORT", ()),), "A100") is None

    def test_error_designs_replay(self, tmp_path):
        matrix = banded_matrix(16, bandwidth=1, seed=0, name="m")
        token = matrix_token(matrix)
        store = DesignStore(tmp_path / "store")
        store.put_design(token, ("sig",), "A100", error="BIN: no rows left")
        status, message = store.get_design(token, ("sig",), "A100")
        assert status == "error" and "no rows left" in message

    def test_put_design_takes_exactly_one_outcome(self, tmp_path):
        store = DesignStore(tmp_path / "store")
        token = matrix_token(banded_matrix(8, bandwidth=1, seed=0, name="m"))
        with pytest.raises(StoreError, match="exactly one"):
            store.put_design(token, ("s",), "A100")

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

    def test_result_metas_sidecar_and_self_heal(self, tmp_path):
        """Nearest-neighbour scans rank on .meta sidecars; a deleted or
        stale sidecar regenerates from one full entry read."""
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

        sidecar = tmp_path / "store" / "results" / f"{digest}.meta"
        sidecar.unlink()
        ((_, healed),) = DesignStore(tmp_path / "store").result_metas("A100")
        assert healed == meta
        assert sidecar.exists()  # written back

        assert store.result_payload(digest)["best_gflops"] == 2.5
        assert store.result_payload("0" * 32) is None

    def test_gc_drops_orphan_metas(self, tmp_path):
        matrix = banded_matrix(16, bandwidth=1, seed=0, name="m")
        token = matrix_token(matrix)
        store = DesignStore(tmp_path / "store")
        store.put_result(
            token, "A100", make_result_record(matrix, "A100", 1.0, None)
        )
        digest = store.result_digest(token, "A100")
        (tmp_path / "store" / "results" / f"{digest}.json").unlink()
        DesignStore(tmp_path / "store").gc()
        assert not (tmp_path / "store" / "results" / f"{digest}.meta").exists()

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
# Warm start (the tentpole acceptance criterion)
# ----------------------------------------------------------------------
class TestWarmStart:
    @pytest.fixture(scope="class")
    def matrix(self):
        return banded_matrix(192, bandwidth=3, seed=1, name="warm")

    @pytest.fixture(scope="class")
    def baseline(self, matrix):
        """Store-less reference search."""
        return search_once(matrix)

    def test_second_process_zero_designer_runs(self, tmp_path, matrix, baseline):
        root = tmp_path / "store"
        cold = search_once(matrix, store=DesignStore(root))
        assert cold.designer_runs > 0
        assert cold.store_misses == cold.designer_runs

        # Fresh engine + fresh handle = a new process, same store path.
        warm = search_once(matrix, store=DesignStore(root))
        assert warm.designer_runs == 0
        assert warm.store_hits > 0 and warm.store_misses == 0

        # Byte-identical histories: store-off vs cold-store vs warm-store.
        assert history_identity(cold) == history_identity(baseline)
        assert history_identity(warm) == history_identity(baseline)
        assert warm.best_gflops == baseline.best_gflops

    def test_failed_designs_warm_start_too(self, tmp_path):
        """Zero Designer runs requires replaying stored *failures* as well:
        a DesignError hit in a fresh process must come from the store, not
        from re-running the Designer."""
        from repro.core.graph import OperatorGraph

        matrix = power_law_matrix(256, avg_degree=6, seed=2, name="plaw")
        bad_graph = OperatorGraph.from_names(["BIN", "GMEM_ATOM_RED"])
        root = tmp_path / "store"

        with SearchEngine(A100, store=DesignStore(root)) as engine:
            with pytest.raises(DesignError, match="COMPRESS first"):
                engine.evaluator.build(matrix, bad_graph)
            designed = engine.builder.designer.executions
            assert designed == 1

        with SearchEngine(A100, store=DesignStore(root)) as fresh:
            with pytest.raises(DesignError, match="COMPRESS first"):
                fresh.evaluator.build(matrix, bad_graph)
            assert fresh.builder.designer.executions == 0  # replayed
            assert fresh.store.stats().design_hits == 1


# ----------------------------------------------------------------------
# Corruption and recovery
# ----------------------------------------------------------------------
class TestCorruption:
    def test_truncated_entry_is_a_miss_not_a_crash(self, tmp_path, capsys):
        matrix = banded_matrix(64, bandwidth=2, seed=0, name="m")
        root = tmp_path / "store"
        search_once(matrix, store=DesignStore(root))
        entries = sorted((root / "designs").glob("*.json"))
        assert entries
        # Truncate one entry mid-payload (simulated torn write from a
        # crashed process without os.replace) and scribble on another.
        text = entries[0].read_text()
        entries[0].write_text(text[: len(text) // 2])
        if len(entries) > 1:
            entries[1].write_text('{"schema": 1, "kind": "design"}')

        store = DesignStore(root)
        warm = search_once(matrix, store=store)
        # The damaged designs were re-designed and the search still works.
        assert warm.designer_runs > 0
        assert history_identity(warm) == history_identity(search_once(matrix))
        assert store.stats().corrupt > 0

        # ... and the re-design healed the store: the corrupt entries were
        # dropped and rewritten, so the next process warm-starts fully.
        healed = search_once(matrix, store=DesignStore(root))
        assert healed.designer_runs == 0

    def test_verify_flags_and_gc_prunes(self, tmp_path):
        matrix = banded_matrix(64, bandwidth=2, seed=0, name="m")
        root = tmp_path / "store"
        store = DesignStore(root)
        search_once(matrix, store=store)
        entry = sorted((root / "designs").glob("*.json"))[0]
        entry.write_text(entry.read_text()[:40])

        statuses = DesignStore(root).verify()
        bad = [s for s in statuses if not s.ok]
        assert len(bad) == 1 and bad[0].kind == "design"

        removed_corrupt, _ = DesignStore(root).gc()
        assert len(removed_corrupt) == 1
        assert all(s.ok for s in DesignStore(root).verify())

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

    def test_gc_prunes_unreferenced_designs(self, tmp_path):
        """Designs with no finished result for their (matrix, arch) are
        partial-search residue; gc drops them and keeps referenced ones."""
        a = banded_matrix(64, bandwidth=2, seed=0, name="a")
        b = banded_matrix(96, bandwidth=2, seed=1, name="b")
        root = tmp_path / "store"
        store = DesignStore(root)
        search_once(a, store=store)
        search_once(b, store=store)
        # result recorded only for a → b's designs are unreferenced
        record = make_result_record(a, "A100", 1.0, None)
        store.put_result(matrix_token(a), "A100", record)
        n_designs_before = len(store._list("designs"))

        _, removed = DesignStore(root).gc()
        assert removed  # b's designs went away
        after = DesignStore(root)
        assert len(after._list("designs")) == n_designs_before - len(removed)
        assert len(after._list("results")) == 1


# ----------------------------------------------------------------------
# Concurrency
# ----------------------------------------------------------------------
class TestConcurrentWriters:
    def test_two_engines_one_store_path(self, tmp_path):
        """Two engines racing on one store directory: no corruption, no
        temp-file litter, and both searches match the store-less result."""
        matrix = banded_matrix(128, bandwidth=3, seed=1, name="race")
        root = tmp_path / "store"
        results = {}
        errors = []

        def run(tag):
            try:
                results[tag] = search_once(matrix, store=DesignStore(root))
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
        assert all(s.ok for s in store.verify())
        assert not list((root / "designs").glob("*.tmp"))
        assert not list((root / "results").glob("*.tmp"))
