"""CLI tests (the paper's artifact-usage contract)."""

import json
import os

import pytest

from repro.cli import main
from repro.sparse import write_matrix_market


@pytest.fixture
def mtx_file(tmp_path, small_regular):
    path = tmp_path / "m.mtx"
    write_matrix_market(small_regular, path)
    return str(path)


class TestStats:
    def test_named_matrix(self, capsys):
        assert main(["stats", "@scfxm1-2r"]) == 0
        out = capsys.readouterr().out
        assert "row variance" in out
        assert "irregular" in out

    def test_file(self, mtx_file, capsys):
        assert main(["stats", mtx_file]) == 0
        assert "nnz" in capsys.readouterr().out


class TestOperatorsAndMatrices:
    def test_operators_listing(self, capsys):
        assert main(["operators"]) == 0
        out = capsys.readouterr().out
        for name in ("COMPRESS", "BMT_ROW_BLOCK", "WARP_SEG_RED", "HYB_DECOMP"):
            assert name in out

    def test_matrices_listing(self, capsys):
        assert main(["matrices"]) == 0
        out = capsys.readouterr().out
        assert "scfxm1-2r" in out
        assert "GL7d19" in out


class TestBaselines:
    def test_runs_all(self, mtx_file, capsys):
        assert main(["baselines", mtx_file, "--gpu", "RTX2080"]) == 0
        out = capsys.readouterr().out
        for fmt in ("CSR5", "Merge", "HYB", "TACO"):
            assert fmt in out


class TestSearch:
    def test_search_and_export(self, mtx_file, tmp_path, capsys):
        out_dir = tmp_path / "artifact"
        code = main([
            "search", mtx_file, "--evals", "24", "--seed", "1",
            "--out", str(out_dir), "--compare-pfs",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "winning Operator Graph" in text
        assert "GFLOPS" in text
        assert "speedup" in text
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["kernels"]

    def test_search_prints_kernel_without_out(self, mtx_file, capsys):
        assert main(["search", mtx_file, "--evals", "16"]) == 0
        assert "__global__" in capsys.readouterr().out

    def test_extensions_flag(self, capsys):
        code = main([
            "search", "@GL7d19", "--evals", "16", "--extensions",
        ])
        assert code == 0

    def test_unknown_gpu_fails(self, mtx_file):
        with pytest.raises(KeyError):
            main(["search", mtx_file, "--gpu", "H100", "--evals", "4"])

    def test_multi_matrix_summary(self, mtx_file, capsys):
        code = main([
            "search", mtx_file, "@scfxm1-2r", "--evals", "16",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Search summary" in out
        assert "cache hit" in out
        assert "scfxm1-2r" in out

    def test_no_valid_candidate_reports_cleanly(self, mtx_file, capsys):
        assert main(["search", mtx_file, "--evals", "0"]) == 1
        assert "no valid candidate" in capsys.readouterr().out

class TestBench:
    """Corpus-pipeline smoke tests on two tiny generated matrices (the
    full corpus benchmark lives behind the `slow` marker)."""

    @pytest.fixture
    def two_matrices(self, tmp_path, small_regular, small_lp):
        paths = []
        for matrix, fname in ((small_regular, "a.mtx"), (small_lp, "b.mtx")):
            path = tmp_path / fname
            write_matrix_market(matrix, path)
            paths.append(str(path))
        return paths

    def test_bench_smoke(self, two_matrices, tmp_path, capsys):
        store = tmp_path / "results.json"
        code = main([
            "bench", *two_matrices, "--evals", "12",
            "--resume", str(store),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Geomean speedup" in out
        assert "Fig 10" in out
        assert "Creativity" in out
        assert "2 measured, 0 resumed" in out
        assert "inf" not in out and "nan" not in out
        assert store.exists()

    def test_bench_resumes_from_store(self, two_matrices, tmp_path, capsys):
        store = tmp_path / "results.json"
        args = ["bench", *two_matrices, "--evals", "12", "--resume", str(store)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "0 measured, 2 resumed" in out

    def test_bench_corpus_slice(self, capsys):
        assert main(["bench", "@corpus:2", "--evals", "8"]) == 0
        out = capsys.readouterr().out
        assert "2 matrices" in out

    def test_bench_bad_corpus_slice(self):
        with pytest.raises(SystemExit):
            main(["bench", "@corpus:zzz", "--evals", "8"])


class TestDesignStoreFlag:
    def test_search_store_records_result_only(self, mtx_file, tmp_path,
                                              capsys):
        store = tmp_path / "designs"
        args = ["search", mtx_file, "--evals", "16", "--store", str(store)]
        assert main(args) == 0
        assert main(args) == 0  # a repeat search overwrites the record
        capsys.readouterr()
        assert sorted(os.listdir(store)) == ["results", "store.json"]
        assert len(list((store / "results").glob("*.json"))) == 1
        serve = ["serve", mtx_file, "--store", str(store), "--evals", "16"]
        assert main(serve) == 0
        assert "1 exact" in capsys.readouterr().out

    def test_bench_store_populates(self, mtx_file, tmp_path, capsys):
        store = str(tmp_path / "designs")
        code = main(["bench", mtx_file, "--evals", "12", "--store", store])
        assert code == 0
        out = capsys.readouterr().out
        assert "design store:" in out
        assert "results written" in out


class TestServe:
    def test_serve_search_then_hit(self, mtx_file, tmp_path, capsys):
        store = str(tmp_path / "designs")
        args = ["serve", mtx_file, "--store", store, "--evals", "24"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "search" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "store" in second
        assert "1 exact" in second

    def test_serve_exports_artifact(self, mtx_file, tmp_path, capsys):
        store = str(tmp_path / "designs")
        out_dir = tmp_path / "served"
        code = main([
            "serve", mtx_file, "--store", store, "--evals", "24",
            "--out", str(out_dir),
        ])
        assert code == 0
        assert "artifact exported" in capsys.readouterr().out
        manifests = list(out_dir.glob("*/manifest.json"))
        assert len(manifests) == 1
        manifest = json.loads(manifests[0].read_text())
        assert manifest["kernels"]


class TestStoreCommand:
    @pytest.fixture
    def populated(self, mtx_file, tmp_path, capsys):
        store = str(tmp_path / "designs")
        main(["search", mtx_file, "--evals", "16", "--store", store])
        capsys.readouterr()
        return store

    def test_ls(self, populated, capsys):
        assert main(["store", "ls", populated]) == 0
        out = capsys.readouterr().out
        assert "design" in out and "result" in out and "ok" in out

    def test_verify_clean_and_corrupt(self, populated, tmp_path, capsys):
        assert main(["store", "verify", populated]) == 0
        capsys.readouterr()
        entry = sorted((tmp_path / "designs" / "results").glob("*.json"))[0]
        entry.write_text(entry.read_text()[:30])
        assert main(["store", "verify", populated]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_gc(self, populated, capsys):
        assert main(["store", "gc", populated]) == 0
        assert "entries removed" in capsys.readouterr().out

    def test_missing_store_reports_cleanly(self, tmp_path, capsys):
        assert main(["store", "ls", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().out


class TestSearchMultiExport:
    def test_multi_matrix_export(self, mtx_file, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        code = main([
            "search", mtx_file, "@scfxm1-2r", "--evals", "12",
            "--out", str(out_dir),
        ])
        assert code == 0
        exported = list(out_dir.glob("*/manifest.json"))
        assert len(exported) == 2
