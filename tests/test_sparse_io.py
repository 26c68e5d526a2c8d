"""Matrix Market I/O tests."""

import tracemalloc

import pytest

from repro.sparse.io import (
    MatrixMarketError,
    dumps,
    loads,
    read_matrix_market,
    write_matrix_market,
)
from repro.sparse.matrix import SparseMatrix

_HEADER = "%%MatrixMarket matrix coordinate real general\n"

#: Malformed inputs whose error must name the offending line; bytes are
#: file contents that are not UTF-8.
MALFORMED_WITH_LINE = [
    _HEADER + "2 2 1\n1\n",
    _HEADER + "3 3 1\n1.5 2 3.0\n",
    _HEADER + "3 3 x\n",
    _HEADER + "3 3 1\n1 2 abc\n",
    (_HEADER + "2 2 1\n1 \xff 1.0\n").encode("latin-1"),
    (_HEADER + "2 2 \xff1\n1 1 1.0\n").encode("latin-1"),
]


def _read(text, tmp_path):
    if isinstance(text, bytes):
        path = tmp_path / "m.mtx"
        path.write_bytes(text)
        return read_matrix_market(path)
    return loads(text)


GENERAL = """%%MatrixMarket matrix coordinate real general
% a comment line
3 4 4
1 1 1.5
1 3 -2.0
2 2 3.25
3 4 4.0
"""

SYMMETRIC = """%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 1.0
2 1 2.0
3 2 5.0
"""

SKEW = """%%MatrixMarket matrix coordinate real skew-symmetric
3 3 2
2 1 2.0
3 2 5.0
"""

PATTERN = """%%MatrixMarket matrix coordinate pattern general
2 2 2
1 1
2 2
"""


class TestRead:
    def test_general(self):
        m = loads(GENERAL)
        assert m.shape == (3, 4)
        assert m.nnz == 4
        dense = m.to_dense()
        assert dense[0, 0] == 1.5
        assert dense[0, 2] == -2.0
        assert dense[2, 3] == 4.0

    def test_symmetric_expansion(self):
        m = loads(SYMMETRIC)
        dense = m.to_dense()
        assert dense[1, 0] == 2.0 and dense[0, 1] == 2.0
        assert dense[2, 1] == 5.0 and dense[1, 2] == 5.0
        assert dense[0, 0] == 1.0  # diagonal not duplicated
        assert m.nnz == 5

    def test_skew_symmetric_expansion(self):
        m = loads(SKEW)
        dense = m.to_dense()
        assert dense[1, 0] == 2.0 and dense[0, 1] == -2.0

    def test_pattern_ones(self):
        m = loads(PATTERN)
        assert m.vals.tolist() == [1.0, 1.0]

    def test_integer_field(self):
        m = loads("%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 7\n")
        assert m.to_dense()[0, 1] == 7.0

    @pytest.mark.parametrize(
        "text",
        [
            "not a header\n1 1 1\n",
            "%%MatrixMarket matrix array real general\n2 2\n1.0\n",
            "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
            "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n",
            "%%MatrixMarket matrix coordinate real general\n1 1\n",
            "%%MatrixMarket matrix coordinate real general\n1 1 2\n1 1 1.0\n",
            "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1\n",
            *MALFORMED_WITH_LINE,
        ],
    )
    def test_malformed_rejected(self, text, tmp_path):
        with pytest.raises(MatrixMarketError):
            _read(text, tmp_path)

    @pytest.mark.parametrize("text", MALFORMED_WITH_LINE)
    def test_malformed_line_is_named(self, text, tmp_path):
        with pytest.raises(MatrixMarketError, match=r"^line [23]: "):
            _read(text, tmp_path)

    def test_non_utf8_comment_is_ignored(self, tmp_path):
        path = tmp_path / "latin1.mtx"
        path.write_bytes((_HEADER + "% Jos\xe9\n2 2 1\n2 1 3.0\n").encode("latin-1"))
        assert read_matrix_market(path).to_dense()[1, 0] == 3.0

    def test_declared_count_is_not_allocated(self):
        """A size line declaring 10^11 entries (745 GiB as arrays) over one
        real entry is rejected for the entries read, without allocating
        for the declared count."""
        text = "%%MatrixMarket matrix coordinate real general\n3 3 100000000000\n1 1 1.0\n"
        tracemalloc.start()
        try:
            with pytest.raises(MatrixMarketError, match="found 1"):
                loads(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_too_many_entries_rejected(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 2.0\n"
        with pytest.raises(MatrixMarketError):
            loads(text)


class TestIndexBounds:
    """Regression: 1-based indices of 0 or beyond the size line used to
    become negative / out-of-range 0-based indices that only failed (or
    silently corrupted statistics) far downstream."""

    HEADER = "%%MatrixMarket matrix coordinate real general\n"

    def test_zero_row_index_rejected(self):
        with pytest.raises(MatrixMarketError, match="row index 0"):
            loads(self.HEADER + "2 2 1\n0 1 1.0\n")

    def test_zero_col_index_rejected(self):
        with pytest.raises(MatrixMarketError, match="column index 0"):
            loads(self.HEADER + "2 2 1\n1 0 1.0\n")

    def test_row_index_beyond_shape_rejected(self):
        with pytest.raises(MatrixMarketError, match="row index 3.*1..2"):
            loads(self.HEADER + "2 2 1\n3 1 1.0\n")

    def test_col_index_beyond_shape_rejected(self):
        with pytest.raises(MatrixMarketError, match="column index 5.*1..4"):
            loads(self.HEADER + "3 4 2\n1 1 1.0\n2 5 1.0\n")

    def test_nonpositive_dimensions_rejected(self):
        with pytest.raises(MatrixMarketError, match="size line"):
            loads(self.HEADER + "0 2 0\n")
        with pytest.raises(MatrixMarketError, match="size line"):
            loads(self.HEADER + "2 -1 0\n")

    def test_boundary_indices_accepted(self):
        m = loads(self.HEADER + "2 3 2\n1 1 1.0\n2 3 2.0\n")
        assert m.to_dense()[1, 2] == 2.0


class TestWrite:
    def test_round_trip_string(self, small_lp):
        again = loads(dumps(small_lp))
        assert again == small_lp

    def test_round_trip_file(self, tmp_path, small_irregular):
        path = tmp_path / "m.mtx"
        write_matrix_market(small_irregular, path)
        again = read_matrix_market(path)
        assert again == small_irregular
        assert again.name == "m"  # name from filename

    def test_values_preserved_precisely(self):
        m = SparseMatrix(1, 1, [0], [0], [1.0 / 3.0])
        again = loads(dumps(m))
        assert again.vals[0] == m.vals[0]

    def test_header_written(self, tiny_matrix):
        out = dumps(tiny_matrix)
        assert out.startswith("%%MatrixMarket matrix coordinate real general")
        assert "4 4 5" in out.splitlines()[2]
