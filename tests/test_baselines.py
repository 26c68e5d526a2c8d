"""Baseline format tests: correctness on every pattern + oracle PFS."""

import numpy as np
import pytest

from repro.baselines import (
    BASELINE_REGISTRY,
    PFS_MEMBERS,
    SOTA_FORMATS,
    PerfectFormatSelector,
    get_baseline,
)
from repro.baselines.hyb import hyb_split
from repro.gpu import A100, RTX2080
from repro.sparse import banded_matrix, power_law_matrix, rows_with_outliers_matrix


ALL_NAMES = sorted(BASELINE_REGISTRY)


class TestRegistry:
    def test_pfs_members_registered(self):
        for name in PFS_MEMBERS:
            assert name in BASELINE_REGISTRY

    def test_sota_subset(self):
        assert set(SOTA_FORMATS) <= set(PFS_MEMBERS)
        assert len(SOTA_FORMATS) == 5
        assert len(PFS_MEMBERS) == 10

    def test_unknown_baseline(self):
        with pytest.raises(KeyError):
            get_baseline("SPARSE9000")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_baseline_correct_on_irregular(name, small_irregular, x_for):
    b = get_baseline(name)
    meas = b.measure(small_irregular, A100, x_for(small_irregular))
    if meas.applicable:
        assert meas.correct, f"{name} produced wrong results"
        assert meas.gflops > 0
    else:
        assert meas.gflops == 0.0


@pytest.mark.parametrize("name", ALL_NAMES)
def test_baseline_correct_on_regular(name, small_regular, x_for):
    meas = get_baseline(name).measure(small_regular, A100, x_for(small_regular))
    assert not meas.applicable or meas.correct


class TestMeasurementContract:
    def test_inapplicable_measurement_is_finite(self):
        """Regression: inapplicable formats used to carry time_s=inf, which
        broke any column sum/mean in reporting."""
        skewed = rows_with_outliers_matrix(600, base_len=4, outlier_len=500, seed=0)
        meas = get_baseline("ELL").measure(skewed, A100)
        assert not meas.applicable
        assert not meas.ok
        assert np.isfinite(meas.time_s) and np.isfinite(meas.gflops)
        assert meas.gflops == 0.0

    @pytest.mark.parametrize("name", ["COO", "row-grouped CSR"])
    def test_atomic_baseline_not_misflagged_on_dense_rows(self, name, x_for):
        """Regression: atomic-reduction baselines accumulate partials in a
        different order than the reference SpMV; the old rtol=1e-9 gate
        could misflag them incorrect (0 GFLOPS) on dense-ish matrices."""
        from repro.sparse import block_diagonal_matrix

        dense_ish = block_diagonal_matrix(24, block_size=48, fill=0.9, seed=9)
        meas = get_baseline(name).measure(dense_ish, A100, x_for(dense_ish))
        assert meas.applicable
        assert meas.correct, f"{name} misflagged incorrect on dense-ish matrix"
        assert meas.gflops > 0
        assert meas.ok

    def test_shared_reference_matches_unshared(self, small_regular, x_for):
        """The batched path (precomputed reference) must measure the same."""
        x = x_for(small_regular)
        ref = small_regular.spmv_reference(x)
        a = get_baseline("CSR").measure(small_regular, A100, x)
        b = get_baseline("CSR").measure(small_regular, A100, x, reference=ref)
        assert a == b

    def test_refused_design_is_inapplicable(self, one_full_row):
        """A baseline whose design the padding budget refuses reports an
        inapplicable measurement naming the code; the rest still measure."""
        from repro.baselines.base import measure_baselines
        from repro.errors import PAD_BUDGET

        measured = measure_baselines(one_full_row, A100, ALL_NAMES)
        assert list(measured) == ALL_NAMES and len(measured) == 14
        sell = measured["SELL"]
        assert not sell.applicable and not sell.ok
        assert sell.note.startswith(f"{PAD_BUDGET}: ")
        assert sell.gflops == 0.0 and sell.time_s == 0.0
        assert measured["CSR5"].ok

    def test_measure_baselines_batched(self, small_regular, x_for):
        from repro.baselines.base import measure_baselines

        names = ["CSR", "COO", "ELL", "DIA"]
        x = x_for(small_regular)
        batched = measure_baselines(small_regular, A100, names, x=x)
        assert list(batched) == names
        for name in names:
            assert batched[name] == get_baseline(name).measure(
                small_regular, A100, x
            )


class TestApplicability:
    def test_ell_refuses_skewed(self):
        skewed = rows_with_outliers_matrix(600, base_len=4, outlier_len=500, seed=0)
        assert not get_baseline("ELL").applicable(skewed)

    def test_ell_accepts_regular(self, small_regular):
        assert get_baseline("ELL").applicable(small_regular)

    def test_dia_accepts_banded(self, small_regular):
        assert get_baseline("DIA").applicable(small_regular)

    def test_dia_refuses_scattered(self, small_irregular):
        assert not get_baseline("DIA").applicable(small_irregular)

    def test_dia_correct_on_banded(self, small_regular, x_for):
        meas = get_baseline("DIA").measure(small_regular, A100, x_for(small_regular))
        assert meas.correct


class TestHyb:
    def test_split_partitions_nnz(self, small_irregular):
        ell, coo = hyb_split(small_irregular, 4)
        total = ell.nnz + (coo.nnz if coo is not None else 0)
        assert total == small_irregular.nnz
        assert ell.row_lengths().max() <= 4

    def test_split_no_overflow(self, small_regular):
        width = int(small_regular.row_lengths().max())
        ell, coo = hyb_split(small_regular, width)
        assert coo is None
        assert ell.nnz == small_regular.nnz

    def test_two_kernels_on_skewed(self):
        skewed = rows_with_outliers_matrix(400, base_len=6, seed=1)
        prog = get_baseline("HYB").program(skewed)
        assert prog.n_kernels == 2

    def test_hyb_good_on_outlier_pattern(self):
        """The §VII-H story: HYB's decomposition suits GL7d19-like input."""
        skewed = rows_with_outliers_matrix(2000, base_len=10, seed=2)
        x = np.random.default_rng(0).random(skewed.n_cols)
        hyb = get_baseline("HYB").measure(skewed, A100, x)
        sell = get_baseline("SELL").measure(skewed, A100, x)
        assert hyb.correct
        assert hyb.gflops > sell.gflops


class TestCsrAutoConfig:
    def test_short_rows_use_scalar(self):
        m = power_law_matrix(300, avg_degree=2, seed=0)
        graph = get_baseline("CSR").graph(m)
        assert "BMT_ROW_BLOCK" in graph.operator_names()

    def test_long_rows_use_vector(self, small_regular):
        graph = get_baseline("CSR").graph(small_regular)
        assert "BMW_ROW_BLOCK" in graph.operator_names()


class TestPfs:
    def test_selects_maximum(self, small_irregular, x_for):
        x = x_for(small_irregular)
        sel = PerfectFormatSelector().select(small_irregular, A100, x)
        usable = [m.gflops for m in sel.all_measurements if m.correct]
        assert sel.gflops == max(usable)
        assert sel.selected_format in PFS_MEMBERS

    def test_all_members_measured(self, small_irregular):
        sel = PerfectFormatSelector().select(small_irregular, A100)
        assert len(sel.all_measurements) == len(PFS_MEMBERS)
        assert set(sel.by_name()) == set(PFS_MEMBERS)

    def test_custom_member_list(self, small_regular):
        sel = PerfectFormatSelector(["COO", "CSR"]).select(small_regular, A100)
        assert sel.selected_format in ("COO", "CSR")

    def test_different_winners_by_pattern(self, x_for):
        """Format diversity: no single format wins everywhere (Problem 1)."""
        regular = banded_matrix(2000, bandwidth=8, seed=0)
        irregular = power_law_matrix(3000, avg_degree=8, seed=0)
        pfs = PerfectFormatSelector()
        w_reg = pfs.select(regular, A100).selected_format
        w_irr = pfs.select(irregular, A100).selected_format
        assert w_reg != w_irr


class TestCrossGpu:
    def test_baselines_scale_with_gpu(self, small_regular, x_for):
        x = x_for(small_regular)
        a = get_baseline("CSR").measure(small_regular, A100, x)
        t = get_baseline("CSR").measure(small_regular, RTX2080, x)
        assert a.gflops > t.gflops
