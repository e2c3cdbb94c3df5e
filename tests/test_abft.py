import numpy as np
import pytest

from conftest import (
    candidates,
    correct_approx_oracle,
    correct_exact_oracle,
    inject_single,
    localize_oracle,
    plan_for,
    residual_cells,
    tamper_faulty_gemm,
)
from ftgemm.abft import (
    STRICT,
    AbftStrategy,
    SumProfiles,
    ThresholdSet,
    compute_sum_profiles,
    correct_approx,
    correct_exact,
    detect,
    fp_floor,
    localize,
    precompute_checksums,
    protect_gemm,
    strategy_from_name,
)
from ftgemm.faults import FaultConfig, RngStream, faulty_gemm
from ftgemm.tensor_core import OpCounter, gemm


def _pipeline(A, B, C, thresholds=ThresholdSet()):
    ck = precompute_checksums(A, B)
    det = detect(C, ck, thresholds)
    prof = compute_sum_profiles(A, B, C, checksums=ck)
    loc = localize(prof, thresholds)
    return ck, det, prof, loc


class TestChecksums:
    def test_2x2_example(self, small_product):
        A, B, _ = small_product
        ck = precompute_checksums(A, B)
        np.testing.assert_array_equal(ck.a_colsum, [4, 6])
        np.testing.assert_array_equal(ck.b_rowsum, [11, 15])
        assert ck.predicted_total == 134.0

    def test_identity_right_operand(self):
        rng = np.random.default_rng(0)
        A = rng.uniform(-1, 1, (5, 5)).astype(np.float32)
        ck = precompute_checksums(A, np.eye(5, dtype=np.float32))
        assert abs(ck.predicted_total - float(A.sum(dtype=np.float64))) < 1e-9


class TestDetect:
    def test_clean_not_triggered(self, small_product):
        A, B, C = small_product
        ck = precompute_checksums(A, B)
        det = detect(C, ck)
        assert det.msd <= fp_floor(ck.total_scale)
        assert not det.triggered

    def test_injected_error_triggers(self, small_product):
        A, B, C = small_product
        ck = precompute_checksums(A, B)
        det = detect(inject_single(C, 0, 1, 8.0), ck)
        assert det.msd == pytest.approx(8.0, abs=1e-6)
        assert det.triggered

    def test_raised_threshold_suppresses(self, small_product):
        A, B, C = small_product
        ck = precompute_checksums(A, B)
        det = detect(inject_single(C, 0, 1, 8.0), ck, ThresholdSet(detect_threshold=25.0))
        assert not det.triggered
        assert det.threshold == 25.0

    def test_nan_counts_as_triggered(self, small_product):
        A, B, C = small_product
        ck = precompute_checksums(A, B)
        bad = C.copy()
        bad[1, 1] = np.nan
        assert detect(bad, ck).triggered


class TestSumProfiles:
    def test_2x2_fault_example(self, small_product):
        A, B, C = small_product
        prof = compute_sum_profiles(
            A, B, inject_single(C, 0, 1, 8.0), checksums=precompute_checksums(A, B)
        )
        np.testing.assert_allclose(prof.rsd, [-8, 0], atol=1e-6)
        np.testing.assert_allclose(prof.csd, [0, -8], atol=1e-6)

    def test_fault_free_below_floor(self):
        rng = np.random.default_rng(1)
        A = rng.uniform(-1, 1, (12, 9)).astype(np.float32)
        B = rng.uniform(-1, 1, (9, 11)).astype(np.float32)
        prof = compute_sum_profiles(A, B, gemm(A, B), checksums=precompute_checksums(A, B))
        assert (np.abs(prof.rsd) <= 1e-4 * np.maximum(1, prof.row_scale)).all()
        assert (np.abs(prof.csd) <= 1e-4 * np.maximum(1, prof.col_scale)).all()

    def test_conservation(self):
        rng = np.random.default_rng(2)
        A = rng.uniform(-1, 1, (10, 10)).astype(np.float32)
        B = rng.uniform(-1, 1, (10, 10)).astype(np.float32)
        C = inject_single(gemm(A, B), 3, 4, 17.0)
        ck = precompute_checksums(A, B)
        prof = compute_sum_profiles(A, B, C, checksums=ck)
        total_dev = ck.predicted_total - float(C.sum(dtype=np.float64))
        assert prof.rsd.sum() == pytest.approx(total_dev, rel=1e-9, abs=1e-7)
        assert prof.csd.sum() == pytest.approx(total_dev, rel=1e-9, abs=1e-7)


class TestLocalize:
    def test_single_fault(self, small_product):
        A, B, C = small_product
        _, _, prof, loc = _pipeline(A, B, inject_single(C, 0, 1, 8.0))
        np.testing.assert_array_equal(loc.faulty_rows, [0])
        np.testing.assert_array_equal(loc.faulty_cols, [1])
        assert candidates(loc) == ((0, 1),)

    def test_l_shape_has_false_positive(self):
        rng = np.random.default_rng(3)
        A = rng.uniform(-1, 1, (4, 4)).astype(np.float32)
        B = rng.uniform(-1, 1, (4, 4)).astype(np.float32)
        C = gemm(A, B)
        for (r, c), d in zip([(0, 0), (0, 1), (1, 0)], [5.0, 3.0, 2.0]):
            C = inject_single(C, r, c, d)
        _, _, prof, loc = _pipeline(A, B, C)
        np.testing.assert_array_equal(loc.faulty_rows, [0, 1])
        np.testing.assert_array_equal(loc.faulty_cols, [0, 1])
        assert set(candidates(loc)) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_raised_thresholds_empty(self, small_product):
        A, B, C = small_product
        ts = ThresholdSet(row_threshold=100.0, col_threshold=100.0)
        _, _, prof, loc = _pipeline(A, B, inject_single(C, 0, 1, 8.0), ts)
        assert candidates(loc) == ()

    def test_nan_row_flagged(self, small_product):
        A, B, C = small_product
        bad = C.copy()
        bad[1, 0] = np.nan
        _, _, _, loc = _pipeline(A, B, bad)
        assert 1 in loc.faulty_rows and 0 in loc.faulty_cols


class TestCorrectExact:
    def test_single_candidate_restores_clean(self, small_product):
        A, B, C = small_product
        faulty = inject_single(C, 0, 1, 8.0)
        _, _, prof, loc = _pipeline(A, B, faulty)
        fixed, residual = correct_exact(faulty, loc, prof)
        assert residual_cells(residual) == []
        np.testing.assert_allclose(fixed, C, atol=1e-4)

    def test_same_row_pair_corrected_via_columns(self):
        rng = np.random.default_rng(4)
        A = rng.uniform(-1, 1, (4, 4)).astype(np.float32)
        B = rng.uniform(-1, 1, (4, 4)).astype(np.float32)
        clean = gemm(A, B)
        faulty = inject_single(inject_single(clean, 0, 0, 5.0), 0, 1, 3.0)
        _, _, prof, loc = _pipeline(A, B, faulty)
        np.testing.assert_array_equal(loc.faulty_rows, [0])
        np.testing.assert_array_equal(loc.faulty_cols, [0, 1])
        fixed, residual = correct_exact(faulty, loc, prof)
        assert residual_cells(residual) == []
        np.testing.assert_allclose(fixed, clean, atol=1e-3)

    def test_l_shape_residual_is_all_four(self):
        rng = np.random.default_rng(5)
        A = rng.uniform(-1, 1, (4, 4)).astype(np.float32)
        B = rng.uniform(-1, 1, (4, 4)).astype(np.float32)
        C = gemm(A, B)
        for (r, c), d in zip([(0, 0), (0, 1), (1, 0)], [5.0, 3.0, 2.0]):
            C = inject_single(C, r, c, d)
        _, _, prof, loc = _pipeline(A, B, C)
        fixed, residual = correct_exact(C, loc, prof)
        assert set(residual_cells(residual)) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        np.testing.assert_array_equal(fixed, C)

    def test_diagonal_errors_cross_matched(self):
        rng = np.random.default_rng(6)
        A = rng.uniform(-1, 1, (5, 5)).astype(np.float32)
        B = rng.uniform(-1, 1, (5, 5)).astype(np.float32)
        clean = gemm(A, B)
        faulty = inject_single(inject_single(clean, 1, 2, 9.0), 3, 4, -6.0)
        _, _, prof, loc = _pipeline(A, B, faulty)
        assert set(candidates(loc)) == {(1, 2), (1, 4), (3, 2), (3, 4)}
        fixed, residual = correct_exact(faulty, loc, prof)
        np.testing.assert_allclose(fixed, clean, atol=1e-3)
        assert set(residual_cells(residual)) == {(1, 4), (3, 2)}


class TestCorrectApprox:
    def test_empty_residual_unchanged(self, small_product):
        A, B, C = small_product
        prof = compute_sum_profiles(A, B, C, checksums=precompute_checksums(A, B))
        np.testing.assert_array_equal(correct_approx(C, np.zeros((2, 0), np.intp), prof, "zero"), C)

    def test_zero_mode_surgical(self):
        rng = np.random.default_rng(7)
        A = rng.uniform(-1, 1, (4, 4)).astype(np.float32)
        B = rng.uniform(-1, 1, (4, 4)).astype(np.float32)
        C = gemm(A, B)
        for (r, c), d in zip([(0, 0), (0, 1), (1, 0)], [5.0, 3.0, 2.0]):
            C = inject_single(C, r, c, d)
        _, _, prof, loc = _pipeline(A, B, C)
        _, residual = correct_exact(C, loc, prof)
        out = correct_approx(C, residual, prof, "zero")
        for r, c in residual_cells(residual):
            assert out[r, c] == 0.0
        untouched = np.ones_like(C, bool)
        for r, c in residual_cells(residual):
            untouched[r, c] = False
        np.testing.assert_array_equal(out[untouched], C[untouched])

    def test_average_mode_splits_row_deviation(self, small_product):
        A, B, C = small_product
        faulty = inject_single(C, 0, 0, 4.0)
        faulty = inject_single(faulty, 0, 1, 4.0)
        prof = compute_sum_profiles(A, B, faulty, checksums=precompute_checksums(A, B))
        assert prof.rsd[0] == pytest.approx(-8.0, abs=1e-5)
        out = correct_approx(faulty, (np.array([0, 0]), np.array([0, 1])), prof, "average")
        assert out[0, 0] == pytest.approx(faulty[0, 0] - 4.0, abs=1e-4)
        assert out[0, 1] == pytest.approx(faulty[0, 1] - 4.0, abs=1e-4)

    def test_unknown_mode(self, small_product):
        A, B, C = small_product
        prof = compute_sum_profiles(A, B, C, checksums=precompute_checksums(A, B))
        with pytest.raises(ValueError):
            correct_approx(C, np.zeros((2, 0), np.intp), prof, "median")


def _bits(M):
    return np.ascontiguousarray(M, np.float32).view(np.uint32)


def _recover_like_oracle(C, prof, thresholds):
    """Run localize, correct_exact and both correct_approx modes against the
    loop oracles; return (rows, cols, residual)."""
    with np.errstate(all="ignore"):
        loc = localize(prof, thresholds)
        want = localize_oracle(prof, thresholds)
        np.testing.assert_array_equal(loc.faulty_rows, want.faulty_rows)
        np.testing.assert_array_equal(loc.faulty_cols, want.faulty_cols)
        assert candidates(loc) == want.candidates
        assert loc.faulty_rows.dtype == loc.faulty_cols.dtype == np.intp
        fixed, residual = correct_exact(C, loc, prof)
        want_fixed, want_residual = correct_exact_oracle(C, want, prof)
        assert residual_cells(residual) == want_residual  # same cells, same row-major order
        assert all(index.dtype == np.intp for index in residual)
        np.testing.assert_array_equal(_bits(fixed), _bits(want_fixed))
        for mode in ("zero", "average"):
            np.testing.assert_array_equal(
                _bits(correct_approx(fixed, residual, prof, mode)),
                _bits(correct_approx_oracle(fixed, want_residual, prof, mode)),
            )
    return loc.faulty_rows, loc.faulty_cols, want_residual


class TestRecoveryMatchesOracle:
    @pytest.mark.parametrize("m, k, n", [
        (16, 32, 32), (16, 16, 16), (16, 32, 128), (16, 128, 32), (1, 32, 10), (3, 5, 7),
    ])
    def test_faulty_gemms(self, m, k, n):
        rng = np.random.default_rng(m * k * n)
        A = rng.uniform(-1, 1, (m, k)).astype(np.float32)
        B = rng.uniform(-1, 1, (k, n)).astype(np.float32)
        ck = precompute_checksums(A, B)
        fixed = residuals = 0
        for ber in (1e-5, 1e-4, 1e-3, 3e-3):
            for seed in range(3):
                C = faulty_gemm(A, B, plan_for(A, B, FaultConfig(ber, seed), RngStream(seed, "oracle")))
                with np.errstate(all="ignore"):
                    prof = compute_sum_profiles(A, B, C, checksums=ck)
                    rsd = np.abs(prof.rsd[np.isfinite(prof.rsd)])
                    csd = np.abs(prof.csd[np.isfinite(prof.csd)])
                relaxed = ThresholdSet(
                    0.0, float(np.median(rsd)) if rsd.size else 0.0,
                    float(np.median(csd)) if csd.size else 0.0,
                )
                for ts in (STRICT, relaxed):
                    rows, cols, residual = _recover_like_oracle(C, prof, ts)
                    fixed += len(rows) * len(cols) - len(residual)
                    residuals += len(residual)
        # a single row leaves a residual only where a column deviation is not finite
        assert fixed and (residuals or m == 1)

    def test_synthetic_profiles(self):
        """Non-finite deviations and scales, exact ties, near-matches around
        the tolerance, and every grid shape."""
        rng = np.random.default_rng(16)
        specials = [np.nan, np.inf, -np.inf]
        scales = np.array([0.5, 1.0, 300.0, np.inf, np.nan])
        offsets = np.array([0.0, 0.0, 1e-5, 1e-3, 0.02, 0.05])
        grids = set()
        for _ in range(3000):
            m, n = rng.integers(1, 7, 2)
            pool = np.concatenate([rng.normal(0.0, 10.0, 3), specials])  # shared: ties
            rsd = np.where(rng.random(m) < 0.3, 0.0, rng.choice(pool, m))
            csd = np.where(rng.random(n) < 0.3, 0.0, rng.choice(pool, n))
            csd = csd + rng.choice(offsets, n) * rng.choice([-1.0, 1.0], n)
            prof = SumProfiles(
                rsd=rsd, csd=csd,
                row_scale=rng.choice(scales, m, p=[0.3, 0.3, 0.2, 0.1, 0.1]),
                col_scale=rng.choice(scales, n, p=[0.3, 0.3, 0.2, 0.1, 0.1]),
            )
            C = rng.normal(0.0, 1.0, (m, n)).astype(np.float32)
            C[rng.random((m, n)) < 0.1] = rng.choice(specials)
            thr = float(rng.choice([0.0, 1.0, 8.0]))
            rows, cols, _ = _recover_like_oracle(C, prof, ThresholdSet(0.0, thr, thr))
            grids.add((min(len(rows), 2), min(len(cols), 2)))
        # empty, 1x1, 1xn, mx1 and mxn grids all occurred
        assert {(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)} <= grids


_L_SHAPE = [(0, 0), (0, 1), (1, 0)]


class TestProtectGemm:
    def test_ber_zero_costs_n(self):
        rng = np.random.default_rng(8)
        n = 16
        A = rng.uniform(-1, 1, (n, n)).astype(np.float32)
        B = rng.uniform(-1, 1, (n, n)).astype(np.float32)
        c = OpCounter()
        # (a forward plans no node at BER 0, so it seeds no generator there:
        # test_a_faulty_forward_builds_each_stream_and_generator_once)
        plan = plan_for(A, B, FaultConfig(0.0, 1), RngStream(1))
        C, det, rep = protect_gemm(A, B, plan, strategy_from_name("baseline"), ThresholdSet(), c)
        assert not det.triggered
        assert c.abft_mults == n
        np.testing.assert_array_equal(C, gemm(A, B))

    def test_forced_single_fault_restored(self, monkeypatch):
        rng = np.random.default_rng(9)
        n = 12
        A = rng.uniform(-1, 1, (n, n)).astype(np.float32)
        B = rng.uniform(-1, 1, (n, n)).astype(np.float32)
        clean = gemm(A, B)
        c = OpCounter()
        tamper_faulty_gemm(monkeypatch, lambda M: inject_single(M, 3, 5, 40.0))
        plan = plan_for(A, B, FaultConfig(0.0, 2), RngStream(2))
        C, det, rep = protect_gemm(A, B, plan, strategy_from_name("baseline"), ThresholdSet(), c)
        assert det.triggered
        assert rep.exact_corrected == 1
        assert c.abft_mults == n + 2 * n * n
        np.testing.assert_allclose(C, clean, atol=1e-3)

    def test_uncorrectable_pattern_zeroed_under_opt(self, monkeypatch):
        rng = np.random.default_rng(10)
        A = rng.uniform(-1, 1, (6, 6)).astype(np.float32)
        B = rng.uniform(-1, 1, (6, 6)).astype(np.float32)

        def tamper(M):
            for (r, c), d in zip([(0, 0), (0, 1), (1, 0)], [50.0, 30.0, 20.0]):
                M = inject_single(M, r, c, d)
            return M

        tamper_faulty_gemm(monkeypatch, tamper)
        plan = plan_for(A, B, FaultConfig(0.0, 3), RngStream(3))
        C, det, rep = protect_gemm(A, B, plan, strategy_from_name("opt"), ThresholdSet())
        assert rep.exact_corrected == 0 and rep.approx_corrected == 4
        assert rep.ignored == 0
        for r, c in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert C[r, c] == 0.0

    def test_bec_ignores_residual(self, monkeypatch):
        rng = np.random.default_rng(11)
        A = rng.uniform(-1, 1, (6, 6)).astype(np.float32)
        B = rng.uniform(-1, 1, (6, 6)).astype(np.float32)

        def tamper(M):
            for (r, c), d in zip([(0, 0), (0, 1), (1, 0)], [50.0, 30.0, 20.0]):
                M = inject_single(M, r, c, d)
            return M

        tamper_faulty_gemm(monkeypatch, tamper)
        plan = plan_for(A, B, FaultConfig(0.0, 4), RngStream(4))
        C, det, rep = protect_gemm(A, B, plan, strategy_from_name("baseline"), ThresholdSet())
        assert rep.ignored == 4 and rep.approx_corrected == 0

    @pytest.mark.parametrize("m, k, n", [(3, 5, 7), (16, 16, 16)])
    @pytest.mark.parametrize("strategy, cells, exact, averaged", [
        ("baseline", [], 0, 0),
        ("baseline", [(1, 2)], 1, 0),
        ("opt-avg", _L_SHAPE, 0, 4),
        ("opt", _L_SHAPE, 0, 0),
    ], ids=["untriggered", "baseline-exact-fix", "opt-avg-l-shape", "opt-l-shape"])
    def test_op_counts(self, monkeypatch, m, k, n, strategy, cells, exact, averaged):
        rng = np.random.default_rng(15)
        A = rng.uniform(-1, 1, (m, k)).astype(np.float32)
        B = rng.uniform(-1, 1, (k, n)).astype(np.float32)

        def tamper(M):
            for (r, c), d in zip(cells, [50.0, 30.0, 20.0]):
                M = inject_single(M, r, c, d)
            return M

        tamper_faulty_gemm(monkeypatch, tamper)
        c = OpCounter()
        plan = plan_for(A, B, FaultConfig(0.0, 5), RngStream(5))
        _, det, rep = protect_gemm(A, B, plan, strategy_from_name(strategy), ThresholdSet(), c)
        assert det.triggered == bool(cells) and rep.exact_corrected == exact
        # checksums, output total, detection; on a trigger, sum profiles,
        # localization, exact fixes and averaged residuals
        mults = k
        adds = (m - 1) * k + (n - 1) * k + (k - 1) + (m * n - 1)
        comparisons = 1
        if cells:
            mults += m * k + k * n
            adds += m * (k - 1) + (k - 1) * n + m * (n - 1) + (m - 1) * n + m + n + exact + averaged
            comparisons += m + n
        assert (c.abft_mults, c.abft_adds, c.abft_comparisons) == (mults, adds, comparisons)


class TestStrategyNames:
    def test_presets_match_table(self):
        assert strategy_from_name("baseline") == AbftStrategy("BED", "BEL", "BEC")
        assert strategy_from_name("v1") == AbftStrategy("AED", "BEL", "BEC")
        assert strategy_from_name("v2") == AbftStrategy("AED", "AEL", "BEC")
        assert strategy_from_name("opt") == AbftStrategy("AED", "AEL", "AEC-zero")
        assert strategy_from_name("none") is None

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            strategy_from_name("v9")


class TestInvariantsRandomized:
    def test_no_false_positives_small_sweep(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            m, k, n = rng.integers(1, 65, 3)
            A = rng.uniform(-1, 1, (m, k)).astype(np.float32)
            B = rng.uniform(-1, 1, (k, n)).astype(np.float32)
            ck = precompute_checksums(A, B)
            assert not detect(gemm(A, B), ck).triggered

    def test_single_error_completeness(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            m, k, n = rng.integers(2, 33, 3)
            A = rng.uniform(-1, 1, (m, k)).astype(np.float32)
            B = rng.uniform(-1, 1, (k, n)).astype(np.float32)
            clean = gemm(A, B)
            r, c = rng.integers(0, m), rng.integers(0, n)
            delta = (10.0 + 100.0 * rng.random()) * (1 if rng.random() < 0.5 else -1)
            faulty = inject_single(clean, r, c, delta)
            _, det, prof, loc = _pipeline(A, B, faulty)
            assert det.triggered
            assert candidates(loc) == ((int(r), int(c)),)
            fixed, residual = correct_exact(faulty, loc, prof)
            assert residual_cells(residual) == []
            atol = 1e-4 * max(1.0, float(prof.row_scale.max()))
            assert np.abs(fixed - clean).max() <= atol

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(14)
        A = rng.uniform(-1, 1, (16, 16)).astype(np.float32)
        B = rng.uniform(-1, 1, (16, 16)).astype(np.float32)
        clean = gemm(A, B)
        faulty = inject_single(inject_single(clean, 2, 3, 20.0), 5, 7, 3.0)
        ck = precompute_checksums(A, B)
        prof = compute_sum_profiles(A, B, faulty, checksums=ck)
        prev_trig, prev_cands = None, None
        for thr in [0.0, 1.0, 5.0, 10.0, 50.0]:
            ts = ThresholdSet(thr, thr, thr)
            trig = detect(faulty, ck, ts).triggered
            cands = set(candidates(localize(prof, ts)))
            if prev_trig is not None:
                assert (not prev_trig) <= (not trig) or prev_trig >= trig
                assert cands <= prev_cands
            prev_trig, prev_cands = trig, cands
