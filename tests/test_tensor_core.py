import math

import numpy as np
import pytest

from conftest import gemm_oracle, layernorm_rows_oracle, softmax_rows_oracle
from ftgemm.tensor_core import (
    ConfigError,
    ShapeError,
    check_real,
    gelu,
    gemm,
    kchain,
    layernorm_rows,
    softmax_rows,
    sum_rows,
)


def test_gemm_2x2_example(small_product):
    _, _, C = small_product
    np.testing.assert_array_equal(C, np.array([[19, 22], [43, 50]], np.float32))


def test_gemm_identity():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 3)).astype(np.float32)
    np.testing.assert_array_equal(gemm(A, np.eye(3, dtype=np.float32)), A)


def test_gemm_zero_matrix():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((4, 5)).astype(np.float32)
    np.testing.assert_array_equal(gemm(A, np.zeros((5, 2), np.float32)), np.zeros((4, 2)))


def test_gemm_shape_mismatch():
    with pytest.raises(ShapeError):
        gemm(np.ones((2, 3), np.float32), np.ones((4, 2), np.float32))


def _mixed_operands(rng, m, k, n):
    """Operands with scales from 1e-3 to 1e3 and -0.0 entries."""
    A = (rng.standard_normal((m, k)) * 10.0 ** rng.uniform(-3, 3, (m, 1))).astype(np.float32)
    B = (rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-3, 3, (1, n))).astype(np.float32)
    A[rng.random((m, k)) < 0.1] = -0.0
    B[rng.random((k, n)) < 0.1] = -0.0
    return A, B


# Besides five random shapes: n == 1, m == 1 and m*n == 1 with k > 8, the
# layouts in which numpy sums k pairwise unless the kernel prevents it.
@pytest.mark.parametrize(
    "case",
    [*range(5), (1, 64, 1), (2, 64, 1), (5, 40, 1), (1, 64, 2), (1, 40, 9), (3, 70, 4)],
    ids=lambda c: str(c) if isinstance(c, int) else "x".join(map(str, c)),
)
def test_gemm_matches_triple_loop_bit_exactly(case):
    if isinstance(case, int):
        rng = np.random.default_rng(case)
        m, k, n = rng.integers(1, 12, size=3)
        A = rng.uniform(-1, 1, (m, k)).astype(np.float32)
        B = rng.uniform(-1, 1, (k, n)).astype(np.float32)
        np.testing.assert_array_equal(gemm(A, B), gemm_oracle(A, B))
        return
    rng = np.random.default_rng(sum(case))
    for _ in range(20):
        A, B = _mixed_operands(rng, *case)
        np.testing.assert_array_equal(gemm(A, B).view(np.uint32), gemm_oracle(A, B).view(np.uint32))


# the model's five GEMM shapes (16x128x32 takes four k-chunks), then odd,
# single-column and single-cell ones
@pytest.mark.parametrize("shape", [
    (16, 32, 32), (16, 16, 16), (16, 32, 128), (16, 128, 32), (1, 32, 10),
    (3, 70, 4), (5, 40, 1), (1, 40, 1),
])
def test_kchain_keeps_products_bit_for_bit(shape):
    # faulty_gemm replays flipped cells from products it computes itself, as
    # below, so kchain's sums must use exactly those products, the sign of
    # -0.0 products included
    m, k, n = shape
    rng = np.random.default_rng(m * 10007 + k * 101 + n)
    for _ in range(5):
        A, B = _mixed_operands(rng, m, k, n)
        keep = rng.choice(m * n, size=int(rng.integers(1, m * n + 1)), replace=False)
        rows, cols = np.divmod(keep, n)
        P = np.multiply(A.T[:, rows], B[:, cols], order="C")
        assert (P.view(np.uint32) == 0x80000000).any()  # -0.0 products occur
        want = np.zeros(keep.size, dtype=np.float32)
        for products in P:
            want += products
        np.testing.assert_array_equal(kchain(A, B).reshape(-1)[keep].view(np.uint32), want.view(np.uint32))


@pytest.mark.parametrize("width", [2, 3, 17, 64])
def test_numpy_reduces_outer_axis_in_order(width):
    # kchain relies on this: np.add.reduce over axis 0 of a C-ordered
    # (k, r) float32 buffer with r >= 2 adds the rows one after another
    rng = np.random.default_rng(width)
    buf = (rng.standard_normal((64, width)) * 10.0 ** rng.uniform(-3, 3, (64, width))).astype(np.float32)
    fold = buf[0].copy()
    for row in buf[1:]:
        fold = np.array([np.float32(a + b) for a, b in zip(fold, row)], dtype=np.float32)
    np.testing.assert_array_equal(np.add.reduce(buf, axis=0).view(np.uint32), fold.view(np.uint32))


# the model's five GEMM shapes, then odd, single-column and single-cell ones
@pytest.mark.parametrize("shape", [
    (16, 32, 32), (16, 16, 16), (16, 32, 128), (16, 128, 32), (1, 32, 10),
    (3, 70, 4), (5, 40, 1), (1, 40, 9), (1, 40, 1),
])
def test_gemm_matches_triple_loop_with_non_finite_operands(shape):
    m, k, n = shape
    rng = np.random.default_rng(m * 7 + k * 5 + n)
    seen = np.zeros(3, dtype=bool)  # NaN, infinite and finite outputs
    for _ in range(20):
        A, B = _mixed_operands(rng, m, k, n)
        A[rng.random(m) < 0.2] = -0.0  # rows of signed-zero chains
        for X in (A, B):
            bad = rng.random(X.shape) < 0.5 / k
            X[bad] = rng.choice([np.nan, np.inf, -np.inf], size=bad.sum())
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = gemm(A, B), gemm_oracle(A, B)
        # every value bit for bit; a NaN's sign and payload are not specified
        # (the scalar oracle's inf - inf and inf * 0 differ in sign from numpy's)
        nan = np.isnan(want)
        seen |= [nan.any(), np.isinf(want).any(), np.isfinite(want).any()]
        np.testing.assert_array_equal(np.isnan(got), nan)
        np.testing.assert_array_equal(got[~nan].view(np.uint32), want[~nan].view(np.uint32))
    assert seen.all()


def test_einsum_products_are_multiplys_but_for_signs_of_zero_and_nan_pairs():
    # kchain builds its products with einsum('ik,kj->kij'): each is one
    # float32 multiply, bit for bit np.multiply's, except that a zero
    # product may take the other sign (no k-chain from +0.0 keeps -0.0) and
    # that of two NaN factors it may keep the other's NaN
    rng = np.random.default_rng(17)
    for m, k, n in [(16, 32, 32), (16, 128, 32), (1, 32, 10), (3, 70, 4), (5, 40, 1)]:
        A, B = _mixed_operands(rng, m, k, n)
        A[rng.random(m) < 0.2] = -0.0
        for X in (A, B):
            bad = rng.random(X.shape) < 0.2
            X[bad] = rng.choice([np.nan, -np.nan, np.inf, -np.inf], size=bad.sum())
            nan = rng.random(X.shape) < 0.1  # NaNs of any sign and payload
            sign = rng.integers(0, 2, nan.sum()) << 31
            X.view(np.uint32)[nan] = rng.integers(0, 1 << 22, nan.sum()) | 0x7F800001 | sign
        with np.errstate(invalid="ignore", over="ignore"):
            got = np.einsum("ik,kj->kij", A, B)
            want = np.multiply(A.T[:, :, None], B[:, None, :])
        both_nan = np.isnan(A.T[:, :, None]) & np.isnan(B[:, None, :])
        zero = want == 0
        assert zero.any() and both_nan.any()
        same = got.view(np.uint32) == want.view(np.uint32)
        assert (same | zero | both_nan).all()
        assert (got[zero] == 0).all() and np.isnan(got[both_nan]).all()


@pytest.mark.parametrize("width", [1, 2, 17])
def test_sum_rows_adds_the_rows_in_order(width):
    # one column too, which np.add.reduce would sum pairwise
    rng = np.random.default_rng(width)
    P = (rng.standard_normal((64, width)) * 10.0 ** rng.uniform(-3, 3, (64, width))).astype(np.float32)
    fold = P[0].copy()
    for row in P[1:]:
        fold = np.array([np.float32(a + b) for a, b in zip(fold, row)], dtype=np.float32)
    out = np.empty(width, dtype=np.float32)
    assert sum_rows(P, out=out) is out
    for got in (out, sum_rows(P)):
        np.testing.assert_array_equal(got.view(np.uint32), fold.view(np.uint32))


def test_numpy_accumulate_keeps_the_running_sums_nan():
    # faulty_gemm's replay relies on this: where both operands of an add in
    # np.add.accumulate are NaN, the result is the running sum's NaN, quieted
    running = np.array([0x7FC00001, 0x7F800011, 0xFFC00003, 0x7F800005] * 5, dtype=np.uint32)
    nxt = np.array([0x7FC00002, 0x7FC00002, 0x7F800012, 0xFF800014] * 5, dtype=np.uint32)
    for width in (1, 2, 17, 20):
        buf = np.stack([running[:width], nxt[:width]]).view(np.float32)
        with np.errstate(invalid="ignore"):
            out = np.add.accumulate(buf, axis=0)[1].view(np.uint32)
        np.testing.assert_array_equal(out, running[:width] | np.uint32(0x400000))


def test_gemm_bilinearity():
    rng = np.random.default_rng(7)
    A = rng.uniform(-1, 1, (8, 8)).astype(np.float32)
    B1 = rng.uniform(-1, 1, (8, 8)).astype(np.float32)
    B2 = rng.uniform(-1, 1, (8, 8)).astype(np.float32)
    lhs = gemm(A, (B1 + B2).astype(np.float32))
    rhs = gemm(A, B1) + gemm(A, B2)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-4, atol=1e-5)


def test_softmax_constant_row():
    out = softmax_rows(np.full((1, 4), 3.25, np.float32))
    np.testing.assert_allclose(out, 0.25, atol=1e-7)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    X = rng.uniform(-5, 5, (6, 9)).astype(np.float32)
    out = softmax_rows(X)
    assert (out >= 0).all()
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)


def test_gelu_zero():
    assert gelu(np.zeros((1, 1), np.float32))[0, 0] == 0.0


def test_layernorm_row_stats():
    row = np.array([[1.0, 2.0, 3.0]], np.float32)
    out = layernorm_rows(row)
    assert abs(out.mean()) < 1e-5
    assert abs(out.var() - 1.0) < 1e-5


def test_layernorm_turns_negative_zero_positive():
    # column 0 is -7.5e29 / inf = -0.0 before the final + 0.0
    with np.errstate(over="ignore"):
        out = layernorm_rows(np.array([[-1.0, 1e30, 1e30, 1e30]], np.float32))
    assert out[0, 0] == 0.0 and not np.signbit(out[0, 0])


@pytest.mark.parametrize("n", [1, 2, 16, 32, 33, 128])
def test_row_kernels_match_oracle_bit_for_bit(n):
    rng = np.random.default_rng(n)
    special = np.array([np.inf, -np.inf, np.nan, -0.0, 1e30, -1e30, 3e30], np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(40):
            m = int(rng.integers(1, 17))
            X = (rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3, 3, (m, 1))).astype(np.float32)
            X[rng.random(m) < 0.2] *= np.float32(1e30)
            X[rng.random(m) < 0.1] = -0.0
            mask = rng.random((m, n)) < 0.1
            X[mask] = rng.choice(special, int(mask.sum()))
            for kernel, oracle in ((softmax_rows, softmax_rows_oracle), (layernorm_rows, layernorm_rows_oracle)):
                np.testing.assert_array_equal(kernel(X).view(np.uint32), oracle(X).view(np.uint32))
            out = layernorm_rows(X)
            assert not (np.signbit(out) & (out == 0)).any()


def test_activation_nan_propagates():
    X = np.array([[np.nan, 1.0, 2.0]], np.float32)
    assert np.isnan(softmax_rows(X)).any()
    assert np.isnan(gelu(X)).any()


def test_check_real_returns_a_float_or_raises_config_error():
    assert issubclass(ConfigError, ValueError)
    assert check_real("x", 0) == 0.0 and type(check_real("x", 0)) is float
    assert check_real("x", np.float32(0.5), 0.0, 1.0) == 0.5
    for bad in (True, "0.5", None, [0.5], math.nan, math.inf, -math.inf, 10**400, 1.5, -0.1):
        with pytest.raises(ConfigError):
            check_real("x", bad, 0.0, 1.0)
