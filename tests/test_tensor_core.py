import numpy as np
import pytest

from conftest import gemm_oracle
from ftgemm.tensor_core import (
    ShapeError,
    gelu,
    gemm,
    layernorm_rows,
    softmax_rows,
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


def test_activation_nan_propagates():
    X = np.array([[np.nan, 1.0, 2.0]], np.float32)
    assert np.isnan(softmax_rows(X)).any()
    assert np.isnan(gelu(X)).any()

