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


@pytest.mark.parametrize("seed", range(5))
def test_gemm_matches_triple_loop_bit_exactly(seed):
    rng = np.random.default_rng(seed)
    m, k, n = rng.integers(1, 12, size=3)
    A = rng.uniform(-1, 1, (m, k)).astype(np.float32)
    B = rng.uniform(-1, 1, (k, n)).astype(np.float32)
    np.testing.assert_array_equal(gemm(A, B), gemm_oracle(A, B))


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

