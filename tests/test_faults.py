import numpy as np
import pytest

from conftest import dense_faulty_gemm, inject_single
from ftgemm.faults import (
    FaultConfig,
    FaultRecord,
    RngStream,
    faulty_gemm,
)
from ftgemm.tensor_core import gemm


def test_stream_determinism_and_key_separation():
    def draws(gemm_id):
        return RngStream(9, gemm_id, trial=3, sample=1).gen.random(8).tolist()

    assert draws("layer0.attn.q") == draws("layer0.attn.q")
    assert draws("layer0.attn.q") != draws("layer0.attn.k")


def test_faulty_gemm_ber_zero_bit_identical():
    rng = np.random.default_rng(0)
    A = rng.uniform(-1, 1, (5, 7)).astype(np.float32)
    B = rng.uniform(-1, 1, (7, 4)).astype(np.float32)
    out = faulty_gemm(A, B, FaultConfig(0.0, 123), RngStream(123))
    np.testing.assert_array_equal(out.view(np.uint32), gemm(A, B).view(np.uint32))


def test_faulty_gemm_seed_determinism():
    rng = np.random.default_rng(1)
    A = rng.uniform(-1, 1, (8, 8)).astype(np.float32)
    B = rng.uniform(-1, 1, (8, 8)).astype(np.float32)
    cfg = FaultConfig(0.01, 77)
    out1 = faulty_gemm(A, B, cfg, RngStream(77, "g", 2, 3))
    out2 = faulty_gemm(A, B, cfg, RngStream(77, "g", 2, 3))
    np.testing.assert_array_equal(out1.view(np.uint32), out2.view(np.uint32))


class _OneFlipGen:
    """Stand-in generator: one flip in the first multiply step, at `position`."""

    def __init__(self, position):
        self.position = position

    def binomial(self, n, p, size):
        counts = np.zeros(size, dtype=np.int64)
        counts[0] = 1
        return counts

    def choice(self, n, size, replace):
        return np.array([self.position])


def test_faulty_gemm_single_forced_mantissa_flip():
    rng = np.random.default_rng(2)
    A = rng.uniform(0.5, 1, (2, 2)).astype(np.float32)
    B = rng.uniform(0.5, 1, (2, 2)).astype(np.float32)
    clean = gemm(A, B)
    stream = RngStream(0)
    stream.gen = _OneFlipGen(1 * 32 + 10)  # bit 10 of cell (0, 1) in step 0's product
    rec = FaultRecord()
    out = faulty_gemm(A, B, FaultConfig(0.5, 0), stream, record=rec)
    diff = out != clean
    assert diff.sum() == 1 and diff[0, 1]
    assert rec.error_cells[0, 1] and rec.error_cells.sum() == 1
    assert rec.flips == 1


def test_faulty_gemm_flip_count_statistics():
    # every multiply and accumulate output bit flips with probability ber
    m = k = n = 8
    ber, calls = 1e-3, 200
    rng = np.random.default_rng(4)
    A = rng.uniform(-1, 1, (m, k)).astype(np.float32)
    B = rng.uniform(-1, 1, (k, n)).astype(np.float32)
    flips = 0
    for t in range(calls):
        rec = FaultRecord()
        faulty_gemm(A, B, FaultConfig(ber, 5), RngStream(5, "g", trial=t), record=rec)
        flips += rec.flips
    draws = 32 * m * n * (2 * k - 1) * calls
    assert abs(flips - draws * ber) <= 3 * np.sqrt(draws * ber * (1 - ber))


def test_faulty_gemm_record_tracks_cells():
    rng = np.random.default_rng(3)
    A = rng.uniform(-1, 1, (6, 6)).astype(np.float32)
    B = rng.uniform(-1, 1, (6, 6)).astype(np.float32)
    cfg = FaultConfig(0.002, 5)
    rec = FaultRecord()
    faulty_gemm(A, B, cfg, RngStream(5), record=rec)
    _, mask, flips = dense_faulty_gemm(A, B, cfg, RngStream(5))
    np.testing.assert_array_equal(rec.error_cells, mask)
    assert rec.flips == flips > 0


# the model's five GEMM shapes, then odd, tiny and single-column ones
@pytest.mark.parametrize("shape", [
    (16, 32, 32), (16, 16, 16), (16, 32, 128), (16, 128, 32), (1, 32, 10),
    (3, 5, 7), (2, 2, 2), (4, 40, 1), (1, 40, 1),
])
def test_faulty_gemm_matches_dense_injector(shape):
    m, k, n = shape
    rng = np.random.default_rng(m * 10007 + k * 101 + n)
    for case in range(40):
        A = (rng.standard_normal((m, k)) * 10.0 ** rng.uniform(-3, 3)).astype(np.float32)
        B = (rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-3, 3)).astype(np.float32)
        A[rng.random((m, k)) < 0.1] = -0.0
        B[rng.random((k, n)) < 0.1] = -0.0
        A[rng.random(m) < 0.2] = -0.0  # rows of signed-zero chains
        cfg = FaultConfig(10.0 ** rng.uniform(-6, np.log10(3e-2)), case)
        rec = FaultRecord()
        out = faulty_gemm(A, B, cfg, RngStream(case, "g", 1, 2), record=rec)
        want, mask, flips = dense_faulty_gemm(A, B, cfg, RngStream(case, "g", 1, 2))
        np.testing.assert_array_equal(out.view(np.uint32), want.view(np.uint32))
        np.testing.assert_array_equal(rec.error_cells, mask)
        assert rec.flips == flips


def test_inject_single():
    C = np.array([[19.0, 22.0], [43.0, 50.0]], np.float32)
    out = inject_single(C, 0, 1, 8.0)
    np.testing.assert_array_equal(out, [[19, 30], [43, 50]])
    np.testing.assert_array_equal(inject_single(C, 1, 0, 0.0), C)
    a = inject_single(inject_single(C, 0, 0, 2.0), 1, 1, -3.0)
    b = inject_single(inject_single(C, 1, 1, -3.0), 0, 0, 2.0)
    np.testing.assert_array_equal(a, b)
    with pytest.raises(IndexError):
        inject_single(C, 2, 0, 1.0)


def test_fault_config_validation_and_scope():
    with pytest.raises(ValueError):
        FaultConfig(-0.1, 0)
    cfg = FaultConfig(0.5, 0, scope=frozenset({"a"}))
    assert cfg.in_scope("a") and not cfg.in_scope("b")
    assert cfg.restricted("b").ber == 0.0
    assert cfg.restricted("a").ber == 0.5
    assert FaultConfig(0.5, 0).in_scope("anything")
