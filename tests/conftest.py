import numpy as np
import pytest

from ftgemm import abft
from ftgemm.faults import faulty_gemm
from ftgemm.tensor_core import as_matrix, gemm
from ftgemm.workload import ModelConfig, build_model, generate_dataset


# one "criterion N: PASS|FAIL" line per acceptance check, replayed after the
# test summary because pytest's fd capture would otherwise swallow them
acceptance_verdicts: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_verdicts:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_verdicts:
            terminalreporter.write_line(line)


def gemm_oracle(A, B):
    """Naive triple-loop float32 GEMM, k-ascending accumulation."""
    A = np.asarray(A, np.float32)
    B = np.asarray(B, np.float32)
    m, k = A.shape
    n = B.shape[1]
    C = np.zeros((m, n), np.float32)
    for i in range(m):
        for j in range(n):
            acc = np.float32(0.0)
            for kk in range(k):
                acc = np.float32(acc + np.float32(A[i, kk] * B[kk, j]))
            C[i, j] = acc
    return C


def dense_faulty_gemm(A, B, cfg, stream):
    """Step-by-step faulty GEMM: returns (C, error_cells, flips).

    Draws one binomial flip count per k-step class (k multiplies, then k-1
    accumulates), then walks the steps: each step's product and, from step 1,
    the running sum have the distinct bit positions of their class's count
    xor-ed into the 32*m*n bits of the step's output. Where the running sum
    and the product are both NaN, the new sum is the running sum's NaN,
    quieted.
    """
    A = np.ascontiguousarray(A, np.float32)
    B = np.ascontiguousarray(B, np.float32)
    m, k = A.shape
    n = B.shape[1]
    nbits = 32 * m * n
    if cfg.ber > 0.0:
        counts = stream.gen.binomial(nbits, cfg.ber, size=2 * k - 1)
    else:
        counts = np.zeros(2 * k - 1, dtype=np.int64)
    mask = np.zeros((m, n), dtype=bool)
    C = np.zeros((m, n), dtype=np.float32)

    def flip(arr, count):
        positions = stream.gen.choice(nbits, size=int(count), replace=False)
        view = arr.view(np.uint32).reshape(-1)
        np.bitwise_xor.at(view, positions >> 5, np.left_shift(np.uint32(1), (positions & 31).astype(np.uint32)))
        mask.reshape(-1)[positions >> 5] = True

    with np.errstate(over="ignore", invalid="ignore"):
        for kk in range(k):
            prod = np.ascontiguousarray(A[:, kk, None] * B[kk, None, :])
            if counts[kk]:
                flip(prod, counts[kk])
            both = np.isnan(C) & np.isnan(prod)
            kept = C.view(np.uint32)[both] | np.uint32(0x400000)
            C += prod
            C.view(np.uint32)[both] = kept
            if kk and counts[k - 1 + kk]:
                flip(C, counts[k - 1 + kk])
    return C, mask, int(counts.sum())


def inject_single(C, r: int, c: int, delta) -> np.ndarray:
    """Return a copy of C with delta added to element (r, c)."""
    C = as_matrix(C)
    m, n = C.shape
    if not (0 <= r < m and 0 <= c < n):
        raise IndexError(f"({r}, {c}) out of bounds for {C.shape}")
    out = C.copy()
    out[r, c] = np.float32(out[r, c] + np.float32(delta))
    return out


def tamper_faulty_gemm(monkeypatch, tamper):
    """Make protect_gemm see tamper(C) in place of its faulty GEMM's output C;
    the GEMM itself still runs and draws from its stream."""
    monkeypatch.setattr(abft, "faulty_gemm", lambda *a, **k: tamper(faulty_gemm(*a, **k)))


@pytest.fixture(scope="session")
def small_product():
    A = np.array([[1.0, 2.0], [3.0, 4.0]], np.float32)
    B = np.array([[5.0, 6.0], [7.0, 8.0]], np.float32)
    return A, B, gemm(A, B)


@pytest.fixture(scope="session")
def default_model():
    return build_model(ModelConfig(weight_seed=11))


@pytest.fixture(scope="session")
def small_dataset(default_model):
    return generate_dataset(default_model, 10, data_seed=23)
