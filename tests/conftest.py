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
