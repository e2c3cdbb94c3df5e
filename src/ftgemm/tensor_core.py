"""Dense single-precision matrix kernels and the operation-count tally.

All values are float32; checksum-style reductions accumulate in float64 so
that round-off stays far below injected fault magnitudes. GEMM accumulates
in float32 with a fixed k-ascending order so results are reproducible and
comparable against a naive triple-loop oracle bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class ShapeError(ValueError):
    """Operand dimensions are incompatible."""


class GemmShape(NamedTuple):
    m: int
    k: int
    n: int

    @property
    def macs(self) -> int:
        return self.m * self.k * self.n


@dataclass
class OpCounter:
    """Tallies of primitive operations, split workload vs ABFT machinery;
    workload.forward and abft.protect_gemm charge them."""

    workload_mults: int = 0
    abft_mults: int = 0
    abft_adds: int = 0
    abft_comparisons: int = 0


def as_matrix(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float32)
    if a.ndim != 2:
        raise ShapeError(f"expected 2-D matrix, got shape {a.shape}")
    return a


def gemm(A, B) -> np.ndarray:
    """C = A @ B with float32 accumulation in k-ascending order."""
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape[1] != B.shape[0]:
        raise ShapeError(f"gemm shape mismatch: {A.shape} x {B.shape}")
    m, k = A.shape
    n = B.shape[1]
    C = np.zeros((m, n), dtype=np.float32)
    for kk in range(k):
        C += A[:, kk, None] * B[kk, None, :]
    return C


def softmax_rows(X) -> np.ndarray:
    X = as_matrix(X)
    mx = X.max(axis=1, keepdims=True)
    e = np.exp((X - mx).astype(np.float32))
    return (e / e.sum(axis=1, keepdims=True, dtype=np.float32)).astype(np.float32)


_GELU_C = np.float32(math.sqrt(2.0 / math.pi))


def gelu(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float32)
    inner = _GELU_C * (X + np.float32(0.044715) * X * X * X)
    return (np.float32(0.5) * X * (np.float32(1.0) + np.tanh(inner))).astype(np.float32)


def layernorm_rows(X) -> np.ndarray:
    X = as_matrix(X)
    mu = X.mean(axis=1, keepdims=True, dtype=np.float32)
    d = (X - mu).astype(np.float32)
    var = (d * d).mean(axis=1, keepdims=True, dtype=np.float32)
    # + 0.0 turns -0.0 into +0.0, and a bit flip in a product of -0.0
    # gives a different value than one in a product of +0.0.
    return (d / np.sqrt(var + np.float32(1e-6)) + np.float32(0.0)).astype(np.float32)
