"""Dense single-precision matrix kernels and the operation-count tally.

All values are float32; checksum-style reductions accumulate in float64 so
that round-off stays far below injected fault magnitudes.

GEMM has one kernel, kchain, which gemm and faults.faulty_gemm share. Each
output cell is a k-chain: acc = +0.0, then acc = acc + A[i, kk] * B[kk, j]
for kk ascending, every product and sum rounded to float32, so results are
reproducible and equal a naive triple-loop oracle bit for bit. kchain writes
the products of a k-chunk into a bounded buffer and has numpy add its rows
in order; the summed axis is never the contiguous one, along which numpy
would sum pairwise.
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


# Bound on the product buffer of kchain, in float32 elements (64 KiB).
_CHUNK_ELEMS = 1 << 14
_NO_CELLS = np.zeros(0, dtype=np.intp)


def kchain(A: np.ndarray, B: np.ndarray, keep: np.ndarray = _NO_CELLS):
    """(A @ B, P) for float32 matrices of matching shapes. Each output cell
    is summed from +0.0 in k-ascending order, bit for bit as a scalar loop;
    P is the C-ordered (k, len(keep)) array of the products of the flat
    output cells `keep` (cell i*n + j), as the sums used them.

    The products of a k-chunk fill rows 1.. of a C-ordered (chunk + 1, m*n)
    buffer whose row 0 carries the running sum. numpy reduces the outer
    axis of such a buffer one row after another, so the sum stays
    sequential. With a single cell that axis is the contiguous one, which
    numpy sums pairwise, so a single cell uses the sequential
    np.add.accumulate.
    """
    m, k = A.shape
    n = B.shape[1]
    cells = m * n
    acc = np.zeros(cells, dtype=np.float32)
    P = np.empty((k, keep.size), dtype=np.float32)
    if cells == 0:
        return acc.reshape(m, n), P
    chunk = max(1, min(k, _CHUNK_ELEMS // cells))
    buf = np.empty((chunk + 1, cells), dtype=np.float32)
    AT = A.T
    for k0 in range(0, k, chunk):
        c = min(chunk, k - k0)
        buf[0] = acc
        np.multiply(AT[k0:k0 + c, :, None], B[k0:k0 + c, None, :], out=buf[1:c + 1].reshape(c, m, n))
        if keep.size:
            np.take(buf[1:c + 1], keep, axis=1, out=P[k0:k0 + c])
        if cells == 1:
            acc[0] = np.add.accumulate(buf[:c + 1, 0])[-1]
        else:
            np.add.reduce(buf[:c + 1], axis=0, out=acc)
    return acc.reshape(m, n), P


def gemm(A, B) -> np.ndarray:
    """C = A @ B with float32 accumulation in k-ascending order (kchain)."""
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape[1] != B.shape[0]:
        raise ShapeError(f"gemm shape mismatch: {A.shape} x {B.shape}")
    return kchain(A, B)[0]


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
