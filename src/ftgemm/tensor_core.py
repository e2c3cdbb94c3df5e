"""Dense single-precision matrix kernels and the operation-count tally.

All values are float32; checksum-style reductions accumulate in float64 so
that round-off stays far below injected fault magnitudes.

GEMM has one kernel, kchain, which gemm and faults.faulty_gemm share. Each
output cell is a k-chain: acc = +0.0, then acc = acc + A[i, kk] * B[kk, j]
for kk ascending, every product and sum rounded to float32, so results are
reproducible and equal a naive triple-loop oracle bit for bit. kchain writes
the products of a k-chunk into a bounded buffer and has numpy add its rows
in order (sum_rows); the summed axis is never the contiguous one, along
which numpy would sum pairwise.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class ShapeError(ValueError):
    """Operand dimensions are incompatible."""


class ConfigError(ValueError):
    """An invalid config value, from a config file, a flag or a config type's
    field. Every config type raises it through check_int and check_real."""


def check_int(name: str, value, minimum: int | None = None) -> None:
    """ConfigError unless value is an integer (not a bool), >= minimum if given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value!r}")


def check_real(name: str, value, lo: float = -math.inf, hi: float = math.inf) -> float:
    """value as a float; ConfigError unless it is a real number (not a bool or
    a string) that a float holds finitely, in [lo, hi]."""
    real = not isinstance(value, bool) and isinstance(value, numbers.Real)
    # math.isfinite overflows on an int beyond float range; an int compares exactly
    if isinstance(value, numbers.Integral):
        real = real and abs(value) <= sys.float_info.max
    if not (real and math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if not lo <= value <= hi:
        raise ConfigError(f"{name} must lie in [{lo}, {hi}], got {value!r}")
    return float(value)


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


def sum_rows(P: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The rows of a C-ordered 2-D float32 array summed in order (into out, if
    given) as a scalar loop sums them, which keeps the running sum's NaN,
    quieted, where both addends are NaN. np.add.reduce sums a single column
    (the contiguous axis) pairwise and keeps the later NaN in some lanes, so
    one column, and a NaN sum whose first NaN is in neither row 0 nor row 1,
    are summed by the sequential np.add.accumulate."""
    if P.shape[1] == 1:
        out = np.empty(1, dtype=P.dtype) if out is None else out
        out[0] = np.add.accumulate(P[:, 0])[-1]
        return out
    out = np.add.reduce(P, axis=0, out=out)
    nan = np.isnan(out)
    if np.count_nonzero(nan):  # faster than nan.any()
        # no sum before row 0 or row 1 is NaN, so the sum keeps the first NaN of the two
        head = np.where(np.isnan(P[0]), P[0], P[:2][-1])
        lead = np.isnan(head)
        np.copyto(out.view(np.uint32), head.view(np.uint32) | np.uint32(0x400000), where=lead)
        nan &= ~lead
        if np.count_nonzero(nan):
            out[nan] = np.add.accumulate(P[:, nan], axis=0)[-1]
    return out


def kchain(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B for float32 matrices of matching shapes. Each output cell is
    summed from +0.0 in k-ascending order, bit for bit as a scalar loop.

    The products of a k-chunk fill rows 1.. of a C-ordered (chunk + 1, m*n)
    buffer whose row 0 carries the running sum, and sum_rows adds its rows
    in order. einsum computes each product once, as np.multiply does; only
    the sign of a zero product (which no sum from +0.0 keeps) and the NaN
    kept of two NaN factors may differ.
    """
    m, k = A.shape
    n = B.shape[1]
    cells = m * n
    acc = np.zeros(cells, dtype=np.float32)
    if cells == 0:
        return acc.reshape(m, n)
    chunk = max(1, min(k, _CHUNK_ELEMS // cells))
    buf = np.empty((chunk + 1, cells), dtype=np.float32)
    for k0 in range(0, k, chunk):
        c = min(chunk, k - k0)
        buf[0] = acc
        np.einsum("ik,kj->kij", A[:, k0:k0 + c], B[k0:k0 + c], out=buf[1:c + 1].reshape(c, m, n))
        sum_rows(buf[:c + 1], out=acc)
    return acc.reshape(m, n)


def gemm(A, B) -> np.ndarray:
    """C = A @ B with float32 accumulation in k-ascending order (kchain)."""
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape[1] != B.shape[0]:
        raise ShapeError(f"gemm shape mismatch: {A.shape} x {B.shape}")
    return kchain(A, B)


def softmax_rows(X) -> np.ndarray:
    X = as_matrix(X)
    e = X - X.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True)
    return e


_GELU_C = np.float32(math.sqrt(2.0 / math.pi))


def gelu(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float32)
    inner = _GELU_C * (X + np.float32(0.044715) * X * X * X)
    return (np.float32(0.5) * X * (np.float32(1.0) + np.tanh(inner))).astype(np.float32)


def layernorm_rows(X) -> np.ndarray:
    X = as_matrix(X)
    # Dividing by the row length in float32 gives the same float32 as
    # ndarray.mean, whose float64 division rounds twice (53 >= 2 * 24 + 2 bits).
    n = np.float32(X.shape[1])
    d = X - np.add.reduce(X, axis=1, keepdims=True) / n
    var = np.add.reduce(d * d, axis=1, keepdims=True) / n
    var += np.float32(1e-6)
    d /= np.sqrt(var, out=var)
    # + 0.0 turns -0.0 into +0.0, and a bit flip in a product of -0.0
    # gives a different value than one in a product of +0.0.
    d += np.float32(0.0)
    return d
