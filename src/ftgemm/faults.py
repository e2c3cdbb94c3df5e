"""Seeded bit-flip injection into GEMM primitive-operation outputs.

Every multiply output and every accumulation-add output inside a faulty GEMM
has each of its 32 bits flipped independently with probability `ber`. Streams
are keyed by (seed, trial, sample, gemm_id) so trials can run in parallel
without changing any result.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .tensor_core import ShapeError, as_matrix

_MASK64 = (1 << 64) - 1

def _id_hash(gemm_id: str) -> int:
    return int.from_bytes(hashlib.sha256(str(gemm_id).encode()).digest()[:8], "little")


@dataclass(frozen=True)
class FaultConfig:
    ber: float
    seed: int
    scope: frozenset | None = None  # None = every GEMM is subject to injection

    def __post_init__(self):
        if not 0.0 <= self.ber <= 1.0:
            raise ValueError(f"ber must be in [0, 1], got {self.ber}")

    def in_scope(self, gemm_id: str) -> bool:
        return self.scope is None or gemm_id in self.scope

    def restricted(self, gemm_id: str) -> "FaultConfig":
        """Config as seen by one GEMM node: zero BER when out of scope."""
        if self.in_scope(gemm_id):
            return self
        return replace(self, ber=0.0)


class RngStream:
    """Deterministic keyed random stream (Philox counter-based generator)."""

    def __init__(self, seed: int, gemm_id: str = "", trial: int = 0, sample: int = 0):
        ss = np.random.SeedSequence(
            [seed & _MASK64, trial & _MASK64, sample & _MASK64, _id_hash(gemm_id)]
        )
        self.gen = np.random.Generator(np.random.Philox(ss))


@dataclass
class FaultRecord:
    """Ground truth of one faulty GEMM: which output cells took any flip."""

    error_cells: np.ndarray | None = None  # bool mask, shape (m, n)
    flips: int = 0


def _draw_positions(gen: np.random.Generator, nbits: int, count: int) -> np.ndarray:
    return gen.choice(nbits, size=count, replace=False)


def _apply_flips(arr: np.ndarray, positions: np.ndarray, cell_mask: np.ndarray | None):
    # arr must be a C-contiguous float32 array; modified in place.
    flat = positions >> 5
    bits = np.left_shift(np.uint32(1), (positions & 31).astype(np.uint32))
    view = arr.view(np.uint32).reshape(-1)
    np.bitwise_xor.at(view, flat, bits)
    if cell_mask is not None:
        cell_mask.reshape(-1)[flat] = True


def faulty_gemm(
    A,
    B,
    cfg: FaultConfig,
    stream: RngStream,
    *,
    record: FaultRecord | None = None,
) -> np.ndarray:
    """GEMM with bit flips injected into every primitive-operation output.

    With cfg.ber == 0 the result is bit-identical to gemm(). The stream
    first draws one binomial flip count per k-step class (k multiplies, then
    k-1 accumulates), then, step by step, the distinct bit positions of each
    nonzero count among the 32*m*n bits of that step's output.
    """
    A = np.ascontiguousarray(as_matrix(A))
    B = np.ascontiguousarray(as_matrix(B))
    if A.shape[1] != B.shape[0]:
        raise ShapeError(f"gemm shape mismatch: {A.shape} x {B.shape}")
    m, k = A.shape
    n = B.shape[1]
    ber = cfg.ber
    nbits = 32 * m * n
    nclasses = 2 * k - 1  # k multiply steps + (k-1) accumulate steps
    if ber > 0.0:
        counts = stream.gen.binomial(nbits, ber, size=nclasses)
    else:
        counts = np.zeros(nclasses, dtype=np.int64)

    mask = np.zeros((m, n), dtype=bool) if record is not None else None
    C = np.zeros((m, n), dtype=np.float32)
    # flips legitimately produce inf/NaN; accumulate without warnings
    with np.errstate(over="ignore", invalid="ignore"):
        _accumulate(A, B, C, counts, stream, mask, nbits, k)
    if record is not None:
        record.error_cells = mask
        record.flips = int(counts.sum())
    return C


def _accumulate(A, B, C, counts, stream, mask, nbits, k):
    for kk in range(k):
        prod = np.ascontiguousarray(A[:, kk, None] * B[kk, None, :])
        c = int(counts[kk])
        if c:
            _apply_flips(prod, _draw_positions(stream.gen, nbits, c), mask)
        C += prod
        if kk:
            ca = int(counts[k - 1 + kk])
            if ca:
                _apply_flips(C, _draw_positions(stream.gen, nbits, ca), mask)

