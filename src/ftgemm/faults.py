"""Seeded bit-flip injection into GEMM primitive-operation outputs.

Every multiply output and every accumulation-add output inside a faulty GEMM
has each of its 32 bits flipped independently with probability `ber`. Streams
are keyed by (seed, trial, sample, gemm_id) so trials can run in parallel
without changing any result.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from .tensor_core import ShapeError, as_matrix, check_real, kchain

_MASK64 = (1 << 64) - 1


@functools.lru_cache(maxsize=1024)
def _id_hash(gemm_id: str) -> int:
    return int.from_bytes(hashlib.sha256(str(gemm_id).encode()).digest()[:8], "little")


@dataclass(frozen=True)
class FaultConfig:
    ber: float
    seed: int
    scope: frozenset | None = None  # None = every GEMM is subject to injection
    # Draw memo: faulty_gemm's draws by (*stream.key, m, n, k). Give a config
    # one only where the same streams are replayed (every strategy of one
    # campaign trial, every evaluate of one search); it grows with the
    # streams drawn and lives as long as the config.
    memo: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        check_real("ber", self.ber, 0.0, 1.0)

    def restricted(self, gemm_id: str) -> "FaultConfig":
        """Config as seen by one GEMM node: zero BER when out of scope."""
        if self.scope is None or gemm_id in self.scope:
            return self
        return replace(self, ber=0.0)


class RngStream:
    """Deterministic keyed random stream (Philox counter-based generator).

    Only the key is computed up front. The generator `gen` is built on first
    use, so a stream that never draws (a node at BER 0) never seeds one.
    """

    def __init__(self, seed: int, gemm_id: str = "", trial: int = 0, sample: int = 0):
        self.key = [seed & _MASK64, trial & _MASK64, sample & _MASK64, _id_hash(gemm_id)]

    @functools.cached_property
    def gen(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(self.key)))


@dataclass
class FaultRecord:
    """Ground truth of one faulty GEMM: which output cells took any flip."""

    error_cells: np.ndarray | None = None  # bool mask, shape (m, n)
    flips: int = 0


@functools.lru_cache(maxsize=64)
def _class_order(k: int) -> np.ndarray:
    """The classes of _draw_flips in step order (read-only; shared by calls)."""
    order = np.zeros(2 * k - 1, dtype=np.intp)
    order[1::2] = np.arange(1, k)
    order[2::2] = np.arange(k, 2 * k - 1)
    order.flags.writeable = False
    return order


def _draw_flips(gen: np.random.Generator, ber: float, nbits: int, k: int):
    """(class, bit position) of every flip of one faulty GEMM, or None.

    Classes 0..k-1 are the multiply steps and k..2k-2 the accumulate steps
    1..k-1. The stream gives one binomial count per class, then the distinct
    positions of each nonzero class in step order: multiply 0, multiply 1,
    accumulate 1, multiply 2, accumulate 2, ...
    """
    counts = gen.binomial(nbits, ber, size=2 * k - 1)
    if not np.count_nonzero(counts):  # the common case at low BER
        return None
    order = _class_order(k)
    classes = order[counts[order] > 0]
    positions = np.concatenate(
        [gen.choice(nbits, size=int(counts[c]), replace=False) for c in classes]
    )
    return np.repeat(classes, counts[classes]), positions


def faulty_gemm(
    A,
    B,
    cfg: FaultConfig,
    stream: RngStream,
    *,
    record: FaultRecord | None = None,
) -> np.ndarray:
    """GEMM with bit flips injected into every primitive-operation output.

    Cell (i, j) is gemm()'s k-chain with flips: for kk ascending, acc = acc
    + (A[i, kk] * B[kk, j] ^ multiply flips of step kk), then, from kk = 1,
    acc ^= accumulate flips of step kk. Where acc and the product are both
    NaN, the sum keeps acc's NaN. With cfg.ber == 0 the result is
    bit-identical to gemm(), and the stream is not used, so it never builds
    its generator.

    The stream draws what a step-by-step injector draws, in the same order
    (see _draw_flips), but all up front, since no draw depends on a value.
    kchain computes the clean product and hands over the products of the
    cells that took a flip; only those cells are replayed (see _replay).
    """
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape[1] != B.shape[0]:
        raise ShapeError(f"gemm shape mismatch: {A.shape} x {B.shape}")
    m, k = A.shape
    n = B.shape[1]
    drawn = _flips(cfg, stream, m, n, k) if cfg.ber > 0.0 else None
    cells = np.zeros(m * n, dtype=bool)
    # flips legitimately produce inf/NaN; accumulate without warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if drawn is None:
            C = kchain(A, B)[0]
        else:
            classes, positions = drawn
            cell = positions >> 5
            cells[cell] = True
            faulty = np.flatnonzero(cells)
            C, P = kchain(A, B, faulty)
            C.reshape(-1)[faulty] = _replay(P, faulty, cell, classes, positions, k)
    if record is not None:
        record.error_cells = cells.reshape(m, n)
        record.flips = 0 if drawn is None else len(drawn[1])
    return C


def _flips(cfg: FaultConfig, stream: RngStream, m: int, n: int, k: int):
    """The stream's _draw_flips for an (m, k) x (k, n) GEMM, drawn once per
    key when cfg has a memo; memoized draws are read-only."""
    if cfg.memo is None:
        return _draw_flips(stream.gen, cfg.ber, 32 * m * n, k)
    key = (*stream.key, m, n, k)
    if key not in cfg.memo:
        drawn = _draw_flips(stream.gen, cfg.ber, 32 * m * n, k)
        for array in drawn or ():
            array.flags.writeable = False
        cfg.memo[key] = drawn
    return cfg.memo[key]


def _replay(P, faulty, cell, classes, positions, k):
    """Final sums of the flipped k-chains of the cells `faulty`, given their
    clean products P (one column per cell; modified in place).

    Multiply flips are xor-ed into P, and np.add.accumulate sums the columns
    from +0.0. It adds in order, and where both operands are NaN it keeps
    the running sum's. Accumulate flips cut a chain into segments; every
    round r then sums, for each chain, the segment after its r-th flipped
    step, starting from the xor-ed sum at that step.
    """
    nf = faulty.size
    slot = np.zeros(cell.max() + 1, dtype=np.intp)
    slot[faulty] = np.arange(nf)
    col = slot[cell]
    step = np.where(classes < k, classes, classes - (k - 1))
    bits = np.left_shift(np.uint32(1), (positions & 31).astype(np.uint32))
    is_acc = classes >= k

    mul = ~is_acc
    np.bitwise_xor.at(P.view(np.uint32), (step[mul], col[mul]), bits[mul])
    P[0] += np.float32(0.0)  # each chain starts at +0.0
    if not is_acc.any():
        return np.add.accumulate(P, axis=0, out=P)[-1]
    # one event per (cell, step) with accumulate flips, in chain order
    key = col[is_acc] * k + step[is_acc]
    order = np.argsort(key)
    key, acc_bits = key[order], bits[is_acc][order]
    new_key = np.ones(key.size, dtype=bool)
    new_key[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(new_key)
    xor = np.bitwise_xor.reduceat(acc_bits, starts)
    cols, steps = np.divmod(key[starts], k)  # ordered by cell, then step
    first = np.ones(cols.size, dtype=bool)
    first[1:] = cols[1:] != cols[:-1]
    # a segment ends at its cell's next flipped step, or at the last step
    ends = np.full(cols.size, k - 1)
    ends[:-1][~first[1:]] = steps[1:][~first[1:]]
    index = np.arange(cols.size)
    rank = index - np.maximum.accumulate(np.where(first, index, 0))
    cum = np.add.accumulate(P, axis=0)
    out = cum[-1].copy()
    out[cols[first]] = cum[steps[first], cols[first]]
    del cum  # not needed by the rounds
    flat = P.reshape(-1)
    for r in range(rank.max() + 1):
        at = rank == r
        c, s, length = cols[at], steps[at], ends[at] - steps[at]
        # rows past a chain's end (clipped at the last product) are not read
        Q = flat.take(s * nf + c + np.arange(0, (length.max() + 1) * nf, nf)[:, None], mode="clip")
        Q[0] = (out[c].view(np.uint32) ^ xor[at]).view(np.float32)
        out[c] = np.add.accumulate(Q, axis=0, out=Q)[length, np.arange(c.size)]
    return out
