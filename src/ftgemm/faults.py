"""Seeded bit-flip injection into GEMM primitive-operation outputs.

Every multiply output and every accumulation-add output inside a faulty GEMM
has each of its 32 bits flipped independently with probability `ber`. Streams
are keyed by (seed, trial, sample, gemm_id) so trials can run in parallel
without changing any result. A stream draws one binomial flip count per
k-step class, then each flipped class's bit positions: the values that
choice(nbits, count, replace=False) draws, drawn for all classes of a GEMM
in one Generator.integers call.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field, replace
from typing import NamedTuple

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
    # Draw memo: faulty_gemm's ReplayPlans (None for no flip) by (*stream.key,
    # m, n, k), so each stream is drawn and planned once. Give a config one
    # only where the same streams are replayed (every strategy of one campaign
    # trial, every evaluate of one search); it grows with the streams drawn
    # and lives as long as the config.
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

    error_cells: np.ndarray | None = None  # bool mask, shape (m, n); may be read-only
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
    accumulate 1, multiply 2, accumulate 2, ... A class's positions are the
    values that choice(nbits, count, replace=False) draws, as a set, and one
    integers call draws them for all classes with the bounds of choice's
    draws (numpy 2.4.6; test_one_call_draws_what_choice_draws is the gate).
    choice runs Floyd's algorithm if nbits <= 10000 or count <= nbits // 50:
    count picks bounded by j = nbits-count..nbits-1, where a pick that
    repeats one of its class takes j, then a shuffle of the picks with swaps
    bounded by i = count-1..1. Otherwise it takes the last count slots of a
    Fisher-Yates shuffle of arange(nbits), with swaps bounded by i =
    nbits-1..nbits-count. A bound of 0 draws nothing.
    """
    counts = gen.binomial(nbits, ber, size=2 * k - 1)
    if not np.count_nonzero(counts):  # the common case at low BER
        return None
    order = _class_order(k)
    classes = order[counts[order] > 0]
    s = counts[classes]  # flips per flipped class
    tail = (s > nbits // 50) & (nbits > 10000)
    size = np.where(tail, s, 2 * s - 1)  # draws per class
    cls = np.repeat(np.arange(s.size), size)
    t = np.arange(cls.size) - (np.cumsum(size) - size)[cls]  # draw t of its class
    sc = s[cls]
    picks = t < sc
    # exclusive bounds: Floyd's picks, then its shuffle's swaps (whose values
    # are dropped: a class's positions are read as a set); or the tail's swaps
    highs = np.where(picks, np.where(tail[cls], nbits - t, nbits + 1 - sc + t), 2 * sc - t)
    positions = gen.integers(0, highs)[picks]
    # Floyd's picks are the draws unless two draws of a class are equal (its
    # first repeat can only be of a draw); such a class, and a tail one,
    # runs choice's own loop
    cls = cls[picks]
    redo = tail.copy()
    if s.max() > 1:
        key = np.sort(cls * nbits + positions)
        redo[key[1:][key[1:] == key[:-1]] // nbits] = True
    for c in np.flatnonzero(redo):
        at = cls == c
        positions[at] = _picks(positions[at].tolist(), nbits, bool(tail[c]))
    return classes[cls], positions


def _picks(draws: list, nbits: int, tail: bool) -> list:
    """The positions choice(nbits, len(draws), replace=False) takes from its
    draws (see _draw_flips)."""
    if tail:  # swap slot i with slot v; slot i is then final
        out, moved = [], {}
        for i, v in zip(range(nbits - 1, -1, -1), draws):
            out.append(moved.get(v, v))
            moved[v] = moved.get(i, i)
        return out
    picked = set()
    for j, v in zip(range(nbits - len(draws), nbits), draws):
        picked.add(j if v in picked else v)  # no earlier pick can be j
    return list(picked)


class ReplayPlan(NamedTuple):
    """The index work of replaying one draw of flips, done once (see _plan).

    It reads no value, so one plan serves every GEMM of its shape that
    replays the same draw; its arrays are read-only. P is the C-ordered
    (k, faulty.size) array of the flipped cells' products, one column per
    cell, and a flat index into it is step * faulty.size + column.
    """

    cells: np.ndarray  # bool (m, n): the cells that took any flip
    flips: int
    k: int
    faulty: np.ndarray  # their flat output indices i*n + j, ascending
    rows: np.ndarray  # i of each
    cols: np.ndarray  # j of each
    mul_at: np.ndarray  # flat index into P of each multiply flip
    mul_bits: np.ndarray  # its bit, as a uint32 word
    # per round: (columns, gather base, stride offsets, xor words, last rows)
    rounds: tuple

    def sums(self, P: np.ndarray) -> np.ndarray:
        """Final sums of the flipped k-chains, given their clean products P
        (modified in place).

        Multiply flips are xor-ed into P, and np.add.accumulate sums the
        columns from +0.0. It adds in order, and where both operands are NaN
        it keeps the running sum's. Accumulate flips cut a chain into
        segments; round r sums, for each chain, the segment after its r-th
        flipped step, starting from the xor-ed sum at that step.

        ValueError unless P is a C-ordered float32 (k, faulty.size) array:
        the flips are xor-ed into a flat view of P, which any other layout
        would turn into a copy that is then dropped.
        """
        if P.dtype != np.float32 or P.shape != (self.k, self.faulty.size) or not P.flags.c_contiguous:
            raise ValueError(f"P must be C-ordered float32 {(self.k, self.faulty.size)}, got {P.dtype} {P.shape}")
        np.bitwise_xor.at(P.view(np.uint32).reshape(-1), self.mul_at, self.mul_bits)
        P[0] += np.float32(0.0)  # each chain starts at +0.0
        if not self.rounds:
            return np.add.accumulate(P, axis=0, out=P)[-1]
        cum = np.add.accumulate(P, axis=0)
        out = cum[-1].copy()
        cols, base = self.rounds[0][:2]  # each chain's first flipped step
        out[cols] = cum.reshape(-1)[base]
        del cum  # not needed by the rounds
        flat = P.reshape(-1)
        for cols, base, offsets, xor, last in self.rounds:
            # rows past a chain's end (clipped at the last product) are not read
            Q = flat.take(base + offsets, mode="clip")
            Q[0] = (out[cols].view(np.uint32) ^ xor).view(np.float32)
            out[cols] = np.add.accumulate(Q, axis=0, out=Q).reshape(-1)[last]
        return out


def _read_only(*arrays):
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _plan(gen: np.random.Generator, ber: float, m: int, n: int, k: int) -> ReplayPlan | None:
    """The ReplayPlan of gen's flips (_draw_flips) in an (m, k) x (k, n) GEMM,
    or None if it draws none."""
    drawn = _draw_flips(gen, ber, 32 * m * n, k)
    if drawn is None:
        return None
    classes, positions = drawn
    cell = positions >> 5
    cells = np.zeros(m * n, dtype=bool)
    cells[cell] = True
    faulty = np.flatnonzero(cells)
    nf = faulty.size
    slot = np.zeros(m * n, dtype=np.intp)
    slot[faulty] = np.arange(nf)
    col = slot[cell]
    is_acc = classes >= k
    step = np.where(is_acc, classes - (k - 1), classes)
    bits = np.left_shift(np.uint32(1), (positions & 31).astype(np.uint32))
    mul = ~is_acc
    rounds = _rounds(col[is_acc], step[is_acc], bits[is_acc], nf, k) if is_acc.any() else ()
    cells, faulty, rows, cols, mul_at, mul_bits = _read_only(
        cells.reshape(m, n), faulty, *np.divmod(faulty, n), step[mul] * nf + col[mul], bits[mul])
    return ReplayPlan(cells, len(positions), k, faulty, rows, cols, mul_at, mul_bits, rounds)


def _rounds(col, step, bits, nf: int, k: int) -> tuple:
    """ReplayPlan.rounds for the accumulate flips (column, step, bit) of a
    draw whose flipped cells are nf columns of P."""
    # one event per (cell, step), in chain order
    key = col * k + step
    order = np.argsort(key)
    key = key[order]
    new_key = np.ones(key.size, dtype=bool)
    new_key[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(new_key)
    xor = np.bitwise_xor.reduceat(bits[order], starts)
    cols, steps = np.divmod(key[starts], k)  # ordered by cell, then step
    first = np.ones(cols.size, dtype=bool)
    first[1:] = cols[1:] != cols[:-1]
    # a segment ends at its cell's next flipped step, or at the last step
    ends = np.full(cols.size, k - 1)
    ends[:-1][~first[1:]] = steps[1:][~first[1:]]
    index = np.arange(cols.size)
    rank = index - np.maximum.accumulate(np.where(first, index, 0))
    rounds = []
    for r in range(rank.max() + 1):  # round r: the r-th event of each chain
        at = rank == r
        c, s, length = cols[at], steps[at], ends[at] - steps[at]
        offsets = np.arange(0, (length.max() + 1) * nf, nf)[:, None]
        last = length * c.size + np.arange(c.size)
        rounds.append(_read_only(c, s * nf + c, offsets, xor[at], last))
    return tuple(rounds)


def faulty_gemm(
    A,
    B,
    cfg: FaultConfig,
    stream: RngStream,
    *,
    record: FaultRecord | None = None,
    clean: np.ndarray | None = None,
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
    The draw becomes a ReplayPlan; kchain computes the clean product, and
    only the cells that took a flip are replayed, from their products. A
    record's error_cells is the plan's read-only mask.

    `clean`, when given, must be gemm(A, B) and stands in for kchain: it is
    returned itself if the stream draws no flip, and otherwise copied
    before the flipped cells are replayed into it.
    """
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape[1] != B.shape[0]:
        raise ShapeError(f"gemm shape mismatch: {A.shape} x {B.shape}")
    m, k = A.shape
    n = B.shape[1]
    plan = _replay_plan(cfg, stream, m, n, k) if cfg.ber > 0.0 else None
    if record is not None:
        if plan is None:
            record.error_cells, record.flips = np.zeros((m, n), dtype=bool), 0
        else:
            record.error_cells, record.flips = plan.cells, plan.flips
    if plan is None and clean is not None:
        return clean
    # flips legitimately produce inf/NaN; accumulate without warnings
    with np.errstate(over="ignore", invalid="ignore"):
        C = kchain(A, B) if clean is None else clean.copy()
        if plan is not None:
            # the flipped cells' products, bit for bit as kchain summed them.
            # sums needs them C-ordered; the fancy-indexed factors are
            # F-ordered, and copying their product is faster than writing it
            # C-ordered (order="C").
            P = np.ascontiguousarray(A.T[:, plan.rows] * B[:, plan.cols])
            C.reshape(-1)[plan.faulty] = plan.sums(P)
    return C


def _replay_plan(cfg: FaultConfig, stream: RngStream, m: int, n: int, k: int):
    """The ReplayPlan of the stream's draw for an (m, k) x (k, n) GEMM, or
    None for no flip; drawn and planned once per key when cfg has a memo."""
    if cfg.memo is None:
        return _plan(stream.gen, cfg.ber, m, n, k)
    key = (*stream.key, m, n, k)
    if key not in cfg.memo:
        cfg.memo[key] = _plan(stream.gen, cfg.ber, m, n, k)
    return cfg.memo[key]
