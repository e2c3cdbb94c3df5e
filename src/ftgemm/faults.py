"""Seeded bit-flip injection into GEMM primitive-operation outputs.

Every multiply output and every accumulation-add output inside a faulty GEMM
has each of its 32 bits flipped independently with probability `ber`. Streams
are keyed by (seed, trial, sample, gemm_id) so trials can run in parallel
without changing any result. A stream draws one binomial flip count per
k-step class, then each flipped class's bit positions: the values that
choice(nbits, count, replace=False) draws, drawn for all classes of a GEMM
in one Generator.integers call. workload.forward plans its nodes' streams in
one batch (plan_streams), and faulty_gemm replays the plan it is handed.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .tensor_core import ShapeError, as_matrix, check_real, kchain, sum_rows

_MASK64 = (1 << 64) - 1


def _words(value: int) -> tuple:
    """The uint32 words into which SeedSequence turns a key part < 2**64."""
    return (value & 0xFFFFFFFF, value >> 32) if value >> 32 else (value,)


@functools.lru_cache(maxsize=1024)
def _id_hash(gemm_id: str) -> tuple:
    """The _words of the first 8 bytes of sha256(gemm_id), read little-endian."""
    return _words(int.from_bytes(hashlib.sha256(str(gemm_id).encode()).digest()[:8], "little"))


@dataclass(frozen=True)
class FaultConfig:
    ber: float
    seed: int
    scope: frozenset | None = None  # None = every GEMM is subject to injection
    # Draw memo: plan_streams's ReplayPlans (None for no flip) by (*stream.key,
    # m, n, k), so each stream is drawn and planned once. Give a config one
    # only where the same streams are replayed (every strategy of one campaign
    # trial, every evaluate of one search); it grows with the streams drawn
    # and lives as long as the config.
    memo: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        check_real("ber", self.ber, 0.0, 1.0)


class RngStream:
    """Deterministic keyed random stream (Philox counter-based generator).

    Only the key is computed up front. The generator `gen` is built on first
    use, so a stream that never draws (a node at BER 0) never seeds one.
    """

    def __init__(self, seed: int, gemm_id: str = "", trial: int = 0, sample: int = 0):
        self.key = [seed & _MASK64, trial & _MASK64, sample & _MASK64, _id_hash(gemm_id)]

    @functools.cached_property
    def gen(self) -> np.random.Generator:
        # the words SeedSequence makes of the key's parts, without its int coercion
        words = [*_words(self.key[0]), *_words(self.key[1]), *_words(self.key[2]), *self.key[3]]
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(np.array(words, dtype=np.uint32))))


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


def _draw_flips(jobs):
    """(stream, class, position) arrays of every flip of a batch of faulty
    GEMMs, one (generator, ber, nbits, k) of jobs each, or None for no flip.

    Classes 0..k-1 are the multiply steps and k..2k-2 the accumulate steps
    1..k-1. A stream gives one binomial count per class, then the distinct
    positions of each nonzero class in step order: multiply 0, multiply 1,
    accumulate 1, multiply 2, accumulate 2, ... A class's positions are the
    values that choice(nbits, count, replace=False) draws, as a set, and one
    integers call per stream draws them for all its classes with the bounds
    of choice's draws (numpy 2.4.6; test_one_call_draws_what_choice_draws is
    the gate). choice runs Floyd's algorithm if nbits <= 10000 or count <=
    nbits // 50: count picks bounded by j = nbits-count..nbits-1, where a
    pick that repeats one of its class takes j, then a shuffle of the picks
    with swaps bounded by i = count-1..1. Otherwise it takes the last count
    slots of a Fisher-Yates shuffle of arange(nbits), with swaps bounded by
    i = nbits-1..nbits-count. A bound of 0 draws nothing.
    """
    hit, counts = [], []
    for j, (gen, ber, nbits, k) in enumerate(jobs):
        drawn = gen.binomial(nbits, ber, size=2 * k - 1)
        if np.count_nonzero(drawn):  # rare at low BER
            hit.append(j)
            counts.append(drawn[_class_order(k)])  # in step order
    if not hit:
        return None
    stream = np.repeat(hit, [c.size for c in counts])
    counts = np.concatenate(counts)
    at = counts.nonzero()[0]
    s, stream = counts[at], stream[at]  # each flipped class's flips and stream
    classes = np.concatenate([_class_order(jobs[j][3]) for j in hit])[at]
    nbits = np.array([job[2] for job in jobs])[stream]
    tail = (s > nbits // 50) & (nbits > 10000)
    size = np.where(tail, s, 2 * s - 1)  # draws per class
    cls = np.arange(s.size).repeat(size)
    stop = size.cumsum()
    t = np.arange(cls.size) - (stop - size)[cls]  # draw t of its class
    sc, nc = s[cls], nbits[cls]
    picks = t < sc
    # exclusive bounds: Floyd's picks, then its shuffle's swaps (whose values
    # are dropped: a class's positions are read as a set); or the tail's swaps
    highs = np.where(picks, np.where(tail[cls], nc - t, nc + 1 - sc + t), 2 * sc - t)
    stop = stop[stream.searchsorted(hit, side="right") - 1].tolist()  # each stream's draws end there
    positions = np.concatenate([jobs[j][0].integers(0, highs[a:b]) for j, a, b in zip(hit, [0, *stop], stop)])
    # Floyd's picks are the draws unless two draws of a class are equal (its
    # first repeat can only be of a draw); such a class, and a tail one,
    # runs choice's own loop
    positions, cls = positions[picks], cls[picks]
    redo = tail.copy()
    if s.max() > 1:
        key = np.sort(cls * (width := int(nbits.max())) + positions)
        redo[key[1:][key[1:] == key[:-1]] // width] = True
    for c in redo.nonzero()[0]:
        at = cls == c
        positions[at] = _picks(positions[at].tolist(), int(nbits[c]), bool(tail[c]))
    return stream[cls], classes[cls], positions


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
    """The index work of replaying one draw of flips, done once (_plan_batch).

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

        Multiply flips are xor-ed into P, and its columns are summed in order
        from +0.0 by sum_rows, or where chains are cut by np.add.accumulate,
        which keeps the running sum's NaN where both addends are NaN, as
        sum_rows does. Accumulate flips cut a chain into segments; round r
        sums, for each chain, the segment after its r-th flipped step,
        starting from the xor-ed sum at that step.

        ValueError unless P is a C-ordered float32 (k, faulty.size) array:
        the flips are xor-ed into a flat view of P, which any other layout
        would turn into a copy that is then dropped.
        """
        if P.dtype != np.float32 or P.shape != (self.k, self.faulty.size) or not P.flags.c_contiguous:
            raise ValueError(f"P must be C-ordered float32 {(self.k, self.faulty.size)}, got {P.dtype} {P.shape}")
        np.bitwise_xor.at(P.view(np.uint32).reshape(-1), self.mul_at, self.mul_bits)
        P[0] += np.float32(0.0)  # each chain starts at +0.0
        if not self.rounds:
            return sum_rows(P)
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


def _plan_batch(jobs) -> list:
    """The ReplayPlan of each (generator, ber, m, n, k) of jobs, its (m, k) x
    (k, n) GEMM's draw (_draw_flips), or None for no flip. The index work
    runs once for the batch; the plans' arrays are read-only views of the
    batch's, which hold only the flipped GEMMs' cells and flips."""
    plans = [None] * len(jobs)
    drawn = _draw_flips([(gen, ber, 32 * m * n, k) for gen, ber, m, n, k in jobs])
    if drawn is None:
        return plans
    gemm, classes, positions = drawn
    flips = np.bincount(gemm, minlength=len(jobs))
    m, n, k = np.array([job[2:] for job in jobs]).T
    size = m * n * (flips > 0)  # the batch's cells: each flipped GEMM's in turn
    end = size.cumsum()
    cell = (end - size)[gemm] + (positions >> 5)
    cells = np.zeros(end[-1], dtype=bool)
    cells[cell] = True
    faulty = cells.nonzero()[0]
    owner = end.searchsorted(faulty, side="right")  # each faulty cell's GEMM
    nf = np.bincount(owner, minlength=len(jobs))
    col = (cells.cumsum(dtype=np.int32) - 1)[cell] - (nf.cumsum() - nf)[gemm]  # in its GEMM's P
    faulty -= (end - size)[owner]
    rows, cols = np.divmod(faulty, n[owner])
    acc = classes >= k[gemm]
    step = classes - acc * (k[gemm] - 1)
    bits = np.left_shift(np.uint32(1), (positions & 31).astype(np.uint32))
    del drawn, cell, owner, classes, positions  # dropped before _rounds, where planning peaks in memory
    mul = ~acc
    mul_at, mul_bits = step[mul] * nf[gemm[mul]] + col[mul], bits[mul]
    rounds = _rounds(gemm[acc], col[acc], step[acc], bits[acc], nf, k)
    _read_only(cells, faulty, rows, cols, mul_at, mul_bits)
    ends = zip(end.tolist(), nf.cumsum().tolist(), np.bincount(gemm[mul], minlength=len(jobs)).cumsum().tolist())
    c0 = f0 = a0 = 0
    for j, (c1, f1, a1) in enumerate(ends):
        if c1 > c0:
            plans[j] = ReplayPlan(cells[c0:c1].reshape(jobs[j][2:4]), int(flips[j]), jobs[j][4], faulty[f0:f1],
                                  rows[f0:f1], cols[f0:f1], mul_at[a0:a1], mul_bits[a0:a1], rounds.get(j, ()))
        c0, f0, a0 = c1, f1, a1
    return plans


def _rounds(gemm, col, step, bits, nf, k) -> dict:
    """ReplayPlan.rounds, by GEMM, of a batch's accumulate flips: (GEMM,
    column of the GEMM's (k[gemm], nf[gemm]) P, step, bit) each."""
    if not gemm.size:
        return {}
    f0 = nf.cumsum() - nf
    # one event per (cell, step), in chain order; the cells are the batch's
    key = (f0[gemm] + col) * (width := int(k.max())) + step
    order = key.argsort()
    key = key[order]
    starts = np.concatenate(([0], (key[1:] != key[:-1]).nonzero()[0] + 1))
    xor = np.bitwise_xor.reduceat(bits[order], starts)
    cells, steps = np.divmod(key[starts], width)  # ordered by cell, then step
    g = gemm[order[starts]]
    later = cells[1:] == cells[:-1]  # an event after its chain's first
    ends = (k - 1)[g]  # a segment ends at its cell's next flipped step, or at the last step
    ends[:-1][later] = steps[1:][later]
    # round r of a GEMM: the r-th event of each of its chains, in cell order
    index = np.arange(cells.size)
    seg = g * cells.size + index - cells.searchsorted(cells)  # by GEMM, then the event's rank in its chain
    order = seg.argsort(kind="stable")
    seg, g, steps, length, xor = seg[order], g[order], steps[order], (ends - steps)[order], xor[order]
    cols = cells[order] - f0[g]
    bounds = np.concatenate(([0], (seg[1:] != seg[:-1]).nonzero()[0] + 1, [seg.size]))
    lo, size = bounds[:-1], bounds[1:] - bounds[:-1]
    last = length * size.repeat(size) + index - lo.repeat(size)
    base = steps * nf[g] + cols
    _read_only(cols, base, xor, last)
    rounds, nf = {}, nf.tolist()
    for gi, a, b, longest in zip(g[lo].tolist(), lo.tolist(), bounds[1:].tolist(),
                                 np.maximum.reduceat(length, lo).tolist()):
        offsets, = _read_only(np.arange(0, (longest + 1) * nf[gi], nf[gi])[:, None])
        rounds.setdefault(gi, []).append((cols[a:b], base[a:b], offsets, xor[a:b], last[a:b]))
    return {gi: tuple(r) for gi, r in rounds.items()}


def faulty_gemm(
    A,
    B,
    plan: ReplayPlan | None,
    *,  # perfbench's tracer passes record= by keyword to calls of fewer than six positional arguments
    record: FaultRecord | None = None,
    clean: np.ndarray | None = None,
) -> np.ndarray:
    """GEMM with the bit flips of plan injected into its primitive-operation
    outputs; plan is its stream's draw (plan_streams), or None for no flip.

    Cell (i, j) is gemm()'s k-chain with flips: for kk ascending, acc = acc
    + (A[i, kk] * B[kk, j] ^ multiply flips of step kk), then, from kk = 1,
    acc ^= accumulate flips of step kk. Where acc and the product are both
    NaN, the sum keeps acc's NaN. With no plan the result is bit-identical
    to gemm().

    kchain computes the clean product, and only the cells that took a flip
    are replayed, from their products. A record's error_cells is the plan's
    read-only mask. ShapeError if the plan was drawn for another shape.

    `clean`, when given, must be gemm(A, B) and stands in for kchain: it is
    returned itself if there is no plan, and otherwise copied before the
    flipped cells are replayed into it.
    """
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape[1] != B.shape[0]:
        raise ShapeError(f"gemm shape mismatch: {A.shape} x {B.shape}")
    m, k = A.shape
    n = B.shape[1]
    if plan is not None and (plan.cells.shape, plan.k) != ((m, n), k):
        raise ShapeError(f"plan for {plan.cells.shape} with k={plan.k} given a {(m, k)} x {(k, n)} GEMM")
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


def plan_streams(cfg: FaultConfig, jobs) -> list:
    """The ReplayPlan at cfg.ber, or None for no flip, of each (stream, m, n,
    k) of jobs, an (m, k) x (k, n) GEMM's stream. The streams cfg.memo lacks
    (all, without a memo) draw what a step-by-step injector draws, in the
    same order (see _draw_flips), and are planned in one batch
    (_plan_batch), into the memo."""
    memo = {} if cfg.memo is None else cfg.memo
    keys = [(*stream.key, m, n, k) for stream, m, n, k in jobs]
    todo = {key: job for key, job in zip(keys, jobs) if key not in memo}
    memo.update(zip(todo, _plan_batch([(stream.gen, cfg.ber, m, n, k) for stream, m, n, k in todo.values()])))
    return [memo[key] for key in keys]
