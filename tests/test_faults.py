import hashlib

import numpy as np
import pytest

from conftest import NoGen, dense_faulty_gemm, inject_single, plan_arrays, plan_cells, plan_for
from ftgemm import faults
from ftgemm.faults import (
    FaultConfig,
    FaultRecord,
    ReplayPlan,
    RngStream,
    _draw_flips,
    _plan_batch,
    faulty_gemm,
)
from ftgemm.tensor_core import ShapeError, gemm
from ftgemm.workload import forward


def test_stream_determinism_and_key_separation():
    def draws(gemm_id):
        return RngStream(9, gemm_id, trial=3, sample=1).gen.random(8).tolist()

    assert draws("layer0.attn.q") == draws("layer0.attn.q")
    assert draws("layer0.attn.q") != draws("layer0.attn.k")


@pytest.mark.parametrize("seed", [0, 2**40, 2**64 - 1, -7])
def test_stream_equals_eagerly_built_generator(seed, default_model):
    # the stream's key contract: Philox seeded by SeedSequence over
    # (seed, trial, sample, first 8 bytes of sha256(gemm_id)), each mod 2**64
    mask = (1 << 64) - 1
    ids = ["", *(node.gemm_id for node in default_model.nodes)]
    for gemm_id, trial, sample in zip(ids, [0, 3, 2**32 + 5, 2**63 + 1] * 6, [2**40, 1, 0, 2**32] * 6):
        digest = int.from_bytes(hashlib.sha256(gemm_id.encode()).digest()[:8], "little")
        eager = np.random.Generator(np.random.Philox(np.random.SeedSequence(
            [seed & mask, trial & mask, sample & mask, digest])))
        lazy = RngStream(seed, gemm_id, trial, sample).gen
        np.testing.assert_array_equal(
            lazy.bit_generator.random_raw(64), eager.bit_generator.random_raw(64))


def test_faulty_gemm_ber_zero_bit_identical():
    # (a forward plans no node at BER 0, so it seeds no generator there:
    # test_a_faulty_forward_builds_each_stream_and_generator_once)
    rng = np.random.default_rng(0)
    A = rng.uniform(-1, 1, (5, 7)).astype(np.float32)
    B = rng.uniform(-1, 1, (7, 4)).astype(np.float32)
    plan = plan_for(A, B, FaultConfig(0.0, 123), RngStream(123))
    assert plan is None
    out = faulty_gemm(A, B, plan)
    np.testing.assert_array_equal(out.view(np.uint32), gemm(A, B).view(np.uint32))


def test_faulty_gemm_seed_determinism():
    rng = np.random.default_rng(1)
    A = rng.uniform(-1, 1, (8, 8)).astype(np.float32)
    B = rng.uniform(-1, 1, (8, 8)).astype(np.float32)
    cfg = FaultConfig(0.01, 77)
    out1 = faulty_gemm(A, B, plan_for(A, B, cfg, RngStream(77, "g", 2, 3)))
    out2 = faulty_gemm(A, B, plan_for(A, B, cfg, RngStream(77, "g", 2, 3)))
    np.testing.assert_array_equal(out1.view(np.uint32), out2.view(np.uint32))


class _OneFlipGen:
    """Stand-in generator: one flip in the first multiply step, at `position`."""

    def __init__(self, position):
        self.position = position

    def binomial(self, n, p, size):
        counts = np.zeros(size, dtype=np.int64)
        counts[0] = 1
        return counts

    def integers(self, low, high):
        return np.array([self.position])


def test_faulty_gemm_single_forced_mantissa_flip():
    rng = np.random.default_rng(2)
    A = rng.uniform(0.5, 1, (2, 2)).astype(np.float32)
    B = rng.uniform(0.5, 1, (2, 2)).astype(np.float32)
    clean = gemm(A, B)
    stream = RngStream(0)
    stream.gen = _OneFlipGen(1 * 32 + 10)  # bit 10 of cell (0, 1) in step 0's product
    rec = FaultRecord()
    out = faulty_gemm(A, B, plan_for(A, B, FaultConfig(0.5, 0), stream), record=rec)
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
        faulty_gemm(A, B, plan_for(A, B, FaultConfig(ber, 5), RngStream(5, "g", trial=t)), record=rec)
        flips += rec.flips
    draws = 32 * m * n * (2 * k - 1) * calls
    assert abs(flips - draws * ber) <= 3 * np.sqrt(draws * ber * (1 - ber))


def test_faulty_gemm_record_tracks_cells():
    rng = np.random.default_rng(3)
    A = rng.uniform(-1, 1, (6, 6)).astype(np.float32)
    B = rng.uniform(-1, 1, (6, 6)).astype(np.float32)
    cfg = FaultConfig(0.002, 5)
    rec = FaultRecord()
    faulty_gemm(A, B, plan_for(A, B, cfg, RngStream(5)), record=rec)
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
    # cases 40.. draw BER 1e-9 to 1e-7, where most GEMMs take no flip at all
    for case in range(60):
        A = (rng.standard_normal((m, k)) * 10.0 ** rng.uniform(-3, 3)).astype(np.float32)
        B = (rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-3, 3)).astype(np.float32)
        A[rng.random((m, k)) < 0.1] = -0.0
        B[rng.random((k, n)) < 0.1] = -0.0
        A[rng.random(m) < 0.2] = -0.0  # rows of signed-zero chains
        lo, hi = (-6, np.log10(3e-2)) if case < 40 else (-9, -7)
        cfg = FaultConfig(10.0 ** rng.uniform(lo, hi), case)
        rec = FaultRecord()
        stream, oracle_stream = RngStream(case, "g", 1, 2), RngStream(case, "g", 1, 2)
        out = faulty_gemm(A, B, plan_for(A, B, cfg, stream), record=rec)
        want, mask, flips = dense_faulty_gemm(A, B, cfg, oracle_stream)
        np.testing.assert_array_equal(out.view(np.uint32), want.view(np.uint32))
        np.testing.assert_array_equal(rec.error_cells, mask)
        assert rec.flips == flips
        # both consumed the same draws
        assert stream.gen.random() == oracle_stream.gen.random()
        if flips == 0:
            np.testing.assert_array_equal(out.view(np.uint32), gemm(A, B).view(np.uint32))
            assert not rec.error_cells.any()
        # given the clean output (read-only, as a dataset holds it), the same
        # result without a k-chain; with no flip, the clean output itself
        clean = gemm(A, B)
        clean.flags.writeable = False
        reused = faulty_gemm(A, B, plan_for(A, B, cfg, RngStream(case, "g", 1, 2)), record=rec, clean=clean)
        np.testing.assert_array_equal(reused.view(np.uint32), want.view(np.uint32))
        np.testing.assert_array_equal(rec.error_cells, mask)
        assert rec.flips == flips
        assert (reused is clean) == (flips == 0)


def _choice_draws(gen, ber, nbits, k):
    """The classes and per-class positions of _draw_flips's counts, drawn
    with one choice call per class in step order."""
    counts = gen.binomial(nbits, ber, size=2 * k - 1)
    order = [0] + [c for step in range(1, k) for c in (step, k - 1 + step)]
    return [(int(c), set(gen.choice(nbits, int(counts[c]), replace=False).tolist()))
            for c in order if counts[c]]


@pytest.mark.parametrize("nbits", [320, 8192, 16384, 65536])
@pytest.mark.parametrize("k", [32, 128])
def test_one_call_draws_what_choice_draws(nbits, k):
    # both of choice's regimes: Floyd's (with the repeat fix-up where nbits is
    # small and counts are large) and, from BER 2e-2 at nbits > 10000, the
    # tail; every stream of the test is drawn in one call
    bers = [1e-4, 1e-3, 5e-3, 2e-2, 5e-2] + ([1.0] if nbits == 320 else [])
    cases = [(ber, key) for ber in bers for key in range(3 if ber < 1e-2 else 1)]
    gens = [RngStream(key, "g", nbits, k).gen for _, key in cases]
    twins = [RngStream(key, "g", nbits, k).gen for _, key in cases]
    drawn = _draw_flips([(gen, ber, nbits, k) for gen, (ber, _) in zip(gens, cases)])
    stream, classes, positions = drawn if drawn is not None else (np.zeros(0, int),) * 3
    for i, ((ber, key), gen, twin) in enumerate(zip(cases, gens, twins)):
        want = _choice_draws(twin, ber, nbits, k)
        mine, where = classes[stream == i], positions[stream == i]
        got = [(int(c), set(where[mine == c].tolist())) for c in dict.fromkeys(mine.tolist())]
        assert got == want, (ber, key)
        assert sum(len(p) for _, p in want) == where.size
        assert repr(gen.bit_generator.state) == repr(twin.bit_generator.state)


def _assert_same_plan(got, want):
    """Two ReplayPlans (or None) with equal fields: every array of the same
    dtype, shape and values, and the same rounds."""
    if want is None:
        assert got is None
        return
    assert (got.flips, got.k, len(got.rounds)) == (want.flips, want.k, len(want.rounds))
    assert [len(r) for r in got.rounds] == [len(r) for r in want.rounds]
    arrays = list(zip(plan_arrays(got), plan_arrays(want), strict=True))
    assert len(arrays) == 6 + 5 * len(want.rounds)
    for g, w in arrays:
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        np.testing.assert_array_equal(g, w)


def test_one_batch_plans_what_one_batch_per_stream_plans(monkeypatch):
    # the model's five GEMM shapes, odd and single-column ones, from BER 1e-9
    # (no flip) to 3e-2 (choice's tail regime at nbits > 10000), and a class
    # whose Floyd picks repeat
    shapes = [(16, 32, 32), (16, 16, 16), (16, 32, 128), (16, 128, 32), (1, 32, 10), (3, 5, 7), (4, 40, 1), (1, 40, 1)]
    jobs = [(m, n, k, ber) for ber in (1e-9, 1e-6, 1e-4, 3e-3, 3e-2) for m, k, n in shapes]
    regimes = []
    picks = faults._picks
    monkeypatch.setattr(faults, "_picks", lambda draws, nbits, tail: regimes.append(tail) or picks(draws, nbits, tail))
    batch = _plan_batch([(RngStream(3, "g", i).gen, ber, m, n, k) for i, (m, n, k, ber) in enumerate(jobs)])
    assert set(regimes) == {False, True}  # a repeat class and a tail class
    assert None in batch and batch.count(None) < len(batch)
    for i, ((m, n, k, ber), plan) in enumerate(zip(jobs, batch)):
        (alone,) = _plan_batch([(RngStream(3, "g", i).gen, ber, m, n, k)])
        _assert_same_plan(plan, alone)
        if plan is not None:
            assert plan.cells.shape == (m, n) and plan.flips > 0


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


def test_fault_config_validation_and_scope(default_model, small_dataset):
    with pytest.raises(ValueError):
        FaultConfig(-0.1, 0)
    # forward plans the nodes in scope only: each other node takes no flip
    # and gives gemm's output bit for bit
    scope = frozenset(node.gemm_id for node in default_model.nodes[::3])
    seen = {}

    def observe(node, A, B, C, plan):
        seen[node.gemm_id] = (plan_cells(plan, C)[1], C.view(np.uint32).copy(), gemm(A, B).view(np.uint32))

    forward(default_model, small_dataset.inputs[0], FaultConfig(1e-4, 7, scope=scope), observer=observe)
    assert len(seen) == len(default_model.nodes) > len(scope)
    assert any(seen[gemm_id][0] > 0 for gemm_id in scope)
    for gemm_id, (flips, C, clean) in seen.items():
        if gemm_id not in scope:
            assert flips == 0
            np.testing.assert_array_equal(C, clean)


def test_faulty_gemm_rejects_another_gemms_plan():
    A, B = _operands(13, 8, 9, 7)
    plan = plan_for(A, B, FaultConfig(3e-3, 4), RngStream(4, "g"))
    assert plan is not None
    faulty_gemm(A, B, plan)
    for m, k, n in ((8, 9, 5), (7, 9, 7), (8, 10, 7)):
        with pytest.raises(ShapeError, match="plan for"):
            faulty_gemm(*_operands(14, m, k, n), plan)


def _faulty(A, B, cfg, stream, clean=None):
    rec = FaultRecord()
    C = faulty_gemm(A, B, plan_for(A, B, cfg, stream), record=rec, clean=clean)
    return C.view(np.uint32).copy(), rec.error_cells, rec.flips


def _operands(seed, m, k, n):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, (m, k)).astype(np.float32), rng.uniform(-1, 1, (k, n)).astype(np.float32)


def test_memo_hit_never_calls_the_generator():
    A, B = _operands(6, 8, 9, 7)
    cfg = FaultConfig(3e-3, 4, memo={})
    first = _faulty(A, B, cfg, RngStream(4, "g", 1, 2))
    assert first[2] > 0 and len(cfg.memo) == 1
    stream = RngStream(4, "g", 1, 2)
    stream.gen = NoGen()
    again = _faulty(A, B, cfg, stream)
    for got, want in zip(again, first):
        np.testing.assert_array_equal(got, want)


def test_memo_keys_on_the_whole_stream_key_and_the_shape():
    # every call draws what a fresh call without a memo draws
    cfg = FaultConfig(3e-3, 4, memo={})
    cases = [
        (_operands(7, 8, 9, 7), 4),
        (_operands(8, 8, 9, 5), 4),  # same stream key, another n
        (_operands(9, 8, 10, 7), 4),  # same stream key, another k
        (_operands(7, 8, 9, 7), 5),  # a stream seed that is not cfg.seed
    ]
    for (A, B), seed in cases:
        got = _faulty(A, B, cfg, RngStream(seed, "g", 1, 2))
        want = _faulty(A, B, FaultConfig(3e-3, 4), RngStream(seed, "g", 1, 2))
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
    assert len(cfg.memo) == len(cases)


def test_memoized_draws_are_read_only():
    A, B = _operands(10, 8, 9, 7)
    cfg = FaultConfig(3e-3, 4, memo={})
    faulty_gemm(A, B, plan_for(A, B, cfg, RngStream(4, "g")))
    A1, B1 = _operands(11, 1, 1, 1)
    faulty_gemm(A1, B1, plan_for(A1, B1, cfg, RngStream(4, "h")))  # 32 bits: draws no flip
    plans = [v for v in cfg.memo.values() if v is not None]
    assert len(plans) == 1 and None in cfg.memo.values()
    plan = plans[0]
    assert plan.mul_at.size and plan.rounds  # multiply and accumulate flips
    arrays = list(plan_arrays(plan))
    assert len(arrays) == 6 + 5 * len(plan.rounds)
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0


# the model's five GEMM shapes, then odd and single-column ones
@pytest.mark.parametrize("shape", [
    (16, 32, 32), (16, 16, 16), (16, 32, 128), (16, 128, 32), (1, 32, 10), (3, 5, 7), (4, 40, 1),
])
def test_one_plan_replays_any_operands(shape):
    # a plan reads no values: one memoized draw, replayed on operands of
    # every scale, signed zeros and non-finite entries, matches a fresh
    # step-by-step injection each time and is left as it was
    m, k, n = shape
    rng = np.random.default_rng(m * 7919 + k * 31 + n)
    cfg = FaultConfig(3e-3, 8, memo={})
    plan = before = None
    for case in range(6):
        A = (rng.standard_normal((m, k)) * 10.0 ** rng.uniform(-3, 3)).astype(np.float32)
        B = (rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-3, 3)).astype(np.float32)
        A[rng.random((m, k)) < 0.1] = -0.0
        B[rng.random((k, n)) < 0.1] = -0.0
        A[rng.random(m) < 0.2] = -0.0  # rows of signed-zero chains
        for X in (A, B) if case >= 3 else ():  # NaN and infinite entries
            bad = rng.random(X.shape) < 0.02
            X[bad] = rng.choice([np.nan, np.inf, -np.inf], size=bad.sum())
        want, mask, flips = dense_faulty_gemm(A, B, FaultConfig(3e-3, 8), RngStream(8, "g", 1, 2))
        with np.errstate(invalid="ignore"):
            clean_output = gemm(A, B)
        for clean in (None, clean_output):  # a k-chain, or only the flipped cells' products
            got = _faulty(A, B, cfg, RngStream(8, "g", 1, 2), clean)
            np.testing.assert_array_equal(got[0], want.view(np.uint32))
            np.testing.assert_array_equal(got[1], mask)
            assert got[2] == flips > 0
        (memoized,) = cfg.memo.values()
        if plan is None:
            plan, before = memoized, [array.tobytes() for array in plan_arrays(memoized)]
        assert memoized is plan
    assert [array.tobytes() for array in plan_arrays(plan)] == before


def test_sums_rejects_products_it_cannot_update_in_place():
    # the flips are xor-ed into a flat view of P; an F-ordered P (as
    # A.T[:, i] * B[:, j] gives) would be flattened into a copy, and its
    # multiply flips lost
    m, k, n = 8, 9, 7
    A, B = _operands(12, m, k, n)
    (plan,) = _plan_batch([(RngStream(4, "g").gen, 3e-3, m, n, k)])
    assert plan.mul_at.size and plan.faulty.size > 1
    np.testing.assert_array_equal(plan.rows * n + plan.cols, plan.faulty)
    P = A.T[:, plan.rows] * B[:, plan.cols]
    assert not P.flags.c_contiguous
    for bad in (P, P.astype(np.float64), np.ascontiguousarray(P[1:]), np.ascontiguousarray(P[:, 1:])):
        with pytest.raises(ValueError, match="C-ordered float32"):
            plan.sums(bad)
    C = gemm(A, B)
    C.reshape(-1)[plan.faulty] = plan.sums(np.ascontiguousarray(P))
    want, _, _ = dense_faulty_gemm(A, B, FaultConfig(3e-3, 4), RngStream(4, "g"))
    np.testing.assert_array_equal(C.view(np.uint32), want.view(np.uint32))


def test_sums_keeps_the_running_sums_nan_without_accumulate_flips():
    # np.add.reduce keeps the product's NaN where both addends are NaN in
    # some lanes (17 and 20 columns here); sums keeps the running sum's, as
    # the step-by-step injector does, also where no accumulate flip cuts a chain
    running = np.array([0x7FC00001, 0x7F800011, 0xFFC00003, 0x7F800005] * 5, dtype=np.uint32)
    products = np.array([0x7FC00002, 0x7FC00002, 0x7F800012, 0xFF800014] * 5, dtype=np.uint32)
    for width in (1, 2, 17, 20):
        faulty = np.arange(width)
        none = np.zeros(0, dtype=np.intp)
        plan = ReplayPlan(np.ones((1, width), dtype=bool), 0, 2, faulty, 0 * faulty, faulty, none, none, ())
        P = np.stack([running[:width], products[:width]]).view(np.float32)
        with np.errstate(invalid="ignore"):
            out = plan.sums(P)
        np.testing.assert_array_equal(out.view(np.uint32), running[:width] | np.uint32(0x400000))


def test_memo_is_off_by_default_and_not_compared():
    assert FaultConfig(1e-5, 1).memo is None
    assert FaultConfig(1e-5, 1, memo={"x": None}) == FaultConfig(1e-5, 1)
    assert "memo" not in repr(FaultConfig(1e-5, 1, memo={}))
