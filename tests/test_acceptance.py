"""End-to-end acceptance suite.

Each test prints one "criterion N: PASS|FAIL" line on the unbuffered stderr
stream so the verdicts stay visible regardless of pytest output capture.
The heavy statistical checks (criteria 7-11) share one module-scoped
accuracy sweep over BER x strategy with paired fault seeds.
"""

import json
import math
import sys
import time

import numpy as np
import pytest

import conftest
from conftest import inject_single, plan_for, tamper_faulty_gemm
from ftgemm.abft import (
    REL_EPS,
    ThresholdSet,
    compute_sum_profiles,
    correct_approx,
    correct_exact,
    detect,
    localize,
    precompute_checksums,
    protect_gemm,
    strategy_from_name,
)
from ftgemm.campaign import (
    compute_stats,
    emit,
    load_config,
    profiles_to_dict,
    run_campaign,
)
from ftgemm.faults import FaultConfig, RngStream, faulty_gemm
from ftgemm.tensor_core import OpCounter, gemm
from ftgemm.thresholds import (
    AlphaAssignment,
    SearchConfig,
    binary_search_global_alpha,
    greedy_gemmwise_search,
    profile_all,
    sample_deviations,
    thresholds_from_assignment,
)
from ftgemm.workload import (
    ModelConfig,
    build_model,
    evaluate,
    generate_dataset,
)

BASE_SEED = 7
BERS = (1e-8, 1e-7, 1e-6, 1e-5, 1e-4)

MODEL = build_model(ModelConfig(weight_seed=11))
DATASET = generate_dataset(MODEL, 100, 23)
GEMM_IDS = [n.gemm_id for n in MODEL.nodes]


def _verdict(num: int, ok: bool, detail: str):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})"
    conftest.acceptance_verdicts.append(line)
    print(line, file=sys.__stderr__, flush=True)
    assert ok, line


def _uniform_ts(detect_thr: float, rc_thr: float) -> dict:
    return {gid: ThresholdSet(detect_thr, rc_thr, rc_thr) for gid in GEMM_IDS}


def _accuracy(cfg, strategy_name, thresholds, trial):
    strat = strategy_from_name(strategy_name)
    return evaluate(MODEL, DATASET, cfg, strat, thresholds, trial=trial).accuracy


@pytest.fixture(scope="module")
def sweep():
    """Paired-seed accuracy sweep shared by the statistical criteria.

    The zero-out variant gets its detection/localization thresholds picked
    per BER from a small absolute-threshold grid on held-out trials: the
    observed deviation ranges span dozens of orders of magnitude, so
    interval-interpolated thresholds are all-or-nothing there and a direct
    grid is the honest way to calibrate this workload.

    Every run of one (ber, trial) replays the same fault streams, so each
    trial gets one FaultConfig with a draw memo, dropped after the trial.
    """
    candidates = ((0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (10.0, 10.0))
    tuned = {}
    accs = {}
    high = BERS[-1]
    for ber in BERS:
        scores = {cand: [] for cand in candidates}
        for t in range(1000, 1004):
            cfg = FaultConfig(ber, BASE_SEED, memo={})
            for cand in candidates:
                scores[cand].append(_accuracy(cfg, "opt", _uniform_ts(*cand), t))
        tuned[ber] = max((float(np.mean(s)), cand) for cand, s in scores.items())[1]

        runs = {
            "none": ("none", None),
            "baseline": ("baseline", None),
            "opt": ("opt", _uniform_ts(*tuned[ber])),
        }
        if ber == high:
            runs.update(zero=("opt", None), average=("opt-avg", None), ignore=("v2", None))
        for key in runs:
            accs[(ber, key)] = []
        for t in range(20):
            cfg = FaultConfig(ber, BASE_SEED, memo={})
            for key, (name, thresholds) in runs.items():
                accs[(ber, key)].append(_accuracy(cfg, name, thresholds, t))
    return {"accs": accs, "tuned": tuned}


def test_cost_model_exactness(monkeypatch):
    t0 = time.time()
    ok = True
    for n in (8, 16, 32, 64):
        rng = np.random.default_rng(n)
        A = rng.uniform(-1, 1, (n, n)).astype(np.float32)
        B = rng.uniform(-1, 1, (n, n)).astype(np.float32)
        cfg = FaultConfig(0.0, 1)
        strat = strategy_from_name("baseline")

        quiet = OpCounter()
        _, det, _ = protect_gemm(A, B, plan_for(A, B, cfg, RngStream(1, "c1", n)), strat, ThresholdSet(), quiet)
        ok &= not det.triggered and quiet.abft_mults == n

        loud = OpCounter()
        with monkeypatch.context() as mp:
            tamper_faulty_gemm(mp, lambda C: inject_single(C, 0, 0, 1e6))
            _, det, _ = protect_gemm(A, B, plan_for(A, B, cfg, RngStream(1, "c1", n)), strat, ThresholdSet(), loud)
        ok &= det.triggered and loud.abft_mults == n + 2 * n * n
    elapsed = time.time() - t0
    _verdict(1, ok and elapsed < 1.0, f"n+2n^2 integer equalities, {elapsed:.2f}s")


def test_single_error_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2)
    bad = 0
    for _ in range(1000):
        m, k, n = (int(v) for v in rng.integers(2, 65, 3))
        A = rng.uniform(-1, 1, (m, k)).astype(np.float32)
        B = rng.uniform(-1, 1, (k, n)).astype(np.float32)
        clean = gemm(A, B)
        r = int(rng.integers(m))
        c = int(rng.integers(n))
        delta = float(rng.choice((-1.0, 1.0)) * (1000.0 + 9000.0 * rng.random()))
        faulty = inject_single(clean, r, c, delta)

        ck = precompute_checksums(A, B)
        det = detect(faulty, ck)
        prof = compute_sum_profiles(A, B, faulty, checksums=ck)
        loc = localize(prof)
        corrected, residual = correct_exact(faulty, loc, prof)
        atol = REL_EPS * max(
            1.0, float(prof.row_scale.max()), float(prof.col_scale.max())
        )
        good = (
            det.triggered
            and loc.faulty_rows == (r,)
            and loc.faulty_cols == (c,)
            and not conftest.residual_cells(residual)
            and np.allclose(corrected, clean, atol=atol)
        )
        bad += not good
    elapsed = time.time() - t0
    _verdict(2, bad == 0 and elapsed < 30.0, f"{1000 - bad}/1000 trials, {elapsed:.1f}s")


def test_diagonal_multi_error_oracle():
    t0 = time.time()
    rng = np.random.default_rng(3)
    bad = 0
    for _ in range(500):
        m, k, n = (int(v) for v in rng.integers(4, 65, 3))
        A = rng.uniform(-1, 1, (m, k)).astype(np.float32)
        B = rng.uniform(-1, 1, (k, n)).astype(np.float32)
        clean = gemm(A, B)
        e = int(rng.integers(2, 5))
        rows = [int(v) for v in rng.permutation(m)[:e]]
        cols = [int(v) for v in rng.permutation(n)[:e]]
        faulty = clean
        # magnitudes spaced far beyond the round-off floors so the
        # cross-match between row and column deviations is unambiguous
        for i, (r, c) in enumerate(zip(rows, cols)):
            delta = float(rng.choice((-1.0, 1.0)) * (1000.0 + 150.0 * i + 50.0 * rng.random()))
            faulty = inject_single(faulty, r, c, delta)

        ck = precompute_checksums(A, B)
        prof = compute_sum_profiles(A, B, faulty, checksums=ck)
        loc = localize(prof)
        corrected, residual = correct_exact(faulty, loc, prof)
        atol = REL_EPS * max(
            1.0, float(prof.row_scale.max()), float(prof.col_scale.max())
        )
        injected = set(zip(rows, cols))
        good = (
            detect(faulty, ck).triggered
            and set(loc.faulty_rows) == set(rows)
            and set(loc.faulty_cols) == set(cols)
            and injected.isdisjoint(conftest.residual_cells(residual))
            and np.allclose(corrected, clean, atol=atol)
        )
        bad += not good
    elapsed = time.time() - t0
    _verdict(3, bad == 0 and elapsed < 30.0, f"{500 - bad}/500 trials, {elapsed:.1f}s")


def test_l_shape_pattern_zeroed(monkeypatch):
    rng = np.random.default_rng(4)
    A = rng.uniform(-1, 1, (6, 8)).astype(np.float32)
    B = rng.uniform(-1, 1, (8, 6)).astype(np.float32)
    clean = gemm(A, B)
    # two errors in row 1, two in column 1; deviations chosen so no
    # row/column pair agrees: rsd = {707, 555}, csd = {855, 407}
    faulty = inject_single(clean, 1, 1, 300.0)
    faulty = inject_single(faulty, 1, 3, 407.0)
    faulty = inject_single(faulty, 4, 1, 555.0)

    ck = precompute_checksums(A, B)
    prof = compute_sum_profiles(A, B, faulty, checksums=ck)
    loc = localize(prof)
    expected = {(1, 1), (1, 3), (4, 1), (4, 3)}
    corrected, residual = correct_exact(faulty, loc, prof)
    ok = set(conftest.candidates(loc)) == expected and set(conftest.residual_cells(residual)) == expected
    ok &= np.array_equal(corrected, faulty)  # no exact correction applied

    zeroed = correct_approx(faulty, residual, prof, "zero")
    ok &= all(zeroed[r, c] == 0.0 for r, c in expected)
    untouched = np.ones_like(clean, dtype=bool)
    for r, c in expected:
        untouched[r, c] = False
    ok &= np.array_equal(zeroed[untouched], faulty[untouched])

    # same pattern through the full protected pipeline
    def tamper(C):
        C = inject_single(C, 1, 1, 300.0)
        C = inject_single(C, 1, 3, 407.0)
        return inject_single(C, 4, 1, 555.0)

    tamper_faulty_gemm(monkeypatch, tamper)
    _, det, report = protect_gemm(
        A, B, plan_for(A, B, FaultConfig(0.0, 1), RngStream(1, "c4")), strategy_from_name("opt"), ThresholdSet(),
    )
    ok &= det.triggered and report.exact_corrected == 0 and report.approx_corrected == 4
    _verdict(4, ok, "4 candidate cells zeroed, 0 exact corrections")


def test_no_false_positives():
    t0 = time.time()
    rng = np.random.default_rng(5)
    strat = strategy_from_name("baseline")
    cfg = FaultConfig(0.0, 1)
    triggered = 0
    for i in range(10_000):
        m, k, n = (int(v) for v in rng.integers(2, 129, 3))
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        A = (scale * rng.uniform(-1, 1, (m, k))).astype(np.float32)
        B = rng.uniform(-1, 1, (k, n)).astype(np.float32)
        _, det, _ = protect_gemm(A, B, plan_for(A, B, cfg, RngStream(5, "c5", i)), strat, ThresholdSet())
        triggered += det.triggered
    elapsed = time.time() - t0
    _verdict(
        5, triggered == 0 and elapsed < 60.0,
        f"{triggered}/10000 fault-free GEMMs triggered, {elapsed:.1f}s",
    )


def test_threshold_monotonicity():
    traces = []
    for t in range(100):
        rng = np.random.default_rng(600 + t)
        A = rng.uniform(-1, 1, (24, 24)).astype(np.float32)
        B = rng.uniform(-1, 1, (24, 24)).astype(np.float32)
        C = faulty_gemm(A, B, plan_for(A, B, FaultConfig(5e-5, 6), RngStream(6, "c6", t)))
        ck = precompute_checksums(A, B)
        with np.errstate(invalid="ignore"):
            prof = compute_sum_profiles(A, B, C, checksums=ck)
            msd = abs(ck.predicted_total - float(C.sum(dtype=np.float64)))
        traces.append((C, ck, prof, msd))

    finite_msd = [t[3] for t in traces if math.isfinite(t[3])]
    rc = np.concatenate([np.concatenate([t[2].rsd, t[2].csd]) for t in traces])
    rc = np.abs(rc[np.isfinite(rc)])
    msd_lo, msd_hi = min(finite_msd), max(finite_msd)
    rc_lo, rc_hi = float(rc.min()), float(rc.max())

    alphas = [i / 8.0 for i in range(9)]
    prev_triggered = None
    prev_candidates = None
    ok = True
    for alpha in alphas:
        ts = ThresholdSet(
            detect_threshold=msd_lo + (msd_hi - msd_lo) * alpha,
            row_threshold=rc_lo + (rc_hi - rc_lo) * alpha,
            col_threshold=rc_lo + (rc_hi - rc_lo) * alpha,
        )
        with np.errstate(invalid="ignore"):
            triggered = {
                i for i, (C, ck, _, _) in enumerate(traces) if detect(C, ck, ts).triggered
            }
            candidates = [set(conftest.candidates(localize(t[2], ts))) for t in traces]
        if prev_triggered is not None:
            ok &= triggered <= prev_triggered
            ok &= all(c <= p for c, p in zip(candidates, prev_candidates))
        prev_triggered, prev_candidates = triggered, candidates
    _verdict(6, ok, f"nested sets over {len(alphas)} alphas, 100 traces")


def test_deviation_distribution_concentration(sweep):
    drop_bers = [
        ber for ber in BERS if np.mean(sweep["accs"][(ber, "none")]) < 0.99
    ]
    ber = min(drop_bers)
    arr = np.array([
        msd for _, msd, _, _ in sample_deviations(MODEL, DATASET.inputs, ber, 30, BASE_SEED)
        if math.isfinite(msd)
    ])
    cut = arr.min() + 0.1 * (arr.max() - arr.min())
    frac = float((arr <= cut).mean())
    _verdict(
        7, arr.size >= 500 and frac >= 0.6,
        f"ber={ber:g}: {frac:.1%} of {arr.size} MSD samples in lowest decile",
    )


def test_multi_error_fraction_growth():
    fractions = []
    for ber in (1e-9, 1e-8, 1e-7, 1e-6, 1e-5):
        rep = compute_stats(
            MODEL, DATASET.inputs, ber, 50, seed=BASE_SEED, gemm_selector=GEMM_IDS
        )
        fractions.append(rep.multi_error_fraction)
    inversions = sum(
        1 for a, b in zip(fractions, fractions[1:]) if b < a
    )
    pretty = ", ".join(f"{f:.3f}" for f in fractions)
    _verdict(8, inversions <= 1, f"fractions [{pretty}], {inversions} inversions")


def test_strategy_ordering(sweep):
    means = {k: float(np.mean(v)) for k, v in sweep["accs"].items()}
    ok = True
    for ber in BERS:
        ok &= means[(ber, "opt")] >= means[(ber, "baseline")] - 0.01
    high = BERS[-1]
    ok &= means[(high, "opt")] > means[(high, "baseline")]
    # protection dominance: per point at the lower BERs, in aggregate over
    # the sweep at the highest one (both floor out there)
    for ber in BERS[:-1]:
        ok &= means[(ber, "baseline")] >= means[(ber, "none")]
    ok &= np.mean([means[(b, "baseline")] for b in BERS]) > np.mean(
        [means[(b, "none")] for b in BERS]
    )
    pretty = " | ".join(
        f"{ber:g}: n={means[(ber, 'none')]:.3f} b={means[(ber, 'baseline')]:.3f} "
        f"o={means[(ber, 'opt')]:.3f}"
        for ber in BERS
    )
    _verdict(9, ok, pretty)


def test_overhead_reduction():
    t0 = time.time()
    search_ds = generate_dataset(MODEL, 40, 29)
    ber = 1e-7
    profiles = profile_all(MODEL, DATASET.inputs, ber, 40, BASE_SEED)
    scfg = SearchConfig(
        accuracy_budget=0.02, trials_per_eval=2, ber=ber,
        resolution=0.125, order="ascending_size", strategy="v1",
    )
    alpha_g, feasible = binary_search_global_alpha(
        MODEL, search_ds, scfg, profiles, BASE_SEED
    )
    greedy = greedy_gemmwise_search(MODEL, search_ds, scfg, profiles, BASE_SEED)
    ts_global = thresholds_from_assignment(
        profiles, AlphaAssignment.uniform(GEMM_IDS, alpha_g)
    )
    ts_greedy = thresholds_from_assignment(profiles, greedy)

    # the three runs of one trial replay the same fault streams: one memo per trial
    runs = {"baseline": ("baseline", None), "global": ("v1", ts_global), "gemmwise": ("v1", ts_greedy)}
    total_mults = dict.fromkeys(runs, 0)
    for t in range(10):
        cfg = FaultConfig(ber, BASE_SEED, memo={})
        for key, (name, ts) in runs.items():
            counter = OpCounter()
            evaluate(MODEL, DATASET, cfg, strategy_from_name(name), ts, counter, trial=t)
            total_mults[key] += counter.abft_mults
    base, v1_global, v1_greedy = total_mults.values()
    elapsed = time.time() - t0
    ok = feasible and alpha_g > 0 and v1_global < base and v1_greedy <= v1_global
    _verdict(
        10, ok,
        f"alpha={alpha_g:.3f}, abft_mults baseline={base} global={v1_global} "
        f"gemmwise={v1_greedy}, {elapsed:.0f}s",
    )


def test_correction_strategy_ordering(sweep):
    high = BERS[-1]
    zero = np.array(sweep["accs"][(high, "zero")])
    avg = np.array(sweep["accs"][(high, "average")])
    ign = np.array(sweep["accs"][(high, "ignore")])

    def ci(d):
        return 1.96 * d.std(ddof=1) / math.sqrt(d.size)

    d_za, d_ai = zero - avg, avg - ign
    ok = zero.mean() >= avg.mean() >= ign.mean()
    _verdict(
        11, ok,
        f"ber={high:g}: zero={zero.mean():.3f} avg={avg.mean():.3f} "
        f"ignore={ign.mean():.3f}; zero-avg={d_za.mean():.3f}+/-{ci(d_za):.3f} "
        f"avg-ignore={d_ai.mean():.3f}+/-{ci(d_ai):.3f}",
    )


def test_campaign_determinism(tmp_path):
    small_model = build_model(ModelConfig(weight_seed=11, num_layers=1))
    small_inputs = generate_dataset(small_model, 5, 23).inputs
    profiles = {1e-5: profile_all(small_model, small_inputs, 1e-5, 5, BASE_SEED)}
    raw = {
        "model": {"weight_seed": 11, "num_layers": 1},
        "dataset": {"n_samples": 5, "data_seed": 23},
        "faults": {"bers": [0.0, 1e-5], "base_seed": BASE_SEED, "trials": 2},
        "abft": {
            "strategies": ["none", "baseline", "opt"],
            "alphas": 0.0,
            "profiles": profiles_to_dict(profiles),
        },
        "output": {"results": str(tmp_path / "results.csv")},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))

    digests = []
    for i, workers in enumerate((1, 2, 2)):
        config = load_config(cfg_path)
        rows = run_campaign(config, workers=workers)
        out = tmp_path / f"run{i}.csv"
        emit(rows, "csv", out)
        digests.append(out.read_bytes())
    ok = digests[0] == digests[1] == digests[2]
    _verdict(12, ok, f"3 runs (workers 1,2,2) byte-identical: {ok}")
