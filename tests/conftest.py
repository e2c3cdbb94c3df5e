import math
from types import SimpleNamespace

import numpy as np
import pytest

from ftgemm import abft
from ftgemm.faults import faulty_gemm, plan_streams
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


def softmax_rows_oracle(X):
    """Row softmax as written with ndarray.sum and astype copies."""
    X = np.asarray(X, np.float32)
    mx = X.max(axis=1, keepdims=True)
    e = np.exp((X - mx).astype(np.float32))
    return (e / e.sum(axis=1, keepdims=True, dtype=np.float32)).astype(np.float32)


def layernorm_rows_oracle(X):
    """Row layernorm as written with ndarray.mean, which divides a float32
    sum by an integer count in float64, and astype copies."""
    X = np.asarray(X, np.float32)
    mu = X.mean(axis=1, keepdims=True, dtype=np.float32)
    d = (X - mu).astype(np.float32)
    var = (d * d).mean(axis=1, keepdims=True, dtype=np.float32)
    return (d / np.sqrt(var + np.float32(1e-6)) + np.float32(0.0)).astype(np.float32)


def plan_arrays(plan):
    """Every array a faults.ReplayPlan holds, those of its rounds included."""
    for value in plan:
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, tuple):
            yield from plan_arrays(value)


def plan_cells(plan, C):
    """(error cells, flips) of the plan a forward's observer sees with a GEMM
    node's output C: none for a None plan."""
    return (np.zeros(C.shape, dtype=bool), 0) if plan is None else (plan.cells, plan.flips)


def plan_for(A, B, cfg, stream):
    """The plan of stream for an A x B GEMM at cfg.ber, as forward hands it
    to faulty_gemm: plan_streams(cfg, [(stream, m, n, k)])[0]."""
    (m, k), n = np.shape(A), np.shape(B)[1]
    return plan_streams(cfg, [(stream, m, n, k)])[0]


class NoGen:
    """Stand-in generator for a stream whose draws must come from a memo."""

    def __getattr__(self, name):
        raise AssertionError(f"the generator was asked for {name}")


def dense_faulty_gemm(A, B, cfg, stream):
    """Step-by-step faulty GEMM: returns (C, error_cells, flips).

    Draws one binomial flip count per k-step class (k multiplies, then k-1
    accumulates), then walks the steps: each step's product and, from step 1,
    the running sum have the distinct bit positions of their class's count
    xor-ed into the 32*m*n bits of the step's output. Where the running sum
    and the product are both NaN, the new sum is the running sum's NaN,
    quieted.
    """
    A = np.ascontiguousarray(A, np.float32)
    B = np.ascontiguousarray(B, np.float32)
    m, k = A.shape
    n = B.shape[1]
    nbits = 32 * m * n
    if cfg.ber > 0.0:
        counts = stream.gen.binomial(nbits, cfg.ber, size=2 * k - 1)
    else:
        counts = np.zeros(2 * k - 1, dtype=np.int64)
    mask = np.zeros((m, n), dtype=bool)
    C = np.zeros((m, n), dtype=np.float32)

    def flip(arr, count):
        positions = stream.gen.choice(nbits, size=int(count), replace=False)
        view = arr.view(np.uint32).reshape(-1)
        np.bitwise_xor.at(view, positions >> 5, np.left_shift(np.uint32(1), (positions & 31).astype(np.uint32)))
        mask.reshape(-1)[positions >> 5] = True

    with np.errstate(over="ignore", invalid="ignore"):
        for kk in range(k):
            prod = np.ascontiguousarray(A[:, kk, None] * B[kk, None, :])
            if counts[kk]:
                flip(prod, counts[kk])
            both = np.isnan(C) & np.isnan(prod)
            kept = C.view(np.uint32)[both] | np.uint32(0x400000)
            C += prod
            C.view(np.uint32)[both] = kept
            if kk and counts[k - 1 + kk]:
                flip(C, counts[k - 1 + kk])
    return C, mask, int(counts.sum())


def residual_cells(residual):
    """The cells of a correct_exact residual (rows, cols), as (row, col) int
    tuples in order."""
    rows, cols = residual
    return list(zip(rows.tolist(), cols.tolist()))


def candidates(loc):
    """The faulty_rows x faulty_cols candidate grid of a localization, row-major."""
    return tuple((int(r), int(c)) for r in loc.faulty_rows for c in loc.faulty_cols)


def localize_oracle(profiles, thresholds=abft.STRICT):
    """Localization with the candidate grid built cell by cell as tuples."""
    row_thr = np.maximum(thresholds.row_threshold, abft.fp_floor(profiles.row_scale))
    col_thr = np.maximum(thresholds.col_threshold, abft.fp_floor(profiles.col_scale))
    bad_rows = (~np.isfinite(profiles.rsd)) | (np.abs(profiles.rsd) > row_thr)
    bad_cols = (~np.isfinite(profiles.csd)) | (np.abs(profiles.csd) > col_thr)
    rows = tuple(int(i) for i in np.flatnonzero(bad_rows))
    cols = tuple(int(j) for j in np.flatnonzero(bad_cols))
    candidates = tuple((r, c) for r in rows for c in cols)
    return SimpleNamespace(faulty_rows=rows, faulty_cols=cols, candidates=candidates)


def correct_exact_oracle(C, localization, profiles):
    """Exact correction with one branch and one per-cell loop per case."""
    C2 = as_matrix(C).copy()
    rows = localization.faulty_rows
    cols = localization.faulty_cols
    rsd, csd = profiles.rsd, profiles.csd
    residual = []
    if not rows or not cols:
        return C2, residual
    row_floor = abft.fp_floor(profiles.row_scale)
    col_floor = abft.fp_floor(profiles.col_scale)

    if len(cols) == 1:
        c = cols[0]
        for r in rows:
            if math.isfinite(rsd[r]):
                C2[r, c] = np.float32(C2[r, c] + rsd[r])
            else:
                residual.append((r, c))
        return C2, residual
    if len(rows) == 1:
        r = rows[0]
        for c in cols:
            if math.isfinite(csd[c]):
                C2[r, c] = np.float32(C2[r, c] + csd[c])
            else:
                residual.append((r, c))
        return C2, residual

    r_idx = np.array(rows)
    c_idx = np.array(cols)
    rv = rsd[r_idx]
    cv = csd[c_idx]
    tol = np.maximum(row_floor[r_idx][:, None], col_floor[c_idx][None, :])
    finite = np.isfinite(rv)[:, None] & np.isfinite(cv)[None, :]
    match = finite & (np.abs(rv[:, None] - cv[None, :]) <= tol)
    row_matches = match.sum(axis=1)
    col_matches = match.sum(axis=0)
    for a, r in enumerate(rows):
        for b, c in enumerate(cols):
            if match[a, b] and row_matches[a] == 1 and col_matches[b] == 1:
                C2[r, c] = np.float32(C2[r, c] + rsd[r])
            else:
                residual.append((r, c))
    return C2, residual


def correct_approx_oracle(C, residual_candidates, profiles, mode):
    """Approximate correction with per-row counts in a dict and a per-cell loop."""
    C2 = as_matrix(C).copy()
    if mode == "zero":
        for r, c in residual_candidates:
            C2[r, c] = np.float32(0.0)
    elif mode == "average":
        per_row = {}
        for r, _ in residual_candidates:
            per_row[r] = per_row.get(r, 0) + 1
        for r, c in residual_candidates:
            share = profiles.rsd[r] / per_row[r]
            if math.isfinite(share):
                C2[r, c] = np.float32(C2[r, c] + share)
    else:
        raise ValueError(f"unknown approximate correction mode {mode!r}")
    return C2


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
    the GEMM itself still runs and replays its plan."""
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
