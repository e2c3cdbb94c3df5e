"""Checksum-based fault tolerance for GEMM: detection, localization,
exact correction, and the approximate (threshold-relaxed) variants.

Sign convention: deviation = predicted - actual, so exact correction is
literally adding the deviation to the faulty element. All deviation
comparisons use absolute values. Checksum arithmetic runs in float64 and is
itself fault-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .faults import FaultRecord, ReplayPlan, faulty_gemm
from .tensor_core import ConfigError, OpCounter, ShapeError, as_matrix

# Relative tolerance absorbing float32 round-off: a deviation only counts as
# a fault when it exceeds REL_EPS times the absolute-value accumulation
# magnitude of the predicted quantity (never less than REL_EPS itself).
REL_EPS = 1e-4


def fp_floor(scale):
    """REL_EPS * max(1, |scale|), elementwise for an array of scales."""
    return REL_EPS * np.maximum(1.0, np.abs(scale))


@dataclass(frozen=True)
class AbftStrategy:
    detection: str  # BED | AED
    localization: str  # BEL | AEL
    correction: str  # BEC | AEC-zero | AEC-average


STRATEGY_PRESETS = {
    "baseline": AbftStrategy("BED", "BEL", "BEC"),
    "v1": AbftStrategy("AED", "BEL", "BEC"),
    "v2": AbftStrategy("AED", "AEL", "BEC"),
    "opt": AbftStrategy("AED", "AEL", "AEC-zero"),
    "opt-avg": AbftStrategy("AED", "AEL", "AEC-average"),
}


def strategy_from_name(name: str) -> AbftStrategy | None:
    """Map a strategy name to a preset; "none" means no protection."""
    if name == "none":
        return None
    try:
        return STRATEGY_PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown strategy {name!r}; expected one of "
            f"{['none', *STRATEGY_PRESETS]}"
        ) from None


@dataclass(frozen=True)
class ThresholdSet:
    """Calibrated approximation thresholds; the float32 round-off floor is
    applied on top of these at every comparison, so ThresholdSet() is the
    strict (classical ABFT) setting."""

    detect_threshold: float = 0.0
    row_threshold: float = 0.0
    col_threshold: float = 0.0


STRICT = ThresholdSet()


@dataclass
class Checksums:
    a_colsum: np.ndarray  # length-k column sums of the left operand
    b_rowsum: np.ndarray  # length-k row sums of the right operand
    predicted_total: float
    total_scale: float  # sum of |a_colsum| * |b_rowsum|, for the fp floor


@dataclass
class DetectionReport:
    msd: float
    threshold: float
    triggered: bool


@dataclass(frozen=True)
class CleanCheck:
    """The checks of one GEMM on clean operands, which every protected
    forward of its sample that reads them shares: the checksums, with
    a_colsum and b_rowsum read-only, the clean output's MSD and the
    round-off floor fp_floor(checksums.total_scale)."""

    checksums: Checksums
    msd: float
    floor: float


def clean_check(A, B, C) -> CleanCheck:
    """The CleanCheck of C = gemm(A, B)."""
    checksums = precompute_checksums(A, B)
    checksums.a_colsum.flags.writeable = checksums.b_rowsum.flags.writeable = False
    det = detect(C, checksums)
    return CleanCheck(checksums, det.msd, fp_floor(checksums.total_scale))


@dataclass
class SumProfiles:
    rsd: np.ndarray
    csd: np.ndarray
    row_scale: np.ndarray
    col_scale: np.ndarray


@dataclass
class Localization:
    faulty_rows: tuple  # ascending Python ints
    faulty_cols: tuple


@dataclass
class CorrectionReport:
    exact_corrected: int = 0
    approx_corrected: int = 0
    ignored: int = 0


def precompute_checksums(A, B) -> Checksums:
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape[1] != B.shape[0]:
        raise ShapeError(f"checksum shape mismatch: {A.shape} x {B.shape}")
    a_colsum = A.sum(axis=0, dtype=np.float64)
    b_rowsum = B.sum(axis=1, dtype=np.float64)
    predicted_total = float(a_colsum @ b_rowsum)
    total_scale = float(np.abs(a_colsum) @ np.abs(b_rowsum))
    return Checksums(a_colsum, b_rowsum, predicted_total, total_scale)


def detect(C, checksums: Checksums, thresholds: ThresholdSet = STRICT) -> DetectionReport:
    C = as_matrix(C)
    actual = float(C.sum(dtype=np.float64))
    msd = abs(checksums.predicted_total - actual)
    return _judge(msd, thresholds, fp_floor(checksums.total_scale))


def _judge(msd: float, thresholds: ThresholdSet, floor) -> DetectionReport:
    threshold = max(thresholds.detect_threshold, floor)
    triggered = (not math.isfinite(msd)) or msd > threshold
    return DetectionReport(msd=msd, threshold=threshold, triggered=triggered)


def compute_sum_profiles(A, B, C, *, checksums: Checksums) -> SumProfiles:
    A = as_matrix(A)
    B = as_matrix(B)
    C = as_matrix(C)
    if C.shape != (A.shape[0], B.shape[1]):
        raise ShapeError(f"output shape {C.shape} inconsistent with {A.shape} x {B.shape}")
    predicted_row = A.astype(np.float64) @ checksums.b_rowsum
    predicted_col = checksums.a_colsum @ B.astype(np.float64)
    row_scale = np.abs(A).astype(np.float64) @ np.abs(checksums.b_rowsum)
    col_scale = np.abs(checksums.a_colsum) @ np.abs(B).astype(np.float64)
    actual_row = C.sum(axis=1, dtype=np.float64)
    actual_col = C.sum(axis=0, dtype=np.float64)
    return SumProfiles(
        rsd=predicted_row - actual_row,
        csd=predicted_col - actual_col,
        row_scale=row_scale,
        col_scale=col_scale,
    )


def localize(profiles: SumProfiles, thresholds: ThresholdSet = STRICT) -> Localization:
    row_thr = np.maximum(thresholds.row_threshold, fp_floor(profiles.row_scale))
    col_thr = np.maximum(thresholds.col_threshold, fp_floor(profiles.col_scale))
    bad_rows = (~np.isfinite(profiles.rsd)) | (np.abs(profiles.rsd) > row_thr)
    bad_cols = (~np.isfinite(profiles.csd)) | (np.abs(profiles.csd) > col_thr)
    return Localization(
        faulty_rows=tuple(np.flatnonzero(bad_rows).tolist()),
        faulty_cols=tuple(np.flatnonzero(bad_cols).tolist()),
    )


def correct_exact(C, localization: Localization, profiles: SumProfiles):
    """Single-pass exact correction; returns (corrected matrix, residual).

    A candidate that is the unique candidate in its row is corrected with the
    row deviation; a candidate unique in its column with the column deviation.
    When neither applies, a candidate (r, c) is still exactly correctable if
    rsd[r] and csd[c] agree (both checksums see the same single error) and
    that agreement is unambiguous within its row and column. Everything else
    is returned as residual: the index arrays (rows, cols) of its cells, in
    the row-major order of the faulty_rows x faulty_cols candidate grid.
    """
    C2 = as_matrix(C).copy()
    rows = np.array(localization.faulty_rows, dtype=np.intp)
    cols = np.array(localization.faulty_cols, dtype=np.intp)
    r = np.repeat(rows, cols.size)  # the candidate grid, row-major
    c = np.tile(cols, rows.size)
    if cols.size == 1:
        dev = profiles.rsd[r]
        fix = np.isfinite(dev)
    elif rows.size == 1:
        dev = profiles.csd[c]
        fix = np.isfinite(dev)
    else:
        # Cross-match row vs column deviations. The finiteness terms matter:
        # an infinite scale gives an infinite tolerance, and |inf - x| <= inf.
        dev = profiles.rsd[r]
        cv = profiles.csd[c]
        tol = np.maximum(fp_floor(profiles.row_scale[r]), fp_floor(profiles.col_scale[c]))
        match = np.isfinite(dev) & np.isfinite(cv) & (np.abs(dev - cv) <= tol)
        grid = match.reshape(rows.size, cols.size)
        fix = match & ((grid.sum(axis=1) == 1)[:, None] & (grid.sum(axis=0) == 1)).ravel()
    C2[r[fix], c[fix]] += dev[fix]  # a float64 add, rounded once to float32
    return C2, (r[~fix], c[~fix])


def correct_approx(C, residual, profiles: SumProfiles, mode: str):
    """Approximate handling of distinct residual cells (rows, cols): zero
    them out, or spread the row deviation evenly over the residual cells of
    each row (a cell whose share is not finite is left as it is)."""
    C2 = as_matrix(C).copy()
    if mode not in ("zero", "average"):
        raise ValueError(f"unknown approximate correction mode {mode!r}")
    r, c = residual
    if mode == "zero":
        C2[r, c] = np.float32(0.0)
    else:
        share = profiles.rsd[r] / np.bincount(r)[r]
        ok = np.isfinite(share)
        C2[r[ok], c[ok]] += share[ok]
    return C2


def protect_gemm(
    A,
    B,
    plan: ReplayPlan | None,
    strategy: AbftStrategy,
    thresholds: ThresholdSet,
    counter: OpCounter | None = None,
    record: FaultRecord | None = None,
    clean: np.ndarray | None = None,
    check: CleanCheck | None = None,
):
    """Run one checksum-protected GEMM with the flips of plan (faulty_gemm).

    Pipeline: checksums -> faulty GEMM -> detection; on a trigger, sum
    profiles -> localization -> exact correction -> approximate correction
    (or ignore, per strategy). The report counts the candidate grid from the
    lengths of the flagged rows and columns; the grid itself is never built.
    `clean` goes to faulty_gemm; it comes back itself only if there is no
    plan and detection did not trigger, since correction copies. `check`,
    when given, must be clean_check(A, B, clean): its checksums stand in for
    precompute_checksums, and its MSD for detect while C is `clean` itself.
    """
    checksums = precompute_checksums(A, B) if check is None else check.checksums
    C = faulty_gemm(A, B, plan, record=record, clean=clean)
    det_thresholds = thresholds if strategy.detection == "AED" else STRICT
    if check is not None and C is clean:
        det = _judge(check.msd, det_thresholds, check.floor)
    else:
        det = detect(C, checksums, det_thresholds)
    report = CorrectionReport()
    if det.triggered:
        profiles = compute_sum_profiles(A, B, C, checksums=checksums)
        loc = localize(profiles, thresholds if strategy.localization == "AEL" else STRICT)
        C, residual = correct_exact(C, loc, profiles)
        left = residual[0].size
        report.exact_corrected = len(loc.faulty_rows) * len(loc.faulty_cols) - left
        if strategy.correction == "BEC":
            report.ignored = left
        else:
            mode = "zero" if strategy.correction == "AEC-zero" else "average"
            C = correct_approx(C, residual, profiles, mode)
            report.approx_corrected = left
    if counter is not None:
        # The paper's ABFT operation counts, not numpy's work: the float64
        # magnitude sums behind the round-off floors are free.
        m, n = C.shape
        k = checksums.a_colsum.size
        counter.abft_mults += k  # checksum dot product
        counter.abft_adds += (m - 1) * k + (n - 1) * k + (k - 1)  # checksums
        counter.abft_adds += m * n - 1  # output total
        counter.abft_comparisons += 1  # detection
        if det.triggered:
            counter.abft_mults += m * k + k * n  # A @ b_rowsum, a_colsum @ B
            counter.abft_adds += (
                m * (k - 1) + (k - 1) * n  # the two matrix-vector products
                + m * (n - 1) + (m - 1) * n  # output row/column sums
                + m + n  # deviation subtractions
                + report.exact_corrected  # one add per exact fix
            )
            if strategy.correction == "AEC-average":
                counter.abft_adds += report.approx_corrected  # one add per averaged cell
            counter.abft_comparisons += m + n  # localization
    return C, det, report
