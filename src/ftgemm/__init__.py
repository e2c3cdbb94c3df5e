"""Checksum-protected GEMM with approximate detection/localization/correction
and a seeded soft-error fault-injection campaign around a toy transformer."""

from .abft import (
    AbftStrategy,
    Checksums,
    CorrectionReport,
    DetectionReport,
    Localization,
    SumProfiles,
    ThresholdSet,
    correct_approx,
    correct_exact,
    detect,
    compute_sum_profiles,
    localize,
    precompute_checksums,
    protect_gemm,
    strategy_from_name,
)
from .faults import FaultConfig, FaultRecord, RngStream, faulty_gemm
from .tensor_core import GemmShape, OpCounter, gemm
from .thresholds import (
    AlphaAssignment,
    DeviationProfile,
    SearchConfig,
    alpha_to_threshold,
    binary_search_global_alpha,
    greedy_gemmwise_search,
)
from .workload import (
    Dataset,
    GemmNode,
    Model,
    ModelConfig,
    build_model,
    evaluate,
    forward,
    generate_dataset,
)

__version__ = "0.1.0"
