"""Calibration of approximation thresholds.

Deviation ranges come from seeded fault-injection profiling; the proportion
threshold alpha maps a range [min, max] to the cut min + (max - min) * alpha.
Alpha itself is chosen either globally with a binary search or per GEMM with
a greedy pass over the GEMMs (optionally in ascending order of GEMM size),
holding the accuracy loss of each step to at most a budget. Evaluations
reuse the same trial seeds (common random numbers), so one search draws each
fault stream once (its FaultConfig's draw memo) and scores each distinct
threshold set once (see _scorer), running the held-out forwards in full,
without the dataset's clean forwards.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .abft import REL_EPS, ThresholdSet, compute_sum_profiles, detect, precompute_checksums, strategy_from_name
from .faults import FaultConfig
from .tensor_core import ConfigError, check_int, check_real
from .workload import Dataset, Model, evaluate, forward


@dataclass
class DeviationProfile:
    """One GEMM's deviation ranges at one BER over sample_count trials, and
    the profile file format: asdict() writes it, DeviationProfile(**d) reads it."""

    msd_min: float
    msd_max: float
    rcsd_min: float
    rcsd_max: float
    sample_count: int

    def __post_init__(self):
        for name in ("msd_min", "msd_max", "rcsd_min", "rcsd_max"):
            setattr(self, name, check_real(f"profile {name}", getattr(self, name)))
        check_int("profile sample_count", self.sample_count, 1)
        if self.msd_min > self.msd_max or self.rcsd_min > self.rcsd_max:
            raise ConfigError("profile min must not exceed max")


@dataclass
class AlphaAssignment:
    """Per-GEMM (alpha_detect, alpha_localize) pairs, each in [0, 1]."""

    alphas: dict[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        for gid, pair in self.alphas.items():
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise ConfigError(f"abft.alphas[{gid!r}] must be a pair of alphas, got {pair!r}")
        self.alphas = {
            gid: tuple(check_real(f"abft.alphas[{gid!r}]", a, 0.0, 1.0) for a in pair)
            for gid, pair in self.alphas.items()
        }

    @classmethod
    def uniform(cls, gemm_ids, alpha: float):
        return cls({gid: (alpha, alpha) for gid in gemm_ids})

    def to_dict(self):
        return {gid: list(pair) for gid, pair in self.alphas.items()}

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=1, sort_keys=True)


@dataclass
class SearchConfig:
    accuracy_budget: float = 0.01
    trials_per_eval: int = 10
    ber: float = 1e-6
    resolution: float = 1.0 / 64.0
    order: str = "ascending_size"  # ascending_size | inorder
    strategy: str = "opt"

    def __post_init__(self):
        self.accuracy_budget = check_real("search.accuracy_budget", self.accuracy_budget, 0.0, 1.0)
        check_int("search.trials_per_eval", self.trials_per_eval, 1)
        self.ber = check_real("search.ber", self.ber, 0.0, 1.0)
        self.resolution = check_real("search.resolution", self.resolution, 0.0)
        if self.resolution == 0.0:
            raise ConfigError("search.resolution must be > 0")
        if self.order not in ("ascending_size", "inorder"):
            raise ConfigError(f"unknown search.order {self.order!r}")
        strategy_from_name(self.strategy)


def alpha_to_threshold(profile_min: float, profile_max: float, alpha: float) -> float:
    """Threshold cutting off the lowest alpha fraction of [min, max],
    never below the float32 round-off floor."""
    check_real("alpha", alpha, 0.0, 1.0)
    if profile_min > profile_max:
        raise ValueError("profile min must not exceed max")
    return max(REL_EPS, profile_min + (profile_max - profile_min) * alpha)


def sample_deviations(model: Model, inputs, ber: float, trials: int, seed: int):
    """Checksum deviations of seeded, unprotected, faulty forwards.

    Trial t runs inputs[t % len(inputs)] as sample 0. Yields
    (node, msd, SumProfiles, ReplayPlan or None for no flip) for every GEMM
    node of every trial, holding one trial's observations at a time.
    """
    check_int("trials", trials, 1)
    cfg = FaultConfig(ber=ber, seed=seed)
    seen = []

    def obs(node, A, B, C, plan):
        ck = precompute_checksums(A, B)
        seen.append((node, detect(C, ck).msd, compute_sum_profiles(A, B, C, checksums=ck), plan))

    for t in range(trials):
        forward(model, inputs[t % len(inputs)], cfg, trial=t, observer=obs)
        yield from seen
        seen.clear()


def profile_all(model: Model, inputs, ber: float, trials: int, seed: int) -> dict[str, DeviationProfile]:
    """Empirical per-GEMM MSD and |R/CSD| ranges from sample_deviations."""
    msd_samples: dict[str, list[float]] = {n.gemm_id: [] for n in model.nodes}
    rc_samples: dict[str, list[float]] = {n.gemm_id: [] for n in model.nodes}
    for node, msd, prof, _ in sample_deviations(model, inputs, ber, trials, seed):
        if math.isfinite(msd):
            msd_samples[node.gemm_id].append(msd)
        rc = np.abs(np.concatenate([prof.rsd, prof.csd]))
        rc = rc[np.isfinite(rc)]
        if rc.size:
            rc_samples[node.gemm_id] += (float(rc.min()), float(rc.max()))

    profiles = {}
    for node in model.nodes:
        ms = msd_samples[node.gemm_id] or [0.0]
        rs = rc_samples[node.gemm_id] or [0.0]
        profiles[node.gemm_id] = DeviationProfile(
            msd_min=min(ms),
            msd_max=max(ms),
            rcsd_min=min(rs),
            rcsd_max=max(rs),
            sample_count=trials,
        )
    return profiles


def thresholds_from_assignment(
    profiles: dict[str, DeviationProfile], assignment: AlphaAssignment
) -> dict[str, ThresholdSet]:
    out = {}
    for gid, (ad, al) in assignment.alphas.items():
        p = profiles[gid]
        rc = alpha_to_threshold(p.rcsd_min, p.rcsd_max, al)
        out[gid] = ThresholdSet(
            detect_threshold=alpha_to_threshold(p.msd_min, p.msd_max, ad),
            row_threshold=rc,
            col_threshold=rc,
        )
    return out


def bisect_max_feasible(feasible, resolution: float):
    """Largest alpha in [0, 1] (to within resolution) passing `feasible`,
    assuming feasibility is monotone decreasing in alpha.

    Returns (alpha, flag); flag is False when even alpha = 0 is infeasible.
    """
    if feasible(1.0):
        return 1.0, True
    if not feasible(0.0):
        return 0.0, False
    lo, hi = 0.0, 1.0
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo, True


def _scorer(
    model: Model,
    dataset: Dataset,
    profiles: dict[str, DeviationProfile],
    cfg: SearchConfig,
    base_seed: int,
):
    """One search's score(assignment), the mean accuracy over the trials. It
    replays the same fault streams at every call and scores each distinct
    threshold set once: keyed by the thresholds evaluate sees, not by the
    alphas, which can clamp to the same set."""
    strategy = strategy_from_name(cfg.strategy)
    fault_cfg = FaultConfig(ber=cfg.ber, seed=base_seed, memo={})
    # The inputs alone: a search replays the same few fault streams at every
    # step, so reusing clean values would set its time by where they flip
    # (1.2x to 2.6x over 10 seeds), not by its size. Results are the same.
    inputs_only = Dataset(dataset.inputs, dataset.labels)
    scores = {}

    def score(assignment: AlphaAssignment) -> float:
        thresholds = thresholds_from_assignment(profiles, assignment)
        key = tuple(thresholds.items())
        if key not in scores:
            accs = [
                evaluate(model, inputs_only, fault_cfg, strategy, thresholds, trial=t).accuracy
                for t in range(cfg.trials_per_eval)
            ]
            scores[key] = float(np.mean(accs))
        return scores[key]

    return score


def binary_search_global_alpha(
    model: Model,
    dataset: Dataset,
    cfg: SearchConfig,
    profiles: dict[str, DeviationProfile],
    base_seed: int,
):
    """Largest single alpha, shared by every GEMM, whose mean accuracy loss
    against the clean accuracy (1.0 on a self-labelled dataset) is at most
    the budget. Returns (alpha, feasible)."""
    score = _scorer(model, dataset, profiles, cfg, base_seed)
    gemm_ids = [n.gemm_id for n in model.nodes]
    feasible = lambda a: score(AlphaAssignment.uniform(gemm_ids, a)) >= 1.0 - cfg.accuracy_budget  # noqa: E731
    return bisect_max_feasible(feasible, cfg.resolution)


def greedy_gemmwise_search(
    model: Model,
    dataset: Dataset,
    cfg: SearchConfig,
    profiles: dict[str, DeviationProfile],
    base_seed: int,
) -> AlphaAssignment:
    """Per-GEMM alphas: visit GEMMs (ascending m*k*n or topological order),
    maximize each GEMM's alpha while that step's accuracy loss is at most
    the budget; unvisited GEMMs stay fully protected (alpha 0). The alphas
    keep model order whatever the visit order. Each distinct threshold set
    is scored once, so after the first step a step's reference is the score
    of the assignment its previous step accepted."""
    score = _scorer(model, dataset, profiles, cfg, base_seed)
    assignment = AlphaAssignment({n.gemm_id: (0.0, 0.0) for n in model.nodes})
    nodes = model.nodes
    if cfg.order == "ascending_size":
        nodes = sorted(nodes, key=lambda n: n.shape.macs)  # stable: ties keep model order
    for node in nodes:
        gid = node.gemm_id
        reference = score(assignment)

        def feasible(alpha):
            assignment.alphas[gid] = (alpha, alpha)
            return reference - score(assignment) <= cfg.accuracy_budget

        best, _ = bisect_max_feasible(feasible, cfg.resolution)
        assignment.alphas[gid] = (best, best)
    return assignment
