"""Campaign orchestration: BER x strategy x trial sweeps, deviation
statistics, and CSV/JSON emission. Results are deterministic for a given
config, with or without worker parallelism."""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .abft import STRATEGY_PRESETS, ThresholdSet, localize, strategy_from_name
from .faults import FaultConfig
from .tensor_core import ConfigError, OpCounter, check_int, check_real
from .thresholds import (
    AlphaAssignment,
    DeviationProfile,
    SearchConfig,
    sample_deviations,
    thresholds_from_assignment,
)
from .workload import Dataset, Model, ModelConfig, build_model, evaluate, generate_dataset

RESULT_FIELDS = (
    "ber",
    "strategy",
    "trial",
    "accuracy",
    "workload_mults",
    "abft_mults",
    "abft_adds",
    "abft_comparisons",
    "detections_triggered",
    "exact_corrected",
    "approx_corrected",
    "ignored",
)

_APPROX_STRATEGIES = tuple(
    name for name, s in STRATEGY_PRESETS.items() if s.detection == "AED" or s.localization == "AEL"
)


@dataclass
class CampaignConfig:
    model: ModelConfig
    n_samples: int
    data_seed: int
    bers: list[float]
    strategies: list[str]
    trials: int
    base_seed: int
    scope: frozenset | None = None
    # per-BER deviation profiles: {ber: {gemm_id: DeviationProfile}}
    profiles: dict[float, dict[str, DeviationProfile]] | None = None
    # None, a single global alpha, or a full per-GEMM assignment
    alphas: AlphaAssignment | float | None = None
    search: SearchConfig = field(default_factory=SearchConfig)
    output_path: str = "results.csv"
    output_format: str = "csv"

    def __post_init__(self):
        if not self.bers:
            raise ConfigError("faults.bers must be a nonempty list")
        self.bers = [check_real("faults.bers entry", ber, 0.0, 1.0) for ber in self.bers]
        if not self.strategies:
            raise ConfigError("abft.strategies must be a nonempty list")
        check_int("dataset.n_samples", self.n_samples, 1)
        check_int("dataset.data_seed", self.data_seed, 0)  # seeds default_rng
        check_int("faults.trials", self.trials, 1)
        check_int("faults.base_seed", self.base_seed)
        for name in self.strategies:
            strategy_from_name(name)
        for where, entries in (("faults.bers", self.bers), ("abft.strategies", self.strategies)):
            if len(set(entries)) != len(entries):
                raise ConfigError(f"{where} must not repeat an entry, got {entries}")
        if self.alphas is not None and not isinstance(self.alphas, AlphaAssignment):
            self.alphas = check_real("abft.alphas", self.alphas, 0.0, 1.0)
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"output.format must be csv or json, got {self.output_format!r}")
        if not isinstance(self.output_path, str):
            raise ConfigError(f"output.results must be a path string, got {self.output_path!r}")
        needs_thresholds = [s for s in self.strategies if s in _APPROX_STRATEGIES]
        if needs_thresholds:
            if self.alphas is None:
                raise ConfigError(
                    f"strategies {needs_thresholds} need abft.alphas (searched or global)"
                )
            if self.profiles is None:
                raise ConfigError(f"strategies {needs_thresholds} need abft.profiles")
            for ber in self.bers:
                if ber > 0 and ber not in self.profiles:
                    raise ConfigError(f"no deviation profiles for ber={ber!r}")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing mandatory key {where}.{key}")
    return section[key]


def config_from_dict(raw: dict) -> CampaignConfig:
    """Build a CampaignConfig from the JSON config-file structure. The config
    types check each value; a malformed shape is a ConfigError here."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    try:
        model_sec = raw.get("model", {})
        _require(model_sec, "weight_seed", "model")
        data_sec = raw.get("dataset", {})
        faults_sec = raw.get("faults", {})
        abft_sec = raw.get("abft", {})
        out_sec = raw.get("output", {})
        profiles = abft_sec.get("profiles")
        alphas = abft_sec.get("alphas")
        if isinstance(alphas, dict):
            alphas = AlphaAssignment.from_dict(alphas)
        scope = faults_sec.get("scope")
        return CampaignConfig(
            model=ModelConfig(**model_sec),
            n_samples=data_sec.get("n_samples", 100),
            data_seed=_require(data_sec, "data_seed", "dataset"),
            bers=_require(faults_sec, "bers", "faults"),
            strategies=list(_require(abft_sec, "strategies", "abft")),
            trials=faults_sec.get("trials", 1),
            base_seed=_require(faults_sec, "base_seed", "faults"),
            scope=None if scope is None else frozenset(scope),
            profiles=None if profiles is None else profiles_from_dict(profiles),
            alphas=alphas,
            search=SearchConfig(**raw.get("search", {})),
            output_path=out_sec.get("results", "results.csv"),
            output_format=out_sec.get("format", "csv"),
        )
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def load_config(path: str) -> CampaignConfig:
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return config_from_dict(raw)


def profiles_to_dict(profiles: dict[float, dict[str, DeviationProfile]]) -> dict:
    return {
        repr(ber): {gid: asdict(p) for gid, p in per_gemm.items()}
        for ber, per_gemm in profiles.items()
    }


def profiles_from_dict(d: dict) -> dict[float, dict[str, DeviationProfile]]:
    return {
        float(ber): {gid: DeviationProfile(**vals) for gid, vals in per_gemm.items()}
        for ber, per_gemm in d.items()
    }


@dataclass
class _Context:
    model: Model
    dataset: Dataset
    thresholds: dict[float, dict[str, ThresholdSet] | None]
    config: CampaignConfig


def _thresholds(config: CampaignConfig, model: Model) -> dict[float, dict[str, ThresholdSet] | None]:
    """Per-BER thresholds of the config's alphas. ConfigError unless the
    alphas name exactly the model's GEMMs and the profiles they read miss none."""
    gemm_ids = model.node_by_id.keys()  # set-like, in topological order
    thresholds = dict.fromkeys(config.bers)
    if config.alphas is None:
        return thresholds
    assignment = config.alphas
    if not isinstance(assignment, AlphaAssignment):
        assignment = AlphaAssignment.uniform(gemm_ids, assignment)
    elif assignment.alphas.keys() != gemm_ids:
        wrong = sorted(gemm_ids ^ assignment.alphas.keys())
        raise ConfigError(f"abft.alphas must name exactly the model's GEMMs; missing or unknown: {wrong}")
    for ber in thresholds.keys() & (config.profiles or {}).keys():
        thresholds[ber] = thresholds_from_assignment(profiles_at(config, model, ber), assignment)
    return thresholds


def profiles_at(config: CampaignConfig, model: Model, ber: float) -> dict[str, DeviationProfile]:
    """The config's deviation profiles at `ber`; ConfigError unless there
    are some and they cover every GEMM of the model."""
    profiles = (config.profiles or {}).get(ber)
    if profiles is None:
        raise ConfigError(f"no deviation profiles for ber={ber!r}")
    missing = sorted(model.node_by_id.keys() - profiles.keys())
    if missing:
        raise ConfigError(f"profiles for ber={ber!r} miss GEMMs {missing}")
    return profiles


def _build_context(config: CampaignConfig) -> _Context:
    model = build_model(config.model)
    scope = config.scope
    if scope is not None and not (scope and scope <= model.node_by_id.keys()):
        unknown = sorted(map(repr, scope - model.node_by_id.keys()))
        raise ConfigError(f"faults.scope must name one or more of the model's GEMMs; unknown: {unknown}")
    thresholds = _thresholds(config, model)
    dataset = generate_dataset(model, config.n_samples, config.data_seed)
    return _Context(model=model, dataset=dataset, thresholds=thresholds, config=config)


def _run_trial(ctx: _Context, ber: float, trial: int) -> list[dict]:
    """One row per strategy at (ber, trial). The strategies share one draw
    memo, so each fault stream of the trial is drawn once."""
    config = ctx.config
    cfg = FaultConfig(ber=ber, seed=config.base_seed, scope=config.scope, memo={})
    rows = []
    for name in config.strategies:
        strategy = strategy_from_name(name)
        counter = OpCounter()
        clean = strategy is None and ber == 0.0  # unprotected, fault-free: plain clean run
        stats = evaluate(
            ctx.model, ctx.dataset, None if clean else cfg, strategy, ctx.thresholds[ber], counter, trial=trial
        )
        values = dict(vars(counter), **vars(stats), ber=ber, strategy=name, trial=trial)
        rows.append({k: values[k] for k in RESULT_FIELDS})
    return rows


_WORKER_CTX: _Context | None = None


def _init_worker(
    model: Model, thresholds: dict[float, dict[str, ThresholdSet] | None], config: CampaignConfig
):
    global _WORKER_CTX
    # The pool is sent no dataset: its clean forwards, about 48 times the
    # size of its inputs, would be pickled for every worker and come back
    # writeable. Each worker generates it again, as _build_context did.
    dataset = generate_dataset(model, config.n_samples, config.data_seed)
    _WORKER_CTX = _Context(model=model, dataset=dataset, thresholds=thresholds, config=config)


def _worker_run(task):
    return _run_trial(_WORKER_CTX, *task)


def run_campaign(config: CampaignConfig, workers: int = 1) -> list[dict]:
    """Execute the full sweep; one row per (ber, strategy, trial), sorted.

    The unit of work is one (ber, trial), which runs every strategy. Runs
    in-process with one worker, else in a pool of at most one process per
    (ber, trial)."""
    check_int("workers", workers, 1)
    tasks = [(ber, t) for ber in config.bers for t in range(config.trials)]
    workers = min(workers, len(tasks))
    ctx = _build_context(config)  # a ConfigError here, not a broken pool
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker,
            initargs=(ctx.model, ctx.thresholds, ctx.config),
        ) as pool:
            results = list(pool.map(_worker_run, tasks, chunksize=1))
    else:
        results = [_run_trial(ctx, *task) for task in tasks]
    rows = [row for trial_rows in results for row in trial_rows]
    rows.sort(key=lambda r: (r["ber"], r["strategy"], r["trial"]))
    return rows


@dataclass
class StatsReport:
    ber: float
    histograms: dict  # gemm_id -> {"msd": {...}, "rcsd": {...}}
    multi_error_fraction: float
    flagged_rows_cols: int
    multi_error_rows_cols: int
    sample_count: int
    denominator: str = "flagged rows + flagged cols at baseline thresholds"

    def to_dict(self):
        return asdict(self)


def _histogram(samples: list[float], bins: int = 20) -> dict:
    finite = [s for s in samples if math.isfinite(s)]
    if not finite:
        return {"edges": [], "counts": [], "nonfinite": len(samples)}
    lo, hi = min(finite), max(finite)
    if lo == hi:  # numpy widens this range by 0.5 each way, which rounds away past 2**52
        half = max(0.5, 2 * bins * math.ulp(lo))
        lo, hi = lo - half, hi + half
    counts, edges = np.histogram(finite, bins=bins, range=(lo, hi))
    return {
        "edges": [float(e) for e in edges],
        "counts": [int(c) for c in counts],
        "nonfinite": len(samples) - len(finite),
    }


def select_gemms(model: Model, selector) -> list[str]:
    if selector == "largest_per_layer":
        groups: dict[str, list] = {}
        for node in model.nodes:
            group = node.gemm_id.split(".")[0]
            groups.setdefault(group, []).append(node)
        return [
            max(nodes, key=lambda n: (n.shape.m * n.shape.n, n.gemm_id)).gemm_id
            for _, nodes in sorted(groups.items())
        ]
    ids = list(selector)
    for gid in ids:
        if gid not in model.node_by_id:
            raise ConfigError(f"unknown gemm_id {gid!r}")
    return ids


def compute_stats(
    model: Model,
    inputs,
    ber: float,
    trials: int,
    seed: int,
    gemm_selector="largest_per_layer",
) -> StatsReport:
    """MSD / |R/CSD| sample histograms for the selected GEMMs, plus the
    fraction of flagged rows/columns holding more than one true error."""
    selected = set(select_gemms(model, gemm_selector))
    msd_samples: dict[str, list[float]] = {gid: [] for gid in selected}
    rc_samples: dict[str, list[float]] = {gid: [] for gid in selected}
    flagged = 0
    multi = 0
    for node, msd, prof, plan in sample_deviations(model, inputs, ber, trials, seed):
        if node.gemm_id in selected:
            msd_samples[node.gemm_id].append(msd)
            rc_samples[node.gemm_id].extend(
                float(v) for v in np.abs(np.concatenate([prof.rsd, prof.csd]))
            )
        loc = localize(prof)
        flagged += len(loc.faulty_rows) + len(loc.faulty_cols)
        if plan is not None:  # else no cell holds an error
            multi += int((plan.cells[list(loc.faulty_rows)].sum(axis=1) > 1).sum())
            multi += int((plan.cells[:, list(loc.faulty_cols)].sum(axis=0) > 1).sum())

    return StatsReport(
        ber=ber,
        histograms={
            gid: {"msd": _histogram(msd_samples[gid]), "rcsd": _histogram(rc_samples[gid])}
            for gid in sorted(selected)
        },
        multi_error_fraction=(multi / flagged) if flagged else 0.0,
        flagged_rows_cols=flagged,
        multi_error_rows_cols=multi,
        sample_count=trials,
    )


def emit(result, fmt: str, path: str):
    """Write campaign rows; CSV numbers round-trip."""
    rows = sorted(result, key=lambda r: (r["ber"], r["strategy"], r["trial"]))
    if fmt == "csv":
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(RESULT_FIELDS)
            for row in rows:
                writer.writerow([row[k] for k in RESULT_FIELDS])
    elif fmt == "json":
        with open(path, "w") as f:
            json.dump([{k: row[k] for k in RESULT_FIELDS} for row in rows], f, indent=1)
    else:
        raise ValueError(f"unknown output format {fmt!r}")


def load_results_csv(path: str) -> list[dict]:
    rows = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        for raw in reader:
            row = dict(raw)
            row["ber"] = float(row["ber"])
            row["trial"] = int(row["trial"])
            row["accuracy"] = float(row["accuracy"])
            for k in RESULT_FIELDS[4:]:
                row[k] = int(row[k])
            rows.append(row)
    return rows
