"""The benchmark's workloads. One repetition is a set-up followed by one timed
call into ftgemm's public functions; its outputs are checked against the
reference recorded in ``reference/<workload>.json``.

The seed picks one of NCASES recorded cases (seed mod NCASES); the case sets
the model's weight seed, the dataset seeds and the fault seed.
"""

from __future__ import annotations

import importlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

NCASES = 16
N_GEMMS = 21  # GEMM nodes of the default 2-layer model
MULTS_PER_FORWARD = 426304  # workload multiplies of one forward of that model
# One global alpha for opt/opt-avg. The profiled deviation ranges span many
# orders of magnitude, so a tiny alpha already relaxes the thresholds well
# above the strict float32 floor while detection still fires.
OPT_ALPHA = 1e-6


def import_ftgemm():
    """Import the ftgemm package from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "ftgemm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ftgemm package at {src / 'ftgemm'}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("ftgemm")
    for mod in ("tensor_core", "faults", "abft", "workload", "thresholds", "campaign"):
        importlib.import_module(f"ftgemm.{mod}")
    if Path(pkg.__file__).resolve().parent != (src / "ftgemm").resolve():
        sys.exit(f"perfbench: imported ftgemm from {pkg.__file__}, not from {src}")
    return pkg


@dataclass(frozen=True)
class Case:
    index: int
    weight_seed: int
    data_seed: int
    heldout_seed: int
    base_seed: int


def case_for_seed(seed: int) -> Case:
    i = seed % NCASES
    return Case(i, weight_seed=i, data_seed=100 + i, heldout_seed=300 + i, base_seed=200 + i)


def load_reference(workload: str) -> list[dict]:
    with open(REFERENCE_DIR / f"{workload}.json") as f:
        return json.load(f)["cases"]


@dataclass
class Rep:
    setup_s: float
    call_s: float
    outputs: list[str]  # one line per op (campaign CSVs also keep the header)
    rows: list[dict] | None = None  # parsed campaign CSV rows
    kernel_s: float = 0.0  # the reference kernel's time right before this repetition


def _compare(got: list[str], want: list[str], bad: set[int]) -> tuple[int, int]:
    """(ops attempted, ops failed) over the output lines of both sides: a line
    fails if it is missing, extra, differs from the reference, or is in `bad`."""
    n = max(len(got), len(want))
    failed = sum(
        1 for i in range(n)
        if i >= len(got) or i >= len(want) or got[i] != want[i] or i in bad
    )
    return n, failed


@dataclass(frozen=True)
class CampaignSpec:
    """run_campaign over bers x strategies x trials, thresholds for opt and
    opt-avg from profile_all in set-up and the fixed OPT_ALPHA."""

    call_metric = "call_s"

    bers: tuple
    strategies: tuple
    n_samples: int
    trials: int
    profile_trials: int

    def run(self, ftgemm, case: Case, workdir: Path) -> Rep:
        campaign, thresholds, workload = ftgemm.campaign, ftgemm.thresholds, ftgemm.workload
        t0 = perf_counter()
        model_sec = {"weight_seed": case.weight_seed}
        model = workload.build_model(workload.ModelConfig(**model_sec))
        data = workload.generate_dataset(model, self.n_samples, case.data_seed)
        profiles = {
            ber: thresholds.profile_all(model, data.inputs, ber, self.profile_trials, case.base_seed)
            for ber in self.bers if ber > 0
        }
        raw = {
            "model": model_sec,
            "dataset": {"n_samples": self.n_samples, "data_seed": case.data_seed},
            "faults": {"bers": list(self.bers), "base_seed": case.base_seed, "trials": self.trials},
            "abft": {
                "strategies": list(self.strategies),
                "alphas": OPT_ALPHA,
                "profiles": campaign.profiles_to_dict(profiles),
            },
            "output": {"results": str(workdir / "results.csv"), "format": "csv"},
        }
        path = workdir / "campaign.json"
        path.write_text(json.dumps(raw))
        config = campaign.load_config(str(path))
        t1 = perf_counter()
        rows = campaign.run_campaign(config, workers=1)
        t2 = perf_counter()
        campaign.emit(rows, config.output_format, config.output_path)
        outputs = Path(config.output_path).read_text().splitlines()
        return Rep(t1 - t0, t2 - t1, outputs, campaign.load_results_csv(config.output_path))

    def forwards(self) -> int:
        return len(self.bers) * len(self.strategies) * self.trials * self.n_samples

    def _row_ok(self, row) -> bool:
        if row["workload_mults"] != MULTS_PER_FORWARD * self.n_samples:
            return False
        if row["ber"] == 0.0 and (
            row["accuracy"] != 1.0
            or row["detections_triggered"] or row["exact_corrected"]
            or row["approx_corrected"] or row["ignored"]
        ):
            return False
        if row["strategy"] == "none" and (
            row["abft_mults"] or row["abft_adds"] or row["abft_comparisons"]
        ):
            return False
        return True

    def check(self, rep: Rep, reference: dict) -> tuple[int, int]:
        """(ops attempted, ops failed); an op is one CSV row."""
        want = reference["outputs"]
        if rep.outputs[:1] != want[:1]:  # changed header: no row can match
            n_rows = max(len(rep.outputs), len(want)) - 1
            return n_rows, n_rows
        bad = {i for i, row in enumerate(rep.rows) if not self._row_ok(row)}
        return _compare(rep.outputs[1:], want[1:], bad)

    def expected_trace(self, rep: Rep, observed: dict) -> dict:
        """Call counts and totals the CSV rows imply, for the trace's
        completeness check."""
        n = self.n_samples
        rows = rep.rows
        clean_rows = sum(1 for r in rows if r["strategy"] == "none" and r["ber"] == 0.0)
        protected_rows = sum(1 for r in rows if r["strategy"] != "none")
        profiled = sum(1 for b in self.bers if b > 0)
        faulty = (len(rows) - clean_rows) * n + profiled * self.profile_trials
        # generate_dataset runs in set-up and again inside run_campaign
        clean = 2 * n + clean_rows * n

        def total(key):
            return sum(r[key] for r in rows)

        return {
            "faults.faulty_gemm.calls": N_GEMMS * faulty,
            "faults.RngStream.calls": N_GEMMS * faulty,
            "abft.protect_gemm.calls": N_GEMMS * protected_rows * n,
            "tensor_core.gemm.calls": N_GEMMS * clean,
            "workload.forward.calls": faulty + clean,
            "workload.evaluate.calls": len(rows),
            "abft.compute_sum_profiles.in_pipeline": total("detections_triggered"),
            "evaluate_detections": total("detections_triggered"),
            "evaluate_exact": total("exact_corrected"),
            "evaluate_approx": total("approx_corrected"),
            "evaluate_ignored": total("ignored"),
            "workload_mults": total("workload_mults"),
            "abft_mults": total("abft_mults"),
            "abft_adds": total("abft_adds"),
            "abft_comparisons": total("abft_comparisons"),
        }


@dataclass(frozen=True)
class SearchSpec:
    """profile_all, then binary_search_global_alpha and greedy_gemmwise_search
    on a held-out dataset, with acceptance criterion 10's search settings."""

    call_metric = "search_s"

    ber: float
    profile_samples: int
    profile_trials: int
    heldout_samples: int

    def settings(self, ftgemm):
        return ftgemm.thresholds.SearchConfig(
            accuracy_budget=0.02, trials_per_eval=2, ber=self.ber,
            resolution=0.125, order="ascending_size", strategy="v1",
        )

    def run(self, ftgemm, case: Case, workdir: Path) -> Rep:
        thresholds, workload = ftgemm.thresholds, ftgemm.workload
        t0 = perf_counter()
        model = workload.build_model(workload.ModelConfig(weight_seed=case.weight_seed))
        data = workload.generate_dataset(model, self.profile_samples, case.data_seed)
        heldout = workload.generate_dataset(model, self.heldout_samples, case.heldout_seed)
        cfg = self.settings(ftgemm)
        t1 = perf_counter()
        profiles = thresholds.profile_all(
            model, data.inputs, self.ber, self.profile_trials, case.base_seed
        )
        alpha, feasible = thresholds.binary_search_global_alpha(
            model, heldout, cfg, profiles, case.base_seed
        )
        greedy = thresholds.greedy_gemmwise_search(model, heldout, cfg, profiles, case.base_seed)
        t2 = perf_counter()
        outputs = [
            f"profile {gid} {p.msd_min!r} {p.msd_max!r} {p.rcsd_min!r} {p.rcsd_max!r} {p.sample_count}"
            for gid, p in profiles.items()
        ]
        outputs.append(f"global {alpha!r} {feasible}")
        outputs += [f"alpha {gid} {ad!r} {al!r}" for gid, (ad, al) in greedy.alphas.items()]
        return Rep(t1 - t0, t2 - t1, outputs)

    def check(self, rep: Rep, reference: dict) -> tuple[int, int]:
        """(ops attempted, ops failed); an op is one per-GEMM profile, the
        global alpha, or one per-GEMM alpha."""
        return _compare(rep.outputs, reference["outputs"], set())

    def expected_trace(self, rep: Rep, observed: dict) -> dict:
        """Call counts implied by the number of evaluate calls the trace saw;
        a missed binding of evaluate, forward or a GEMM function breaks them."""
        evals = observed["workload.evaluate.calls"]
        faulty = self.profile_trials + evals * self.heldout_samples
        return {
            "faults.faulty_gemm.calls": N_GEMMS * faulty,
            "faults.RngStream.calls": N_GEMMS * faulty,
            "abft.protect_gemm.calls": N_GEMMS * evals * self.heldout_samples,
            "tensor_core.gemm.calls": N_GEMMS * (self.profile_samples + self.heldout_samples),
            "workload.forward.calls": faulty + self.profile_samples + self.heldout_samples,
            "abft.compute_sum_profiles.in_pipeline": observed["evaluate_detections"],
        }


WORKLOADS = {
    # BER 0 and 1e-8: detection on every protected GEMM, recovery almost never.
    "campaign-low": CampaignSpec(
        bers=(0.0, 1e-8), strategies=("none", "baseline", "opt"),
        n_samples=8, trials=2, profile_trials=8,
    ),
    # BER 1e-5 and 1e-4: thousands of flips per forward, all correction modes.
    "campaign-high": CampaignSpec(
        bers=(1e-5, 1e-4), strategies=("none", "baseline", "opt", "opt-avg"),
        n_samples=4, trials=1, profile_trials=8,
    ),
    "search": SearchSpec(ber=1e-7, profile_samples=8, profile_trials=8, heldout_samples=2),
}
