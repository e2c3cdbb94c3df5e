"""Smoke tests of the benchmark: every workload at its smallest size (one
repetition of each kind), the metric names against BENCHMARK.json, the output
check, the trace's completeness check, and the refusal to run without
ftgemm's source.

    python3 -m pytest perfbench/tests
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Rep, case_for_seed, import_ftgemm, load_reference  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
# abft.correct_exact calls per traced repetition: recovery almost never runs
# at low BER and runs hundreds of times at high BER.
EXACT_CALLS = {"campaign-low": (0, 10), "campaign-high": (100, math.inf)}


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_correct(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    units = {m["name"]: m["unit"] for m in listed}
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, name
    if trace and workload in EXACT_CALLS:
        low, high = EXACT_CALLS[workload]
        assert low <= result["metrics"]["abft.correct_exact.calls"]["value"] < high


def test_extra_output_line_fails(tmp_path):
    ftgemm = import_ftgemm()
    spec = WORKLOADS["campaign-low"]
    rep = spec.run(ftgemm, case_for_seed(0), tmp_path)
    reference = load_reference("campaign-low")[0]
    assert spec.check(rep, reference) == (12, 0)
    rep.outputs.append(rep.outputs[-1])
    rep.rows.append(rep.rows[-1])
    assert spec.check(rep, reference) == (13, 1)

    reference = load_reference("search")[0]
    want = reference["outputs"]
    extra = Rep(0.0, 0.0, want + [want[-1]])
    assert WORKLOADS["search"].check(extra, reference) == (len(want) + 1, 1)


def test_missed_binding_fails_completeness(tmp_path):
    ftgemm = import_ftgemm()

    class MissesAbft(Tracer):
        """Leaves abft's binding of faulty_gemm (and the rest) untimed."""

        def _modules(self):
            return [m for m in super()._modules() if m is not ftgemm.abft]

    spec = WORKLOADS["campaign-low"]
    with MissesAbft(ftgemm) as tracer:
        rep = spec.run(ftgemm, case_for_seed(0), tmp_path)
    observed = tracer.summary()
    expected = spec.expected_trace(rep, observed)
    assert observed["faults.faulty_gemm.calls"] < expected["faults.faulty_gemm.calls"]

    with Tracer(ftgemm) as tracer:
        rep = spec.run(ftgemm, case_for_seed(0), tmp_path)
    observed = tracer.summary()
    assert all(observed[k] == v for k, v in spec.expected_trace(rep, observed).items())


def test_refuses_to_run_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("campaign-low", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
