"""The benchmark's recorded outputs, checked by the test suite: case 0 of every
perfbench workload must reproduce its reference lines exactly, also under the
perfbench tracer, whose call counts must agree with those outputs, and so must
every other case of the search workload, whose alphas depend on where each
case's fault streams flip."""

import importlib.util
import sys
from pathlib import Path

import pytest

import ftgemm.campaign  # the workloads reach ftgemm.campaign as an attribute

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
spans = _load("spans")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_case_0_matches_reference(name, tmp_path):
    spec = workloads.WORKLOADS[name]
    rep = spec.run(ftgemm, workloads.case_for_seed(0), tmp_path)
    attempted, failed = spec.check(rep, workloads.load_reference(name)[0])
    assert attempted > 0 and failed == 0


@pytest.mark.parametrize("case", range(1, workloads.NCASES))
def test_search_case_matches_reference(case, tmp_path):
    spec = workloads.WORKLOADS["search"]
    rep = spec.run(ftgemm, workloads.case_for_seed(case), tmp_path)
    attempted, failed = spec.check(rep, workloads.load_reference("search")[case])
    assert attempted > 0 and failed == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_case_0_matches_reference(name, tmp_path):
    spec = workloads.WORKLOADS[name]
    with spans.Tracer(ftgemm) as tracer:
        rep = spec.run(ftgemm, workloads.case_for_seed(0), tmp_path)
    observed = tracer.summary()
    expected = spec.expected_trace(rep, observed)
    assert {key: observed[key] for key in expected} == expected
    attempted, failed = spec.check(rep, workloads.load_reference(name)[0])
    assert attempted > 0 and failed == 0
