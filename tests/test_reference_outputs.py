"""The benchmark's recorded outputs, checked by the test suite: case 0 of every
perfbench workload must reproduce its reference lines exactly."""

import importlib.util
import sys
from pathlib import Path

import pytest

import ftgemm.campaign  # the workloads reach ftgemm.campaign as an attribute

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_case_0_matches_reference(name, tmp_path):
    spec = workloads.WORKLOADS[name]
    rep = spec.run(ftgemm, workloads.case_for_seed(0), tmp_path)
    attempted, failed = spec.check(rep, workloads.load_reference(name)[0])
    assert attempted > 0 and failed == 0
