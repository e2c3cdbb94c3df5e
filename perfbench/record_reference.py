"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

For every workload and case this runs one traced repetition and writes
reference/<workload>.json: the outputs (campaign CSV lines, or search profile
and alpha lines) and the number of forward passes in the timed call.

A search's forward count is the work unit of its forwards_per_s. The first
recording fixed it; later recordings keep it, so a change that skips forward
passes (memoization) shows as a higher rate instead of resetting the unit.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from spans import Tracer
from workloads import NCASES, REFERENCE_DIR, ROOT, WORKLOADS, SearchSpec, case_for_seed, import_ftgemm


def record(ftgemm, name: str, workdir: Path) -> list[dict]:
    spec = WORKLOADS[name]
    path = REFERENCE_DIR / f"{name}.json"
    old = json.loads(path.read_text())["cases"] if path.exists() else None
    cases = []
    for index in range(NCASES):
        case = case_for_seed(index)
        with Tracer(ftgemm) as tracer:
            rep = spec.run(ftgemm, case, workdir)
        observed = tracer.summary()
        missing = {k: v for k, v in spec.expected_trace(rep, observed).items() if observed[k] != v}
        if missing:
            sys.exit(f"{name} case {index}: trace incomplete: {missing}")
        if not isinstance(spec, SearchSpec):
            forwards = spec.forwards()
        elif old is not None:
            forwards = old[index]["forwards"]
        else:
            forwards = spec.profile_trials + observed["workload.evaluate.calls"] * spec.heldout_samples
        cases.append({"case": index, "forwards": forwards, "outputs": rep.outputs})
        print(f"{name} case {index}: {len(rep.outputs)} output lines, {forwards} forwards")
    return cases


def main() -> int:
    ftgemm = import_ftgemm()
    REFERENCE_DIR.mkdir(exist_ok=True)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        for name in sorted(WORKLOADS):
            cases = record(ftgemm, name, Path(tmp))
            (REFERENCE_DIR / f"{name}.json").write_text(
                json.dumps({"workload": name, "cases": cases}, indent=1) + "\n"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
