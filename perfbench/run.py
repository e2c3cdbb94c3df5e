"""Run one benchmark workload against this checkout's ftgemm and print its metrics.

    python3 perfbench/run.py --workload campaign-low --seed 3 --seconds 15 --trace 0

Repetitions (set-up plus one timed call) run until --seconds have passed, at
least one of each kind. With --trace 0 no repetition is traced and the
end-to-end metrics are printed; with --trace 1 traced and
untraced repetitions alternate, and the per-layer metrics of the traced ones
are printed together with the tracing overhead. Human-readable lines come
first; the last line of standard output is one JSON object.

Before every repetition the fixed reference kernel of calibration.py is timed.
Each timing is the median over the run's untraced repetitions of the
repetition's time divided by its kernel time, in seconds of a host on which the
kernel takes calibration.NOMINAL_S. A slow phase of a shared host slows the
kernel and the repetition alike, so it cancels; the readable lines also give
the plain wall-time medians and quartiles.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from calibration import NOMINAL_S, reference_kernel
from spans import Tracer, layer_metrics
from workloads import ROOT, WORKLOADS, case_for_seed, import_ftgemm, load_reference

OUT_DIR = ROOT / ".perfbench_out"


def _quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _describe(name, unit, values):
    q1, med, q3 = _quartiles(values)
    return f"{name:<24} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  (n={len(values)})"


def _scaled(rep, key):
    """A repetition's time in seconds of the nominal host."""
    return getattr(rep, key) / rep.kernel_s * NOMINAL_S


def completeness_errors(expected: dict, observed: dict) -> list[str]:
    return [
        f"{key}: traced {observed[key]}, outputs imply {want}"
        for key, want in expected.items() if observed[key] != want
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ftgemm = import_ftgemm()
    spec = WORKLOADS[args.workload]
    case = case_for_seed(args.seed)
    reference = load_reference(args.workload)[case.index]
    traced = bool(args.trace)

    untraced_reps, traced_reps, spans = [], [], []
    totals: dict = {}
    attempted = failed = 0
    errors: list[str] = []
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        start = perf_counter()
        i = 0
        while perf_counter() - start < args.seconds or not untraced_reps or (traced and not traced_reps):
            t0 = perf_counter()
            reference_kernel()
            kernel_s = perf_counter() - t0
            if traced and i % 2:
                with Tracer(ftgemm) as tracer:
                    tracer.group = f"rep{i}"
                    rep = spec.run(ftgemm, case, workdir)
                observed = tracer.summary()
                errors += completeness_errors(spec.expected_trace(rep, observed), observed)
                for key, val in observed.items():
                    totals[key] = totals.get(key, 0) + val
                if not spans:  # repetitions repeat the same work; keep one
                    spans = list(tracer.span_records(i))
                traced_reps.append(rep)
            else:
                rep = spec.run(ftgemm, case, workdir)
                untraced_reps.append(rep)
            rep.kernel_s = kernel_s
            ops, bad = spec.check(rep, reference)
            attempted += ops
            failed += bad
            i += 1

    forwards = reference["forwards"]
    call_s = statistics.median(_scaled(r, "call_s") for r in untraced_reps)
    setup_s = statistics.median(_scaled(r, "setup_s") for r in untraced_reps)
    print(f"workload {args.workload}, seed {args.seed} (case {case.index}), "
          f"{len(untraced_reps)} untraced and {len(traced_reps)} traced repetitions")
    print(_describe("reference kernel", "s", [r.kernel_s for r in untraced_reps]))
    print(_describe(f"wall {spec.call_metric}", "s", [r.call_s for r in untraced_reps]))
    print(_describe("wall setup_s", "s", [r.setup_s for r in untraced_reps]))
    print(_describe(spec.call_metric, "s", [_scaled(r, "call_s") for r in untraced_reps]))
    print(f"{'forwards_per_s':<24} {forwards / call_s:.6g} 1/s  ({forwards} / median {spec.call_metric})")
    print(_describe("setup_s", "s", [_scaled(r, "setup_s") for r in untraced_reps]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{'peak_rss_mb':<24} {peak_rss_mb:.6g} MB")
    print(f"{'ops':<24} {attempted}  ops_failed {failed}")

    if traced:
        if errors:
            print("perfbench: trace is incomplete:", *errors, sep="\n  ", file=sys.stderr)
            return 3
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with open(trace_path, "w") as f:
            for record in spans:
                f.write(json.dumps(record) + "\n")
        print(f"{len(spans)} spans written to {trace_path.relative_to(ROOT)}")
        overhead = statistics.median(_scaled(r, "call_s") for r in traced_reps) / call_s
        layer = layer_metrics(totals, len(traced_reps))
        layer["trace.overhead"] = (overhead, "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {
            "forwards_per_s": {"value": forwards / call_s, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
