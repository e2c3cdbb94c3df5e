"""In-memory span tracing of ftgemm's public functions, from outside the package.

A Tracer re-binds each timed function in every ftgemm module that holds it
(``faulty_gemm`` is bound in ``faults``, ``abft``, ``workload`` and the package
itself), so a call is timed whichever module it is made through. Classes are
timed through their ``__init__``. Spans stay in memory; the caller writes
them out. Removing the tracer restores the original bindings.
"""

from __future__ import annotations

import hashlib
import inspect
import sys
from time import perf_counter

# Timed functions, as (module, attribute). Names in metrics are
# "<module>.<attribute>", e.g. "faults.faulty_gemm".
TIMED = (
    ("tensor_core", "gemm"),
    ("faults", "faulty_gemm"),
    ("faults", "RngStream"),
    ("abft", "precompute_checksums"),
    ("abft", "detect"),
    ("abft", "compute_sum_profiles"),
    ("abft", "localize"),
    ("abft", "correct_exact"),
    ("abft", "correct_approx"),
    ("abft", "protect_gemm"),
    ("workload", "build_model"),
    ("workload", "generate_dataset"),
    ("workload", "forward"),
    ("workload", "evaluate"),
    ("thresholds", "profile_all"),
    ("thresholds", "binary_search_global_alpha"),
    ("thresholds", "greedy_gemmwise_search"),
    ("campaign", "run_campaign"),
    ("campaign", "emit"),
)

TIMED_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TIMED)

# Totals the wrappers collect from the values they see.
COUNTS = (
    "flips",  # FaultRecord.flips over faulty_gemm calls
    "evaluate_detections",  # EvalStats fields summed over evaluate calls
    "evaluate_exact",
    "evaluate_approx",
    "evaluate_ignored",
    "workload_mults",  # OpCounter fields summed over evaluate calls
    "abft_mults",
    "abft_adds",
    "abft_comparisons",
)


def _threshold_digest(thresholds) -> str:
    if not thresholds:
        return "strict"
    items = sorted(
        (gid, ts.detect_threshold, ts.row_threshold, ts.col_threshold)
        for gid, ts in thresholds.items()
    )
    return hashlib.sha256(repr(items).encode()).hexdigest()[:12]


class Tracer:
    def __init__(self, ftgemm):
        self.pkg = ftgemm
        self.spans: list[tuple] = []  # (id, parent, name, group, start, end)
        self.stack: list[int] = []
        self.next_id = 0
        self.group = "idle"
        self.counts = dict.fromkeys(COUNTS, 0)
        self.eval_keys: list[str] = []
        self._saved: list[tuple] = []

    # --- span recording -------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        group = self.group
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.spans.append((sid, parent, name, group, t0, t1))

    # --- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn):
        pkg = self.pkg
        if name == "faults.faulty_gemm":
            def wrapper(*args, **kwargs):
                # supply a FaultRecord so the flip count is known
                rec = args[5] if len(args) > 5 else kwargs.get("record")
                if rec is None:
                    rec = pkg.faults.FaultRecord()
                    if len(args) > 5:
                        args = args[:5] + (rec,) + args[6:]
                    else:
                        kwargs["record"] = rec
                out = self._call(name, fn, args, kwargs)
                self.counts["flips"] += rec.flips
                return out
        elif name == "workload.evaluate":
            signature = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                if a["counter"] is None:
                    a["counter"] = pkg.tensor_core.OpCounter()
                counter = a["counter"]
                before = (counter.workload_mults, counter.abft_mults,
                          counter.abft_adds, counter.abft_comparisons)
                cfg, strategy = a["cfg"], a["strategy"]
                key = "/".join((
                    "clean" if cfg is None else f"ber={cfg.ber!r}",
                    "none" if strategy is None else
                    f"{strategy.detection}-{strategy.localization}-{strategy.correction}",
                    _threshold_digest(a["thresholds"]),
                    f"trial={a['trial']}",
                ))
                self.eval_keys.append(key)
                outer, self.group = self.group, key
                try:
                    stats = self._call(name, fn, bound.args, bound.kwargs)
                finally:
                    self.group = outer
                c = self.counts
                c["evaluate_detections"] += stats.detections_triggered
                c["evaluate_exact"] += stats.exact_corrected
                c["evaluate_approx"] += stats.approx_corrected
                c["evaluate_ignored"] += stats.ignored
                c["workload_mults"] += counter.workload_mults - before[0]
                c["abft_mults"] += counter.abft_mults - before[1]
                c["abft_adds"] += counter.abft_adds - before[2]
                c["abft_comparisons"] += counter.abft_comparisons - before[3]
                return stats
        else:
            def wrapper(*args, **kwargs):
                return self._call(name, fn, args, kwargs)
        return wrapper

    # --- installing -------------------------------------------------------

    def _modules(self):
        prefix = self.pkg.__name__
        return [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == prefix or n.startswith(prefix + "."))
        ]

    def install(self):
        modules = self._modules()
        for mod_name, attr in TIMED:
            name = f"{mod_name}.{attr}"
            orig = getattr(getattr(self.pkg, mod_name), attr)
            if isinstance(orig, type):
                init = orig.__init__
                wrapped = self._wrap(name, init)
                self._saved.append((orig, "__init__", init))
                orig.__init__ = wrapped
                continue
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def remove(self):
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # --- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Flat totals: "<name>.calls", ".total_s" and ".self_s" per timed
        name (self = span minus its children), the COUNTS, the calls of
        compute_sum_profiles made by protect_gemm, and distinct evaluate keys."""
        name_of = {s[0]: s[2] for s in self.spans}
        child = {}
        for sid, parent, _, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        out = {}
        for n in TIMED_NAMES:
            out[f"{n}.calls"] = 0
            out[f"{n}.total_s"] = 0.0
            out[f"{n}.self_s"] = 0.0
        in_pipeline = 0
        for sid, parent, name, _, t0, t1 in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += t1 - t0
            out[f"{name}.self_s"] += (t1 - t0) - child.get(sid, 0.0)
            if name == "abft.compute_sum_profiles" and name_of.get(parent) == "abft.protect_gemm":
                in_pipeline += 1
        out["abft.compute_sum_profiles.in_pipeline"] = in_pipeline
        out["evaluate_distinct"] = len(set(self.eval_keys))
        out.update(self.counts)
        return out

    def span_records(self, rep: int):
        """Spans as JSON-ready dicts tagged with a repetition number."""
        for sid, parent, name, group, t0, t1 in self.spans:
            yield {"rep": rep, "id": sid, "parent": parent, "name": name,
                   "group": group, "start": t0, "end": t1}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(total: dict, reps: int) -> dict:
    """Per-layer metrics, per traced repetition, as {name: (value, unit)}."""
    per = {k: v / reps for k, v in total.items()}
    out = {}
    for n in TIMED_NAMES:
        out[f"{n}.calls"] = (per[f"{n}.calls"], "count")
        out[f"{n}.self_s"] = (per[f"{n}.self_s"], "s")
        out[f"{n}.total_s"] = (per[f"{n}.total_s"], "s")
    candidates = per["evaluate_exact"] + per["evaluate_approx"] + per["evaluate_ignored"]
    out.update({
        "faults.faulty_gemm.flips": (per["flips"], "count"),
        "faults.faulty_gemm.flips_per_call": (
            _ratio(per["flips"], per["faults.faulty_gemm.calls"]), "count"),
        "abft.trigger_ratio": (
            _ratio(per["abft.compute_sum_profiles.in_pipeline"], per["abft.protect_gemm.calls"]),
            "ratio"),
        "abft.exact_ratio": (_ratio(per["evaluate_exact"], candidates), "ratio"),
        "thresholds.eval_distinct_ratio": (
            _ratio(per["evaluate_distinct"], per["workload.evaluate.calls"]), "ratio"),
        "ops.workload_mults": (per["workload_mults"], "count"),
        "ops.abft_mults": (per["abft_mults"], "count"),
        "ops.abft_adds": (per["abft_adds"], "count"),
        "ops.abft_comparisons": (per["abft_comparisons"], "count"),
        "ops.abft_overhead": (_ratio(per["abft_mults"], per["workload_mults"]), "ratio"),
        "abft.detections": (per["evaluate_detections"], "count"),
        "abft.exact_corrected": (per["evaluate_exact"], "count"),
        "abft.approx_corrected": (per["evaluate_approx"], "count"),
        "abft.ignored": (per["evaluate_ignored"], "count"),
    })
    return out
