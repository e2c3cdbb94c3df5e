"""Deterministic toy transformer workload expressed as a dataflow graph of
named values, of which the GEMM nodes are the ones faults hit.

The model is a pre-layernorm transformer with random (untrained) weights and a
self-labeled dataset: labels are the clean model's own argmax, so clean
accuracy is 1.0 by construction and accuracy degradation under faults is well
defined at desk scale.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from functools import partial
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .abft import STRICT, AbftStrategy, CleanCheck, ThresholdSet, clean_check, protect_gemm
from .faults import FaultConfig, FaultRecord, RngStream, faulty_gemm, plan_streams
from .tensor_core import ConfigError, GemmShape, OpCounter, check_int, gelu, gemm, layernorm_rows, softmax_rows


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int = 2
    embed_dim: int = 32
    num_heads: int = 2
    seq_len: int = 16
    ff_multiplier: int = 4
    num_classes: int = 10
    weight_seed: int = 0

    def __post_init__(self):
        for f in fields(self):  # dimensions >= 1; the seed seeds default_rng
            check_int(f"model.{f.name}", getattr(self, f.name), 0 if f.name == "weight_seed" else 1)
        if self.embed_dim % self.num_heads:
            raise ConfigError("model.embed_dim must be divisible by model.num_heads")

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads


@dataclass(frozen=True)
class GemmNode:
    gemm_id: str
    shape: GemmShape


class Step(NamedTuple):
    """A named value of a forward: fn applied to the values named by inputs,
    or with fn None, GEMM node `name` on them (its operands A and B)."""

    name: str
    fn: Callable | None
    inputs: tuple[str, ...]
    gather: Callable  # _gather(inputs), so forward fetches them in one call


def _gather(inputs):
    """A function of a forward's values that returns the tuple of those
    named by inputs (picklable, as pool workers get the model)."""
    return itemgetter(*inputs) if len(inputs) > 1 else partial(_gather_one, *inputs)


def _gather_one(name, env):
    return (env[name],)


class Model:
    def __init__(self, cfg: ModelConfig, nodes, weights, steps):
        self.cfg = cfg
        self.nodes = list(nodes)  # topological order
        self.node_by_id = {n.gemm_id: n for n in self.nodes}
        self.weights = weights  # "<gemm_id>.weight" -> float32 weight matrix
        self.steps = steps  # every named value but the input and the weights, in topological order


def _head_q(lo, hi, scale, Q):
    return Q[:, lo:hi] * scale


def _head(lo, hi, transpose, X):
    """Columns lo:hi of X, transposed if asked, C-contiguous."""
    return np.ascontiguousarray(X[:, lo:hi].T if transpose else X[:, lo:hi])


def _concat(*heads):
    return np.concatenate(heads, axis=1)


def build_model(cfg: ModelConfig) -> Model:
    rng = np.random.default_rng(cfg.weight_seed)
    d = cfg.embed_dim
    s = cfg.seq_len
    hd = cfg.head_dim
    ff = cfg.ff_multiplier * d
    scale = np.float32(1.0 / math.sqrt(hd))
    nodes, weights, steps = [], {}, []

    def value(name, fn, *inputs):
        steps.append(Step(name, fn, inputs, _gather(inputs)))
        return name

    def node(gemm_id, shape, A, B=None):
        """GEMM node gemm_id on values A and B, B a new weight matrix if None."""
        nodes.append(GemmNode(gemm_id, shape))
        if B is None:
            B = f"{gemm_id}.weight"
            bound = 1.0 / math.sqrt(shape.k)
            weights[B] = rng.uniform(-bound, bound, size=(shape.k, shape.n)).astype(np.float32)
        return value(gemm_id, None, A, B)

    x = "input"
    for layer in range(cfg.num_layers):
        a = f"layer{layer}.attn"
        f = f"layer{layer}.ff"
        h = value(f"{a}.norm", layernorm_rows, x)
        q = node(f"{a}.q", GemmShape(s, d, d), h)
        k = node(f"{a}.k", GemmShape(s, d, d), h)
        v = node(f"{a}.v", GemmShape(s, d, d), h)
        heads = []
        for hh in range(cfg.num_heads):
            p = f"{a}.head{hh}"
            lo, hi = hh * hd, (hh + 1) * hd
            qh = value(f"{p}.q", partial(_head_q, lo, hi, scale), q)
            kT = value(f"{p}.kT", partial(_head, lo, hi, True), k)
            score = node(f"{p}.score", GemmShape(s, hd, s), qh, kT)
            probs = value(f"{p}.probs", softmax_rows, score)
            vh = value(f"{p}.v", partial(_head, lo, hi, False), v)
            heads.append(node(f"{p}.value", GemmShape(s, s, hd), probs, vh))
        concat = value(f"{a}.concat", _concat, *heads)
        attn = node(f"{a}.out", GemmShape(s, d, d), concat)
        x = value(f"{a}.residual", np.add, x, attn)
        h2 = value(f"{f}.norm", layernorm_rows, x)
        up = node(f"{f}.in", GemmShape(s, d, ff), h2)
        g = value(f"{f}.gelu", gelu, up)
        down = node(f"{f}.out", GemmShape(s, ff, d), g)
        x = value(f"{f}.residual", np.add, x, down)
    pooled = value("pooled", partial(np.ndarray.mean, axis=0, dtype=np.float32, keepdims=True), x)
    node("classifier", GemmShape(1, d, cfg.num_classes), pooled)
    return Model(cfg, nodes, weights, steps)


@dataclass
class CleanForward:
    """One sample's clean forward, which its faulty forwards reuse by
    dataflow: every named value (read-only; the input, the weights and each
    step's), and the CleanCheck of each GEMM node a protected forward has run
    on clean operands, stored by the first."""

    values: dict[str, np.ndarray]
    checks: dict[str, CleanCheck] = field(default_factory=dict)

    def check(self, gemm_id: str, A, B) -> CleanCheck:
        """gemm_id's CleanCheck; A and B must be its clean forward's operands."""
        if gemm_id not in self.checks:
            self.checks[gemm_id] = clean_check(A, B, self.values[gemm_id])
        return self.checks[gemm_id]


def forward(
    model: Model,
    X,
    cfg: FaultConfig | None = None,
    strategy: AbftStrategy | None = None,
    thresholds: dict[str, ThresholdSet] | None = None,
    counter: OpCounter | None = None,
    trial: int = 0,
    sample: int = 0,
    observer=None,
    clean: CleanForward | None = None,
    values: dict | None = None,
):
    """One forward pass; returns (logits vector, {gemm_id: (det, corr)}).

    cfg is None: clean run. strategy is None: faults without protection.
    Otherwise every GEMM node runs through protect_gemm with
    thresholds[gemm_id] (strict for every node when thresholds is None).
    `counter`, when given, is charged each node's m*k*n workload multiplies
    here and its ABFT operations in protect_gemm. `observer`, when given, is
    called as observer(node, A, B, C, record) after each node. `values`,
    when given, receives every named value ("input", model.weights' and
    model.steps').
    `clean`, with a cfg, is a clean forward of this model, used only if its
    input is X itself. A value is clean when it is one of its arrays. A
    step whose inputs are all clean takes its stored value: as its result,
    or for a GEMM node as faulty_gemm's or protect_gemm's `clean`, with its
    CleanCheck, which they return unless it draws a flip or detection
    triggers.
    With a cfg, this is the one place that turns it into flips: every node
    in cfg.scope (all without one) at cfg.ber > 0 is planned first, in one
    batch (faults.plan_streams), and each node's faulty_gemm or
    protect_gemm replays its plan, or None for a node that draws no flip.
    """
    mc = model.cfg
    X = np.asarray(X, dtype=np.float32)
    if X.shape != (mc.seq_len, mc.embed_dim):
        raise ValueError(f"input shape {X.shape} != {(mc.seq_len, mc.embed_dim)}")
    reports: dict[str, tuple] = {}
    env = {} if values is None else values
    env["input"] = X
    env.update(model.weights)
    stored = clean.values if clean is not None and clean.values["input"] is X else None
    same = {"input", *model.weights}  # with stored, the names whose value is its own array
    plans = {}
    if cfg is not None:
        # every node's stream, in scope or not: perfbench counts one RngStream per node per faulty forward
        streams = [RngStream(cfg.seed, n.gemm_id, trial, sample) for n in model.nodes]
        jobs = {n.gemm_id: (stream, n.shape.m, n.shape.n, n.shape.k) for n, stream in zip(model.nodes, streams)
                if cfg.ber > 0.0 and (cfg.scope is None or n.gemm_id in cfg.scope)}
        plans = dict(zip(jobs, plan_streams(cfg, list(jobs.values()))))

    def run(gemm_id: str, C0, A, B):
        """GEMM node gemm_id on A and B; C0 is its clean output if they are
        clean."""
        node = model.node_by_id[gemm_id]
        if counter is not None:
            counter.workload_mults += node.shape.macs
        if cfg is None:
            C = gemm(A, B)
            rec = None
        else:
            # also without a plan: perfbench counts one faulty_gemm or protect_gemm per node
            plan = plans.get(gemm_id)
            rec = FaultRecord() if observer is not None else None
            if strategy is None:
                C = faulty_gemm(A, B, plan, record=rec, clean=C0)
            else:
                ts = STRICT if thresholds is None else thresholds[gemm_id]
                check = None if C0 is None else clean.check(gemm_id, A, B)
                C, det, corr = protect_gemm(A, B, plan, strategy, ts, counter, record=rec, clean=C0, check=check)
                reports[gemm_id] = (det, corr)
        if observer is not None:
            observer(node, A, B, C, rec)
        return C

    # Injected faults legitimately produce overflow/NaN; let them propagate
    # silently instead of warning on every arithmetic op.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for name, fn, inputs, gather in model.steps:
            C0 = stored[name] if stored is not None and same.issuperset(inputs) else None
            if fn is None:
                C = run(name, C0, *gather(env))
            elif C0 is None:
                C = fn(*gather(env))
            else:
                C = C0
            env[name] = C
            if C is C0:
                same.add(name)
    return env["classifier"].ravel(), reports


@dataclass
class Dataset:
    inputs: list
    labels: list
    # Per sample, its clean forward or None, and the model that ran them;
    # evaluate reuses them on that model only, for the inputs they ran on
    clean_forwards: list[CleanForward | None] | None = None
    clean_model: Model | None = field(default=None, compare=False, repr=False)


# Bound on the clean forwards a dataset keeps, in bytes, give or take one
# sample's: 32 MiB, about 300 samples of the default model (98 KB of step
# values, and 12 KB of the float64 checksums its CleanChecks can store,
# each). Later samples keep none, and their faulty forwards run in full.
_CLEAN_OUTPUT_BYTES = 32 << 20


def generate_dataset(model: Model, n_samples: int, data_seed: int) -> Dataset:
    """Inputs labelled by the clean model's argmax, with the clean forwards
    kept for evaluate, up to _CLEAN_OUTPUT_BYTES."""
    check_int("n_samples", n_samples, 1)
    mc = model.cfg
    rng = np.random.default_rng(data_seed)
    inputs = [
        rng.uniform(-1.0, 1.0, size=(mc.seq_len, mc.embed_dim)).astype(np.float32)
        for _ in range(n_samples)
    ]
    checksums = sum(16 * node.shape.k for node in model.nodes)  # k + k float64 per node
    labels, clean_forwards, kept = [], [], 0
    for x in inputs:
        values = {} if kept < _CLEAN_OUTPUT_BYTES else None
        labels.append(int(np.argmax(forward(model, x, values=values)[0])))
        if values is None:
            clean_forwards.append(None)
            continue
        for v in values.values():
            v.setflags(write=False)  # every faulty forward of x reads it
        kept += sum(values[step.name].nbytes for step in model.steps) + checksums
        clean_forwards.append(CleanForward(values))
    return Dataset(inputs, labels, clean_forwards, model)


@dataclass
class EvalStats:
    accuracy: float
    detections_triggered: int = 0
    exact_corrected: int = 0
    approx_corrected: int = 0
    ignored: int = 0


def evaluate(
    model: Model,
    dataset: Dataset,
    cfg: FaultConfig | None = None,
    strategy: AbftStrategy | None = None,
    thresholds: dict[str, ThresholdSet] | None = None,
    counter: OpCounter | None = None,
    trial: int = 0,
) -> EvalStats:
    stats = EvalStats(accuracy=0.0)
    correct = 0
    # a clean run (cfg None) still runs every GEMM
    reuse = cfg is not None and dataset.clean_forwards is not None and dataset.clean_model is model
    for idx, (x, label) in enumerate(zip(dataset.inputs, dataset.labels)):
        logits, reports = forward(
            model, x, cfg, strategy, thresholds, counter, trial=trial, sample=idx,
            clean=dataset.clean_forwards[idx] if reuse else None,
        )
        if int(np.argmax(logits)) == label:
            correct += 1
        for det, corr in reports.values():
            stats.detections_triggered += int(det.triggered)
            stats.exact_corrected += corr.exact_corrected
            stats.approx_corrected += corr.approx_corrected
            stats.ignored += corr.ignored
    stats.accuracy = correct / len(dataset.inputs)
    return stats
