"""Deterministic toy transformer workload expressed as a graph of GEMM nodes.

The model is a pre-layernorm transformer with random (untrained) weights and a
self-labeled dataset: labels are the clean model's own argmax, so clean
accuracy is 1.0 by construction and accuracy degradation under faults is well
defined at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .abft import STRICT, AbftStrategy, CleanCheck, ThresholdSet, clean_check, protect_gemm
from .faults import FaultConfig, FaultRecord, RngStream, faulty_gemm
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


class Model:
    def __init__(self, cfg: ModelConfig, nodes, weights):
        self.cfg = cfg
        self.nodes = list(nodes)  # topological order
        self.node_by_id = {n.gemm_id: n for n in self.nodes}
        self.weights = weights  # gemm_id -> float32 weight matrix


def build_model(cfg: ModelConfig) -> Model:
    rng = np.random.default_rng(cfg.weight_seed)
    d = cfg.embed_dim
    s = cfg.seq_len
    hd = cfg.head_dim
    ff = cfg.ff_multiplier * d

    def draw(fan_in, fan_out):
        b = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-b, b, size=(fan_in, fan_out)).astype(np.float32)

    nodes: list[GemmNode] = []
    weights: dict[str, np.ndarray] = {}
    for layer in range(cfg.num_layers):
        for name in ("q", "k", "v"):
            nid = f"layer{layer}.attn.{name}"
            nodes.append(GemmNode(nid, GemmShape(s, d, d)))
            weights[nid] = draw(d, d)
        for h in range(cfg.num_heads):
            nodes.append(GemmNode(f"layer{layer}.attn.head{h}.score", GemmShape(s, hd, s)))
            nodes.append(GemmNode(f"layer{layer}.attn.head{h}.value", GemmShape(s, s, hd)))
        nid = f"layer{layer}.attn.out"
        nodes.append(GemmNode(nid, GemmShape(s, d, d)))
        weights[nid] = draw(d, d)
        nid = f"layer{layer}.ff.in"
        nodes.append(GemmNode(nid, GemmShape(s, d, ff)))
        weights[nid] = draw(d, ff)
        nid = f"layer{layer}.ff.out"
        nodes.append(GemmNode(nid, GemmShape(s, ff, d)))
        weights[nid] = draw(ff, d)
    nodes.append(GemmNode("classifier", GemmShape(1, d, cfg.num_classes)))
    weights["classifier"] = draw(d, cfg.num_classes)
    return Model(cfg, nodes, weights)


@dataclass
class CleanForward:
    """One sample's clean forward, which its faulty forwards reuse on their
    clean prefix: each node's output (read-only), and the CleanCheck of each
    node a protected forward has reached on its prefix, stored by the first."""

    outputs: dict[str, np.ndarray]
    checks: dict[str, CleanCheck] = field(default_factory=dict)

    def check(self, gemm_id: str, A, B) -> CleanCheck:
        """gemm_id's CleanCheck; A and B must be its clean forward's operands."""
        if gemm_id not in self.checks:
            self.checks[gemm_id] = clean_check(A, B, self.outputs[gemm_id])
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
):
    """One forward pass; returns (logits vector, {gemm_id: (det, corr)}).

    cfg is None: clean run. strategy is None: faults without protection.
    Otherwise every GEMM node runs through protect_gemm with
    thresholds[gemm_id] (strict for every node when thresholds is None).
    `counter`, when given, is charged each node's m*k*n workload multiplies
    here and its ABFT operations in protect_gemm. `observer`, when given, is
    called as observer(node, A, B, C, record) after each node. `clean`, when
    given with a cfg, is X's clean forward (Dataset.clean_forwards), whose
    outputs, and under a strategy checks, the nodes reuse while the forward
    is on its clean prefix.
    """
    mc = model.cfg
    X = np.asarray(X, dtype=np.float32)
    if X.shape != (mc.seq_len, mc.embed_dim):
        raise ValueError(f"input shape {X.shape} != {(mc.seq_len, mc.embed_dim)}")
    reports: dict[str, tuple] = {}
    prefix = clean  # None once a node's output may differ from the clean one

    def run(gemm_id: str, A, B=None):
        """One GEMM node; B defaults to the node's weight matrix."""
        nonlocal prefix
        node = model.node_by_id[gemm_id]
        if B is None:
            B = model.weights[gemm_id]
        if counter is not None:
            counter.workload_mults += node.shape.macs
        if cfg is None:
            C = gemm(A, B)
            rec = None
        else:
            node_cfg = cfg.restricted(node.gemm_id)
            stream = RngStream(cfg.seed, node.gemm_id, trial, sample)
            rec = FaultRecord() if observer is not None else None
            C0 = check = None
            if prefix is not None:
                C0 = prefix.outputs[node.gemm_id]
                if strategy is not None:
                    check = prefix.check(node.gemm_id, A, B)
            if strategy is None:
                C = faulty_gemm(A, B, node_cfg, stream, record=rec, clean=C0)
            else:
                ts = STRICT if thresholds is None else thresholds[node.gemm_id]
                C, det, corr = protect_gemm(A, B, node_cfg, strategy, ts, stream, counter, record=rec,
                                            clean=C0, check=check)
                reports[node.gemm_id] = (det, corr)
            # Every node so far returned its clean output itself, so this
            # node's operands are the clean forward's. A node that drew a
            # flip, or whose detection triggered (correction copies), returns
            # a new array, and the operands of later nodes may differ.
            if C is not C0:
                prefix = None
        if observer is not None:
            observer(node, A, B, C, rec)
        return C

    inv_sqrt_hd = np.float32(1.0 / math.sqrt(mc.head_dim))
    x = X
    # Injected faults legitimately produce overflow/NaN; let them propagate
    # silently instead of warning on every arithmetic op.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _forward_body(model, x, run, inv_sqrt_hd), reports


def _forward_body(model: Model, x, run, inv_sqrt_hd):
    mc = model.cfg
    for layer in range(mc.num_layers):
        h = layernorm_rows(x)
        Q = run(f"layer{layer}.attn.q", h)
        K = run(f"layer{layer}.attn.k", h)
        V = run(f"layer{layer}.attn.v", h)
        head_outs = []
        for hh in range(mc.num_heads):
            lo, hi = hh * mc.head_dim, (hh + 1) * mc.head_dim
            Qh = (Q[:, lo:hi] * inv_sqrt_hd).astype(np.float32)
            KhT = np.ascontiguousarray(K[:, lo:hi].T)
            S = run(f"layer{layer}.attn.head{hh}.score", Qh, KhT)
            P = softmax_rows(S)
            Vh = np.ascontiguousarray(V[:, lo:hi])
            head_outs.append(run(f"layer{layer}.attn.head{hh}.value", P, Vh))
        O = np.concatenate(head_outs, axis=1)
        attn = run(f"layer{layer}.attn.out", O)
        x = (x + attn).astype(np.float32)
        h2 = layernorm_rows(x)
        F1 = run(f"layer{layer}.ff.in", h2)
        G = gelu(F1)
        F2 = run(f"layer{layer}.ff.out", G)
        x = (x + F2).astype(np.float32)
    pooled = x.mean(axis=0, dtype=np.float32).reshape(1, mc.embed_dim)
    logits = run("classifier", pooled)
    return logits.ravel()


@dataclass
class Dataset:
    inputs: list
    labels: list
    # Per sample, its clean forward or None, and the model that ran them;
    # evaluate reuses them on that model only
    clean_forwards: list[CleanForward | None] | None = None
    clean_model: Model | None = field(default=None, compare=False, repr=False)


# Bound on the clean forwards a dataset keeps, in bytes, give or take one
# sample's: 32 MiB, about 590 samples of the default model (45 KB of outputs
# and 12 KB of the float64 checksums its CleanChecks can store, each).
# Later samples keep none, and their faulty forwards run in full.
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
    labels, clean_forwards, kept = [], [], 0
    for x in inputs:
        outputs: dict[str, np.ndarray] | None = {} if kept < _CLEAN_OUTPUT_BYTES else None

        def keep(node, A, B, C, rec):
            nonlocal kept
            C.flags.writeable = False  # every faulty forward of x reads it
            outputs[node.gemm_id] = C
            kept += C.nbytes + 16 * node.shape.k  # and its checksums' k + k float64

        labels.append(int(np.argmax(forward(model, x, observer=None if outputs is None else keep)[0])))
        clean_forwards.append(None if outputs is None else CleanForward(outputs))
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
