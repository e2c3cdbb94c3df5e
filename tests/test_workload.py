import numpy as np
import pytest

from conftest import NoGen, plan_arrays, plan_cells, plan_for
from ftgemm.faults import FaultConfig, FaultRecord, RngStream, faulty_gemm
from ftgemm.abft import ThresholdSet, protect_gemm, strategy_from_name
from ftgemm import abft, workload
from ftgemm.tensor_core import OpCounter
from ftgemm.workload import (
    Dataset,
    ModelConfig,
    build_model,
    evaluate,
    forward,
    generate_dataset,
)


def test_default_node_count_and_order(default_model):
    nodes = default_model.nodes
    assert len(nodes) == 21
    assert nodes[0].gemm_id == "layer0.attn.q"
    assert nodes[-1].gemm_id == "classifier"
    assert len({n.gemm_id for n in nodes}) == 21


def test_score_node_shape(default_model):
    node = default_model.node_by_id["layer0.attn.head0.score"]
    assert tuple(node.shape) == (16, 16, 16)
    assert default_model.node_by_id["layer0.ff.in"].shape == (16, 32, 128)
    assert default_model.node_by_id["classifier"].shape == (1, 32, 10)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(embed_dim=30, num_heads=4)
    with pytest.raises(ValueError):
        ModelConfig(num_layers=0)


def test_weights_deterministic():
    m1 = build_model(ModelConfig(weight_seed=5))
    m2 = build_model(ModelConfig(weight_seed=5))
    for gid in m1.weights:
        np.testing.assert_array_equal(m1.weights[gid], m2.weights[gid])


def test_clean_forward_deterministic(default_model, small_dataset):
    x = small_dataset.inputs[0]
    l1, _ = forward(default_model, x)
    l2, _ = forward(default_model, x)
    np.testing.assert_array_equal(l1, l2)
    assert l1.shape == (10,)


def test_ber_zero_passthrough(default_model, small_dataset):
    x = small_dataset.inputs[0]
    clean, _ = forward(default_model, x)
    cfg = FaultConfig(0.0, 99)
    unprot, _ = forward(default_model, x, cfg)
    prot, reports = forward(default_model, x, cfg, strategy_from_name("baseline"))
    np.testing.assert_array_equal(clean, unprot)
    np.testing.assert_array_equal(clean, prot)
    assert all(not det.triggered for det, _ in reports.values())


def test_dataset_self_labeled(default_model, small_dataset):
    assert evaluate(default_model, small_dataset).accuracy == 1.0
    assert all(0 <= y < 10 for y in small_dataset.labels)


def test_dataset_deterministic(default_model):
    d1 = generate_dataset(default_model, 4, 17)
    d2 = generate_dataset(default_model, 4, 17)
    assert d1.labels == d2.labels
    np.testing.assert_array_equal(d1.inputs[0], d2.inputs[0])


def test_scope_completeness_counter(default_model, small_dataset):
    # each node runs exactly once; a clean, an unprotected and a protected
    # forward each charge the analytic workload mults
    faulty = FaultConfig(1e-4, 3)
    for cfg, strategy in [(None, None), (faulty, None), (faulty, strategy_from_name("baseline"))]:
        seen = []
        c = OpCounter()
        forward(default_model, small_dataset.inputs[0], cfg, strategy, counter=c,
                observer=lambda node, A, B, C, rec: seen.append(node.gemm_id))
        assert sorted(seen) == sorted(n.gemm_id for n in default_model.nodes)
        assert c.workload_mults == sum(n.shape.macs for n in default_model.nodes)
    # protect_gemm charges ABFT operations only
    c = OpCounter()
    X = np.ones((3, 3), np.float32)
    protect_gemm(X, X, plan_for(X, X, faulty, RngStream(1)), strategy_from_name("baseline"), ThresholdSet(), c)
    assert c.workload_mults == 0 and c.abft_mults > 0


def test_faulty_forward_deterministic(default_model, small_dataset):
    cfg = FaultConfig(1e-4, 31)
    a, _ = forward(default_model, small_dataset.inputs[1], cfg, trial=2, sample=5)
    b, _ = forward(default_model, small_dataset.inputs[1], cfg, trial=2, sample=5)
    np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))


def test_injection_scope_restriction(default_model, small_dataset):
    x = small_dataset.inputs[2]
    clean, _ = forward(default_model, x)
    cfg = FaultConfig(1e-3, 13, scope=frozenset({"layer0.ff.in"}))
    faulty, _ = forward(default_model, x, cfg, trial=0)
    assert not np.array_equal(faulty, clean)
    # empty scope: no injection anywhere
    cfg0 = FaultConfig(1e-3, 13, scope=frozenset())
    same, _ = forward(default_model, x, cfg0, trial=0)
    np.testing.assert_array_equal(same, clean)


def test_forced_single_fault_restored_end_to_end(default_model, small_dataset):
    # large fault confined to one GEMM; baseline protection restores logits
    x = small_dataset.inputs[3]
    clean, _ = forward(default_model, x)
    cfg = FaultConfig(2e-6, 7, scope=frozenset({"layer0.ff.in"}))
    strat = strategy_from_name("baseline")
    # pick a trial where exactly one fault landed and was corrected
    for trial in range(60):
        logits, reports = forward(default_model, x, cfg, strat, trial=trial)
        det, corr = reports["layer0.ff.in"]
        if det.triggered and corr.exact_corrected == 1 and corr.ignored == 0:
            np.testing.assert_allclose(logits, clean, atol=1e-2)
            return
    pytest.fail("no single-fault trial found in 60 seeds")


def test_accuracy_monotone_in_protection(default_model, small_dataset):
    cfg = FaultConfig(1e-5, 101)
    acc_none = np.mean([
        evaluate(default_model, small_dataset, cfg, None, trial=t).accuracy
        for t in range(5)
    ])
    acc_opt = np.mean([
        evaluate(default_model, small_dataset, cfg, strategy_from_name("opt"), trial=t).accuracy
        for t in range(5)
    ])
    assert acc_opt >= acc_none


def test_thresholds_missing_a_gemm_raise(default_model, small_dataset):
    # a thresholds dict must name every GEMM; None alone means strict everywhere
    with pytest.raises(KeyError):
        evaluate(default_model, small_dataset, FaultConfig(1e-5, 55), strategy_from_name("opt"),
                 {"classifier": ThresholdSet()})


def test_input_shape_check(default_model):
    with pytest.raises(ValueError):
        forward(default_model, np.zeros((4, 4), np.float32))


def test_evaluate_aggregates(default_model, small_dataset):
    cfg = FaultConfig(1e-5, 55)
    stats = evaluate(default_model, small_dataset, cfg,
                     strategy_from_name("baseline"), trial=0)
    assert stats.detections_triggered > 0
    assert stats.exact_corrected + stats.ignored > 0
    assert stats.approx_corrected == 0


MEMO_STRATEGIES = ("none", "baseline", "opt", "opt-avg")


@pytest.mark.parametrize("ber, scope", [
    (1e-5, None), (1e-4, None), (1e-4, frozenset({"layer0.ff.in", "layer1.attn.head0.score"})),
])
def test_shared_draw_memo_matches_fresh_configs(default_model, small_dataset, ber, scope):
    data = Dataset(small_dataset.inputs[:4], small_dataset.labels[:4])
    shared = FaultConfig(ber, 41, scope=scope, memo={})
    for trial in range(2):
        for name in MEMO_STRATEGIES:
            got_counter, want_counter = OpCounter(), OpCounter()
            strategy = strategy_from_name(name)
            got = evaluate(default_model, data, shared, strategy, None, got_counter, trial=trial)
            want = evaluate(default_model, data, FaultConfig(ber, 41, scope=scope), strategy,
                            None, want_counter, trial=trial)
            assert (got, got_counter) == (want, want_counter)
    # one entry per (trial, sample, node) that the scope leaves a nonzero BER
    nodes = len(default_model.nodes) if scope is None else len(scope)
    assert len(shared.memo) == 2 * len(data.inputs) * nodes


def test_shared_draw_memo_forward_bits_and_records(default_model, small_dataset):
    x = small_dataset.inputs[5]
    shared = FaultConfig(1e-4, 43, memo={})

    def run(cfg, strategy):
        seen = {}

        def observe(node, A, B, C, plan):
            seen[node.gemm_id] = plan_cells(plan, C)

        logits, _ = forward(default_model, x, cfg, strategy, trial=3, sample=5, observer=observe)
        return logits.view(np.uint32).copy(), seen

    for name in MEMO_STRATEGIES:
        strategy = strategy_from_name(name)
        got_logits, got_records = run(shared, strategy)
        want_logits, want_records = run(FaultConfig(1e-4, 43), strategy)
        np.testing.assert_array_equal(got_logits, want_logits)
        assert got_records.keys() == want_records.keys()
        for gid, (cells, flips) in want_records.items():
            np.testing.assert_array_equal(got_records[gid][0], cells)
            assert got_records[gid][1] == flips
    assert sum(flips for _, flips in want_records.values()) > 0


def _count_streams(monkeypatch):
    """Lists that record, from here on, every RngStream built (its
    arguments) and every generator seeded (its SeedSequence entropy)."""
    built, seeded = [], []
    init, seed_sequence = RngStream.__init__, np.random.SeedSequence

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    def counted_seed_sequence(entropy):
        seeded.append(np.asarray(entropy).tobytes())
        return seed_sequence(entropy)

    monkeypatch.setattr(RngStream, "__init__", counted_init)
    monkeypatch.setattr(np.random, "SeedSequence", counted_seed_sequence)
    return built, seeded


@pytest.mark.parametrize("scope", [None, frozenset({"layer0.attn.q", "layer1.ff.out", "classifier"})])
def test_a_faulty_forward_builds_each_stream_and_generator_once(monkeypatch, default_model, small_dataset, scope):
    x = small_dataset.inputs[1]
    built, seeded = _count_streams(monkeypatch)
    nodes = len(default_model.nodes) if scope is None else len(scope)
    forward(default_model, x, FaultConfig(0.0, 47, scope=scope), trial=2, sample=1)
    assert len(built) == len(default_model.nodes) and not seeded  # a BER-0 node never seeds a generator
    for strategy in (None, strategy_from_name("opt")):  # without a memo, each forward plans its own
        built.clear(), seeded.clear()
        forward(default_model, x, FaultConfig(1e-4, 47, scope=scope), strategy, trial=2, sample=1)
        assert len(built) == len(default_model.nodes)
        assert len(seeded) == len(set(seeded)) == nodes
    # with a memo, a forward of the same streams builds every stream and no generator
    cfg = FaultConfig(1e-4, 47, scope=scope, memo={})
    want, _ = forward(default_model, x, cfg, trial=2, sample=1)
    assert len(cfg.memo) == nodes
    built.clear(), seeded.clear()
    monkeypatch.setattr(RngStream, "gen", property(lambda stream: NoGen()))
    for strategy in (None, strategy_from_name("opt")):
        got, _ = forward(default_model, x, cfg, strategy, trial=2, sample=1)
        if strategy is None:
            np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
    assert len(built) == 2 * len(default_model.nodes) and not seeded


def test_a_forwards_batch_plans_what_each_node_plans_alone(default_model, small_dataset):
    # each node of a forward, planned in one batch with the others, replays
    # what a direct faulty_gemm call draws on its own fresh stream, or, out
    # of scope, a call without a plan
    seen = []
    cfg = FaultConfig(1e-4, 51, scope=frozenset(n.gemm_id for n in default_model.nodes[:-1]))

    def observe(node, A, B, C, plan):
        seen.append((node.gemm_id, A, B, C.view(np.uint32).copy(), *plan_cells(plan, C)))

    forward(default_model, small_dataset.inputs[3], cfg, trial=4, sample=3, observer=observe)
    assert len(seen) == len(default_model.nodes) and sum(flips > 0 for *_, flips in seen) > 10
    for gemm_id, A, B, C, cells, flips in seen:
        rec = FaultRecord()
        plan = plan_for(A, B, cfg, RngStream(51, gemm_id, 4, 3)) if gemm_id in cfg.scope else None
        alone = faulty_gemm(A, B, plan, record=rec)
        np.testing.assert_array_equal(alone.view(np.uint32), C)
        np.testing.assert_array_equal(rec.error_cells, cells)
        assert rec.flips == flips


def test_a_forwards_memoized_plans_are_read_only(default_model, small_dataset):
    cfg = FaultConfig(1e-4, 49, memo={})
    forward(default_model, small_dataset.inputs[2], cfg, strategy_from_name("baseline"), trial=1, sample=2)
    plans = [plan for plan in cfg.memo.values() if plan is not None]
    assert len(cfg.memo) == len(default_model.nodes) and len(plans) > 1
    assert any(plan.rounds for plan in plans)
    for plan in plans:
        for array in plan_arrays(plan):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0


def _run_full_and_reused(model, data, cfg, strategy, thresholds):
    """(EvalStats, OpCounter, and per sample its logits bits, every named
    value's bits, per-node error cells and flips, and per-node reports,
    detection floats as bits), for data as given and for the same data without its
    clean forwards; and per forward of data that has a clean forward, for
    each GEMM node in order, whether it returned the stored output itself."""
    full = Dataset(data.inputs, data.labels)
    runs, reused = [], []
    for dataset in (data, full):
        counter = OpCounter()
        stats = evaluate(model, dataset, cfg, strategy, thresholds, counter, trial=1)
        forwards = []
        for idx, x in enumerate(dataset.inputs):
            records, values, hits = {}, {}, []
            clean = None if dataset.clean_forwards is None else dataset.clean_forwards[idx]

            def observe(node, A, B, C, plan):
                cells, flips = plan_cells(plan, C)
                records[node.gemm_id] = (cells.tobytes(), flips)
                hits.append(clean is not None and C is clean.values[node.gemm_id])

            logits, reports = forward(model, x, cfg, strategy, thresholds, trial=1, sample=idx,
                                      observer=observe, clean=clean, values=values)
            reports = {gid: (np.float64(det.msd).tobytes(), np.float64(det.threshold).tobytes(),
                             det.triggered, corr) for gid, (det, corr) in reports.items()}
            values = {name: v.tobytes() for name, v in values.items()}
            forwards.append((logits.tobytes(), values, records, reports))
            if clean is not None:
                reused.append(hits)
        runs.append((stats, counter, forwards))
    return runs, reused


def _leading(hits):
    """How many nodes of a forward returned their stored output before the
    first that did not."""
    return next((i for i, hit in enumerate(hits) if not hit), len(hits))


SCOPE = frozenset({"layer0.ff.in", "layer1.attn.head0.score"})
# Fault seed 43 (trial 1) flips these nodes of samples 0 | 1 | 2 | 3 (node
# i is default_model.nodes[i]; 0-2 are layer0.attn.q, k, v, 10-12 layer 1's,
# 8 layer0.ff.in, 13 layer1.attn.head0.score, 20 the classifier):
#   1e-8: 19 | 10 | - | -
#   1e-7: 16-19 | 10, 11, 19 | 8 | -
#   1e-5 and 1e-4: 0-2 of each sample, and most others
#   SCOPE at 1e-5: 8, 13 | 8, 13 | 8 | 8, 13
# A node returns its stored output when neither it nor any node whose
# output it reads, directly or through other steps, draws a flip. A flip in
# layer1.attn.q taints layer 1's scores and everything after them, but not
# layer1.attn.k or .v; one in layer1.attn.k spares .v alone. So the nodes
# reused per sample are 19 + 12 + 21 + 21 at 1e-8, 16 + 11 + 8 + 21 at
# 1e-7 (sample 1 keeps 0-9 and 12), none from 1e-5 and 4 * 8 in SCOPE.
# clean_prefix counts the nodes before each forward's first flip.
DATAFLOW_HITS = {(0.0, None): 84, (1e-8, None): 73, (1e-7, None): 56, (1e-5, None): 0, (1e-4, None): 0,
                 (1e-5, SCOPE): 32}


@pytest.mark.parametrize("ber, scope, clean_prefix", [
    (0.0, None, 84), (1e-8, None, 19 + 10 + 21 + 21), (1e-7, None, 16 + 10 + 8 + 21),
    (1e-5, None, 0), (1e-4, None, 0), (1e-5, SCOPE, 4 * 8),
])
def test_reused_clean_outputs_match_the_full_forward(default_model, small_dataset, ber, scope, clean_prefix):
    # a faulty forward that reads clean values from the dataset gives what
    # the same forward gives without them, for every strategy, every named
    # value included, and reuses exactly the nodes no flip reaches
    n = 4
    data = Dataset(small_dataset.inputs[:n], small_dataset.labels[:n], small_dataset.clean_forwards[:n])
    relaxed = {node.gemm_id: ThresholdSet(1e-2, 1e-3, 1e-3) for node in default_model.nodes}
    for name in MEMO_STRATEGIES:
        strategy = strategy_from_name(name)
        thresholds = relaxed if name.startswith("opt") else None
        cfg = FaultConfig(ber, 43, scope=scope, memo={})
        (reused, full), hits = _run_full_and_reused(default_model, data, cfg, strategy, thresholds)
        assert reused == full
        flips = sum(f for _, _, records, _ in full[2] for _, f in records.values())
        assert (flips > 0) == (ber > 0)
        assert sum(map(sum, hits)) == DATAFLOW_HITS[ber, scope]
        assert sum(map(_leading, hits)) == clean_prefix


def test_clean_outputs_stop_at_their_memory_bound(monkeypatch, default_model, small_dataset):
    # a sample's bytes count every step's value of its clean forward (not
    # the input or the weights, which the dataset and the model keep anyway)
    # and the float64 checksums (k + k per node) its checks can store;
    # samples past the bound keep no clean forward, and their faulty
    # forwards run the full path
    values = small_dataset.clean_forwards[0].values
    per_sample = sum(values[step.name].nbytes for step in default_model.steps)
    per_sample += sum(16 * node.shape.k for node in default_model.nodes)
    assert per_sample == 98472 + 11776
    monkeypatch.setattr(workload, "_CLEAN_OUTPUT_BYTES", per_sample + 1)
    data = generate_dataset(default_model, 4, data_seed=23)
    assert [clean is None for clean in data.clean_forwards] == [False, False, True, True]
    monkeypatch.setattr(workload, "_CLEAN_OUTPUT_BYTES", per_sample)
    assert [clean is None for clean in generate_dataset(default_model, 4, 23).clean_forwards] == [
        False, True, True, True]
    cfg = FaultConfig(1e-8, 43, memo={})
    (reused, full), hits = _run_full_and_reused(default_model, data, cfg, strategy_from_name("baseline"), None)
    assert reused == full and sum(map(sum, hits)) == 19 + 12 and len(hits) == 2


def test_a_one_head_model_reuses_what_it_computes_in_full():
    # with one head the concatenation has a single input; labelling and
    # every strategy's faulty forwards run, and reuse gives the full path's bits
    model = build_model(ModelConfig(num_heads=1))
    data = generate_dataset(model, 3, data_seed=23)
    for ber in (0.0, 1e-7, 1e-5):
        for name in MEMO_STRATEGIES:
            cfg = FaultConfig(ber, 43, memo={})
            (reused, full), hits = _run_full_and_reused(model, data, cfg, strategy_from_name(name), None)
            assert reused == full
            assert (sum(map(sum, hits)) == 3 * len(model.nodes)) == (ber == 0.0)


def test_clean_outputs_are_reused_on_their_model_only(default_model, small_dataset):
    # labels from one model, evaluated on another: no clean output is reused
    other = build_model(ModelConfig(weight_seed=12))
    full = Dataset(small_dataset.inputs, small_dataset.labels)
    for cfg in (FaultConfig(0.0, 3), FaultConfig(1e-8, 3)):
        got, want = OpCounter(), OpCounter()
        stats = evaluate(other, small_dataset, cfg, strategy_from_name("baseline"), counter=got)
        assert (stats, got) == (evaluate(other, full, cfg, strategy_from_name("baseline"), counter=want), want)
        assert stats.accuracy < 1.0


def test_another_model_reuses_no_value_that_reads_a_weight():
    # another model's weights are not the arrays the clean forwards store,
    # so no GEMM node returns a stored output, and every value, the logits
    # and the counts are those of the same inputs without clean forwards
    data = generate_dataset(build_model(ModelConfig(weight_seed=0)), 4, data_seed=23)
    other = build_model(ModelConfig(weight_seed=1))
    for ber in (0.0, 1e-8):
        for name in ("none", "baseline"):
            cfg = FaultConfig(ber, 43, memo={})
            (reused, full), hits = _run_full_and_reused(other, data, cfg, strategy_from_name(name), None)
            assert reused == full
            assert len(hits) == 4 and not any(map(any, hits))


def test_clean_forwards_are_reused_for_their_own_inputs_only(default_model, small_dataset):
    # clean forwards paired with other inputs: each forward tests its input
    # by identity, finds it is not the clean forward's, and runs in full
    other = generate_dataset(default_model, 4, data_seed=29)
    swapped = Dataset(other.inputs, other.labels, small_dataset.clean_forwards[:4])
    full = Dataset(other.inputs, other.labels)
    for cfg in (FaultConfig(0.0, 3), FaultConfig(1e-8, 3)):
        for name in ("none", "baseline"):
            got, want = OpCounter(), OpCounter()
            stats = evaluate(default_model, swapped, cfg, strategy_from_name(name), counter=got)
            assert (stats, got) == (evaluate(default_model, full, cfg, strategy_from_name(name), counter=want),
                                    want)
            assert stats.accuracy == 1.0


def _values(model, x, cfg, strategy, clean=None):
    values = {}
    forward(model, x, cfg, strategy, clean=clean, values=values)
    return values


def test_a_ber_zero_forward_returns_every_stored_value(default_model, small_dataset):
    clean = small_dataset.clean_forwards[0]
    assert len(clean.values) == 1 + len(default_model.weights) + len(default_model.steps)
    for name in ("none", "baseline"):
        values = _values(default_model, small_dataset.inputs[0], FaultConfig(0.0, 3), strategy_from_name(name),
                         clean)
        assert values.keys() == clean.values.keys()
        assert all(values[key] is stored for key, stored in clean.values.items())


def test_a_flip_in_q_leaves_k_and_v_reused(default_model):
    # every flip of the forward is in layer0.attn.q; .k and .v read the
    # clean layernorm output, so they return their stored outputs and store
    # their CleanChecks, and so do the head slices of K and V
    clean = generate_dataset(default_model, 1, data_seed=23).clean_forwards[0]
    x, stored = clean.values["input"], clean.values
    cfg = FaultConfig(1e-4, 43, scope=frozenset({"layer0.attn.q"}))
    values = _values(default_model, x, cfg, strategy_from_name("baseline"), clean)
    a = "layer0.attn"
    reused = {f"{a}.norm", f"{a}.k", f"{a}.v", f"{a}.head0.kT", f"{a}.head0.v", f"{a}.head1.kT", f"{a}.head1.v"}
    assert {key for key, v in values.items() if v is stored[key]} == {"input", *default_model.weights, *reused}
    assert set(clean.checks) == {f"{a}.q", f"{a}.k", f"{a}.v"}
    full = _values(default_model, x, cfg, strategy_from_name("baseline"))
    assert all(values[key].tobytes() == v.tobytes() for key, v in full.items())


def test_a_flip_in_one_head_leaves_the_other_reused(default_model, small_dataset):
    # every flip is in layer0.attn.head0.score. head1's score and value read
    # clean operands and return their stored outputs. head0.value (probs
    # faulty, v clean) and the concatenation (head0 faulty, head1 clean)
    # have one faulty input each, and are recomputed.
    x, stored = small_dataset.inputs[1], small_dataset.clean_forwards[1].values
    cfg = FaultConfig(1e-4, 43, scope=frozenset({"layer0.attn.head0.score"}))
    for name in MEMO_STRATEGIES:
        values = _values(default_model, x, cfg, strategy_from_name(name), small_dataset.clean_forwards[1])
        a = "layer0.attn"
        assert {key for key, v in values.items() if v is stored[key]} == {
            "input", *default_model.weights, f"{a}.norm", f"{a}.q", f"{a}.k", f"{a}.v", f"{a}.head0.q", f"{a}.head0.kT", f"{a}.head0.v",
            f"{a}.head1.q", f"{a}.head1.kT", f"{a}.head1.score", f"{a}.head1.probs", f"{a}.head1.v",
            f"{a}.head1.value"}
        full = _values(default_model, x, cfg, strategy_from_name(name))
        for key in (f"{a}.head0.value", f"{a}.concat"):
            assert values[key].tobytes() == full[key].tobytes() != stored[key].tobytes()
        assert values["classifier"].tobytes() == full["classifier"].tobytes()


def test_stored_clean_detection_that_triggers_ends_the_prefix(monkeypatch, default_model):
    # with no round-off floor, a clean output's own round-off fires strict
    # detection: from its stored MSD when its operands are clean, as from
    # detect on the full path. Correction copies, so the strict node and
    # what reads it are recomputed: of layer0.attn.head0.score's forward,
    # q, k, v and head1's score and value still return their stored outputs.
    # The other nodes have thresholds far above round-off.
    monkeypatch.setattr(abft, "REL_EPS", 0.0)
    data = generate_dataset(default_model, 4, data_seed=23)  # its checks are stored with no floor
    ids = [node.gemm_id for node in default_model.nodes]
    thresholds = {gid: ThresholdSet(0.0 if i == 3 else 1.0) for i, gid in enumerate(ids)}
    for ber in (0.0, 1e-8):
        cfg = FaultConfig(ber, 43, memo={})
        (reused, full), hits = _run_full_and_reused(default_model, data, cfg, strategy_from_name("opt"),
                                                    thresholds)
        assert reused == full
        assert hits == [[True] * 3 + [False, False, True, True] + [False] * 14] * 4
        assert all(reports[ids[3]][2] for _, _, _, reports in full[2])


def test_stored_checks_serve_later_forwards_only_from_the_clean_prefix(monkeypatch, default_model):
    # a BER 1e-5 forward flips layer0.attn.q, k and v of every sample, so it
    # may store only their checks, whose operands are the clean layernorm
    # output; BER 0 forwards then store the rest from clean operands, and a
    # second one computes no checksum and runs no detect
    data = generate_dataset(default_model, 4, data_seed=23)
    baseline = strategy_from_name("baseline")
    evaluate(default_model, data, FaultConfig(1e-5, 43), baseline)
    qkv = [node.gemm_id for node in default_model.nodes[:3]]
    assert [list(clean.checks) for clean in data.clean_forwards] == [qkv] * 4
    (reused, full), hits = _run_full_and_reused(default_model, data, FaultConfig(0.0, 43), baseline, None)
    assert reused == full and sum(map(sum, hits)) == 4 * 21
    calls = []
    for name in ("precompute_checksums", "detect"):
        def counted(*args, _stage=getattr(abft, name), _name=name, **kwargs):
            calls.append(_name)
            return _stage(*args, **kwargs)
        monkeypatch.setattr(abft, name, counted)
    got, want = OpCounter(), OpCounter()
    stats = evaluate(default_model, data, FaultConfig(0.0, 43), baseline, counter=got)
    assert calls == []
    assert (stats, got) == (evaluate(default_model, Dataset(data.inputs, data.labels), FaultConfig(0.0, 43),
                                     baseline, counter=want), want)
    assert calls.count("precompute_checksums") == calls.count("detect") == 4 * 21
