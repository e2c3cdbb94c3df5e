import numpy as np
import pytest

from ftgemm.faults import FaultConfig, RngStream
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
    protect_gemm(X, X, faulty, strategy_from_name("baseline"), ThresholdSet(), RngStream(1), c)
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

        def observe(node, A, B, C, rec):
            seen[node.gemm_id] = (rec.error_cells.copy(), rec.flips)

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


def _run_full_and_reused(model, data, cfg, strategy, thresholds):
    """(EvalStats, OpCounter, and per sample its logits bits, per-node
    FaultRecords and per-node reports, detection floats as bits), for data
    as given and for the same data without its clean forwards, and how many
    nodes returned a clean output itself."""
    full = Dataset(data.inputs, data.labels)
    runs, reused = [], []
    for dataset in (data, full):
        counter = OpCounter()
        stats = evaluate(model, dataset, cfg, strategy, thresholds, counter, trial=1)
        forwards = []
        for idx, x in enumerate(dataset.inputs):
            records = {}
            clean = None if dataset.clean_forwards is None else dataset.clean_forwards[idx]

            def observe(node, A, B, C, rec):
                records[node.gemm_id] = (rec.error_cells.tobytes(), rec.flips)
                reused.append(clean is not None and C is clean.outputs[node.gemm_id])

            logits, reports = forward(model, x, cfg, strategy, thresholds, trial=1, sample=idx,
                                      observer=observe, clean=clean)
            reports = {gid: (np.float64(det.msd).tobytes(), np.float64(det.threshold).tobytes(),
                             det.triggered, corr) for gid, (det, corr) in reports.items()}
            forwards.append((logits.tobytes(), records, reports))
        runs.append((stats, counter, forwards))
    return runs, sum(reused)


# fault seed 43 first flips nodes 19 and 10 of samples 0 and 1 at 1e-8
# (none of 2, 3), nodes 16, 10 and 8 of samples 0-2 at 1e-7 (none of 3),
# and node 0 of each sample from 1e-5; in scope, layer0.ff.in is node 8
@pytest.mark.parametrize("ber, scope, clean_prefix", [
    (0.0, None, 84), (1e-8, None, 19 + 10 + 21 + 21), (1e-7, None, 16 + 10 + 8 + 21),
    (1e-5, None, 0), (1e-4, None, 0),
    (1e-5, frozenset({"layer0.ff.in", "layer1.attn.head0.score"}), 4 * 8),
])
def test_reused_clean_outputs_match_the_full_forward(default_model, small_dataset, ber, scope, clean_prefix):
    # a faulty forward that reads its clean prefix from the dataset gives
    # what the same forward gives without it, for every strategy, and
    # reuses exactly the nodes before its first flipped one
    n = 4
    data = Dataset(small_dataset.inputs[:n], small_dataset.labels[:n], small_dataset.clean_forwards[:n],
                   default_model)
    relaxed = {node.gemm_id: ThresholdSet(1e-2, 1e-3, 1e-3) for node in default_model.nodes}
    for name in MEMO_STRATEGIES:
        strategy = strategy_from_name(name)
        thresholds = relaxed if name.startswith("opt") else None
        cfg = FaultConfig(ber, 43, scope=scope, memo={})
        (reused, full), hits = _run_full_and_reused(default_model, data, cfg, strategy, thresholds)
        assert reused == full
        flips = sum(f for _, records, _ in full[2] for _, f in records.values())
        assert (flips > 0) == (ber > 0)
        assert hits == clean_prefix


def test_clean_outputs_stop_at_their_memory_bound(monkeypatch, default_model, small_dataset):
    # a sample's bytes count its outputs and the float64 checksums (k + k
    # per node) its checks can store; samples past the bound keep no clean
    # forward, and their faulty forwards run the full path
    outputs = sum(C.nbytes for C in small_dataset.clean_forwards[0].outputs.values())
    per_sample = outputs + sum(16 * node.shape.k for node in default_model.nodes)
    assert per_sample == 45096 + 11776
    monkeypatch.setattr(workload, "_CLEAN_OUTPUT_BYTES", per_sample + 1)
    data = generate_dataset(default_model, 4, data_seed=23)
    assert [clean is None for clean in data.clean_forwards] == [False, False, True, True]
    monkeypatch.setattr(workload, "_CLEAN_OUTPUT_BYTES", per_sample)
    assert [clean is None for clean in generate_dataset(default_model, 4, 23).clean_forwards] == [
        False, True, True, True]
    cfg = FaultConfig(1e-8, 43, memo={})
    (reused, full), hits = _run_full_and_reused(default_model, data, cfg, strategy_from_name("baseline"), None)
    assert reused == full and hits == 19 + 10


def test_clean_outputs_are_reused_on_their_model_only(default_model, small_dataset):
    # labels from one model, evaluated on another: no clean output is reused
    other = build_model(ModelConfig(weight_seed=12))
    full = Dataset(small_dataset.inputs, small_dataset.labels)
    for cfg in (FaultConfig(0.0, 3), FaultConfig(1e-8, 3)):
        got, want = OpCounter(), OpCounter()
        stats = evaluate(other, small_dataset, cfg, strategy_from_name("baseline"), counter=got)
        assert (stats, got) == (evaluate(other, full, cfg, strategy_from_name("baseline"), counter=want), want)
        assert stats.accuracy < 1.0


def test_stored_clean_detection_that_triggers_ends_the_prefix(monkeypatch, default_model):
    # with no round-off floor, a clean output's own round-off fires strict
    # detection: from its stored MSD on the prefix, as from detect on the
    # full path. Correction copies, so the prefix ends at the first strict
    # node; the nodes before it have thresholds far above round-off.
    monkeypatch.setattr(abft, "REL_EPS", 0.0)
    data = generate_dataset(default_model, 4, data_seed=23)  # its checks are stored with no floor
    ids = [node.gemm_id for node in default_model.nodes]
    thresholds = {gid: ThresholdSet(1.0 if i < 5 else 0.0) for i, gid in enumerate(ids)}
    for ber in (0.0, 1e-8):
        cfg = FaultConfig(ber, 43, memo={})
        (reused, full), hits = _run_full_and_reused(default_model, data, cfg, strategy_from_name("opt"),
                                                    thresholds)
        assert reused == full
        assert hits == 4 * 5
        assert all(reports[ids[5]][2] for _, _, reports in full[2])


def test_stored_checks_serve_later_forwards_only_from_the_clean_prefix(monkeypatch, default_model):
    # a BER 1e-5 forward flips node 0 of every sample, so it may store node
    # 0's checks only; BER 0 forwards then store the rest from clean
    # operands, and a second one computes no checksum and runs no detect
    data = generate_dataset(default_model, 4, data_seed=23)
    baseline = strategy_from_name("baseline")
    evaluate(default_model, data, FaultConfig(1e-5, 43), baseline)
    assert [list(clean.checks) for clean in data.clean_forwards] == [[default_model.nodes[0].gemm_id]] * 4
    (reused, full), hits = _run_full_and_reused(default_model, data, FaultConfig(0.0, 43), baseline, None)
    assert reused == full and hits == 4 * 21
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
