import json
import math
import pickle

import numpy as np
import pytest

from conftest import dense_faulty_gemm
from ftgemm import campaign
from ftgemm.abft import STRATEGY_PRESETS, compute_sum_profiles, localize, precompute_checksums, strategy_from_name
from ftgemm.campaign import (
    CampaignConfig,
    ConfigError,
    RESULT_FIELDS,
    compute_stats,
    config_from_dict,
    emit,
    load_results_csv,
    profiles_from_dict,
    profiles_to_dict,
    run_campaign,
    select_gemms,
)
from ftgemm.faults import FaultConfig, RngStream
from ftgemm.thresholds import AlphaAssignment, DeviationProfile, SearchConfig, profile_all
from ftgemm.workload import ModelConfig, build_model, forward, generate_dataset


def make_config(**overrides):
    base = dict(
        model=ModelConfig(weight_seed=11),
        n_samples=6,
        data_seed=23,
        bers=[0.0, 1e-5],
        strategies=["none", "baseline"],
        trials=2,
        base_seed=7,
    )
    base.update(overrides)
    return CampaignConfig(**base)


@pytest.fixture(scope="module")
def basic_rows():
    return run_campaign(make_config())


def test_row_schema(basic_rows):
    assert len(basic_rows) == 2 * 2 * 2
    for row in basic_rows:
        assert tuple(row) == RESULT_FIELDS


def test_ber_zero_rows(basic_rows):
    for row in basic_rows:
        if row["ber"] == 0.0:
            assert row["accuracy"] == 1.0
            assert row["detections_triggered"] == 0


def test_none_strategy_has_no_abft_cost(basic_rows):
    for row in basic_rows:
        if row["strategy"] == "none":
            assert row["abft_mults"] == 0
            assert row["abft_adds"] == 0
            assert row["abft_comparisons"] == 0


def test_baseline_untriggered_mults_analytic(basic_rows, default_model):
    expected = 6 * sum(n.shape.k for n in default_model.nodes)
    for row in basic_rows:
        if row["strategy"] == "baseline" and row["ber"] == 0.0:
            assert row["abft_mults"] == expected


def test_counter_conservation_single_scoped_node(default_model):
    # faults confined to one node: every trigger charges that node's 2 MVs
    node = default_model.node_by_id["layer1.ff.in"]
    config = make_config(
        bers=[1e-5], strategies=["baseline"], trials=3,
        scope=frozenset({node.gemm_id}),
    )
    rows = run_campaign(config)
    detect_cost = 6 * sum(n.shape.k for n in default_model.nodes)
    recovery = node.shape.m * node.shape.k + node.shape.k * node.shape.n
    for row in rows:
        assert row["abft_mults"] == detect_cost + row["detections_triggered"] * recovery


def test_campaign_deterministic_and_parallel(tmp_path):
    config = make_config()
    rows_serial = run_campaign(config, workers=1)
    rows_parallel = run_campaign(config, workers=2)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(rows_serial, "csv", p1)
    emit(rows_parallel, "csv", p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_workers_below_one_rejected():
    with pytest.raises(ConfigError):
        run_campaign(make_config(), workers=0)


@pytest.fixture()
def pool_sizes(monkeypatch):
    """Swap the process pool for one that runs its initializer and tasks in
    this process; returns the list of pool sizes asked for."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            return map(fn, tasks)

    monkeypatch.setattr("ftgemm.campaign.ProcessPoolExecutor", InlinePool)
    return sizes


def test_pool_capped_at_task_count(pool_sizes):
    config = make_config(bers=[0.0], strategies=["none"], trials=2)
    rows = run_campaign(config, workers=8)
    assert pool_sizes == [2]
    assert rows == run_campaign(config, workers=1)


@pytest.mark.parametrize("trials, pool", [(1, []), (2, [2])])
def test_pool_capped_at_ber_trial_count(pool_sizes, default_model, small_dataset, trials, pool):
    # one task per (ber, trial) runs every strategy; a single task runs in-process
    profiles = {1e-5: profile_all(default_model, small_dataset.inputs, 1e-5, 2, 7)}
    config = make_config(bers=[1e-5], strategies=["none", "baseline", "opt-avg"], trials=trials,
                         profiles=profiles, alphas=0.0)
    rows = run_campaign(config, workers=8)
    assert pool_sizes == pool
    assert len(rows) == 3 * trials
    assert rows == run_campaign(config, workers=1)


def test_pool_workers_share_the_parent_context(pool_sizes, monkeypatch):
    built = []

    def counting_build_model(cfg):
        built.append(cfg)
        return build_model(cfg)

    monkeypatch.setattr("ftgemm.campaign.build_model", counting_build_model)
    run_campaign(make_config(bers=[0.0], strategies=["none"], trials=2), workers=2)
    assert pool_sizes == [2] and len(built) == 1


def _clean_arrays(dataset):
    return [C for clean in dataset.clean_forwards for C in clean.values.values()]


def test_pool_workers_generate_read_only_clean_outputs(pool_sizes, monkeypatch):
    # the pool pickles its initializer's arguments for every worker; they
    # hold no dataset, so they do not grow with the sample count, and a
    # worker's clean outputs are read-only (unpickled arrays come back
    # writeable)
    sent = []

    def pickling_init_worker(*args):
        sent.append(pickle.dumps(args))
        init_worker(*pickle.loads(sent[-1]))

    init_worker = campaign._init_worker
    monkeypatch.setattr(campaign, "_init_worker", pickling_init_worker)
    monkeypatch.setattr(campaign, "_WORKER_CTX", None)
    for n_samples in (2, 6):
        config = make_config(n_samples=n_samples, bers=[0.0], strategies=["none"], trials=2)
        assert run_campaign(config, workers=2) == run_campaign(config, workers=1)
    assert pool_sizes == [2, 2] and len(sent[0]) == len(sent[1])
    ctx = campaign._WORKER_CTX
    # the worker's clean forwards store its own model's weights, so its forwards reuse them
    assert all(clean.values[name] is weight for clean in ctx.dataset.clean_forwards
               for name, weight in ctx.model.weights.items())
    arrays = _clean_arrays(ctx.dataset)
    assert len(arrays) == 6 * (1 + len(ctx.model.weights) + len(ctx.model.steps))  # every named value
    assert not any(C.flags.writeable for C in arrays)
    want = _clean_arrays(campaign._build_context(config).dataset)
    assert [C.tobytes() for C in arrays] == [C.tobytes() for C in want]


def test_no_strategy_writes_a_clean_output(monkeypatch, default_model, small_dataset):
    # every faulty forward of a campaign reads the clean outputs of its dataset
    datasets = []

    def keeping_generate_dataset(*args):
        datasets.append(generate_dataset(*args))
        return datasets[-1]

    monkeypatch.setattr(campaign, "generate_dataset", keeping_generate_dataset)
    profiles = {1e-4: profile_all(default_model, small_dataset.inputs, 1e-4, 2, 7)}
    config = make_config(n_samples=3, bers=[0.0, 1e-4], strategies=["none", *STRATEGY_PRESETS],
                         trials=1, profiles=profiles, alphas=1e-6)
    rows = run_campaign(config)
    assert len(rows) == 2 * 6 and any(r["detections_triggered"] for r in rows)
    (dataset,) = datasets
    arrays = _clean_arrays(dataset)
    want = _clean_arrays(generate_dataset(default_model, config.n_samples, config.data_seed))
    assert [C.tobytes() for C in arrays] == [C.tobytes() for C in want]
    assert not any(C.flags.writeable for C in arrays)


def test_emit_csv_roundtrip(tmp_path, basic_rows):
    path = tmp_path / "r.csv"
    emit(basic_rows, "csv", path)
    back = load_results_csv(path)
    assert back == sorted(basic_rows, key=lambda r: (r["ber"], r["strategy"], r["trial"]))


def test_emit_csv_roundtrip_numpy_scalars(tmp_path, basic_rows):
    # numpy 2 reprs a float64 as "np.float64(...)"; the CSV must hold the number
    rows = [dict(r, ber=np.float64(r["ber"]), accuracy=np.float64(r["accuracy"])) for r in basic_rows]
    emit(rows, "csv", tmp_path / "np.csv")
    emit(basic_rows, "csv", tmp_path / "plain.csv")
    assert (tmp_path / "np.csv").read_text() == (tmp_path / "plain.csv").read_text()
    back = load_results_csv(tmp_path / "np.csv")
    assert back == sorted(basic_rows, key=lambda r: (r["ber"], r["strategy"], r["trial"]))


def test_emit_empty_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit([], "csv", path)
    assert path.read_text().strip() == ",".join(RESULT_FIELDS)


def test_emit_json(tmp_path, basic_rows):
    path = tmp_path / "r.json"
    emit(basic_rows, "json", path)
    data = json.loads(path.read_text())
    assert len(data) == len(basic_rows)
    assert tuple(data[0]) == RESULT_FIELDS


def test_approx_strategy_requires_alphas_and_profiles(default_model, small_dataset):
    with pytest.raises(ConfigError):
        make_config(strategies=["opt"])
    profiles = {1e-5: profile_all(default_model, small_dataset.inputs, 1e-5, 5, 7)}
    config = make_config(bers=[1e-5], strategies=["opt", "baseline"],
                         profiles=profiles, alphas=0.25)
    rows = run_campaign(config)
    assert {r["strategy"] for r in rows} == {"opt", "baseline"}
    opt = [r for r in rows if r["strategy"] == "opt"]
    assert all(r["ignored"] == 0 for r in opt)


def test_per_gemm_alphas_match_global_alpha(default_model, small_dataset):
    profiles = {1e-5: profile_all(default_model, small_dataset.inputs, 1e-5, 5, 7)}
    ids = [n.gemm_id for n in default_model.nodes]
    common = dict(bers=[1e-5], strategies=["opt"], trials=1, profiles=profiles)
    per_gemm = run_campaign(make_config(alphas=AlphaAssignment.uniform(ids, 0.25), **common))
    assert per_gemm == run_campaign(make_config(alphas=0.25, **common))


@pytest.mark.parametrize("workers", [1, 2])
def test_alphas_and_profiles_must_cover_the_model(default_model, small_dataset, workers):
    profiles = {1e-5: profile_all(default_model, small_dataset.inputs, 1e-5, 1, 7)}
    ids = [n.gemm_id for n in default_model.nodes]
    common = dict(bers=[1e-5], strategies=["opt"], trials=2)
    for alphas in (AlphaAssignment.uniform(ids[:1], 0.25), AlphaAssignment.uniform(ids + ["nope"], 0.25)):
        with pytest.raises(ConfigError, match="abft.alphas"):
            run_campaign(make_config(alphas=alphas, profiles=profiles, **common), workers=workers)
    short = {1e-5: {gid: p for gid, p in profiles[1e-5].items() if gid != "classifier"}}
    with pytest.raises(ConfigError, match="classifier"):
        run_campaign(make_config(alphas=0.25, profiles=short, **common), workers=workers)


def test_config_from_dict_and_validation():
    raw = {
        "model": {"weight_seed": 1},
        "dataset": {"n_samples": 4, "data_seed": 2},
        "faults": {"bers": [1e-6], "base_seed": 3, "trials": 1},
        "abft": {"strategies": ["none"]},
        "output": {"results": "out.csv"},
    }
    config = config_from_dict(raw)
    assert config.bers == [1e-6]
    # a CSV writes the BER as stored: 0.0, not 0
    assert repr(config_from_dict({**raw, "faults": {"bers": [0], "base_seed": 3}}).bers) == "[0.0]"
    for missing in ("weight_seed", "data_seed", "base_seed"):
        bad = json.loads(json.dumps(raw))
        for sec in bad.values():
            sec.pop(missing, None)
        with pytest.raises(ConfigError):
            config_from_dict(bad)
    with pytest.raises(ConfigError):
        config_from_dict({**raw, "abft": {"strategies": ["bogus"]}})
    with pytest.raises(ConfigError):
        config_from_dict({**raw, "faults": {"bers": [], "base_seed": 3}})


@pytest.mark.parametrize("make", [
    lambda: FaultConfig(ber=2, seed=0),
    lambda: ModelConfig(embed_dim=33),
    lambda: SearchConfig(order="x"),
    lambda: AlphaAssignment({"g": (2, 0)}),
    lambda: DeviationProfile(0.0, True, 0.0, 1.0, 1),
    lambda: strategy_from_name("v9"),
], ids=["FaultConfig", "ModelConfig", "SearchConfig", "AlphaAssignment", "DeviationProfile",
        "strategy_from_name"])
def test_config_types_raise_config_error_themselves(make):
    with pytest.raises(ConfigError):
        make()


def test_profiles_roundtrip(default_model, small_dataset):
    profiles = {1e-6: profile_all(default_model, small_dataset.inputs, 1e-6, 4, 7)}
    back = profiles_from_dict(profiles_to_dict(profiles))
    assert back[1e-6]["classifier"] == profiles[1e-6]["classifier"]


class TestStats:
    def test_ber_zero(self, default_model, small_dataset):
        rep = compute_stats(default_model, small_dataset.inputs, 0.0, 3, seed=5)
        assert rep.multi_error_fraction == 0.0
        assert rep.flagged_rows_cols == 0
        for hists in rep.histograms.values():
            edges = hists["msd"]["edges"]
            assert not edges or edges[-1] <= 1e-3

    def test_histogram_totals(self, default_model, small_dataset):
        rep = compute_stats(default_model, small_dataset.inputs, 1e-5, 5, seed=5)
        for hists in rep.histograms.values():
            h = hists["msd"]
            assert sum(h["counts"]) + h["nonfinite"] == 5

    def test_selector(self, default_model):
        ids = select_gemms(default_model, "largest_per_layer")
        assert "classifier" in ids
        assert any(gid.endswith("ff.in") for gid in ids)
        assert select_gemms(default_model, ["classifier"]) == ["classifier"]
        with pytest.raises(ConfigError):
            select_gemms(default_model, ["nope"])

    def test_counts_match_the_true_error_cells(self, default_model, small_dataset):
        # flagged rows and columns, and those of them holding more than one
        # error cell, recounted from the step-by-step injector's cells on
        # each node's operands
        ber, trials, seed = 1e-4, 3, 5
        rep = compute_stats(default_model, small_dataset.inputs, ber, trials, seed)
        flagged = multi = 0
        for t in range(trials):
            seen = []
            forward(default_model, small_dataset.inputs[t], FaultConfig(ber, seed), trial=t,
                    observer=lambda node, A, B, C, plan: seen.append((node.gemm_id, A, B, C)))
            for gemm_id, A, B, C in seen:
                _, cells, _ = dense_faulty_gemm(A, B, FaultConfig(ber, seed), RngStream(seed, gemm_id, t))
                loc = localize(compute_sum_profiles(A, B, C, checksums=precompute_checksums(A, B)))
                flagged += len(loc.faulty_rows) + len(loc.faulty_cols)
                multi += int((cells[list(loc.faulty_rows)].sum(axis=1) > 1).sum())
                multi += int((cells[:, list(loc.faulty_cols)].sum(axis=0) > 1).sum())
        assert (rep.flagged_rows_cols, rep.multi_error_rows_cols) == (flagged, multi)
        assert 0 < multi < flagged

    def test_histogram_of_equal_samples(self):
        # numpy's own range for equal samples, x -+ 0.5, at any magnitude
        # where it holds 20 distinct edges; past that the range widens
        small = campaign._histogram([0.25, 0.25, math.inf])
        counts, edges = np.histogram([0.25, 0.25], bins=20)
        assert small == {"edges": edges.tolist(), "counts": counts.tolist(), "nonfinite": 1}
        big = campaign._histogram([1.0900287480468045e+31])
        assert sum(big["counts"]) == 1 and len(set(big["edges"])) == 21

    def test_single_error_not_multi(self, default_model, small_dataset):
        # scope to one tiny GEMM and hunt a trial with exactly one error cell
        rep = compute_stats(default_model, small_dataset.inputs, 1e-5, 10, seed=6)
        assert 0.0 <= rep.multi_error_fraction <= 1.0
        assert rep.multi_error_rows_cols <= rep.flagged_rows_cols
