import json
import math

import pytest

from ftgemm.cli import main
from ftgemm.thresholds import AlphaAssignment
from ftgemm.workload import ModelConfig, build_model

# the GEMMs of the model of `config_path`
GEMM_IDS = [n.gemm_id for n in build_model(ModelConfig(weight_seed=11, num_layers=1)).nodes]


@pytest.fixture()
def config_path(tmp_path):
    raw = {
        "model": {"weight_seed": 11, "num_layers": 1},
        "dataset": {"n_samples": 4, "data_seed": 23},
        "faults": {"bers": [1e-5], "base_seed": 7, "trials": 2},
        "abft": {"strategies": ["none", "baseline"]},
        "search": {"trials_per_eval": 1, "resolution": 0.5, "ber": 1e-5},
        "output": {"results": str(tmp_path / "results.csv")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_gemms(config_path, capsys):
    assert main(["gemms", "--config", str(config_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 11  # header, then one row per GEMM of the 1-layer model
    assert f"{'layer0.ff.in':<28} {16:>5} {32:>5} {128:>5} {65536:>9}" in lines
    assert lines[-1].split()[0] == "classifier"


def test_profile_then_search_then_run(config_path, tmp_path, capsys):
    prof = tmp_path / "profiles.json"
    assert main(["profile", "--config", str(config_path),
                 "--trials", "10", "--out", str(prof)]) == 0
    assert "1e-05" in prof.read_text()

    # splice profiles into the config so search and run can use them
    raw = json.loads(config_path.read_text())
    raw["abft"]["profiles"] = json.loads(prof.read_text())
    raw["abft"]["strategies"] = ["baseline", "opt"]
    raw["abft"]["alphas"] = 0.0
    config_path.write_text(json.dumps(raw))

    alphas = tmp_path / "alphas.json"
    assert main(["search", "--config", str(config_path), "--mode", "global",
                 "--budget", "1.0", "--out", str(alphas)]) == 0
    assert json.loads(alphas.read_text())

    out_csv = tmp_path / "out.csv"
    assert main(["run", "--config", str(config_path), "--out", str(out_csv)]) == 0
    header = out_csv.read_text().splitlines()[0]
    assert header.startswith("ber,strategy,trial,accuracy")


def test_stats(config_path, tmp_path):
    out = tmp_path / "stats.json"
    assert main(["stats", "--config", str(config_path), "--trials", "5",
                 "--kind", "msd", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert "histograms" in payload and "multi_error_fraction" in payload


def test_exit_code_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {}}))
    assert main(["gemms", "--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_override_is_validated(config_path, capsys):
    # opt needs abft.alphas and abft.profiles, which this config lacks
    assert main(["run", "--config", str(config_path), "--strategy", "opt"]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.fixture()
def search_argv(config_path, tmp_path):
    raw = json.loads(config_path.read_text())
    raw["search"]["order"] = "inorder"
    profile = {"msd_min": 0.0, "msd_max": 1.0, "rcsd_min": 0.0, "rcsd_max": 1.0, "sample_count": 1}
    model = build_model(ModelConfig(**raw["model"]))
    raw["abft"]["profiles"] = {"1e-05": {n.gemm_id: profile for n in model.nodes}}
    config_path.write_text(json.dumps(raw))
    return ["search", "--config", str(config_path), "--mode", "gemmwise",
            "--out", str(tmp_path / "alphas.json")]


def test_search_order_from_config_unless_overridden(search_argv, monkeypatch):
    seen = []

    def fake_search(model, dataset, cfg, profiles, base_seed):
        seen.append(cfg.order)
        return AlphaAssignment({})

    monkeypatch.setattr("ftgemm.cli.greedy_gemmwise_search", fake_search)
    assert main(search_argv) == 0
    assert main(search_argv + ["--order", "ascending"]) == 0
    assert seen == ["inorder", "ascending_size"]


def test_search_override_is_validated(search_argv, capsys):
    assert main(search_argv + ["--budget", "2.0"]) == 1
    assert "config error" in capsys.readouterr().err


def test_search_profiles_must_cover_the_model(search_argv, config_path, capsys):
    raw = json.loads(config_path.read_text())
    del raw["abft"]["profiles"]["1e-05"]["classifier"]
    config_path.write_text(json.dumps(raw))
    assert main(search_argv) == 1
    assert "classifier" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("faults", "bers", [1.5]),
    ("faults", "bers", [-1e-6]),
    ("abft", "alphas", 1.5),
    ("abft", "alphas", {"g": [2, 0]}),
    ("abft", "alphas", "abc"),
    ("abft", "profiles", {"1e-05": {"classifier": {
        "msd_min": 2.0, "msd_max": 1.0, "rcsd_min": 0.0, "rcsd_max": 1.0, "sample_count": 1}}}),
    ("dataset", "n_samples", 0),
    ("faults", "scope", 5),
    ("output", "format", "xml"),
    ("search", "strategy", "v9"),
    ("search", "trials_per_eval", 0),
    ("search", "ber", 1.5),
    ("model", "num_layers", 2.5),
    ("model", "weight_seed", 1.5),
    ("model", "weight_seed", "abc"),
    ("model", "weight_seed", -1),
    ("dataset", "data_seed", -1),
    ("dataset", "data_seed", 2.5),
    ("dataset", "n_samples", 2.5),
    ("faults", "trials", 2.5),
    ("faults", "base_seed", 2.5),
    ("abft", "profiles", {"1e-05": {"classifier": {
        "msd_min": 0.0, "msd_max": math.nan, "rcsd_min": 0.0, "rcsd_max": 1.0, "sample_count": 1}}}),
    ("search", "resolution", math.nan),
    ("search", "trials_per_eval", 1.5),
    ("faults", "scope", ["nope"]),
    ("faults", "scope", ["layer0.ff.in", "nope"]),
    ("faults", "scope", []),
    ("faults", "bers", ["1e-5"]),
    ("faults", "bers", [True]),
    ("abft", "alphas", True),
    ("faults", "bers", [1e-5, 1e-5]),
    ("abft", "strategies", ["none", "none"]),
    ("abft", "alphas", {gid: ["0.5", True] for gid in GEMM_IDS}),
    ("abft", "alphas", {gid: [0.5] for gid in GEMM_IDS}),
    ("faults", None, 5),
    ("dataset", None, []),
    ("abft", "profiles", 5),
    ("abft", "profiles", {"1e-05": 5}),
    ("abft", "profiles", {"1e-05": {"classifier": {
        "msd_min": 0.0, "msd_max": True, "rcsd_min": 0.0, "rcsd_max": 1.0, "sample_count": 1}}}),
    ("search", "ber", True),
    ("output", "results", 57),
], ids=["ber-1.5", "ber-negative", "alpha-1.5", "alpha-pair-2", "alpha-abc",
        "profile-min-above-max", "n_samples-0", "scope-5", "format-xml",
        "search-strategy-v9", "search-trials_per_eval-0", "search-ber-1.5",
        "num_layers-2.5", "weight_seed-1.5", "weight_seed-abc", "weight_seed-negative",
        "data_seed-negative", "data_seed-2.5", "n_samples-2.5", "trials-2.5", "base_seed-2.5",
        "profile-nan-bound", "search-resolution-nan", "search-trials_per_eval-1.5",
        "scope-nope", "scope-one-unknown", "scope-empty", "ber-string", "ber-true", "alpha-true",
        "bers-duplicate", "strategies-duplicate", "alpha-pair-string-and-true", "alpha-pair-short",
        "faults-5", "dataset-list", "profiles-5", "profiles-ber-5", "profile-true-bound", "search-ber-true",
        "results-57"])
def test_config_mistakes_exit_1_before_any_forward(config_path, tmp_path, capsys, section, key, value):
    raw = json.loads(config_path.read_text())
    if key is None:
        raw[section] = value
    else:
        raw[section][key] = value
    config_path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(config_path)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("stats", "--ber", "2"),
    ("stats", "--ber", "-1"),
    ("stats", "--trials", "0"),
    ("profile", "--trials", "0"),
    ("stats", "--gemms", "nope"),
    ("run", "--ber", "abc"),
    ("stats", "--ber", "abc"),
    ("stats", "--trials", "2.5"),
    ("profile", "--trials", "abc"),
    ("search", "--budget", "x"),
    ("run", "--trials", "2.5"),
    ("run", "--workers", "abc"),
], ids=["stats-ber-2", "stats-ber-negative", "stats-trials-0", "profile-trials-0", "stats-gemms-nope",
        "run-ber-abc", "stats-ber-abc", "stats-trials-2.5", "profile-trials-abc", "search-budget-x",
        "run-trials-2.5", "run-workers-abc"])
def test_override_mistakes_exit_1_before_any_forward(
    config_path, tmp_path, capsys, monkeypatch, command, flag, value
):
    monkeypatch.setattr("ftgemm.cli.generate_dataset", lambda *a: pytest.fail("a forward ran"))
    out = tmp_path / "out.json"
    assert main([command, "--config", str(config_path), flag, value, "--out", str(out)]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_stats_unknown_gemm_is_config_error(config_path, tmp_path, capsys):
    assert main(["stats", "--config", str(config_path), "--trials", "1",
                 "--gemms", "nope", "--out", str(tmp_path / "stats.json")]) == 1
    assert "config error" in capsys.readouterr().err


def test_exit_code_runtime_error(config_path, tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.json"
    assert main(["stats", "--config", str(config_path), "--trials", "1",
                 "--out", str(missing_dir)]) == 2
    assert "error" in capsys.readouterr().err
