import json
import math
from dataclasses import fields

import numpy as np
import pytest

from ftgemm import thresholds as thresholds_mod
from ftgemm import workload
from ftgemm.abft import REL_EPS
from ftgemm.thresholds import (
    AlphaAssignment,
    DeviationProfile,
    SearchConfig,
    alpha_to_threshold,
    binary_search_global_alpha,
    bisect_max_feasible,
    greedy_gemmwise_search,
    profile_all,
    sample_deviations,
    thresholds_from_assignment,
)


class TestAlphaToThreshold:
    def test_direct_formula(self):
        assert alpha_to_threshold(0.0, 100.0, 0.25) == 25.0

    def test_endpoints(self):
        assert alpha_to_threshold(2.0, 9.0, 0.0) == 2.0
        assert alpha_to_threshold(2.0, 9.0, 1.0) == 9.0
        # floor kicks in when the range sits below round-off
        assert alpha_to_threshold(0.0, 1e-9, 0.0) == REL_EPS

    def test_monotone_in_alpha(self):
        prev = -1.0
        for a in np.linspace(0, 1, 33):
            t = alpha_to_threshold(1.0, 50.0, float(a))
            assert t >= prev
            prev = t

    def test_validation(self):
        with pytest.raises(ValueError):
            alpha_to_threshold(0.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            alpha_to_threshold(5.0, 1.0, 0.5)


class TestBisect:
    def test_synthetic_boundary(self):
        calls = []

        def feasible(a):
            calls.append(a)
            return a <= 0.5

        alpha, ok = bisect_max_feasible(feasible, 1.0 / 64)
        assert ok
        assert abs(alpha - 0.5) <= 1.0 / 64
        # at most 2 endpoint checks + 6 bisection rounds for resolution 1/64
        assert len(calls) <= 8

    def test_everything_feasible(self):
        alpha, ok = bisect_max_feasible(lambda a: True, 1.0 / 64)
        assert alpha == 1.0 and ok

    def test_nothing_feasible(self):
        alpha, ok = bisect_max_feasible(lambda a: False, 1.0 / 64)
        assert alpha == 0.0 and not ok

    def test_returned_alpha_feasible_next_step_not(self):
        boundary = 0.37

        def feasible(a):
            return a <= boundary

        alpha, ok = bisect_max_feasible(feasible, 1.0 / 128)
        assert feasible(alpha)
        assert not feasible(alpha + 1.0 / 64)


class TestProfiles:
    def test_ber_zero_profile(self, default_model, small_dataset):
        p = profile_all(default_model, small_dataset.inputs, 0.0, 1, seed=1)["layer0.attn.q"]
        assert p.msd_min == p.msd_max
        assert p.msd_max <= 1e-4  # clean round-off only

    def test_determinism(self, default_model, small_dataset):
        a = profile_all(default_model, small_dataset.inputs, 1e-5, 5, seed=2)
        b = profile_all(default_model, small_dataset.inputs, 1e-5, 5, seed=2)
        for gid in a:
            assert a[gid] == b[gid]

    def test_faulty_profile_has_spread(self, default_model, small_dataset):
        profs = profile_all(default_model, small_dataset.inputs, 1e-5, 20, seed=3)
        assert any(p.msd_max > p.msd_min for p in profs.values())

    def test_profiles_reduce_the_samples(self, default_model, small_dataset):
        samples = list(sample_deviations(default_model, small_dataset.inputs, 1e-5, 4, seed=2))
        assert len(samples) == 4 * len(default_model.nodes)
        profiles = profile_all(default_model, small_dataset.inputs, 1e-5, 4, seed=2)
        for gid, p in profiles.items():
            msds = [msd for node, msd, _, _ in samples if node.gemm_id == gid and math.isfinite(msd)]
            assert (p.msd_min, p.msd_max) == (min(msds), max(msds))
        with pytest.raises(ValueError):
            next(sample_deviations(default_model, small_dataset.inputs, 1e-5, 0, seed=2))

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviationProfile(1.0, 0.5, 0.0, 0.0, 1)
        with pytest.raises(ValueError):
            DeviationProfile(0.0, 1.0, 0.0, 0.0, 0)
        # a NaN bound passes min <= max and would silently give strict cuts;
        # an infinite one would give an infinite cut at any alpha > 0
        for bad in (math.nan, math.inf, -math.inf):
            for i in range(4):
                bounds = [0.0, 1.0, 0.0, 1.0]
                bounds[i] = bad
                with pytest.raises(ValueError):
                    DeviationProfile(*bounds, 1)
        for count in (1.5, True, "2"):
            with pytest.raises(ValueError):
                DeviationProfile(0.0, 1.0, 0.0, 1.0, count)

    def test_fields_are_the_profile_format(self):
        assert [f.name for f in fields(DeviationProfile)] == [
            "msd_min", "msd_max", "rcsd_min", "rcsd_max", "sample_count"]


class TestAssignments:
    def test_uniform_and_roundtrip(self, tmp_path):
        a = AlphaAssignment.uniform(["g1", "g2"], 0.25)
        path = tmp_path / "alphas.json"
        a.save(path)
        b = AlphaAssignment.from_dict(json.loads(path.read_text()))
        assert a.alphas == b.alphas

    def test_range_check(self):
        with pytest.raises(ValueError):
            AlphaAssignment({"g": (1.5, 0.0)})

    def test_thresholds_from_assignment(self):
        profiles = {"g": DeviationProfile(0.0, 100.0, 0.0, 10.0, 5)}
        ts = thresholds_from_assignment(profiles, AlphaAssignment({"g": (0.5, 0.1)}))
        assert ts["g"].detect_threshold == 50.0
        assert ts["g"].row_threshold == 1.0
        assert ts["g"].col_threshold == 1.0


@pytest.fixture(scope="module")
def search_setup(default_model, small_dataset):
    profiles = profile_all(default_model, small_dataset.inputs, 1e-6, 30, seed=5)
    cfg = SearchConfig(accuracy_budget=0.01, trials_per_eval=2, ber=1e-6,
                       resolution=0.25, strategy="opt")
    return profiles, cfg


def spy_evaluate(monkeypatch):
    """Record (the thresholds, trial) of every evaluate call a search makes."""
    calls = []
    real = thresholds_mod.evaluate

    def spy(model, dataset, cfg, strategy, thresholds, trial):
        calls.append((tuple(thresholds.items()), trial))
        return real(model, dataset, cfg, strategy, thresholds, trial=trial)

    monkeypatch.setattr(thresholds_mod, "evaluate", spy)
    return calls


def greedy_visits(monkeypatch, model, dataset, profiles, order):
    """The GEMMs a greedy search relaxes, in the order its evaluations do."""
    cfg = SearchConfig(accuracy_budget=1.0, trials_per_eval=1, ber=1e-6,
                       resolution=0.5, order=order, strategy="opt")
    calls = spy_evaluate(monkeypatch)
    # budget 1.0 makes every step trivially feasible -> all alphas 1, and
    # each new evaluation relaxes exactly the GEMM being visited
    assignment = greedy_gemmwise_search(model, dataset, cfg, profiles, 9)
    assert all(pair == (1.0, 1.0) for pair in assignment.alphas.values())
    seen = [dict(key) for key, _ in calls]
    visited = []
    for prev, cur in zip(seen, seen[1:]):
        changed = [gid for gid in cur if cur[gid] != prev[gid]]
        assert len(changed) == 1
        visited += changed
    return visited


class TestSearches:
    def test_global_search_deterministic(self, default_model, small_dataset, search_setup):
        profiles, cfg = search_setup
        a1 = binary_search_global_alpha(default_model, small_dataset, cfg, profiles, 9)
        a2 = binary_search_global_alpha(default_model, small_dataset, cfg, profiles, 9)
        assert a1 == a2

    def test_global_search_trivial_budget(self, default_model, small_dataset, search_setup):
        profiles, _ = search_setup
        cfg = SearchConfig(accuracy_budget=1.0, trials_per_eval=1, ber=1e-6,
                           resolution=0.25, strategy="opt")
        alpha, ok = binary_search_global_alpha(default_model, small_dataset, cfg, profiles, 9)
        assert alpha == 1.0 and ok

    def test_greedy_visits_ascending_sizes(self, monkeypatch, default_model, small_dataset, search_setup):
        # a stable sort: equal sizes keep model order
        expected = [n.gemm_id for n in sorted(default_model.nodes, key=lambda n: n.shape.macs)]
        # classifier (320 macs) is the smallest node and must come first
        assert expected[0] == "classifier"
        visited = greedy_visits(monkeypatch, default_model, small_dataset, search_setup[0], "ascending_size")
        assert visited == expected

    def test_greedy_visits_inorder(self, monkeypatch, default_model, small_dataset, search_setup):
        expected = [n.gemm_id for n in default_model.nodes]
        visited = greedy_visits(monkeypatch, default_model, small_dataset, search_setup[0], "inorder")
        assert visited == expected

    def test_greedy_deterministic(self, default_model, small_dataset, search_setup):
        profiles, cfg = search_setup
        a1 = greedy_gemmwise_search(default_model, small_dataset, cfg, profiles, 9)
        a2 = greedy_gemmwise_search(default_model, small_dataset, cfg, profiles, 9)
        assert a1.alphas == a2.alphas

    def test_searches_run_forwards_without_clean_outputs(
        self, monkeypatch, default_model, small_dataset, search_setup
    ):
        # a search's time must not hinge on where its few streams first flip,
        # and it finds what it finds on a dataset without clean forwards
        profiles, _ = search_setup
        cfg = SearchConfig(accuracy_budget=0.01, trials_per_eval=1, ber=1e-6,
                           resolution=0.5, strategy="opt")
        assert small_dataset.clean_forwards is not None
        inputs_only = workload.Dataset(small_dataset.inputs, small_dataset.labels)
        passed = []
        full_forward = workload.forward

        def spy(*args, clean=None, **kwargs):
            passed.append(clean)
            return full_forward(*args, clean=clean, **kwargs)

        monkeypatch.setattr(workload, "forward", spy)
        alpha = binary_search_global_alpha(default_model, small_dataset, cfg, profiles, 9)
        greedy = greedy_gemmwise_search(default_model, small_dataset, cfg, profiles, 9)
        assert passed and all(clean is None for clean in passed)
        assert alpha == binary_search_global_alpha(default_model, inputs_only, cfg, profiles, 9)
        assert greedy.alphas == greedy_gemmwise_search(default_model, inputs_only, cfg, profiles, 9).alphas

    @pytest.mark.parametrize(
        "budget, resolution, greedy_calls, global_calls, strict, global_alpha",
        [
            (1.0, 0.5, 22, 1, set(), (1.0, True)),
            (0.01, 0.25, 26, 4, {"layer1.attn.v", "layer1.ff.out"}, (0.0, True)),
        ],
    )
    def test_searches_score_each_threshold_set_once(
        self, monkeypatch, default_model, small_dataset, search_setup,
        budget, resolution, greedy_calls, global_calls, strict, global_alpha,
    ):
        # without the score memo the greedy search made 42 and 48 calls
        profiles, _ = search_setup
        cfg = SearchConfig(accuracy_budget=budget, trials_per_eval=1, ber=1e-6,
                           resolution=resolution, strategy="opt")
        calls = spy_evaluate(monkeypatch)
        greedy = greedy_gemmwise_search(default_model, small_dataset, cfg, profiles, 9)
        assert len(calls) == len(set(calls)) == greedy_calls
        calls.clear()
        alpha = binary_search_global_alpha(default_model, small_dataset, cfg, profiles, 9)
        assert len(calls) == len(set(calls)) == global_calls
        # the alphas the searches found without the memo
        assert greedy.alphas == {
            n.gemm_id: (0.0, 0.0) if n.gemm_id in strict else (1.0, 1.0) for n in default_model.nodes
        }
        assert alpha == global_alpha

    def test_score_memo_keys_on_thresholds(self, monkeypatch, default_model, small_dataset):
        # flat profiles clamp every alpha to the REL_EPS floor: one threshold set
        profiles = {n.gemm_id: DeviationProfile(0.0, 0.0, 0.0, 0.0, 1) for n in default_model.nodes}
        cfg = SearchConfig(accuracy_budget=0.01, trials_per_eval=2, ber=1e-6,
                           resolution=0.25, strategy="opt")
        calls = spy_evaluate(monkeypatch)
        greedy_gemmwise_search(default_model, small_dataset, cfg, profiles, 9)
        assert [trial for _, trial in calls] == [0, 1]
        assert all(ts.detect_threshold == REL_EPS for ts in dict(calls[0][0]).values())

    def test_zero_budget_without_faults(self, default_model, small_dataset, search_setup):
        # at BER 0 nothing is lost, and a loss of zero is within a zero budget
        profiles, _ = search_setup
        cfg = SearchConfig(accuracy_budget=0.0, trials_per_eval=1, ber=0.0,
                           resolution=0.5, strategy="opt")
        assert binary_search_global_alpha(default_model, small_dataset, cfg, profiles, 9) == (1.0, True)
        greedy = greedy_gemmwise_search(default_model, small_dataset, cfg, profiles, 9)
        assert all(pair == (1.0, 1.0) for pair in greedy.alphas.values())

    def test_search_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(accuracy_budget=2.0)
        with pytest.raises(ValueError):
            SearchConfig(resolution=0.0)
        # a NaN or infinite resolution would end the bisection unprobed
        for resolution in (math.nan, math.inf):
            with pytest.raises(ValueError):
                SearchConfig(resolution=resolution)
        with pytest.raises(ValueError):
            SearchConfig(trials_per_eval=1.5)
        with pytest.raises(ValueError):
            SearchConfig(order="descending")
        with pytest.raises(ValueError):
            SearchConfig(strategy="v9")
        with pytest.raises(ValueError):
            SearchConfig(trials_per_eval=0)
        with pytest.raises(ValueError):
            SearchConfig(ber=1.5)
        with pytest.raises(ValueError):
            SearchConfig(ber=-1e-6)
