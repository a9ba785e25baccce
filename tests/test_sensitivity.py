"""Sensitivity metric tests: QE, noise, Hessian trace, random, distances."""

import tracemalloc

import numpy as np
import pytest

from conftest import (
    make_dead_relu_model,
    make_diagonal_quadratic,
    make_small_ce_model,
    noise_samples_oracle,
    reference_levenshtein,
    with_tensor,
)
import mixquant.graph as graph_module
import mixquant.sensitivity as sensitivity_module
from mixquant.calibrate import calibrate
from mixquant.fixtures import FixtureSpec, build_fixture_model
from mixquant.graph import Dataset, GraphError, Layer, ModelGraph, hessian_traces
from mixquant.modelio import read_record, write_record
from mixquant.quantize import QuantSpec, quantization_error
from mixquant.sensitivity import (
    DEFAULT_NOISE_SCALE,
    SensitivityReport,
    TensorScore,
    ordering_distance,
    score_hessian,
    score_noise,
    score_qe,
    score_random,
)


class TestScoreQE:
    def test_matches_direct_recomputation(self):
        model, _ = make_small_ce_model()
        specs = calibrate(model, 4)
        report = score_qe(model, specs)
        for name, spec in specs.items():
            expected = quantization_error(model.parameter(name), spec)
            assert report.scores[name].mean == expected
            assert report.scores[name].trials == 1
            assert report.scores[name].std == 0.0

    def test_representable_model_scores_zero_lexicographic(self):
        # weights already on the 2-bit grid with unit scales
        model = ModelGraph(
            [
                Layer("beta", np.full((2, 2), 0.5), np.zeros(2)),
                Layer("alpha", -0.5 * np.eye(2), np.zeros(2)),
            ]
        )
        specs = {
            "beta.weight": QuantSpec(1.0, 1.0, 2),
            "alpha.weight": QuantSpec(1.0, 1.0, 2),
        }
        report = score_qe(model, specs)
        assert all(s.mean == 0.0 for s in report.scores.values())
        assert list(report.ordering) == ["alpha.weight", "beta.weight"]

    def test_invariant_to_power_of_two_rescaling(self):
        model, _ = make_small_ce_model()
        name = "first.weight"
        base = score_qe(model, calibrate(model, 3)).scores[name].mean
        doubled = with_tensor(model, name, 2.0 * model.parameter(name))
        redone = score_qe(doubled, calibrate(doubled, 3)).scores[name].mean
        assert redone == base

    def test_activation_name_rejected(self):
        model, _ = make_small_ce_model()
        with pytest.raises(GraphError, match="first.out"):
            score_qe(model, {"first.out": QuantSpec(1.0, 1.0, 4)})


class TestScoreNoise:
    @pytest.mark.parametrize("noise_scale", [0.0, 0.05])
    @pytest.mark.parametrize("which", ["small", "seed7", "wide"])
    def test_matches_one_forward_per_perturbation(self, f1, which, noise_scale):
        if which == "small":
            model, data = make_small_ce_model()
        elif which == "seed7":
            model, data = f1[0], f1[1]
        else:
            model = build_fixture_model(7, FixtureSpec((64, 192, 160, 128, 96, 64, 32, 10)))
            rng = np.random.default_rng(1)
            data = Dataset(rng.normal(size=(256, 64)), rng.integers(0, 10, 256), 10)
        report = score_noise(model, data, noise_scale=noise_scale, trials=3, seed=11)
        samples = noise_samples_oracle(model, data, noise_scale, trials=3, seed=11)
        assert list(report.scores) == list(samples)
        for name, values in samples.items():
            expected = TensorScore(float(np.mean(values)), float(np.std(values)), 3)
            assert report.scores[name] == expected, name

    def test_groups_under_the_budget_move_no_score(self, monkeypatch):
        model = build_fixture_model(7, FixtureSpec((64, 192, 160, 128, 96, 64, 32, 10)))
        rng = np.random.default_rng(1)
        data = Dataset(rng.normal(size=(256, 64)), rng.integers(0, 10, 256), 10)
        real, passes = sensitivity_module.chain_losses, []

        def spy(model, data, maps):
            passes.append(len(maps))
            return real(model, data, maps)

        monkeypatch.setattr(sensitivity_module, "chain_losses", spy)
        default = score_noise(model, data, trials=5)
        # 5 copies of the last five tensors are 206,400 floats, and one of
        # the sixth 30,720 more: the sixth tensor's other 4 copies start
        # the second group, each group with its clean map first
        assert passes == [1 + 5 * 5 + 1, 1 + 4 + 5]
        passes.clear()
        monkeypatch.setattr(graph_module, "STACK_FLOATS", 1)
        assert score_noise(model, data, trials=5) == default
        assert passes == [1 + 1] * 35

    def test_noisy_copies_stay_under_the_budget_at_many_trials(self):
        model = build_fixture_model(7, FixtureSpec((64, 192, 160, 128, 96, 64, 32, 10)))
        rng = np.random.default_rng(1)
        data = Dataset(rng.normal(size=(256, 64)), rng.integers(0, 10, 256), 10)
        score_noise(model, data, trials=1)
        tracemalloc.start()
        try:
            report = score_noise(model, data, trials=200, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 200 noisy copies of the 160x192 tensor alone are 47 MiB; a group
        # holds at most STACK_FLOATS (2 MiB) of copies plus one loss per map
        # and row, and one block of activations per worker
        assert peak < 6 * 2**20
        samples = noise_samples_oracle(model, data, DEFAULT_NOISE_SCALE, trials=200, seed=3)
        for name, values in samples.items():
            expected = TensorScore(float(np.mean(values)), float(np.std(values)), 200)
            assert report.scores[name] == expected, name

    def test_zero_scale_means_zero_scores(self):
        model, data = make_small_ce_model()
        report = score_noise(model, data, noise_scale=0.0, trials=3, seed=1)
        for s in report.scores.values():
            assert s.mean == 0.0
            assert s.std == 0.0

    def test_same_seed_bit_identical(self):
        model, data = make_small_ce_model()
        a = score_noise(model, data, noise_scale=0.1, trials=4, seed=42)
        b = score_noise(model, data, noise_scale=0.1, trials=4, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        model, data = make_small_ce_model()
        a = score_noise(model, data, noise_scale=0.1, trials=2, seed=1)
        b = score_noise(model, data, noise_scale=0.1, trials=2, seed=2)
        assert a.scores != b.scores

    def test_single_trial_is_prefix_of_multi_trial_stream(self):
        model, data = make_small_ce_model()
        one = score_noise(model, data, noise_scale=0.1, trials=1, seed=7)
        five = score_noise(model, data, noise_scale=0.1, trials=5, seed=7)
        for name in one.scores:
            x1, s5 = one.scores[name].mean, five.scores[name]
            # the first draw can sit at most sqrt(n-1) population stds out
            assert abs(x1 - s5.mean) <= 3.0 * s5.std + 1e-15

    def test_model_untouched_by_scoring(self):
        model, data = make_small_ce_model()
        digest = model.parameter_digest()
        score_noise(model, data, noise_scale=0.5, trials=2, seed=3)
        assert model.parameter_digest() == digest

    @pytest.mark.parametrize(
        "kwargs", [{"trials": 0}, {"noise_scale": -0.1}, {"noise_scale": np.nan}]
    )
    def test_invalid_arguments_rejected(self, kwargs):
        model, data = make_small_ce_model()
        with pytest.raises(GraphError):
            score_noise(model, data, **kwargs)


class TestScoreHessian:
    def test_quadratic_fixture_recovers_analytic_trace(self):
        model, data, diag = make_diagonal_quadratic()
        score = score_hessian(model, data).scores["probe.weight"]
        # scores are per element, so scale back by the 3 weights
        assert 3 * score.mean == pytest.approx(float(diag.sum()), rel=1e-13)
        assert score.std == 0.0
        assert score.trials == 1

    def test_normalization_divides_by_element_count(self):
        model, data = make_small_ce_model()
        report = score_hessian(model, data)
        for name, trace in hessian_traces(model, data).items():
            assert report.scores[name].mean == trace / model.parameter(name).size

    def test_dead_relu_scores_exactly_zero(self):
        model, data = make_dead_relu_model()
        report = score_hessian(model, data)
        assert report.scores["inner.weight"].mean == 0.0
        assert report.scores["outer.weight"].mean == 0.0

    def test_fixture_block_traces_non_negative(self, f1):
        # With relu masks fixed, the loss is a convex head applied to a map
        # linear in one layer's weights, so each weight block of the Hessian
        # is positive semidefinite and its trace is >= 0.
        model, calib, _ = f1
        report = score_hessian(model, calib)
        assert min(s.mean for s in report.scores.values()) >= 0.0

    def test_same_seed_bit_identical(self):
        # exact scores draw nothing, so every report records seed 0
        model, data = make_small_ce_model()
        a = score_hessian(model, data)
        b = score_hessian(model, data)
        assert a == b
        assert a.seed == 0


class TestScoreRandom:
    def test_single_name(self):
        report = score_random(["only.weight"], seed=0)
        assert list(report.ordering) == ["only.weight"]
        assert report.scores["only.weight"].mean == 0.0

    def test_ordering_is_permutation_and_ranks_match(self):
        names = [f"t{i}.weight" for i in range(12)]
        report = score_random(names, seed=3)
        assert sorted(report.ordering) == sorted(names)
        for rank, name in enumerate(report.ordering):
            assert report.scores[name].mean == float(rank)

    def test_seeds_reproducible_and_distinct(self):
        names = [f"layer{i:02d}.weight" for i in range(54)]
        perms = [tuple(score_random(names, seed=s).ordering) for s in range(1, 6)]
        assert len(set(perms)) == 5
        again = tuple(score_random(names, seed=1).ordering)
        assert again == perms[0]

    def test_duplicates_rejected(self):
        with pytest.raises(GraphError):
            score_random(["a", "a"], seed=0)


class TestOrderingDistance:
    def test_identical_is_zero(self):
        names = ["a", "b", "c"]
        assert ordering_distance(names, names) == 0

    def test_classic_word_pair(self):
        assert ordering_distance(list("kitten"), list("sitting")) == 3

    def test_three_element_reversal(self):
        assert ordering_distance(["a", "b", "c"], ["c", "b", "a"]) == 2

    def test_empty_versus_sequence(self):
        assert ordering_distance([], ["x", "y"]) == 2

    def test_matches_reference_dp_on_random_shuffles(self):
        rng = np.random.default_rng(6)
        names = [f"n{i}" for i in range(9)]
        for _ in range(25):
            a = [names[i] for i in rng.permutation(9)]
            b = [names[i] for i in rng.permutation(9)[: rng.integers(1, 10)]]
            assert ordering_distance(a, b) == reference_levenshtein(a, b)

    def test_symmetric(self):
        a, b = list("abcd"), list("badc")
        assert ordering_distance(a, b) == ordering_distance(b, a)


class TestReportRoundTrip:
    def test_save_load_identity(self, tmp_path):
        model, data = make_small_ce_model()
        report = score_noise(model, data, noise_scale=0.2, trials=3, seed=9)
        path = tmp_path / "report.json"
        write_record(path, report)
        assert read_record(path, SensitivityReport) == report

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            read_record(path, SensitivityReport)

    def test_ordering_ascending_with_name_tiebreak(self):
        model, data = make_small_ce_model()
        report = score_hessian(model, data)
        means = [report.scores[n].mean for n in report.ordering]
        assert means == sorted(means)
