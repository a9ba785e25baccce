"""Search strategy tests against synthetic oracles and the real engine."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    O1_NAMES,
    first_only,
    make_small_ce_model,
    o1_accuracy,
    o1_size_bytes,
)
import mixquant.pipeline as pipeline_module
from mixquant.calibrate import calibrate
from mixquant.fixtures import FixtureSpec, build_fixture_model
from mixquant.graph import GraphError, forward
from mixquant.quantize import quantize
from mixquant.search import (
    QuantConfig,
    bisection_search,
    evaluate_config,
    greedy_search,
    load_config,
    load_outcome,
    save_config,
    save_outcome,
)


def exhaustive_optimum(names, levels, target):
    """Minimum-size target-meeting config over the full cross product."""
    best = None
    for combo in itertools.product(levels, repeat=len(names)):
        config = QuantConfig(bits=dict(zip(names, combo)))
        if o1_accuracy(config) >= target:
            size = o1_size_bytes(config)
            if best is None or size < best[0]:
                best = (size, config)
    return best


def exhaustive_prefix_optimum(names, target):
    """Minimum-size config among prefix-threshold shapes (t8 >= t4)."""
    best = None
    for t8 in range(len(names) + 1):
        for t4 in range(t8 + 1):
            bits = {n: 16 for n in names}
            bits.update({n: 8 for n in names[:t8]})
            bits.update({n: 4 for n in names[:t4]})
            config = QuantConfig(bits=bits)
            if o1_accuracy(config) >= target:
                size = o1_size_bytes(config)
                if best is None or size < best[0]:
                    best = (size, config)
    return best


class TestQuantConfig:
    def test_uniform_and_replace(self):
        config = QuantConfig.uniform(["a", "b"], 16)
        assert config.bits == {"a": 16, "b": 16}
        lowered = config.replace({"a": 4})
        assert lowered.bits == {"a": 4, "b": 16}
        assert config.bits["a"] == 16

    def test_invalid_width_rejected(self):
        with pytest.raises(GraphError):
            QuantConfig(bits={"a": 1})
        with pytest.raises(GraphError):
            QuantConfig(bits={"a": 17})

    def test_baseline_width_always_allowed(self):
        config = QuantConfig(bits={"a": 32}, baseline_bits=32)
        assert config.bits["a"] == 32


class TestEvaluateConfig:
    def test_all_baseline_equals_clean_accuracy(self):
        model, data = make_small_ce_model()
        config = QuantConfig.uniform(model.weight_tensor_names(), 16)
        assert evaluate_config(model, data, {}, config) == forward(model, data).accuracy

    def test_matches_direct_quantized_forward(self):
        model, data = make_small_ce_model()
        bits = {name: 8 for name in model.weight_tensor_names()}
        specs = calibrate(model, bits).specs
        config = QuantConfig.uniform(model.weight_tensor_names(), 16).replace(
            {"first.weight": 8}
        )
        got = evaluate_config(model, data, {8: specs}, config)
        w8 = quantize(model.parameter("first.weight"), specs["first.weight"])
        direct = forward(model, data, {"first.weight": w8}).accuracy
        assert got == direct

    def test_missing_spec_is_an_error(self):
        model, data = make_small_ce_model()
        config = QuantConfig.uniform(model.weight_tensor_names(), 16).replace(
            {"first.weight": 4}
        )
        with pytest.raises(GraphError):
            evaluate_config(model, data, {8: {}}, config)
        # a spec of another width is not a 4-bit spec
        specs8 = calibrate(model, {name: 8 for name in model.weight_tensor_names()}).specs
        with pytest.raises(GraphError):
            evaluate_config(model, data, {4: specs8}, config)

    def test_deterministic(self):
        model, data = make_small_ce_model()
        bits = {name: 4 for name in model.weight_tensor_names()}
        specs = calibrate(model, bits).specs
        config = QuantConfig.uniform(model.weight_tensor_names(), 4)
        first = evaluate_config(model, data, {4: specs}, config)
        assert all(
            evaluate_config(model, data, {4: specs}, config) == first for _ in range(3)
        )


class TestGreedySearch:
    def test_oracle_matches_exhaustive_minimum(self):
        outcome = greedy_search(first_only(o1_accuracy), O1_NAMES, (4, 8, 16), 0.99, 1.0)
        best_size, _ = exhaustive_optimum(O1_NAMES, (4, 8, 16), outcome.target)
        assert o1_size_bytes(outcome.config) == best_size
        assert outcome.config.bits == {"L1": 8, "L2": 8, "L3": 16, "L4": 16}
        assert outcome.achieved_accuracy >= outcome.target

    def test_reversed_ordering_still_meets_target(self):
        outcome = greedy_search(
            first_only(o1_accuracy), tuple(reversed(O1_NAMES)), (4, 8, 16), 0.99, 1.0
        )
        assert outcome.achieved_accuracy >= outcome.target
        assert o1_accuracy(outcome.config) >= outcome.target

    def test_all_rejections_return_baseline(self):
        outcome = greedy_search(first_only(lambda c: 0.0), O1_NAMES, (4, 8), 0.99, 1.0)
        assert outcome.config.bits == {n: 16 for n in O1_NAMES}
        assert outcome.achieved_accuracy == 1.0

    def test_budget_and_trace_accounting(self):
        outcome = greedy_search(first_only(o1_accuracy), O1_NAMES, (4, 8, 16), 0.99, 1.0)
        assert outcome.evals == len(outcome.trace) <= 2 * len(O1_NAMES)

    def test_rejected_tensor_not_retried_at_lower_width(self):
        outcome = greedy_search(first_only(o1_accuracy), O1_NAMES, (4, 8, 16), 0.99, 1.0)
        tried_at_4 = {e["tensor"] for e in outcome.trace if e["bits"] == 4}
        rejected_at_8 = {
            e["tensor"] for e in outcome.trace if e["bits"] == 8 and not e["accepted"]
        }
        assert not tried_at_4 & rejected_at_8

    def test_deterministic(self):
        a = greedy_search(first_only(o1_accuracy), O1_NAMES, (4, 8), 0.995, 1.0)
        b = greedy_search(first_only(o1_accuracy), O1_NAMES, (4, 8), 0.995, 1.0)
        assert a == b


def sequential_greedy(oracle, names, levels, target):
    """Greedy as a width-by-width walk, one probe per evaluation."""
    bits = dict.fromkeys(names, 16)
    trace, survivors = [], list(names)
    for b in levels:
        kept = []
        for name in survivors:
            accuracy = oracle(QuantConfig({**bits, name: b}))
            trace.append((name, b, accuracy >= target))
            if accuracy >= target:
                bits[name] = b
                kept.append(name)
        survivors = kept
    return bits, trace


def key(config):
    return frozenset(config.bits.items())


def sequential_bisection(oracle, names, levels, target):
    """Bisection as a width-by-width walk, one probe per evaluation: the
    committed bits, every config evaluated and (threshold, bits, accepted)
    per evaluation, verifications included."""
    bits = dict.fromkeys(names, 16)
    evaluated, trace, prefix = [], [], list(names)
    for b in levels:
        low, high = 0, len(prefix) + 1
        while high - low > 1:
            threshold = (low + high) // 2
            evaluated.append(QuantConfig({**bits, **dict.fromkeys(prefix[:threshold], b)}))
            ok = oracle(evaluated[-1]) >= target
            trace.append((threshold, b, ok))
            low, high = (threshold, high) if ok else (low, threshold)
        if low:
            bits.update(dict.fromkeys(prefix[:low], b))
            evaluated.append(QuantConfig(dict(bits)))
            trace.append((low, b, oracle(evaluated[-1]) >= target))
        prefix = prefix[:low]
    return bits, evaluated, trace


@st.composite
def search_problems(draw):
    """An ordering, candidate widths and a deterministic oracle whose
    accept pattern hypothesis picks through per-(tensor, width) penalties."""
    names = draw(st.permutations([f"t{i}" for i in range(draw(st.integers(1, 6)))]))
    widths = st.sampled_from([2, 3, 4, 5, 6, 8])
    levels = draw(st.lists(widths, min_size=1, max_size=4, unique=True))
    penalty = {
        (name, b): draw(st.sampled_from([0.0, 0.001, 0.002, 0.005, 0.02]))
        for name in names
        for b in levels
    }

    def oracle(config):
        return 1.0 - sum(penalty.get(item, 0.0) for item in config.bits.items())

    fraction = draw(st.sampled_from([0.99, 0.995, 1.0]))
    return list(names), sorted(levels, reverse=True), oracle, fraction


class TestChainedEvaluation:
    @settings(max_examples=150, deadline=None)
    @given(search_problems(), st.sampled_from(["one", "all", "prefix"]), st.data())
    def test_outcome_does_not_depend_on_how_many_answers(self, problem, answers, data):
        names, levels, oracle, fraction = problem

        def evaluator(configs):
            count = {
                "one": 1,
                "all": len(configs),
                "prefix": data.draw(st.integers(1, len(configs))),
            }[answers]
            return [oracle(c) for c in configs[:count]]

        chained = greedy_search(evaluator, names, levels, fraction, 1.0)
        assert chained == greedy_search(first_only(oracle), names, levels, fraction, 1.0)
        bits, trace = sequential_greedy(oracle, names, levels, chained.target)
        assert chained.config.bits == bits
        assert [(e["tensor"], e["bits"], e["accepted"]) for e in chained.trace] == trace

    @settings(max_examples=100, deadline=None)
    @given(problem=search_problems())
    def test_offers_one_config_right_after_a_rejection(self, problem):
        names, levels, oracle, fraction = problem
        offers = []

        def evaluator(configs):
            offers.append([oracle(c) for c in configs])
            return offers[-1]

        outcome = greedy_search(evaluator, names, levels, fraction, 1.0)
        # the first offer is every probe, across widths, as if all were accepted
        assert len(offers[0]) == len(names) * len(levels)
        for answered, following in zip(offers, offers[1:]):
            if any(accuracy < outcome.target for accuracy in answered):
                assert len(following) == 1

    @settings(max_examples=150, deadline=None)
    @given(search_problems(), st.sampled_from(["one", "all", "prefix"]), st.data())
    def test_bisection_outcome_does_not_depend_on_how_many_answers(self, problem, answers, data):
        names, levels, oracle, fraction = problem
        offers = []

        def evaluator(configs):
            count = {
                "one": 1,
                "all": len(configs),
                "prefix": data.draw(st.integers(1, len(configs))),
            }[answers]
            offers.append((list(configs), count))
            return [oracle(c) for c in configs[:count]]

        chained = bisection_search(evaluator, names, levels, fraction, 1.0)
        assert chained == bisection_search(first_only(oracle), names, levels, fraction, 1.0)
        bits, _, trace = sequential_bisection(oracle, names, levels, chained.target)
        assert chained.config.bits == bits
        assert [(e["threshold"], e["bits"], e["accepted"]) for e in chained.trace] == trace
        # Every offer, the first and each after a rejection included, is the
        # rest of what a sequential bisection evaluates if each config whose
        # answer the search has not used yet is accepted.
        used = []
        for offer, count in offers:
            known = {key(c): oracle(c) for c in used}
            path = sequential_bisection(
                lambda c: known.get(key(c), 1.0), names, levels, chained.target
            )[1]
            assert offer == path[len(used) :]
            rejected = [oracle(c) < chained.target for c in offer[:count]] + [True]
            used += offer[: min(count, rejected.index(True) + 1)]

    @pytest.mark.parametrize("answered", [0, 2])
    def test_evaluator_must_answer_a_prefix(self, answered):
        with pytest.raises(RuntimeError):
            greedy_search(lambda configs: [1.0] * answered, ["a"], (8,), 0.99, 1.0)

    @pytest.mark.parametrize("pattern", ["all-reject", "alternating", "all-accept"])
    @pytest.mark.parametrize("order", ["qe", "layers", "reversed"])
    def test_pipeline_prefix_rule_costs_near_sequential(self, monkeypatch, pattern, order):
        """The run's evaluator spends at most 1.2x the multiply-adds of one
        forward per probe on the wide model, for greedy and bisection,
        rejections wasting its speculative tails included; bisection's
        verifications are free."""
        model = build_fixture_model(7, FixtureSpec((64, 192, 160, 128, 96, 64, 32, 10)))
        names = model.weight_tensor_names()
        ordering = {
            "qe": [names[i] for i in (5, 6, 3, 0, 4, 1, 2)],  # a wide qe/greedy run's
            "layers": names,
            "reversed": names[::-1],
        }[order]
        probes = [(name, b) for b in (8, 4) for name in ordering]
        rejected = {"all-reject": probes, "alternating": probes[::2], "all-accept": []}[pattern]
        spent = []

        def fake_engine(model, data, specs_by_bits, configs):
            spent.append(sum(pipeline_module._chain_macs(model, configs)))
            return [0.0 if set(c.bits.items()) & set(rejected) else 1.0 for c in configs]

        monkeypatch.setattr(pipeline_module, "evaluate_configs", fake_engine)
        forward_macs = sum(model.parameter(name).size for name in names)
        for search in (greedy_search, bisection_search):
            spent.clear()
            evaluator = functools.partial(pipeline_module._evaluate_chain, model, None, {}, {})
            outcome = search(evaluator, ordering, (4, 8), 0.99, 1.0)
            made = sum(not entry.get("verification") for entry in outcome.trace)
            assert sum(spent) <= 1.2 * made * forward_macs, search.__name__


class TestBisectionSearch:
    def test_oracle_matches_exhaustive_prefix_optimum(self):
        outcome = bisection_search(first_only(o1_accuracy), O1_NAMES, (4, 8, 16), 0.99, 1.0)
        best_size, best_config = exhaustive_prefix_optimum(O1_NAMES, outcome.target)
        assert o1_size_bytes(outcome.config) == best_size
        assert outcome.config.bits == best_config.bits
        assert outcome.achieved_accuracy >= outcome.target

    def test_single_tensor_single_width(self):
        outcome = bisection_search(first_only(lambda c: 1.0), ["only"], (8,), 0.99, 1.0)
        assert outcome.config.bits == {"only": 8}
        assert outcome.evals <= 3

    def test_all_fail_returns_baseline(self):
        outcome = bisection_search(first_only(lambda c: 0.5), O1_NAMES, (4, 8), 0.99, 1.0)
        assert outcome.config.bits == {n: 16 for n in O1_NAMES}
        assert outcome.achieved_accuracy == 1.0

    def test_budget_on_54_tensors(self):
        names = [f"t{i:02d}" for i in range(54)]
        outcome = bisection_search(first_only(lambda c: 1.0), names, (4, 8), 0.999, 1.0)
        assert outcome.evals <= 2 * (int(np.ceil(np.log2(54))) + 2) + 2
        assert outcome.config.bits == {n: 4 for n in names}

    def test_verification_failure_falls_back(self):
        # an evaluator that passes during probing and fails verification;
        # only non-determinism can cause this, the fallback must hold
        calls = {"n": 0}

        def flaky(config):
            calls["n"] += 1
            return 1.0 if calls["n"] <= 2 else 0.0

        outcome = bisection_search(first_only(flaky), ["a", "b"], (8,), 0.99, 1.0)
        assert outcome.config.bits == {"a": 16, "b": 16}
        assert outcome.achieved_accuracy == 1.0
        assert any(e.get("verification") and not e["accepted"] for e in outcome.trace)

    def test_monotone_prefix_structure(self):
        outcome = bisection_search(first_only(o1_accuracy), O1_NAMES, (4, 8, 16), 0.995, 1.0)
        widths = [outcome.config.bits[n] for n in O1_NAMES]
        # ascending-sensitivity order must get non-decreasing widths
        assert widths == sorted(widths)

    def test_deterministic(self):
        a = bisection_search(first_only(o1_accuracy), O1_NAMES, (4, 8), 0.99, 1.0)
        b = bisection_search(first_only(o1_accuracy), O1_NAMES, (4, 8), 0.99, 1.0)
        assert a == b


class TestArgumentChecks:
    @pytest.mark.parametrize("search", [greedy_search, bisection_search])
    def test_bad_target_fraction(self, search):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(GraphError):
                search(first_only(o1_accuracy), O1_NAMES, (8,), bad, 1.0)

    @pytest.mark.parametrize("search", [greedy_search, bisection_search])
    def test_empty_or_duplicated_ordering(self, search):
        with pytest.raises(GraphError):
            search(first_only(o1_accuracy), [], (8,), 0.99, 1.0)
        with pytest.raises(GraphError):
            search(first_only(o1_accuracy), ["a", "a"], (8,), 0.99, 1.0)

    @pytest.mark.parametrize("search", [greedy_search, bisection_search])
    def test_no_candidates(self, search):
        with pytest.raises(GraphError):
            search(first_only(o1_accuracy), O1_NAMES, (), 0.99, 1.0)

    def test_candidates_at_or_above_baseline_dropped(self):
        seen_widths = set()

        def spy(config):
            seen_widths.update(config.bits.values())
            return 1.0

        greedy_search(first_only(spy), O1_NAMES, (16, 8), 0.99, 1.0, baseline_bits=16)
        assert seen_widths == {8, 16}


class TestPersistence:
    def test_config_round_trip(self, tmp_path):
        config = QuantConfig(bits={"a": 4, "b": 16, "c": 8})
        path = tmp_path / "config.json"
        save_config(config, path)
        assert load_config(path) == config

    def test_outcome_round_trip(self, tmp_path):
        outcome = greedy_search(first_only(o1_accuracy), O1_NAMES, (4, 8), 0.99, 1.0)
        path = tmp_path / "outcome.json"
        save_outcome(outcome, path)
        loaded = load_outcome(path)
        assert loaded.config == outcome.config
        assert loaded.evals == outcome.evals
        assert loaded.target == outcome.target
        assert loaded.achieved_accuracy == outcome.achieved_accuracy
        assert list(loaded.trace) == list(outcome.trace)

    def test_wrong_format_rejected(self, tmp_path):
        from mixquant.modelio import DataFormatError

        path = tmp_path / "nope.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(DataFormatError):
            load_config(path)
        with pytest.raises(DataFormatError):
            load_outcome(path)
