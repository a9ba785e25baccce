"""Search strategy tests against synthetic oracles and the real engine."""

import functools
import itertools
import math
from fractions import Fraction

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
import mixquant.graph as graph_module
import mixquant.pipeline as pipeline_module
from mixquant.calibrate import calibrate
from mixquant.fixtures import FixtureSpec, build_fixture_model
from mixquant.graph import Dataset, GraphError, chain_accuracies
from mixquant.modelio import read_record, write_record
from mixquant.pipeline import evaluate_configs
from mixquant.quantize import quantize
from mixquant.search import (
    QuantConfig,
    SearchOutcome,
    _replay,
    accepts,
    accuracy_bar,
    bisection_search,
    greedy_search,
)

BAR_99 = Fraction(99, 100)  # the bar of target 0.99 over a baseline of 1


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


def evaluate_one(model, data, specs_by_bits, config):
    return evaluate_configs(model, data, specs_by_bits, [config])[0]


class TestEvaluateConfig:
    """A one-config evaluation, as verify-target makes."""

    def test_all_baseline_equals_clean_accuracy(self):
        model, data = make_small_ce_model()
        config = QuantConfig.uniform(model.weight_tensor_names(), 16)
        assert evaluate_one(model, data, {}, config) == chain_accuracies(model, data, [{}])[0]

    def test_matches_direct_quantized_forward(self):
        model, data = make_small_ce_model()
        specs = calibrate(model, 8)
        config = QuantConfig.uniform(model.weight_tensor_names(), 16).replace(
            {"first.weight": 8}
        )
        got = evaluate_one(model, data, {8: specs}, config)
        w8 = quantize(model.parameter("first.weight"), specs["first.weight"])
        [direct] = chain_accuracies(model, data, [{"first.weight": w8}])
        assert got == direct

    def test_missing_spec_is_an_error(self):
        model, data = make_small_ce_model()
        config = QuantConfig.uniform(model.weight_tensor_names(), 16).replace(
            {"first.weight": 4}
        )
        with pytest.raises(GraphError):
            evaluate_one(model, data, {8: {}}, config)
        # a spec of another width is not a 4-bit spec
        specs8 = calibrate(model, 8)
        with pytest.raises(GraphError):
            evaluate_one(model, data, {4: specs8}, config)

    def test_deterministic(self):
        model, data = make_small_ce_model()
        specs = calibrate(model, 4)
        config = QuantConfig.uniform(model.weight_tensor_names(), 4)
        first = evaluate_one(model, data, {4: specs}, config)
        assert all(
            evaluate_one(model, data, {4: specs}, config) == first for _ in range(3)
        )


class TestGreedySearch:
    def test_oracle_matches_exhaustive_minimum(self):
        outcome = greedy_search(first_only(o1_accuracy), O1_NAMES, (4, 8, 16), 0.99, 1.0)
        best_size, _ = exhaustive_optimum(O1_NAMES, (4, 8, 16), BAR_99)
        assert o1_size_bytes(outcome.config) == best_size
        assert outcome.config.bits == {"L1": 8, "L2": 8, "L3": 16, "L4": 16}
        assert outcome.achieved_accuracy >= outcome.target

    def test_reversed_ordering_still_meets_target(self):
        outcome = greedy_search(
            first_only(o1_accuracy), tuple(reversed(O1_NAMES)), (4, 8, 16), 0.99, 1.0
        )
        assert outcome.achieved_accuracy >= outcome.target
        assert o1_accuracy(outcome.config) >= BAR_99

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


def sequential_greedy(oracle, names, levels, bar):
    """Greedy as a width-by-width walk, one probe per evaluation, the
    oracle's exact answers against the exact ``bar``."""
    bits = dict.fromkeys(names, 16)
    trace, survivors = [], list(names)
    for b in levels:
        kept = []
        for name in survivors:
            accuracy = oracle(QuantConfig({**bits, name: b}))
            trace.append((name, b, accuracy >= bar))
            if accuracy >= bar:
                bits[name] = b
                kept.append(name)
        survivors = kept
    return bits, trace


def key(config):
    return frozenset(config.bits.items())


def sequential_bisection(oracle, names, levels, bar):
    """Bisection as a width-by-width walk, one probe per evaluation: the
    committed bits, every config evaluated and (threshold, bits, accepted)
    per evaluation."""
    bits = dict.fromkeys(names, 16)
    evaluated, trace, prefix = [], [], list(names)
    for b in levels:
        low, high = 0, len(prefix) + 1
        while high - low > 1:
            threshold = (low + high) // 2
            evaluated.append(QuantConfig({**bits, **dict.fromkeys(prefix[:threshold], b)}))
            ok = oracle(evaluated[-1]) >= bar
            trace.append((threshold, b, ok))
            low, high = (threshold, high) if ok else (low, threshold)
        bits.update(dict.fromkeys(prefix[:low], b))
        prefix = prefix[:low]
    return bits, evaluated, trace


@st.composite
def search_problems(draw):
    """An ordering, candidate widths and a deterministic oracle whose
    accept pattern hypothesis picks through per-(tensor, width) penalties.
    Its answers are exact, as the engine's are: in floats, two penalties
    of 0.005 would score ``1.0 - 0.005 - 0.005``, below the bar 99/100."""
    names = draw(st.permutations([f"t{i}" for i in range(draw(st.integers(1, 6)))]))
    widths = st.sampled_from([2, 3, 4, 5, 6, 8])
    levels = draw(st.lists(widths, min_size=1, max_size=4, unique=True))
    penalty = {
        (name, b): Fraction(draw(st.sampled_from(["0", "0.001", "0.002", "0.005", "0.02"])))
        for name in names
        for b in levels
    }

    def oracle(config):
        return 1 - sum(penalty.get(item, 0) for item in config.bits.items())

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
        bits, trace = sequential_greedy(oracle, names, levels, accuracy_bar(fraction, 1))
        assert chained.config.bits == bits
        assert [(e["tensor"], e["bits"], e["accepted"]) for e in chained.trace] == trace

    @settings(max_examples=100, deadline=None)
    @given(search_problems(), st.sampled_from([greedy_search, bisection_search]))
    def test_offers_one_config_right_after_a_rejection(self, problem, search):
        names, levels, oracle, fraction = problem
        offers = []

        def evaluator(configs):
            offers.append([oracle(c) for c in configs])
            return offers[-1]

        search(evaluator, names, levels, fraction, 1.0)
        bar = accuracy_bar(fraction, 1)
        # the first offer is every probe, across widths, as if all were accepted
        all_accepted = search(first_only(lambda c: 1.0), names, levels, fraction, 1.0)
        assert len(offers[0]) == all_accepted.evals
        for answered, following in zip(offers, offers[1:]):
            if any(accuracy < bar for accuracy in answered):
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
        bar = accuracy_bar(fraction, 1)
        bits, _, trace = sequential_bisection(oracle, names, levels, bar)
        assert chained.config.bits == bits
        assert chained.achieved_accuracy == float(oracle(chained.config))
        assert [(e["threshold"], e["bits"], e["accepted"]) for e in chained.trace] == trace
        # Every offer is the rest of what a sequential bisection evaluates
        # if each config whose answer the search has not used yet is
        # accepted, or only its first config right after a rejection.
        used, after_rejection = [], False
        for offer, count in offers:
            known = {key(c): oracle(c) for c in used}
            path = sequential_bisection(
                lambda c: known.get(key(c), 1.0), names, levels, bar
            )[1][len(used) :]
            assert offer == (path[:1] if after_rejection else path)
            rejected = [oracle(c) < bar for c in offer[:count]] + [True]
            used += offer[: min(count, rejected.index(True) + 1)]
            after_rejection = rejected.index(True) < count

    @settings(max_examples=150, deadline=None)
    @given(
        search_problems(), st.sampled_from([greedy_search, bisection_search]), st.data()
    )
    def test_no_config_is_offered_twice(self, problem, search, data):
        """No offered chain holds a config twice, and no config the
        evaluator already answered in a search is offered again, however
        many answers it gives: a deterministic engine needs no memo."""
        names, levels, oracle, fraction = problem
        answered = set()

        def evaluator(configs):
            keys = [key(c) for c in configs]
            assert len(set(keys)) == len(keys)
            assert not answered & set(keys)
            count = data.draw(st.integers(1, len(configs)))
            answered.update(keys[:count])
            return [oracle(c) for c in configs[:count]]

        search(evaluator, names, levels, fraction, 1.0)

    @pytest.mark.parametrize("answered", [0, 2])
    def test_evaluator_must_answer_a_prefix(self, answered):
        with pytest.raises(RuntimeError):
            greedy_search(lambda configs: [1.0] * answered, ["a"], (8,), 0.99, 1.0)

    def test_a_walk_over_its_budget_is_an_error(self):
        config = QuantConfig({"a": 8})

        def walk(probe):
            trace = [probe(config.replace({"a": b})) for b in (8, 6, 4)]
            return SearchOutcome(config, len(trace), 0.5, min(trace))

        with pytest.raises(RuntimeError, match="used 3 evaluations, over its budget 2"):
            _replay(first_only(lambda c: 1.0), walk, 0.5, 2)
        assert _replay(first_only(lambda c: 1.0), walk, 0.5, 3).evals == 3

    @pytest.mark.parametrize("pattern", ["all-reject", "alternating", "all-accept"])
    @pytest.mark.parametrize("order", ["qe", "layers", "reversed"])
    def test_pipeline_prefix_rule_costs_near_sequential(self, monkeypatch, pattern, order):
        """The run's evaluator spends at most 1.2x the multiply-adds of one
        forward per probe on the wide model, for greedy and bisection,
        rejections wasting its speculative tails included."""
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
            evaluator = functools.partial(pipeline_module._evaluate_chain, model, None, {})
            outcome = search(evaluator, ordering, (4, 8), 0.99, 1.0)
            made = len(outcome.trace)
            assert sum(spent) <= 1.2 * made * forward_macs, search.__name__


# The (offered, answered) chain lengths of every evaluator call that
# test_pipeline_prefix_rule_costs_near_sequential's fake engine sees:
# what the searches offer, and what ``_evaluate_chain`` answers of it by
# its per-probe rule (each tail at most half of the first config's
# forward).
PINNED_OFFERS = {
    ("greedy", "all-reject", "qe"): [(14, 3), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1)],
    ("bisection", "all-reject", "qe"): [(6, 1), (1, 1), (1, 1)],
    ("greedy", "alternating", "qe"): [
        (14, 3), (1, 1), (11, 1), (1, 1), (8, 1),
        (1, 1), (5, 2), (1, 1), (1, 1), (1, 1),
    ],
    ("bisection", "alternating", "qe"): [(6, 1), (1, 1), (1, 1)],
    ("greedy", "all-accept", "qe"): [(14, 3), (11, 2), (9, 5), (4, 2), (2, 2)],
    ("bisection", "all-accept", "qe"): [(6, 1), (5, 2), (3, 1), (2, 2)],
    ("greedy", "all-reject", "layers"): [(14, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1)],
    ("bisection", "all-reject", "layers"): [(6, 3), (1, 1), (1, 1)],
    ("greedy", "alternating", "layers"): [
        (14, 1), (1, 1), (11, 5), (1, 1), (8, 3),
        (1, 1), (5, 1), (1, 1), (1, 1), (1, 1),
    ],
    ("bisection", "alternating", "layers"): [(6, 3), (1, 1), (1, 1)],
    ("greedy", "all-accept", "layers"): [(14, 1), (13, 6), (7, 1), (6, 6)],
    ("bisection", "all-accept", "layers"): [(6, 3), (3, 3)],
    ("greedy", "all-reject", "reversed"): [(14, 5), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1)],
    ("bisection", "all-reject", "reversed"): [(6, 1), (1, 1), (1, 1)],
    ("greedy", "alternating", "reversed"): [
        (14, 5), (1, 1), (11, 3), (1, 1), (8, 1),
        (1, 1), (5, 3), (1, 1), (1, 1), (1, 1),
    ],
    ("bisection", "alternating", "reversed"): [(6, 1), (1, 1), (1, 1)],
    ("greedy", "all-accept", "reversed"): [(14, 5), (9, 1), (8, 6), (2, 1), (1, 1)],
    ("bisection", "all-accept", "reversed"): [(6, 1), (5, 1), (4, 2), (2, 1), (1, 1)],
}


@pytest.mark.parametrize("pattern", ["all-reject", "alternating", "all-accept"])
@pytest.mark.parametrize("order", ["qe", "layers", "reversed"])
def test_pipeline_offers_match_the_pinned_chains(monkeypatch, pattern, order):
    model = build_fixture_model(7, FixtureSpec((64, 192, 160, 128, 96, 64, 32, 10)))
    names = model.weight_tensor_names()
    ordering = {
        "qe": [names[i] for i in (5, 6, 3, 0, 4, 1, 2)],
        "layers": names,
        "reversed": names[::-1],
    }[order]
    probes = [(name, b) for b in (8, 4) for name in ordering]
    rejected = {"all-reject": probes, "alternating": probes[::2], "all-accept": []}[pattern]
    monkeypatch.setattr(
        pipeline_module,
        "evaluate_configs",
        lambda model, data, specs_by_bits, configs: [
            0.0 if set(c.bits.items()) & set(rejected) else 1.0 for c in configs
        ],
    )
    for search in (greedy_search, bisection_search):
        calls = []

        def evaluator(configs):
            answers = pipeline_module._evaluate_chain(model, None, {}, configs)
            calls.append((len(configs), len(answers)))
            return answers

        search(evaluator, ordering, (4, 8), 0.99, 1.0)
        kind = search.__name__.removesuffix("_search")
        assert calls == PINNED_OFFERS[kind, pattern, order], kind


@pytest.fixture(scope="module")
def wide_model():
    return build_fixture_model(7, FixtureSpec((64, 192, 160, 128, 96, 64, 32, 10)))


@st.composite
def chains(draw, names):
    """Configs, each the one before with the tensor of a drawn layer, and
    a random set of those after it, set to 4 or 8 bits: tails of every
    length come up, an unchanged config's empty tail included."""
    config = QuantConfig.uniform(names, 16)
    chain = []
    for _ in range(draw(st.integers(1, 10))):
        start = draw(st.integers(0, len(names)))
        picked = names[start : start + 1] + [n for n in names[start + 1 :] if draw(st.booleans())]
        config = config.replace({name: draw(st.sampled_from([4, 8])) for name in picked})
        chain.append(config)
    return chain


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pipeline_answers_the_longest_prefix_within_the_tail_bound(wide_model, data):
    """``_evaluate_chain`` answers the longest prefix of a chain in which
    every config after the first has a tail of at most half the first's
    forward, as ``graph.chain_macs`` prices them."""
    configs = data.draw(chains(wide_model.weight_tensor_names()))
    forward_macs, *tails = pipeline_module._chain_macs(wide_model, configs)

    def within(count):
        return all(2 * tail <= forward_macs for tail in tails[: count - 1])

    expected = max(count for count in range(1, len(configs) + 1) if within(count))
    seen = []

    def fake_engine(model, data, specs_by_bits, offered):
        seen.append(list(offered))
        return [1.0] * len(offered)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline_module, "evaluate_configs", fake_engine)
        answers = pipeline_module._evaluate_chain(wide_model, None, {}, configs)
    assert seen == [configs[:expected]] and len(answers) == expected


@pytest.mark.parametrize("order", ["layers", "reversed", "interleaved"])
@pytest.mark.parametrize("which", ["seed7", "wide"])
def test_pipeline_chains_run_the_work_they_are_priced_at(
    f1, wide_model, monkeypatch, which, order
):
    """The multiply-adds the engine runs for ``_evaluate_chain`` are the rows
    times ``_chain_macs`` of the configs it answers: each (tensor, width)
    pair is quantized once per call, so a tensor that a config leaves
    unchanged is the same array as in the config before it, and the engine
    resumes that config below its change."""
    if which == "seed7":
        model, _, data = f1
    else:
        model, rng = wide_model, np.random.default_rng(3)
        labels = rng.integers(0, model.output_dim, size=1000)
        data = Dataset(rng.normal(size=(1000, model.input_dim)), labels, model.output_dim)
    names = model.weight_tensor_names()
    ordering = {"layers": names, "reversed": names[::-1], "interleaved": names[1::2] + names[::2]}
    spec_bank = {bits: calibrate(model, bits) for bits in (4, 8)}
    config, path = QuantConfig.uniform(names, 16), []  # an all-accepted greedy walk's probes
    for bits in (8, 4):
        for name in ordering[order]:
            config = config.replace({name: bits})
            path.append(config)
    ran = []
    run_layers = graph_module._run_layers

    def spy(model, acts, weights, start=0, keep=None):
        ran.append(acts[start].shape[0] * sum(weight.size for weight in weights[start:]))
        return run_layers(model, acts, weights, start, keep)

    monkeypatch.setattr(graph_module, "_run_layers", spy)
    longest = 0
    for start in range(len(path)):
        ran.clear()
        answers = pipeline_module._evaluate_chain(model, data, spec_bank, path[start:])
        answered = path[start : start + len(answers)]
        assert sum(ran) == len(data) * sum(pipeline_module._chain_macs(model, answered)), start
        longest = max(longest, len(answered))
    assert longest > 1  # some call chained configs


class TestBisectionSearch:
    def test_oracle_matches_exhaustive_prefix_optimum(self):
        outcome = bisection_search(first_only(o1_accuracy), O1_NAMES, (4, 8, 16), 0.99, 1.0)
        best_size, best_config = exhaustive_prefix_optimum(O1_NAMES, BAR_99)
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
        assert outcome.evals <= 2 * (int(np.ceil(np.log2(54))) + 2)
        assert outcome.config.bits == {n: 4 for n in names}

    def test_monotone_prefix_structure(self):
        outcome = bisection_search(first_only(o1_accuracy), O1_NAMES, (4, 8, 16), 0.995, 1.0)
        widths = [outcome.config.bits[n] for n in O1_NAMES]
        # ascending-sensitivity order must get non-decreasing widths
        assert widths == sorted(widths)

    def test_deterministic(self):
        a = bisection_search(first_only(o1_accuracy), O1_NAMES, (4, 8), 0.99, 1.0)
        b = bisection_search(first_only(o1_accuracy), O1_NAMES, (4, 8), 0.99, 1.0)
        assert a == b


def float_rule_ties():
    """Every (rows, target, baseline hits, hits) with ``hits / rows`` exactly
    on the bar, the decimal target times ``baseline / rows``, that the float
    rule ``hits / rows >= target * (baseline / rows)`` rejected, over the
    split sizes and targets a run commonly has."""
    ties = []
    for rows in (100, 1000, 2048):
        for target in (0.9, 0.95, 0.98, 0.99, 0.995, 0.999):
            for baseline in range(rows + 1):
                on_bar = Fraction(str(target)) * baseline
                hits = int(on_bar)
                if hits == on_bar and not hits / rows >= target * (baseline / rows):
                    ties.append((rows, target, baseline, hits))
    return ties


TIES = float_rule_ties()


class TestExactAcceptance:
    def test_the_float_rule_rejected_42_ties(self):
        assert len(TIES) == 42
        assert (100, 0.9, 80, 72) in TIES
        assert not [tie for tie in TIES if tie[0] == 2048]

    @pytest.mark.parametrize(
        "rows, target, baseline, hits", TIES, ids=[f"n{n}-t{t}-b{b}" for n, t, b, _ in TIES]
    )
    def test_a_tie_is_on_the_bar_and_accepted(self, rows, target, baseline, hits):
        bar = accuracy_bar(target, Fraction(baseline, rows))
        assert bar == Fraction(hits, rows)
        assert accepts(Fraction(hits, rows), bar)
        assert not accepts(Fraction(hits - 1, rows), bar)

    def test_the_bar_reads_the_decimal_of_a_numpy_target(self):
        assert accuracy_bar(np.float64(0.9), Fraction(4, 5)) == Fraction(18, 25)
        assert accuracy_bar(0.99, 1.0) == BAR_99

    @pytest.mark.parametrize("search", [greedy_search, bisection_search])
    def test_a_probe_on_the_bar_is_committed(self, search):
        outcome = search(
            first_only(lambda c: Fraction(72, 100)), ["a"], (8,), 0.9, Fraction(80, 100)
        )
        assert outcome.config.bits == {"a": 8}
        assert [e["accepted"] for e in outcome.trace] == [True]
        assert outcome.trace[0]["accuracy"] == outcome.achieved_accuracy == outcome.target == 0.72

    @pytest.mark.parametrize("search", [greedy_search, bisection_search])
    def test_a_float_baseline_counts_as_the_decimal_it_prints(self, search):
        for baseline in (0.8, np.float64(0.8)):
            assert accuracy_bar(0.9, baseline) == Fraction(18, 25)
            outcome = search(first_only(lambda c: Fraction(72, 100)), ["a"], (8,), 0.9, baseline)
            assert outcome.config.bits == {"a": 8}
            assert [e["accepted"] for e in outcome.trace] == [True]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10_000), st.integers(1, 1000), st.data())
    def test_rounding_once_keeps_every_decision(self, rows, permille, data):
        """A record rounds each accuracy and the bar once; rounding is
        monotone, so an accepted accuracy reads at or above its bar in
        floats and a rejected one at or below it, and an accuracy rounds
        to ``hits / rows``, bit for bit."""
        baseline = data.draw(st.integers(0, rows))
        bar = accuracy_bar(permille / 1000, Fraction(baseline, rows))
        hits = min(rows, max(0, math.floor(bar * rows) + data.draw(st.integers(-1, 1))))
        accuracy = Fraction(hits, rows)
        assert float(accuracy) == hits / rows
        if accepts(accuracy, bar):
            assert float(accuracy) >= float(bar)
        else:
            assert float(accuracy) <= float(bar)


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
        write_record(path, config)
        assert read_record(path, QuantConfig) == config

    def test_outcome_round_trip(self, tmp_path):
        outcome = greedy_search(first_only(o1_accuracy), O1_NAMES, (4, 8), 0.99, 1.0)
        path = tmp_path / "outcome.json"
        write_record(path, outcome)
        loaded = read_record(path, SearchOutcome)
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
            read_record(path, QuantConfig)
        with pytest.raises(DataFormatError):
            read_record(path, SearchOutcome)
