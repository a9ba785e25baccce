"""Inference engine tests: forward, reverse mode, Hessian traces and their HVP oracle."""

import contextlib
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    central_difference_hvp,
    full_basis_trace,
    make_dead_relu_model,
    make_diagonal_quadratic,
    make_small_ce_model,
    parameter_gradients,
    r_op_hvp,
    r_op_tape,
    with_tensor,
)
import mixquant.graph as graph_module
import mixquant.pipeline as pipeline_module
from mixquant.fixtures import (
    FixtureSpec,
    build_fixture,
    build_fixture_latency_table,
    build_fixture_model,
)
from mixquant.graph import (
    FORWARD_BLOCK_FLOATS,
    HEAD_SOFTMAX_CE,
    HEAD_SQUARED_ERROR,
    Dataset,
    GraphError,
    Layer,
    ModelGraph,
    _chained_blocks,
    _head,
    _inputs,
    on_workers,
    _relu_backward,
    _run_layers,
    chain_accuracies,
    chain_losses,
    chain_macs,
    hessian_traces,
    one_blas_thread,
)
from mixquant.modelio import save_dataset, save_model
from mixquant.pipeline import PipelineConfig, run_pipeline
from mixquant.quantize import CalibrationOutcome, calibrate, quantize
from mixquant.sensitivity import score_noise


WIDE_DIMS = (64, 192, 160, 128, 96, 64, 32, 10)


def identity_model(dim=2):
    return ModelGraph([Layer("lin", np.eye(dim), np.zeros(dim))])


def block_rows(model):
    """Rows per block of an untaped pass over ``model``."""
    widest = max(model.parameter(name).shape[0] for name in model.weight_tensor_names())
    return FORWARD_BLOCK_FLOATS // widest


def random_split(model, rows, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, model.output_dim, size=rows)
    return Dataset(rng.normal(size=(rows, model.input_dim)), labels, model.output_dim)


def whole_split_result(model, data, weights):
    """Logits, mean loss and exact accuracy of the taped pass, which runs all rows at once."""
    used = [weights.get(name, model.parameter(name)) for name in model.weight_tensor_names()]
    acts = _inputs(model, data.features)
    _run_layers(model, acts, used)
    logits = acts[-1]
    loss = float(np.mean(_head(model, logits, data.labels)))
    hits = int(np.count_nonzero(np.argmax(logits, axis=1) == data.labels))
    return logits, (loss, Fraction(hits, len(data)))


def one_map_result(model, data, weights=None):
    """Mean loss and accuracy of the row-blocked pass over ``weights`` alone."""
    maps = [weights or {}]
    return chain_losses(model, data, maps)[0], chain_accuracies(model, data, maps)[0]


def blocked_logits(model, x, weights):
    """Logits of ``x`` under ``weights`` from the row-blocked pass, blocks joined in row order."""
    [blocks] = _chained_blocks(model, x, [weights], lambda logits, lo, hi: logits.copy())
    return np.concatenate(blocks)


class TestModelValidation:
    def test_empty_chain_rejected(self):
        with pytest.raises(GraphError, match="model has no affine layer"):
            ModelGraph([])

    def test_duplicate_layer_names_rejected(self):
        with pytest.raises(GraphError):
            ModelGraph(
                [
                    Layer("a", np.eye(2), np.zeros(2)),
                    Layer("a", np.eye(2), np.zeros(2)),
                ]
            )

    def test_dimension_chain_mismatch_rejected(self):
        with pytest.raises(GraphError):
            ModelGraph(
                [
                    Layer("a", np.ones((3, 2)), np.zeros(3)),
                    Layer("b", np.ones((2, 4)), np.zeros(2)),
                ]
            )

    def test_nonfinite_weight_rejected(self):
        w = np.eye(2)
        w[0, 0] = np.inf
        with pytest.raises(GraphError):
            ModelGraph([Layer("a", w, np.zeros(2))])

    def test_unknown_head_rejected(self):
        with pytest.raises(GraphError):
            ModelGraph([Layer("a", np.eye(2), np.zeros(2))], head="hinge")

    def test_parameters_are_read_only(self):
        model = identity_model()
        with pytest.raises(ValueError):
            model.parameter("lin.weight")[0, 0] = 9.0

    def test_weight_names_are_the_quantizable_tensors(self):
        model = ModelGraph(
            [
                Layer("d1", np.ones((3, 2)), np.zeros(3), relu=True),
                Layer("d2", np.ones((2, 3)), np.zeros(2)),
            ]
        )
        assert model.weight_tensor_names() == ["d1.weight", "d2.weight"]
        data = Dataset(np.ones((1, 2)), np.zeros(1, dtype=int), 2)
        for name in ("d1.out", "d1.relu"):
            with pytest.raises(GraphError, match="unknown tensors"):
                chain_accuracies(model, data, [{name: np.ones((1, 3))}])

    @pytest.mark.parametrize("name", ["relu1.weight", "dense1.gamma", "dense1", "dense9.weight"])
    def test_parameter_refuses_a_name_it_does_not_hold(self, f1, name):
        with pytest.raises(GraphError, match=f"unknown parameter tensor '{name}'"):
            f1[0].parameter(name)

    def test_parameter_names_list_weight_then_bias_in_layer_order(self):
        model = ModelGraph(
            [
                Layer("z", np.ones((3, 2)), np.zeros(3), relu=True),
                Layer("a", np.ones((2, 3)), np.full(2, 0.5)),
            ]
        )
        assert model.parameter_names() == ["z.weight", "z.bias", "a.weight", "a.bias"]
        assert model.parameter("a.bias").tolist() == [0.5, 0.5]
        assert model.parameter_count() == 6 + 3 + 6 + 2

    @pytest.mark.parametrize(
        "which, digest",
        [
            ("seed7", "6d31c0e0fcc68e21411355737e1a6378ae5843a16c56733a5705c9dc0d21f970"),
            ("wide", "8b20062e6f41d2d60203a4ce23c56f73a4b002a7fa23437347371393fccb5a0b"),
        ],
    )
    def test_parameter_digest_is_pinned(self, f1, which, digest):
        model = f1[0] if which == "seed7" else build_fixture_model(7, FixtureSpec(WIDE_DIMS))
        assert model.parameter_digest() == digest


class TestDatasetValidation:
    def test_label_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            Dataset(np.zeros((2, 3)), np.array([0, 2]), 2)

    def test_empty_dataset_rejected(self):
        with pytest.raises(GraphError):
            Dataset(np.zeros((0, 3)), np.array([], dtype=int), 2)

    def test_subset_picks_rows(self):
        data = Dataset(np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1]), 2)
        sub = data.subset(np.array([2, 1]))
        np.testing.assert_array_equal(sub.features, [[4, 5], [2, 3]])
        np.testing.assert_array_equal(sub.labels, [0, 1])


class TestForward:
    def test_single_layer_crossentropy_by_hand(self):
        model = identity_model()
        data = Dataset(np.array([[2.0, 0.0]]), np.array([0]), 2)
        loss, accuracy = one_map_result(model, data)
        assert loss == pytest.approx(np.log1p(np.exp(-2.0)), rel=1e-14)
        assert accuracy == 1.0

    def test_uniform_logits_loss_is_log_num_classes(self):
        model = ModelGraph([Layer("z", np.zeros((5, 3)), np.zeros(5))])
        data = Dataset(np.random.default_rng(0).normal(size=(7, 3)), np.zeros(7, dtype=int), 5)
        assert chain_losses(model, data, [{}])[0] == pytest.approx(np.log(5.0), abs=1e-15)

    def test_argmax_tie_goes_to_lowest_index(self):
        model = identity_model()
        data = Dataset(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([0, 1]), 2)
        assert chain_accuracies(model, data, [{}])[0] == 0.5

    def test_relu_clamps_negative_preactivations(self):
        model = ModelGraph(
            [
                Layer("neg", -np.eye(2), np.zeros(2), relu=True),
                Layer("out", np.eye(2), np.array([0.0, 1.0])),
            ]
        )
        data = Dataset(np.array([[3.0, 3.0]]), np.array([1]), 2)
        # preactivations are (-3, -3); relu kills them, bias decides
        assert chain_accuracies(model, data, [{}])[0] == 1.0

    def test_squared_error_head_by_hand(self):
        model = ModelGraph(
            [Layer("lin", np.array([[1.0, 0.0]]), np.zeros(1))],
            head=HEAD_SQUARED_ERROR,
        )
        data = Dataset(np.array([[0.4, 9.9]]), np.array([0]), 1)
        # target is 1.0, prediction 0.4: loss = 0.5 * 0.36
        assert chain_losses(model, data, [{}])[0] == pytest.approx(0.18, rel=1e-14)

    def test_feature_dim_mismatch_rejected(self):
        model = identity_model(2)
        data = Dataset(np.zeros((1, 3)), np.array([0]), 2)
        with pytest.raises(GraphError):
            chain_accuracies(model, data, [{}])

    def test_quantized_forward_uses_weight_spec(self):
        # at 2 bits the 0.7 diagonal snaps to 0.5, shifting the logit gap
        model = ModelGraph([Layer("lin", 0.7 * np.eye(2), np.zeros(2))])
        data = Dataset(np.array([[1.0, 0.0]]), np.array([0]), 2)
        w2 = quantize(model.parameter("lin.weight"), 1.0, 2)
        [clean] = chain_losses(model, data, [{}])
        [quantized] = chain_losses(model, data, [{"lin.weight": w2}])
        assert clean == pytest.approx(np.log1p(np.exp(-0.7)), rel=1e-14)
        assert quantized == pytest.approx(np.log1p(np.exp(-0.5)), rel=1e-14)

    def test_unknown_quant_tensor_rejected(self):
        model = identity_model()
        data = Dataset(np.array([[1.0, 0.0]]), np.array([0]), 2)
        with pytest.raises(GraphError):
            chain_accuracies(model, data, [{"nope.weight": np.eye(2)}])


class TestWeightReplacement:
    def test_matches_rebuilt_model_exactly(self, f1):
        model, calib, _ = f1
        rng = np.random.default_rng(4)
        for name in model.weight_tensor_names():
            w = model.parameter(name)
            w2 = w + rng.normal(0.0, 0.05, size=w.shape)
            assert one_map_result(model, calib, {name: w2}) == one_map_result(
                with_tensor(model, name, w2), calib
            ), name

    @pytest.mark.parametrize(
        "name,values",
        [
            pytest.param("ghost.weight", np.ones((3, 4)), id="unknown-name"),
            pytest.param("first.bias", np.zeros(6), id="bias-name"),
            pytest.param("first.weight", np.ones((4, 6)), id="wrong-shape"),
            pytest.param("first.weight", np.full((6, 4), np.nan), id="non-finite"),
        ],
    )
    def test_invalid_replacement_rejected(self, name, values):
        model, data = make_small_ce_model()
        with pytest.raises(GraphError):
            chain_accuracies(model, data, [{name: values}])

    def test_stored_parameters_unchanged_by_substitution(self):
        model, data = make_small_ce_model()
        digest = model.parameter_digest()
        score_noise(model, data, noise_scale=0.5, trials=2, seed=3)
        assert model.parameter_digest() == digest
        bank = CalibrationOutcome(2, {name: 1.0 for name in model.weight_tensor_names()})
        chain_accuracies(model, data, [quantized(model, bank)])
        assert model.parameter_digest() == digest


class TestBlockedForward:
    @pytest.mark.parametrize("replaced", [False, True], ids=["stored", "quantized"])
    @pytest.mark.parametrize("rows", ["below-block", "one-block", "ragged-blocks"])
    @pytest.mark.parametrize("which", ["seed7", "wide"])
    def test_matches_whole_split_pass_exactly(self, f1, which, rows, replaced):
        model = f1[0] if which == "seed7" else build_fixture_model(7, FixtureSpec(WIDE_DIMS))
        h = block_rows(model)
        n = {"below-block": h // 2 + 1, "one-block": h, "ragged-blocks": 3 * h + h // 3}[rows]
        data = random_split(model, n)
        weights = {}
        if replaced:
            weights = quantized_bank(model, 4)
        logits, result = whole_split_result(model, data, weights)
        assert np.array_equal(blocked_logits(model, data.features, weights), logits)
        assert one_map_result(model, data, weights) == result

    def test_caller_features_are_left_untouched(self):
        rng = np.random.default_rng(2)
        model = ModelGraph(
            [
                Layer("a", rng.normal(size=(8, 4)), rng.normal(size=8), relu=True),
                Layer("b", rng.normal(size=(3, 8)), rng.normal(size=3)),
            ]
        )
        rows = 3 * block_rows(model) + 5
        x = rng.normal(size=(rows, 4))
        before = x.copy()
        blocked = blocked_logits(model, x, {})
        assert np.array_equal(x, before)  # a writable caller array is not written
        # Dataset features are read-only, so an in-place write to them would raise.
        data = Dataset(x, rng.integers(0, 3, size=rows), 3)
        logits, result = whole_split_result(model, data, {})
        assert np.array_equal(blocked, logits)
        assert one_map_result(model, data) == result

    def test_working_memory_is_set_by_the_block(self):
        model = build_fixture_model(7, FixtureSpec(WIDE_DIMS))
        data = random_split(model, 8192)
        assert len(data) // block_rows(model) > 1
        chain_losses(model, data, [{}])
        tracemalloc.start()
        try:
            chain_losses(model, data, [{}])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One 8192 x 192 float64 layer output alone is 12.6 MB, and a
        # whole-split pass peaks near 34 MB; a blocked one holds a 256 KiB
        # block plus one loss per row (64 KiB): measured 0.6 MiB.
        assert peak < 4 * 2**20


def quantized(model, bank):
    return {name: quantize(model.parameter(name), s, bank.bits) for name, s in bank.scales.items()}


def quantized_bank(model, bits):
    return quantized(model, calibrate(model, bits))


def greedy_chain(model, widths=(8, 4)):
    """The maps of an all-accepted greedy search at ``widths``, last layer first,
    each the previous map with one more tensor replaced, arrays shared."""
    names = model.weight_tensor_names()
    maps, current = [], {}
    for bank in (quantized_bank(model, bits) for bits in widths):
        for name in reversed(names):
            current = {**current, name: bank[name]}
            maps.append(current)
    return maps


class BiasReads:
    """A layer that counts how often a pass reads its bias: once per block
    that runs it."""

    def __init__(self, layer):
        self.layer = layer
        self.reads = 0

    def __getattr__(self, name):
        return getattr(self.layer, name)

    @property
    def bias(self):
        self.reads += 1
        return self.layer.bias


@contextlib.contextmanager
def bias_reads(model):
    """Yield one :class:`BiasReads` per affine layer of ``model``, standing in for
    its layers until the block exits."""
    spies = tuple(BiasReads(layer) for layer in model.layers)
    model.layers = spies
    try:
        yield spies
    finally:
        model.layers = tuple(spy.layer for spy in spies)


class TestChainedPass:
    @pytest.mark.parametrize("rows", ["below-block", "one-block", "ragged-blocks"])
    @pytest.mark.parametrize("which", ["seed7", "wide"])
    def test_each_map_matches_its_own_forward(self, f1, which, rows):
        model = f1[0] if which == "seed7" else build_fixture_model(7, FixtureSpec(WIDE_DIMS))
        h = block_rows(model)
        n = {"below-block": h // 2 + 1, "one-block": h, "ragged-blocks": 3 * h + h // 3}[rows]
        data = random_split(model, n)
        names = model.weight_tensor_names()
        q4, q8 = quantized_bank(model, 4), quantized_bank(model, 8)
        first, last = names[0], names[-1]
        maps = [
            {},
            {first: q4[first]},  # differs at the first layer
            {first: q4[first], last: q4[last]},  # at the last layer
            {first: q4[first], last: q4[last]},  # at none
            {first: q4[first], last: q4[last].copy()},  # equal values, another array
            {name: q8[name] for name in names},  # at the first layer, everywhere
            {},  # back to the stored weights
        ]
        # a greedy chain resumes at every layer in turn, neighbours included
        for chain in (maps, greedy_chain(model)):
            accuracies = [chain_accuracies(model, data, [weights])[0] for weights in chain]
            losses = [chain_losses(model, data, [weights])[0] for weights in chain]
            assert chain_accuracies(model, data, chain) == accuracies
            assert chain_accuracies(model, data, chain[::-1]) == accuracies[::-1]
            assert chain_losses(model, data, chain) == losses
            assert chain_losses(model, data, chain[::-1]) == losses[::-1]

    def test_resumes_at_the_first_changed_layer(self, f1):
        model, _, evalset = f1
        names = model.weight_tensor_names()
        q4 = quantized_bank(model, 4)
        blocks = max(1, len(evalset) // block_rows(model))
        last, third = {names[-1]: q4[names[-1]]}, {names[2]: q4[names[2]]}
        with bias_reads(model) as spies:
            chain_accuracies(model, evalset, [{}, last, dict(last), third])
        reads = [spy.reads for spy in spies]
        # map 0 runs every layer, map 1 the last, map 2 none, map 3 from the third on
        assert reads == [blocks, blocks, 2 * blocks, 2 * blocks, 2 * blocks, 3 * blocks]

    @pytest.mark.parametrize("which", ["seed7", "wide"])
    def test_chain_macs_is_the_work_the_pass_does(self, f1, workers, which):
        workers(1)  # the bias-read counts are plain attribute increments
        model = f1[0] if which == "seed7" else build_fixture_model(7, FixtureSpec(WIDE_DIMS))
        data = random_split(model, 3 * block_rows(model) + 5)
        blocks = max(1, len(data) // block_rows(model))
        names = model.weight_tensor_names()
        sizes = [model.parameter(name).size for name in names]
        q4 = quantized_bank(model, 4)
        first, middle, last = names[0], names[len(names) // 2], names[-1]
        maps = [{}, {last: q4[last]}]  # the second differs at the last layer
        maps.append({**maps[-1], middle: q4[middle]})  # at a middle one
        maps.append(dict(maps[-1]))  # at none
        maps.append({**maps[-1], first: q4[first]})  # at the first
        changed = [{n for n in names if a.get(n) is not b.get(n)} for a, b in zip(maps, maps[1:])]
        work = []  # multiply-adds of each prefix of the chain, from its bias reads
        for count in range(1, len(maps) + 1):
            with bias_reads(model) as spies:
                chain_accuracies(model, data, maps[:count])
            work.append(sum(spy.reads * size for spy, size in zip(spies, sizes)))
        per_map = [b - a for a, b in zip([0] + work, work)]
        assert [blocks * macs for macs in chain_macs(model, changed)] == per_map
        assert per_map[0] == blocks * sum(sizes) and per_map[3] == 0

    def test_noise_maps_resume_at_their_own_layer(self, f1):
        model, calib, _ = f1
        blocks = max(1, len(calib) // block_rows(model))
        with bias_reads(model) as spies:
            score_noise(model, calib, trials=3)
        reads = [spy.reads for spy in spies]
        # the clean map runs every layer, and layer i each perturbation of
        # the tensors at or below it
        assert reads == [blocks * (1 + 3 * (i + 1)) for i in range(len(reads))]

    def test_mixed_maps_over_read_only_features(self):
        rng = np.random.default_rng(4)
        model = ModelGraph(
            [
                Layer("a", rng.normal(size=(8, 4)), rng.normal(size=8), relu=True),
                Layer("b", rng.normal(size=(3, 8)), rng.normal(size=3)),
            ]
        )
        rows = 3 * block_rows(model) + 5
        data = Dataset(rng.normal(size=(rows, 4)), rng.integers(0, 3, size=rows), 3)
        before = data.features.copy()
        wa, wb = rng.normal(size=(8, 4)), rng.normal(size=(3, 8))
        maps = [{"b.weight": wb}, {"a.weight": wa, "b.weight": wb}, {"a.weight": wa}, {}]
        expected = [chain_accuracies(model, data, [weights])[0] for weights in maps]
        assert chain_accuracies(model, data, maps) == expected
        assert np.array_equal(data.features, before)

    def test_every_map_is_checked(self, f1):
        model, _, evalset = f1
        name = model.weight_tensor_names()[0]
        bad = np.full(model.parameter(name).shape, np.nan)
        with pytest.raises(GraphError):
            chain_accuracies(model, evalset, [{}, {name: bad}])

    def test_working_memory_is_set_by_the_block(self):
        model = build_fixture_model(7, FixtureSpec(WIDE_DIMS))
        data = random_split(model, 8192)
        maps = greedy_chain(model)
        assert len(maps) == 14
        chain_accuracies(model, data, maps)
        tracemalloc.start()
        try:
            chain_accuracies(model, data, maps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Every affine layer's input over the whole split would be 44 MB;
        # one block's (about 170 x 672 floats) is 0.9 MB.
        assert peak < 4 * 2**20

    @pytest.mark.parametrize(
        "widths", [pytest.param((4,), id="one-width"), pytest.param((8, 4), id="two-widths")]
    )
    def test_a_block_keeps_only_the_inputs_later_maps_resume_at(self, f1, widths):
        model, _, evalset = f1
        assert len(evalset) < 2 * block_rows(model)  # one block, on the calling thread
        maps = greedy_chain(model, widths)
        chain_accuracies(model, evalset, maps)
        tracemalloc.start()
        try:
            chain_accuracies(model, evalset, maps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Each map resumes one layer below the one before, and with two
        # widths the chain climbs back to layer 0. A map keeps an input only
        # while a later map resumes there, and a layer's old output goes
        # before its new one is formed, so no old input is held beside its
        # replacement: measured 1.47-1.48 MiB. Keeping every input, or an
        # old output until its replacement is formed, measured 1.85 MiB,
        # over the block's summed layer inputs.
        inputs = sum(model.parameter(name).shape[1] for name in model.weight_tensor_names())
        assert peak < len(evalset) * inputs * 8

    def test_no_memory_per_row_and_map(self):
        rng = np.random.default_rng(5)
        model = ModelGraph([Layer("a", rng.normal(size=(8, 4)), rng.normal(size=8))])
        rows = 2**16
        data = Dataset(rng.normal(size=(rows, 4)), rng.integers(0, 8, size=rows), 8)
        maps = [{}] * 64
        expected = chain_accuracies(model, data, maps[:1])
        tracemalloc.start()
        try:
            accuracies = chain_accuracies(model, data, maps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert accuracies == expected * len(maps)
        # A hit per row and map would be 4 MiB; one block's logits are 256 KiB.
        assert peak < 2**20

    def test_noise_chain_memory_is_set_by_its_maps(self):
        model = build_fixture_model(7, FixtureSpec(WIDE_DIMS))
        data = random_split(model, 256)
        score_noise(model, data, trials=5)
        tracemalloc.start()
        try:
            score_noise(model, data, trials=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The trials go in two passes, of 3 and then 2 noisy copies of every
        # tensor, the first 252,864 floats (1.9 MiB), beside a pass's logits
        # and the block's held layer inputs: measured 3.4 MiB. All 35 copies
        # at once (3.4 MB) peaked at 5.3 MiB, one loss at a time near 0.9.
        assert peak < 4 * 2**20


def cpu_count():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_python(script, cwd, blas_environ):
    """Run ``script`` in a fresh interpreter with only ``blas_environ`` of the BLAS variables."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    src = str(Path(graph_module.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env={**env, **blas_environ},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done


def save_fixture_files(root):
    """The seed-7 fixture's model, splits and latency table, as a run reads them."""
    model, calib, evalset = build_fixture(7)
    save_model(model, root / "model.json")
    save_dataset(calib, root / "calib.json")
    save_dataset(evalset, root / "eval.json")
    build_fixture_latency_table(model).to_csv(root / "latency.csv")


@pytest.fixture
def blas_threads():
    """``blas_threads(n)`` sets numpy's live BLAS thread count; the test's
    starting count comes back after it."""
    if graph_module._BLAS_THREADS is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    get, put = graph_module._BLAS_THREADS
    found = get()

    def use(count):
        put(count)
        if get() != count:
            pytest.skip(f"BLAS cannot run {count} threads here")
        return get

    yield use
    put(found)


class TestBlasPin:
    @pytest.mark.parametrize(
        "exported, found",
        [
            (("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"),
             "scipy_openblas_{}_num_threads64_"),
            (("openblas_{}_num_threads", "openblas_{}_num_threads64_"),
             "openblas_{}_num_threads64_"),
            (("openblas_{}_num_threads",), "openblas_{}_num_threads"),
            ((), None),
        ],
    )
    def test_the_lookup_takes_the_first_exported_pair(self, monkeypatch, exported, found):
        library = types.SimpleNamespace(
            **{call.format(verb): call.format(verb) for call in exported for verb in ("get", "set")}
        )
        monkeypatch.setattr(graph_module.ctypes, "CDLL", lambda path: library)
        expected = found and (found.format("get"), found.format("set"))
        assert graph_module._openblas_threads() == expected

    def test_the_lookup_never_raises(self, monkeypatch):
        def missing(path):
            raise OSError(f"cannot load {path}")

        monkeypatch.setattr(graph_module.ctypes, "CDLL", missing)
        assert graph_module._openblas_threads() is None

    @pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
    @pytest.mark.parametrize("count", [1, 2])
    def test_a_run_gives_blas_back_its_count(
        self, tmp_path, monkeypatch, blas_threads, count, raises
    ):
        get = blas_threads(count)
        save_fixture_files(tmp_path)
        seen = []
        score = pipeline_module._score

        def spy(*args):
            seen.append(get())
            if raises:
                raise RuntimeError("scoring failed")
            return score(*args)

        monkeypatch.setattr(pipeline_module, "_score", spy)
        config = PipelineConfig(
            model=str(tmp_path / "model.json"), calib_data=str(tmp_path / "calib.json"),
            eval_data=str(tmp_path / "eval.json"), latency_table=str(tmp_path / "latency.csv"),
            out_dir=str(tmp_path / "run"),
        )
        if raises:
            with pytest.raises(RuntimeError, match="score-sensitivity"):
                run_pipeline(config)
        else:
            run_pipeline(config)
        assert seen == [1]
        assert get() == count

    def test_nested_holders_give_back_the_first_count(self, blas_threads):
        get = blas_threads(2)
        with pytest.raises(ValueError, match="inner"):
            with one_blas_thread():
                with one_blas_thread():
                    assert get() == 1
                assert get() == 1
                with one_blas_thread():
                    raise ValueError("inner")
        assert get() == 2

    @pytest.mark.parametrize("first_out", [0, 1])
    def test_concurrent_holders_give_back_the_first_count(self, blas_threads, first_out):
        get = blas_threads(2)
        inside = threading.Barrier(3, timeout=30)
        leave = [threading.Event(), threading.Event()]
        seen = [[], []]

        def hold(i):
            with one_blas_thread():
                inside.wait()
                leave[i].wait(timeout=30)
                seen[i].append(get())

        holders = [threading.Thread(target=hold, args=(i,)) for i in (0, 1)]
        for holder in holders:
            holder.start()
        inside.wait()
        assert get() == 1
        for i in (first_out, 1 - first_out):
            leave[i].set()
            holders[i].join(timeout=30)
            assert get() == (1 if i == first_out else 2)
        assert seen == [[1], [1]]

    def test_the_pin_starts_the_workers(self, blas_threads):
        get = blas_threads(2)
        assert graph_module._worker_count() == 1
        with one_blas_thread():
            assert graph_module._worker_count() == cpu_count()
        assert get() == 2

    @pytest.mark.parametrize("count", [1, 2])
    def test_without_the_calls_the_engine_stays_serial(self, monkeypatch, blas_threads, count):
        get = blas_threads(count)
        monkeypatch.setattr(graph_module, "_BLAS_THREADS", None)
        with one_blas_thread():
            assert graph_module._worker_count() == 1
            assert get() == count
        assert get() == count


class TestParallelBlocks:
    @pytest.mark.parametrize(
        "blocks, count, ranges",
        [(7, 1, [(0, 7)]), (7, 2, [(0, 3), (3, 7)]), (7, 3, [(0, 2), (2, 4), (4, 7)]),
         (2, 3, [(0, 1), (1, 2)]), (1, 3, [(0, 1)])],
    )
    def test_contiguous_ranges_the_caller_runs_the_first(self, workers, blocks, count, ranges):
        workers(count)
        # keyed by thread name: an ident may be reused by a thread started later
        caller = threading.current_thread().name
        expected = [caller if w == 0 else f"mixquant-worker-{w}"
                    for w, (start, stop) in enumerate(ranges) for _ in range(start, stop)]
        assert on_workers(blocks, lambda i: threading.current_thread().name) == expected

    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("indices", range(1, 8))
    def test_values_come_back_in_index_order(self, workers, indices, count):
        workers(count)
        assert on_workers(indices, lambda i: (i, i * i)) == [(i, i * i) for i in range(indices)]

    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("blocks", [2, 3, 7])
    def test_results_do_not_depend_on_the_workers(self, workers, blocks, count):
        model = build_fixture_model(7, FixtureSpec(WIDE_DIMS))
        h = block_rows(model)
        data = random_split(model, blocks * h + h // 3)  # a ragged last block
        weights = quantized_bank(model, 4)
        chain = greedy_chain(model)
        logits, result = whole_split_result(model, data, weights)
        workers(1)
        accuracies = chain_accuracies(model, data, chain)
        losses = chain_losses(model, data, chain)
        workers(count)
        assert np.array_equal(blocked_logits(model, data.features, weights), logits)
        assert one_map_result(model, data, weights) == result
        assert chain_accuracies(model, data, chain) == accuracies
        assert chain_losses(model, data, chain) == losses

    @pytest.mark.parametrize("failing", [0, 1], ids=["caller", "worker"])
    def test_an_error_is_raised_once_every_range_has_stopped(self, workers, failing):
        workers(3)
        steps = [0, 0, 0]  # each range counts only its own steps

        def work(i):
            if i == failing:
                raise ValueError(f"range {i} failed")
            for _ in range(5):
                time.sleep(0.01)
                steps[i] += 1

        with pytest.raises(ValueError, match=f"range {failing} failed"):
            on_workers(3, work)
        assert sorted(steps) == [0, 5, 5]  # both other ranges ran to their end
        time.sleep(0.05)
        assert sorted(steps) == [0, 5, 5]

    def test_an_error_in_a_workers_block_reaches_the_caller(self, workers):
        workers(2)
        model = build_fixture_model(7, FixtureSpec(WIDE_DIMS))
        rows = 4 * block_rows(model)
        data = random_split(model, rows)

        def value(logits, lo, hi):
            if hi == rows:
                raise RuntimeError("last block")

        with pytest.raises(RuntimeError, match="last block"):
            _chained_blocks(model, data.features, [{}], value)

    @pytest.mark.parametrize("blocks, count", [(1, 4), (5, 1)])
    def test_one_block_or_one_cpu_starts_no_thread(self, workers, blocks, count):
        workers(count)
        model = build_fixture_model(7, FixtureSpec(WIDE_DIMS))
        data = random_split(model, blocks * block_rows(model))
        before = threading.active_count()
        chain_losses(model, data, [{}])
        chain_accuracies(model, data, greedy_chain(model))
        assert threading.active_count() == before

    def test_a_seed7_run_starts_no_thread(self, tmp_path):
        # Fixture generation labels a pool of several blocks; the run's
        # passes each fit one block, though the run holds BLAS at one thread.
        save_fixture_files(tmp_path)
        script = (
            "import sys, threading\n"
            "from mixquant.pipeline import PipelineConfig, run_pipeline\n"
            "run_pipeline(PipelineConfig(model='model.json', calib_data='calib.json',\n"
            "    eval_data='eval.json', latency_table='latency.csv', out_dir='run'))\n"
            "print('concurrent.futures' in sys.modules, threading.active_count())\n"
        )
        done = run_python(script, tmp_path, {})
        assert done.stdout.split() == ["False", "1"]
        assert (tmp_path / "run" / "outcome.json").is_file()

    @pytest.mark.parametrize(
        "blas, environ, threads",
        [
            ("scipy-openblas", {"OPENBLAS_NUM_THREADS": "1"}, 1),
            ("openblas", {"OMP_NUM_THREADS": "1"}, 1),
            ("openblas", {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 4),
            ("openblas", {"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, 1),
            ("openblas", {"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "2"}, 2),
            ("openblas", {"MKL_NUM_THREADS": "1"}, None),
            ("openblas", {}, None),
            ("mkl", {"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "8"}, 1),
            ("mkl", {"OPENBLAS_NUM_THREADS": "1"}, None),
            ("accelerate", dict.fromkeys(BLAS_VARIABLES, "1"), None),
            ("", dict.fromkeys(BLAS_VARIABLES, "1"), None),
        ],
    )
    def test_blas_threads_as_the_library_reads_them(
        self, tmp_path, monkeypatch, blas, environ, threads
    ):
        # ``threads``: the count ``blas`` reads from ``environ`` as it loads, None
        # where it reads none of them and picks its own. The engine asks OpenBLAS
        # for that count live; any other library it cannot ask, so, whatever that
        # library read, the engine stays serial, also inside the pin.
        if "openblas" not in blas:
            for name, value in environ.items():
                monkeypatch.setenv(name, value)
            monkeypatch.setattr(graph_module.ctypes, "CDLL", lambda path: types.SimpleNamespace())
            monkeypatch.setattr(graph_module, "_BLAS_THREADS", graph_module._openblas_threads())
            assert graph_module._BLAS_THREADS is None
            with one_blas_thread():
                assert graph_module._worker_count() == 1
            return
        if graph_module._BLAS_THREADS is None:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        done = run_python(
            "import mixquant.graph as g; print(g._BLAS_THREADS[0](), g._worker_count())",
            tmp_path, environ,
        )
        count = min(threads or cpu_count(), cpu_count())  # OpenBLAS runs at most one per CPU
        assert done.stdout.split() == [str(count), str(cpu_count() if count == 1 else 1)]

    @pytest.mark.parametrize("one_thread", [True, False])
    def test_workers_run_only_beside_a_one_thread_blas(self, monkeypatch, one_thread):
        monkeypatch.setattr(graph_module, "_BLAS_THREADS", (lambda: 1 if one_thread else 2, None))
        assert graph_module._worker_count() == (cpu_count() if one_thread else 1)

    @pytest.mark.parametrize("pinned", [True, False])
    def test_the_blas_environment_of_the_import_picks_the_path(self, tmp_path, pinned):
        # Outside a run only: inside the pin both take one worker per CPU.
        if graph_module._BLAS_THREADS is None:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        done = run_python(
            "import mixquant.graph as g\n"
            "outside = g._worker_count()\n"
            "with g.one_blas_thread():\n"
            "    print(outside, g._worker_count())\n",
            tmp_path, dict.fromkeys(BLAS_VARIABLES, "1") if pinned else {},
        )
        assert done.stdout.split() == [str(cpu_count() if pinned else 1), str(cpu_count())]

    def test_a_multi_block_pass_in_the_pin_runs_on_workers(self, tmp_path):
        if cpu_count() < 2:
            pytest.skip("one CPU in the affinity mask: no worker to start")
        if graph_module._BLAS_THREADS is None:
            pytest.skip("numpy's BLAS is not OpenBLAS: the engine stays serial")
        blocks = 4
        script = (
            "import threading\n"
            "import numpy as np\n"
            "import mixquant.graph as g\n"
            "from mixquant.fixtures import FixtureSpec, build_fixture_model\n"
            f"model = build_fixture_model(7, FixtureSpec({WIDE_DIMS}))\n"
            f"rows = {blocks} * (g.FORWARD_BLOCK_FLOATS // 192)\n"
            "rng = np.random.default_rng(0)\n"
            "data = g.Dataset(rng.normal(size=(rows, 64)), rng.integers(0, 10, rows), 10)\n"
            "started, start = [], threading.Thread.start\n"
            "threading.Thread.start = lambda t: (started.append(t.name), start(t))\n"
            "g.chain_accuracies(model, data, [{}])\n"
            "outside, threads = len(started), g._BLAS_THREADS[0]()\n"
            "with g.one_blas_thread():\n"
            "    g.chain_accuracies(model, data, [{}])\n"
            "print(threads, outside, len(started) - outside, g._BLAS_THREADS[0]() == threads)\n"
        )
        threads, outside, inside, restored = run_python(script, tmp_path, {}).stdout.split()
        assert int(inside) == min(blocks, cpu_count()) - 1
        assert restored == "True"
        if int(threads) > 1:  # unpinned BLAS on several threads: the pass ran serially
            assert outside == "0"

    def test_working_memory_with_two_workers(self, workers):
        workers(2)
        model = build_fixture_model(7, FixtureSpec(WIDE_DIMS))
        data = random_split(model, 8192)
        maps = greedy_chain(model)
        chain_losses(model, data, [{}])
        chain_accuracies(model, data, maps)
        for run in (
            lambda: chain_losses(model, data, [{}]), lambda: chain_accuracies(model, data, maps)
        ):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # one block per worker: the bounds of the serial passes hold
            assert peak < 4 * 2**20


class TestGradients:
    def test_closed_form_single_affine_crossentropy(self):
        # for logits z = Wx + b: dL/dW = (softmax(z) - onehot) x^T / n
        rng = np.random.default_rng(11)
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=3)
        model = ModelGraph([Layer("lin", w, b)])
        x = rng.normal(size=(16, 4))
        labels = rng.integers(0, 3, 16)
        data = Dataset(x, labels, 3)

        grads = parameter_gradients(model, data)
        z = x @ w.T + b
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        delta = (p - np.eye(3)[labels]) / 16
        np.testing.assert_allclose(grads["lin.weight"], delta.T @ x, rtol=1e-12)
        np.testing.assert_allclose(grads["lin.bias"], delta.sum(axis=0), rtol=1e-12)

    def test_matches_central_differences_on_deep_model(self):
        model, data = make_small_ce_model()
        grads = parameter_gradients(model, data)
        step = 1e-6
        for name in model.parameter_names():
            base = model.parameter(name)
            fd = np.zeros_like(base)
            it = np.nditer(base, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                bumped = base.copy()
                bumped[idx] += step
                [up] = chain_losses(with_tensor(model, name, bumped), data, [{}])
                bumped[idx] -= 2 * step
                [down] = chain_losses(with_tensor(model, name, bumped), data, [{}])
                fd[idx] = (up - down) / (2 * step)
            rel = np.linalg.norm(grads[name] - fd) / np.linalg.norm(fd)
            assert rel < 1e-8, f"{name}: normwise rel err {rel:.3e}"

    def test_wrt_subset_and_unknown_name(self):
        model, data = make_small_ce_model()
        only = parameter_gradients(model, data, ["second.weight"])
        assert set(only) == {"second.weight"}
        with pytest.raises(GraphError):
            parameter_gradients(model, data, ["ghost.weight"])

    def test_relu_gradient_is_zero_at_exact_zero(self):
        # input 0 with zero bias lands exactly on the relu kink; the
        # convention here is zero gradient, so the weight grad vanishes
        model = ModelGraph(
            [
                Layer("in", np.zeros((2, 2)), np.zeros(2), relu=True),
                Layer("out", np.ones((2, 2)), np.array([1.0, -1.0])),
            ]
        )
        data = Dataset(np.ones((4, 2)), np.array([0, 1, 0, 1]), 2)
        grads = parameter_gradients(model, data)
        np.testing.assert_array_equal(grads["in.weight"], np.zeros((2, 2)))


class TestReverseSweep:
    def test_relu_mask_matches_np_where_bitwise(self):
        output = np.array([[1.0, 0.0, -0.0, -2.0, np.nan, np.inf, -np.inf, 1e-300]])
        g = np.array([[np.nan, 3.0, -4.0, np.inf, 5.0, -0.0, 6.0, -np.nan]])
        expected = np.where(output > 0.0, g, 0.0)
        got = _relu_backward(g, output)
        assert got is g
        assert got.tobytes() == expected.tobytes()

    def test_relu_mask_broadcasts_over_a_stack(self):
        rng = np.random.default_rng(4)
        output = np.maximum(rng.normal(size=(5, 3)), 0.0)
        g = rng.normal(size=(2, 5, 3))
        expected = np.where(output > 0.0, g, 0.0)
        assert np.array_equal(_relu_backward(g, output), expected)


class TestTapedPass:
    def test_engine_does_not_import_the_quantizer(self):
        code = (
            "import sys, mixquant.graph; print('mixquant.quantize' in sys.modules); "
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'mixquant')))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(graph_module.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        quantizer, loaded = result.stdout.splitlines()
        assert quantizer == "False"
        # a leaf module: no caller's policy comes back into the engine by an import
        assert loaded.split() == ["mixquant", "mixquant.graph"]


class TestHessianVectorProduct:
    """The R-op oracle that :class:`TestHessianTraces` checks the traces against."""

    def test_recovers_diagonal_curvature(self):
        model, data, diag = make_diagonal_quadratic()
        rng = np.random.default_rng(2)
        for _ in range(5):
            v = rng.normal(size=(1, 3))
            hv = r_op_hvp(model, data, "probe.weight", v)
            np.testing.assert_allclose(hv, diag * v, rtol=1e-13, atol=1e-15)

    def test_symmetry_of_bilinear_form(self):
        model, data = make_small_ce_model()
        rng = np.random.default_rng(3)
        u = rng.normal(size=(3, 6))
        v = rng.normal(size=(3, 6))
        uhv = float(np.sum(u * r_op_hvp(model, data, "second.weight", v)))
        vhu = float(np.sum(v * r_op_hvp(model, data, "second.weight", u)))
        assert uhv == pytest.approx(vhu, rel=1e-12)

    def test_fixture_matches_small_step_central_difference(self, f1):
        model, calib, _ = f1
        rng = np.random.default_rng(0)
        for name in model.parameter_names():
            # unit norm keeps the oracle's step inside every relu margin
            v = rng.normal(size=model.parameter(name).shape)
            v /= np.linalg.norm(v)
            exact = r_op_hvp(model, calib, name, v)
            np.testing.assert_allclose(
                exact, central_difference_hvp(model, calib, name, v), rtol=1e-4, err_msg=name
            )

    @pytest.mark.parametrize("head", [HEAD_SOFTMAX_CE, HEAD_SQUARED_ERROR])
    def test_both_heads_match_central_difference(self, head):
        model, data = make_small_ce_model()
        model = ModelGraph(model.layers, head=head)
        rng = np.random.default_rng(5)
        for name in model.parameter_names():
            v = rng.normal(size=model.parameter(name).shape)
            exact = r_op_hvp(model, data, name, v)
            np.testing.assert_allclose(
                exact, central_difference_hvp(model, data, name, v), rtol=1e-4, err_msg=name
            )

    @pytest.mark.parametrize("name", ["first.weight", "first.bias", "second.weight"])
    def test_stacked_directions_match_single_calls(self, name):
        model, data = make_small_ce_model()
        stack = np.random.default_rng(6).normal(size=(4, *model.parameter(name).shape))
        tape = r_op_tape(model, data)
        batched = r_op_hvp(model, data, name, stack, tape=tape)
        assert batched.shape == stack.shape
        for v, hv in zip(stack, batched):
            np.testing.assert_allclose(
                hv, r_op_hvp(model, data, name, v), rtol=1e-12, atol=1e-15
            )

    def test_dead_relu_region_has_zero_curvature(self):
        model, data = make_dead_relu_model()
        v = np.ones((4, 3))
        hv = r_op_hvp(model, data, "inner.weight", v)
        np.testing.assert_array_equal(hv, np.zeros((4, 3)))

    def test_shape_mismatch_rejected(self):
        model, data, _ = make_diagonal_quadratic()
        with pytest.raises(GraphError):
            r_op_hvp(model, data, "probe.weight", np.ones((2, 2)))
        with pytest.raises(GraphError):
            r_op_hvp(model, data, "probe.weight", np.ones((2, 2, 3)))

    def test_non_finite_direction_rejected(self):
        model, data, _ = make_diagonal_quadratic()
        with pytest.raises(GraphError):
            r_op_hvp(model, data, "probe.weight", np.array([[1.0, np.nan, 0.0]]))

    def test_incompatible_dataset_rejected(self):
        model, _ = make_small_ce_model()
        _, data, _ = make_diagonal_quadratic()
        with pytest.raises(GraphError):
            r_op_hvp(model, data, "second.weight", np.ones((3, 6)))

    def test_tape_of_another_dataset_rejected(self):
        model, data = make_small_ce_model()
        other = data.subset(np.arange(8))
        with pytest.raises(GraphError):
            r_op_hvp(
                model, data, "second.weight", np.ones((3, 6)), tape=r_op_tape(model, other)
            )


class TestHessianTraces:
    # every trace is of a Gauss-Newton block, positive semidefinite, so >= 0
    def test_fixture_matches_full_basis_r_op_sum(self, f1):
        model, calib, _ = f1
        traces = hessian_traces(model, calib)
        assert list(traces) == model.weight_tensor_names()
        for name, trace in traces.items():
            assert trace == pytest.approx(full_basis_trace(model, calib, name), rel=1e-12), name
            assert trace >= 0.0, name

    @pytest.mark.parametrize("head", [HEAD_SOFTMAX_CE, HEAD_SQUARED_ERROR])
    def test_both_heads_match_full_basis_r_op_sum(self, head):
        model, data = make_small_ce_model()
        model = ModelGraph(model.layers, head=head)
        for name, trace in hessian_traces(model, data).items():
            assert trace == pytest.approx(full_basis_trace(model, data, name), rel=1e-12), name
            assert trace >= 0.0, name

    def test_dead_relu_layers_score_exactly_zero(self):
        model, data = make_dead_relu_model()
        assert hessian_traces(model, data) == {"inner.weight": 0.0, "outer.weight": 0.0}

    def test_incompatible_dataset_rejected(self):
        model, _ = make_small_ce_model()
        _, data, _ = make_diagonal_quadratic()
        with pytest.raises(GraphError):
            hessian_traces(model, data)
