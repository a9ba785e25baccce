"""Inference engine tests: forward, reverse mode, Hessian traces and their HVP oracle."""

import tracemalloc

import numpy as np
import pytest

from conftest import (
    central_difference_hvp,
    full_basis_trace,
    make_dead_relu_model,
    make_diagonal_quadratic,
    make_small_ce_model,
    r_op_hvp,
    r_op_tape,
    with_tensor,
)
from mixquant.calibrate import calibrate
from mixquant.fixtures import FixtureSpec, build_fixture_model
from mixquant.graph import (
    FORWARD_BLOCK_FLOATS,
    HEAD_SOFTMAX_CE,
    HEAD_SQUARED_ERROR,
    KIND_AFFINE,
    KIND_RELU,
    Dataset,
    EvalResult,
    GraphError,
    Layer,
    ModelGraph,
    _accuracy,
    _blocked_logits,
    _head_loss,
    _relu_backward,
    _run_layers,
    chain_accuracies,
    chain_losses,
    forward,
    gradients,
    hessian_traces,
    loss_and_scale_gradients,
)
from mixquant.quantize import QuantSpec, quantize
from mixquant.sensitivity import score_noise


WIDE_DIMS = (64, 192, 160, 128, 96, 64, 32, 10)


def identity_model(dim=2):
    return ModelGraph([Layer("lin", KIND_AFFINE, np.eye(dim), np.zeros(dim))])


def block_rows(model):
    """Rows per block of an untaped pass over ``model``."""
    widest = max(model.parameter(name).shape[0] for name in model.weight_tensor_names())
    return FORWARD_BLOCK_FLOATS // widest


def random_split(model, rows, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, model.output_dim, size=rows)
    return Dataset(rng.normal(size=(rows, model.input_dim)), labels, model.output_dim)


def whole_split_result(model, data, weights):
    """Logits and result of the taped pass, which runs all rows at once."""
    logits, _ = _run_layers(model, data.features, weights)
    return logits, EvalResult(_head_loss(model, logits, data.labels), _accuracy(logits, data.labels))


class TestModelValidation:
    def test_duplicate_layer_names_rejected(self):
        with pytest.raises(GraphError):
            ModelGraph(
                [
                    Layer("a", KIND_AFFINE, np.eye(2), np.zeros(2)),
                    Layer("a", KIND_AFFINE, np.eye(2), np.zeros(2)),
                ]
            )

    def test_dimension_chain_mismatch_rejected(self):
        with pytest.raises(GraphError):
            ModelGraph(
                [
                    Layer("a", KIND_AFFINE, np.ones((3, 2)), np.zeros(3)),
                    Layer("b", KIND_AFFINE, np.ones((2, 4)), np.zeros(2)),
                ]
            )

    def test_nonfinite_weight_rejected(self):
        w = np.eye(2)
        w[0, 0] = np.inf
        with pytest.raises(GraphError):
            ModelGraph([Layer("a", KIND_AFFINE, w, np.zeros(2))])

    def test_unknown_head_rejected(self):
        with pytest.raises(GraphError):
            ModelGraph([Layer("a", KIND_AFFINE, np.eye(2), np.zeros(2))], head="hinge")

    def test_parameters_are_read_only(self):
        model = identity_model()
        with pytest.raises(ValueError):
            model.parameter("lin.weight")[0, 0] = 9.0

    def test_weight_names_are_the_quantizable_tensors(self):
        model = ModelGraph(
            [
                Layer("d1", KIND_AFFINE, np.ones((3, 2)), np.zeros(3)),
                Layer("r1", KIND_RELU),
                Layer("d2", KIND_AFFINE, np.ones((2, 3)), np.zeros(2)),
            ]
        )
        assert model.weight_tensor_names() == ["d1.weight", "d2.weight"]
        data = Dataset(np.ones((1, 2)), np.zeros(1, dtype=int), 2)
        for name in ("d1.out", "r1.out"):
            with pytest.raises(GraphError, match="unknown tensors"):
                forward(model, data, {name: np.ones((1, 3))})


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
        result = forward(model, data)
        assert result.loss == pytest.approx(np.log1p(np.exp(-2.0)), rel=1e-14)
        assert result.accuracy == 1.0

    def test_uniform_logits_loss_is_log_num_classes(self):
        model = ModelGraph([Layer("z", KIND_AFFINE, np.zeros((5, 3)), np.zeros(5))])
        data = Dataset(np.random.default_rng(0).normal(size=(7, 3)), np.zeros(7, dtype=int), 5)
        assert forward(model, data).loss == pytest.approx(np.log(5.0), abs=1e-15)

    def test_argmax_tie_goes_to_lowest_index(self):
        model = identity_model()
        data = Dataset(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([0, 1]), 2)
        assert forward(model, data).accuracy == 0.5

    def test_relu_clamps_negative_preactivations(self):
        model = ModelGraph(
            [
                Layer("neg", KIND_AFFINE, -np.eye(2), np.zeros(2)),
                Layer("r", KIND_RELU),
                Layer("out", KIND_AFFINE, np.eye(2), np.array([0.0, 1.0])),
            ]
        )
        data = Dataset(np.array([[3.0, 3.0]]), np.array([1]), 2)
        # preactivations are (-3, -3); relu kills them, bias decides
        assert forward(model, data).accuracy == 1.0

    def test_squared_error_head_by_hand(self):
        model = ModelGraph(
            [Layer("lin", KIND_AFFINE, np.array([[1.0, 0.0]]), np.zeros(1))],
            head=HEAD_SQUARED_ERROR,
        )
        data = Dataset(np.array([[0.4, 9.9]]), np.array([0]), 1)
        # target is 1.0, prediction 0.4: loss = 0.5 * 0.36
        assert forward(model, data).loss == pytest.approx(0.18, rel=1e-14)

    def test_feature_dim_mismatch_rejected(self):
        model = identity_model(2)
        data = Dataset(np.zeros((1, 3)), np.array([0]), 2)
        with pytest.raises(GraphError):
            forward(model, data)

    def test_quantized_forward_uses_weight_spec(self):
        # at 2 bits the 0.7 diagonal snaps to 0.5, shifting the logit gap
        model = ModelGraph([Layer("lin", KIND_AFFINE, 0.7 * np.eye(2), np.zeros(2))])
        data = Dataset(np.array([[1.0, 0.0]]), np.array([0]), 2)
        w2 = quantize(model.parameter("lin.weight"), QuantSpec(alpha=1.0, gamma=1.0, bits=2))
        clean = forward(model, data).loss
        quantized = forward(model, data, {"lin.weight": w2}).loss
        assert clean == pytest.approx(np.log1p(np.exp(-0.7)), rel=1e-14)
        assert quantized == pytest.approx(np.log1p(np.exp(-0.5)), rel=1e-14)

    def test_unknown_quant_tensor_rejected(self):
        model = identity_model()
        data = Dataset(np.array([[1.0, 0.0]]), np.array([0]), 2)
        with pytest.raises(GraphError):
            forward(model, data, {"nope.weight": np.eye(2)})


class TestWeightReplacement:
    def test_matches_rebuilt_model_exactly(self, f1):
        model, calib, _ = f1
        rng = np.random.default_rng(4)
        for name in model.weight_tensor_names():
            w = model.parameter(name)
            w2 = w + rng.normal(0.0, 0.05, size=w.shape)
            assert forward(model, calib, {name: w2}) == forward(
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
            forward(model, data, {name: values})

    def test_stored_parameters_unchanged_by_substitution(self):
        model, data = make_small_ce_model()
        digest = model.parameter_digest()
        score_noise(model, data, noise_scale=0.5, trials=2, seed=3)
        assert model.parameter_digest() == digest
        specs = {name: QuantSpec(1.0, 1.0, 2) for name in model.weight_tensor_names()}
        loss_and_scale_gradients(model, data, [specs])
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
            specs = calibrate(model, dict.fromkeys(model.weight_tensor_names(), 4)).specs
            weights = {name: quantize(model.parameter(name), s) for name, s in specs.items()}
        logits, result = whole_split_result(model, data, weights)
        assert np.array_equal(_blocked_logits(model, data.features, weights), logits)
        assert forward(model, data, weights) == result

    def test_relu_first_model_leaves_features_untouched(self):
        rng = np.random.default_rng(2)
        model = ModelGraph(
            [
                Layer("r0", KIND_RELU),
                Layer("a", KIND_AFFINE, rng.normal(size=(8, 4)), rng.normal(size=8)),
                Layer("r1", KIND_RELU),
                Layer("b", KIND_AFFINE, rng.normal(size=(3, 8)), rng.normal(size=3)),
            ]
        )
        rows = 3 * block_rows(model) + 5
        x = rng.normal(size=(rows, 4))
        before = x.copy()
        blocked = _blocked_logits(model, x, {})
        assert np.array_equal(x, before)  # a writable caller array is not clamped either
        # Dataset features are read-only, so an in-place relu on them would raise.
        data = Dataset(x, rng.integers(0, 3, size=rows), 3)
        logits, result = whole_split_result(model, data, {})
        assert np.array_equal(blocked, logits)
        assert forward(model, data) == result

    def test_working_memory_is_set_by_the_block(self):
        model = build_fixture_model(7, FixtureSpec(WIDE_DIMS))
        data = random_split(model, 8192)
        assert len(data) // block_rows(model) > 1
        forward(model, data)
        tracemalloc.start()
        try:
            forward(model, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One 8192 x 192 float64 layer output alone is 12.6 MB, and a
        # whole-split pass peaks near 34 MB; a blocked one holds a 256 KiB
        # block plus logits-sized (0.66 MB) loss and accuracy temporaries.
        assert peak < 4 * 2**20


def quantized_bank(model, bits):
    specs = calibrate(model, dict.fromkeys(model.weight_tensor_names(), bits)).specs
    return {name: quantize(model.parameter(name), s) for name, s in specs.items()}


def greedy_chain(model):
    """The 14 maps of an all-accepted greedy search at widths 8 then 4,
    each the previous map with one more tensor replaced, arrays shared."""
    names = model.weight_tensor_names()
    maps, current = [], {}
    for bank in (quantized_bank(model, 8), quantized_bank(model, 4)):
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
            results = [forward(model, data, weights) for weights in chain]
            accuracies = [result.accuracy for result in results]
            losses = [result.loss for result in results]
            assert chain_accuracies(model, data, chain) == accuracies
            assert chain_accuracies(model, data, chain[::-1]) == accuracies[::-1]
            assert chain_losses(model, data, chain) == losses
            assert chain_losses(model, data, chain[::-1]) == losses[::-1]

    def test_resumes_at_the_first_changed_layer(self, f1):
        model, _, evalset = f1
        names = model.weight_tensor_names()
        q4 = quantized_bank(model, 4)
        model.layers = tuple(BiasReads(layer) for layer in model.layers)
        try:
            blocks = max(1, len(evalset) // block_rows(model))
            last, third = {names[-1]: q4[names[-1]]}, {names[2]: q4[names[2]]}
            maps = [{}, last, dict(last), third]
            chain_accuracies(model, evalset, maps)
            reads = [layer.reads for layer in model.layers if layer.kind == KIND_AFFINE]
        finally:
            model.layers = tuple(layer.layer for layer in model.layers)
        # map 0 runs every layer, map 1 the last, map 2 none, map 3 from the third on
        assert reads == [blocks, blocks, 2 * blocks, 2 * blocks, 2 * blocks, 3 * blocks]

    def test_noise_maps_resume_at_their_own_layer(self, f1):
        model, calib, _ = f1
        model.layers = tuple(BiasReads(layer) for layer in model.layers)
        try:
            blocks = max(1, len(calib) // block_rows(model))
            score_noise(model, calib, trials=3)
            reads = [layer.reads for layer in model.layers if layer.kind == KIND_AFFINE]
        finally:
            model.layers = tuple(layer.layer for layer in model.layers)
        # the clean map runs every layer, and layer i each perturbation of
        # the tensors at or below it
        assert reads == [blocks * (1 + 3 * (i + 1)) for i in range(len(reads))]

    def test_relu_first_model_and_read_only_features(self):
        rng = np.random.default_rng(4)
        model = ModelGraph(
            [
                Layer("r0", KIND_RELU),
                Layer("a", KIND_AFFINE, rng.normal(size=(8, 4)), rng.normal(size=8)),
                Layer("r1", KIND_RELU),
                Layer("b", KIND_AFFINE, rng.normal(size=(3, 8)), rng.normal(size=3)),
            ]
        )
        rows = 3 * block_rows(model) + 5
        data = Dataset(rng.normal(size=(rows, 4)), rng.integers(0, 3, size=rows), 3)
        before = data.features.copy()
        wa, wb = rng.normal(size=(8, 4)), rng.normal(size=(3, 8))
        maps = [{"b.weight": wb}, {"a.weight": wa, "b.weight": wb}, {"a.weight": wa}, {}]
        expected = [forward(model, data, weights).accuracy for weights in maps]
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
        # The 35 perturbed tensors hold 5 x 84,970 floats (3.4 MB), the 36
        # maps' logits 0.7 MB and the block's held layer inputs 1.5 MB:
        # measured 5.3 MiB. One loss at a time peaked near 0.9 MiB.
        assert peak < 8 * 2**20


class TestGradients:
    def test_closed_form_single_affine_crossentropy(self):
        # for logits z = Wx + b: dL/dW = (softmax(z) - onehot) x^T / n
        rng = np.random.default_rng(11)
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=3)
        model = ModelGraph([Layer("lin", KIND_AFFINE, w, b)])
        x = rng.normal(size=(16, 4))
        labels = rng.integers(0, 3, 16)
        data = Dataset(x, labels, 3)

        grads = gradients(model, data)
        z = x @ w.T + b
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        delta = (p - np.eye(3)[labels]) / 16
        np.testing.assert_allclose(grads["lin.weight"], delta.T @ x, rtol=1e-12)
        np.testing.assert_allclose(grads["lin.bias"], delta.sum(axis=0), rtol=1e-12)

    def test_matches_central_differences_on_deep_model(self):
        model, data = make_small_ce_model()
        grads = gradients(model, data)
        step = 1e-6
        for name in model.parameter_names():
            base = model.parameter(name)
            fd = np.zeros_like(base)
            it = np.nditer(base, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                bumped = base.copy()
                bumped[idx] += step
                up = forward(with_tensor(model, name, bumped), data).loss
                bumped[idx] -= 2 * step
                down = forward(with_tensor(model, name, bumped), data).loss
                fd[idx] = (up - down) / (2 * step)
            rel = np.linalg.norm(grads[name] - fd) / np.linalg.norm(fd)
            assert rel < 1e-8, f"{name}: normwise rel err {rel:.3e}"

    def test_wrt_subset_and_unknown_name(self):
        model, data = make_small_ce_model()
        only = gradients(model, data, wrt=["second.weight"])
        assert set(only) == {"second.weight"}
        with pytest.raises(GraphError):
            gradients(model, data, wrt=["ghost.weight"])

    def test_relu_gradient_is_zero_at_exact_zero(self):
        # input 0 with zero bias lands exactly on the relu kink; the
        # convention here is zero gradient, so the weight grad vanishes
        model = ModelGraph(
            [
                Layer("in", KIND_AFFINE, np.zeros((2, 2)), np.zeros(2)),
                Layer("r", KIND_RELU),
                Layer("out", KIND_AFFINE, np.ones((2, 2)), np.array([1.0, -1.0])),
            ]
        )
        data = Dataset(np.ones((4, 2)), np.array([0, 1, 0, 1]), 2)
        grads = gradients(model, data)
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

    def test_relu_below_first_affine_changes_nothing_upstream(self):
        # the sweeps stop at the first affine layer, so a leading relu
        # acts only through the features it clamps
        rng = np.random.default_rng(6)
        affine = [
            Layer("a", KIND_AFFINE, rng.normal(size=(5, 4)), rng.normal(size=5)),
            Layer("r1", KIND_RELU),
            Layer("b", KIND_AFFINE, rng.normal(size=(3, 5)), rng.normal(size=3)),
        ]
        leading = ModelGraph([Layer("r0", KIND_RELU)] + affine)
        plain = ModelGraph(affine)
        x = rng.normal(size=(32, 4))
        labels = rng.integers(0, 3, size=32)
        data = Dataset(x, labels, 3)
        clamped = Dataset(np.maximum(x, 0.0), labels, 3)
        for name, grad in gradients(leading, data).items():
            assert np.array_equal(grad, gradients(plain, clamped)[name]), name
        assert hessian_traces(leading, data) == hessian_traces(plain, clamped)
        specs = {name: QuantSpec(1.3, 0.8, 3) for name in plain.weight_tensor_names()}
        assert loss_and_scale_gradients(leading, data, [specs]) == loss_and_scale_gradients(
            plain, clamped, [specs]
        )


class TestScaleGradients:
    @pytest.mark.parametrize("head", [HEAD_SOFTMAX_CE, HEAD_SQUARED_ERROR])
    def test_bank_stack_matches_banks_alone(self, head):
        model, data = make_small_ce_model()
        model = ModelGraph(model.layers, head=head)
        banks = [
            {"first.weight": QuantSpec(1.1, 0.9, 4), "second.weight": QuantSpec(0.7, 1.2, 2)},
            {"first.weight": QuantSpec(0.5, 2.0, 8), "second.weight": QuantSpec(1.9, 0.4, 3)},
        ]
        losses, grads = loss_and_scale_gradients(model, data, banks)
        for k, bank in enumerate(banks):
            assert loss_and_scale_gradients(model, data, [bank]) == ([losses[k]], [grads[k]])
        # the loss alone, with no reverse sweep, is the same
        assert loss_and_scale_gradients(model, data, banks, gradient=False) == (losses, [])

    def test_loss_is_the_quantized_forward_loss(self, f1):
        model, calib, _ = f1
        specs = calibrate(model, dict.fromkeys(model.weight_tensor_names(), 3)).specs
        (loss,), _ = loss_and_scale_gradients(model, calib, [specs])
        weights = {name: quantize(model.parameter(name), s) for name, s in specs.items()}
        assert loss == forward(model, calib, weights).loss

    def test_banks_naming_different_tensors_rejected(self):
        model, data = make_small_ce_model()
        banks = [{"first.weight": QuantSpec(1.0, 1.0, 4)}, {"second.weight": QuantSpec(1.0, 1.0, 4)}]
        with pytest.raises(GraphError, match="same tensors"):
            loss_and_scale_gradients(model, data, banks)

    def test_unknown_tensor_rejected(self):
        model, data = make_small_ce_model()
        with pytest.raises(GraphError, match="first.bias"):
            loss_and_scale_gradients(model, data, [{"first.bias": QuantSpec(1.0, 1.0, 4)}])


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
