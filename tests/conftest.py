"""Shared fixtures and the acceptance-suite terminal summary."""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

import mixquant.graph as graph_module
import mixquant.pipeline as pipeline_module
from mixquant.fixtures import build_fixture
from mixquant.graph import (
    HEAD_SOFTMAX_CE,
    HEAD_SQUARED_ERROR,
    Dataset,
    GraphError,
    Layer,
    ModelGraph,
    _check_compat,
    _inputs,
    _run_layers,
    _softmax,
    _sweep,
    chain_accuracies,
    chain_losses,
)
from mixquant.modelio import new_file
from mixquant.quantize import quantize
from mixquant.rng import substream

F1_SEED = 7


@pytest.fixture(scope="session")
def f1():
    """The standard 6-affine-layer, 2-class fixture with its data splits."""
    return build_fixture(F1_SEED)


@pytest.fixture
def workers(monkeypatch):
    """``workers(n)`` runs the engine's parallel work on ``n`` workers for the rest of the test.

    Outside a run, the engine's count follows numpy's live BLAS thread
    count: serial beside a BLAS on several threads, one worker per CPU
    beside one thread. Tests of the parallel paths set the count here,
    whatever BLAS runs.
    """

    def use(count):
        monkeypatch.setattr(graph_module, "_worker_count", lambda: count)

    return use


@pytest.fixture
def eval_forwards(monkeypatch):
    """Forwards of multiply-adds of each ``pipeline.evaluate_configs`` call, in call order.

    A spy: every call still runs, and adds the multiply-adds of the
    configs it answers, priced by the evaluator's own ``pipeline._chain_macs``,
    over one forward's.
    It prices evaluation with no clock. A run's first call is its baseline
    and its last the verification, one forward each; the search's lie
    between.
    """
    calls = []
    evaluate = pipeline_module.evaluate_configs

    def spy(model, data, banks, configs):
        macs = pipeline_module._chain_macs(model, configs)
        calls.append(sum(macs) / macs[0])
        return evaluate(model, data, banks, configs)

    monkeypatch.setattr(pipeline_module, "evaluate_configs", spy)
    return calls


def make_diagonal_quadratic(curvatures=(1.0, 2.0, 3.0)):
    """A 1-affine squared-error model whose weight Hessian is diag(curvatures).

    With a single output unit and targets fixed at 1, the loss is
    0.5 * mean((w.x + b - 1)^2), so the weight-block Hessian equals
    mean(x x^T). Feature rows are scaled unit vectors chosen to make that
    mean exactly the requested diagonal.
    """
    d = np.asarray(curvatures, dtype=np.float64)
    n = d.size
    features = np.zeros((n, n))
    for i, c in enumerate(d):
        features[i, i] = np.sqrt(n * c)
    weight = np.linspace(0.2, -0.15, n).reshape(1, n)
    model = ModelGraph(
        [Layer("probe", weight, np.zeros(1))], head=HEAD_SQUARED_ERROR
    )
    data = Dataset(features, np.zeros(n, dtype=np.int64), 1)
    return model, data, d


def make_dead_relu_model(seed=3, examples=32):
    """A 2-affine chain whose relu is saturated at zero for every input.

    The large negative bias keeps the relu off with a wide margin, so the
    loss is locally constant in the first weights and the second weights
    see an all-zero input: both weight blocks have exactly zero curvature.
    """
    rng = np.random.default_rng(seed)
    w1 = rng.normal(0, 0.3, size=(4, 3))
    b1 = np.full(4, -10.0)
    w2 = rng.normal(0, 0.3, size=(2, 4))
    b2 = np.array([0.3, -0.2])
    model = ModelGraph([Layer("inner", w1, b1, relu=True), Layer("outer", w2, b2)])
    features = rng.normal(0, 1, size=(examples, 3))
    data = Dataset(features, rng.integers(0, 2, examples), 2)
    return model, data


def make_small_ce_model(seed=5, examples=64):
    """A compact softmax-CE model with genuinely coupled curvature."""
    rng = np.random.default_rng(seed)
    w1 = rng.normal(0, 0.6, size=(6, 4))
    b1 = rng.normal(0, 0.1, size=6)
    w2 = rng.normal(0, 0.6, size=(3, 6))
    b2 = rng.normal(0, 0.1, size=3)
    model = ModelGraph([Layer("first", w1, b1, relu=True), Layer("second", w2, b2)])
    features = rng.normal(0, 1, size=(examples, 4))
    data = Dataset(features, rng.integers(0, 3, examples), 3)
    return model, data


def with_tensor(model, tensor, values):
    """A new model equal to ``model`` except that ``tensor`` holds ``values``.

    Rebuilt layer by layer through the ``ModelGraph`` constructor, apart
    from the engine's own weight substitution, so it can serve as the
    oracle for it. Works for weights and biases alike.
    """
    assert tensor in model.parameter_names(), tensor
    layer_name, _, field = tensor.rpartition(".")
    layers = [
        dataclasses.replace(layer, **{field: values}) if layer.name == layer_name else layer
        for layer in model.layers
    ]
    return ModelGraph(layers, head=model.head)


def quantized_accuracy(model, data, banks, config):
    """Accuracy of ``model`` with every tensor ``config`` lowers quantized
    by its calibrated scale: an independent re-evaluation of a config."""
    weights = {
        name: quantize(model.parameter(name), banks[bits].scales[name], bits)
        for name, bits in config.bits.items()
        if bits != config.baseline_bits
    }
    return chain_accuracies(model, data, [weights])[0]


# The value that makes edit_json delete the key instead of setting it.
MISSING = object()


def edit_json(path, keys, value):
    """Set ``value`` at ``keys`` (object keys and list indices) in the JSON file
    ``path``, or delete that key when ``value`` is :data:`MISSING`."""
    payload = json.loads(path.read_text())
    *parents, last = keys
    node = payload
    for key in parents:
        node = node[key]
    if value is MISSING:
        del node[last]
    else:
        node[last] = value
    new_file(path).write_text(json.dumps(payload))


def write_old_model_format(path):
    """Rewrite the model manifest ``path`` in the format that listed each relu
    as an entry of its own, ``{"name": ..., "kind": "relu"}``, after its layer."""
    payload = json.loads(path.read_text())
    layers = []
    for index, entry in enumerate(payload["layers"], 1):
        layers.append(entry)
        if entry.pop("relu"):
            layers.append({"name": f"relu{index}", "kind": "relu"})
    payload["layers"] = layers
    new_file(path).write_text(json.dumps(payload))


def central_difference_hvp(model, data, tensor, v, eps=1e-6):
    """Finite-difference oracle for a Hessian-vector product.

    ``(grad(w + eps*v) - grad(w - eps*v)) / (2*eps)`` from reverse-mode
    gradients of perturbed private copies. It is exact only while no
    example's pre-activation crosses a relu kink between the two points:
    on the standard fixture the smallest relu margin is about 1e-5, so
    the step must be small and the direction of modest norm. A step of
    1e-3 crosses kinks there and gets whole layers wrong.
    """
    w = model.parameter(tensor)
    plus = with_tensor(model, tensor, w + eps * v)
    minus = with_tensor(model, tensor, w - eps * v)
    g_plus = parameter_gradients(plus, data, [tensor])[tensor]
    g_minus = parameter_gradients(minus, data, [tensor])[tensor]
    return (g_plus - g_minus) / (2.0 * eps)


def parameter_gradients(model, data, wrt=None):
    """Gradient of the mean loss in each parameter ``wrt`` names (all by default), by name.

    The tape and the sweep are the engine's own (:func:`graph._run_layers`,
    :func:`graph._sweep`), the ones its Hessian traces walk; the head's
    gradient in the logits, ``(softmax(z) - onehot) / n`` under softmax
    cross-entropy and ``(z - onehot) / n`` under squared error, is formed
    here. A name the model does not hold is a :class:`GraphError`.
    """
    names = model.parameter_names() if wrt is None else list(wrt)
    for name in names:
        model.parameter(name)
    _check_compat(model, data)
    weights = [layer.weight for layer in model.layers]
    acts = _inputs(model, data.features)
    _run_layers(model, acts, weights)
    logits = acts[-1]
    onehot = np.eye(logits.shape[1])[data.labels]
    g = (_softmax(logits) if model.head == HEAD_SOFTMAX_CE else logits) - onehot
    g /= len(data)
    grads = {}
    for i, g in _sweep(model, acts, weights, g):
        name = model.layers[i].name
        grads[f"{name}.weight"] = g.T @ acts[i]
        grads[f"{name}.bias"] = g.sum(axis=0)
    return {name: grads[name] for name in names}


@dataclasses.dataclass(frozen=True)
class ROpStep:
    """One layer of an :func:`r_op_tape` forward: its input and its output,
    after its relu where it has one."""

    layer: Layer
    inputs: np.ndarray
    output: np.ndarray


@dataclasses.dataclass(frozen=True)
class ROpTape:
    """One taped forward pass, reused by any number of :func:`r_op_hvp` calls."""

    model: ModelGraph
    data: Dataset
    layers: tuple[ROpStep, ...]
    probs: np.ndarray | None  # softmax of the logits; None for squared error


def r_op_tape(model, data):
    """Record the activations that :func:`r_op_hvp` needs.

    A numpy forward of its own over ``model.layers``, each layer's relu
    applied where its flag is set, so the oracle shares no code with the
    engine's passes.
    """
    _check_compat(model, data)
    steps, a = [], data.features
    for layer in model.layers:
        z = a @ layer.weight.T + layer.bias
        z = np.maximum(z, 0.0) if layer.relu else z
        steps.append(ROpStep(layer, a, z))
        a = z
    probs = _softmax(a) if model.head == HEAD_SOFTMAX_CE else None
    return ROpTape(model, data, tuple(steps), probs)


def r_op_hvp(model, data, tensor, v, tape=None):
    """Exact oracle for a product of ``tensor``'s loss-Hessian block with ``v``.

    Pearlmutter's R-operator on the affine/relu chain: a forward R-pass
    from the scored layer (``R(z) = a V^T`` for a weight, ``1 v^T`` for a
    bias; relu passes it where its output is positive, since relu has
    zero second derivative almost everywhere), the R-op of the loss head,
    and a reverse R-pass that stops at the scored layer. ``v`` is one
    direction shaped like the tensor, or a stack ``(k,) + shape`` answered
    in one batched pass. ``tape`` is an :func:`r_op_tape` of the same model
    and dataset, which spares repeated calls the forward pass.
    """
    w = model.parameter(tensor)
    v = np.asarray(v, dtype=np.float64)
    single = v.shape == w.shape
    if not single and v.shape[1:] != w.shape:
        raise GraphError(f"direction for {tensor!r} has shape {v.shape}, expected {w.shape}")
    if not np.all(np.isfinite(v)):
        raise GraphError("direction vector must be finite")
    if tape is None:
        tape = r_op_tape(model, data)
    elif tape.model is not model or tape.data is not data:
        raise GraphError("forward tape was recorded for another model or dataset")
    v = v[np.newaxis] if single else v
    layer_name, _, field = tensor.rpartition(".")
    start = next(i for i, t in enumerate(tape.layers) if t.layer.name == layer_name)
    scored, above = tape.layers[start], tape.layers[start + 1 :]
    n = scored.inputs.shape[0]
    # r holds R(activation) for every direction: (k, n, width).
    if field == "weight":
        r = scored.inputs @ v.transpose(0, 2, 1)
    else:
        r = np.broadcast_to(v[:, np.newaxis, :], (v.shape[0], n, v.shape[1]))
    if scored.layer.relu:
        r = np.where(scored.output > 0.0, r, 0.0)
    for t in above:
        r = r @ t.layer.weight.T
        r = np.where(t.output > 0.0, r, 0.0) if t.layer.relu else r
    if tape.probs is not None:
        # R-op of softmax-CE's gradient (p - y)/n: (diag p - p p^T) r / n
        pr = tape.probs * r
        r = (pr - tape.probs * pr.sum(axis=2, keepdims=True)) / n
    else:
        r = r / n
    for t in reversed(above):
        r = np.where(t.output > 0.0, r, 0.0) if t.layer.relu else r
        r = r @ t.layer.weight
    if scored.layer.relu:
        r = np.where(scored.output > 0.0, r, 0.0)
    hv = r.transpose(0, 2, 1) @ scored.inputs if field == "weight" else r.sum(axis=1)
    return hv[0] if single else hv


def full_basis_trace(model, data, tensor, chunk=64):
    """Trace of ``tensor``'s Hessian block as ``sum_j e_j . H e_j`` over its full basis."""
    tape = r_op_tape(model, data)
    w = model.parameter(tensor)
    basis = np.eye(w.size).reshape(w.size, *w.shape)
    total = 0.0
    for start in range(0, w.size, chunk):
        block = basis[start : start + chunk]
        total += float(np.sum(block * r_op_hvp(model, data, tensor, block, tape=tape)))
    return total


def noise_samples_oracle(model, data, noise_scale, trials, seed):
    """Per-tensor loss increases of the noise metric, one one-map pass
    per perturbed tensor per trial, tensors in layer order."""
    [clean] = chain_losses(model, data, [{}])
    samples = {}
    for index, name in enumerate(model.weight_tensor_names()):
        w = model.parameter(name)
        sigma = noise_scale * float(np.max(np.abs(w)))
        rng = substream(seed, "noise", index)
        samples[name] = []
        for _ in range(trials):
            noisy = w + rng.normal(0.0, sigma, size=w.shape) if sigma > 0 else w
            samples[name].append(chain_losses(model, data, [{name: noisy}])[0] - clean)
    return samples


def reference_levenshtein(a, b):
    """Full-matrix DP oracle, deliberately different from the library version."""
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        table[i][0] = i
    for j in range(n + 1):
        table[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1, table[i][j - 1] + 1, table[i - 1][j - 1] + cost
            )
    return table[m][n]


# Synthetic separable search oracle: four tensors whose accuracy penalty
# is linear in a per-tensor weight and a per-width cost. Monotone and
# separable, so exhaustive enumeration is tractable and greedy is optimal.
# Its accuracies are exact, as the engine's are: in floats, L1 alone at 4
# bits scores 1.0 - 0.01, which lies below the bar 99/100 it sits on.
O1_NAMES = ("L1", "L2", "L3", "L4")
O1_WEIGHTS = {"L1": 1, "L2": 2, "L3": 3, "L4": 4}
O1_PENALTY = {16: Fraction(0), 8: Fraction("0.002"), 4: Fraction("0.01")}
O1_NUMEL = 8


def o1_accuracy(config):
    return 1 - sum(O1_WEIGHTS[n] * O1_PENALTY[b] for n, b in config.bits.items())


def first_only(oracle):
    """A search evaluator that answers only the first offered config, with ``oracle``."""
    return lambda configs: [oracle(configs[0])]


def o1_size_bytes(config):
    return sum(O1_NUMEL * b // 8 for b in config.bits.values())


ACCEPTANCE_DESCRIPTIONS = {
    "test_criterion_1_grid_and_error_bound": "1. quantizer grid membership and calibrated error bound",
    "test_criterion_2_gradient_fidelity": "2. reverse-mode gradients match finite differences",
    "test_criterion_3_hessian_trace": "3. exact Hessian trace recovers known curvature",
    "test_criterion_4_noise_null_and_determinism": "4. noise metric null case and determinism",
    "test_criterion_5_search_matches_exhaustive_oracle": "5. searches match exhaustive oracle optima",
    "test_criterion_6_evaluation_budgets": "6. search evaluation budgets hold",
    "test_criterion_7_end_to_end_fixture": "7. end-to-end run beats target and random baseline",
    "test_criterion_8_ordering_distance": "8. ordering edit distance matches the DP oracle",
    "test_criterion_9_size_arithmetic": "9. model size arithmetic is exact",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            if "test_acceptance" not in getattr(report, "nodeid", ""):
                continue
            name = report.nodeid.rsplit("::", 1)[-1]
            description = ACCEPTANCE_DESCRIPTIONS.get(name, name)
            verdict = "PASS" if status == "passed" else "FAIL"
            lines.append((description, verdict))
    if lines:
        terminalreporter.section("acceptance criteria")
        for description, verdict in sorted(lines):
            terminalreporter.write_line(f"{verdict}  {description}")

