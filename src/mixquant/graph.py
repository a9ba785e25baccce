"""Dense feed-forward inference engine with hand-written reverse-mode gradients.

The graph is a straight chain of affine and relu layers with a
classification head. Everything is computed in float64 numpy; parameters
are frozen read-only arrays, so a loaded model can be shared freely
across threads. Quantized evaluation is expressed by passing a map of
per-tensor quantizer specs to :func:`forward`; the named weight tensors
are then fake-quantized in flight while the stored parameters stay
untouched. Activations always stay in float.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .quantize import QuantSpec, QuantTape, quantize_backward, quantize_with_tape

HEAD_SOFTMAX_CE = "softmax_ce"
HEAD_SQUARED_ERROR = "squared_error"
_HEADS = (HEAD_SOFTMAX_CE, HEAD_SQUARED_ERROR)

KIND_AFFINE = "affine"
KIND_RELU = "relu"


class GraphError(ValueError):
    """Malformed model, dataset, or an operation request they cannot satisfy."""


def _frozen(a: np.ndarray, dtype) -> np.ndarray:
    # always copy: flipping writeable on a caller-owned array would leak out
    out = np.array(a, dtype=dtype, order="C", copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Layer:
    """One node of the chain: an affine map ``x @ W.T + b`` or an elementwise relu."""

    name: str
    kind: str
    weight: np.ndarray | None = None
    bias: np.ndarray | None = None


class ModelGraph:
    """An ordered chain of layers plus a loss head.

    The default head is softmax cross-entropy over the final affine
    outputs. A squared-error head (half SSE against one-hot targets) is
    also supported; it keeps the loss exactly quadratic in the last
    layer's parameters, which the curvature tests rely on.
    """

    def __init__(self, layers, head: str = HEAD_SOFTMAX_CE):
        if head not in _HEADS:
            raise GraphError(f"unknown head {head!r}; expected one of {_HEADS}")
        self.head = head
        checked: list[Layer] = []
        names: set[str] = set()
        dim: int | None = None
        for layer in layers:
            if layer.name in names:
                raise GraphError(f"duplicate layer name {layer.name!r}")
            names.add(layer.name)
            if layer.kind == KIND_AFFINE:
                w, b = layer.weight, layer.bias
                if w is None or b is None:
                    raise GraphError(f"affine layer {layer.name!r} needs weight and bias")
                w = _frozen(w, np.float64)
                b = _frozen(b, np.float64)
                if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[0]:
                    raise GraphError(
                        f"layer {layer.name!r}: weight must be (out, in) and bias (out,), "
                        f"got {w.shape} and {b.shape}"
                    )
                if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                    raise GraphError(f"layer {layer.name!r} has non-finite parameters")
                if dim is not None and w.shape[1] != dim:
                    raise GraphError(
                        f"layer {layer.name!r} expects {w.shape[1]} inputs but the "
                        f"preceding layer produces {dim}"
                    )
                dim = w.shape[0]
                checked.append(Layer(layer.name, KIND_AFFINE, w, b))
            elif layer.kind == KIND_RELU:
                if layer.weight is not None or layer.bias is not None:
                    raise GraphError(f"relu layer {layer.name!r} takes no parameters")
                checked.append(Layer(layer.name, KIND_RELU))
            else:
                raise GraphError(f"layer {layer.name!r} has unknown kind {layer.kind!r}")
        self.layers: tuple[Layer, ...] = tuple(checked)

    @property
    def input_dim(self) -> int:
        for layer in self.layers:
            if layer.kind == KIND_AFFINE:
                return layer.weight.shape[1]
        raise GraphError("model has no affine layer, input width is undefined")

    @property
    def output_dim(self) -> int:
        for layer in reversed(self.layers):
            if layer.kind == KIND_AFFINE:
                return layer.weight.shape[0]
        raise GraphError("model has no affine layer, output width is undefined")

    def parameter_names(self) -> list[str]:
        names = []
        for layer in self.layers:
            if layer.kind == KIND_AFFINE:
                names.append(f"{layer.name}.weight")
                names.append(f"{layer.name}.bias")
        return names

    def parameter(self, name: str) -> np.ndarray:
        layer_name, _, field = name.rpartition(".")
        for layer in self.layers:
            if layer.name == layer_name and layer.kind == KIND_AFFINE:
                if field == "weight":
                    return layer.weight
                if field == "bias":
                    return layer.bias
        raise GraphError(f"unknown parameter tensor {name!r}")

    def weight_tensor_names(self) -> list[str]:
        return [f"{l.name}.weight" for l in self.layers if l.kind == KIND_AFFINE]

    def parameter_count(self) -> int:
        return sum(
            l.weight.size + l.bias.size for l in self.layers if l.kind == KIND_AFFINE
        )

    def with_parameter(self, name: str, values: np.ndarray) -> "ModelGraph":
        """A new graph sharing every tensor except ``name``, which is replaced."""
        current = self.parameter(name)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != current.shape:
            raise GraphError(
                f"replacement for {name!r} has shape {values.shape}, expected {current.shape}"
            )
        layer_name, _, field = name.rpartition(".")
        rebuilt = []
        for layer in self.layers:
            if layer.name == layer_name:
                w = values if field == "weight" else layer.weight
                b = values if field == "bias" else layer.bias
                rebuilt.append(Layer(layer.name, KIND_AFFINE, w, b))
            else:
                rebuilt.append(layer)
        return ModelGraph(rebuilt, head=self.head)

    def parameter_digest(self) -> str:
        """SHA-256 over all parameter bytes, for mutation checks."""
        h = hashlib.sha256()
        for layer in self.layers:
            if layer.kind == KIND_AFFINE:
                h.update(layer.weight.tobytes())
                h.update(layer.bias.tobytes())
        return h.hexdigest()


class Dataset:
    """A fixed batch of feature rows with integer class labels."""

    def __init__(self, features: np.ndarray, labels: np.ndarray, num_classes: int):
        features = _frozen(features, np.float64)
        labels = _frozen(labels, np.int64)
        if features.ndim != 2 or labels.ndim != 1:
            raise GraphError("features must be (n, d) and labels (n,)")
        if features.shape[0] != labels.shape[0]:
            raise GraphError(
                f"{features.shape[0]} feature rows but {labels.shape[0]} labels"
            )
        if features.shape[0] == 0:
            raise GraphError("dataset must contain at least one example")
        if not np.all(np.isfinite(features)):
            raise GraphError("features must be finite")
        if num_classes < 1:
            raise GraphError(f"num_classes must be >= 1, got {num_classes}")
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise GraphError(f"labels must lie in [0, {num_classes})")
        self.features = features
        self.labels = labels
        self.num_classes = int(num_classes)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices], self.num_classes)

    def digest(self) -> str:
        """SHA-256 over features, labels, and class count."""
        h = hashlib.sha256()
        h.update(self.features.tobytes())
        h.update(self.labels.tobytes())
        h.update(str(self.num_classes).encode())
        return h.hexdigest()


@dataclass(frozen=True)
class EvalResult:
    loss: float
    accuracy: float


@dataclass
class _LayerTape:
    layer: Layer
    inputs: np.ndarray  # activations entering the layer
    output: np.ndarray  # activations leaving the layer
    weight_used: np.ndarray | None = None
    weight_tape: QuantTape | None = None


def _check_compat(model: ModelGraph, data: Dataset, quant) -> dict[str, QuantSpec]:
    quant = dict(quant) if quant else {}
    if quant:
        known = set(model.weight_tensor_names())
        unknown = sorted(set(quant) - known)
        if unknown:
            raise GraphError(f"quantizer specs name unknown tensors: {unknown}")
    if data.feature_dim != model.input_dim:
        raise GraphError(
            f"dataset has {data.feature_dim} features but the model expects {model.input_dim}"
        )
    if data.num_classes != model.output_dim:
        raise GraphError(
            f"dataset has {data.num_classes} classes but the model emits {model.output_dim}"
        )
    return quant


def _run_layers(
    model: ModelGraph, x: np.ndarray, quant: Mapping[str, QuantSpec], keep_tape: bool
) -> tuple[np.ndarray, list[_LayerTape]]:
    tapes: list[_LayerTape] = []
    a = x
    for layer in model.layers:
        w_used = w_tape = None
        if layer.kind == KIND_AFFINE:
            w_used = layer.weight
            w_spec = quant.get(f"{layer.name}.weight")
            if w_spec is not None:
                w_used, w_tape = quantize_with_tape(layer.weight, w_spec)
            z = a @ w_used.T + layer.bias
        else:
            z = np.maximum(a, 0.0)
        if keep_tape:
            tapes.append(_LayerTape(layer, a, z, w_used, w_tape))
        a = z
    return a, tapes


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _head_loss(model: ModelGraph, logits: np.ndarray, labels: np.ndarray) -> float:
    n = logits.shape[0]
    if model.head == HEAD_SOFTMAX_CE:
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_norm = np.log(np.sum(np.exp(shifted), axis=1))
        picked = shifted[np.arange(n), labels]
        return float(np.mean(log_norm - picked))
    targets = np.eye(logits.shape[1])[labels]
    return float(np.mean(0.5 * np.sum(np.square(logits - targets), axis=1)))


def _head_gradient(model: ModelGraph, logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    n = logits.shape[0]
    targets = np.eye(logits.shape[1])[labels]
    if model.head == HEAD_SOFTMAX_CE:
        return (_softmax(logits) - targets) / n
    return (logits - targets) / n


def _accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    # argmax takes the lowest index on ties, so the result is deterministic.
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def forward(
    model: ModelGraph,
    data: Dataset,
    quant: Mapping[str, QuantSpec] | None = None,
) -> EvalResult:
    """Evaluate mean loss and accuracy over the whole dataset.

    When ``quant`` is given, each named weight tensor is fake-quantized
    before use; stored parameters are never modified. An empty map behaves
    exactly like no map at all.
    """
    specs = _check_compat(model, data, quant)
    logits, _ = _run_layers(model, data.features, specs, keep_tape=False)
    return EvalResult(
        loss=_head_loss(model, logits, data.labels),
        accuracy=_accuracy(logits, data.labels),
    )


def _backward(
    model: ModelGraph,
    tapes: list[_LayerTape],
    grad_logits: np.ndarray,
    quant: Mapping[str, QuantSpec],
) -> tuple[dict[str, np.ndarray], dict[str, tuple[float, float]]]:
    param_grads: dict[str, np.ndarray] = {}
    scale_grads: dict[str, tuple[float, float]] = {}
    g = grad_logits
    for tape in reversed(tapes):
        layer = tape.layer
        if layer.kind == KIND_RELU:
            # Output is positive exactly where the input was; gradient at 0 is 0.
            g = np.where(tape.output > 0.0, g, 0.0)
        else:
            grad_w_used = g.T @ tape.inputs
            param_grads[f"{layer.name}.bias"] = g.sum(axis=0)
            if tape.weight_tape is not None:
                spec = quant[f"{layer.name}.weight"]
                _, ga, gg = quantize_backward(tape.weight_tape, spec, grad_w_used)
                scale_grads[f"{layer.name}.weight"] = (ga, gg)
            else:
                param_grads[f"{layer.name}.weight"] = grad_w_used
            g = g @ tape.weight_used
    return param_grads, scale_grads


def gradients(
    model: ModelGraph, data: Dataset, wrt: list[str] | None = None
) -> dict[str, np.ndarray]:
    """Exact reverse-mode gradients of the mean loss for parameter tensors.

    ``wrt`` selects parameter tensor names; None means all of them. Asking
    for a tensor the model does not have is an error rather than a silent
    zero.
    """
    all_names = model.parameter_names()
    if wrt is None:
        wrt = all_names
    else:
        unknown = sorted(set(wrt) - set(all_names))
        if unknown:
            raise GraphError(f"cannot differentiate unknown tensors: {unknown}")
    _check_compat(model, data, None)
    logits, tapes = _run_layers(model, data.features, {}, keep_tape=True)
    grad_logits = _head_gradient(model, logits, data.labels)
    param_grads, _ = _backward(model, tapes, grad_logits, {})
    return {name: param_grads[name] for name in wrt}


def loss_and_scale_gradients(
    model: ModelGraph,
    data: Dataset,
    quant: Mapping[str, QuantSpec],
) -> tuple[float, dict[str, tuple[float, float]]]:
    """Quantized-forward loss and its straight-through gradients.

    Returns the mean loss under ``quant`` together with ``(d loss /
    d alpha, d loss / d gamma)`` for every tensor named in the map. Model
    parameters receive no updates here and none are returned for them.
    """
    specs = _check_compat(model, data, quant)
    logits, tapes = _run_layers(model, data.features, specs, keep_tape=True)
    loss = _head_loss(model, logits, data.labels)
    grad_logits = _head_gradient(model, logits, data.labels)
    _, scale_grads = _backward(model, tapes, grad_logits, specs)
    return loss, {name: scale_grads.get(name, (0.0, 0.0)) for name in specs}


@dataclass(frozen=True)
class ForwardTape:
    """One unquantized taped forward pass of ``model`` over ``data``.

    Recorded once by :func:`forward_tape` and reused by any number of
    :func:`hessian_vector_product` calls on the same model and dataset.
    """

    model: ModelGraph
    data: Dataset
    layers: tuple[_LayerTape, ...]
    probs: np.ndarray | None  # softmax of the logits; None for squared error


def forward_tape(model: ModelGraph, data: Dataset) -> ForwardTape:
    """Record the activations that Hessian-vector products of the mean loss need."""
    _check_compat(model, data, None)
    logits, tapes = _run_layers(model, data.features, {}, keep_tape=True)
    probs = _softmax(logits) if model.head == HEAD_SOFTMAX_CE else None
    return ForwardTape(model, data, tuple(tapes), probs)


def hessian_vector_product(
    model: ModelGraph,
    data: Dataset,
    tensor: str,
    v: np.ndarray,
    tape: ForwardTape | None = None,
) -> np.ndarray:
    """Product of the loss Hessian restricted to ``tensor`` with ``v``.

    Exact, by Pearlmutter's R-operator on the affine/relu chain: a
    forward R-pass from the scored layer (``R(z) = a V^T`` for a weight,
    ``1 v^T`` for a bias; relu passes it where its output is positive,
    since relu has zero second derivative almost everywhere), the R-op of
    the loss head, and a reverse R-pass that stops at the scored layer.

    ``v`` is one direction shaped like the tensor, or a stack
    ``(k,) + shape`` of directions answered in one batched pass; the
    result has the shape of ``v``. ``tape`` is a :func:`forward_tape` of
    the same model and dataset, which spares repeated calls the forward
    pass.
    """
    w = model.parameter(tensor)
    v = np.asarray(v, dtype=np.float64)
    single = v.shape == w.shape
    if not single and v.shape[1:] != w.shape:
        raise GraphError(
            f"direction for {tensor!r} has shape {v.shape}, expected {w.shape} "
            f"or a stack (k,) + {w.shape}"
        )
    if not np.all(np.isfinite(v)):
        raise GraphError("direction vector must be finite")
    if tape is None:
        tape = forward_tape(model, data)
    elif tape.model is not model or tape.data is not data:
        raise GraphError("forward tape was recorded for another model or dataset")
    hv = _r_op(tape, tensor, v[np.newaxis] if single else v)
    return hv[0] if single else hv


def _r_op(tape: ForwardTape, tensor: str, v: np.ndarray) -> np.ndarray:
    layer_name, _, field = tensor.rpartition(".")
    start = next(i for i, t in enumerate(tape.layers) if t.layer.name == layer_name)
    scored, above = tape.layers[start], tape.layers[start + 1 :]
    n = scored.inputs.shape[0]
    # r holds R(activation) for every direction: (k, n, width).
    if field == "weight":
        r = scored.inputs @ v.transpose(0, 2, 1)
    else:
        r = np.broadcast_to(v[:, np.newaxis, :], (v.shape[0], n, v.shape[1]))
    for t in above:
        if t.layer.kind == KIND_RELU:
            r = np.where(t.output > 0.0, r, 0.0)
        else:
            r = r @ t.layer.weight.T
    if tape.probs is not None:
        # R-op of softmax-CE's gradient (p - y)/n: (diag p - p p^T) r / n
        pr = tape.probs * r
        r = (pr - tape.probs * pr.sum(axis=2, keepdims=True)) / n
    else:
        r = r / n
    for t in reversed(above):
        if t.layer.kind == KIND_RELU:
            r = np.where(t.output > 0.0, r, 0.0)
        else:
            r = r @ t.layer.weight
    if field == "weight":
        return r.transpose(0, 2, 1) @ scored.inputs
    return r.sum(axis=1)
