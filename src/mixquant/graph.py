"""Dense feed-forward inference engine with hand-written reverse-mode gradients.

The graph is a straight chain of affine and relu layers with a
classification head. Everything is computed in float64 numpy; parameters
are frozen read-only arrays, so a loaded model can be shared freely
across threads. The one way to evaluate altered weights is to pass
:func:`forward` a map of replacement arrays, one per named weight tensor;
the stored parameters stay untouched. Callers quantize or perturb the
weights themselves, and activations always stay in float.

Untaped passes (:func:`forward`, :func:`chain_accuracies`,
:func:`chain_losses`) run the rows through the whole chain one block of
rows at a time, in place, so their working memory is set by the block
size and not by the split. One such pass can evaluate a chain of weight
maps, quantized search probes or noise perturbations: inside each
block, every map resumes from its predecessor's activations at the
first affine layer whose weight it replaces differently. Taped passes
(gradients, scale gradients, Hessian traces) keep every layer's
activations over the whole split, because the backward passes need them.

The taped pass and its reverse sweeps are rank-agnostic: activations may
carry leading stack axes, such as one per bank of quantizer scales in
:func:`loss_and_scale_gradients`, and every product runs slice by slice,
so each slice is bit-identical to a pass of its own. No reverse sweep
computes the gradient of the input below the first affine layer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Collection, Mapping, Sequence

import numpy as np

from .quantize import QuantSpec, quantize_backward, quantize_with_tape

HEAD_SOFTMAX_CE = "softmax_ce"
HEAD_SQUARED_ERROR = "squared_error"
_HEADS = (HEAD_SOFTMAX_CE, HEAD_SQUARED_ERROR)

KIND_AFFINE = "affine"
KIND_RELU = "relu"

# Floats in one row block of an untaped pass at the widest affine output:
# a block of 2**15 float64 (256 KiB) stays cache-resident from layer to layer.
FORWARD_BLOCK_FLOATS = 2**15


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


def _check_compat(
    model: ModelGraph, data: Dataset, weights: Mapping[str, np.ndarray] | None = None
) -> dict[str, np.ndarray]:
    """``weights`` as float64 arrays, once they and ``data`` are checked against ``model``."""
    checked: dict[str, np.ndarray] = {}
    if weights:
        unknown = sorted(set(weights) - set(model.weight_tensor_names()))
        if unknown:
            raise GraphError(f"replacement weights name unknown tensors: {unknown}")
        for name, values in weights.items():
            values = np.asarray(values, dtype=np.float64)
            expected = model.parameter(name).shape
            if values.shape != expected:
                raise GraphError(
                    f"replacement for {name!r} has shape {values.shape}, expected {expected}"
                )
            if not np.all(np.isfinite(values)):
                raise GraphError(f"replacement for {name!r} has non-finite values")
            checked[name] = values
    if data.feature_dim != model.input_dim:
        raise GraphError(
            f"dataset has {data.feature_dim} features but the model expects {model.input_dim}"
        )
    if data.num_classes != model.output_dim:
        raise GraphError(
            f"dataset has {data.num_classes} classes but the model emits {model.output_dim}"
        )
    return checked


def _run_layers(
    model: ModelGraph, x: np.ndarray, weights: Mapping[str, np.ndarray]
) -> tuple[np.ndarray, list[_LayerTape]]:
    """Logits of ``x`` and the tape of every layer, over all rows at once.

    ``x`` is ``(..., rows, features)`` and a weight ``(..., out, in)``;
    leading axes broadcast, and the product is taken slice by slice.
    """
    tapes: list[_LayerTape] = []
    a = x
    for layer in model.layers:
        w = None
        if layer.kind == KIND_AFFINE:
            w = weights.get(f"{layer.name}.weight", layer.weight)
            z = a @ w.swapaxes(-1, -2)
            z += layer.bias
        else:
            z = np.maximum(a, 0.0)
        tapes.append(_LayerTape(layer, a, z, w))
        a = z
    return a, tapes


def _chained_blocks(
    model: ModelGraph, x: np.ndarray, maps: Sequence[Mapping[str, np.ndarray]]
):
    """``(map index, lo, hi, logits of rows lo:hi)`` for every map, block by block.

    The rows run through the chain one block at a time without a tape.
    Inside a block, each map resumes from the previous map's activations
    at the first affine layer whose weight array is not the very same
    object. Only the block's inputs to the layers that a later map resumes
    at are held, each until the last map that resumes there.
    Each block is at least ``FORWARD_BLOCK_FLOATS // widest`` rows unless
    the whole split is shorter: a short trailing block could take BLAS's
    small-matrix path and round differently from the taped pass. The
    yielded logits are the engine's own buffer; read them, never write.
    """
    lead = 0  # relus below the first affine layer
    segments: list[list] = []  # [affine layer, relus after it]
    for layer in model.layers:
        if layer.kind == KIND_AFFINE:
            segments.append([layer, 0])
        elif segments:
            segments[-1][1] += 1
        else:
            lead += 1
    used = [[m.get(f"{l.name}.weight", l.weight) for l, _ in segments] for m in maps]
    starts = [0] + [
        next((i for i, (w, v) in enumerate(zip(cur, prev)) if w is not v), len(segments))
        for prev, cur in zip(used, used[1:])
    ]
    last_resume = {start: k for k, start in enumerate(starts)}
    n = x.shape[0]
    widest = max(l.weight.shape[0] for l, _ in segments)
    blocks = max(1, n // max(1, FORWARD_BLOCK_FLOATS // widest))
    for b in range(blocks):
        lo, hi = n * b // blocks, n * (b + 1) // blocks
        a = x[lo:hi]
        for r in range(lead):
            # never write into the caller's features
            a = np.maximum(a, 0.0) if r == 0 else np.maximum(a, 0.0, out=a)
        held = {0: a}  # inputs by segment, as the latest map computed them
        for k, (weights, start) in enumerate(zip(used, starts)):
            if start < len(segments):
                a = held[start] if last_resume[start] > k else held.pop(start)
            for i in range(start, len(segments)):
                if i > start and last_resume.get(i, -1) > k:
                    held[i] = a
                layer, relus = segments[i]
                a = a @ weights[i].T
                a += layer.bias
                for _ in range(relus):
                    np.maximum(a, 0.0, out=a)
            yield k, lo, hi, a


def _blocked_logits(
    model: ModelGraph, x: np.ndarray, weights: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Logits of ``x`` under ``weights``, computed block of rows by block of rows."""
    logits = np.empty((x.shape[0], model.output_dim))
    for _, lo, hi, block in _chained_blocks(model, x, [weights]):
        logits[lo:hi] = block
    return logits


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _head(
    model: ModelGraph, logits: np.ndarray, labels: np.ndarray, gradient: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Mean loss of each ``(rows, classes)`` slice of ``logits``, and, when
    ``gradient`` is set, the gradient of each slice's loss in its logits."""
    n, classes = logits.shape[-2:]
    if model.head == HEAD_SOFTMAX_CE:
        shifted = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        norm = e.sum(axis=-1, keepdims=True)
        picked = shifted[..., np.arange(n), labels]
        losses = np.mean(np.log(norm[..., 0]) - picked, axis=-1)
        if not gradient:
            return losses, None
        return losses, (e / norm - np.eye(classes)[labels]) / n
    targets = np.eye(classes)[labels]
    losses = np.mean(0.5 * np.sum(np.square(logits - targets), axis=-1), axis=-1)
    return losses, ((logits - targets) / n if gradient else None)


def _head_loss(model: ModelGraph, logits: np.ndarray, labels: np.ndarray) -> float:
    return float(_head(model, logits, labels, gradient=False)[0])


def _accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    # argmax takes the lowest index on ties, so the result is deterministic.
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def forward(
    model: ModelGraph,
    data: Dataset,
    weights: Mapping[str, np.ndarray] | None = None,
) -> EvalResult:
    """Evaluate mean loss and accuracy over the whole dataset.

    ``weights`` maps weight tensor names to arrays used in place of the
    stored tensors; the stored parameters are never modified. An unknown
    or non-weight name, a wrong shape or a non-finite array is a
    :class:`GraphError`. An empty map behaves exactly like no map at all.

    The rows run through the chain in blocks of about
    ``FORWARD_BLOCK_FLOATS`` floats at the widest layer, so the pass
    needs working memory for one block plus the logits, whatever the
    size of the split. Loss and accuracy are computed over all logits at
    once, exactly as for a whole-split pass.
    """
    replaced = _check_compat(model, data, weights)
    logits = _blocked_logits(model, data.features, replaced)
    return EvalResult(
        loss=_head_loss(model, logits, data.labels),
        accuracy=_accuracy(logits, data.labels),
    )


def chain_accuracies(
    model: ModelGraph, data: Dataset, maps: Sequence[Mapping[str, np.ndarray]]
) -> list[float]:
    """Accuracy under each map of replacement weights, in one row-blocked pass.

    Each map is checked and applied as by :func:`forward`, and each
    accuracy equals ``forward(model, data, map).accuracy`` bit for bit:
    the logits are the same, and ``correct / n`` is the same division
    ``np.mean`` makes. Inside each row block, map ``k`` resumes from map
    ``k - 1``'s activations at the first affine layer whose weight array
    differs from that map's by identity, so a chain of maps that share
    their unchanged arrays costs one forward plus the tails below each
    change. Only one block's inputs to the layers the maps resume at are
    ever held. No loss is computed.
    """
    checked = [_check_compat(model, data, weights) for weights in maps]
    correct = [0] * len(checked)
    for k, lo, hi, logits in _chained_blocks(model, data.features, checked):
        correct[k] += int(np.count_nonzero(np.argmax(logits, axis=1) == data.labels[lo:hi]))
    return [c / len(data) for c in correct]


def chain_losses(
    model: ModelGraph, data: Dataset, maps: Sequence[Mapping[str, np.ndarray]]
) -> list[float]:
    """Mean loss under each map of replacement weights, in one row-blocked pass.

    The pass is :func:`chain_accuracies`'s, so a chain of maps that share
    their unchanged arrays costs one forward plus the tails below each
    change. Every map's logits over the whole split are kept, and each
    loss equals ``forward(model, data, map).loss`` bit for bit: the head
    reduces each map's logits exactly as it reduces a single map's.
    """
    checked = [_check_compat(model, data, weights) for weights in maps]
    logits = np.empty((len(checked), len(data), model.output_dim))
    for k, lo, hi, block in _chained_blocks(model, data.features, checked):
        logits[k, lo:hi] = block
    return [_head_loss(model, map_logits, data.labels) for map_logits in logits]


def _relu_backward(g: np.ndarray, output: np.ndarray) -> np.ndarray:
    """``np.where(output > 0, g, 0)``, written into ``g``, NaN included.

    A relu's output is positive exactly where its input was, and the
    gradient at 0 is 0. The mask is applied to the float64 bits: all ones
    keep an entry exactly, all zeros make it +0.0, and no branch depends
    on the data, which makes it several times faster than ``np.where``.
    """
    keep = np.negative(output > 0.0, dtype=np.int64)
    bits = g.view(np.int64)
    np.bitwise_and(bits, keep, out=bits)
    return g


def _down_to_first_affine(tapes: list[_LayerTape]):
    """``(tape, is_first_affine)`` from the last layer down to the first affine one."""
    first = next(i for i, tape in enumerate(tapes) if tape.layer.kind == KIND_AFFINE)
    for i in range(len(tapes) - 1, first - 1, -1):
        yield tapes[i], i == first


def _backward(
    tapes: list[_LayerTape], grad_logits: np.ndarray, wrt: Collection[str]
) -> dict[str, np.ndarray]:
    """Gradients of the parameters named in ``wrt``, each weight as the taped pass used it.

    ``grad_logits`` may carry leading stack axes like the taped pass; it
    may be overwritten.
    """
    param_grads: dict[str, np.ndarray] = {}
    g = grad_logits
    for tape, first in _down_to_first_affine(tapes):
        layer = tape.layer
        if layer.kind == KIND_RELU:
            g = _relu_backward(g, tape.output)
            continue
        weight, bias = f"{layer.name}.weight", f"{layer.name}.bias"
        if weight in wrt:
            param_grads[weight] = g.swapaxes(-1, -2) @ tape.inputs
        if bias in wrt:
            param_grads[bias] = g.sum(axis=-2)
        if not first:
            g = g @ tape.weight_used
    return param_grads


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
    _check_compat(model, data)
    logits, tapes = _run_layers(model, data.features, {})
    param_grads = _backward(tapes, _head(model, logits, data.labels, gradient=True)[1], wrt)
    return {name: param_grads[name] for name in wrt}


def loss_and_scale_gradients(
    model: ModelGraph,
    data: Dataset,
    banks: Sequence[Mapping[str, QuantSpec]],
    gradient: bool = True,
) -> tuple[list[float], list[dict[str, tuple[float, float]]]]:
    """Quantized-forward loss and its straight-through gradients, per bank.

    Each bank maps the same weight tensors to their quantizer specs. For
    every bank, returns the mean loss under it together with ``(d loss /
    d alpha, d loss / d gamma)`` for every tensor it names. Each named
    weight is quantized for all banks at once onto a leading bank axis,
    one taped pass and one reverse sweep run over the ``(banks, rows,
    width)`` stack, and each weight's gradient is carried back through
    its quantizer. Every bank's results are bit-identical to those of a
    call with that bank alone. With ``gradient`` false the reverse sweep
    is skipped and the gradient list is empty; the losses are the same.
    Model parameters receive no updates here and none are returned for
    them.
    """
    names = list(banks[0]) if banks else []
    if any(set(bank) != set(names) for bank in banks):
        raise GraphError("stacked banks must quantize the same tensors")
    unknown = sorted(set(names) - set(model.weight_tensor_names()))
    if unknown:
        raise GraphError(f"cannot quantize unknown tensors: {unknown}")
    _check_compat(model, data)
    taped = {
        name: quantize_with_tape(model.parameter(name), [bank[name] for bank in banks])
        for name in names
    }
    x = np.broadcast_to(data.features, (len(banks),) + data.features.shape)
    logits, tapes = _run_layers(model, x, {name: w for name, (w, _) in taped.items()})
    losses, grad_logits = _head(model, logits, data.labels, gradient)
    if not gradient:
        return losses.tolist(), []
    grads = _backward(tapes, grad_logits, taped)
    per_bank: list[dict[str, tuple[float, float]]] = [{} for _ in banks]
    for name, (_, tape) in taped.items():
        g_alpha, g_gamma = quantize_backward(tape, grads[name])
        for scale_grads, ga, gg in zip(per_bank, g_alpha.tolist(), g_gamma.tolist()):
            scale_grads[name] = (ga, gg)
    return losses.tolist(), per_bank


def hessian_traces(model: ModelGraph, data: Dataset) -> dict[str, float]:
    """Exact trace of the mean loss's Hessian block for every weight tensor.

    The logits are piecewise linear in any one weight matrix of an
    affine/relu chain, so each block equals its Gauss-Newton block almost
    everywhere, and its trace is ``(1/n) sum_i |a_i|^2 |B_i^T S_i|_F^2``:
    ``a_i`` is the layer's input, ``B_i`` the Jacobian of the logits with
    respect to the layer's output, and ``S_i S_i^T`` the head's Hessian in
    the logits. One taped pass and one reverse sweep of the columns of
    ``S_i`` yield every tensor's trace at once.
    """
    _check_compat(model, data)
    logits, tapes = _run_layers(model, data.features, {})
    n, classes = logits.shape
    eye = np.eye(classes)[:, np.newaxis, :]
    if model.head == HEAD_SOFTMAX_CE:
        # column c of S = diag(sqrt p) - p sqrt(p)^T is sqrt(p_c) (e_c - p)
        p = _softmax(logits)
        r = np.sqrt(p).T[:, :, np.newaxis] * (eye - p)
    else:
        r = np.repeat(eye, n, axis=1)  # S = I
    traces: dict[str, float] = {}
    for tape, first in _down_to_first_affine(tapes):
        if tape.layer.kind == KIND_RELU:
            r = _relu_backward(r, tape.output)
        else:
            inputs_sq = np.einsum("ij,ij->i", tape.inputs, tape.inputs)
            traces[f"{tape.layer.name}.weight"] = float(
                inputs_sq @ np.einsum("cij,cij->i", r, r) / n
            )
            if not first:
                r = r @ tape.weight_used
    return {name: traces[name] for name in model.weight_tensor_names()}
