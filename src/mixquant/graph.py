"""Dense feed-forward inference engine with an exact per-tensor Hessian trace.

The graph is a straight chain of affine layers, each optionally followed
by a relu, with a classification head. Everything is computed in float64
numpy; parameters are frozen read-only arrays, so a loaded model can be
shared freely across threads. Altered weights are evaluated by the chained passes,
:func:`chain_accuracies` (exact: correct rows over all rows, as a
:class:`~fractions.Fraction`) and :func:`chain_losses`, each given a
chain of maps of replacement arrays, one array per named weight tensor;
the stored parameters stay untouched. Callers quantize or perturb the
weights themselves, and activations always stay in float. A
:class:`ModelGraph` checks its layers and builds, once, its parameter
tensors by name; its ``layers`` are the one form of the chain that every
pass walks and that a model file saves. The engine alone decides two
rules its callers rely on:

- **Where a chained map resumes.** Untaped passes (:func:`chain_accuracies`,
  :func:`chain_losses`, fixture labelling) run the rows one block at a
  time and keep of each block only what they reduce it to (hit counts,
  row losses, margins and labels), so their working memory is set by the
  block and not by the split. Inside each block, every map of a chain
  (search probes, noise perturbations) resumes at the first affine layer
  whose weight it changes, from the input there that an earlier map kept
  for it, and :func:`chain_macs` prices a chain by that rule.
- **How the reverse sweep descends.** One loop computes every affine
  layer of every pass into a list of layer inputs (:func:`_run_layers`);
  the one taped pass, :func:`hessian_traces`, keeps the whole list, over
  the whole split, as its tape. One lazy sweep (:func:`_sweep`) yields
  the gradient in each affine layer's output, last layer first, and
  :func:`hessian_traces` reduces each to row norms before it moves down.

The row blocks of an untaped pass are independent, so while BLAS runs
one thread, as :func:`one_blas_thread` holds it for a run, they are
split into contiguous ranges, one per CPU in the process's affinity mask
and at most one per block; otherwise BLAS spreads each product over the
CPUs and the blocks run serially. The calling thread runs the first range
and one thread started for the call each of the others; numpy releases
the GIL inside the products. :func:`on_workers` runs every such split:
each task returns its value, and the call hands them back in index
order, so no caller shares a buffer with a worker and each result is
bit-identical to a serial pass. A pass with one block, or a process
with one CPU, starts no thread; ``taskset`` limits the workers.

The sweep carries a leading stack axis, the columns of the head's
Hessian factor, against the unstacked tape, and every product runs
slice by slice. The engine knows nothing of quantizers.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Collection, Iterator, Mapping, Sequence

import numpy as np

HEAD_SOFTMAX_CE = "softmax_ce"
HEAD_SQUARED_ERROR = "squared_error"
_HEADS = (HEAD_SOFTMAX_CE, HEAD_SQUARED_ERROR)

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
    """One affine map of the chain, ``x @ W.T + b``, and whether a relu follows it."""

    name: str
    weight: np.ndarray
    bias: np.ndarray
    relu: bool = False


class ModelGraph:
    """An ordered chain of affine layers plus a loss head.

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
            w = _frozen(layer.weight, np.float64)
            b = _frozen(layer.bias, np.float64)
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
            checked.append(Layer(layer.name, w, b, bool(layer.relu)))
        if not checked:
            raise GraphError("model has no affine layer")
        self.layers: tuple[Layer, ...] = tuple(checked)
        self._parameters = {f"{l.name}.{part}": getattr(l, part)
                            for l in self.layers for part in ("weight", "bias")}

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[0]

    def parameter_names(self) -> list[str]:
        return list(self._parameters)

    def parameter(self, name: str) -> np.ndarray:
        try:
            return self._parameters[name]
        except KeyError:
            raise GraphError(f"unknown parameter tensor {name!r}") from None

    def weight_tensor_names(self) -> list[str]:
        return [f"{l.name}.weight" for l in self.layers]

    def parameter_count(self) -> int:
        return sum(p.size for p in self._parameters.values())

    def parameter_digest(self) -> str:
        """SHA-256 over all parameter bytes, for mutation checks."""
        h = hashlib.sha256()
        for values in self._parameters.values():
            h.update(values)  # C-contiguous: hashed in place, not copied
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
        h.update(self.features)  # C-contiguous: hashed in place, not copied
        h.update(self.labels)
        h.update(str(self.num_classes).encode())
        return h.hexdigest()


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


def _inputs(model: ModelGraph, x: np.ndarray) -> list:
    """A list for :func:`_run_layers`: the rows ``x``, layer 0's input, then empty slots."""
    return [x] + [None] * len(model.layers)


def _run_layers(model: ModelGraph, acts: list, weights: list, start: int = 0, keep=None) -> None:
    """Recompute ``acts[start + 1:]``, the one place an affine layer's output is formed.

    ``acts[i]`` is affine layer ``i``'s input, ``acts[-1]`` the logits and
    ``weights[i]`` layer ``i``'s weight. Each output is a new array, formed after
    the output it replaces is dropped, and the layer's relu, if it has one,
    acts on it in place. With ``keep`` given, each input whose layer
    ``keep`` does not name is dropped once used.
    """
    for i in range(start, len(weights)):
        acts[i + 1] = None
        z = acts[i] @ weights[i].T
        z += model.layers[i].bias
        if model.layers[i].relu:
            np.maximum(z, 0.0, out=z)
        if keep is not None and i not in keep:
            acts[i] = None
        acts[i + 1] = z


def _openblas_threads():
    """The ``(get, set)`` thread-count calls of the OpenBLAS numpy has loaded, or None."""
    try:
        library = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for call in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads"):
        if hasattr(library, call.format("get")):  # ctypes's default int types fit both
            return getattr(library, call.format("get")), getattr(library, call.format("set"))
    return None


_BLAS_THREADS = _openblas_threads()
_blas_lock = threading.Lock()
_blas_holders, _blas_found = 0, 1  # holders in the pin, and the count the first one found


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Hold numpy's BLAS at one thread, so that :func:`on_workers` spreads the work.

    The last holder to leave restores the count the first one found, also
    on an error. On a BLAS other than OpenBLAS the pin does nothing."""
    global _blas_holders, _blas_found
    blas = _BLAS_THREADS
    with _blas_lock:
        if _blas_holders == 0 and blas:
            _blas_found = blas[0]()
            blas[1](1)
        _blas_holders += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holders -= 1
            if _blas_holders == 0 and blas:
                blas[1](_blas_found)


def _worker_count() -> int:
    """Workers of :func:`on_workers`: the CPUs this process may run on, while BLAS runs one
    thread; with BLAS on several threads each product already spreads over the CPUs."""
    if _BLAS_THREADS is None or _BLAS_THREADS[0]() != 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def on_workers(count: int, task: Callable[[int], object]) -> list:
    """``[task(i) for i in range(count)]``, computed on contiguous ranges of indices.

    There is one range per worker, and at most one per index. The calling
    thread runs the first range and a thread started here each of the
    others. The call returns or raises only once every range has
    finished; the caller's own error comes first, then the first
    worker's in range order. Values come back only through the returned
    list, so no caller shares a buffer with a worker.
    """
    workers = min(count, _worker_count())
    if workers <= 1:
        return [task(i) for i in range(count)]
    bounds = [count * w // workers for w in range(workers + 1)]
    values: list[list] = [[] for _ in range(workers)]
    errors: list[BaseException | None] = [None] * workers

    def run(w: int) -> None:
        try:
            values[w] = [task(i) for i in range(bounds[w], bounds[w + 1])]
        except BaseException as error:
            errors[w] = error

    started = []
    try:
        for w in range(1, workers):
            thread = threading.Thread(target=run, args=(w,), name=f"mixquant-worker-{w}")
            thread.start()
            started.append(thread)
        run(0)
    finally:
        for thread in started:
            thread.join()
    for error in errors:
        if error is not None:
            raise error
    return [value for part in values for value in part]


def _resume_starts(model: ModelGraph, changed: Sequence[Collection[str]]) -> list[int]:
    """The affine layer, by position, each map of a chained pass starts at: the first
    for the first map, then for map ``k`` the first whose weight ``changed[k - 1]``
    names, or past the last when it names none."""
    names = model.weight_tensor_names()
    return [0] + [next((i for i, n in enumerate(names) if n in c), len(names)) for c in changed]


def chain_macs(model: ModelGraph, changed: Sequence[Collection[str]]) -> list[int]:
    """Multiply-adds per row of each map of a chained pass, given the weight names
    each map after the first changes from the one before (as :func:`_resume_starts`)."""
    macs = [layer.weight.size for layer in model.layers]
    return [sum(macs[start:]) for start in _resume_starts(model, changed)]


def _chained_blocks(
    model: ModelGraph,
    x: np.ndarray,
    maps: Sequence[Mapping[str, np.ndarray]],
    value: Callable[[np.ndarray, int, int], object],
) -> list[tuple]:
    """For each map, ``value(logits of rows lo:hi, lo, hi)`` of each block in row order.

    The rows run through the chain one block at a time without a tape.
    Inside a block, each map resumes from the previous map's activations
    (:func:`_resume_starts`), a weight counting as changed when its array
    is not the very same object. Of the block's layer inputs, only those
    of the layers a later map resumes at are kept (:func:`_run_layers`).
    Each block is at least ``FORWARD_BLOCK_FLOATS // widest`` rows unless
    the whole split is shorter: a short trailing block could take BLAS's
    small-matrix path and round differently from the taped pass. The
    blocks are split across workers by :func:`on_workers`, so ``value``
    runs on several threads at once and returns what it keeps. The logits
    are the engine's own buffer: read them, never write or keep them.
    """
    layers, names = model.layers, model.weight_tensor_names()
    used = [[m.get(n, l.weight) for n, l in zip(names, layers)] for m in maps]
    changed = [{n for n, w, v in zip(names, b, a) if w is not v} for a, b in zip(used, used[1:])]
    starts = _resume_starts(model, changed)
    n = x.shape[0]
    widest = max(l.weight.shape[0] for l in layers)
    blocks = max(1, n // max(1, FORWARD_BLOCK_FLOATS // widest))

    def run(b: int) -> list:
        lo, hi = n * b // blocks, n * (b + 1) // blocks
        acts, values = _inputs(model, x[lo:hi]), []
        for k, (weights, start) in enumerate(zip(used, starts)):
            _run_layers(model, acts, weights, start, keep=starts[k + 1 :])
            values.append(value(acts[-1], lo, hi))
        return values

    return list(zip(*on_workers(blocks, run)))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _head(model: ModelGraph, logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The loss of each row of the ``(rows, classes)`` ``logits``."""
    n, classes = logits.shape
    if model.head == HEAD_SOFTMAX_CE:
        shifted = logits - logits.max(axis=-1, keepdims=True)
        norm = np.exp(shifted).sum(axis=-1)
        return np.log(norm) - shifted[np.arange(n), labels]
    return 0.5 * np.sum(np.square(logits - np.eye(classes)[labels]), axis=-1)


def chain_accuracies(
    model: ModelGraph, data: Dataset, maps: Sequence[Mapping[str, np.ndarray]]
) -> list[Fraction]:
    """Exact accuracy under each map of replacement weights, in one row-blocked pass.

    A map's arrays stand in for the weight tensors it names; the stored
    parameters are never modified, and an empty map runs them. An unknown
    or non-weight name, a wrong shape or a non-finite array is a
    :class:`GraphError`. Each accuracy is the blocks' hit counts summed
    over ``n``, kept an exact :class:`~fractions.Fraction` so that callers
    compare it without round-off; argmax takes the lowest index on ties,
    so the count is deterministic. A weight changes from one map to the next
    when its array is not the very same object, and the chain costs
    :func:`chain_macs` of those changes. Only one block's inputs per
    worker to the layers the maps resume at, and one hit count per map
    and block, are ever held. No loss is computed.
    """
    checked = [_check_compat(model, data, weights) for weights in maps]

    def hits(logits, lo, hi):
        return int(np.count_nonzero(np.argmax(logits, axis=1) == data.labels[lo:hi]))

    counts = _chained_blocks(model, data.features, checked, hits)
    return [Fraction(sum(blocks), len(data)) for blocks in counts]


def chain_losses(
    model: ModelGraph, data: Dataset, maps: Sequence[Mapping[str, np.ndarray]]
) -> list[float]:
    """Mean loss under each map of replacement weights, in one row-blocked pass.

    The maps are checked and the pass run as by :func:`chain_accuracies`,
    so a chain of maps that share their unchanged arrays costs one forward
    plus the tails below each change. Only each map's row losses are kept,
    and each mean is taken over them concatenated in row order: a row's
    loss depends on its own logits alone, so the mean is the same whatever
    the blocks.
    """
    checked = [_check_compat(model, data, weights) for weights in maps]
    losses = _chained_blocks(
        model, data.features, checked,
        lambda logits, lo, hi: _head(model, logits, data.labels[lo:hi]),
    )
    return [float(np.mean(np.concatenate(rows))) for rows in losses]


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


def _sweep(model: ModelGraph, acts: list, weights: list, g: np.ndarray) -> Iterator[tuple]:
    """Yield ``(i, g)`` for each affine layer ``i`` of the tape ``acts`` and ``weights``
    (:func:`_run_layers`), last layer first, moving down only when the caller asks.

    ``g`` enters as the gradient in the logits, a leading stack axis and
    all, and may be overwritten; each item's ``g`` is the gradient in layer
    ``i``'s output, to read and never write.
    """
    for i in reversed(range(len(weights))):
        if model.layers[i].relu:
            g = _relu_backward(g, acts[i + 1])
        yield i, g
        if i:
            g = g @ weights[i]


def hessian_traces(model: ModelGraph, data: Dataset) -> dict[str, float]:
    """Exact trace of the mean loss's Hessian block for every weight tensor.

    The logits are piecewise linear in any one weight matrix of an
    affine/relu chain, so each block equals its Gauss-Newton block almost
    everywhere, and its trace is ``(1/n) sum_i |a_i|^2 |B_i^T S_i|_F^2``:
    ``a_i`` is the layer's input, ``B_i`` the Jacobian of the logits with
    respect to the layer's output, and ``S_i S_i^T`` the head's Hessian in
    the logits. One taped pass and one sweep (:func:`_sweep`) of the
    columns of ``S_i``, stacked on a leading class axis, yield every
    tensor's trace at once. The sum over rows is ``math.fsum``, correctly
    rounded, so no BLAS kernel's summation order reaches the scores.
    """
    _check_compat(model, data)
    acts, used = _inputs(model, data.features), [l.weight for l in model.layers]
    _run_layers(model, acts, used)
    n, classes = acts[-1].shape
    eye = np.eye(classes)[:, np.newaxis, :]
    if model.head == HEAD_SOFTMAX_CE:
        # column c of S = diag(sqrt p) - p sqrt(p)^T is sqrt(p_c) (e_c - p)
        p = _softmax(acts[-1])
        r = np.sqrt(p).T[:, :, np.newaxis] * (eye - p)
    else:
        r = np.repeat(eye, n, axis=1)  # S = I
    traces = {
        i: math.fsum(np.einsum("ij,ij->i", acts[i], acts[i]) * np.einsum("cij,cij->i", g, g)) / n
        for i, g in _sweep(model, acts, used, r)
    }
    return {name: traces[i] for i, name in enumerate(model.weight_tensor_names())}
