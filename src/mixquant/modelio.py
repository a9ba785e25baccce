"""On-disk formats for models and datasets, and the JSON layer every artifact uses.

A model is a JSON manifest next to one raw blob of little-endian float32
parameter values; the manifest records layer structure and byte offsets
into the blob. A dataset is a JSON manifest next to a float32 feature
blob and a uint32 label blob. Manifests reference their blobs by file
name, so a pair (or triple) can be moved around together.

Every JSON file the package writes or reads, model and dataset manifests
as well as run artifacts, goes through :func:`write_json` and
:func:`read_json`, and this module alone owns their envelope and their
parse-error policy. :func:`write_json` adds ``format`` and ``version`` to a
body in one byte-stable layout. :func:`read_json` checks that a file is a
JSON object of the expected ``format``, runs the caller's parser on it, and
turns any missing key or wrongly typed value the parser trips over into one
:class:`DataFormatError` naming the file and its format. Parsers read
every number through :func:`json_number`, which takes no bool, string or,
where a count or width is due, fraction. A run artifact's
body is its dataclass's fields (``dataclasses.asdict``). Every file the
package writes is a new file (:func:`new_file`), never an old one truncated
and overwritten in place.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .graph import KIND_AFFINE, KIND_RELU, Dataset, GraphError, Layer, ModelGraph

MODEL_FORMAT = "mixquant-model"
DATASET_FORMAT = "mixquant-dataset"
_DATASET_COUNTS = ("num_examples", "feature_dim", "num_classes")
_AFFINE_FIELDS = ("out_dim", "in_dim", "weight_offset", "bias_offset")


class DataFormatError(ValueError):
    """A manifest or blob does not match the documented layout."""


def new_file(path: str | Path) -> Path:
    """``path``, with whatever file it named unlinked, ready to be written anew.

    Truncating a file that was just written makes some filesystems (ext4
    with ``auto_da_alloc``) flush its old blocks to disk first, tens of
    milliseconds per file; a new file under the old name costs nothing
    of the sort. A symlink at ``path`` is replaced, not written through.
    """
    path = Path(path)
    path.unlink(missing_ok=True)
    return path


def write_json(path: str | Path, fmt: str, body: dict) -> None:
    """Write ``body`` under a ``format``/``version`` envelope as sorted-key,
    two-space-indented JSON plus a newline."""
    payload = {"format": fmt, "version": 1, **body}
    # sort_keys plus fixed separators keeps re-runs byte-identical.
    new_file(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path: str | Path, expected_format: str, parse: Callable[[dict], Any] = dict) -> Any:
    """``parse`` of the JSON object in ``path``, whose ``format`` must be
    ``expected_format``; by default a copy of the object.

    An unreadable file, invalid JSON, a non-object or another format all
    raise :class:`DataFormatError`, and so does any ``AttributeError``,
    ``KeyError``, ``TypeError`` or ``ValueError`` raised by ``parse``.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # a NUL in the path, bad UTF-8, bad JSON
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != expected_format:
        raise DataFormatError(f"{path} is not a {expected_format!r} file")
    try:
        return parse(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise DataFormatError(f"malformed {expected_format!r} file {path}: {detail}") from exc


def json_number(value: Any, integer: bool = False) -> int | float:
    """``value`` as a float, or as an int when ``integer``, if it is such a JSON number.

    Anything else raises ``TypeError``, which :func:`read_json` reports as
    a malformed file: a string, a fraction where an integer is due, and
    true or false, which JSON loads as bools.
    """
    # type() rather than isinstance: JSON true/false load as bools
    if type(value) is int:
        return value if integer else float(value)
    if type(value) is float and not integer:
        return value
    raise TypeError(f"expected {'an integer' if integer else 'a number'}, got {value!r}")


def _blob_path(manifest_path: Path, payload: dict, key: str) -> Path:
    """The file ``payload[key]`` names, next to the manifest."""
    name = payload.get(key)
    if not isinstance(name, str):
        raise DataFormatError(f"{manifest_path}: {key!r} must be a file name, got {name!r}")
    return manifest_path.parent / name


def save_model(model: ModelGraph, manifest_path: str | Path) -> None:
    """Write ``<stem>.json`` and ``<stem>.bin`` for ``model``.

    Parameters are stored as little-endian float32 in layer order,
    weights row-major before biases. Values are rounded to float32; use
    float32-representable parameters if an exact round trip matters.
    """
    manifest_path = Path(manifest_path)
    blob_path = manifest_path.with_suffix(".bin")
    chunks: list[bytes] = []
    offset = 0
    layers = []
    for layer in model.layers:
        entry: dict = {"name": layer.name, "kind": layer.kind}
        if layer.kind == KIND_AFFINE:
            w = layer.weight.astype("<f4")
            b = layer.bias.astype("<f4")
            entry["out_dim"], entry["in_dim"] = layer.weight.shape
            entry["weight_offset"] = offset
            offset += w.nbytes
            entry["bias_offset"] = offset
            offset += b.nbytes
            chunks.append(w.tobytes())
            chunks.append(b.tobytes())
        layers.append(entry)
    new_file(blob_path).write_bytes(b"".join(chunks))
    write_json(
        manifest_path,
        MODEL_FORMAT,
        {"head": model.head, "blob": blob_path.name, "blob_bytes": offset, "layers": layers},
    )


def load_model(manifest_path: str | Path) -> ModelGraph:
    """Load a model file pair written by :func:`save_model`."""
    manifest_path = Path(manifest_path)
    payload = read_json(manifest_path, MODEL_FORMAT)
    blob_path = _blob_path(manifest_path, payload, "blob")
    entries = payload.get("layers")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise DataFormatError(f"{manifest_path}: 'layers' must be a list of layer objects")
    try:
        blob = blob_path.read_bytes()
    except (OSError, ValueError) as exc:
        raise DataFormatError(f"cannot read parameter blob {blob_path}: {exc}") from exc
    if len(blob) != payload.get("blob_bytes"):
        raise DataFormatError(
            f"{blob_path} holds {len(blob)} bytes, manifest says {payload.get('blob_bytes')}"
        )
    layers = []
    extents: list[tuple[int, int]] = []  # (start, end) byte range of every tensor
    for entry in entries:
        name, kind = entry.get("name"), entry.get("kind")
        if not isinstance(name, str):
            raise DataFormatError(f"{manifest_path}: a layer name must be a string, got {name!r}")
        if kind == KIND_AFFINE:
            try:
                fields = [json_number(entry[k], integer=True) for k in _AFFINE_FIELDS]
            except (KeyError, TypeError) as exc:
                raise DataFormatError(
                    f"layer {name!r}: widths and offsets must be JSON integers"
                ) from exc
            out_dim, in_dim, w_off, b_off = fields
            if out_dim < 1 or in_dim < 1 or w_off < 0 or b_off < 0 or w_off % 4 or b_off % 4:
                raise DataFormatError(
                    f"layer {name!r} needs positive widths and "
                    "non-negative offsets that are multiples of 4"
                )
            w_bytes = 4 * out_dim * in_dim
            if w_off + w_bytes > len(blob) or b_off + 4 * out_dim > len(blob):
                raise DataFormatError(f"layer {name!r} points past the blob")
            extents += [(w_off, w_off + w_bytes), (b_off, b_off + 4 * out_dim)]
            # ModelGraph makes the one float64 copy of these views of the blob
            w = np.frombuffer(blob, dtype="<f4", count=out_dim * in_dim, offset=w_off)
            b = np.frombuffer(blob, dtype="<f4", count=out_dim, offset=b_off)
            layers.append(Layer(name, KIND_AFFINE, w.reshape(out_dim, in_dim), b))
        elif kind == KIND_RELU:
            layers.append(Layer(name, KIND_RELU))
        else:
            raise DataFormatError(f"unknown layer kind {kind!r} in {manifest_path}")
    extents.sort()
    if any(start < end for (_, end), (start, _) in zip(extents, extents[1:])):
        raise DataFormatError(f"{manifest_path}: tensor byte offsets overlap in the blob")
    try:
        return ModelGraph(layers, head=payload.get("head", "softmax_ce"))
    except GraphError as exc:
        raise DataFormatError(f"{manifest_path}: {exc}") from exc


def save_dataset(data: Dataset, manifest_path: str | Path) -> None:
    """Write ``<stem>.json``, ``<stem>.features.bin`` and ``<stem>.labels.bin``."""
    manifest_path = Path(manifest_path)
    stem = manifest_path.with_suffix("")
    features_path = stem.with_suffix(".features.bin")
    labels_path = stem.with_suffix(".labels.bin")
    new_file(features_path).write_bytes(data.features.astype("<f4").tobytes())
    new_file(labels_path).write_bytes(data.labels.astype("<u4").tobytes())
    write_json(
        manifest_path,
        DATASET_FORMAT,
        {
            "num_examples": len(data),
            "feature_dim": data.feature_dim,
            "num_classes": data.num_classes,
            "features": features_path.name,
            "labels": labels_path.name,
        },
    )


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Load a dataset triple written by :func:`save_dataset`."""
    manifest_path = Path(manifest_path)
    payload, n, d, num_classes = read_json(
        manifest_path,
        DATASET_FORMAT,
        lambda p: (p, *(json_number(p[k], integer=True) for k in _DATASET_COUNTS)),
    )
    if n < 0 or d < 0:
        raise DataFormatError(f"{manifest_path}: {n} examples of {d} features")
    features_path = _blob_path(manifest_path, payload, "features")
    labels_path = _blob_path(manifest_path, payload, "labels")
    try:
        raw_x = features_path.read_bytes()
        raw_y = labels_path.read_bytes()
    except (OSError, ValueError) as exc:
        raise DataFormatError(f"cannot read dataset blobs: {exc}") from exc
    if len(raw_x) != 4 * n * d:
        raise DataFormatError(
            f"{features_path} holds {len(raw_x)} bytes, expected {4 * n * d}"
        )
    if len(raw_y) != 4 * n:
        raise DataFormatError(f"{labels_path} holds {len(raw_y)} bytes, expected {4 * n}")
    # Dataset makes the one float64/int64 copy of these views of the blobs
    features = np.frombuffer(raw_x, dtype="<f4").reshape(n, d)
    labels = np.frombuffer(raw_y, dtype="<u4")
    try:
        return Dataset(features, labels, num_classes)
    except GraphError as exc:
        raise DataFormatError(f"{manifest_path}: {exc}") from exc
