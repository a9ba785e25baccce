"""On-disk formats for models and datasets, and the JSON layer every artifact uses.

A model is a JSON manifest next to one raw blob of little-endian float32
parameter values; the manifest records layer structure and byte offsets
into the blob. A dataset is a JSON manifest next to a float32 feature
blob and a uint32 label blob. Manifests reference their blobs by file
name, so a pair (or triple) can be moved around together.

Every JSON file the package writes or reads, model and dataset manifests
as well as run artifacts, goes through :func:`write_json` and
:func:`read_json`: one byte-stable layout on the way out, and on the way
in one check that the file is a JSON object of the expected ``format``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .graph import KIND_AFFINE, KIND_RELU, Dataset, GraphError, Layer, ModelGraph

MODEL_FORMAT = "mixquant-model"
DATASET_FORMAT = "mixquant-dataset"


class DataFormatError(ValueError):
    """A manifest or blob does not match the documented layout."""


def write_json(path: str | Path, payload: dict) -> None:
    """Write ``payload`` as sorted-key, two-space-indented JSON plus a newline."""
    # sort_keys plus fixed separators keeps re-runs byte-identical.
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path: str | Path, expected_format: str) -> dict:
    """The JSON object in ``path``, whose ``format`` must be ``expected_format``.

    An unreadable file, invalid JSON, a non-object or another format all
    raise :class:`DataFormatError`.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != expected_format:
        raise DataFormatError(f"{path} is not a {expected_format!r} file")
    return payload


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
    blob_path.write_bytes(b"".join(chunks))
    write_json(
        manifest_path,
        {
            "format": MODEL_FORMAT,
            "version": 1,
            "head": model.head,
            "blob": blob_path.name,
            "blob_bytes": offset,
            "layers": layers,
        },
    )


def load_model(manifest_path: str | Path) -> ModelGraph:
    """Load a model file pair written by :func:`save_model`."""
    manifest_path = Path(manifest_path)
    payload = read_json(manifest_path, MODEL_FORMAT)
    blob_path = manifest_path.parent / payload.get("blob", "")
    try:
        blob = blob_path.read_bytes()
    except OSError as exc:
        raise DataFormatError(f"cannot read parameter blob {blob_path}: {exc}") from exc
    if len(blob) != payload.get("blob_bytes"):
        raise DataFormatError(
            f"{blob_path} holds {len(blob)} bytes, manifest says {payload.get('blob_bytes')}"
        )
    layers = []
    extents: list[tuple[int, int]] = []  # (start, end) byte range of every tensor
    for entry in payload.get("layers", []):
        kind = entry.get("kind")
        if kind == KIND_AFFINE:
            fields = [entry.get(k) for k in ("out_dim", "in_dim", "weight_offset", "bias_offset")]
            # type() rather than isinstance: JSON true/false load as bools
            if not all(type(v) is int for v in fields):
                raise DataFormatError(
                    f"layer {entry.get('name')!r}: widths and offsets must be JSON integers"
                )
            out_dim, in_dim, w_off, b_off = fields
            if out_dim < 1 or in_dim < 1 or w_off < 0 or b_off < 0 or w_off % 4 or b_off % 4:
                raise DataFormatError(
                    f"layer {entry.get('name')!r} needs positive widths and "
                    "non-negative offsets that are multiples of 4"
                )
            w_bytes = 4 * out_dim * in_dim
            if w_off + w_bytes > len(blob) or b_off + 4 * out_dim > len(blob):
                raise DataFormatError(f"layer {entry.get('name')!r} points past the blob")
            extents += [(w_off, w_off + w_bytes), (b_off, b_off + 4 * out_dim)]
            w = np.frombuffer(blob, dtype="<f4", count=out_dim * in_dim, offset=w_off)
            b = np.frombuffer(blob, dtype="<f4", count=out_dim, offset=b_off)
            layers.append(
                Layer(
                    str(entry.get("name")),
                    KIND_AFFINE,
                    w.astype(np.float64).reshape(out_dim, in_dim),
                    b.astype(np.float64),
                )
            )
        elif kind == KIND_RELU:
            layers.append(Layer(str(entry.get("name")), KIND_RELU))
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
    features_path.write_bytes(data.features.astype("<f4").tobytes())
    labels_path.write_bytes(data.labels.astype("<u4").tobytes())
    write_json(
        manifest_path,
        {
            "format": DATASET_FORMAT,
            "version": 1,
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
    payload = read_json(manifest_path, DATASET_FORMAT)
    try:
        n = int(payload["num_examples"])
        d = int(payload["feature_dim"])
        num_classes = int(payload["num_classes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad dataset manifest {manifest_path}") from exc
    features_path = manifest_path.parent / payload.get("features", "")
    labels_path = manifest_path.parent / payload.get("labels", "")
    try:
        raw_x = features_path.read_bytes()
        raw_y = labels_path.read_bytes()
    except OSError as exc:
        raise DataFormatError(f"cannot read dataset blobs: {exc}") from exc
    if len(raw_x) != 4 * n * d:
        raise DataFormatError(
            f"{features_path} holds {len(raw_x)} bytes, expected {4 * n * d}"
        )
    if len(raw_y) != 4 * n:
        raise DataFormatError(f"{labels_path} holds {len(raw_y)} bytes, expected {4 * n}")
    features = np.frombuffer(raw_x, dtype="<f4").astype(np.float64).reshape(n, d)
    labels = np.frombuffer(raw_y, dtype="<u4").astype(np.int64)
    try:
        return Dataset(features, labels, num_classes)
    except GraphError as exc:
        raise DataFormatError(f"{manifest_path}: {exc}") from exc
