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
JSON object of the expected ``format`` at version 1, runs the caller's
parser on its body, and turns any missing key or wrongly typed value the
parser trips over into one :class:`DataFormatError` naming the file and
its format.
Numbers are read through :func:`json_number`, which takes no bool, string
or, where a count or width is due, fraction. A run record is a dataclass
with a ``FORMAT``, and its fields are its schema: :func:`write_record`
writes them, and :func:`read_record` reads them back through :func:`decode`.
A blob named by a manifest is read and length-checked by
:func:`_read_blob` alone. Every file the package writes is a new file
(:func:`new_file`), never an old one truncated and overwritten in place.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
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
    """``parse`` of the body of the JSON object in ``path``, whose ``format``
    must be ``expected_format``; by default the body itself. The body is
    the object without its ``format`` and ``version`` keys.

    An unreadable file, invalid JSON, a non-object, another format or a
    ``version`` other than the JSON integer 1 all raise
    :class:`DataFormatError`, and so does any ``AttributeError``,
    ``KeyError``, ``TypeError`` or ``ValueError`` raised by ``parse``.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # a NUL in the path, bad UTF-8, bad JSON
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != expected_format:
        raise DataFormatError(f"{path} is not a {expected_format!r} file")
    if type(payload.get("version")) is not int or payload["version"] != 1:  # JSON true == 1
        raise DataFormatError(f"{path} is version {payload.get('version')!r}, not 1")
    body = {key: value for key, value in payload.items() if key not in ("format", "version")}
    try:
        return parse(body)
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


@functools.cache
def _field_types(kind: type) -> dict[str, Any]:
    """Each field of the dataclass ``kind`` and its resolved annotation."""
    hints = typing.get_type_hints(kind)
    return {field.name: hints[field.name] for field in dataclasses.fields(kind)}


def decode(value: Any, kind: Any) -> Any:
    """The loaded JSON ``value`` as ``kind``: a dataclass, from an object
    holding exactly its fields' keys, each decoded by its annotation;
    ``dict[str, T]``; ``list[T]`` or ``tuple[T, ...]``, from a list;
    ``int`` or ``float``, through :func:`json_number`; ``str``; or a bare
    ``dict``, kept as it is. Any other value raises ``TypeError`` or
    ``ValueError``, prefixed with the dataclass fields it lies under.
    """
    if kind in (int, float):
        return json_number(value, integer=kind is int)
    origin = typing.get_origin(kind) or (dict if dataclasses.is_dataclass(kind) else kind)
    if not isinstance(value, (list, tuple) if origin in (list, tuple) else origin):
        raise TypeError(f"expected a {kind.__name__}, got {value!r}")
    if dataclasses.is_dataclass(kind):
        types = _field_types(kind)
        for problem, keys in ("missing", types.keys() - value), ("unknown", value.keys() - types):
            if keys:
                raise ValueError(f"{problem} key {min(keys)!r}")
        decoded = {}
        for name, field_kind in types.items():
            try:
                decoded[name] = decode(value[name], field_kind)
            except (TypeError, ValueError) as exc:
                raise type(exc)(f"{name}: {exc}") from exc
        return kind(**decoded)
    args = typing.get_args(kind)
    if origin is dict and args:
        return {key: decode(item, args[1]) for key, item in value.items()}
    if origin in (list, tuple) and args:
        return origin(decode(item, args[0]) for item in value)
    return value


def write_record(path: str | Path, record: Any) -> None:
    """Write the dataclass ``record``'s fields under its ``FORMAT``."""
    write_json(path, record.FORMAT, dataclasses.asdict(record))


def read_record(path: str | Path, kind: type) -> Any:
    """The ``kind`` record in ``path``, as :func:`write_record` wrote it."""
    return read_json(path, kind.FORMAT, lambda body: decode(body, kind))


def _read_blob(manifest_path: Path, payload: dict, key: str, size: Any) -> bytes:
    """The bytes of the file ``payload[key]`` names next to the manifest,
    which must be exactly ``size`` of them."""
    name = payload.get(key)
    if not isinstance(name, str):
        raise DataFormatError(f"{manifest_path}: {key!r} must be a file name, got {name!r}")
    path = manifest_path.parent / name
    try:
        blob = path.read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the name
        raise DataFormatError(f"cannot read {key} blob {path}: {exc}") from exc
    if len(blob) != size:
        raise DataFormatError(f"{path} holds {len(blob)} bytes, manifest says {size}")
    return blob


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
    entries = payload.get("layers")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise DataFormatError(f"{manifest_path}: 'layers' must be a list of layer objects")
    blob = _read_blob(manifest_path, payload, "blob", payload.get("blob_bytes"))
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
    raw_x = _read_blob(manifest_path, payload, "features", 4 * n * d)
    raw_y = _read_blob(manifest_path, payload, "labels", 4 * n)
    # Dataset makes the one float64/int64 copy of these views of the blobs
    features = np.frombuffer(raw_x, dtype="<f4").reshape(n, d)
    labels = np.frombuffer(raw_y, dtype="<u4")
    try:
        return Dataset(features, labels, num_classes)
    except GraphError as exc:
        raise DataFormatError(f"{manifest_path}: {exc}") from exc
