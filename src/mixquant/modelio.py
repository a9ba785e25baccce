"""On-disk formats for models and datasets, and the JSON layer every artifact uses.

A model is a JSON manifest next to one raw blob of little-endian float32
parameter values; the manifest records the layer structure, and the blob
holds each affine layer's weight (row-major) and then its bias, in layer
order. A dataset is a JSON manifest next to a float32 feature blob and a
uint32 label blob. Manifests reference their blobs by file name, so a
pair (or triple) can be moved around together.

Every JSON file the package writes or reads goes through :func:`write_json`
and :func:`read_json`, which own its ``format``/``version`` envelope, its
byte-stable layout and its parse-error policy: any missing key or wrongly
typed value the caller's parser trips over becomes one
:class:`DataFormatError` naming the file and its format. A record is a
dataclass with a ``FORMAT`` whose fields are its schema, written by
:func:`write_record` and read back through :func:`decode`. Model and
dataset manifests are records too (:class:`ModelManifest`,
:class:`DatasetManifest`). A blob's layout follows from its manifest, a
model's from its layer shapes and a dataset's from its counts, so a blob's
one check is that it holds exactly the bytes its layout implies. Every
file the package writes is a new file (:func:`new_file`), never an old
one truncated in place.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from pathlib import Path
from typing import Any, Callable, ClassVar

import numpy as np

from .graph import Dataset, GraphError, Layer, ModelGraph


class DataFormatError(ValueError):
    """A manifest or blob does not match the documented layout."""


@dataclasses.dataclass(frozen=True)
class ModelManifest:
    """A model's head, its blob's file name, and one entry per layer."""

    FORMAT: ClassVar[str] = "mixquant-model"

    head: str
    blob: str
    layers: list[AffineEntry]


@dataclasses.dataclass(frozen=True)
class AffineEntry:
    """An affine layer's widths, which also fix its tensors' place in the blob,
    and whether a relu follows it. ``kind`` is always ``"affine"``."""

    name: str
    kind: str
    out_dim: int
    in_dim: int
    relu: bool


@dataclasses.dataclass(frozen=True)
class DatasetManifest:
    """A dataset's manifest: its counts and its two blobs' file names."""

    FORMAT: ClassVar[str] = "mixquant-dataset"

    num_examples: int
    feature_dim: int
    num_classes: int
    features: str
    labels: str


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


def read_json(path: str | Path, expected_format: str, parse: Callable[[dict], Any]) -> Any:
    """``parse`` of the body of the JSON object in ``path``, whose ``format``
    must be ``expected_format``. The body is the object without its
    ``format`` and ``version`` keys.

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


def decode(value: Any, kind: Any) -> Any:
    """The loaded JSON ``value`` as ``kind``: a dataclass, from an object
    holding exactly its fields' keys, each decoded by its annotation;
    ``dict[str, T]``; ``list[T]`` or ``tuple[T, ...]``, from a list; ``int``,
    from an integer; ``float``, from any number; ``bool``; ``str``; or a bare
    ``dict``, kept as it is. Anything else, a bool where a number belongs
    included, raises ``TypeError`` or ``ValueError`` prefixed with the keys
    and list indices it lies under.
    """
    return _decoder(kind)(value)


@functools.cache
def _decoder(kind: Any) -> Callable[[Any], Any]:
    """The function that :func:`decode` applies for ``kind``, built once per kind:
    the annotations behind it are resolved here, not at every value."""
    if kind in (int, float):
        expected = "an integer" if kind is int else "a number"

        def number(value):
            # type() rather than isinstance: JSON true/false load as bools
            if type(value) is int or type(value) is kind:
                return kind(value)
            raise TypeError(f"expected {expected}, got {value!r}")

        return number
    record = dataclasses.is_dataclass(kind)
    origin = typing.get_origin(kind) or (dict if record else kind)
    accepted = (list, tuple) if origin in (list, tuple) else origin
    args = typing.get_args(kind)
    if record:
        hints = typing.get_type_hints(kind)
        reads = {field.name: _decoder(hints[field.name]) for field in dataclasses.fields(kind)}
    elif args:
        read = _decoder(args[1] if origin is dict else args[0])  # of each value or item

    def decoded(value):
        if not isinstance(value, accepted):
            raise TypeError(f"expected a {origin.__name__}, got {value!r}")
        if record:
            for problem, keys in ("missing", reads.keys() - value), ("unknown", value.keys() - reads):
                if keys:
                    raise ValueError(f"{problem} key {min(keys)!r}")
            return kind(**{name: _read_at(name, value[name], read) for name, read in reads.items()})
        if not args:
            return value
        if origin is dict:
            return {key: _read_at(key, item, read) for key, item in value.items()}
        return origin(_read_at(index, item, read) for index, item in enumerate(value))

    return decoded


def _read_at(key: Any, value: Any, read: Callable[[Any], Any]) -> Any:
    """``read(value)`` of ``value``, found under ``key``, with ``key`` leading its errors."""
    try:
        return read(value)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{key}: {exc}") from exc


def write_record(path: str | Path, record: Any) -> None:
    """Write the dataclass ``record``'s fields under its ``FORMAT``."""
    write_json(path, record.FORMAT, dataclasses.asdict(record))


def read_record(path: str | Path, kind: type) -> Any:
    """The ``kind`` record in ``path``, as :func:`write_record` wrote it."""
    return read_json(path, kind.FORMAT, lambda body: decode(body, kind))


def _read_blob(path: Path, size: int) -> bytes:
    """The bytes of the blob ``path``, which must be exactly ``size`` of them."""
    try:
        blob = path.read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the name
        raise DataFormatError(f"cannot read blob {path}: {exc}") from exc
    if len(blob) != size:
        raise DataFormatError(f"{path} holds {len(blob)} bytes, its manifest implies {size}")
    return blob


def save_model(model: ModelGraph, manifest_path: str | Path) -> None:
    """Write ``<stem>.json`` and ``<stem>.bin`` for ``model``.

    Parameters are stored as little-endian float32 in layer order,
    weights row-major before biases. Values are rounded to float32; use
    float32-representable parameters if an exact round trip matters.
    """
    manifest_path = Path(manifest_path)
    blob_path = manifest_path.with_suffix(".bin")
    chunks = [p.astype("<f4").tobytes() for l in model.layers for p in (l.weight, l.bias)]
    new_file(blob_path).write_bytes(b"".join(chunks))
    entries = [AffineEntry(l.name, "affine", *l.weight.shape, l.relu) for l in model.layers]
    write_record(manifest_path, ModelManifest(model.head, blob_path.name, entries))


def load_model(manifest_path: str | Path) -> ModelGraph:
    """Load a model file pair written by :func:`save_model`."""
    manifest_path = Path(manifest_path)
    manifest = read_record(manifest_path, ModelManifest)
    for entry in manifest.layers:
        if entry.kind != "affine":
            raise DataFormatError(f"{manifest_path}: layer {entry.name!r} has kind {entry.kind!r}")
        if entry.out_dim < 1 or entry.in_dim < 1:
            raise DataFormatError(f"{manifest_path}: layer {entry.name!r} needs positive widths")
    size = 4 * sum(entry.out_dim * (entry.in_dim + 1) for entry in manifest.layers)
    blob = _read_blob(manifest_path.parent / manifest.blob, size)
    layers, offset = [], 0
    for entry in manifest.layers:
        out_dim, in_dim = entry.out_dim, entry.in_dim
        # ModelGraph makes the one float64 copy of these views of the blob
        w = np.frombuffer(blob, dtype="<f4", count=out_dim * in_dim, offset=offset)
        b = np.frombuffer(blob, dtype="<f4", count=out_dim, offset=offset + w.nbytes)
        offset += w.nbytes + b.nbytes
        layers.append(Layer(entry.name, w.reshape(out_dim, in_dim), b, entry.relu))
    try:
        return ModelGraph(layers, head=manifest.head)
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
    names = features_path.name, labels_path.name
    write_record(manifest_path, DatasetManifest(*data.features.shape, data.num_classes, *names))


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Load a dataset triple written by :func:`save_dataset`."""
    manifest_path = Path(manifest_path)
    manifest = read_record(manifest_path, DatasetManifest)
    n, d = manifest.num_examples, manifest.feature_dim
    if n < 0 or d < 0:
        raise DataFormatError(f"{manifest_path}: {n} examples of {d} features")
    raw_x = _read_blob(manifest_path.parent / manifest.features, 4 * n * d)
    raw_y = _read_blob(manifest_path.parent / manifest.labels, 4 * n)
    # Dataset makes the one float64/int64 copy of these views of the blobs
    features = np.frombuffer(raw_x, dtype="<f4").reshape(n, d)
    labels = np.frombuffer(raw_y, dtype="<u4")
    try:
        return Dataset(features, labels, manifest.num_classes)
    except GraphError as exc:
        raise DataFormatError(f"{manifest_path}: {exc}") from exc
