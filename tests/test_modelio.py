"""Model and dataset file pair round trips and validation."""

import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MISSING, edit_json, make_small_ce_model, write_old_model_format
from mixquant.graph import HEAD_SQUARED_ERROR, Dataset, Layer, ModelGraph
from mixquant.cost import LatencyTable
from mixquant.modelio import (
    DataFormatError,
    load_dataset,
    load_model,
    new_file,
    save_dataset,
    save_model,
    write_json,
)


def f32(values):
    return np.asarray(values, dtype=np.float32).astype(np.float64)


class TestModelRoundTrip:
    def test_float32_representable_model_survives_exactly(self, tmp_path):
        rng = np.random.default_rng(4)
        model = ModelGraph(
            [
                Layer("a", f32(rng.normal(size=(5, 3))), f32(rng.normal(size=5))),
                Layer("b", f32(rng.normal(size=(2, 5))), f32(rng.normal(size=2))),
            ]
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.parameter_digest() == model.parameter_digest()
        assert loaded.head == model.head

    def test_relu_layers_and_head_preserved(self, tmp_path):
        relus = np.array([False, True, True])  # numpy bools, as a mask would give
        model = ModelGraph(
            [Layer(f"l{i}", np.eye(2), np.zeros(2), relu) for i, relu in enumerate(relus)]
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        flags = [(l.name, l.relu) for l in loaded.layers]
        assert flags == [(f"l{i}", relu) for i, relu in enumerate(relus)]
        assert loaded.head == model.head

    def test_squared_error_head_round_trips(self, tmp_path):
        model = ModelGraph(
            [Layer("z", np.eye(2), np.zeros(2))], head=HEAD_SQUARED_ERROR
        )
        path = tmp_path / "m.json"
        save_model(model, path)
        assert load_model(path).head == HEAD_SQUARED_ERROR

    def test_truncated_blob_rejected(self, tmp_path):
        model, _ = make_small_ce_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        blob = tmp_path / "model.bin"
        blob.write_bytes(blob.read_bytes()[:-4])
        with pytest.raises(DataFormatError):
            load_model(path)

    def test_foreign_json_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "not-a-model"}')
        with pytest.raises(DataFormatError):
            load_model(path)

    def test_unparseable_json_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{nope")
        with pytest.raises(DataFormatError):
            load_model(path)

    def test_blob_longer_than_its_layers_rejected(self, tmp_path):
        model, _ = make_small_ce_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        blob = tmp_path / "model.bin"
        blob.write_bytes(blob.read_bytes() + bytes(4))
        with pytest.raises(DataFormatError, match="holds 208 bytes, its manifest implies 204"):
            load_model(path)

    @pytest.mark.parametrize(
        "path,value",
        [
            pytest.param(("layers", 0, "out_dim"), -2, id="out_dim--2"),
            pytest.param(("layers", 0, "in_dim"), 0, id="in_dim-0"),
            pytest.param(("layers", 0, "out_dim"), 2.0, id="out_dim-2.0"),
            # widths whose implied size is the blob's 24 bytes
            pytest.param(("layers", 0), {"name": "a", "kind": "affine", "out_dim": 6,
                                         "in_dim": 0}, id="in_dim-0-fits-the-blob"),
            pytest.param(("layers", 0), {"name": "a", "kind": "affine", "out_dim": -6,
                                         "in_dim": -2}, id="negative-widths-fit-the-blob"),
            # manifest structure: layers not a list of objects, blob not a name
            pytest.param(("layers",), {"a": {"kind": "affine"}}, id="layers-object"),
            pytest.param(("layers", 0), "relu", id="layer-string"),
            pytest.param(("blob",), 7, id="blob-number"),
        ],
    )
    def test_negative_offsets_and_widths_rejected(self, tmp_path, path, value):
        model = ModelGraph([Layer("a", np.eye(2), np.zeros(2))])
        manifest = tmp_path / "model.json"
        save_model(model, manifest)
        edit_json(manifest, path, value)
        with pytest.raises(DataFormatError):
            load_model(manifest)

    @pytest.mark.parametrize(
        "path,value,message",
        [
            pytest.param(("layers", 0, "kind"), "relu", "layer 'a' has kind 'relu'",
                         id="kind-relu"),
            pytest.param(("layers", 0, "in_dim"), 0, "layer 'a' needs positive widths",
                         id="in_dim-0"),
        ],
    )
    def test_layer_errors_name_the_manifest(self, tmp_path, path, value, message):
        model = ModelGraph([Layer("a", np.eye(2), np.zeros(2))])
        manifest = tmp_path / "model.json"
        save_model(model, manifest)
        edit_json(manifest, path, value)
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(manifest))}: {message}$"):
            load_model(manifest)

    def test_relu_flag_must_be_a_bool(self, tmp_path):
        model = ModelGraph([Layer("a", np.eye(2), np.zeros(2))])
        manifest = tmp_path / "model.json"
        save_model(model, manifest)
        edit_json(manifest, ("layers", 0, "relu"), 1)
        with pytest.raises(DataFormatError, match="layers: 0: relu: expected a bool, got 1"):
            load_model(manifest)

    def test_old_format_with_relu_entries_rejected(self, tmp_path):
        model, _ = make_small_ce_model()
        manifest = tmp_path / "model.json"
        save_model(model, manifest)
        write_old_model_format(manifest)
        assert json.loads(manifest.read_text())["layers"][1] == {"name": "relu1", "kind": "relu"}
        with pytest.raises(DataFormatError, match="layers: 0: missing key 'relu'"):
            load_model(manifest)

    def test_manifest_is_deterministic(self, tmp_path):
        model, _ = make_small_ce_model()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, a)
        save_model(model, b)
        assert a.read_text().replace('"a.bin"', "") == b.read_text().replace('"b.bin"', "")


class TestDatasetRoundTrip:
    def test_float32_dataset_survives_exactly(self, tmp_path):
        data = Dataset(
            f32(np.random.default_rng(1).normal(size=(10, 4))),
            np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0]),
            3,
        )
        path = tmp_path / "data.json"
        save_dataset(data, path)
        loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.features, data.features)
        np.testing.assert_array_equal(loaded.labels, data.labels)
        assert loaded.num_classes == 3

    def test_wrong_blob_length_rejected(self, tmp_path):
        data = Dataset(np.zeros((4, 2), dtype=np.float32), np.zeros(4, dtype=int), 2)
        path = tmp_path / "data.json"
        save_dataset(data, path)
        (tmp_path / "data.features.bin").write_bytes(b"\x00" * 7)
        with pytest.raises(DataFormatError):
            load_dataset(path)

    def test_label_out_of_range_rejected_on_load(self, tmp_path):
        data = Dataset(np.zeros((2, 2)), np.array([0, 1]), 2)
        path = tmp_path / "data.json"
        save_dataset(data, path)
        bad = np.array([0, 9], dtype="<u4")
        (tmp_path / "data.labels.bin").write_bytes(bad.tobytes())
        with pytest.raises(DataFormatError):
            load_dataset(path)


def key_paths(node, path=()):
    """The path to every object key in the JSON value ``node``, nested ones included."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from key_paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from key_paths(value, path + (index,))


@pytest.fixture(scope="module")
def seed7_manifests(f1, tmp_path_factory):
    """The seed-7 model and calibration files, and each manifest's text and key paths."""
    directory = tmp_path_factory.mktemp("seed7")
    model, calib, _ = f1
    save_model(model, directory / "model.json")
    save_dataset(calib, directory / "calib.json")
    manifests = {}
    for name in ("model.json", "calib.json"):
        text = (directory / name).read_text()
        manifests[name] = text, list(key_paths(json.loads(text)))
    return directory, manifests


# A stand-in for a JSON value of the wrong type, or the key deleted.
WRONG_VALUES = st.one_of(
    st.just(MISSING),
    st.booleans(),
    st.text(max_size=6),
    st.lists(st.integers(-2, 9), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 9), max_size=2),
    st.floats(-1e3, 1e3).filter(lambda v: not v.is_integer()),
    st.integers(2**63, 2**80) | st.integers(-(2**80), -(2**63)),
)


def mutant_of(seed7_manifests, name, path, value):
    """The manifest ``name`` with ``value`` at ``path``, next to the blobs it
    names, and the loader that reads it."""
    directory, manifests = seed7_manifests
    mutant = directory / f"mutant-{name}"
    new_file(mutant).write_text(manifests[name][0])
    edit_json(mutant, path, value)
    return mutant, (load_model if name == "model.json" else load_dataset)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_one_key_deleted_or_retyped_loads_or_is_a_format_error(seed7_manifests, data):
    _, manifests = seed7_manifests
    name = data.draw(st.sampled_from(sorted(manifests)))
    path = data.draw(st.sampled_from(manifests[name][1]))
    value = data.draw(WRONG_VALUES)
    mutant, load = mutant_of(seed7_manifests, name, path, value)
    try:
        load(mutant)
    except DataFormatError:
        pass
    else:
        assert value is not MISSING, f"{name} loads without {path}"


def test_every_key_deleted_is_a_format_error(seed7_manifests):
    _, manifests = seed7_manifests
    for name, (_, paths) in manifests.items():
        for path in paths:
            mutant, load = mutant_of(seed7_manifests, name, path, MISSING)
            with pytest.raises(DataFormatError, match="missing key|not a|version"):
                load(mutant)


@pytest.mark.parametrize(
    "name,path,key",
    [
        pytest.param("model.json", (), "extra", id="model"),
        pytest.param("model.json", ("layers", 0), "extra", id="affine-entry"),
        pytest.param("model.json", ("layers", 1), "extra", id="relu-entry"),
        pytest.param("calib.json", (), "extra", id="dataset"),
        # the old model format stored the blob layout that the layer shapes imply
        pytest.param("model.json", (), "blob_bytes", id="model-blob_bytes"),
        pytest.param("model.json", ("layers", 0), "weight_offset", id="affine-weight_offset"),
    ],
)
def test_an_unknown_key_at_any_depth_is_a_format_error(seed7_manifests, name, path, key):
    mutant, load = mutant_of(seed7_manifests, name, (*path, key), 0)
    with pytest.raises(DataFormatError, match=f"unknown key '{key}'"):
        load(mutant)


@pytest.mark.parametrize("where", ["manifest", "model-blob", "dataset-blob"])
def test_nul_in_a_file_name_is_a_format_error(tmp_path, where):
    model, data = make_small_ce_model()
    save_model(model, tmp_path / "model.json")
    save_dataset(data, tmp_path / "data.json")
    if where == "manifest":
        with pytest.raises(DataFormatError, match="cannot read"):
            load_model(tmp_path / "model\x00.json")
    elif where == "model-blob":
        edit_json(tmp_path / "model.json", ("blob",), "model\x00.bin")
        with pytest.raises(DataFormatError, match="cannot read"):
            load_model(tmp_path / "model.json")
    else:
        edit_json(tmp_path / "data.json", ("labels",), "data\x00.labels.bin")
        with pytest.raises(DataFormatError, match="cannot read"):
            load_dataset(tmp_path / "data.json")


def two_writes(tmp_path, kind):
    """Two calls writing different contents to the same paths, and the files
    to watch."""
    if kind == "json":
        path = tmp_path / "a.json"
        return [lambda v=v: write_json(path, "mixquant-test", {"v": v}) for v in (1, 2)], [path]
    if kind == "model":
        path = tmp_path / "model.json"
        models = [make_small_ce_model(seed=s)[0] for s in (1, 2)]
        return [lambda m=m: save_model(m, path) for m in models], [path.with_suffix(".bin")]
    if kind == "dataset":
        path = tmp_path / "data.json"
        rng = np.random.default_rng(0)
        sets = [Dataset(rng.normal(size=(4, 3)), rng.integers(0, 2, size=4), 2) for _ in range(2)]
        while np.array_equal(sets[0].labels, sets[1].labels):
            sets[1] = Dataset(sets[1].features, rng.integers(0, 2, size=4), 2)
        files = [tmp_path / "data.features.bin", tmp_path / "data.labels.bin"]
        return [lambda d=d: save_dataset(d, path) for d in sets], files
    path = tmp_path / "latency.csv"
    tables = [LatencyTable() for _ in range(2)]
    for table, us in zip(tables, (1.5, 2.5)):
        table.add("matmul", 2, 1, 3, 4, us)
    return [lambda t=t: t.to_csv(path) for t in tables], [path]


@pytest.mark.parametrize("kind", ["json", "model", "dataset", "csv"])
def test_rewrite_makes_a_new_file(tmp_path, kind):
    (first, second), files = two_writes(tmp_path, kind)
    first()
    kept = []
    for path in files:
        # a second link holds the old inode, so its number cannot be reused
        old = path.with_name(path.name + ".old")
        os.link(path, old)
        kept.append((path, old, old.read_bytes()))
    second()
    for path, old, old_bytes in kept:
        assert path.stat().st_ino != old.stat().st_ino
        assert old.read_bytes() == old_bytes  # not truncated in place
        assert path.read_bytes() != old_bytes
