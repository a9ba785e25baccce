"""Command-line interface tests, driven in process through main()."""

import dataclasses
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixquant.cli as cli_module
import mixquant.pipeline as pipeline_module
from conftest import MISSING, edit_json, with_tensor
from mixquant.calibrate import CalibrationOutcome
from mixquant.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_TARGET, main
from mixquant.cost import CostReport
from mixquant.modelio import DataFormatError, load_model, new_file, read_record, save_model
from mixquant.pipeline import PipelineConfig, PipelineConfigError, RunManifest, load_manifest
from mixquant.search import QuantConfig, SearchOutcome
from mixquant.sensitivity import SensitivityReport

SMALL_GEN = ["--dims", "8,12,12,8,2", "--calib-examples", "96", "--eval-examples", "256"]


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-fixture")
    code = main(["gen-fixture", "--seed", "13", "--out", str(out), *SMALL_GEN])
    assert code == EXIT_OK
    return out


def run_args(fixture_dir, out, extra=()):
    return [
        "run",
        "--model", str(fixture_dir / "model.json"),
        "--calib", str(fixture_dir / "calib.json"),
        "--eval", str(fixture_dir / "eval.json"),
        "--latency-table", str(fixture_dir / "latency.csv"),
        "--out", str(out),
        "--epochs", "2",
        *extra,
    ]


class TestGenFixture:
    def test_writes_file_set(self, fixture_dir):
        for name in ("model.json", "model.bin", "calib.json", "calib.features.bin",
                     "calib.labels.bin", "eval.json", "latency.csv"):
            assert (fixture_dir / name).exists(), name

    def test_same_seed_reproduces_files(self, fixture_dir, tmp_path, capsys):
        again = tmp_path / "again"
        assert main(["gen-fixture", "--seed", "13", "--out", str(again), *SMALL_GEN]) == EXIT_OK
        capsys.readouterr()
        for name in ("model.bin", "calib.features.bin", "eval.features.bin"):
            assert (again / name).read_bytes() == (fixture_dir / name).read_bytes()

    def test_repeated_layer_shapes_share_latency_rows(self, tmp_path, capsys):
        out = tmp_path / "repeated"
        dims = ["--dims", "8,12,12,12,12,2", "--calib-examples", "96", "--eval-examples", "256"]
        assert main(["gen-fixture", "--seed", "13", "--out", str(out), *dims]) == EXIT_OK
        capsys.readouterr()
        rows = (out / "latency.csv").read_text().splitlines()[1:]
        # three shapes (12x8, 12x12, 2x12) at widths 2..16
        assert len(rows) == len(set(rows)) == 3 * 15

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_out_that_is_a_file_exit_config(self, tmp_path, capsys, below):
        taken = tmp_path / "taken"
        taken.write_text("kept")
        out = taken / "fixture" if below else taken
        assert main(["gen-fixture", "--seed", "5", "--out", str(out), *SMALL_GEN]) == EXIT_CONFIG
        assert "is a file" in capsys.readouterr().err
        assert taken.read_text() == "kept"

    @pytest.mark.parametrize("out", ["", "fixture\x00"], ids=["empty", "nul"])
    def test_empty_or_nul_out_exit_config(self, tmp_path, capsys, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        assert main(["gen-fixture", "--seed", "5", "--out", out, *SMALL_GEN]) == EXIT_CONFIG
        assert "must be non-empty with no NUL" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_reports_summary(self, tmp_path, capsys):
        out = tmp_path / "f"
        main(["gen-fixture", "--seed", "5", "--out", str(out), *SMALL_GEN])
        stdout = capsys.readouterr().out
        assert "parameters" in stdout
        assert "eval: 256 examples" in stdout


class TestRun:
    def test_full_run_exit_zero_and_artifacts(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(run_args(fixture_dir, out)) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "achieved" in stdout and "relative size" in stdout
        for name in ("manifest.json", "config.json", "outcome.json", "cost.json"):
            assert (out / name).exists()
        # a flag left out takes the default of its PipelineConfig field
        expected = PipelineConfig(
            model=str(fixture_dir / "model.json"),
            calib_data=str(fixture_dir / "calib.json"),
            eval_data=str(fixture_dir / "eval.json"),
            latency_table=str(fixture_dir / "latency.csv"),
            out_dir=str(out),
            epochs=2,
        )
        assert load_manifest(out / "manifest.json").parameters == expected

    def test_rerun_with_fewer_widths_leaves_no_stale_specs(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        assert main(run_args(fixture_dir, out, ["--bits", "2,4,8"])) == EXIT_OK
        assert sorted(p.name for p in out.glob("specs-*")) == [
            "specs-2bit.json", "specs-4bit.json", "specs-8bit.json"
        ]
        assert main(run_args(fixture_dir, out, ["--bits", "4,8"])) == EXIT_OK
        assert sorted(p.name for p in out.glob("specs-*")) == ["specs-4bit.json", "specs-8bit.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["bits"] == [4, 8]

    def test_stale_spec_removed_by_another_run_first(self, fixture_dir, tmp_path, monkeypatch):
        out = tmp_path / "run"
        assert main(run_args(fixture_dir, out, ["--bits", "2,4,8"])) == EXIT_OK
        listing = Path.glob

        def racing_glob(self, pattern, *args, **kwargs):
            found = list(listing(self, pattern, *args, **kwargs))
            if pattern == "specs-*bit.json":
                (self / "specs-2bit.json").unlink()  # another run got there first
            return iter(found)

        monkeypatch.setattr(Path, "glob", racing_glob)
        assert main(run_args(fixture_dir, out, ["--bits", "4,8"])) == EXIT_OK
        monkeypatch.undo()
        assert sorted(p.name for p in out.glob("specs-*")) == ["specs-4bit.json", "specs-8bit.json"]

    def test_manifest_rerun_reproduces_artifacts(self, fixture_dir, tmp_path, capsys):
        first = tmp_path / "first"
        assert main(run_args(fixture_dir, first)) == EXIT_OK
        second = tmp_path / "second"
        code = main([
            "run", "--manifest", str(first / "manifest.json"), "--out", str(second)
        ])
        assert code == EXIT_OK
        capsys.readouterr()
        for name in ("config.json", "outcome.json", "cost.json", "sensitivity.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    @pytest.mark.parametrize(
        "field,value",
        [
            ("target", "x"),
            ("bits", 4),
            ("metric", ["qe"]),
            ("learning_rate", float("nan")),
            ("noise_scale", float("inf")),
            # wrongly typed, including a bool where a number belongs
            pytest.param("trials", 2.5, id="trials-fraction"),
            pytest.param("epochs", 1.5, id="epochs-fraction"),
            pytest.param("sensitivity_samples", 2.5, id="sensitivity_samples-fraction"),
            pytest.param("seed", "x", id="seed-string"),
            pytest.param("baseline_bits", 16.5, id="baseline_bits-fraction"),
            pytest.param("seed", 1.5, id="seed-fraction"),
            pytest.param("bits", [4.7, 8], id="bits-fraction"),
            pytest.param("target", True, id="target-bool"),
            pytest.param("model", 5, id="model-number"),
            pytest.param("out_dir", 5, id="out_dir-number"),
        ],
    )
    def test_malformed_manifest_rerun_exit_data(self, fixture_dir, tmp_path, capsys, field, value):
        first = tmp_path / "first"
        assert main(run_args(fixture_dir, first)) == EXIT_OK
        manifest = json.loads((first / "manifest.json").read_text())
        manifest["parameters"][field] = value
        (first / "manifest.json").write_text(json.dumps(manifest))
        args = ["run", "--manifest", str(first / "manifest.json"), "--out", str(tmp_path / "x")]
        assert main(args) == EXIT_DATA
        err = capsys.readouterr().err
        assert "malformed 'mixquant-run-manifest' file" in err
        # rejected while reading the manifest, before any stage ran
        assert "[stage:" not in err and not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "field,value",
        [("latency_table", "latency\x00.csv"), ("out_dir", "run\x00"), ("out_dir", "")],
        ids=["latency_table-nul", "out_dir-nul", "out_dir-empty"],
    )
    def test_manifest_path_field_exit_data(
        self, fixture_dir, tmp_path, capsys, monkeypatch, field, value
    ):
        # without --out the manifest's out_dir is the run's, and an empty
        # one would name the working directory
        first = tmp_path / "first"
        assert main(run_args(fixture_dir, first)) == EXIT_OK
        edit_json(first / "manifest.json", ("parameters", field), value)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        (cwd / "specs-4bit.json").write_text("kept")
        monkeypatch.chdir(cwd)
        assert main(["run", "--manifest", str(first / "manifest.json")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: malformed 'mixquant-run-manifest' file")
        assert f"{field} must be a non-empty path string with no NUL" in err
        assert [p.name for p in cwd.iterdir()] == ["specs-4bit.json"]
        assert (cwd / "specs-4bit.json").read_text() == "kept"

    def test_manifest_with_an_empty_out_exit_config(self, fixture_dir, tmp_path, capsys):
        first = tmp_path / "first"
        assert main(run_args(fixture_dir, first)) == EXIT_OK
        before = {p.name: p.read_bytes() for p in first.iterdir()}
        assert main(["run", "--manifest", str(first / "manifest.json"), "--out", ""]) == EXIT_CONFIG
        assert "out_dir must be a non-empty path string" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in first.iterdir()} == before

    def test_manifest_width_above_the_grid_exit_data(self, fixture_dir, tmp_path, capsys):
        # a baseline above the quantizer's widest grid admits no wider candidate
        first = tmp_path / "first"
        assert main(run_args(fixture_dir, first)) == EXIT_OK
        edit_json(first / "manifest.json", ("parameters", "baseline_bits"), 32)
        edit_json(first / "manifest.json", ("parameters", "bits"), [20])
        args = ["run", "--manifest", str(first / "manifest.json"), "--out", str(tmp_path / "x")]
        assert main(args) == EXIT_DATA
        err = capsys.readouterr().err
        assert "malformed 'mixquant-run-manifest' file" in err
        assert "candidate bit width 20 outside [2, 16]" in err
        assert "[stage:" not in err and not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "extra",
        [
            pytest.param(["--metric", "qe", "--algo", "bisection", "--bits", "2,4"], id="search"),
            pytest.param(["--epochs", "2"], id="same-value"),
            pytest.param(["--model", "other.json"], id="input"),
        ],
    )
    def test_manifest_refuses_other_run_flags(self, fixture_dir, tmp_path, capsys, extra):
        first = tmp_path / "first"
        assert main(run_args(fixture_dir, first)) == EXIT_OK
        capsys.readouterr()
        second = tmp_path / "second"
        args = ["run", "--manifest", str(first / "manifest.json"), "--out", str(second)]
        assert main([*args, *extra]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert extra[0] in err and "--out" in err and "[stage:" not in err
        assert not second.exists()

    def test_manifest_with_probes_reruns_exactly(self, fixture_dir, tmp_path, capsys):
        # manifests written while the hessian metric was sampled carry the
        # probe count; it is ignored, and the rerun scores exact traces
        first = tmp_path / "first"
        assert main(run_args(fixture_dir, first)) == EXIT_OK
        edit_json(first / "manifest.json", ("parameters", "probes"), 16)
        second = tmp_path / "second"
        code = main(["run", "--manifest", str(first / "manifest.json"), "--out", str(second)])
        assert code == EXIT_OK
        capsys.readouterr()
        for name in ("config.json", "outcome.json", "cost.json", "sensitivity.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        assert "probes" not in json.loads((second / "manifest.json").read_text())["parameters"]

    def test_missing_flags_exit_config(self, fixture_dir, capsys):
        code = main(["run", "--model", str(fixture_dir / "model.json")])
        assert code == EXIT_CONFIG
        assert "--calib" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            pytest.param("--target", "1.5", "target", id="target"),
            pytest.param("--lr", "nan", "learning_rate must be finite", id="lr-nan"),
            pytest.param("--lr", "inf", "learning_rate must be finite", id="lr-inf"),
            pytest.param("--lambda", "nan", "noise_scale must be finite", id="lambda-nan"),
            pytest.param("--lambda", "inf", "noise_scale must be finite", id="lambda-inf"),
        ],
    )
    def test_bad_target_exit_config(self, fixture_dir, tmp_path, capsys, flag, value, message):
        out = tmp_path / "x"
        code = main(run_args(fixture_dir, out, [flag, value]))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err
        # rejected while validating the parameters, before any stage ran
        assert "[stage:" not in err and not out.exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_out_that_is_a_file_exit_config(
        self, fixture_dir, tmp_path, capsys, monkeypatch, below
    ):
        taken = tmp_path / "taken"
        taken.write_text("kept")

        def no_stage_may_run(path):
            raise AssertionError("a stage ran before the output path was checked")

        monkeypatch.setattr(pipeline_module, "load_model", no_stage_may_run)
        out = taken / "run" if below else taken
        assert main(run_args(fixture_dir, out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "is a file" in err and "[stage:" not in err
        assert taken.read_text() == "kept"

    def test_diverging_calibration_exit_config(self, fixture_dir, tmp_path, capsys):
        code = main(run_args(fixture_dir, tmp_path / "x", ["--lr", "1e308"]))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: [stage: calibrate-scales]")
        assert "non-finite" in err and "learning rate 1e+308" in err
        assert "-bit bank" in err

    def test_unreadable_model_exit_data(self, fixture_dir, tmp_path, capsys):
        args = run_args(fixture_dir, tmp_path / "x")
        args[args.index("--model") + 1] = str(tmp_path / "missing.json")
        assert main(args) == EXIT_DATA
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,path,value,message",
        [
            pytest.param("model.json", ("layers", 0, "weight_offset"), -4, "offsets",
                         id="weight_offset"),
            pytest.param("model.json", ("layers", 0, "bias_offset"), -4, "offsets",
                         id="bias_offset"),
            pytest.param("model.json", ("layers", 0, "bias_offset"), 3, "offsets",
                         id="bias_offset-unaligned"),
            pytest.param("model.json", ("layers", 0, "weight_offset"), 0.9, "offsets",
                         id="weight_offset-fraction"),
            pytest.param("model.json", ("layers", 0, "bias_offset"), "8", "offsets",
                         id="bias_offset-string"),
            pytest.param("model.json", ("layers",), {"dense1": {}}, "'layers'",
                         id="layers-object"),
            pytest.param("model.json", ("layers", 1), "relu", "'layers'", id="layer-string"),
            pytest.param("model.json", ("blob",), 7, "'blob'", id="blob-number"),
            pytest.param("model.json", ("layers", 0, "name"), MISSING, "layer name",
                         id="name-missing"),
            pytest.param("model.json", ("layers", 1, "name"), 3, "layer name",
                         id="name-number"),
            pytest.param("calib.json", ("features",), 7, "'features'", id="features-number"),
            pytest.param("eval.json", ("labels",), ["eval.labels.bin"], "'labels'",
                         id="labels-list"),
        ],
    )
    def test_negative_model_offset_exit_data(
        self, fixture_dir, tmp_path, capsys, name, path, value, message
    ):
        inputs = tmp_path / "inputs"
        shutil.copytree(fixture_dir, inputs)
        edit_json(inputs / name, path, value)
        assert main(run_args(inputs, tmp_path / "x")) == EXIT_DATA
        assert message in capsys.readouterr().err

    def test_undecodable_latency_table_exit_data(self, fixture_dir, tmp_path, capsys):
        inputs = tmp_path / "inputs"
        shutil.copytree(fixture_dir, inputs)
        with (inputs / "latency.csv").open("ab") as table:
            table.write(b"matmul,24,1,16,4,\xff\xfe\n")
        assert main(run_args(inputs, tmp_path / "x")) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: [stage: load-inputs] cannot read latency table")

    def test_missing_latency_entry_exit_data(self, fixture_dir, tmp_path, capsys):
        inputs = tmp_path / "inputs"
        shutil.copytree(fixture_dir, inputs)
        table = inputs / "latency.csv"
        header, first, *rest = table.read_text().splitlines()
        shape = first.split(",")[:4]
        kept = [row for row in rest if row.split(",")[:4] != shape]
        table.write_text("\n".join([header, *kept]) + "\n")
        code = main(run_args(inputs, tmp_path / "x", ["--metric", "qe"]))
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: [stage: report-costs] no latency entry")

    def test_committed_config_below_target_exit_target(
        self, fixture_dir, tmp_path, capsys, monkeypatch
    ):
        # a search evaluator that overstates every accuracy commits every
        # tensor at 2 bits; verify-target's own evaluation must catch it
        monkeypatch.setattr(
            pipeline_module,
            "_evaluate_chain",
            lambda model, data, spec_bank, configs: [1.0] * len(configs),
        )
        out = tmp_path / "run"
        assert main(run_args(fixture_dir, out, ["--bits", "2"])) == EXIT_TARGET
        err = capsys.readouterr().err
        assert err.startswith("error: [stage: verify-target]") and "below target" in err
        assert not out.exists()

    def test_metric_choice_enforced_by_parser(self, fixture_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(run_args(fixture_dir, tmp_path / "x", ["--metric", "entropy"]))
        assert excinfo.value.code == 2
        capsys.readouterr()



# Every PipelineConfig field, in order: a new run knob is an edit here.
PIPELINE_FIELDS = [
    "model", "calib_data", "eval_data", "latency_table", "out_dir", "metric", "algo", "bits",
    "target", "seed", "noise_scale", "trials", "learning_rate", "epochs", "baseline_bits",
    "sensitivity_samples", "calibration_samples",
]
# Each run flag other than --manifest: (flag, the field it sets, an argument, its value).
RUN_FLAGS = [
    ("--model", "model", "m.json", "m.json"),
    ("--calib", "calib_data", "c.json", "c.json"),
    ("--eval", "eval_data", "e.json", "e.json"),
    ("--latency-table", "latency_table", "l.csv", "l.csv"),
    ("--metric", "metric", "qe", "qe"),
    ("--algo", "algo", "bisection", "bisection"),
    ("--bits", "bits", "2,3", (2, 3)),
    ("--target", "target", "0.5", 0.5),
    ("--seed", "seed", "11", 11),
    ("--lambda", "noise_scale", "0.25", 0.25),
    ("--trials", "trials", "3", 3),
    ("--lr", "learning_rate", "0.002", 0.002),
    ("--epochs", "epochs", "5", 5),
    ("--out", "out_dir", "o", "o"),
]


def test_each_run_flag_sets_the_pipeline_field_of_its_name(monkeypatch, capsys):
    assert [f.name for f in dataclasses.fields(PipelineConfig)] == PIPELINE_FIELDS
    assert cli_module._build_parser().parse_args(["run"]).flags == {
        field: flag for flag, field, _, _ in RUN_FLAGS
    }
    seen = []

    def capture(config):
        seen.append(config)
        raise PipelineConfigError("captured")

    monkeypatch.setattr(cli_module, "run_pipeline", capture)
    args = [item for flag, _, argument, _ in RUN_FLAGS for item in (flag, argument)]
    assert main(["run", *args]) == EXIT_CONFIG
    capsys.readouterr()
    [config] = seen
    assert {field: getattr(config, field) for _, field, _, _ in RUN_FLAGS} == {
        field: value for _, field, _, value in RUN_FLAGS
    }


@pytest.fixture(scope="module")
def seed7_run(tmp_path_factory):
    """The seed-7 fixture and a finished run over it."""
    root = tmp_path_factory.mktemp("seed7-run")
    assert main(["gen-fixture", "--seed", "7", "--out", str(root / "inputs")]) == EXIT_OK
    assert main(run_args(root / "inputs", root / "run")) == EXIT_OK
    return root


# A manifest parameter deleted or set to another type or range. The only
# positive integers are list items below 10, so no value asks for
# unbounded work.
PARAMETER_VALUES = st.one_of(
    st.just(MISSING),
    st.booleans(),
    st.text(max_size=6),
    st.text(max_size=3).map(lambda text: text + "\x00"),
    st.lists(st.integers(-2, 9), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 9), max_size=2),
    st.floats(-1e3, 1e3).filter(lambda v: not v.is_integer()),
    st.integers(-(2**70), -1),
    st.just(float("nan")),
)


@pytest.mark.parametrize("key", PIPELINE_FIELDS)
@settings(max_examples=30, deadline=None)
@given(value=PARAMETER_VALUES)
def test_one_manifest_parameter_changed_exits_cleanly(seed7_run, key, value):
    """A rerun of a manifest with one parameter deleted or retyped runs,
    or ends in exit 2 or 3, and writes nothing outside its ``--out``."""
    text = (seed7_run / "run" / "manifest.json").read_text()
    with tempfile.TemporaryDirectory(dir=seed7_run) as tmp, pytest.MonkeyPatch.context() as patch:
        tmp = Path(tmp)
        manifest, cwd, out = tmp / "manifest.json", tmp / "cwd", tmp / "out"
        manifest.write_text(text)
        edit_json(manifest, ("parameters", key), value)
        cwd.mkdir()
        patch.chdir(cwd)
        code = main(["run", "--manifest", str(manifest), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA)
        assert not any(cwd.iterdir())
        assert {p.name for p in tmp.iterdir()} <= {"manifest.json", "cwd", "out"}


def test_qe_scores_an_all_zero_tensor_first(seed7_run, tmp_path, capsys):
    inputs = tmp_path / "inputs"
    shutil.copytree(seed7_run / "inputs", inputs)
    model = load_model(inputs / "model.json")
    zero = np.zeros_like(model.parameter("dense3.weight"))
    save_model(with_tensor(model, "dense3.weight", zero), inputs / "model.json")
    out = tmp_path / "run"
    assert main(run_args(inputs, out, ["--metric", "qe"])) == EXIT_OK
    capsys.readouterr()
    report = read_record(out / "sensitivity.json", SensitivityReport)
    assert report.ordering[0] == "dense3.weight"
    assert report.scores["dense3.weight"].mean == 0.0


# Each record file of a run, and the record it holds.
RECORDS = {
    "manifest.json": RunManifest,
    "sensitivity.json": SensitivityReport,
    "config.json": QuantConfig,
    "outcome.json": SearchOutcome,
    "cost.json": CostReport,
    "specs-4bit.json": CalibrationOutcome,
    "specs-8bit.json": CalibrationOutcome,
}
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 20),
    st.floats(allow_nan=True),
    st.text(max_size=4),
    st.lists(st.integers(-2, 20), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 20), max_size=2),
)


def _containers(node):
    """Every object and list in a JSON tree, the root first."""
    if isinstance(node, (dict, list)):
        yield node
        for child in node.values() if isinstance(node, dict) else node:
            yield from _containers(child)


@pytest.mark.parametrize("name", RECORDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_record_key_changed_reads_or_is_refused(seed7_run, name, data):
    """A record file with one key, at any depth, deleted, added or set to a
    value of another type is read or refused as malformed, and ``compare``
    of its run exits 0 or 3."""
    run = seed7_run / "run"
    payload = json.loads((run / name).read_text())
    node = data.draw(st.sampled_from(list(_containers(payload))))
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    change = data.draw(st.sampled_from(["add", "delete", "retype"] if keys else ["add"]))
    if change == "add":
        value = data.draw(JSON_VALUES)
        if isinstance(node, dict):
            node[data.draw(st.text(max_size=4).filter(lambda key: key not in node))] = value
        else:
            node.append(value)
    else:
        key = data.draw(st.sampled_from(keys))
        if change == "delete":
            del node[key]
        else:
            old = type(node[key])
            node[key] = data.draw(JSON_VALUES.filter(lambda value: type(value) is not old))
    with tempfile.TemporaryDirectory(dir=seed7_run) as tmp:
        broken = Path(tmp) / "run"
        shutil.copytree(run, broken)
        new_file(broken / name).write_text(json.dumps(payload))
        try:
            read_record(broken / name, RECORDS[name])
        except DataFormatError:
            pass
        assert main(["compare", str(run), str(broken)]) in (EXIT_OK, EXIT_DATA)


@pytest.fixture(scope="module")
def two_runs(fixture_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-cmp")
    dirs = []
    for metric in ("hessian", "qe"):
        out = root / metric
        assert main(run_args(fixture_dir, out, ["--metric", metric])) == EXIT_OK
        dirs.append(out)
    return dirs


class TestCompare:
    def test_prints_table_and_writes_json(self, two_runs, tmp_path, capsys):
        summary_path = tmp_path / "summary.json"
        code = main(["compare", str(two_runs[0]), str(two_runs[1]), "--out", str(summary_path)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "hessian" in stdout and "qe" in stdout
        assert "ordering edit distances" in stdout
        payload = json.loads(summary_path.read_text())
        assert len(payload["rows"]) == 2

    @pytest.mark.parametrize("where", ["empty", "directory", "below-file"])
    def test_out_that_is_no_file_exit_config(self, two_runs, tmp_path, capsys, monkeypatch, where):
        taken = tmp_path / "taken"
        taken.write_text("kept")
        out = {"empty": "", "directory": str(tmp_path), "below-file": str(taken / "x.json")}

        def no_run_may_be_read(run_dirs):
            raise AssertionError("a run directory was read before --out was checked")

        monkeypatch.setattr(cli_module, "compare_runs", no_run_may_be_read)
        assert main(["compare", *map(str, two_runs), "--out", out[where]]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err
        assert taken.read_text() == "kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    def test_out_below_missing_directories_creates_them(self, two_runs, tmp_path, capsys):
        out = tmp_path / "missing" / "dir" / "summary.json"
        assert main(["compare", *map(str, two_runs), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert json.loads(out.read_text())["format"] == "mixquant-comparison"

    def test_single_run_exit_config(self, two_runs, capsys):
        assert main(["compare", str(two_runs[0])]) == EXIT_CONFIG
        assert "two" in capsys.readouterr().err

    def test_missing_run_dir_exit_data(self, two_runs, tmp_path, capsys):
        assert main(["compare", str(two_runs[0]), str(tmp_path / "void")]) == EXIT_DATA
        capsys.readouterr()

    @pytest.mark.parametrize(
        "name", ["manifest.json", "cost.json", "outcome.json", "sensitivity.json"]
    )
    @pytest.mark.parametrize("damage", ["not-json", "list", "format", "body", "entry"])
    def test_malformed_run_artifact_exit_data(self, two_runs, tmp_path, capsys, name, damage):
        broken = tmp_path / "broken"
        shutil.copytree(two_runs[1], broken)
        path = broken / name
        if damage == "not-json":
            path.write_text("{nope")
        elif damage == "list":
            path.write_text("[]")
        elif damage == "format":
            path.write_text('{"format": "mixquant-something-else"}')
        elif damage == "body":
            # right format, but every other top-level field is a list
            payload = json.loads(path.read_text())
            path.write_text(json.dumps({k: v if k == "format" else [] for k, v in payload.items()}))
        else:
            # one field the comparison table prints or hashes gets a wrong type
            payload = json.loads(path.read_text())
            if name == "manifest.json":
                payload["parameters"]["metric"] = ["qe"]
            elif name == "cost.json":
                payload["relative_size"] = "small"
            elif name == "outcome.json":
                payload["achieved_accuracy"] = [1.0]
            else:
                payload["ordering"] = [[tensor] for tensor in payload["ordering"]]
            path.write_text(json.dumps(payload))
        assert main(["compare", str(two_runs[0]), str(broken)]) == EXIT_DATA
        assert name in capsys.readouterr().err
