"""Command-line interface tests, driven in process through main()."""

import dataclasses
import errno
import json
import os
import shutil
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixquant.cli as cli_module
import mixquant.pipeline as pipeline_module
from conftest import MISSING, edit_json, with_tensor, write_old_model_format
from mixquant.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_TARGET, main
from mixquant.cost import CostReport
from mixquant.modelio import DataFormatError, load_model, new_file, read_record, save_model
from mixquant.pipeline import PipelineConfig, PipelineConfigError, RunManifest, load_manifest
from mixquant.quantize import CalibrationOutcome
from mixquant.search import QuantConfig, SearchOutcome
from mixquant.sensitivity import SensitivityReport

SMALL_GEN = ["--dims", "8,12,12,8,2", "--calib-examples", "96", "--eval-examples", "256"]


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-fixture")
    code = main(["gen-fixture", "--seed", "13", "--out", str(out), *SMALL_GEN])
    assert code == EXIT_OK
    return out


# --out layouts that name, or lie below, an existing name that is not a directory
NOT_A_DIRECTORY = ["file", "below-file", "dangling-link", "below-loop"]


def not_a_directory(tmp_path, layout):
    """An ``--out`` path of ``layout`` under ``tmp_path``, and the name it trips on."""
    taken = tmp_path / "taken"
    if layout.endswith("file"):
        taken.write_text("kept")
    else:
        taken.symlink_to(tmp_path / "nowhere" if layout == "dangling-link" else taken)
    return (taken / "out" if layout.startswith("below") else taken), taken


def too_long(tmp_path, where, suffix=""):
    """An ``--out`` path under ``tmp_path`` holding a name one byte over the
    longest the filesystem takes: as its last name, or as a parent's."""
    name = "x" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 1)
    return tmp_path / name / f"out{suffix}" if where == "below" else tmp_path / f"{name}{suffix}"


def left_as_it_was(taken, layout):
    if layout.endswith("file"):
        return taken.read_text() == "kept"
    return taken.is_symlink() and sorted(p.name for p in taken.parent.iterdir()) == ["taken"]


@pytest.fixture(scope="module")
def seed7_dir(tmp_path_factory):
    """The default seed-7 fixture."""
    out = tmp_path_factory.mktemp("seed7-fixture")
    assert main(["gen-fixture", "--seed", "7", "--out", str(out)]) == EXIT_OK
    return out


@pytest.fixture
def no_calibration(monkeypatch):
    """A stage spy: calibrating scales fails the test."""

    def spy(*args, **kwargs):
        raise AssertionError("scales were calibrated before the inputs were checked")

    monkeypatch.setattr(pipeline_module, "calibrate", spy)


def run_args(fixture_dir, out, extra=()):
    return [
        "run",
        "--model", str(fixture_dir / "model.json"),
        "--calib", str(fixture_dir / "calib.json"),
        "--eval", str(fixture_dir / "eval.json"),
        "--latency-table", str(fixture_dir / "latency.csv"),
        "--out", str(out),
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

    @pytest.mark.parametrize("layout", NOT_A_DIRECTORY)
    def test_out_that_is_a_file_exit_config(self, tmp_path, capsys, layout):
        out, taken = not_a_directory(tmp_path, layout)
        assert main(["gen-fixture", "--seed", "5", "--out", str(out), *SMALL_GEN]) == EXIT_CONFIG
        assert "is a file" in capsys.readouterr().err
        assert left_as_it_was(taken, layout)

    @pytest.mark.parametrize("out", ["", "fixture\x00"], ids=["empty", "nul"])
    def test_empty_or_nul_out_exit_config(self, tmp_path, capsys, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        assert main(["gen-fixture", "--seed", "5", "--out", out, *SMALL_GEN]) == EXIT_CONFIG
        assert "must be non-empty with no NUL" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("where", ["name", "below"])
    def test_out_with_a_name_too_long_exit_config(self, tmp_path, capsys, monkeypatch, where):
        def no_fixture_may_be_built(*args):
            raise AssertionError("the fixture was built before the output path was checked")

        monkeypatch.setattr(cli_module, "build_fixture", no_fixture_may_be_built)
        out = too_long(tmp_path, where)
        assert main(["gen-fixture", "--seed", "5", "--out", str(out), *SMALL_GEN]) == EXIT_CONFIG
        assert "is unusable: File name too long" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("seed", ["-1", str(-(2**32) + 7)])
    def test_negative_seed_exit_config(self, tmp_path, capsys, seed):
        out = tmp_path / "f"
        assert main(["gen-fixture", "--seed", seed, "--out", str(out), *SMALL_GEN]) == EXIT_CONFIG
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

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
        )
        assert load_manifest(out / "manifest.json").parameters == expected

    def test_seeds_equal_modulo_2_to_the_32_write_different_runs(
        self, fixture_dir, tmp_path, capsys
    ):
        first, second = (tmp_path / str(seed) for seed in (7, 2**32 + 7))
        for out in (first, second):
            args = run_args(fixture_dir, out, ["--seed", out.name, "--metric", "noise"])
            assert main(args) == EXIT_OK
        capsys.readouterr()
        differ = {p.name for p in first.iterdir() if p.read_bytes() != (second / p.name).read_bytes()}
        assert {"manifest.json", "sensitivity.json"} <= differ

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
            ("noise_scale", float("nan")),
            ("noise_scale", float("inf")),
            # wrongly typed, including a bool where a number belongs
            pytest.param("trials", 2.5, id="trials-fraction"),
            pytest.param("trials", True, id="trials-bool"),
            pytest.param("seed", "x", id="seed-string"),
            pytest.param("baseline_bits", 16.5, id="baseline_bits-fraction"),
            pytest.param("seed", 1.5, id="seed-fraction"),
            pytest.param("seed", -1, id="seed-negative"),
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
            pytest.param(["--target", "0.99"], id="same-value"),
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

    def test_manifest_with_probes_is_refused(self, fixture_dir, tmp_path, capsys):
        # manifests written while the hessian metric was sampled carry the
        # probe count; like any old format, they are not read
        first = tmp_path / "first"
        assert main(run_args(fixture_dir, first)) == EXIT_OK
        capsys.readouterr()
        edit_json(first / "manifest.json", ("parameters", "probes"), 16)
        second = tmp_path / "second"
        code = main(["run", "--manifest", str(first / "manifest.json"), "--out", str(second)])
        assert code == EXIT_DATA
        assert "parameters: unknown key 'probes'" in capsys.readouterr().err
        assert not second.exists()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("learning_rate", 1e-5),
            ("epochs", 20),
            ("sensitivity_samples", 256),
            ("calibration_samples", 256),
        ],
        ids=["learning_rate", "epochs", "sensitivity_samples", "calibration_samples"],
    )
    def test_manifest_with_a_removed_parameter_is_refused(
        self, fixture_dir, tmp_path, capsys, key, value
    ):
        # manifests written while calibration ran a scale descent on a
        # subset of its own carry these settings; like any old format,
        # they are not read
        first = tmp_path / "first"
        assert main(run_args(fixture_dir, first)) == EXIT_OK
        capsys.readouterr()
        edit_json(first / "manifest.json", ("parameters", key), value)
        second = tmp_path / "second"
        code = main(["run", "--manifest", str(first / "manifest.json"), "--out", str(second)])
        assert code == EXIT_DATA
        assert f"parameters: unknown key '{key}'" in capsys.readouterr().err
        assert not second.exists()

    @pytest.mark.parametrize(
        "flag,value",
        [("--lr", "nan"), ("--lr", "inf"), ("--epochs", "2")],
        ids=["lr-nan", "lr-inf", "epochs"],
    )
    def test_removed_calibration_flag_exit_config(self, fixture_dir, tmp_path, capsys, flag, value):
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as excinfo:
            main(run_args(fixture_dir, out, [flag, value]))
        assert excinfo.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_flags_exit_config(self, fixture_dir, capsys):
        code = main(["run", "--model", str(fixture_dir / "model.json")])
        assert code == EXIT_CONFIG
        assert "--calib" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            pytest.param("--target", "1.5", "target", id="target"),
            pytest.param("--lambda", "nan", "noise_scale must be finite", id="lambda-nan"),
            pytest.param("--lambda", "inf", "noise_scale must be finite", id="lambda-inf"),
            pytest.param("--seed", "-1", "seed must be >= 0", id="seed-negative"),
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

    @pytest.mark.parametrize("layout", NOT_A_DIRECTORY)
    def test_out_that_is_a_file_exit_config(
        self, fixture_dir, tmp_path, capsys, monkeypatch, layout
    ):
        out, taken = not_a_directory(tmp_path, layout)

        def no_stage_may_run(path):
            raise AssertionError("a stage ran before the output path was checked")

        monkeypatch.setattr(pipeline_module, "load_model", no_stage_may_run)
        assert main(run_args(fixture_dir, out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "is a file" in err and "[stage:" not in err
        assert left_as_it_was(taken, layout)

    @pytest.mark.parametrize("where", ["name", "below"])
    def test_out_with_a_name_too_long_exit_config(
        self, fixture_dir, tmp_path, capsys, monkeypatch, where
    ):
        def no_stage_may_run(path):
            raise AssertionError("a stage ran before the output path was checked")

        monkeypatch.setattr(pipeline_module, "load_model", no_stage_may_run)
        assert main(run_args(fixture_dir, too_long(tmp_path, where))) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "is unusable: File name too long" in err and "[stage:" not in err
        assert not any(tmp_path.iterdir())

    def test_unreadable_model_exit_data(self, fixture_dir, tmp_path, capsys):
        args = run_args(fixture_dir, tmp_path / "x")
        args[args.index("--model") + 1] = str(tmp_path / "missing.json")
        assert main(args) == EXIT_DATA
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,path,value,message",
        [
            # a model file of the old format, which stored its blob's layout
            pytest.param("model.json", ("blob_bytes",), 4, "unknown key 'blob_bytes'",
                         id="blob_bytes"),
            pytest.param("model.json", ("layers", 0, "weight_offset"), 0,
                         "layers: 0: unknown key 'weight_offset'", id="weight_offset"),
            pytest.param("model.json", ("layers", 0, "out_dim"), 0.9,
                         "layers: 0: out_dim: expected an integer, got 0.9",
                         id="out_dim-fraction"),
            pytest.param("model.json", ("layers",), {"dense1": {}},
                         "layers: expected a list, got {'dense1': {}}", id="layers-object"),
            pytest.param("model.json", ("layers", 1), "relu",
                         "layers: 1: expected a dict, got 'relu'", id="layer-string"),
            pytest.param("model.json", ("blob",), 7, "blob: expected a str, got 7",
                         id="blob-number"),
            pytest.param("model.json", ("layers", 0, "name"), MISSING,
                         "layers: 0: missing key 'name'", id="name-missing"),
            pytest.param("model.json", ("layers", 1, "name"), 3,
                         "layers: 1: name: expected a str, got 3", id="name-number"),
            pytest.param("calib.json", ("features",), 7, "features: expected a str, got 7",
                         id="features-number"),
            pytest.param("eval.json", ("labels",), ["eval.labels.bin"],
                         "labels: expected a str, got ['eval.labels.bin']", id="labels-list"),
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

    def test_old_format_model_exit_data(self, fixture_dir, tmp_path, capsys):
        inputs = tmp_path / "inputs"
        shutil.copytree(fixture_dir, inputs)
        write_old_model_format(inputs / "model.json")
        assert main(run_args(inputs, tmp_path / "x")) == EXIT_DATA
        assert "layers: 0: missing key 'relu'" in capsys.readouterr().err

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
        assert err.startswith("error: [stage: load-inputs] no latency entry")

    @pytest.mark.parametrize(
        "m,k", [pytest.param(24, 16, id="dense1"), pytest.param(8, 16, id="dense5")]
    )
    def test_latency_gap_at_a_searched_width_fails_before_calibration(
        self, seed7_dir, tmp_path, capsys, no_calibration, m, k
    ):
        # the seed-7 run commits dense1 at 4 bits and dense5 at 8; either gap fails early
        inputs = tmp_path / "inputs"
        shutil.copytree(seed7_dir, inputs)
        table = inputs / "latency.csv"
        rows = table.read_text().splitlines()
        gap = f"matmul,{m},1,{k},4,"
        assert sum(row.startswith(gap) for row in rows) == 1
        table.write_text("\n".join(row for row in rows if not row.startswith(gap)) + "\n")
        assert main(run_args(inputs, tmp_path / "x")) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: [stage: load-inputs] no latency entry for kind=matmul m={m}")
        assert not (tmp_path / "x").exists()

    def test_eval_split_of_another_class_count_fails_before_calibration(
        self, seed7_dir, tmp_path, capsys, no_calibration
    ):
        other = tmp_path / "three-classes"
        assert main(["gen-fixture", "--seed", "7", "--dims", "16,8,3", "--out", str(other)]) == 0
        args = run_args(seed7_dir, tmp_path / "x")
        args[args.index("--eval") + 1] = str(other / "eval.json")
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(
            "error: [stage: load-inputs] dataset has 3 classes but the model emits 2"
        )

    def test_model_without_an_affine_layer_fails_before_calibration(
        self, fixture_dir, tmp_path, capsys, no_calibration
    ):
        inputs = tmp_path / "inputs"
        shutil.copytree(fixture_dir, inputs)
        edit_json(inputs / "model.json", ("layers",), [])
        (inputs / "model.bin").write_bytes(b"")  # no layer, so no parameter
        assert main(run_args(inputs, tmp_path / "x")) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: [stage: load-inputs] {inputs / 'model.json'}: model has no affine layer\n"
        )

    def test_committed_config_below_target_exit_target(
        self, fixture_dir, tmp_path, capsys, monkeypatch
    ):
        # a search evaluator that overstates every accuracy commits every
        # tensor at 2 bits; verify-target's own evaluation must catch it
        monkeypatch.setattr(
            pipeline_module,
            "_evaluate_chain",
            lambda model, data, banks, configs: [1.0] * len(configs),
        )
        out = tmp_path / "run"
        assert main(run_args(fixture_dir, out, ["--bits", "2"])) == EXIT_TARGET
        err = capsys.readouterr().err
        assert err.startswith("error: [stage: verify-target]") and "below target" in err
        assert not out.exists()

    def test_committed_config_on_the_bar_exit_ok(self, fixture_dir, tmp_path, capsys, monkeypatch):
        # The search accepts every probe, so every tensor is committed at 2
        # bits, where the engine scores 72 of 100 rows against a baseline of
        # 80 at target 0.9: exactly the bar, which the float product
        # 0.9 * 0.8 = 0.7200000000000001 put out of reach.
        monkeypatch.setattr(
            pipeline_module,
            "_evaluate_chain",
            lambda model, data, banks, configs: [Fraction(1)] * len(configs),
        )

        def engine(model, data, banks, configs):
            return [Fraction(80 if set(c.bits.values()) == {16} else 72, 100) for c in configs]

        monkeypatch.setattr(pipeline_module, "evaluate_configs", engine)
        out = tmp_path / "run"
        assert main(run_args(fixture_dir, out, ["--bits", "2", "--target", "0.9"])) == EXIT_OK
        assert "baseline accuracy 0.8000, target 0.7200" in capsys.readouterr().out
        outcome = read_record(out / "outcome.json", SearchOutcome)
        assert set(outcome.config.bits.values()) == {2}
        assert outcome.target == 0.72
        assert load_manifest(out / "manifest.json").baseline_accuracy == 0.8

    def test_metric_choice_enforced_by_parser(self, fixture_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(run_args(fixture_dir, tmp_path / "x", ["--metric", "entropy"]))
        assert excinfo.value.code == 2
        capsys.readouterr()



# Every PipelineConfig field, in order: a new run knob is an edit here.
PIPELINE_FIELDS = [
    "model", "calib_data", "eval_data", "latency_table", "out_dir", "metric", "algo", "bits",
    "target", "seed", "noise_scale", "trials", "baseline_bits",
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


@pytest.mark.parametrize("version", [7, [], True], ids=["seven", "list", "true"])
def test_compare_refuses_a_record_of_another_version(seed7_run, tmp_path, capsys, version):
    broken = tmp_path / "broken"
    shutil.copytree(seed7_run / "run", broken)
    edit_json(broken / "cost.json", ("version",), version)
    assert main(["compare", str(seed7_run / "run"), str(broken)]) == EXIT_DATA
    assert "cost.json" in capsys.readouterr().err


@pytest.mark.parametrize("manifest", ["model", "run"])
def test_run_refuses_a_manifest_of_another_version(seed7_run, tmp_path, capsys, manifest):
    inputs, rerun, out = tmp_path / "inputs", tmp_path / "rerun.json", tmp_path / "out"
    shutil.copytree(seed7_run / "inputs", inputs)
    shutil.copy(seed7_run / "run" / "manifest.json", rerun)
    if manifest == "model":
        edit_json(inputs / "model.json", ("version",), 2)
        args = run_args(inputs, out)
    else:
        edit_json(rerun, ("version",), 2)
        args = ["run", "--manifest", str(rerun), "--out", str(out)]
    assert main(args) == EXIT_DATA
    assert "version 2" in capsys.readouterr().err
    assert not out.exists()


def test_compare_refuses_a_specs_file_with_an_adjustment_log(seed7_run, tmp_path, capsys):
    # specs files written while calibration ran a scale descent carry its
    # loss log; like any old format, they are not read
    old = tmp_path / "old"
    shutil.copytree(seed7_run / "run", old)
    edit_json(old / "specs-4bit.json", ("adjustment_log",), [0.25, 0.125])
    assert main(["compare", str(seed7_run / "run"), str(old)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "specs-4bit.json" in err and "unknown key 'adjustment_log'" in err


@pytest.mark.parametrize("damage", ["config-not-json", "specs-missing", "untouched"])
def test_compare_reads_every_record_a_run_writes(seed7_run, tmp_path, capsys, damage):
    run, copy = seed7_run / "run", tmp_path / "copy"
    shutil.copytree(run, copy)
    if damage == "config-not-json":
        (copy / "config.json").write_text("{nope")
    elif damage == "specs-missing":
        (copy / "specs-4bit.json").unlink()
    expected = EXIT_OK if damage == "untouched" else EXIT_DATA
    assert main(["compare", str(run), str(copy)]) == expected
    capsys.readouterr()


def test_a_run_writes_exactly_the_records_compare_reads(seed7_run):
    written = sorted(p.name for p in (seed7_run / "run").iterdir())
    assert written == sorted(pipeline_module._record_files([8, 4]))  # the default widths


@pytest.fixture(scope="module")
def two_runs(fixture_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-cmp")
    dirs = []
    for metric in ("hessian", "qe"):
        out = root / metric
        assert main(run_args(fixture_dir, out, ["--metric", metric])) == EXIT_OK
        dirs.append(out)
    return dirs


@pytest.mark.parametrize("command", ["run", "gen-fixture", "compare"])
def test_a_failed_write_exit_data(fixture_dir, two_runs, tmp_path, capsys, monkeypatch, command):
    out = tmp_path / "out"

    def disk_full(path, *args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    if command == "run":
        monkeypatch.setattr(pipeline_module, "write_record", disk_full)
        args = run_args(fixture_dir, out)
    elif command == "gen-fixture":
        monkeypatch.setattr(cli_module, "save_model", lambda model, path: disk_full(path))
        args = ["gen-fixture", "--out", str(out), *SMALL_GEN]
    else:
        monkeypatch.setattr(cli_module, "write_json", disk_full)
        args = ["compare", *map(str, two_runs), "--out", str(out / "summary.json")]
    assert main(args) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "No space left on device" in err and str(out) in err
    if command == "run":
        assert not out.exists()  # the run created it, and removes it again


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

    @pytest.mark.parametrize("where", ["name", "below"])
    def test_out_with_a_name_too_long_exit_config(
        self, two_runs, tmp_path, capsys, monkeypatch, where
    ):
        def no_run_may_be_read(run_dirs):
            raise AssertionError("a run directory was read before --out was checked")

        monkeypatch.setattr(cli_module, "compare_runs", no_run_may_be_read)
        out = too_long(tmp_path, where, ".json")
        assert main(["compare", *map(str, two_runs), "--out", str(out)]) == EXIT_CONFIG
        assert "is unusable: File name too long" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_out_below_missing_directories_creates_them(self, two_runs, tmp_path, capsys):
        out = tmp_path / "missing" / "dir" / "summary.json"
        assert main(["compare", *map(str, two_runs), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert json.loads(out.read_text())["format"] == "mixquant-comparison"

    def test_single_run_exit_config(self, two_runs, tmp_path, capsys):
        assert main(["compare", str(two_runs[0])]) == EXIT_CONFIG
        assert "two" in capsys.readouterr().err
        # refused before the missing directory is read
        assert main(["compare", str(tmp_path / "void")]) == EXIT_CONFIG
        assert "two" in capsys.readouterr().err

    def test_run_dir_named_twice_exit_config(self, two_runs, capsys, monkeypatch):
        # one run under three names would be averaged as three, with no spread
        run = two_runs[0]
        again = run.parent / ".." / run.parent.name / run.name

        def no_record_may_be_read(path, kind):
            raise AssertionError("a run record was read before the names were checked")

        monkeypatch.setattr(pipeline_module, "read_record", no_record_may_be_read)
        assert main(["compare", str(run), str(run), str(again)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: run directory {run} names the same directory as {run}\n"
        )

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
            # right format and version, but every other top-level field is a list
            payload = json.loads(path.read_text())
            envelope = ("format", "version")
            path.write_text(json.dumps({k: v if k in envelope else [] for k, v in payload.items()}))
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
