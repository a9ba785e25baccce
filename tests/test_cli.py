"""Command-line interface tests, driven in process through main()."""

import json
import shutil

import pytest

from conftest import edit_json
from mixquant.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main

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
        assert "malformed manifest parameters" in err
        # rejected while reading the manifest, before any stage ran
        assert "[stage:" not in err and not (tmp_path / "x").exists()

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

    def test_diverging_calibration_exit_config(self, fixture_dir, tmp_path, capsys):
        code = main(run_args(fixture_dir, tmp_path / "x", ["--lr", "1e308"]))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: [stage: calibrate-scales]")
        assert "non-finite" in err and "learning rate 1e+308" in err

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

    def test_metric_choice_enforced_by_parser(self, fixture_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(run_args(fixture_dir, tmp_path / "x", ["--metric", "entropy"]))
        assert excinfo.value.code == 2
        capsys.readouterr()


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
