"""The README's library example runs as printed."""

import re
from pathlib import Path

from mixquant.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    assert main(["gen-fixture", "--seed", "7", "--out", str(tmp_path / "fixture")]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    model = namespace["model"]
    assert namespace["w4"].shape == model.parameter("dense1.weight").shape
    assert sorted(namespace["report"].ordering) == sorted(model.weight_tensor_names())
