"""The README's library example runs as printed."""

import importlib
import pkgutil
import re
from pathlib import Path

import mixquant
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


def test_every_record_class_is_in_the_file_formats_table():
    section = README.read_text().split("## File formats", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.lstrip().startswith("|")]
    modules = [
        importlib.import_module(f"mixquant.{info.name}")
        for info in pkgutil.iter_modules(mixquant.__path__)
        if info.name != "__main__"
    ]
    # every class defined in src/ that holds a FORMAT of its own
    records = [
        (f"{cls.__module__.removeprefix('mixquant.')}.{cls.__qualname__}", cls.FORMAT)
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__ and "FORMAT" in vars(cls)
    ]
    assert records
    for dotted, fmt in records:
        assert any(f"| `{fmt}` | `{dotted}` |" in row for row in rows), dotted
