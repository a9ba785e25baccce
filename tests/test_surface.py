"""The package's public surface is what its own code and the README use."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Kept public without a caller in src/: the tests' reference grid, against
# which they check that every quantized value lies on the quantizer's lattice.
ALLOWED = {("quantize", "quantization_grid")}


def loaded_names(node):
    """Every name ``node`` loads, as a bare name, an attribute or an imported name."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.ImportFrom):
            names.update(alias.name for alias in child.names)
    return names


def test_every_public_function_and_class_has_a_user():
    definitions = []  # (module, name) of each public module-level function or class
    users = []  # (module, the definition a statement is, or None, the names it loads)
    for path in sorted((ROOT / "src" / "mixquant").glob("*.py")):
        for statement in ast.parse(path.read_text()).body:
            defines = isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            defined = statement.name if defines else None
            if defined and not defined.startswith("_"):
                definitions.append((path.stem, defined))
            users.append((path.stem, defined, loaded_names(statement)))
    section = (ROOT / "README.md").read_text().split("## Library use", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    users.append(("README", None, loaded_names(ast.parse(example))))
    assert definitions
    unused = [
        f"{module}.{name}"
        for module, name in definitions
        if (module, name) not in ALLOWED
        and not any(name in names and (where, by) != (module, name) for where, by, names in users)
    ]
    assert unused == [], "public, but used by no other code in src/ nor by the README example"
