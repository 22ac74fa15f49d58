"""Checks on the package source itself."""
import ast
import builtins
from pathlib import Path

import circuitcover

SOURCE = Path(circuitcover.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips assert statements, and soundness checks must still
    # run there: they raise instead
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_exception_classes_live_in_errors():
    # every exception type of the package is a public name of errors.py, so
    # no private control-flow exception hides in a module
    errors = ast.parse((SOURCE / "errors.py").read_text())
    exception_names = {
        name
        for name, obj in vars(builtins).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    } | {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = {getattr(b, "attr", getattr(b, "id", None)) for b in node.bases}
            if bases & exception_names:
                found.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == []
