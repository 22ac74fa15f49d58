"""Checks on the package source itself."""
import ast
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
