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


def test_public_names_are_the_imported_names():
    # __all__ lists exactly the names __init__.py imports from the package's
    # submodules, each once, and each resolves on the package
    tree = ast.parse((SOURCE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    public = circuitcover.__all__
    assert len(set(public)) == len(public)
    assert set(public) == imported
    assert [name for name in public if not hasattr(circuitcover, name)] == []


def test_public_surface_is_pinned():
    # the finder's own steps (segmenting, the reach, the descent, the
    # contraction) stay in their submodules, out of the package's surface
    assert circuitcover.__all__ == [
        "Graph",
        "Trail",
        "CutCertificate",
        "EvenExtension",
        "NamedInstance",
        "find_circuit",
        "verify_circuit",
        "min_odd_cut",
        "brute_force_min_odd_cut",
        "edge_connectivity",
        "odd_cut_within",
        "extend_to_even_subgraph",
        "min_components_even_extension",
        "feasible_by_bruteforce",
        "check_parity_monotonicity",
        "ladder",
        "double_clique",
        "two_cycles_bridge",
        "gk_lower_witness",
        "random_connected",
    ]


def test_certificates_imports_nothing_from_the_package():
    # the checker of every answer shares no code with the program that made it
    tree = ast.parse((SOURCE / "certificates.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "circuitcover":
                found.append(f"line {node.lineno}")
        elif isinstance(node, ast.Import):
            found += [
                f"line {node.lineno}"
                for alias in node.names
                if alias.name.split(".")[0] == "circuitcover"
            ]
    assert found == []


def test_imports_sit_at_module_level():
    # every module names what it depends on at its head, so an import cycle
    # cannot hide inside a function body
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {
                    f"{path.name}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                }
    assert sorted(found) == []
