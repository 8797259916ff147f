"""The package imports only the standard library and numpy, its one declared dependency."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "noisemech"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_imports_only_stdlib_and_numpy():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in ALLOWED]
    assert foreign == []


# ROADMAP layer order: a module imports only noisemech modules of lower layers
LAYERS = {"hypercube": 0, "gaussian": 0, "noise": 1, "mechanism": 2, "optimize": 3, "cli": 4}


def _package_imports(path: Path) -> set[str]:
    """The noisemech modules that one source file imports, relatively or absolutely."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.partition(".")[0] != "noisemech":
                    continue
                module = module.partition(".")[2]
            found |= {module} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.partition(".")[2] for a in node.names if a.name.startswith("noisemech.")}
    return found


def test_layer_order():
    assert set(LAYERS) | {"__init__"} == {p.stem for p in PACKAGE.glob("*.py")}
    upward = [f"{name} imports {dep}" for name, layer in LAYERS.items()
              for dep in sorted(_package_imports(PACKAGE / f"{name}.py")) if LAYERS[dep] >= layer]
    assert upward == []


# Each edge of the package import graph; a new edge needs a deliberate entry here
ALLOWED_PACKAGE_IMPORTS = {
    "hypercube": set(),
    "gaussian": set(),
    "noise": {"hypercube"},
    "mechanism": {"hypercube"},
    "optimize": {"gaussian", "hypercube", "mechanism", "noise"},
    "cli": {"gaussian", "hypercube", "mechanism", "noise", "optimize"},
}


def test_package_imports_follow_the_table():
    assert set(ALLOWED_PACKAGE_IMPORTS) == set(LAYERS)
    extra = {name: sorted(_package_imports(PACKAGE / f"{name}.py") - allowed)
             for name, allowed in ALLOWED_PACKAGE_IMPORTS.items()}
    assert {name: deps for name, deps in extra.items() if deps} == {}


def test_init_imports_nothing():
    # each public name has one import path: the module that defines it
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))] == []


def _top_level_names(path: Path) -> set[str]:
    """Public names that one module binds at top level by def, class or assignment."""
    names = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {name for name in names if not name.startswith("_")}


def test_each_public_name_defined_once():
    homes: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name in _top_level_names(path):
            homes.setdefault(name, []).append(path.stem)
    assert {name: stems for name, stems in homes.items() if len(stems) > 1} == {}
