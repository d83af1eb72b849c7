"""pyproject.toml declares exactly the third-party packages the package imports,
each module uses every name it imports, every private name is used, every
public name is exported or used, importing the package loads no numerical
library, and the test settings report a failing property test."""

import ast
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def declared_runtime_dependencies() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in project["dependencies"]}


def third_party_imports() -> set[str]:
    names = set()
    for path in sorted((ROOT / "src" / "switchsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {name for name in names if name not in sys.stdlib_module_names}


def test_runtime_dependencies_are_the_imports():
    assert declared_runtime_dependencies() == third_party_imports()


def unused_imports(path: Path) -> set[str]:
    """Names bound by the module-level imports of ``path`` that nothing reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_import_is_used():
    modules = sorted((ROOT / "src" / "switchsim").glob("*.py"))
    unused = {
        path.name: sorted(names)
        for path in modules
        if path.name != "__init__.py" and (names := unused_imports(path))
    }
    assert unused == {}


def module_definitions(tree: ast.Module):
    """(name, node) of each module-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def private_definitions(tree: ast.Module):
    """(name, node) of each module-level ``_name`` and each private method."""
    private = lambda name: name.startswith("_") and not name.endswith("__")
    for name, node in module_definitions(tree):
        if private(name):
            yield name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and private(item.name):
                    yield item.name, item


def source_trees() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted((ROOT / "src" / "switchsim").glob("*.py"))
    }


def unread(trees: dict[str, ast.Module], definitions) -> list[str]:
    """``module:name`` of each (module, name, node) in ``definitions`` that
    nothing in ``trees`` reads outside the definition itself."""
    reads = [
        (node.id if isinstance(node, ast.Name) else node.attr, node)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]
    dead = []
    for module, name, definition in definitions:
        own = {id(node) for node in ast.walk(definition)}
        if not any(read == name and id(node) not in own for read, node in reads):
            dead.append(f"{module}:{name}")
    return dead


def dead_private_names() -> list[str]:
    """Private names of ``src/switchsim`` that nothing outside their own definition reads."""
    trees = source_trees()
    return unread(
        trees,
        (
            (module, name, node)
            for module, tree in trees.items()
            for name, node in private_definitions(tree)
        ),
    )


def test_every_private_name_is_used():
    assert dead_private_names() == []


def unused_public_names() -> list[str]:
    """Module-level public names of ``src/switchsim`` that ``switchsim/__init__.py``
    does not export and nothing else in ``src/`` reads."""
    trees = source_trees()
    exported = {
        alias.asname or alias.name
        for node in trees["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return unread(
        trees,
        (
            (module, name, node)
            for module, tree in trees.items()
            if module != "__init__.py"
            for name, node in module_definitions(tree)
            if not name.startswith("_") and name not in exported
        ),
    )


def test_every_public_name_is_exported_or_used():
    # enumerate_layouts is the reference path that tests compare optimize against.
    allowed = "optimizer.py:enumerate_layouts"
    assert [name for name in unused_public_names() if name != allowed] == []


def test_import_loads_no_numerical_library():
    probe = (
        "import sys, switchsim; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_failing_property_test_gets_a_failure_report(tmp_path):
    """Under the project's warning filters a falsified ``@given`` test is a normal failure."""
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_falsified(x):\n"
        "    assert x < 5\n"
        "\n"
        "def test_after():\n"
        "    pass\n"
    )
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_property.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_falsified(" in output
    assert "1 failed, 1 passed" in output
    assert result.returncode == 1
