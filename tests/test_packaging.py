"""pyproject.toml declares exactly the third-party packages the package imports,
each module uses every name it imports, and importing the package loads no
numerical library."""

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
