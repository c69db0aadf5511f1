"""Package metadata: ``pyproject.toml`` declares what ``src/`` needs.

``pip install -e .`` reads its metadata from ``pyproject.toml`` (the
``setup.py`` shim carries none).  These checks keep the declaration
honest: the name, version source, Python floor, console script and
package discovery are the ones the code expects, and every third-party
module imported anywhere under ``src/`` — including imports deferred
into function bodies — is a declared dependency.
"""

from __future__ import annotations

import ast
import re
import sys
import tomllib
from pathlib import Path

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Import name -> distribution name, where the two differ.
DISTRIBUTION_OF = {"yaml": "pyyaml"}


def _pyproject() -> dict:
    return tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())


def _normalize(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def _declared_dependencies() -> set[str]:
    names = set()
    for requirement in _pyproject()["project"]["dependencies"]:
        names.add(_normalize(re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0]))
    return names


def _third_party_imports() -> dict[str, str]:
    """Top-level third-party module -> first file importing it."""
    found: dict[str, str] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.partition(".")[0]
                if top in sys.stdlib_module_names or top in ("repro", "__future__"):
                    continue
                found.setdefault(top, str(path.relative_to(REPO_ROOT)))
    return found


def test_project_name_version_and_python_floor():
    project = _pyproject()["project"]
    assert project["name"] == "blockoptr-repro"
    assert project["requires-python"] == ">=3.11"
    # The version has one home, the package itself.
    assert "version" in project["dynamic"] and "version" not in project
    dynamic = _pyproject()["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "repro.__version__"}
    assert repro.__version__


def test_console_script_and_src_layout():
    config = _pyproject()
    assert config["project"]["scripts"] == {"repro": "repro.cli:main"}
    from repro.cli import main

    assert callable(main)
    assert config["tool"]["setuptools"]["packages"]["find"]["where"] == ["src"]


def test_every_third_party_import_is_declared():
    imports = _third_party_imports()
    assert {"numpy", "networkx", "yaml"} <= set(imports), imports
    declared = _declared_dependencies()
    undeclared = {
        module: where
        for module, where in imports.items()
        if _normalize(DISTRIBUTION_OF.get(module, module)) not in declared
    }
    assert not undeclared, f"imported under src/ but not declared: {undeclared}"
