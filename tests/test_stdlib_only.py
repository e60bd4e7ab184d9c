"""The package needs nothing outside the standard library: pyproject.toml
declares no dependencies, and every absolute import under src/stbac names
stbac itself or a standard-library module."""

import ast
import sys
from pathlib import Path

import stbac

PACKAGE = Path(stbac.__file__).resolve().parent


def absolute_imports(path: Path) -> set:
    """The top-level module of every absolute import in a source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_absolute_import_is_stbac_or_the_standard_library():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "scenarios" / "__init__.py" in sources
    foreign = {}
    for path in sources:
        outside = absolute_imports(path) - {"stbac"} - sys.stdlib_module_names
        if outside:
            foreign[str(path.relative_to(PACKAGE))] = sorted(outside)
    assert foreign == {}


def test_the_import_walk_sees_absolute_and_relative_imports(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("import os.path\nfrom __future__ import annotations\n"
                      "from . import model\nfrom .world import World\n"
                      "import numpy as np\nfrom yaml import safe_load\n")
    assert absolute_imports(source) == {"os", "__future__", "numpy", "yaml"}
