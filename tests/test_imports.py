"""Every name that a module of the package imports is used in it.

No linter ships with the toolchain, so this stands in for the one check
of it that matters here: an import left behind by a deleted use.
"""

import ast
from pathlib import Path

import pytest

import gstgec

MODULES = sorted(Path(gstgec.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    imported.pop("annotations", None)
    # an attribute chain such as np.float32 starts with a Name too
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used) == []
