"""Every name that a Python file of the repository imports is used in
it, and every name a module of the package defines at top level is used
by the program.

No linter ships with the toolchain, so these stand in for the checks of
one that matter here: an import left behind by a deleted use, and a
function, class or constant that nothing calls any more.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

import gstgec

PACKAGE = Path(gstgec.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
ROOT = PACKAGE.parents[1]
# the program: the package, the benchmark (its tracer names what it wraps
# in strings), the demos and the scripts
PROGRAM = sorted(path for folder in ("src", "perfbench", "demos", "scripts")
                 for path in (ROOT / folder).rglob("*.py"))
# every Python file: the program and the tests
SOURCES = PROGRAM + sorted((ROOT / "tests").rglob("*.py"))


@functools.cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "path", SOURCES,
    ids=lambda path: str(path.relative_to(ROOT)).removeprefix("src/gstgec/"))
def test_every_imported_name_is_used(path):
    tree = _tree(path)
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


@functools.cache
def _uses(path: Path) -> list[set[str]]:
    """For each top-level statement of the file at path, the names it
    uses: Name loads, attribute and keyword names, and the words of its
    string constants other than docstrings.  Comments are not in the
    tree, so a name that only a comment or a docstring mentions is not
    used."""
    tree = _tree(path)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef, ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    uses = []
    for statement in tree.body:
        used = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg is not None:
                used.add(node.arg)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and id(node) not in docstrings):
                used.update(re.findall(r"\w+", node.value))
        uses.append(used)
    return uses


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name)]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_top_level_definition_is_used(path):
    # a name counts as used where code outside its own definition refers
    # to it, or a string other than a docstring names it
    elsewhere = set().union(*(used for other in PROGRAM if other != path
                              for used in _uses(other)))
    own = _uses(path)
    unused = []
    for i, node in enumerate(_tree(path).body):
        outside = elsewhere.union(*own[:i], *own[i + 1:])
        unused += [f"{path.stem}.{name}" for name in _defined_names(node)
                   if name not in outside]
    assert sorted(set(unused)) == []
