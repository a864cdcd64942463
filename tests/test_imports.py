"""Every name that a module of the package imports is used in it, and
every name it defines at top level is used by the program.

No linter ships with the toolchain, so these stand in for the checks of
one that matter here: an import left behind by a deleted use, and a
function, class or constant that nothing calls any more.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import gstgec

PACKAGE = Path(gstgec.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
ROOT = PACKAGE.parents[1]
# the program: the package, the benchmark (its tracer names what it wraps
# in strings, which a word match finds), the demos and the scripts
PROGRAM = sorted(path for folder in ("src", "perfbench", "demos", "scripts")
                 for path in (ROOT / folder).rglob("*.py"))
# only tests use these, as fixtures for the CLI's file formats
USED_BY_TESTS_ONLY = {"corpus.read_labeled_tsv", "corpus.write_sentences"}


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


def _words(text: str) -> Counter:
    return Counter(re.findall(r"\w+", text))


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
    # a word match: a name counts as used wherever it appears outside its
    # own definition, in code, a string or a comment
    elsewhere = sum((_words(other.read_text(encoding="utf-8"))
                     for other in PROGRAM if other != path), Counter())
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    unused = []
    for node in ast.parse("".join(lines)).body:
        outside = _words("".join(lines[:node.lineno - 1]
                                 + lines[node.end_lineno:]))
        unused += [f"{path.stem}.{name}" for name in _defined_names(node)
                   if not elsewhere[name] + outside[name]]
    assert sorted(set(unused) - USED_BY_TESTS_ONLY) == []
