"""Every name a quiverdg module imports is used in that module.

No linter ships with the project, so this ast walk is the unused-import
check.  A name counts as used when it is loaded anywhere in the module or
listed in the module's __all__.  An import line marked `# noqa: F401` is an
intentional re-export and is exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "quiverdg"
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree, lines):
    """(name, line number) of each binding made by an import statement."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            yield name, node.lineno


def used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    source = path.read_text()
    tree = ast.parse(source)
    used = used_names(tree)
    unused = ["%s:%d %s" % (path.name, line, name)
              for name, line in imported_names(tree, source.splitlines())
              if name not in used]
    assert not unused, "imported but unused: " + ", ".join(unused)


def test_the_check_sees_an_unused_import():
    source = "from .linalg import RowSpace, SpanSolver\n\nspace = RowSpace()\n"
    tree = ast.parse(source)
    unused = [name for name, _ in imported_names(tree, source.splitlines())
              if name not in used_names(tree)]
    assert unused == ["SpanSolver"]
