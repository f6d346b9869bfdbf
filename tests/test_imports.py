"""Every name that a module of the package or of the tests imports is used in it.

A static check on the syntax tree, with the stdlib ast module only.  A name
counts as used where it is read anywhere in the module, as a bare name or as
the base of an attribute.  An import whose statement carries `# noqa: F401` on
its first line, or on the line of the name itself, is exempt, and so are
`from __future__` imports and `__init__.py`, whose imports are re-exports.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    p
    for p in [*(ROOT / "src" / "qslbounds").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)
NOQA = "# noqa: F401"


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if NOQA in lines[node.lineno - 1] or NOQA in lines[alias.lineno - 1]:
                continue
            # `import a.b` binds a, `import a as b` and `from m import a as b` bind b
            bound = alias.asname or alias.name.partition(".")[0]
            imported.append((alias.lineno, bound))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import_and_honours_noqa():
    source = (
        "import os\n"
        "import os.path as osp\n"
        "from math import pi, tau\n"
        "from json import (  # noqa: F401\n"
        "    dumps,\n"
        ")\n"
        "from sys import (\n"
        "    argv,  # noqa: F401\n"
        "    path,\n"
        ")\n"
        "print(pi, os.sep)\n"
    )
    assert unused_imports(source) == [(2, "osp"), (3, "tau"), (9, "path")]


def test_dynamics_imports_nothing_from_bounds():
    # bounds builds on dynamics, so an import the other way would be a cycle
    source = (ROOT / "src" / "qslbounds" / "dynamics.py").read_text(encoding="utf-8")
    modules = {n.module for n in ast.walk(ast.parse(source)) if isinstance(n, ast.ImportFrom)}
    assert "bounds" not in modules
