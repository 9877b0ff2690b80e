import ast
import re
from pathlib import Path

import soctab

PACKAGE = Path(soctab.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def _exports():
    """Names that ``soctab/__init__.py`` imports from the package's modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def _referenced():
    """Names read (as a name or an attribute) by a module of the package other
    than ``__init__``; an import alone reads nothing."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_runs_or_is_documented():
    readme = set(re.findall(r"\w+", README.read_text()))
    exports = _exports()
    assert len(exports) > 50
    assert sorted(exports - _referenced() - readme) == []
