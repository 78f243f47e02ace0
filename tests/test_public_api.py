"""Every name the package exports is used by the package or its benchmark:
an export that only tests call is API to delete, not to keep."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "momentspectra" / "__init__.py"


def _exported_names() -> list[str]:
    tree = ast.parse(INIT.read_text())
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _code_references() -> set[str]:
    """Names, attributes and imported names in the code of src/ and
    perfbench/ outside __init__.py.  Strings, comments and the def or class
    statement of a name do not count."""
    names = set()
    for folder in ("src", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path == INIT:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
    return names


def test_every_export_is_referenced_outside_tests():
    references = _code_references()
    assert [name for name in _exported_names() if name not in references] == []
