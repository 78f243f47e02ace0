"""Every name the package exports is used by the package or its benchmark:
an export that only tests call is API to delete, not to keep."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "momentspectra" / "__init__.py"


def _exported_names() -> list[str]:
    tree = ast.parse(INIT.read_text())
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _reference_lines() -> list[str]:
    lines = []
    for folder in ("src", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path != INIT:
                lines.extend(path.read_text().splitlines())
    return lines


def test_every_export_is_referenced_outside_tests():
    lines = _reference_lines()
    unused = []
    for name in _exported_names():
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            unused.append(name)
    assert unused == []
