"""Module boundaries inside the package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "distagm"


def test_no_private_imports_between_modules():
    """A module reads only its siblings' public names: an underscore-prefixed
    name imported from another module is a copy of a decision that should
    live behind a public name."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "distagm":
                continue
            found += [f"{path.name}: {alias.name} from {node.module}"
                      for alias in node.names if alias.name.startswith("_")]
    assert found == []
