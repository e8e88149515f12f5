"""Runtime checks in the package must survive ``python -O``, so none may be an ``assert``."""

import ast
from pathlib import Path

import tmcn

PACKAGE = Path(tmcn.__file__).parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in tmcn: {', '.join(found)}"
