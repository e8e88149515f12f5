"""Static checks over the source of the package, its tests and its tools.

Runtime checks must survive ``python -O``, so none in the package may be
an ``assert``; and every module imports only names it uses.
"""

import ast
from pathlib import Path

import tmcn

PACKAGE = Path(tmcn.__file__).parent
TESTS = Path(__file__).parent
TOOLS = TESTS.parent / "tools"


def _modules(*directories):
    for directory in directories:
        for path in sorted(directory.glob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def test_package_has_no_assert_statements():
    found = []
    for path, tree in _modules(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in tmcn: {', '.join(found)}"


def test_package_imports_no_unused_names():
    found = []
    for path, tree in _modules(PACKAGE, TESTS, TOOLS):
        imported = {}  # bound name -> line of its import
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                used.update(elt.value for elt in node.value.elts)  # a re-export is a use
        found += [f"{path.parent.name}/{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used]
    assert not found, f"unused imports: {', '.join(found)}"
