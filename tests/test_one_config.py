"""A model's shape has one definition: no class but ``ModelConfig`` declares its fields."""

import ast
from pathlib import Path

import tmcn

PACKAGE = Path(tmcn.__file__).parent

# same name, different setting: the loss's denominator convention (TrainConfig.ascl_mode)
ALLOWED = {("ContrastiveConfig", "mode")}


def _class_fields(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id, stmt.lineno


def test_model_shape_fields_are_declared_once():
    declared = {path.name: list(_class_fields(ast.parse(path.read_text(), filename=str(path))))
                for path in sorted(PACKAGE.glob("*.py"))}
    shape = {name for cls, name, _ in declared["trainer.py"] if cls == "ModelConfig"}
    assert "seq_len" in shape and "conv_width" in shape
    found = [f"{file}:{line} {cls}.{name}"
             for file, entries in declared.items() for cls, name, line in entries
             if cls != "ModelConfig" and name in shape and (cls, name) not in ALLOWED]
    assert not found, f"ModelConfig fields declared again: {', '.join(found)}"
