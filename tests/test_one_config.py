"""A config field has one definition: ``ModelConfig`` alone declares the model's shape,
and each field carries its own text parser and check."""

import ast
import json
from dataclasses import asdict, fields
from pathlib import Path

import tmcn
from tmcn.trainer import TrainConfig

PACKAGE = Path(tmcn.__file__).parent


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
             if cls != "ModelConfig" and name in shape]
    assert not found, f"ModelConfig fields declared again: {', '.join(found)}"


def test_every_train_config_field_has_a_parse_and_a_check():
    missing = [f.name for f in fields(TrainConfig)
               if not (callable(f.metadata.get("parse")) and callable(f.metadata.get("check")))]
    assert not missing, f"fields without a rule: {', '.join(missing)}"


def _as_text(value) -> str:
    if value is None:
        return "none"
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def test_every_default_written_as_text_parses_back_to_the_default():
    parsed = TrainConfig(**{f.name: f.metadata["parse"](_as_text(f.default))
                            for f in fields(TrainConfig)})
    assert parsed == TrainConfig()
    # same types too, so run.json records the same text
    assert json.dumps(asdict(parsed)) == json.dumps(asdict(TrainConfig()))
