"""The runtime stays numpy-only: the package imports nothing else."""

import ast
import dataclasses
import sys
from pathlib import Path

import nameblind
from nameblind.training import TrainConfig

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(Path(nameblind.__file__).parent.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert outside == []


# Public names that no other package code calls: the library's documented
# entry points and what the acceptance suite imports. NameTable.coverages
# is the per-record coverage README documents.
KEEP = {
    "load_tabular", "save_embeddings", "clucl_penalty", "cocl_penalty",
    "penalty_value", "penalty_gradient", "predict_batch",
    "NameTable.coverages",
}


def _public(nodes):
    return [node for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_every_public_definition_has_a_package_caller():
    """A public top-level function or class, or a public method of a public
    class, that only its own definition, __init__ exports or tests reach is
    a second code path beside the one the commands run; keep it out unless
    KEEP names it."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(nameblind.__file__).parent.glob("*.py")}
    referenced = set()
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    definitions = []  # (file, qualified name, name)
    for name, tree in trees.items():
        for node in _public(tree.body):
            definitions.append((name, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                definitions += [(name, f"{node.name}.{method.name}",
                                 method.name)
                                for method in _public(node.body)
                                if isinstance(method, ast.FunctionDef)]
    unreached = sorted(f"{name}: {qualified}"
                       for name, qualified, short in definitions
                       if short not in referenced and qualified not in KEEP)
    assert unreached == []
    # an entry for a deleted name would let it come back unseen
    assert sorted(KEEP - {qualified for _, qualified, _ in definitions}) == []


def test_every_train_config_field_is_set_by_the_cli():
    """A TrainConfig field that cli._train_config leaves at its default is
    an option no command can set: make it a constant instead."""
    tree = ast.parse(Path(nameblind.__file__).with_name("cli.py")
                     .read_text(encoding="utf-8"))
    (function,) = [node for node in tree.body
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "_train_config"]
    (call,) = [node for node in ast.walk(function)
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "TrainConfig"]
    fields = [field.name for field in dataclasses.fields(TrainConfig)]
    assert sorted(set(fields) - {kw.arg for kw in call.keywords}) == []
