"""The runtime stays numpy-only: the package imports nothing else."""

import ast
import dataclasses
import sys
from pathlib import Path

import numpy as np

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
# entry points and what the acceptance suite imports or calls
# (BiasReport.get), and the dataclass fields an outside reader needs:
# TrainResult.split (the README quick start and bench/tracing.py's row
# count), GridResult.fits (the README quick start; the commands hand their
# fits to a training.FitQueue), GridResult.split and
# ClusterModel.iterations_run (bench/tracing.py)
# and ClusterModel.inertia_history (the k-means acceptance criterion and
# bench/child.py's capture). save_model is the README's way to write a model
# file; the train command writes the model_text that a seed's fitting
# process rendered.
KEEP = {
    "load_tabular", "save_model", "clucl_penalty", "cocl_penalty",
    "penalty_value", "penalty_gradient", "predict_batch", "BiasReport.get",
    "TrainResult.split", "GridResult.fits", "GridResult.split",
    "ClusterModel.iterations_run",
    "ClusterModel.inertia_history",
}

# Attribute names that builtin containers and arrays also carry: a read of
# x.get or x.take may be a dict's or an array's, not the method's.
SHARED = set().union(*map(dir, (dict, list, set, str, np.ndarray)))


def _public(nodes):
    return [node for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _references(tree):
    """The names a module reads, the attributes it reads, and the names it
    reads, imports or defines."""
    names, attributes, named = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif isinstance(node, ast.ClassDef):
            named.add(node.name)
        elif isinstance(node, ast.alias):
            named.add(node.asname or node.name)
    return names, attributes, named | names


def _package_references():
    """_references per package module but __init__, and every module's tree."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(nameblind.__file__).parent.glob("*.py")}
    return [_references(tree) for name, tree in trees.items()
            if name != "__init__.py"], trees


def _unreached(modules, definitions):
    """The definitions (file, qualified name, class or None, name, field)
    that no module reaches and KEEP does not name. A method or field named
    like an attribute of a builtin container or array (SHARED) is reached
    only by a module that reads the attribute and names its class; any
    other field by a module that reads the attribute, and any other name
    by a module that reads it."""
    def reached(cls, short, field):
        if cls is not None and short in SHARED:
            return any(short in attributes and cls in named
                       for _, attributes, named in modules)
        return any(short in attributes or (short in names and not field)
                   for names, attributes, _ in modules)

    return sorted(f"{name}: {qualified}"
                  for name, qualified, cls, short, field in definitions
                  if not reached(cls, short, field) and qualified not in KEEP)


def _is_dataclass(node):
    return any(getattr(getattr(decorator, "func", decorator), "id", None)
               == "dataclass" for decorator in node.decorator_list)


def _definitions(trees):
    """(file, qualified name, class or None, name, whether a dataclass
    field) of each public function, class, method and dataclass field."""
    definitions = []
    for name, tree in trees.items():
        for node in _public(tree.body):
            definitions.append((name, node.name, None, node.name, False))
            if isinstance(node, ast.ClassDef):
                definitions += [(name, f"{node.name}.{method.name}",
                                 node.name, method.name, False)
                                for method in _public(node.body)
                                if isinstance(method, ast.FunctionDef)]
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                definitions += [(name, f"{node.name}.{item.target.id}",
                                 node.name, item.target.id, True)
                                for item in node.body
                                if isinstance(item, ast.AnnAssign)
                                and not item.target.id.startswith("_")]
    return definitions


def test_every_public_definition_has_a_package_caller():
    """A public top-level function or class, a public method of a public
    class, or a field of a public dataclass that only its own definition,
    __init__ exports or tests reach is a second code path beside the one
    the commands run, or a value no command reads; keep it out unless KEEP
    names it."""
    modules, trees = _package_references()
    definitions = _definitions(trees)
    unreached = _unreached(modules, definitions)
    assert unreached == []
    # an entry for a deleted name would let it come back unseen
    defined = {qualified for _, qualified, _, _, _ in definitions}
    assert sorted(KEEP - defined) == []


def test_a_method_named_like_a_builtin_attribute_needs_its_class_named():
    # x.copy() anywhere reads some array's copy; it does not reach a
    # BiasReport.copy no module that names BiasReport calls
    modules, trees = _package_references()
    dead = ("metrics.py", "BiasReport.copy", "BiasReport", "copy", False)
    assert any("copy" in attributes for _, attributes, _ in modules)
    assert _unreached(modules, _definitions(trees) + [dead]) == [
        "metrics.py: BiasReport.copy"]


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
