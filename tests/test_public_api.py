"""No test-only API in the package: every exported name, every public
module-level function and class under ``src/manifold_cd/``, every public
method of a class there and every ``OptimizerConfig`` field is used by the
package itself or by perfbench.

A use is a name or attribute reference in the code, read from the syntax
tree, so a name's own ``def``/``class`` line, the ``__all__`` strings, import
lines and mentions in docstrings do not count.  A use of a method name counts
for every class that defines it, so two unrelated classes (no common base but
``object``) may share a public method name only where ``SHARED_METHODS``
lists one of them, with the reason.  A config field counts as used
when it is passed by keyword to ``OptimizerConfig(...)`` or ``replace(...)``.
Helpers that only the tests need live in ``tests/reference.py``."""

import ast
import itertools
from dataclasses import fields
from pathlib import Path

import pytest

import manifold_cd
import manifold_cd.manifolds
from manifold_cd.optimize import OptimizerConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "manifold_cd"


def _trees(*dirs):
    return {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for d in dirs for path in sorted(d.rglob("*.py"))}


CALLERS = _trees(PACKAGE, ROOT / "perfbench")


def _used_names() -> set[str]:
    used = set()
    for tree in CALLERS.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _config_keywords() -> set[str]:
    passed = set()
    for tree in CALLERS.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("OptimizerConfig", "replace"):
                passed.update(kw.arg for kw in node.keywords if kw.arg is not None)
    return passed


def _package_modules():
    """(dotted module name, syntax tree) of every module under ``src/``."""
    for path, tree in CALLERS.items():
        if path.is_relative_to(PACKAGE):
            yield path.relative_to(PACKAGE).with_suffix("").as_posix().replace("/", "."), tree


def _public_definitions() -> list[str]:
    names = []
    for module, tree in _package_modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                names.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                names += [f"{module}.{node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return names


# Methods that implement an unrelated class's protocol on purpose.
SHARED_METHODS = {
    "embeddings.HyperboloidColumns.gradient_norm":
        "the epoch loop reads the log norms of a manifold through this protocol",
    "embeddings.HyperboloidColumns.feasibility_residual":
        "the epoch loop reads the log norms of a manifold through this protocol",
}


def _shared_by_unrelated_classes() -> set[str]:
    """Public methods whose name another class defines with no common base,
    unless one of the two is in ``SHARED_METHODS``."""
    bases, methods = {}, []
    for module, tree in _package_modules():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [getattr(b, "id", getattr(b, "attr", None))
                                    for b in node.bases]
                methods += [(f"{module}.{node.name}", item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")]

    def lineage(cls: str) -> set[str]:
        return {cls}.union(*(lineage(b) for b in bases.get(cls, ())))

    shared = set()
    for (a, name), (b, other) in itertools.combinations(methods, 2):
        if (name == other and not {f"{a}.{name}", f"{b}.{name}"} & set(SHARED_METHODS)
                and not lineage(a.rsplit(".", 1)[-1]) & lineage(b.rsplit(".", 1)[-1])):
            shared |= {f"{a}.{name}", f"{b}.{name}"}
    return shared


NAMES = sorted(set(manifold_cd.__all__) | set(manifold_cd.manifolds.__all__)
               | set(_public_definitions()))
USED = _used_names()
CONFIG_FIELDS = [f.name for f in fields(OptimizerConfig)]
CONFIG_KEYWORDS = _config_keywords()
SHARED = _shared_by_unrelated_classes()


def test_the_scan_sees_the_package():
    assert "manifolds.base.Manifold.coordinate_retract" in NAMES
    assert "rng.SplitMix64.gaussian" in NAMES
    assert "coordinate_retract" in USED
    assert "trace" in CONFIG_FIELDS and "trace" in CONFIG_KEYWORDS


@pytest.mark.parametrize("name", NAMES)
def test_public_name_has_a_caller_outside_the_tests(name):
    assert name.rsplit(".", 1)[-1] in USED, (
        f"{name} is used only by the tests: move it to tests/reference.py")
    assert name not in SHARED, (
        f"{name}: an unrelated class defines the same method name, so neither "
        "shows its own callers; rename one or list it in SHARED_METHODS")


@pytest.mark.parametrize("name", sorted(SHARED_METHODS))
def test_shared_method_is_defined(name):
    assert name in NAMES


@pytest.mark.parametrize("field", CONFIG_FIELDS)
def test_config_field_is_set_outside_the_tests(field):
    assert field in CONFIG_KEYWORDS, (
        f"OptimizerConfig.{field} is set only by the tests: make it a constant")
